import csv
import dataclasses
import hashlib
import io
import json
import logging
import math
import os
import shutil
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bnbprice import cli, ingest
from bnbprice.cli import main
from bnbprice.serialize import load_file
import reference_ingest


def write_config(path, **kw):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(kw, fh)
    return str(path)


def base_config(tmp, out):
    return write_config(
        tmp / "config.json",
        cities={"synthville": {"listings": str(tmp / "data" / "listings.csv"),
                               "reviews": str(tmp / "data" / "reviews.csv")}},
        out=str(out),
        seed=1,
        k_clusters=2,
        min_df=1,
        max_terms=50,
        top_n_neighbourhoods=5,
        models=[{"kind": "ridge", "lambda": 1.0},
                {"kind": "gbdt", "n_estimators": 10, "max_depth": 3,
                 "min_samples_leaf": 5}],
        grid={"model": 0, "params": {"lambda": [0.1, 10.0]}},
        importance_top_n=10,
    )


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("flow")
    out = tmp / "out"
    assert main(["synth", "--n", "150", "--cities", "2", "--noise-sigma", "0.1",
                 "--seed", "5", "--out", str(tmp / "data")]) == 0
    config = base_config(tmp, out)
    assert main(["ingest", "--config", config]) == 0
    assert main(["train", "--config", config]) == 0
    return tmp, out, config


def test_train_writes_all_report_files(trained):
    tmp, out, config = trained
    for name in ("dataset.json", "drop_log.json", "report.json",
                 "importance.csv", "importance.svg", "pipeline.json",
                 "model_0_ridge.json", "model_1_gbdt.json", "clusters.svg"):
        assert (out / name).exists(), name
    report = load_file(out / "report.json")
    assert report["dataset_summary"]["n_listings"] == 150
    assert report["dataset_summary"]["cities"] == ["synthville"]
    assert [m["kind"] for m in report["models"]] == ["ridge", "gbdt"]
    assert report["split"]["sizes"] == {"train": 120, "val": 15, "test": 15}
    assert report["config"]["seed"] == 1
    assert list(out.glob(".staging-*")) == []


def test_grid_results_recorded_in_report(trained):
    tmp, out, config = trained
    report = load_file(out / "report.json")
    assert len(report["grid"]) == 1
    table = report["grid"][0]
    assert table["model_index"] == 0
    assert table["best_params"]["lambda"] in (0.1, 10.0)
    assert len(table["cells"]) == 2
    assert all(cell["status"] == "ok" for cell in table["cells"])
    assert report["models"][0]["params"]["lambda"] == table["best_params"]["lambda"]


def test_predict_outputs_price_for_every_row(trained):
    tmp, out, config = trained
    code = main(["predict", "--out", str(out),
                 "--model", str(out / "model_1_gbdt.json"),
                 "--listings", str(tmp / "data" / "listings.csv"),
                 "--reviews", str(tmp / "data" / "reviews.csv")])
    assert code == 0
    rows = list(csv.DictReader(io.StringIO((out / "predictions.csv").read_text())))
    assert len(rows) == 150
    for row in rows[:10]:
        ln_pred = float(row["ln_price_pred"])
        assert float(row["price_pred"]) == math.exp(ln_pred)
    assert 2.0 < float(rows[0]["ln_price_pred"]) < 7.0


def test_predict_without_reviews_still_scores(trained):
    tmp, out, config = trained
    alt = tmp / "noreviews"
    code = main(["predict", "--out", str(alt),
                 "--pipeline", str(out / "pipeline.json"),
                 "--model", str(out / "model_0_ridge.json"),
                 "--listings", str(tmp / "data" / "listings.csv")])
    assert code == 0
    text = (alt / "predictions.csv").read_text()
    assert len(text.splitlines()) == 151


def test_predict_reads_out_from_config_and_out_overrides_it(trained, tmp_path, monkeypatch):
    # the README's `predict --config config.json --model <out>/...` with a config
    # whose out is not the default: pipeline.json is read from, and the
    # predictions written to, the config's out unless --out names another
    tmp, out, config = trained
    monkeypatch.chdir(tmp_path)
    for name in ("moved", "flag"):
        (tmp_path / name).mkdir()
        for file in ("pipeline.json", "model_1_gbdt.json"):
            (tmp_path / name / file).write_bytes((out / file).read_bytes())
    write_config(tmp_path / "config.json", out="moved")
    args = ["predict", "--config", "config.json", "--model", "moved/model_1_gbdt.json",
            "--listings", str(tmp / "data" / "listings.csv")]
    assert main(args) == 0
    assert main(args + ["--out", "flag"]) == 0
    assert main(["predict", "--out", "default", "--pipeline", "moved/pipeline.json",
                 *args[3:]]) == 0
    want = read_csv(tmp_path / "default" / "predictions.csv")
    assert len(want) == 151
    assert read_csv(tmp_path / "moved" / "predictions.csv") == want
    assert read_csv(tmp_path / "flag" / "predictions.csv") == want
    assert not (tmp_path / "out").exists()


def test_train_rerun_is_byte_identical(trained):
    tmp, out, config = trained
    before = {name: (out / name).read_bytes()
              for name in ("report.json", "importance.csv", "pipeline.json",
                           "model_0_ridge.json", "model_1_gbdt.json")}
    assert main(["train", "--config", config]) == 0
    for name, blob in before.items():
        assert (out / name).read_bytes() == blob, name


def test_config_echo_reproduces_report(trained):
    tmp, out, config = trained
    report = load_file(out / "report.json")
    echo = write_config(tmp / "echo.json", **report["config"])
    before = (out / "report.json").read_bytes()
    assert main(["train", "--config", echo]) == 0
    assert (out / "report.json").read_bytes() == before


def test_seed_flag_overrides_config_file(trained, tmp_path):
    tmp, out, config = trained
    alt = tmp_path / "seeded"
    with open(config, encoding="utf-8") as fh:
        doc = json.load(fh)
    cfg2 = write_config(tmp_path / "s.json",
                        **{**doc, "dataset": str(out / "dataset.json"),
                           "out": str(alt)})
    assert main(["train", "--config", cfg2, "--seed", "2"]) == 0
    report = load_file(alt / "report.json")
    assert report["split"]["seed"] == 2
    assert report["config"]["seed"] == 2
    original = load_file(out / "report.json")
    assert original["models"][0]["test"]["mse"] != report["models"][0]["test"]["mse"]


def test_ingest_thread_count_does_not_change_output(trained, tmp_path):
    tmp, out, config = trained
    second = tmp_path / "city_b"
    second.mkdir()
    for name, id_cols in (("listings.csv", (0,)), ("reviews.csv", (0, 1))):
        with open(tmp / "data" / name, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        for row in rows[1:]:
            for col in id_cols:
                row[col] = str(int(row[col]) + 10000)
        with open(second / name, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
    cities = {"a": {"listings": str(tmp / "data" / "listings.csv"),
                    "reviews": str(tmp / "data" / "reviews.csv")},
              "b": {"listings": str(second / "listings.csv"),
                    "reviews": str(second / "reviews.csv")}}
    one = write_config(tmp_path / "one.json", cities=cities,
                       out=str(tmp_path / "t1"))
    four = write_config(tmp_path / "four.json", cities=cities,
                        out=str(tmp_path / "t4"))
    assert main(["ingest", "--config", one, "--threads", "1"]) == 0
    assert main(["ingest", "--config", four, "--threads", "3"]) == 0
    a = (tmp_path / "t1" / "dataset.json").read_bytes()
    b = (tmp_path / "t4" / "dataset.json").read_bytes()
    assert a == b
    doc = load_file(tmp_path / "t1" / "dataset.json")
    assert len(doc["listings"]) == 300


def test_missing_config_file_exits_2(tmp_path):
    assert main(["train", "--config", str(tmp_path / "nope.json")]) == 2


def test_ingest_without_cities_exits_2(tmp_path):
    empty = write_config(tmp_path / "empty.json", out=str(tmp_path / "o"))
    assert main(["ingest", "--config", empty]) == 2


def test_unreadable_input_csv_exits_2(tmp_path):
    cfg = write_config(tmp_path / "c.json",
                       cities={"x": {"listings": str(tmp_path / "missing.csv"),
                                     "reviews": str(tmp_path / "missing2.csv")}},
                       out=str(tmp_path / "o"))
    assert main(["ingest", "--config", cfg]) == 2
    assert not (tmp_path / "o" / "dataset.json").exists()


def pipeline_sha256(out):
    return hashlib.sha256((out / "pipeline.json").read_bytes()).hexdigest()


def test_predict_feature_width_mismatch_exits_2(trained, tmp_path, caplog):
    tmp, out, config = trained
    bad = tmp_path / "bad_model.json"
    bad.write_text(json.dumps({"schema_version": 2, "kind": "ridge",
                               "pipeline_sha256": pipeline_sha256(out),
                               "params": {"lambda": 1.0},
                               "coefficients": [1.0, 2.0], "intercept": 0.0}))
    code = main(["predict", "--out", str(tmp_path / "p"),
                 "--pipeline", str(out / "pipeline.json"),
                 "--model", str(bad),
                 "--listings", str(tmp / "data" / "listings.csv")])
    assert code == 2
    errors = error_lines(caplog)
    assert len(errors) == 1 and "expected 2 features" in errors[0], errors
    assert not (tmp_path / "p" / "predictions.csv").exists()


def test_failed_emit_cleans_partial_outputs(trained, tmp_path):
    tmp, out, config = trained
    broken = tmp_path / "broken_out"
    broken.mkdir()
    (broken / "importance.csv").mkdir()  # blocks the second report file
    cfg = write_config(tmp_path / "broken.json",
                       **{**json.load(open(config)),
                          "dataset": str(out / "dataset.json"),
                          "out": str(broken)})
    assert main(["train", "--config", cfg]) == 2
    assert not (broken / "report.json").exists()


def test_a_failed_move_removes_the_files_moved_before_it(trained, tmp_path, caplog):
    tmp, out, config = trained
    broken = tmp_path / "broken_out"
    (broken / "report.json").mkdir(parents=True)  # outputs move in name order; this one last
    cfg = write_config(tmp_path / "broken.json",
                       **{**json.load(open(config)), "dataset": str(out / "dataset.json"),
                          "out": str(broken), "models": [{"kind": "ridge"}]})
    assert main(["train", "--config", cfg]) == 2
    errors = error_lines(caplog)
    assert len(errors) == 1 and "cannot write %s" % (broken / "report.json") in errors[0], errors
    assert os.listdir(broken) == ["report.json"]


def tree_hashes(directory):
    """sha256 of every file under directory, keyed by its relative path."""
    return {str(p.relative_to(directory)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(directory.rglob("*")) if p.is_file()}


def test_failed_train_leaves_the_earlier_run_as_it_was(trained, tmp_path, monkeypatch):
    tmp, out, config = trained
    rerun = tmp_path / "o"
    rerun.mkdir()
    shutil.copy(out / "dataset.json", rerun / "dataset.json")
    cfg = write_config(tmp_path / "c.json", **{**json.load(open(config)), "out": str(rerun),
                                               "models": [{"kind": "ridge"}]})
    assert main(["train", "--config", cfg]) == 0
    before = tree_hashes(rerun)
    assert len(before) == 7 and "clusters.svg" in before

    def fail(*args):
        raise OSError("no space left on device")

    monkeypatch.setattr(cli.geofeat, "clusters_svg", fail)  # the last file train writes
    assert main(["train", "--config", cfg]) == 2
    assert tree_hashes(rerun) == before
    assert list(rerun.glob(".staging-*")) == []


def test_ingest_writes_a_dataset_outside_out_that_train_reads(trained, tmp_path):
    tmp, out, config = trained
    dataset = tmp_path / "elsewhere" / "ds.json"
    cfg = write_config(tmp_path / "c.json", **{**json.load(open(config)), "dataset": str(dataset),
                                               "out": str(tmp_path / "o"),
                                               "models": [{"kind": "ridge"}]})
    assert main(["ingest", "--config", cfg]) == 0
    assert dataset.read_bytes() == (out / "dataset.json").read_bytes()
    assert os.listdir(dataset.parent) == ["ds.json"]
    assert os.listdir(tmp_path / "o") == ["drop_log.json"]
    assert main(["train", "--config", cfg]) == 0
    assert load_file(tmp_path / "o" / "report.json")["dataset_summary"]["n_listings"] == 150


def test_unknown_config_key_exits_2(tmp_path):
    cfg = write_config(tmp_path / "c.json", bogus_key=1)
    assert main(["train", "--config", cfg]) == 2


def test_mistyped_config_field_exits_2_with_one_line(tmp_path, caplog):
    cfg = write_config(tmp_path / "c.json", k_clusters="20", out=str(tmp_path / "o"))
    assert main(["ingest", "--config", cfg]) == 2
    errors = [rec.getMessage() for rec in caplog.records if rec.levelname == "ERROR"]
    assert len(errors) == 1 and "k_clusters" in errors[0], errors
    assert "\n" not in errors[0]


def test_predict_malformed_model_doc_exits_2(trained, tmp_path, caplog):
    tmp, out, config = trained
    bad = tmp_path / "bad_model.json"
    bad.write_text(json.dumps({"schema_version": 2, "kind": "ridge",
                               "pipeline_sha256": pipeline_sha256(out)}))
    code = main(["predict", "--out", str(tmp_path / "p"),
                 "--pipeline", str(out / "pipeline.json"),
                 "--model", str(bad),
                 "--listings", str(tmp / "data" / "listings.csv")])
    assert code == 2
    errors = [rec.getMessage() for rec in caplog.records if rec.levelname == "ERROR"]
    assert len(errors) == 1 and "missing key 'params'" in errors[0], errors
    assert not (tmp_path / "p" / "predictions.csv").exists()


def error_lines(caplog):
    return [rec.getMessage() for rec in caplog.records if rec.levelname == "ERROR"]


@pytest.mark.parametrize("entry,kind,key", [
    ({"kind": "gbdt", "n_estimators": True, "max_depth": 2.9}, "gbdt", "n_estimators"),
    ({"kind": "ridge", "lambda": "2"}, "ridge", "lambda"),
    ({"kind": "mlp", "hidden_sizes": [4.7]}, "mlp", "hidden_sizes"),
])
def test_mistyped_model_param_exits_2_with_one_line(trained, tmp_path, caplog, entry, kind, key):
    tmp, out, config = trained
    cfg = write_config(tmp_path / "c.json", dataset=str(out / "dataset.json"),
                       out=str(tmp_path / "o"), models=[entry])
    assert main(["train", "--config", cfg]) == 2
    errors = error_lines(caplog)
    assert len(errors) == 1 and "%s params: key %r" % (kind, key) in errors[0], errors
    assert not (tmp_path / "o" / "report.json").exists()


def test_mistyped_grid_value_exits_2_with_one_line(trained, tmp_path, caplog):
    tmp, out, config = trained
    cfg = write_config(tmp_path / "c.json", dataset=str(out / "dataset.json"),
                       out=str(tmp_path / "o"), models=[{"kind": "ridge"}],
                       grid={"params": {"lambda": [0.1, "10"]}})
    assert main(["train", "--config", cfg]) == 2
    errors = error_lines(caplog)
    assert len(errors) == 1 and "ridge params: key 'lambda'" in errors[0], errors


@pytest.mark.parametrize("models,grid,expected", [
    pytest.param([{"kind": "gbdt", "max_depth": 0}], None,
                 "gbdt params: max_depth must be >= 1", id="gbdt max_depth 0"),
    pytest.param([{"kind": "mlp", "hidden_sizes": [8, 0]}], None,
                 "mlp params: every hidden size must be >= 1", id="mlp hidden size 0"),
    pytest.param([{"kind": "gbdt"}], {"params": {"learning_rate": [0.1, 1.5]}},
                 "gbdt params: learning_rate must be in (0, 1]", id="grid learning_rate 1.5"),
    pytest.param([{"kind": "ridge"}], {"params": {"lambda": [1.0, -0.5]}},
                 "ridge params: lambda must be >= 0", id="grid lambda -0.5"),
])
def test_out_of_range_model_param_exits_2_as_the_config_loads(tmp_path, caplog, models, grid,
                                                              expected):
    # the dataset does not exist: the run must stop before it would read it
    cfg = write_config(tmp_path / "c.json", dataset=str(tmp_path / "absent.json"),
                       out=str(tmp_path / "o"), models=models,
                       **({"grid": grid} if grid else {}))
    assert main(["train", "--config", cfg]) == 2
    errors = error_lines(caplog)
    assert len(errors) == 1 and expected in errors[0], errors
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command,keys,expected", [
    pytest.param("ingest", {"cities": {"a": {"listings": 0, "reviews": "r.csv"}}},
                 "config cities['a']: key 'listings' must be str, got int 0", id="listings 0"),
    pytest.param("ingest", {"cities": {"a": {"listings": "l.csv"}}},
                 "config cities['a']: missing key 'reviews'", id="city without reviews"),
    pytest.param("train", {"room_type_levels": [1, 2]},
                 "config: key 'room_type_levels' must be list of str", id="room types 1 2"),
    pytest.param("train", {"snapshot_date": "2020-13-01"},
                 "config snapshot_date must be an ISO date, got '2020-13-01'",
                 id="snapshot month 13"),
    pytest.param("train", {"kmeans_tol": math.nan}, "non-finite number NaN at /kmeans_tol",
                 id="kmeans_tol NaN"),
    pytest.param("train", {"models": [{"kind": "ridge", "lambda": math.inf}]},
                 "non-finite number Infinity at /models/0/lambda", id="ridge lambda Infinity"),
    pytest.param("train", {"models": [{"kind": "ridge"}, {"kind": "gbdt"}],
                           "grid": {"model": True, "params": {"lambda": [0.1, 10.0]}}},
                 "config grid: key 'model' must be int, got bool True", id="grid model true"),
    pytest.param("train", {"kmeans_max_iter": 0}, "kmeans_max_iter must be >= 1",
                 id="kmeans_max_iter 0"),
    pytest.param("train", {"kmeans_tol": -1}, "kmeans_tol must be > 0", id="kmeans_tol -1"),
])
def test_mistyped_nested_config_value_exits_2_as_the_config_loads(tmp_path, caplog, command,
                                                                   keys, expected):
    # the dataset does not exist: the run must stop before it would read anything
    cfg = write_config(tmp_path / "c.json", dataset=str(tmp_path / "absent.json"),
                       out=str(tmp_path / "o"), **keys)
    assert main([command, "--config", cfg]) == 2
    errors = error_lines(caplog)
    assert len(errors) == 1 and expected in errors[0], errors
    assert not (tmp_path / "o").exists()


def test_scaler_map_typo_exits_2_with_one_line(trained, tmp_path, caplog):
    tmp, out, config = trained
    cfg = write_config(tmp_path / "c.json", dataset=str(out / "dataset.json"),
                       out=str(tmp_path / "o"), scaler_map={"bedroom": "minmax"})
    assert main(["train", "--config", cfg]) == 2
    errors = error_lines(caplog)
    assert len(errors) == 1 and "scaler_map column 'bedroom'" in errors[0], errors
    assert not (tmp_path / "o").exists()


def test_diverging_mlp_exits_2_with_one_line_and_no_warning(tmp_path, caplog, capfd):
    data = tmp_path / "data"
    assert main(["synth", "--n", "300", "--seed", "3", "--out", str(data)]) == 0
    cfg = write_config(tmp_path / "c.json",
                       cities={"s": {"listings": str(data / "listings.csv"),
                                     "reviews": str(data / "reviews.csv")}},
                       out=str(tmp_path / "o"), seed=1, k_clusters=5, min_df=2,
                       models=[{"kind": "mlp", "hidden_sizes": [8], "epochs": 5,
                                "step_size": 1e6}])
    assert main(["ingest", "--config", cfg]) == 0
    caplog.clear()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["train", "--config", cfg]) == 2
    errors = error_lines(caplog)
    assert len(errors) == 1 and errors[0].startswith("non-finite training loss at epoch 3"), errors
    assert [str(w.message) for w in caught] == []
    assert "Warning" not in capfd.readouterr().err


def test_partial_scaler_map_keeps_the_other_defaults(trained, tmp_path):
    tmp, out, config = trained
    cfg = write_config(tmp_path / "c.json", dataset=str(out / "dataset.json"),
                       out=str(tmp_path / "o"), k_clusters=2, min_df=1,
                       models=[{"kind": "ridge"}], cluster_svg=False,
                       scaler_map={"accommodates": "minmax"})
    assert main(["train", "--config", cfg]) == 0
    scalers = load_file(tmp_path / "o" / "pipeline.json")["scalers"]
    assert {name: s["kind"] for name, s in scalers.items()} == {
        "accommodates": "minmax", "availability_365": "standard", "reviews_per_month": "robust",
        "bedrooms": "standard", "host_experience_months": "robust"}


def drop_key(key):
    return lambda doc: doc.pop(key)


def truncate_first_listing(doc):
    doc["listings"][0] = doc["listings"][0][:5]


def set_first_listing(index, value):
    def spoil(doc):
        doc["listings"][0][index] = value
    return spoil


def set_first_review_date(value):
    def spoil(doc):
        reviews = [rvs for rvs in doc["reviews"].values() if rvs]
        reviews[0][0][1] = value
    return spoil


def repeat_first_id(doc):
    doc["listings"][1][0] = doc["listings"][0][0]


def rename_first_reviews_key(doc):
    reviews = doc["reviews"]
    reviews["x1"] = reviews.pop(next(iter(reviews)))


@pytest.mark.parametrize("spoil,expected", [
    (drop_key("drop_log"), "missing key 'drop_log'"),
    pytest.param(repeat_first_id, "duplicate listing id 1", id="duplicate listing id"),
    pytest.param(rename_first_reviews_key, "dataset: reviews key 'x1' must be a listing id",
                 id="reviews key x1"),
    pytest.param(truncate_first_listing, "listings row 1: expected a list of 14 values",
                 id="truncate_first_listing-short row"),
    pytest.param(set_first_listing(2, "abc"),
                 "listings row 1: 'latitude' must be float, got str 'abc'", id="latitude abc"),
    pytest.param(set_first_listing(2, "34.1"),
                 "listings row 1: 'latitude' must be float, got str '34.1'", id="latitude 34.1"),
    pytest.param(set_first_listing(5, None),
                 "listings row 1: 'accommodates' must be int, got NoneType",
                 id="null accommodates"),
    pytest.param(set_first_listing(4, None),
                 "listings row 1: 'price_usd' must be float, got NoneType", id="null price"),
    pytest.param(set_first_review_date(20210314), "reviews row 1: 'date' must be str, got int",
                 id="review date int"),
    pytest.param(set_first_listing(9, "2015-13-01"),
                 "listings row 1: 'host_since' must be an ISO date, got '2015-13-01'",
                 id="host_since month 13"),
    pytest.param(set_first_review_date("2021-02-30"),
                 "reviews row 1: 'date' must be an ISO date, got '2021-02-30'",
                 id="review date feb 30"),
    pytest.param(set_first_review_date(""), "reviews row 1: 'date' must be an ISO date, got ''",
                 id="review date empty"),
    pytest.param(set_first_listing(9, ""),
                 "listings row 1: 'host_since' must be an ISO date, got ''", id="host_since empty"),
])
def test_malformed_dataset_exits_2_naming_the_file(trained, tmp_path, caplog, spoil, expected):
    tmp, out, config = trained
    doc = load_file(out / "dataset.json")
    spoil(doc)
    bad = tmp_path / "dataset.json"
    bad.write_text(json.dumps(doc))
    cfg = write_config(tmp_path / "c.json", dataset=str(bad), out=str(tmp_path / "o"))
    assert main(["train", "--config", cfg]) == 2
    errors = error_lines(caplog)
    assert len(errors) == 1 and str(bad) in errors[0] and expected in errors[0], errors


@pytest.mark.parametrize("index,value,expected", [
    pytest.param(5, 10**400, "'accommodates' must lie in [1, 9007199254740992], got 1000",
                 id="accommodates 10**400"),
    pytest.param(12, 1e308, "'bedrooms' must lie in [0.0, 1000000.0], got 1e+308",
                 id="bedrooms 1e308"),
    pytest.param(4, -3.0, "'price_usd' must lie in [5e-324, 1.7976931348623157e+308], got -3.0",
                 id="price_usd -3"),
    pytest.param(2, 500.0, "'latitude' must lie in [-90.0, 90.0], got 500.0", id="latitude 500"),
    pytest.param(6, 10**6, "'availability_365' must lie in [0, 365], got 1000000",
                 id="availability_365 10**6"),
])
def test_a_stored_value_against_its_csv_domain_exits_2(trained, tmp_path, caplog, index, value,
                                                      expected):
    # dataset.json holds what ingest wrote, edited: each value breaks the rule that
    # ingest.LISTING_CSV declares for its field, so train must refuse it, not coerce it
    tmp, out, config = trained
    doc = load_file(out / "dataset.json")
    doc["listings"][0][index] = value
    bad = tmp_path / "dataset.json"
    bad.write_text(json.dumps(doc))
    cfg = write_config(tmp_path / "c.json", dataset=str(bad), out=str(tmp_path / "o"),
                       k_clusters=2, min_df=1, cluster_svg=False, models=[{"kind": "ridge"}])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["train", "--config", cfg]) == 2
    errors = error_lines(caplog)
    assert len(errors) == 1 and str(bad) in errors[0], errors
    assert "dataset: listings row 1: " + expected in errors[0], errors


def test_k_clusters_above_the_training_locations_exits_2_naming_the_key(trained, tmp_path,
                                                                         caplog):
    tmp, out, config = trained
    cfg = write_config(tmp_path / "c.json", dataset=str(out / "dataset.json"),
                       out=str(tmp_path / "o"), k_clusters=400, models=[{"kind": "ridge"}])
    assert main(["train", "--config", cfg]) == 2
    errors = error_lines(caplog)
    assert len(errors) == 1, errors
    assert ("k_clusters: k=400 exceeds the 120 distinct points among the training locations"
            in errors[0]), errors


def drop_vocab_terms(doc):
    del doc["vocab"]["terms"]


def set_at(value, *path):
    def spoil(doc):
        for key in path[:-1]:
            doc = doc[key]
        doc[path[-1]] = value(doc[path[-1]]) if callable(value) else value
    return spoil


def drop_at(*path):
    def spoil(doc):
        for key in path[:-1]:
            doc = doc[key]
        del doc[path[-1]]
    return spoil


@pytest.mark.parametrize("spoil,expected", [
    (drop_key("vocab"), "missing key 'vocab'"),
    (drop_vocab_terms, "missing key 'terms'"),
    pytest.param(set_at(4, "clusters", "k"),
                 "pipeline clusters: centroids must have shape (k, 2) = (4, 2), got (2, 2)",
                 id="k 4 against 2 centroids"),
    pytest.param(set_at("manhattan", "clusters", "metric"),
                 "pipeline clusters: metric must be one of", id="metric manhattan"),
    pytest.param(drop_at("scalers", "accommodates"),
                 "pipeline: scalers has no entry for 'accommodates'", id="no accommodates scaler"),
    pytest.param(drop_at("medians", "bedrooms"),
                 "pipeline: medians has no entry for 'bedrooms'", id="no bedrooms median"),
    pytest.param(set_at("bogus", "scalers", "accommodates", "kind"),
                 "pipeline scalers['accommodates']: unknown scaler kind 'bogus'",
                 id="bogus scaler kind"),
    pytest.param(set_at(lambda c: c[:-1], "neighbourhoods", "categories"),
                 "pipeline neighbourhoods: categories must be distinct and end with 'other'",
                 id="categories without other"),
    pytest.param(set_at(1, "bogus"), "pipeline: unknown key 'bogus'", id="unknown key"),
    pytest.param(set_at(3.5, "lexicon", "max_abs"),
                 "pipeline lexicon: key 'max_abs' must be int, got float 3.5",
                 id="float max_abs"),
    pytest.param(set_at(lambda m: m + 1, "lexicon", "max_abs"),
                 "pipeline lexicon: max_abs", id="max_abs not the largest valence"),
    pytest.param(set_at(lambda idf: idf[:-1], "vocab", "idf"),
                 "pipeline vocab: ", id="short idf"),
    pytest.param(set_at(lambda w: w[:-1], "direction", "weights"),
                 "pipeline: direction has", id="short weights"),
    pytest.param(set_at("2021-13-01", "snapshot_date"),
                 "pipeline snapshot_date must be an ISO date", id="snapshot month 13"),
])
def test_malformed_pipeline_exits_2_naming_the_file(trained, tmp_path, caplog, spoil, expected):
    tmp, out, config = trained
    doc = load_file(out / "pipeline.json")
    spoil(doc)
    bad = tmp_path / "pipeline.json"
    bad.write_text(json.dumps(doc))
    code = main(["predict", "--out", str(tmp_path / "p"), "--pipeline", str(bad),
                 "--model", str(out / "model_0_ridge.json"),
                 "--listings", str(tmp / "data" / "listings.csv")])
    assert code == 2
    errors = error_lines(caplog)
    assert len(errors) == 1 and str(bad) in errors[0] and expected in errors[0], errors
    assert not (tmp_path / "p" / "predictions.csv").exists()


def write_listings(path, source, edit):
    """Copy a listings CSV, passing each data row's dict through edit (None drops it)."""
    with open(source, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        header, rows = reader.fieldnames, list(reader)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, header, lineterminator="\n")
        writer.writeheader()
        for i, row in enumerate(rows):
            row = edit(i, row)
            if row is not None:
                writer.writerow(row)
    return str(path)


@pytest.mark.parametrize("column,value,dropped", [
    pytest.param("accommodates", "9" * 400, {"bad accommodates"},
                 id="accommodates of 400 digits"),
    pytest.param("price", "$1" + "0" * 400, {"bad price"}, id="price of 401 digits"),
    pytest.param("bedrooms", "1e308", set(), id="bedrooms 1e308"),
    pytest.param("reviews_per_month", "1e308", set(), id="reviews_per_month 1e308"),
])
def test_a_cell_against_its_ingest_domain_rule_never_reaches_train(tmp_path, column, value,
                                                                   dropped):
    # the cell drops its row, or is read as absent; train then fits the rest, with no
    # warning, and writes finite metrics
    assert main(["synth", "--n", "120", "--cities", "1", "--seed", "3",
                 "--out", str(tmp_path / "data")]) == 0
    listings = tmp_path / "data" / "listings.csv"
    write_listings(tmp_path / "l.csv", listings,
                   lambda i, row: {**row, column: value} if i == 0 else row)
    (tmp_path / "l.csv").replace(listings)
    out = tmp_path / "out"
    config = write_config(
        tmp_path / "config.json", out=str(out), k_clusters=2, min_df=1, cluster_svg=False,
        cities={"a": {"listings": str(listings),
                      "reviews": str(tmp_path / "data" / "reviews.csv")}},
        models=[{"kind": "ridge"}])
    assert main(["ingest", "--config", config]) == 0
    assert load_file(out / "drop_log.json").keys() - {"orphan review"} == dropped
    first = load_file(out / "dataset.json")["listings"][0]
    if dropped:
        assert first[0] == 2
    else:
        names = [f.name for f in dataclasses.fields(ingest.ListingRecord)]
        assert first[names.index(column)] is None
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["train", "--config", config]) == 0
    for model in load_file(out / "report.json")["models"]:
        assert all(math.isfinite(model[split]["mse"]) for split in ("train", "val", "test"))


def predict_args(trained, dest, listings):
    tmp, out, config = trained
    return ["predict", "--out", str(dest), "--pipeline", str(out / "pipeline.json"),
            "--model", str(out / "model_1_gbdt.json"), "--listings", listings,
            "--reviews", str(tmp / "data" / "reviews.csv")]


def read_csv(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


def test_predict_scores_unpriced_rows_in_input_order(trained, tmp_path):
    tmp, out, config = trained
    full = main(predict_args(trained, tmp_path / "full", str(tmp / "data" / "listings.csv")))
    listings = write_listings(tmp_path / "l.csv", tmp / "data" / "listings.csv",
                              lambda i, row: {**row, "price": ""} if i % 3 == 0 else row)
    assert full == 0 and main(predict_args(trained, tmp_path / "p", listings)) == 0
    assert (read_csv(tmp_path / "p" / "predictions.csv")
            == read_csv(tmp_path / "full" / "predictions.csv"))
    assert read_csv(tmp_path / "p" / "predict_drops.csv") == [["row", "id", "reason"]]


def test_predict_lists_dropped_rows(trained, tmp_path, caplog):
    tmp, out, config = trained
    spoil = {1: ("latitude", "abc"), 2: ("id", "x7"), 4: ("price", "$-3"), 5: ("price", "$x")}

    def edit(i, row):
        if i in spoil:
            key, value = spoil[i]
            row = {**row, key: value}
        return row

    listings = write_listings(tmp_path / "l.csv", tmp / "data" / "listings.csv", edit)
    caplog.set_level(logging.INFO, logger="bnbprice")
    assert main(predict_args(trained, tmp_path / "p", listings)) == 0
    ids = [row["id"] for row in csv.DictReader(open(tmp / "data" / "listings.csv"))]
    drops = read_csv(tmp_path / "p" / "predict_drops.csv")
    assert drops == [["row", "id", "reason"], ["2", ids[1], "bad coordinate"],
                     ["3", "", "bad id"], ["5", ids[4], "nonpositive price"],
                     ["6", ids[5], "bad price"]]
    predicted = [row[0] for row in read_csv(tmp_path / "p" / "predictions.csv")[1:]]
    assert predicted == [lid for i, lid in enumerate(ids) if i not in spoil]
    assert any("listing rows dropped: bad coordinate 1, bad id 1, nonpositive price 1, "
               "bad price 1" in rec.getMessage() for rec in caplog.records)


def test_predict_with_no_scorable_row_exits_2_without_outputs(trained, tmp_path, caplog):
    tmp, out, config = trained
    listings = write_listings(
        tmp_path / "l.csv", tmp / "data" / "listings.csv",
        lambda i, row: None if i > 2 else {**row, "price": "$0" if i else "$x"})
    assert main(predict_args(trained, tmp_path / "p", listings)) == 2
    errors = error_lines(caplog)
    assert len(errors) == 1 and "bad price 1, nonpositive price 2" in errors[0], errors
    assert not (tmp_path / "p").exists() or not any((tmp_path / "p").iterdir())


def test_predict_refuses_a_schema_1_pipeline(trained, tmp_path, caplog):
    tmp, out, config = trained
    doc = load_file(out / "pipeline.json")
    doc["schema_version"] = 1
    bad = tmp_path / "pipeline.json"
    bad.write_text(json.dumps(doc))
    code = main(["predict", "--out", str(tmp_path / "p"), "--pipeline", str(bad),
                 "--model", str(out / "model_0_ridge.json"),
                 "--listings", str(tmp / "data" / "listings.csv")])
    assert code == 2
    errors = error_lines(caplog)
    assert len(errors) == 1 and "schema_version 1" in errors[0], errors


def set_tree_node(array, node, value):
    def spoil(doc):
        doc["trees"][0][array][node] = value
    return spoil


@pytest.mark.parametrize("spoil,expected", [
    pytest.param(set_tree_node("feature", 0, 999), "model: tree 0: feature ids must lie in",
                 id="feature 999"),
    pytest.param(set_tree_node("feature", 0, -3), "model: tree 0: feature ids must lie in",
                 id="feature -3"),
    pytest.param(set_tree_node("right", 0, 0), "model trees[0]: children must lie after",
                 id="self child"),
    pytest.param(set_tree_node("left", 0, 2 ** 70), "OverflowError", id="huge child"),
])
def test_predict_malformed_tree_exits_2_with_one_line(trained, tmp_path, caplog, spoil,
                                                      expected):
    tmp, out, config = trained
    doc = load_file(out / "model_1_gbdt.json")
    spoil(doc)
    bad = tmp_path / "model.json"
    bad.write_text(json.dumps(doc))
    code = main(["predict", "--out", str(tmp_path / "p"),
                 "--pipeline", str(out / "pipeline.json"), "--model", str(bad),
                 "--listings", str(tmp / "data" / "listings.csv")])
    assert code == 2
    errors = error_lines(caplog)
    assert len(errors) == 1 and str(bad) in errors[0] and expected in errors[0], errors
    assert "\n" not in errors[0]
    assert not (tmp_path / "p" / "predictions.csv").exists()


def mlp_doc(out):
    """A well-formed MLP model file for the trained pipeline."""
    width = load_file(out / "model_1_gbdt.json")["n_features"]
    return {"schema_version": 2, "kind": "mlp", "pipeline_sha256": pipeline_sha256(out),
            "params": {"layer_sizes": [width, 2, 1]},
            "weights": [[[0.5, -0.5]] * width, [[1.0], [1.0]]], "biases": [[0.0, 0.0], [0.0]]}


@pytest.mark.parametrize("source,spoil,expected", [
    pytest.param("model_0_ridge.json", set_at(None, "coefficients", 0),
                 "model: key 'coefficients' must be list of float, got list",
                 id="null ridge coefficient"),
    pytest.param("model_0_ridge.json", set_at(float("nan"), "coefficients", 0),
                 "non-finite number NaN", id="NaN ridge coefficient"),
    pytest.param(mlp_doc, set_at([5, 1], "params", "layer_sizes"),
                 "model: layer_sizes [5, 1] does not match weight shapes", id="mlp layer_sizes"),
    pytest.param(mlp_doc, set_at(lambda b: b[:1], "biases"),
                 "does not match weight shapes", id="mlp missing bias"),
    pytest.param("model_1_gbdt.json", set_at(lambda g: g[:-1], "feature_gain"),
                 "model: feature_gain has 23 entries for 24 features", id="short feature_gain"),
    pytest.param("model_0_ridge.json", set_at(1, "bogus"), "model: unknown key 'bogus'",
                 id="unknown key"),
    pytest.param("model_1_gbdt.json",
                 set_at(lambda p: {**p, "learning_rate": -3, "growth": "sideways",
                                   "num_leaves": 0}, "params"),
                 "model params: learning_rate must be in (0, 1]", id="out-of-range gbdt params"),
    pytest.param("model_0_ridge.json", set_at(-1.0, "params", "lambda"),
                 "model params: lambda must be >= 0", id="negative ridge lambda"),
])
def test_malformed_model_exits_2_naming_the_file(trained, tmp_path, caplog, source, spoil,
                                                 expected):
    tmp, out, config = trained
    doc = load_file(out / source) if isinstance(source, str) else source(out)
    bad = tmp_path / "model.json"
    bad.write_text(json.dumps(doc))
    args = ["predict", "--out", str(tmp_path / "p"), "--pipeline", str(out / "pipeline.json"),
            "--model", str(bad), "--listings", str(tmp / "data" / "listings.csv")]
    assert main(args) == 0  # the unspoiled file scores
    spoil(doc)
    bad.write_text(json.dumps(doc))
    (tmp_path / "p" / "predictions.csv").unlink()
    caplog.clear()
    assert main(args) == 2
    errors = error_lines(caplog)
    assert len(errors) == 1 and str(bad) in errors[0] and expected in errors[0], errors
    assert not (tmp_path / "p" / "predictions.csv").exists()


def overflowing_intercept(doc):
    doc["intercept"] = 800.0  # exp(800) overflows


def every_weight_1e308(doc):
    doc["intercept"] = 1e308
    doc["coefficients"] = [1e308] * len(doc["coefficients"])


@pytest.mark.parametrize("spoil", [overflowing_intercept, every_weight_1e308])
def test_predict_refuses_a_price_that_is_not_a_finite_float(trained, tmp_path, caplog, spoil):
    tmp, out, config = trained
    doc = load_file(out / "model_0_ridge.json")
    model = tmp_path / "model.json"
    model.write_text(json.dumps(doc))
    args = ["predict", "--out", str(tmp_path / "p"), "--pipeline", str(out / "pipeline.json"),
            "--model", str(model), "--listings", str(tmp / "data" / "listings.csv")]
    assert main(args) == 0
    before = tree_hashes(tmp_path / "p")
    assert sorted(before) == ["predict_drops.csv", "predictions.csv"]
    spoil(doc)
    model.write_text(json.dumps(doc))
    caplog.clear()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(args) == 2
    first_id = next(csv.DictReader(open(tmp / "data" / "listings.csv")))["id"]
    errors = error_lines(caplog)
    assert len(errors) == 1 and "\n" not in errors[0], errors
    assert str(model) in errors[0] and "listing %s " % first_id in errors[0], errors
    assert tree_hashes(tmp_path / "p") == before
    assert list((tmp_path / "p").glob(".staging-*")) == []


def add_row_described_by(text):
    """Append a listings row whose quoted description is the raw bytes text."""
    def spoil(blob):
        header = blob.split(b"\n", 1)[0].decode("utf-8").split(",")
        row = b",".join(b'"%s"' % text if name == "description" else b"" for name in header)
        return blob + row + b"\n"
    return spoil


@pytest.mark.parametrize("command", ["ingest", "predict"])
@pytest.mark.parametrize("spoil,expected", [
    pytest.param(add_row_described_by(b"x" * 131073), "field larger than field limit",
                 id="field over the csv limit"),
    pytest.param(add_row_described_by(b"caf\xe9"), "can't decode byte 0xe9",
                 id="invalid utf-8"),
])
def test_unreadable_listings_csv_exits_2_naming_the_file(trained, tmp_path, caplog, command,
                                                         spoil, expected):
    tmp, out, config = trained
    bad = tmp_path / "listings.csv"
    bad.write_bytes(spoil((tmp / "data" / "listings.csv").read_bytes()))
    reviews = str(tmp / "data" / "reviews.csv")
    if command == "ingest":
        args = ["ingest", "--config", write_config(
            tmp_path / "c.json", cities={"x": {"listings": str(bad), "reviews": reviews}},
            out=str(tmp_path / "o"))]
    else:
        args = ["predict", "--out", str(tmp_path / "o"), "--pipeline", str(out / "pipeline.json"),
                "--model", str(out / "model_0_ridge.json"), "--listings", str(bad),
                "--reviews", reviews]
    assert main(args) == 2
    errors = error_lines(caplog)
    assert len(errors) == 1 and str(bad) in errors[0] and expected in errors[0], errors
    assert not (tmp_path / "o").exists()


LISTINGS_HEADER = (b"id,price,latitude,longitude,accommodates,description,availability_365,"
                   b"reviews_per_month,host_is_superhost,host_since,neighbourhood_cleansed,"
                   b"room_type,bedrooms\n")
REVIEWS_HEADER = b"listing_id,id,date,comments\n"
ROW_BYTES = st.lists(st.sampled_from([b",", b'"', b"\n", b"\r", b"1", b"-7.5", b"$1,200",
                                      b"2020-02-29", b"t", b"\x00", b"\xff", b"\xc3\xa9",
                                      b"nan", b"1e999", b" "]), max_size=40).map(b"".join)
CELL = st.sampled_from([b"", b"1", b"2", b" 3 ", b"-7.5", b"95", b"word", b"$1,200", b"$0", b"$x",
                        b"2020-02-29", b"t", b"f", b"1e308", b"9" * 400, b"1" + b"0" * 400,
                        b'"two\nlines"', b"\x1c4"])


def csv_body(rows):
    """Lines of random cells, blank, short and long ones among them, mixed with rows."""
    line = st.one_of(st.lists(CELL, max_size=15).map(b",".join), st.sampled_from(rows))
    return st.lists(line, max_size=6).map(lambda lines: b"".join(x + b"\n" for x in lines))


# per parser: its headers (the empty file and the other kind's header among them) and rows
LISTING_CASES = (
    [b"", REVIEWS_HEADER, LISTINGS_HEADER,
     # the required columns alone; neighbourhood after neighbourhood_cleansed
     b"description,accommodates,longitude,latitude,price,id\n",
     b"id,price,latitude,longitude,accommodates,description,neighbourhood_cleansed,neighbourhood\n",
     # a repeated name reads its last column
     LISTINGS_HEADER[:-1] + b",price,id\n"],
    # a coordinate out of range and one that does not parse, an out-of-range latitude with a
    # bad price, an id after a separator that str.strip removes, and a long row whose extra
    # cell follows a blank neighbourhood_cleansed
    [b"1,$10,95,word,2,d", b"1,$x,95,-118,2,d", b"\x1c5,$10,34,-118,2,d",
     b"3,$10,34,-118,2,d,9,1,t,2015-01-01,,Entire,2,X"])
PARSERS = {
    "listings": (ingest.parse_listings, reference_ingest.parse_listings, ("city",), {},
                 LISTING_CASES),
    "unpriced": (ingest.parse_listings, reference_ingest.parse_listings, ("predict",),
                 {"require_price": False}, LISTING_CASES),
    # a bad id with a good listing_id, the reverse, and an id after a stripped separator
    "reviews": (ingest.parse_reviews, reference_ingest.parse_reviews, (), {},
                ([b"", LISTINGS_HEADER, REVIEWS_HEADER, b"id,listing_id,date,comments,id\n"],
                 [b"4,x,2020-01-01,c", b"x,4,2020-01-01,c", b"4,\x1c5,2020-01-01,c"])),
}


@st.composite
def csv_case(draw):
    name = draw(st.sampled_from(sorted(PARSERS)))
    headers, rows = PARSERS[name][4]
    body = draw(st.one_of(st.binary(max_size=200), ROW_BYTES, csv_body(rows)))
    return name, draw(st.sampled_from(headers)), body


def parsed(path, parse, args, options):
    """parse's records and drops, or the type of what it raised, on path opened as cli does."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            return parse(fh, *args, **options)
    except Exception as exc:
        return type(exc)


@settings(max_examples=150, deadline=None)
@given(case=csv_case())
# blank lines; short rows; a long row; a repeated header name; the required columns alone;
# a coordinate that does not parse beside one out of range; unpriced rows; a review's bad id
# beside a good listing_id and the reverse; a separator that str.strip removes
@example(case=("listings", LISTINGS_HEADER, b"\n1,$10,34,-118,2,d\n\n\n2,$x,34,-118,2,d\n"))
@example(case=("listings", LISTINGS_HEADER, b"1,$10,34,-118,2\n2,$10,34\n"))
@example(case=("listings", LISTINGS_HEADER, b"3,$10,34,-118,2,d,9,1,t,2015-01-01,,Entire,2,X\n"))
@example(case=("listings", LISTINGS_HEADER[:-1] + b",price,id\n",
               b"1,$10,34,-118,2,d,9,1,t,2015-01-01,M,Entire,2,$20,7\n1,$10,34,-118,2,d\n"))
@example(case=("listings", b"description,accommodates,longitude,latitude,price,id\n",
               b"d,2,-118,34,$10,1\n"))
@example(case=("listings", LISTINGS_HEADER, b"1,$10,95,word,2,d\n2,$x,95,-118,2,d\n"))
@example(case=("unpriced", LISTINGS_HEADER, b"1,,34,-118,2,d\n2,,34,-118,zero,d\n"))
@example(case=("reviews", REVIEWS_HEADER, b"4,x,2020-01-01,c\nx,4,2020-01-01,c\n"))
@example(case=("listings", LISTINGS_HEADER, b"\x1c5,$10,34,-118,2,d\n"))
def test_any_csv_bytes_end_in_records_and_drops_or_one_error(tmp_path_factory, case):
    name, header, body = case
    parse, reference, args, options, _ = PARSERS[name]
    path = tmp_path_factory.mktemp("fuzz") / "input.csv"
    path.write_bytes(header + body)
    # the declared tables read what the csv.DictReader parsers read, drop for drop
    assert parsed(path, parse, args, options) == parsed(path, reference, args, options)
    try:
        records, drops = cli._read_csv(path, parse, *args, **options)
    except (cli.CliError, ingest.IngestError) as exc:
        assert "\n" not in str(exc)
        return
    assert all(type(d) is ingest.Drop for d in drops)
    assert len(records) + len(drops) <= (header + body).count(b"\n") + (header + body).count(
        b"\r") + 1


def test_predict_refuses_a_pipeline_from_another_train(trained, tmp_path, caplog):
    tmp, out, config = trained
    # the same pipeline in other bytes passes its own checks but is not the file trained with
    other = tmp_path / "pipeline.json"
    other.write_text(json.dumps(load_file(out / "pipeline.json"), indent=1))
    model = out / "model_1_gbdt.json"
    assert load_file(model)["pipeline_sha256"] == pipeline_sha256(out)
    code = main(["predict", "--out", str(tmp_path / "p"), "--pipeline", str(other),
                 "--model", str(model), "--listings", str(tmp / "data" / "listings.csv")])
    assert code == 2
    errors = error_lines(caplog)
    assert len(errors) == 1 and str(other) in errors[0] and str(model) in errors[0], errors
    assert "pipeline_sha256" in errors[0]
    assert not (tmp_path / "p" / "predictions.csv").exists()


def test_a_neighbourhood_named_other_trains(tmp_path):
    # "other" is also the catch-all category; the real one must not be ranked beside it
    assert main(["synth", "--n", "100", "--cities", "1", "--seed", "3",
                 "--out", str(tmp_path / "data")]) == 0
    # eight listings, four of them in "other"
    write_listings(tmp_path / "data" / "l.csv", tmp_path / "data" / "listings.csv",
                   lambda i, row: None if i >= 8 else
                   {**row, "neighbourhood_cleansed": "other"} if i < 4 else row)
    (tmp_path / "data" / "l.csv").replace(tmp_path / "data" / "listings.csv")
    config = base_config(tmp_path, tmp_path / "out")
    assert main(["ingest", "--config", config]) == 0
    assert main(["train", "--config", config]) == 0
    categories = load_file(tmp_path / "out" / "pipeline.json")["neighbourhoods"]["categories"]
    assert categories.count("other") == 1 and categories[-1] == "other"
