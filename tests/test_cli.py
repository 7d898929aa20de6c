import csv
import io
import json
import math

import pytest

from bnbprice.cli import main
from bnbprice.serialize import load_file


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


def test_predict_feature_width_mismatch_exits_2(trained, tmp_path):
    tmp, out, config = trained
    bad = tmp_path / "bad_model.json"
    bad.write_text(json.dumps({"schema_version": 1, "kind": "ridge",
                               "params": {"lambda": 1.0},
                               "coefficients": [1.0, 2.0], "intercept": 0.0}))
    code = main(["predict", "--out", str(tmp_path / "p"),
                 "--pipeline", str(out / "pipeline.json"),
                 "--model", str(bad),
                 "--listings", str(tmp / "data" / "listings.csv")])
    assert code == 2
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
    bad.write_text(json.dumps({"schema_version": 1, "kind": "ridge"}))
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


def drop_key(key):
    return lambda doc: doc.pop(key)


def truncate_first_listing(doc):
    doc["listings"][0] = doc["listings"][0][:5]


@pytest.mark.parametrize("spoil,expected", [
    (drop_key("drop_log"), "missing key 'drop_log'"),
    (truncate_first_listing, "IndexError"),
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


def drop_vocab_terms(doc):
    del doc["vocab"]["terms"]


@pytest.mark.parametrize("spoil,expected", [
    (drop_key("vocab"), "missing key 'vocab'"),
    (drop_vocab_terms, "KeyError 'terms'"),
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
