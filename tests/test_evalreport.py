import numpy as np
import pytest

from bnbprice import evalreport, serialize
from bnbprice.models import GbdtModel, GbdtParams, MlpModel, RidgeModel, RidgeParams
from bnbprice.models.mlp import MlpShape
from bnbprice.models import gbdt


def test_split_sizes_n10():
    split = evalreport.split_dataset(10, (0.8, 0.1, 0.1), seed=0)
    assert split.sizes == {"train": 8, "val": 1, "test": 1}
    everything = set(split.train) | set(split.val) | set(split.test)
    assert everything == set(range(10))
    assert not set(split.train) & set(split.val)
    assert not set(split.train) & set(split.test)
    assert not set(split.val) & set(split.test)


def test_split_paper_scale_test_size():
    split = evalreport.split_dataset(57000, (0.8, 0.1, 0.1), seed=1)
    assert len(split.test) == 5700
    assert len(split.val) == 5700
    assert len(split.train) == 45600


def test_split_deterministic_and_seed_sensitive():
    a = evalreport.split_dataset(100, (0.8, 0.1, 0.1), seed=7)
    b = evalreport.split_dataset(100, (0.8, 0.1, 0.1), seed=7)
    c = evalreport.split_dataset(100, (0.8, 0.1, 0.1), seed=8)
    assert a == b
    assert a.train != c.train


def test_split_rounding_absorbs_remainder_into_train():
    # round(n * r) per part: 13 * 0.1 rounds to 1
    split = evalreport.split_dataset(13, (0.8, 0.1, 0.1), seed=0)
    assert split.sizes == {"train": 11, "val": 1, "test": 1}


def test_split_errors():
    with pytest.raises(ValueError):
        evalreport.split_dataset(2, (0.8, 0.1, 0.1), seed=0)
    with pytest.raises(ValueError):
        evalreport.split_dataset(10, (0.5, 0.5, 0.5), seed=0)
    with pytest.raises(ValueError, match="empty part"):
        evalreport.split_dataset(4, (0.99, 0.005, 0.005), seed=0)
    with pytest.raises(ValueError):
        evalreport.split_dataset(10, (-0.2, 0.6, 0.6), seed=0)


def test_metrics_hand_examples():
    perfect = evalreport.metrics([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    assert (perfect.mse, perfect.mae, perfect.r2) == (0.0, 0.0, 1.0)
    mean_pred = evalreport.metrics([1.0, 2.0, 3.0], [2.0, 2.0, 2.0])
    assert abs(mean_pred.r2) <= 1e-12
    unit = evalreport.metrics([0.0, 0.0], [1.0, 1.0])
    assert (unit.mse, unit.mae) == (1.0, 1.0)
    assert unit.n == 2 and unit.space == "log_price"


def test_metrics_constant_target_rules():
    clean = evalreport.metrics([4.0, 4.0], [4.0, 4.0])
    assert clean.r2 == 0.0
    off = evalreport.metrics([4.0, 4.0], [5.0, 5.0])
    assert off.r2 == float("-inf")
    assert off.to_doc()["r2"] == "undefined"
    assert clean.to_doc()["r2"] == 0.0


def test_metrics_errors():
    with pytest.raises(ValueError):
        evalreport.metrics([1.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        evalreport.metrics([], [])


def test_importance_ridge_magnitude_ranking():
    model = RidgeModel(params=RidgeParams(1.0), coefficients=[0.5, -2.0], intercept=0.0)
    entries = evalreport.feature_importance(model, ["f0", "f1"])
    assert [e.feature for e in entries] == ["f1", "f0"]
    assert [e.rank for e in entries] == [1, 2]
    assert entries[0].score == pytest.approx(2.0 / 2.5)
    assert sum(e.score for e in entries) == pytest.approx(1.0, abs=1e-9)


def test_importance_single_feature_gbdt():
    X = np.array([[0.0, 3.0], [0.0, 3.0], [1.0, 3.0], [1.0, 3.0]])
    y = np.array([0.0, 0.0, 10.0, 10.0])
    params = GbdtParams(n_estimators=2, learning_rate=1.0, growth="depth_wise",
                        max_depth=1, min_samples_leaf=1, alpha=0.0, lam=0.0)
    model = gbdt.gbdt_fit(X, y, params)
    entries = evalreport.feature_importance(model, ["a", "b"])
    assert entries[0].feature == "a" and entries[0].score == 1.0
    assert entries[1].score == 0.0


def test_importance_zero_scores_keep_column_order():
    model = GbdtModel(params=GbdtParams(), n_features=3, base_score=5.0,
                      feature_gain=np.zeros(3), trees=[])
    entries = evalreport.feature_importance(model, ["x", "y", "z"])
    assert [e.feature for e in entries] == ["x", "y", "z"]
    assert [e.score for e in entries] == [0.0, 0.0, 0.0]


def test_importance_mlp_first_layer_weights():
    weights = [np.array([[1.0, -1.0], [0.25, 0.25]]), np.array([[1.0], [1.0]])]
    biases = [np.zeros(2), np.zeros(1)]
    model = MlpModel(params=MlpShape((2, 2, 1)), weights=weights, biases=biases)
    entries = evalreport.feature_importance(model, ["p", "q"])
    assert entries[0].feature == "p"
    assert entries[0].score == pytest.approx(2.0 / 2.5)


def test_importance_width_mismatch():
    model = RidgeModel(params=RidgeParams(1.0), coefficients=[0.5, -2.0], intercept=0.0)
    with pytest.raises(ValueError):
        evalreport.feature_importance(model, ["only"])


def run_results_fixture():
    rng = np.random.RandomState(0)
    X = rng.randn(30, 2)
    y = X[:, 0] * 2.0 + rng.randn(30) * 0.1
    split = evalreport.split_dataset(30, (0.8, 0.1, 0.1), seed=0)
    from bnbprice.models import ridge
    model = ridge.ridge_fit(X[list(split.train)], y[list(split.train)], 1.0)
    rep = evalreport.metrics(y, ridge.ridge_predict(model, X))
    result = evalreport.ModelResult(kind="ridge", params={"lambda": 1.0},
                                    model=model, train=rep, val=rep, test=rep)
    return evalreport.RunResults(
        config_doc={"seed": 0}, dataset_summary={"n_listings": 30},
        split=split, columns=("c0", "c1"), models=(result,), grid=(),
        pipeline_doc={"schema_version": 1})


def test_emit_report_files_and_determinism(tmp_path):
    results = run_results_fixture()
    first = tmp_path / "a"
    second = tmp_path / "b"
    first.mkdir()
    second.mkdir()
    evalreport.emit_report(results, first)
    names = sorted(p.name for p in first.iterdir())
    assert names == ["importance.csv", "importance.svg", "model_0_ridge.json",
                     "pipeline.json", "report.json"]
    evalreport.emit_report(results, second)
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes()
    doc = serialize.load_file(first / "report.json")
    assert list(doc) == ["schema_version", "dataset_summary", "split",
                         "models", "grid", "config"]
    assert doc["split"]["sizes"] == {"train": 24, "val": 3, "test": 3}
    assert doc["models"][0]["kind"] == "ridge"
    assert doc["grid"] == []
    header = (first / "importance.csv").read_text().splitlines()[0]
    assert header == "rank,feature,score"


def test_emit_report_top_n_clamps(tmp_path):
    results = run_results_fixture()
    evalreport.emit_report(results, tmp_path, top_n=50)
    svg = (tmp_path / "importance.svg").read_text()
    assert svg.count("<rect") == 3  # background plus one bar per feature
    assert 'height="40"' in svg


def test_importance_svg_escapes_and_is_self_contained():
    entries = [evalreport.ImportanceEntry("neighbourhood=<b>&co", 0.75, 1),
               evalreport.ImportanceEntry("plain", 0.25, 2)]
    svg = evalreport.importance_svg(entries)
    assert "neighbourhood=&lt;b&gt;&amp;co" in svg
    assert "href" not in svg and "http" not in svg.replace(
        "http://www.w3.org/2000/svg", "")
    assert 'width="540.00"' in svg  # top bar fills the span
    assert "0.7500" in svg and "0.2500" in svg
