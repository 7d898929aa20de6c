import numpy as np
import pytest

from bnbprice.models import (KINDS, fit_model, model_from_doc, model_to_doc, params_from_entry,
                             predict_model)
from bnbprice.serialize import dataclass_to_doc, dumps

PIPELINE_SHA256 = "0" * 64


def tiny_matrix():
    rng = np.random.RandomState(4)
    X = rng.randn(30, 3)
    return X, X @ np.array([1.0, -0.5, 0.25]) + 0.1 * rng.randn(30)


@pytest.mark.parametrize("kind", list(KINDS))
def test_default_fit_round_trips_through_its_doc(kind):
    X, y = tiny_matrix()
    model = fit_model(kind, {}, X, y, seed=1)
    blob = dumps(model_to_doc(model, PIPELINE_SHA256))
    clone = model_from_doc(model_to_doc(model, PIPELINE_SHA256))
    assert dumps(model_to_doc(clone, PIPELINE_SHA256)) == blob
    assert np.array_equal(predict_model(clone, X), predict_model(model, X))


@pytest.mark.parametrize("kind", list(KINDS))
def test_params_reject_unknown_key_and_wrong_type(kind):
    with pytest.raises(ValueError, match="%s params: unknown key 'bogus'" % kind):
        params_from_entry(kind, {"bogus": 1})
    key = next(iter(dataclass_to_doc(KINDS[kind].params())))
    with pytest.raises(ValueError, match="%s params: key %r must be" % (kind, key)):
        params_from_entry(kind, {key: "2"})


# report params as the parent commit's resolve_params wrote them
GOLDEN = [
    ({"kind": "gbdt"},
     '{"n_estimators":1000,"learning_rate":0.1,"growth":"depth_wise",'
     '"max_depth":6,"num_leaves":31,"min_samples_leaf":20,"alpha":0.5,"lambda":1.0,'
     '"min_gain":0.0}'),
    ({"kind": "ridge", "lambda": 1}, '{"lambda":1.0}'),
    ({"kind": "mlp"}, '{"hidden_sizes":[64,32],"epochs":200,"batch_size":256,"step_size":0.001}'),
    # the benchmark's models entries
    ({"kind": "gbdt", "growth": "leaf_wise", "n_estimators": 35},
     '{"n_estimators":35,"learning_rate":0.1,"growth":"leaf_wise",'
     '"max_depth":6,"num_leaves":31,"min_samples_leaf":20,"alpha":0.5,"lambda":1.0,'
     '"min_gain":0.0}'),
    ({"kind": "ridge", "lambda": 1.0}, '{"lambda":1.0}'),
    ({"kind": "mlp", "hidden_sizes": [32], "epochs": 4},
     '{"hidden_sizes":[32],"epochs":4,"batch_size":256,"step_size":0.001}'),
    ({"kind": "gbdt", "growth": "depth_wise", "max_depth": 4, "min_samples_leaf": 5,
      "n_estimators": 150},
     '{"n_estimators":150,"learning_rate":0.1,"growth":"depth_wise",'
     '"max_depth":4,"num_leaves":31,"min_samples_leaf":5,"alpha":0.5,"lambda":1.0,'
     '"min_gain":0.0}'),
]


@pytest.mark.parametrize("entry,golden", GOLDEN)
def test_report_params_keep_defaults_and_key_order(entry, golden):
    params = {k: v for k, v in entry.items() if k != "kind"}
    assert dumps(dataclass_to_doc(params_from_entry(entry["kind"], params))) == golden


def test_model_doc_missing_a_gbdt_param_is_rejected():
    X, y = tiny_matrix()
    doc = model_to_doc(fit_model("gbdt", {"n_estimators": 2}, X, y), PIPELINE_SHA256)
    del doc["params"]["min_gain"]
    with pytest.raises(ValueError, match="model params: missing key 'min_gain'"):
        model_from_doc(doc)


def gbdt_doc():
    """A two-tree model whose second tree has inner nodes 0, 1 and 2 and leaf 3."""
    X, y = tiny_matrix()
    doc = model_to_doc(fit_model("gbdt", {"n_estimators": 2, "max_depth": 2,
                                          "min_samples_leaf": 3}, X, y), PIPELINE_SHA256)
    feature = doc["trees"][1]["feature"]
    assert min(feature[:3]) >= 0 and feature[3] == -1
    return doc


def set_node(array, node, value):
    def spoil(tree):
        tree[array][node] = value
    return spoil


def drop_array(array):
    return lambda tree: tree.pop(array)


def shorten(array):
    return lambda tree: tree[array].pop()


# GbdtModel checks feature ids against its feature count; each Tree checks its own arrays
FEATURES = r"model: tree 1: feature ids must lie in \[-1, 3\)"
TREE = r"model trees\[1\]: "


@pytest.mark.parametrize("spoil,expected", [
    pytest.param(set_node("feature", 0, 999), FEATURES, id="feature 999"),
    pytest.param(set_node("feature", 0, -3), FEATURES, id="feature -3 on an inner node"),
    pytest.param(set_node("left", 0, 0), TREE + "children must lie after their node",
                 id="self child"),
    pytest.param(set_node("left", 2, 1), TREE + "children must lie after their node",
                 id="backward child"),
    pytest.param(set_node("feature", 3, 0), TREE + "children must lie after their node",
                 id="leaf made inner"),
    pytest.param(set_node("right", 0, 99), TREE + ".*inside the tree",
                 id="child outside the tree"),
    pytest.param(shorten("value"), TREE + ".*equal length", id="unequal array lengths"),
    pytest.param(set_node("threshold", 0, float("nan")), TREE + ".*must be finite",
                 id="nan threshold"),
    pytest.param(set_node("value", 4, float("inf")), TREE + ".*must be finite",
                 id="infinite leaf"),
    pytest.param(set_node("feature", 0, True),
                 TREE + "key 'feature' must be list of int, got list", id="bool in feature"),
    pytest.param(drop_array("threshold"), TREE + "missing key 'threshold'",
                 id="missing array"),
    pytest.param(lambda tree: [tree[k].clear() for k in tree], TREE + ".*non-empty",
                 id="empty tree"),
])
def test_malformed_tree_is_rejected_naming_the_tree(spoil, expected):
    doc = gbdt_doc()
    spoil(doc["trees"][1])
    with pytest.raises(ValueError, match=expected):
        model_from_doc(doc)


def test_model_doc_without_pipeline_sha256_is_rejected():
    X, y = tiny_matrix()
    doc = model_to_doc(fit_model("ridge", {}, X, y), PIPELINE_SHA256)
    del doc["pipeline_sha256"]
    with pytest.raises(ValueError, match="model: missing key 'pipeline_sha256'"):
        model_from_doc(doc)
