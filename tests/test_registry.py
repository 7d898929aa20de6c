import numpy as np
import pytest

from bnbprice.models import (KINDS, fit_model, model_from_doc, model_to_doc, params_from_entry,
                             predict_model)
from bnbprice.serialize import dataclass_to_doc, dumps


def tiny_matrix():
    rng = np.random.RandomState(4)
    X = rng.randn(30, 3)
    return X, X @ np.array([1.0, -0.5, 0.25]) + 0.1 * rng.randn(30)


@pytest.mark.parametrize("kind", list(KINDS))
def test_default_fit_round_trips_through_its_doc(kind):
    X, y = tiny_matrix()
    model = fit_model(kind, {}, X, y, seed=1)
    blob = dumps(model_to_doc(model))
    clone = model_from_doc(model_to_doc(model))
    assert dumps(model_to_doc(clone)) == blob
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
     '{"n_estimators":1000,"learning_rate":0.10000000000000001,"growth":"depth_wise",'
     '"max_depth":6,"num_leaves":31,"min_samples_leaf":20,"alpha":0.5,"lambda":1.0,'
     '"min_gain":0.0}'),
    ({"kind": "ridge", "lambda": 1}, '{"lambda":1.0}'),
    ({"kind": "mlp"}, '{"hidden_sizes":[64,32],"epochs":200,"batch_size":256,"step_size":0.001}'),
    # the benchmark's models entries
    ({"kind": "gbdt", "growth": "leaf_wise", "n_estimators": 35},
     '{"n_estimators":35,"learning_rate":0.10000000000000001,"growth":"leaf_wise",'
     '"max_depth":6,"num_leaves":31,"min_samples_leaf":20,"alpha":0.5,"lambda":1.0,'
     '"min_gain":0.0}'),
    ({"kind": "ridge", "lambda": 1.0}, '{"lambda":1.0}'),
    ({"kind": "mlp", "hidden_sizes": [32], "epochs": 4},
     '{"hidden_sizes":[32],"epochs":4,"batch_size":256,"step_size":0.001}'),
    ({"kind": "gbdt", "growth": "depth_wise", "max_depth": 4, "min_samples_leaf": 5,
      "n_estimators": 150},
     '{"n_estimators":150,"learning_rate":0.10000000000000001,"growth":"depth_wise",'
     '"max_depth":4,"num_leaves":31,"min_samples_leaf":5,"alpha":0.5,"lambda":1.0,'
     '"min_gain":0.0}'),
]


@pytest.mark.parametrize("entry,golden", GOLDEN)
def test_report_params_keep_defaults_and_key_order(entry, golden):
    params = {k: v for k, v in entry.items() if k != "kind"}
    assert dumps(dataclass_to_doc(params_from_entry(entry["kind"], params))) == golden


def test_model_doc_missing_a_gbdt_param_is_rejected():
    X, y = tiny_matrix()
    doc = model_to_doc(fit_model("gbdt", {"n_estimators": 2}, X, y))
    del doc["params"]["min_gain"]
    with pytest.raises(ValueError, match="model params: missing key 'min_gain'"):
        model_from_doc(doc)
