import dataclasses
import datetime
import json
import math
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bnbprice import serialize


def test_float_formatting_appends_decimal_marker():
    assert serialize.format_float(1.0) == "1.0"
    assert serialize.format_float(-3.0) == "-3.0"
    assert serialize.format_float(0.5) == "0.5"
    # exponent forms already read as floats, no suffix needed
    assert "e" in serialize.format_float(1e300)


def test_float_round_trip_is_exact():
    rng = random.Random(5)
    values = [rng.uniform(-1e6, 1e6) for _ in range(2000)]
    values += [rng.random() * 10.0 ** rng.randint(-300, 300) for _ in range(2000)]
    values += [0.0, -0.0, 1.5e-320, 4.9e-324]
    for x in values:
        assert float(serialize.format_float(x)) == x


def test_non_finite_rejected():
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError):
            serialize.format_float(bad)
        with pytest.raises(ValueError):
            serialize.dumps({"x": bad})


def test_dumps_preserves_insertion_order():
    doc = {"zeta": 1, "alpha": 2, "mid": {"b": 1, "a": 2}}
    text = serialize.dumps(doc)
    assert text.index("zeta") < text.index("alpha")
    assert text.index('"b"') < text.index('"a"')
    assert json.loads(text) == doc


def test_dumps_handles_numpy_scalars():
    doc = {"a": np.float64(0.25), "b": np.int64(7), "c": np.bool_(True)}
    assert json.loads(serialize.dumps(doc)) == {"a": 0.25, "b": 7, "c": True}


def test_dumps_rejects_non_string_keys():
    with pytest.raises(ValueError):
        serialize.dumps({1: "x"})


def test_dumps_is_utf8_not_escaped():
    text = serialize.dumps({"name": "Côte d'Azur"})
    assert "Côte" in text


def test_dump_file_newline_terminated(tmp_path):
    path = tmp_path / "doc.json"
    serialize.dump_file({"x": [1, 2.5, None, True, "s"]}, path)
    raw = path.read_bytes()
    assert raw.endswith(b"\n")
    assert serialize.load_file(path) == {"x": [1, 2.5, None, True, "s"]}


def test_identical_doc_identical_bytes(tmp_path):
    doc = {"values": [math.pi, 1.0, -0.125], "tag": "run"}
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    serialize.dump_file(doc, a)
    serialize.dump_file(doc, b)
    assert a.read_bytes() == b.read_bytes()


def test_dumps_checks_keys_and_values_at_any_depth():
    with pytest.raises(ValueError, match="keys must be str"):
        serialize.dumps({"a": [1, ({"b": {2: "x"}},)]})
    with pytest.raises(ValueError):
        serialize.dumps([[0.5, {"c": [float("nan")]}]])
    with pytest.raises(ValueError, match="cannot serialize"):
        serialize.dumps({"a": [{1, 2}]})


def test_format_float_writes_the_repr_of_the_float():
    assert serialize.format_float(0.1) == "0.1"
    assert serialize.format_float(np.float64(0.1)) == "0.1"
    assert serialize.format_float(-0.0) == "-0.0"
    assert serialize.format_float(1e22) == "1e+22"
    assert serialize.format_float(5e-324) == "5e-324"


FINITE = st.floats(allow_nan=False, allow_infinity=False)
SCALARS = FINITE | st.integers() | st.text() | st.booleans() | st.none()
DOCS = st.recursive(SCALARS, lambda inner: st.lists(inner, max_size=4)
                    | st.dictionaries(st.text(), inner, max_size=4), max_leaves=20)


def assert_same(a, b):
    """Equal with the same types, the same key order and bit-equal floats."""
    assert type(a) is type(b), (a, b)
    if isinstance(a, dict):
        assert list(a) == list(b)
        for k in a:
            assert_same(a[k], b[k])
    elif isinstance(a, list):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert_same(x, y)
    elif isinstance(a, float):
        assert a.hex() == b.hex()
    else:
        assert a == b


def seventeen_digit_dumps(value):
    """The writer's former float rule: "%.17g", plus ".0" where it would read back as an int."""
    if isinstance(value, float):
        text = "%.17g" % value
        return text if "." in text or "e" in text else text + ".0"
    if isinstance(value, dict):
        return "{%s}" % ",".join(json.dumps(k, ensure_ascii=False) + ":" + seventeen_digit_dumps(v)
                                 for k, v in value.items())
    if isinstance(value, list):
        return "[%s]" % ",".join(map(seventeen_digit_dumps, value))
    return json.dumps(value, ensure_ascii=False)


@settings(max_examples=300, deadline=None)
@given(doc=DOCS)
def test_any_document_round_trips_exactly(tmp_path_factory, doc):
    path = tmp_path_factory.getbasetemp() / "round_trip.json"
    serialize.dump_file(doc, path)
    assert_same(serialize.load_file(path), doc)


@settings(max_examples=300, deadline=None)
@given(doc=DOCS)
def test_documents_in_the_seventeen_digit_text_load_to_the_same_values(doc):
    assert_same(json.loads(seventeen_digit_dumps(doc)), json.loads(serialize.dumps(doc)))


NUMPY_PAIRS = (FINITE.map(lambda x: (np.float64(x), x))
               | st.floats(width=32, allow_nan=False, allow_infinity=False)
               .map(lambda x: (np.float32(x), x))
               | st.integers(-2**63, 2**63 - 1).map(lambda i: (np.int64(i), i))
               | st.integers(0, 255).map(lambda i: (np.uint8(i), i))
               | st.booleans().map(lambda b: (np.bool_(b), b)))


@settings(max_examples=200, deadline=None)
@given(pairs=st.lists(NUMPY_PAIRS, max_size=6))
def test_numpy_scalars_fold_to_their_plain_values(pairs):
    folded = [value for _, value in pairs]
    doc = {"list": [scalar for scalar, _ in pairs],
           "dict": {str(i): scalar for i, (scalar, _) in enumerate(pairs)}}
    plain = {"list": folded, "dict": {str(i): value for i, value in enumerate(folded)}}
    assert serialize.dumps(doc) == serialize.dumps(plain)
    assert_same(json.loads(serialize.dumps(doc)), plain)


@given(x=FINITE)
def test_format_float_writes_the_fewest_digits_that_round_trip(x):
    text = serialize.format_float(x)
    assert float(text).hex() == x.hex()
    digits = len(text.split("e")[0].lstrip("-").replace(".", "").strip("0"))
    assert digits <= 17
    if digits > 1:  # rounded to one digit fewer, it reads back as another double
        assert float("%.*e" % (digits - 2, x)) != x


SCALARS = st.one_of(st.booleans(), st.integers(), st.floats(allow_nan=False), st.text(max_size=3),
                    st.none())


@settings(max_examples=300, deadline=None)
@given(values=st.lists(SCALARS, max_size=6),
       item=st.sampled_from([int, float, str, bool, str | None, float | None]))
def test_list_fast_path_agrees_with_the_per_item_rule(values, item):
    assert serialize._matches(values, list[item]) == all(
        serialize._matches(v, item) for v in values)


@settings(max_examples=300, deadline=None)
@given(values=st.dictionaries(st.text(max_size=2), SCALARS, max_size=6),
       item=st.sampled_from([int, float, str, bool, str | None, float | None]))
def test_dict_fast_path_agrees_with_the_per_item_rule(values, item):
    assert serialize._matches(values, dict[str, item]) == all(
        serialize._matches(v, item) for v in values.values())


@dataclasses.dataclass
class Leaf:
    weights: list[float]
    name: str = "leaf"
    cache: dict = dataclasses.field(init=False, default=None)

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        if self.weights.size == 0:
            raise ValueError("no weights")
        self.cache = {}


@dataclasses.dataclass
class Root:
    when: datetime.date
    first: Leaf
    leaves: list[Leaf]
    by_name: dict[str, Leaf]
    grid: list[list[float]]
    scale: float = dataclasses.field(default=1.0, metadata={"json": "lambda"})


def sample_root():
    return Root(datetime.date(2021, 3, 14), Leaf([1.0, 2.5]), [Leaf([0.5], "a"), Leaf([3.0])],
                {"x": Leaf([-1.0], "x")}, np.array([[1.0, 2.0], [3.0, 4.0]]), 0.25)


def test_nested_dataclasses_round_trip_in_field_order():
    doc = json.loads(serialize.dumps(serialize.dataclass_to_doc(sample_root())))
    assert doc == {"when": "2021-03-14", "first": {"weights": [1.0, 2.5], "name": "leaf"},
                   "leaves": [{"weights": [0.5], "name": "a"}, {"weights": [3.0], "name": "leaf"}],
                   "by_name": {"x": {"weights": [-1.0], "name": "x"}},
                   "grid": [[1.0, 2.0], [3.0, 4.0]], "lambda": 0.25}
    assert list(doc) == ["when", "first", "leaves", "by_name", "grid", "lambda"]
    back = serialize.dataclass_from_doc(Root, doc, "root", required=True)
    assert back.when == datetime.date(2021, 3, 14)
    assert isinstance(back.leaves[1], Leaf) and back.leaves[1].weights.tolist() == [3.0]
    assert back.by_name["x"].name == "x" and back.first.cache == {}
    assert serialize.dumps(serialize.dataclass_to_doc(back)) == serialize.dumps(doc)


def spoiled_root(spoil):
    doc = json.loads(serialize.dumps(serialize.dataclass_to_doc(sample_root())))
    spoil(doc)
    return doc


@pytest.mark.parametrize("spoil,expected", [
    (lambda d: d["leaves"][1].pop("weights"), "root leaves[1]: missing key 'weights'"),
    (lambda d: d["leaves"][0].update(weights=[]), "root leaves[0]: no weights"),
    (lambda d: d["by_name"]["x"].update(name=3), "root by_name['x']: key 'name' must be str"),
    (lambda d: d["first"].update(cache={}), "root first: unknown key 'cache'"),
    (lambda d: d.update(when="2021-02-30"), "root when must be an ISO date, got '2021-02-30'"),
    (lambda d: d.update(leaves=[1]), "root: key 'leaves' must be list of object"),
    (lambda d: d.update(by_name=[]), "root: key 'by_name' must be object of object"),
    (lambda d: d.update(grid=[[1.0], ["2"]]), "root: key 'grid' must be list of list of float"),
    (lambda d: d.pop("lambda"), "root: missing key 'lambda'"),
])
def test_nested_errors_name_their_place(spoil, expected):
    with pytest.raises(ValueError, match=re.escape(expected)):
        serialize.dataclass_from_doc(Root, spoiled_root(spoil), "root", required=True)


@pytest.mark.parametrize("text,place", [pytest.param(text, place, id=text) for text, place in [
    ('{"a": NaN}', "NaN at /a"),
    ('[1.0, Infinity]', "Infinity at /1"),
    ('{"b": [-Infinity]}', "-Infinity at /b/0"),
    ('{"x": "NaN", "y": [1, {"z": [2.0, NaN, Infinity]}]}', "NaN at /y/1/z/1"),
    ('{"a": NaN, "a": 1.0}', "NaN at /a"),
]])
def test_load_file_refuses_non_finite_numbers(tmp_path, text, place):
    # the message names the key path of the first one in file order
    path = tmp_path / "doc.json"
    path.write_text(text)
    with pytest.raises(ValueError, match="^non-finite number %s$" % re.escape(place)):
        serialize.load_file(path)
