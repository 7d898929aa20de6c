"""Deterministic JSON writing, and reading checked against type annotations.

Every artifact file (dataset, pipeline, models, report) goes through
dumps/dump_file so that equal in-memory values always produce equal
bytes. Floats are written as float.__repr__ writes them, with the fewest
significant digits that json.loads parses back to the exact same
double, and dict insertion order is kept.
"""

import dataclasses
import functools
import itertools
import json
import math
import operator
import reprlib
import typing
from datetime import date

import numpy as np

# the interpreter's own sha256: hashlib would map OpenSSL, about 4 MB more
# resident memory in every command
try:
    from _sha2 import sha256 as _sha256  # CPython 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256 as _sha256  # CPython 3.10 and 3.11
    except ImportError:  # an interpreter built without its own digests
        from hashlib import sha256 as _sha256


def format_float(x):
    """Render a float with the fewest digits that parse back to the identical double."""
    if not math.isfinite(x):
        raise ValueError("non-finite float in output: %r" % x)
    # float() first: numpy 2 would repr an np.float64 as "np.float64(...)"
    return repr(float(x))


def _fold(value):
    # numpy scalars leak in from feature math; np.float64 is a float already
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    raise ValueError("cannot serialize %r" % type(value))


_ENCODER = json.JSONEncoder(ensure_ascii=False, separators=(",", ":"), allow_nan=False,
                            default=_fold)


def _pick(items, kinds):
    """The items whose exact type is in kinds, selected at C level."""
    return list(itertools.compress(items, map(kinds.__contains__, map(type, items))))


def _check_keys(value):
    """Raise ValueError for a non-str object key anywhere in value.

    The encoder would write an int key as a string. The walk takes one
    depth at a time, and every type test is a set(map(type, ...)) at C
    level, so a row of scalars costs no Python call per value.
    """
    level = [value]
    while level:
        kinds = set(map(type, level))
        dicts = _pick(level, {t for t in kinds if issubclass(t, dict)})
        if not all(issubclass(t, str) for t in set(map(type, itertools.chain(*dicts)))):
            key = next(k for d in dicts for k in d if not isinstance(k, str))
            raise ValueError("object keys must be str, got %r" % (key,))
        members = list(itertools.chain(
            *_pick(level, {t for t in kinds if issubclass(t, (list, tuple))}),
            *map(dict.values, dicts)))
        level = _pick(members, {t for t in set(map(type, members))
                                if issubclass(t, (dict, list, tuple))})


def dumps(value):
    _check_keys(value)
    return _ENCODER.encode(value)


def dump_file(value, path):
    """Write value and a newline to path; returns the bytes written."""
    blob = dumps(value).encode("utf-8") + b"\n"
    with open(path, "wb") as fh:
        fh.write(blob)
    return blob


def sha256_hex(blob):
    """The sha256 of blob in hex, as sha256sum prints it."""
    return _sha256(blob).hexdigest()


def _refuse_constant(name):
    raise ValueError("non-finite number %s" % name)


# every artifact is written without NaN or Infinity, so reading one back refuses them
_DECODER = json.JSONDecoder(parse_constant=_refuse_constant)


def load_file(path):
    with open(path, "rb") as fh:
        return _DECODER.decode(fh.read().decode("utf-8"))


def _matches(value, annotation):
    """isinstance against a type annotation; ints pass as floats, bools only as bools."""
    container = _container(annotation)
    if container:
        origin, item, exact = container
        items = value.values() if isinstance(value, dict) else value
        # one C-level type pass spares a well-formed container the per-item rule
        return isinstance(value, origin) and (set(map(type, items)) <= exact
                                              or all(_matches(v, item) for v in items))
    if dataclasses.is_dataclass(annotation):
        return isinstance(value, dict)
    allowed = (str,) if annotation is date else typing.get_args(annotation) or (annotation,)
    if isinstance(value, bool):
        return bool in allowed
    if isinstance(value, int) and float in allowed:
        return True
    return isinstance(value, allowed)


@functools.cache
def _container(annotation):
    """(list or dict, item annotation, item types that need no per-item check), or None."""
    origin = typing.get_origin(annotation)
    if origin is list or origin is dict:
        item = typing.get_args(annotation)[-1]
        return origin, item, frozenset(() if _container(item) else typing.get_args(item) or (item,))


def _type_name(annotation):
    container = _container(annotation)
    if container:
        return ("list of " if container[0] is list else "object of ") + _type_name(container[1])
    if dataclasses.is_dataclass(annotation):
        return "object"
    allowed = typing.get_args(annotation) or (annotation,)
    return " or ".join("null" if t is type(None) else t.__name__ for t in allowed)


def field(doc, key, annotation, where):
    """doc[key] if it matches annotation; otherwise a ValueError naming where and the key."""
    if not isinstance(doc, dict) or key not in doc:
        raise ValueError("%s: missing key %r" % (where, key))
    value = doc[key]
    # the exact-type test spares the common case a call: model files check every tree node
    if type(value) is not annotation and not _matches(value, annotation):
        raise ValueError("%s: key %r must be %s, got %s %s" % (
            where, key, _type_name(annotation), type(value).__name__, reprlib.repr(value)))
    return value


def check_rows(rows, columns, where):
    """Check that each row is a list with one value per (name, annotation) column.

    Values follow the field rule; a failure is a ValueError naming where,
    the 1-based row and the column.
    """
    width = len(columns)
    # C-level passes over rows and columns spare a well-formed file the per-value rule
    if not (set(map(type, rows)) <= {list} and set(map(len, rows)) <= {width}):
        for number, row in enumerate(rows, 1):
            if type(row) is not list or len(row) != width:
                raise ValueError("%s row %d: expected a list of %d values, got %s"
                                 % (where, number, width, reprlib.repr(row)))
    for j, (name, annotation) in enumerate(columns):
        exact = set(typing.get_args(annotation) or (annotation,))
        if set(map(type, map(operator.itemgetter(j), rows))) <= exact:
            continue
        for number, row in enumerate(rows, 1):
            if not _matches(row[j], annotation):
                raise ValueError("%s row %d: %r must be %s, got %s %s" % (
                    where, number, name, _type_name(annotation),
                    type(row[j]).__name__, reprlib.repr(row[j])))


@functools.cache
def _fields(cls):
    """JSON key -> (attribute, annotation, the dataclass it holds or None) of each init
    field of cls, in field order; the key is metadata["json"] or the name."""
    plan = {}
    for f in dataclasses.fields(cls):
        item = _container(f.type)[1] if _container(f.type) else f.type
        if f.init:
            plan[f.metadata.get("json", f.name)] = (
                f.name, f.type, item if dataclasses.is_dataclass(item) else None)
    return plan


def _build(value, annotation, inner, where, required):
    """A checked JSON value built into its date, its dataclass inner, or the list or
    object of inner that annotation declares."""
    if annotation is date:
        try:
            return date.fromisoformat(value)
        except ValueError:
            raise ValueError("%s must be an ISO date, got %r" % (where, value)) from None
    if inner is annotation:
        return dataclass_from_doc(inner, value, where, required)
    pairs = value.items() if isinstance(value, dict) else enumerate(value)
    built = {k: dataclass_from_doc(inner, v, "%s[%r]" % (where, k), required) for k, v in pairs}
    return built if isinstance(value, dict) else list(built.values())


def dataclass_from_doc(cls, doc, where, required=False):
    """cls from a JSON object whose keys are its init fields' metadata["json"] or names.

    Absent keys take the defaults unless required; an unknown, missing or
    mistyped key, or a ValueError from cls, is a ValueError naming where and,
    inside nested dataclasses, the key path. Ints given for float fields
    become floats.
    """
    plan = _fields(cls)
    unknown = [key for key in doc if key not in plan]
    if unknown:
        raise ValueError("%s: unknown key %r" % (where, unknown[0]))
    values = {}
    for key, (name, annotation, inner) in plan.items():
        if required or key in doc:
            value = field(doc, key, annotation, where)
            if inner is not None or annotation is date:
                value = _build(value, annotation, inner, "%s %s" % (where, key), required)
            values[name] = float(value) if annotation is float else value
    try:
        return cls(**values)
    except ValueError as exc:
        raise ValueError("%s: %s" % (where, exc)) from None


def _to_json(value, annotation):
    if isinstance(value, np.ndarray):
        return value.tolist()
    if dataclasses.is_dataclass(annotation):
        return dataclass_to_doc(value)
    if annotation is date:
        return value.isoformat()
    if not _container(annotation):
        return value
    origin, item, _ = _container(annotation)
    # containers of dataclasses or of arrays take a per-item step, the rest a copy
    if not (dataclasses.is_dataclass(item) or typing.get_origin(item) is list):
        return origin(value)
    pairs = value.items() if origin is dict else enumerate(value)
    out = {k: _to_json(v, item) for k, v in pairs}
    return out if origin is dict else list(out.values())


def dataclass_to_doc(obj):
    """obj's init fields as a JSON object in field order, as dataclass_from_doc reads it."""
    return {key: _to_json(getattr(obj, name), annotation)
            for key, (name, annotation, _) in _fields(type(obj)).items()}
