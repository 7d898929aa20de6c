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
import sys
import typing
from datetime import date

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
    # numpy scalars leak in from feature math; np.float64 is a float already.
    # numpy is read from sys.modules: if it is not loaded, no numpy value exists
    np = sys.modules.get("numpy")
    if np is not None:
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


class _NonFinite(ValueError):
    """A NaN or Infinity literal, which no artifact is written with."""


def _refuse_constant(name):
    raise _NonFinite("non-finite number %s" % name)


# every artifact is written without NaN or Infinity, so reading one back refuses them
_DECODER = json.JSONDecoder(parse_constant=_refuse_constant)
# to say where the first one is, a refused file is decoded again with _MARK in their place
# and each object as the tuple of its pairs, which keeps a key given twice
_MARK = object()
_LOCATOR = json.JSONDecoder(parse_constant=lambda name: _MARK, object_pairs_hook=tuple)


def _path_to_mark(doc, path=""):
    """The /-joined key path of the first _MARK in a _LOCATOR document, in file order."""
    if doc is _MARK:
        return path or "/"
    items = doc if type(doc) is tuple else enumerate(doc) if type(doc) is list else ()
    return next(filter(None, (_path_to_mark(v, "%s/%s" % (path, k)) for k, v in items)), None)


def load_file(path):
    with open(path, "rb") as fh:
        text = fh.read().decode("utf-8")
    try:
        return _DECODER.decode(text)
    except _NonFinite as exc:
        raise ValueError("%s at %s" % (exc, _path_to_mark(_LOCATOR.decode(text)))) from None


def _types(annotation):
    """The member types of an annotation: the args of a union, else the annotation itself."""
    return typing.get_args(annotation) or (annotation,)


@functools.cache
def _stored(annotation):
    """The JSON types of annotation's members: a dataclass is an object, a date an ISO string."""
    return tuple(dict if dataclasses.is_dataclass(t) else str if t is date else t
                 for t in _types(annotation))


def _matches(value, annotation):
    """isinstance against a type annotation; ints pass as floats, bools only as bools."""
    container = _container(annotation)
    if container:
        origin, item, exact = container
        items = value.values() if isinstance(value, dict) else value
        # one C-level type pass spares a well-formed container the per-item rule
        return isinstance(value, origin) and (set(map(type, items)) <= exact
                                              or all(_matches(v, item) for v in items))
    allowed = _stored(annotation)
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
        return origin, item, frozenset(() if _container(item) else _stored(item))


@functools.cache
def _built(annotation):
    """Whether a value of annotation holds a date or a dataclass, stored as another type."""
    container = _container(annotation)
    return _built(container[1]) if container else _stored(annotation) != _types(annotation)


def _type_name(annotation):
    container = _container(annotation)
    if container:
        return ("list of " if container[0] is list else "object of ") + _type_name(container[1])
    return " or ".join("null" if t is type(None) else "object" if t is dict else t.__name__
                       for t in _stored(annotation))


def _dates_from_json(values, name):
    """Each ISO string of values as its date, in order; None stays None. A string that is
    not an ISO date is a ValueError naming name(i), i the index of its first use."""
    parsed = dict.fromkeys(values)  # each distinct string once, in order of first use
    for s in parsed:
        if s is not None:
            try:
                parsed[s] = date.fromisoformat(s)
            except ValueError as exc:
                raise ValueError("%s must be an ISO date, got %s (%s)" % (
                    name(values.index(s)), reprlib.repr(s), exc)) from None
    return list(map(parsed.__getitem__, values))


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


def rows_to_doc(records, columns):
    """Each record as a list of its (name, annotation) columns' values, dates as ISO strings."""
    rows = list(map(list, map(operator.attrgetter(*[name for name, _ in columns]), records)))
    for j, (_, annotation) in enumerate(columns):
        if date in _types(annotation):
            column = list(map(operator.itemgetter(j), rows))
            iso = {d: None if d is None else d.isoformat() for d in set(column)}  # each once
            for row, value in zip(rows, map(iso.__getitem__, column)):
                row[j] = value
    return rows


def rows_from_doc(rows, columns, where):
    """A tuple per row of its (name, annotation) columns' values, dates parsed; each row
    must be a list of one value per column, each following the field rule, and a failure
    is a ValueError naming where, the 1-based row and the column."""
    width = len(columns)
    # C-level passes over rows and columns spare a well-formed file the per-value rule
    if not (set(map(type, rows)) <= {list} and set(map(len, rows)) <= {width}):
        for number, row in enumerate(rows, 1):
            if type(row) is not list or len(row) != width:
                raise ValueError("%s row %d: expected a list of %d values, got %s"
                                 % (where, number, width, reprlib.repr(row)))
    values = [map(operator.itemgetter(j), rows) for j in range(width)]
    for j, (name, annotation) in enumerate(columns):
        if not set(map(type, map(operator.itemgetter(j), rows))) <= set(_stored(annotation)):
            for number, row in enumerate(rows, 1):
                if not _matches(row[j], annotation):
                    raise ValueError("%s row %d: %r must be %s, got %s %s" % (
                        where, number, name, _type_name(annotation),
                        type(row[j]).__name__, reprlib.repr(row[j])))
        if date in _types(annotation):
            values[j] = _dates_from_json(list(values[j]),
                                         lambda i: "%s row %d: %r" % (where, i + 1, name))
    return zip(*values)


@functools.cache
def _fields(cls):
    """JSON key -> (attribute, annotation, holds a date or dataclass, has no default) of each
    init field of cls, in field order; the key is metadata["json"] or the name."""
    return {f.metadata.get("json", f.name): (
                f.name, f.type, _built(f.type),
                f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING)
            for f in dataclasses.fields(cls) if f.init}


def _from_json(value, annotation, where, required):
    """A checked JSON value of annotation with each date and dataclass in it built."""
    container = _container(annotation)
    if container:
        pairs = value.items() if isinstance(value, dict) else enumerate(value)
        built = {k: _from_json(v, container[1], "%s[%r]" % (where, k), required)
                 for k, v in pairs}
        return built if isinstance(value, dict) else list(built.values())
    if value is None or isinstance(value, str):
        return _dates_from_json([value], lambda i: where)[0]
    cls = next(t for t in _types(annotation) if dataclasses.is_dataclass(t))
    return dataclass_from_doc(cls, value, where, required)


def dataclass_from_doc(cls, doc, where, required=False):
    """cls from a JSON object whose keys are its init fields' metadata["json"] or names.

    Absent keys take the defaults unless required or the field has none; an
    unknown, missing or mistyped key, or a ValueError from cls, is a
    ValueError naming where and, inside nested dataclasses, the key path.
    Ints given for float fields become floats.
    """
    plan = _fields(cls)
    unknown = [key for key in doc if key not in plan]
    if unknown:
        raise ValueError("%s: unknown key %r" % (where, unknown[0]))
    values = {}
    for key, (name, annotation, built, needed) in plan.items():
        if required or needed or key in doc:
            value = field(doc, key, annotation, where)
            if built:
                value = _from_json(value, annotation, "%s %s" % (where, key), required)
            values[name] = float(value) if annotation is float else value
    try:
        return cls(**values)
    except ValueError as exc:
        raise ValueError("%s: %s" % (where, exc)) from None


def _to_json(value, annotation):
    np = sys.modules.get("numpy")  # as in _fold
    if np is not None and isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, date):
        return value.isoformat()
    if dataclasses.is_dataclass(value):
        return dataclass_to_doc(value)
    container = _container(annotation)
    if not container:
        return value
    origin, item, _ = container
    # containers of dates, dataclasses or arrays take a per-item step, the rest a copy
    if not (_built(item) or typing.get_origin(item) is list):
        return origin(value)
    pairs = value.items() if origin is dict else enumerate(value)
    out = {k: _to_json(v, item) for k, v in pairs}
    return out if origin is dict else list(out.values())


def dataclass_to_doc(obj):
    """obj's init fields as a JSON object in field order, as dataclass_from_doc reads it."""
    return {key: _to_json(getattr(obj, name), annotation)
            for key, (name, annotation, _, _) in _fields(type(obj)).items()}
