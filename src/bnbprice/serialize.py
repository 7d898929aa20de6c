"""Deterministic JSON writing, and reading checked against type annotations.

Every artifact file (dataset, pipeline, models, report) goes through
dumps/dump_file so that equal in-memory values always produce equal
bytes. Floats are rendered with 17 significant digits, which json.loads
parses back to the exact same double, and dict insertion order is kept.
"""

import dataclasses
import json
import math
import operator
import reprlib
import typing

import numpy as np


def format_float(x):
    """Render a float so that parsing returns the identical double."""
    if not math.isfinite(x):
        raise ValueError("non-finite float in output: %r" % x)
    s = "%.17g" % x
    # keep the value typed as float on reload ("5" would come back int)
    if "." not in s and "e" not in s and "E" not in s:
        s += ".0"
    return s


def _write(value, parts):
    # numpy scalars leak in from feature math; fold them into plain types
    if isinstance(value, np.bool_):
        value = bool(value)
    elif isinstance(value, np.integer):
        value = int(value)
    elif isinstance(value, np.floating):
        value = float(value)
    if value is None:
        parts.append("null")
    elif value is True:
        parts.append("true")
    elif value is False:
        parts.append("false")
    elif isinstance(value, str):
        parts.append(json.dumps(value, ensure_ascii=False))
    elif isinstance(value, float):
        parts.append(format_float(value))
    elif isinstance(value, int):
        parts.append(str(value))
    elif isinstance(value, dict):
        parts.append("{")
        first = True
        for k, v in value.items():
            if not isinstance(k, str):
                raise ValueError("object keys must be str, got %r" % (k,))
            if not first:
                parts.append(",")
            first = False
            parts.append(json.dumps(k, ensure_ascii=False))
            parts.append(":")
            _write(v, parts)
        parts.append("}")
    elif isinstance(value, (list, tuple)):
        parts.append("[")
        for i, v in enumerate(value):
            if i:
                parts.append(",")
            _write(v, parts)
        parts.append("]")
    else:
        raise ValueError("cannot serialize %r" % type(value))


def dumps(value):
    parts = []
    _write(value, parts)
    return "".join(parts)


def dump_file(value, path):
    with open(path, "wb") as fh:
        fh.write(dumps(value).encode("utf-8"))
        fh.write(b"\n")


def load_file(path):
    with open(path, "rb") as fh:
        return json.loads(fh.read().decode("utf-8"))


def _matches(value, annotation):
    """isinstance against a type annotation; ints pass as floats, bools only as bools."""
    if typing.get_origin(annotation) is list:
        item = typing.get_args(annotation)[0]
        return isinstance(value, list) and all(_matches(v, item) for v in value)
    allowed = typing.get_args(annotation) or (annotation,)
    if isinstance(value, bool):
        return bool in allowed
    if isinstance(value, int) and float in allowed:
        return True
    return isinstance(value, allowed)


def _type_name(annotation):
    if typing.get_origin(annotation) is list:
        return "list of " + _type_name(typing.get_args(annotation)[0])
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


def _json_key(f):
    return f.metadata.get("json", f.name)


def dataclass_from_doc(cls, doc, where, required=False):
    """cls from a JSON object whose keys are its fields' metadata["json"] or names.

    Absent keys take the defaults unless required; an unknown, missing or
    mistyped key is a ValueError naming where and the key. Ints given for
    float fields become floats.
    """
    by_key = {_json_key(f): f for f in dataclasses.fields(cls)}
    unknown = [key for key in doc if key not in by_key]
    if unknown:
        raise ValueError("%s: unknown key %r" % (where, unknown[0]))
    values = {}
    for key, f in by_key.items():
        if required or key in doc:
            value = field(doc, key, f.type, where)
            values[f.name] = float(value) if f.type is float else value
    return cls(**values)


def dataclass_to_doc(obj):
    """obj's fields as a JSON object in field order, as dataclass_from_doc reads it."""
    return {_json_key(f): getattr(obj, f.name) for f in dataclasses.fields(obj)}
