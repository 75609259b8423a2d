"""One codec for every artifact: dataclasses to JSON values and back.

``encode`` walks a dataclass's init fields: arrays become nested lists,
numpy scalars Python numbers, dict keys strings, tuples lists, and a
nested dataclass a dict.  ``decode`` reverses it, driven by the class's
type hints, and raises DataError naming the field path for a missing
required field, an unknown key, a value of the wrong type or a failed
check of the class's own.  A missing field with a default takes the
default.  ``read_json`` reads the JSON object that an artifact, truth or
config file holds.
"""

from __future__ import annotations

import dataclasses
import json
import numbers
import reprlib
import types
import typing

import numpy as np

from .errors import DataError

_SCALARS = {
    bool: (bool, "true or false"),
    int: (numbers.Integral, "an integer"),
    float: (numbers.Real, "a number"),
    str: (str, "a string"),
}


def read_json(path) -> dict:
    """The JSON object held by file ``path``; DataError if missing, invalid or not an object."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except FileNotFoundError:
        raise DataError(f"file not found: {path}") from None
    except OSError as exc:  # a directory, say
        raise DataError(f"cannot open {path}: {exc}") from None
    except ValueError as exc:  # bad JSON, or bytes that are not UTF-8
        raise DataError(f"{path} is not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise DataError(f"{path} must hold a JSON object")
    return payload


def encode(obj):
    """JSON-ready form of ``obj``; a dataclass becomes a dict of its init fields."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: encode(getattr(obj, f.name)) for f in dataclasses.fields(obj) if f.init}
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, dict):
        return {str(k): encode(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [encode(v) for v in obj]
    return obj


def decode(cls, payload, path: str):
    """Instance of dataclass ``cls`` from ``encode(instance)``; ``path`` names it in errors."""
    _expect(payload, dict, "an object", path)
    specs = [f for f in dataclasses.fields(cls) if f.init]
    unknown = set(payload) - {f.name for f in specs}
    if unknown:
        raise DataError(f"unknown {path} keys: {sorted(unknown)}")
    hints = typing.get_type_hints(cls)
    kwargs = {}
    for f in specs:
        where = f"{path}.{f.name}"
        if f.name in payload:
            kwargs[f.name] = _value(hints[f.name], payload[f.name], where)
        elif f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
            raise DataError(f"{where} is missing")
    try:
        return cls(**kwargs)
    except DataError as exc:  # the class's own checks, e.g. of array shapes
        raise DataError(f"{path}: {exc}") from None


def _value(hint, value, where: str):
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):
        if value is None and type(None) in args:
            return None
        (inner,) = [a for a in args if a is not type(None)]
        return _value(inner, value, where)
    if dataclasses.is_dataclass(hint):
        return decode(hint, value, where)
    if hint is np.ndarray:
        _expect(value, list, "an array of numbers", where)
        try:
            arr = np.asarray(value)
        except ValueError:  # ragged nesting
            arr = None
        if arr is None or arr.dtype.kind not in "iuf":
            raise DataError(f"{where} must be an array of numbers, got {reprlib.repr(value)}")
        return arr.astype(float)
    if origin is dict:
        _expect(value, dict, "an object", where)
        key_type, item_type = args
        return {
            _key(key_type, k, where): _value(item_type, v, f"{where}.{k}")
            for k, v in value.items()
        }
    if origin in (tuple, list):  # tuple[X, ...] or list[X]
        _expect(value, list, "a list", where)
        items = [_value(args[0], v, f"{where}[{i}]") for i, v in enumerate(value)]
        return tuple(items) if origin is tuple else items
    if hint is tuple:
        # nested lists become tuples; the owning class checks the entries
        return _tuples(value)
    if hint in _SCALARS:
        kind, what = _SCALARS[hint]
        if not isinstance(value, kind) or (isinstance(value, bool) and hint is not bool):
            raise DataError(f"{where} must be {what}, got {reprlib.repr(value)}")
    return value


def _expect(value, kind: type, what: str, where: str) -> None:
    if not isinstance(value, kind):
        raise DataError(f"{where} must be {what}, got {reprlib.repr(value)}")


def _key(key_type, key: str, where: str):
    if key_type is int:
        try:
            return int(key)
        except ValueError:
            raise DataError(f"{where} key {key!r} must be an integer") from None
    return key


def _tuples(value):
    return tuple(_tuples(v) for v in value) if isinstance(value, list) else value
