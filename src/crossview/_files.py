"""read_json, the one JSON file reader; its parsers' field checks; and the argument rules, _number and frozen_array.

An unreadable file raises OSError (exit 3); one that is not UTF-8, not JSON
or not what its parser takes raises ValueError (exit 2). Both name the file.
"""

import json
import math
import sys
from itertools import chain

import numpy as np

# The Python and numpy number types; a bool is an int, so callers refuse it apart.
_NUMBERS = (int, float, np.integer, np.floating)

# Per array dtype: the ndarray dtype kinds it takes, the leaf types of nested
# lists it takes and those it refuses among them, and the word for them in
# errors. numpy itself reads "0.5" and True as numbers.
_LEAVES = {
    float: ("fiu", _NUMBERS, bool, "numbers"),
    int: ("iu", (int, np.integer), bool, "integers"),
    bool: ("b", (bool, np.bool_), (), "true or false"),
}


def read_json(path, what, parse, raw=False):
    """parse(value) of the JSON file at path, or parse(its bytes) if raw; errors name the file as what and path."""
    try:
        with open(path, "rb" if raw else "r", encoding=None if raw else "utf-8") as fh:
            return parse(fh.read() if raw else json.load(fh))  # no name here holds the bytes
    except OSError as exc:
        raise OSError(f"cannot read {what} {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ValueError(f"{what} {path} is not UTF-8 text: {exc}") from exc
    except ValueError as exc:  # not JSON, or what parse rejects
        raise ValueError(f"{what} {path}: {exc}") from exc


def _number(value, name, integer=False, low=None, high=None, positive=False):
    """The scalar rule of every argument and JSON field; errors name the field and the value. A Python or numpy
    number, not a bool, finite as a float (an int beyond the floats is not), given as a float, or as an int for an
    integer field; then at least low and at most high (high needs low), and above 0 if positive, where given."""
    if isinstance(value, bool) or not isinstance(value, _NUMBERS):
        raise ValueError(f"{name} must be a number, got {value!r}")
    if not (integer or abs(value) <= sys.float_info.max if isinstance(value, int) else math.isfinite(value)):
        raise ValueError(f"{name} must be finite, got {value!r}")
    if integer and not (isinstance(value, int) or value.is_integer()):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    number = int(value) if integer else float(value)
    if (low is not None and number < low) or (high is not None and number > high) or (positive and number <= 0):
        bound = f"in [{low}, {high}]" if high is not None else "non-negative" if low == 0 else f"at least {low}"
        raise ValueError(f"{name} must be {'positive' if positive else bound}, got {number!r}")
    return number


def frozen_array(value, name, shape, dtype=float, copy=True):
    """Read-only copy of value (a view if not copy), checked for element type, shape and finiteness.

    dtype is float, int or bool. An ndarray, also one nested in lists, must be
    of a kind dtype takes, an O(1) check; every other leaf must be a float or
    an int for float, an int for int and a bool for bool. shape holds fixed
    lengths and named ones: a str, such as "k", is a length of at least 1.
    Errors name the field and the type found.
    """
    kinds, takes, refuses, noun = _LEAVES[dtype]
    if isinstance(value, np.ndarray):
        found = set() if value.dtype.kind in kinds else {value.dtype.type.__name__}
    else:
        found, leaves = set(), value  # not an array: its items are the first level
        try:  # the leaves, level by level by C-level iteration
            for _ in range(len(shape) - 1):
                leaves = list(leaves)
                if any(issubclass(t, np.ndarray) for t in set(map(type, leaves))):  # by dtype kind, not walked
                    arrays = [a for a in leaves if isinstance(a, np.ndarray)]
                    found.update(a.dtype.type.__name__ for a in arrays if a.dtype.kind not in kinds)
                    leaves = [x for x in leaves if not isinstance(x, np.ndarray)]
                leaves = chain.from_iterable(leaves)
            types = set(map(type, leaves))
        except (TypeError, ValueError):  # ragged or too shallow: asarray or the shape check names it
            types = ()
        found.update(t.__name__ for t in types if not issubclass(t, takes) or issubclass(t, refuses))
    if found:
        raise ValueError(f"{name} must hold {noun}, got {', '.join(sorted(found))}")
    try:
        a = np.asarray(value, dtype=dtype)
    except (TypeError, ValueError) as exc:  # ragged nesting
        raise ValueError(f"{name} must be an array of {noun} of shape {_shape_text(shape)}") from exc
    except OverflowError as exc:  # an int beyond the dtype's range
        raise ValueError(f"{name} must hold {noun} within the range of {np.dtype(dtype).name}") from exc
    if a.shape != shape and (
        a.ndim != len(shape) or any(n < 1 if isinstance(s, str) else n != s for s, n in zip(shape, a.shape))
    ):
        raise ValueError(f"{name} must have shape {_shape_text(shape)}, got {a.shape}")
    if a.dtype.kind == "f" and not np.logical_and.reduce(np.isfinite(a), axis=None):  # ints and bools are finite
        raise ValueError(f"{name} must be finite")
    out = a.copy() if copy else a.view()
    out.setflags(write=False)
    return out


def _shape_text(shape):
    named = ", ".join(s for s in shape if isinstance(s, str))
    return str(shape).replace("'", "") + (f", {named} >= 1" if named else "")


def _checked_fields(obj, names, integer=False, **bounds):
    """Check the fields names of a (frozen) dataclass instance by _number and keep what it gives."""
    for name in names:
        object.__setattr__(obj, name, _number(getattr(obj, name), name, integer, **bounds))


def _schema_version(obj, version):
    """Check that a JSON object's schema_version, where it is present, is version."""
    found = obj.get("schema_version", version)
    # a JSON integer: True and 1.0 compare equal to 1 but are not one
    if type(found) is not int or found != version:
        raise ValueError(f"schema_version must be {version}, got {found!r}")


def _required(obj, key, name):
    """obj[key], or a ValueError naming the key that name lacks."""
    if key not in obj:
        raise ValueError(f"{name} lacks the key '{key}'")
    return obj[key]


def _list(value, name):
    """A JSON list, as it is; errors name the field."""
    if not isinstance(value, list):
        raise ValueError(f"{name} must be a list, got {value!r}")
    return value


def _object(value, name):
    """A JSON object, as it is; errors name the field."""
    if not isinstance(value, dict):
        raise ValueError(f"{name} must be an object, got {value!r}")
    return value


def _known_keys(obj, keys, name):
    """obj, a JSON object with no key beyond keys: a misspelt optional key would take its default."""
    unknown = sorted(set(_object(obj, name)) - set(keys))
    if unknown:
        raise ValueError(f"{name} has unknown keys {', '.join(map(repr, unknown))}")
    return obj
