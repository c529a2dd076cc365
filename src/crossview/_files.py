"""read_json, the one reader of every JSON input file, and the field checks of the parsers it calls and of arguments.

An unreadable file raises OSError (exit 3); one that is not UTF-8, not JSON
or not what its parser takes raises ValueError (exit 2). Both name the file.
"""

import json
import math
import sys

from .geometry import _NUMBERS


def read_json(path, what, parse):
    """parse(value) of the JSON file at path; errors name the file as what (its kind) and path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse(json.load(fh))
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
