"""read_json, the one reader of every JSON input file, and the field checks of the parsers it calls.

An unreadable file raises OSError (exit 3); one that is not UTF-8, not JSON
or not what its parser takes raises ValueError (exit 2). Both name the file.
"""

import json


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


def _number(value, name, integer=False):
    """A JSON number, as an int for an integer field; errors name the field."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    if integer and not (isinstance(value, int) or value.is_integer()):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value) if integer else value


def _numbers(value, name, count, integer=False):
    """A JSON list of count numbers, as a tuple."""
    if not isinstance(value, list) or len(value) != count:
        raise ValueError(f"{name} must be a list of {count} numbers, got {value!r}")
    return tuple(_number(v, name, integer) for v in value)


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


def _flags(value, name, count):
    """A JSON list of count true and false values, as it is."""
    if not (isinstance(value, list) and len(value) == count and all(isinstance(v, bool) for v in value)):
        raise ValueError(f"{name} must be a list of true or false of length {count}, got {value!r}")
    return value


def _object(value, name):
    """A JSON object, as it is; errors name the field."""
    if not isinstance(value, dict):
        raise ValueError(f"{name} must be an object, got {value!r}")
    return value


def _known_keys(obj, keys, name):
    """Check that obj is a JSON object with no key beyond keys: a misspelt optional key would take its default."""
    unknown = sorted(set(_object(obj, name)) - set(keys))
    if unknown:
        raise ValueError(f"{name} has unknown keys {', '.join(map(repr, unknown))}")
