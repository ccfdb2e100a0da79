"""data/config.schema.json, the one home of the ranges a value may take.

load_config checks a configuration file against it, and each record its
own fields with check(), so the library and the CLI refuse a value in the
same words. _validate implements exactly the keywords that file uses,
and is stricter than JSON Schema in two ways: every number must be
finite, and an integer must be written as one (4, not 4.0).
"""

from __future__ import annotations

import json
import math
from functools import cache
from pathlib import Path

__all__ = ["ConfigError", "check"]


class ConfigError(ValueError):
    """Invalid configuration; the message carries the offending key path."""


@cache
def _schema() -> dict:
    """The parsed schema, read once per process; callers must not change it."""
    return json.loads((Path(__file__).parent / "data" / "config.schema.json").read_text())


_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
}

# numeric keyword, test that the value breaks it, message
_BOUNDS = (
    ("minimum", lambda v, b: v < b, "is less than the minimum of"),
    ("exclusiveMinimum", lambda v, b: v <= b, "is less than or equal to the minimum of"),
    ("maximum", lambda v, b: v > b, "is greater than the maximum of"),
)


def _validate(value, schema: dict, path: str = "$") -> None:
    """Check a parsed JSON value against the schema; raise ConfigError
    naming the key path of the first violation. Implements the keywords
    data/config.schema.json uses, each applied to the JSON type it
    constrains, as in JSON Schema draft 2020-12."""
    def fail(message):
        raise ConfigError(f"config schema violation at {path}: {message}")

    if isinstance(value, float) and not math.isfinite(value):
        fail(f"{value!r} is not a finite number")
    kind = schema.get("type")
    if kind is not None and not _TYPES[kind](value):
        fail(f"{value!r} is not of type {kind!r}")
    if "enum" in schema and value not in schema["enum"]:
        fail(f"{value!r} is not one of {schema['enum']!r}")
    if _TYPES["number"](value):
        for keyword, broken, text in _BOUNDS:
            if keyword in schema and broken(value, schema[keyword]):
                fail(f"{value!r} {text} {schema[keyword]!r}")
    elif isinstance(value, str):
        if len(value) < schema.get("minLength", 0):
            fail(f"{value!r} is too short")
    elif isinstance(value, list):
        if len(value) < schema.get("minItems", 0):
            fail(f"{value!r} is too short")
        if len(value) > schema.get("maxItems", len(value)):
            fail(f"{value!r} is too long")
        for k, item in enumerate(value):
            _validate(item, schema.get("items", {}), f"{path}[{k}]")
    elif isinstance(value, dict):
        known = schema.get("properties", {})
        for key in schema.get("required", ()):
            if key not in value:
                fail(f"{key!r} is a required property")
        extra = [key for key in value if key not in known]
        if extra and schema.get("additionalProperties") is False:
            fail(f"additional properties are not allowed: {', '.join(map(repr, extra))}")
        for key, sub in known.items():
            if key in value:
                _validate(value[key], sub, f"{path}.{key}")


def check(fields, section: str):
    """Check fields, a named tuple or a dict name -> value, against their
    section of the schema, a top-level key, and return them; "loads" names
    one item of that list, whose path reads $.loads[*]."""
    schema = _schema()["properties"][section]
    if section == "loads":
        schema, section = schema["items"], "loads[*]"
    _validate(fields._asdict() if isinstance(fields, tuple) else fields, schema, f"$.{section}")
    return fields
