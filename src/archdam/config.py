"""Run configuration: JSON loading, schema validation, object assembly.

MocssConfig, the optimizer's settings, is defined here rather than in
mocss, so that building and evaluating a dam never loads the optimizer.

A configuration file is a JSON object with optional sections problem,
geometry, strength, loads, mocss, output. Every key is optional and
falls back to the library defaults; unknown keys and duplicate keys are
rejected. The schema lives in data/config.schema.json and is enforced by
_validate, which implements exactly the keywords that file uses. It is
stricter than JSON Schema in two ways: every number must be finite, and
an integer must be written as one (4, not 4.0).
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .geometry import CanyonProfile, LOWER_BOUNDS, UPPER_BOUNDS
from .objectives import DamProblem
from .stress_model import LoadCase
from .willam_warnke import DegenerateStrengthError, StrengthParams

__all__ = ["ConfigError", "MocssConfig", "load_config", "default_config", "make_problem",
           "make_mocss_config"]


class ConfigError(ValueError):
    """Invalid configuration; the message carries the offending key path."""


def _schema() -> dict:
    return json.loads((Path(__file__).parent / "data" / "config.schema.json").read_text())


_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
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


@dataclass
class MocssConfig:
    """Settings of one MoCSS run.

    n_cps charged particles (CPs) move for `iterations` steps; the charged
    memory (CM) keeps at most archive_capacity non-dominated designs.
    Coefficients, positions in normalized [0, 1] coordinates:
      ka, kv: acceleration and velocity coefficients of the move
        X + rand * ka * force + rand * kv * V; over the run ka rises
        from ka/2 to ka and kv falls from kv/2 to 0.
      radius: the interaction radius a. A CP of charge q at distance r
        pulls with q r / a^3 inside it and q / r^2 outside it.
      cmcr: probability that an out-of-bounds variable is copied from a
        random CM member rather than redrawn uniformly.
      par: probability that a copied variable then steps toward a
        random rank-1 CP.
      par_step0: that step's bandwidth falls linearly from par_step0 +
        mocss.PAR_STEP_MIN to mocss.PAR_STEP_MIN; it also jitters the
        reseeded CPs once a feasible design is known
        (mocss.INFEASIBLE_JITTER before).
      attraction_prob: probability that a rank-gated pull stays an
        attraction; otherwise it becomes a repulsion.
      replace_fraction: share of the worst-ranked CPs reseeded near CM
        members each iteration, doubled while no feasible design is known.
      seed: seed of the run's one random generator.
    """

    n_cps: int = 100
    iterations: int = 200
    archive_capacity: int = 100
    ka: float = 2.0
    kv: float = 2.0
    radius: float = 1.0
    cmcr: float = 0.98
    par: float = 0.5
    par_step0: float = 0.02
    attraction_prob: float = 0.8
    replace_fraction: float = 0.3
    seed: int = 0

    def __post_init__(self):
        if self.n_cps < 2:
            raise ValueError("need at least two charged particles")
        if self.iterations < 0:
            raise ValueError("iterations must be non-negative")
        if self.archive_capacity < 1:
            raise ValueError("archive capacity must be positive")
        if not 0.0 <= self.cmcr <= 1.0 or not 0.0 <= self.par <= 1.0:
            raise ValueError("cmcr and par must lie in [0, 1]")
        if self.radius <= 0:
            raise ValueError("interaction radius must be positive")
        if not 0.0 <= self.replace_fraction <= 1.0:
            raise ValueError("replace_fraction must lie in [0, 1]")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


# the scalar problem.* keys: the DamProblem fields with an int or float default
_SCALARS = [f for f in fields(DamProblem) if isinstance(f.default, (int, float))]


def default_config() -> dict:
    """Complete configuration with every key at its library default, read
    from the dataclasses that hold the defaults."""
    problem = {f.name: f.default for f in _SCALARS}
    problem["lower_bounds"] = LOWER_BOUNDS.tolist()
    problem["upper_bounds"] = UPPER_BOUNDS.tolist()
    return {
        "problem": problem,
        "geometry": asdict(CanyonProfile.default()),
        "strength": asdict(StrengthParams()),
        "loads": [asdict(lc) for lc in DamProblem.load_cases],
        "mocss": asdict(MocssConfig()),
        "output": {"directory": "."},
    }


def _reject_duplicates(pairs):
    seen = set()
    out = {}
    for key, value in pairs:
        if key in seen:
            raise ConfigError(f"duplicate key {key!r}")
        seen.add(key)
        out[key] = value
    return out


def _merge(base: dict, user: dict) -> dict:
    merged = {}
    for section, defaults in base.items():
        if section == "loads":
            # the loads list replaces wholesale; items get per-field defaults
            if section in user:
                merged[section] = [
                    {**base["loads"][0], **item, "kind": item["kind"]}
                    for item in user[section]
                ]
            else:
                merged[section] = [dict(item) for item in defaults]
        elif isinstance(defaults, dict):
            merged[section] = {**defaults, **user.get(section, {})}
        else:
            merged[section] = user.get(section, defaults)
    return merged


def _check_bounds(problem: dict) -> None:
    lo = np.asarray(problem["lower_bounds"], dtype=float)
    hi = np.asarray(problem["upper_bounds"], dtype=float)
    if np.any(lo < LOWER_BOUNDS - 1e-12):
        i = int(np.argmax(lo < LOWER_BOUNDS - 1e-12))
        raise ConfigError(
            f"$.problem.lower_bounds[{i}] = {lo[i]} below the canonical floor "
            f"{LOWER_BOUNDS[i]}"
        )
    if np.any(hi > UPPER_BOUNDS + 1e-12):
        i = int(np.argmax(hi > UPPER_BOUNDS + 1e-12))
        raise ConfigError(
            f"$.problem.upper_bounds[{i}] = {hi[i]} above the canonical ceiling "
            f"{UPPER_BOUNDS[i]}"
        )
    if np.any(lo >= hi):
        i = int(np.argmax(lo >= hi))
        raise ConfigError(f"$.problem.lower_bounds[{i}] = {lo[i]} is not below "
                          f"$.problem.upper_bounds[{i}] = {hi[i]}")


def load_config(path: str | None = None):
    """Read, validate, and complete a configuration.

    Returns (config dict, digest). The digest is the SHA-256 of the raw
    file bytes, so any byte change shows up in run manifests; with no
    file it hashes the canonical serialization of the defaults.
    """
    if path is None:
        cfg = default_config()
        canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
        return cfg, hashlib.sha256(canon.encode()).hexdigest()

    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    digest = hashlib.sha256(raw).hexdigest()

    try:
        user = json.loads(raw.decode("utf-8"), object_pairs_hook=_reject_duplicates)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"config file {path!r} is not valid JSON: {exc}") from exc

    _validate(user, _schema())

    cfg = _merge(default_config(), user)
    _check_bounds(cfg["problem"])
    if cfg["geometry"]["w_base"] > cfg["geometry"]["w_crest"]:
        raise ConfigError("$.geometry.w_base exceeds $.geometry.w_crest")
    return cfg, digest


def _built(key: str, make, **kwargs):
    """make(**kwargs), with a rejection of the values re-raised as a
    ConfigError that names the config key."""
    try:
        return make(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"$.{key} invalid: {exc}") from exc


def make_problem(cfg: dict) -> DamProblem:
    """The DamProblem a loaded config describes. Its design-independent
    terms are built with numpy's floating-point errors raised: arithmetic
    that fails on values the schema accepts is a ConfigError naming the
    section that fails when built alone on the defaults, or else the
    sections that differ from the defaults."""
    try:
        return _assemble(cfg)
    except FloatingPointError as exc:
        sections = ("geometry", "strength", "loads", "problem")
        for section in sections:
            try:
                _assemble({**default_config(), section: cfg[section]})
            except FloatingPointError:
                raise ConfigError(f"$.{section} invalid: {exc}") from exc
            except ValueError:
                pass
        changed = [f"$.{s}" for s in sections if cfg[s] != default_config()[s]]
        raise ConfigError(f"{', '.join(changed)} invalid together: {exc}") from exc


@np.errstate(all="raise")
def _assemble(cfg: dict) -> DamProblem:
    canyon = _built("geometry", CanyonProfile, **cfg["geometry"])
    strength = _built("strength", StrengthParams, **cfg["strength"])
    loads = tuple(_built(f"loads[{k}]", LoadCase, **item)
                  for k, item in enumerate(cfg["loads"]))
    prob = cfg["problem"]
    try:
        return DamProblem(
            canyon=canyon,
            strength=strength,
            load_cases=loads,
            **{f.name: prob[f.name] for f in _SCALARS},
            lower=np.asarray(prob["lower_bounds"], dtype=float),
            upper=np.asarray(prob["upper_bounds"], dtype=float),
        )
    except DegenerateStrengthError as exc:  # raised by the calibration
        raise ConfigError(f"$.strength invalid: {exc}") from exc


def make_mocss_config(cfg: dict, seed: int | None = None) -> MocssConfig:
    params = dict(cfg["mocss"])
    if seed is not None:
        params["seed"] = seed
    return _built("mocss", MocssConfig, **params)
