"""Run configuration: JSON loading, schema validation, object assembly.

MocssConfig, the optimizer's settings, is defined here rather than in
mocss, so that building and evaluating a dam never loads the optimizer.

A configuration file is a JSON object with optional sections problem,
geometry, strength, loads, mocss, output. Every key is optional and
falls back to the library defaults; unknown keys and duplicate keys are
rejected. The schema lives in data/config.schema.json; schema._validate
checks a file against it, and each record checks its own section when
it is built.
"""

from __future__ import annotations

import hashlib
import json
from collections import namedtuple

import numpy as np

from .geometry import CanyonProfile, LOWER_BOUNDS, UPPER_BOUNDS
from .objectives import DamProblem
from .schema import ConfigError, _schema, _validate, check
from .stress_model import LoadCase
from .willam_warnke import DegenerateStrengthError, StrengthParams

__all__ = ["ConfigError", "MocssConfig", "load_config", "default_config", "make_problem",
           "make_mocss_config"]


class MocssConfig(namedtuple("MocssConfig", "n_cps iterations archive_capacity ka kv radius cmcr "
                                            "par par_step0 attraction_prob replace_fraction seed")):
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
    The constructor checks the settings against the schema's mocss
    section; _make and _replace do not, so build a new configuration with
    the constructor.
    """

    __slots__ = ()

    def __new__(cls, n_cps=100, iterations=200, archive_capacity=100, ka=2.0, kv=2.0,
                radius=1.0, cmcr=0.98, par=0.5, par_step0=0.02, attraction_prob=0.8,
                replace_fraction=0.3, seed=0):
        return check(super().__new__(cls, n_cps, iterations, archive_capacity, ka, kv, radius,
                                     cmcr, par, par_step0, attraction_prob, replace_fraction,
                                     seed), "mocss")


# the scalar problem.* keys and their defaults: the int or float keyword
# defaults of DamProblem
_SCALARS = {name: value for name, value in DamProblem.__init__.__kwdefaults__.items()
            if isinstance(value, (int, float))}


def default_config() -> dict:
    """Complete configuration with every key at its library default, read
    from the keyword defaults of DamProblem and from default records."""
    problem = dict(_SCALARS)
    problem["lower_bounds"] = LOWER_BOUNDS.tolist()
    problem["upper_bounds"] = UPPER_BOUNDS.tolist()
    return {
        "problem": problem,
        "geometry": CanyonProfile.default()._asdict(),
        "strength": StrengthParams()._asdict(),
        "loads": [lc._asdict() for lc in DamProblem.load_cases],
        "mocss": MocssConfig()._asdict(),
        "output": {"directory": "."},
    }


def _reject_duplicates(pairs):
    out = {}
    for key, value in pairs:
        if key in out:
            raise ValueError(f"duplicate key {key!r}")
        out[key] = value
    return out


def read_file(path: str, what: str, text: bool = False, parse_int=None):
    """(content, SHA-256 of the bytes) of a file the user names, read once:
    the bytes decoded as UTF-8 and, unless text is set, parsed as JSON with
    repeated keys refused. A failure is a ConfigError naming `what path`."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path!r}: {exc}") from exc
    try:
        content = raw.decode("utf-8")
        if not text:
            content = json.loads(content, object_pairs_hook=_reject_duplicates,
                                 parse_int=parse_int)
    except (ValueError, RecursionError) as exc:  # a decode or parse error, a repeated key
        raise ConfigError(f"{what} {path!r} is not valid {'UTF-8' if text else 'JSON'}: "
                          f"{exc}") from exc
    return content, hashlib.sha256(raw).hexdigest()


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

    user, digest = read_file(path, "config file")
    _validate(user, _schema())

    cfg = _merge(default_config(), user)
    _check_bounds(cfg["problem"])
    CanyonProfile(**cfg["geometry"])  # refuses a valley that widens with depth
    return cfg, digest


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
    prob = cfg["problem"]
    try:
        return DamProblem(
            canyon=CanyonProfile(**cfg["geometry"]),
            strength=StrengthParams(**cfg["strength"]),
            load_cases=tuple(LoadCase(**item) for item in cfg["loads"]),
            **{name: prob[name] for name in _SCALARS},
            lower=np.asarray(prob["lower_bounds"], dtype=float),
            upper=np.asarray(prob["upper_bounds"], dtype=float),
        )
    except DegenerateStrengthError as exc:  # raised by the calibration
        raise ConfigError(f"$.strength invalid: {exc}") from exc


def make_mocss_config(cfg: dict, seed: int | None = None) -> MocssConfig:
    params = dict(cfg["mocss"])
    if seed is not None:
        params["seed"] = seed
    return MocssConfig(**params)
