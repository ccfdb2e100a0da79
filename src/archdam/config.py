"""Run configuration: JSON loading, schema validation, object assembly.

A configuration file is a JSON object with optional sections problem,
geometry, strength, loads, mocss, output. Every key is optional and
falls back to the library defaults; unknown keys and duplicate keys are
rejected. The schema lives in data/config.schema.json.
"""

from __future__ import annotations

import hashlib
import json
from importlib import resources

import jsonschema
import numpy as np

from .geometry import CanyonProfile, ControlLevels, LOWER_BOUNDS, UPPER_BOUNDS
from .mocss import MocssConfig
from .objectives import DamProblem
from .stress_model import LoadCase
from .willam_warnke import DegenerateStrengthError, StrengthParams

__all__ = ["ConfigError", "load_config", "default_config", "make_problem",
           "make_mocss_config", "output_directory"]


class ConfigError(ValueError):
    """Invalid configuration; the message carries the offending key path."""


def _schema() -> dict:
    text = resources.files("archdam.data").joinpath("config.schema.json").read_text()
    return json.loads(text)


def default_config() -> dict:
    """Complete configuration with every key at its library default."""
    canyon = CanyonProfile.default()
    return {
        "problem": {
            "gamma_allow": 0.65,
            "moment_share": 0.02,
            "quadrature_order": 32,
            "n_depths": 6,
            "n_arc": 9,
            "penalty_fit1": 3.4e5,
            "penalty_fit2": 1.3,
            "lower_bounds": [float(v) for v in LOWER_BOUNDS],
            "upper_bounds": [float(v) for v in UPPER_BOUNDS],
        },
        "geometry": {"h": canyon.h, "w_crest": canyon.w_crest, "w_base": canyon.w_base},
        "strength": {
            "f_c": 30.0,
            "f_t": 1.5,
            "f_cb": 1.2 * 30.0,
            "f_1": 1.45 * 30.0,
            "f_2": 1.725 * 30.0,
            "sigma_h_a": float(np.sqrt(3.0) * 30.0),
            "s_f": 1.0,
        },
        "loads": [
            {"kind": "hydrostatic", "water_level": 0.0,
             "seismic_coefficient": 0.1, "water_density": 1000.0,
             "concrete_density": 2400.0},
            {"kind": "pseudo_seismic", "water_level": 0.0,
             "seismic_coefficient": 0.1, "water_density": 1000.0,
             "concrete_density": 2400.0},
        ],
        "mocss": {
            "n_cps": 100,
            "iterations": 200,
            "archive_capacity": 100,
            "ka": 2.0,
            "kv": 2.0,
            "schedule": True,
            "radius": 1.0,
            "alpha": 1.0,
            "cmcr": 0.98,
            "par": 0.5,
            "par_step0": 0.02,
            "par_step_min": 1e-4,
            "attraction_prob": 0.8,
            "replace_fraction": 0.3,
            "infeasible_jitter": 0.1,
            "seed": 0,
        },
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
            f"problem.lower_bounds[{i}] = {lo[i]} below the canonical floor "
            f"{LOWER_BOUNDS[i]}"
        )
    if np.any(hi > UPPER_BOUNDS + 1e-12):
        i = int(np.argmax(hi > UPPER_BOUNDS + 1e-12))
        raise ConfigError(
            f"problem.upper_bounds[{i}] = {hi[i]} above the canonical ceiling "
            f"{UPPER_BOUNDS[i]}"
        )
    if np.any(lo >= hi):
        i = int(np.argmax(lo >= hi))
        raise ConfigError(f"problem bounds empty at variable {i}: "
                          f"lower {lo[i]} >= upper {hi[i]}")


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
    except ConfigError:
        raise
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"config file {path!r} is not valid JSON: {exc}") from exc

    try:
        jsonschema.validate(user, _schema())
    except jsonschema.ValidationError as exc:
        raise ConfigError(f"config schema violation at {exc.json_path}: "
                          f"{exc.message}") from exc

    cfg = _merge(default_config(), user)
    _check_bounds(cfg["problem"])
    if cfg["geometry"]["w_base"] > cfg["geometry"]["w_crest"]:
        raise ConfigError("geometry.w_base exceeds geometry.w_crest")
    return cfg, digest


def _built(key: str, make, **kwargs):
    """make(**kwargs), with a rejection of the values re-raised as a
    ConfigError that names the config key."""
    try:
        return make(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{key} invalid: {exc}") from exc


def make_problem(cfg: dict) -> DamProblem:
    geo = cfg["geometry"]
    levels = _built("geometry", ControlLevels.evenly_spaced, h=geo["h"])
    canyon = _built("geometry", CanyonProfile, **geo)
    strength = _built("strength", StrengthParams, **cfg["strength"])
    loads = tuple(_built(f"loads[{k}]", LoadCase, **item)
                  for k, item in enumerate(cfg["loads"]))
    prob = cfg["problem"]
    try:
        return DamProblem(
            levels=levels,
            canyon=canyon,
            strength=strength,
            load_cases=loads,
            gamma_allow=prob["gamma_allow"],
            quadrature_order=prob["quadrature_order"],
            n_depths=prob["n_depths"],
            n_arc=prob["n_arc"],
            moment_share=prob["moment_share"],
            penalty_fit1=prob["penalty_fit1"],
            penalty_fit2=prob["penalty_fit2"],
            lower=np.asarray(prob["lower_bounds"], dtype=float),
            upper=np.asarray(prob["upper_bounds"], dtype=float),
        )
    except DegenerateStrengthError as exc:  # raised by the calibration
        raise ConfigError(f"strength invalid: {exc}") from exc


def make_mocss_config(cfg: dict, seed: int | None = None) -> MocssConfig:
    params = dict(cfg["mocss"])
    if seed is not None:
        params["seed"] = seed
    return _built("mocss configuration", MocssConfig, **params)


def output_directory(cfg: dict) -> str:
    return cfg["output"]["directory"]
