import json
import re

import numpy as np
import pytest

from archdam.config import (
    ConfigError,
    default_config,
    load_config,
    make_mocss_config,
    make_problem,
    output_directory,
)
from archdam import CanyonProfile, DamGeometry, DamProblem, DesignVector
from archdam.objectives import LOWER_BOUNDS, UPPER_BOUNDS


def _write(tmp_path, payload, name="cfg.json"):
    p = tmp_path / name
    p.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    return str(p)


def test_defaults_load_without_file():
    cfg, digest = load_config()
    assert cfg == default_config()
    assert len(digest) == 64
    problem = make_problem(cfg)
    assert problem.dimension == 20
    assert np.array_equal(problem.lower, LOWER_BOUNDS)
    mc = make_mocss_config(cfg)
    assert mc.n_cps == 100 and mc.iterations == 200 and mc.seed == 0


def test_default_digest_is_stable():
    _, a = load_config()
    _, b = load_config()
    assert a == b


def test_partial_file_merges_into_defaults(tmp_path):
    path = _write(tmp_path, {"mocss": {"n_cps": 12, "seed": 9},
                             "problem": {"moment_share": 0.03}})
    cfg, _ = load_config(path)
    assert cfg["mocss"]["n_cps"] == 12
    assert cfg["mocss"]["seed"] == 9
    assert cfg["mocss"]["iterations"] == default_config()["mocss"]["iterations"]
    assert cfg["problem"]["moment_share"] == 0.03
    assert cfg["geometry"] == default_config()["geometry"]


def test_seed_override_wins():
    cfg, _ = load_config()
    assert make_mocss_config(cfg, seed=123).seed == 123


def test_loads_section_replaces_wholesale(tmp_path):
    path = _write(tmp_path, {"loads": [{"kind": "gravity"}]})
    cfg, _ = load_config(path)
    assert len(cfg["loads"]) == 1
    assert cfg["loads"][0]["kind"] == "gravity"
    # unspecified per-case fields are completed from the defaults
    assert cfg["loads"][0]["water_density"] == 1000.0
    problem = make_problem(cfg)
    assert len(problem.load_cases) == 1
    assert problem.load_cases[0].kind == "gravity"


def test_unknown_key_rejected(tmp_path):
    path = _write(tmp_path, {"mocss": {"swarm_size": 40}})
    with pytest.raises(ConfigError):
        load_config(path)
    path = _write(tmp_path, {"mocssx": {}}, name="b.json")
    with pytest.raises(ConfigError):
        load_config(path)


def test_duplicate_key_rejected(tmp_path):
    path = _write(tmp_path, '{"mocss": {"seed": 1, "seed": 2}}')
    with pytest.raises(ConfigError, match="duplicate"):
        load_config(path)


def test_malformed_json_rejected(tmp_path):
    path = _write(tmp_path, '{"mocss": ')
    with pytest.raises(ConfigError):
        load_config(path)
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "missing.json"))


def test_bounds_must_stay_inside_envelope(tmp_path):
    lo = LOWER_BOUNDS.tolist()
    hi = UPPER_BOUNDS.tolist()
    lo[0] = -0.1
    path = _write(tmp_path, {"problem": {"lower_bounds": lo, "upper_bounds": hi}})
    with pytest.raises(ConfigError):
        load_config(path)
    lo[0] = 0.2
    hi[0] = 0.1  # crossed: lower above upper
    path = _write(tmp_path, {"problem": {"lower_bounds": lo, "upper_bounds": hi}},
                  name="crossed.json")
    with pytest.raises(ConfigError):
        load_config(path)


def test_narrowed_bounds_accepted(tmp_path):
    lo = LOWER_BOUNDS.tolist()
    hi = UPPER_BOUNDS.tolist()
    lo[0], hi[0] = 0.05, 0.25
    path = _write(tmp_path, {"problem": {"lower_bounds": lo, "upper_bounds": hi}})
    cfg, _ = load_config(path)
    problem = make_problem(cfg)
    assert problem.lower[0] == 0.05 and problem.upper[0] == 0.25


def test_digest_tracks_file_bytes(tmp_path):
    a = _write(tmp_path, '{"mocss": {"seed": 1}}', name="a.json")
    b = _write(tmp_path, '{"mocss":  {"seed": 1}}', name="b.json")  # extra space
    c = _write(tmp_path, '{"mocss": {"seed": 1}}', name="c.json")
    da = load_config(a)[1]
    db = load_config(b)[1]
    dc = load_config(c)[1]
    assert da != db  # byte-level change, even though semantically equal
    assert da == dc  # identical bytes, identical digest


def test_geometry_and_strength_flow_through(tmp_path):
    path = _write(tmp_path, {
        "geometry": {"w_crest": 120.0, "w_base": 45.0},
        "strength": {"f_c": 35.0, "f_t": 2.0},
    })
    cfg, _ = load_config(path)
    problem = make_problem(cfg)
    assert problem.canyon.w_crest == 120.0
    assert problem.strength.f_c == 35.0 and problem.strength.f_t == 2.0


def test_output_directory(tmp_path):
    cfg, _ = load_config()
    assert output_directory(cfg) == cfg["output"]["directory"]
    path = _write(tmp_path, {"output": {"directory": "runs/exp1"}})
    cfg, _ = load_config(path)
    assert output_directory(cfg) == "runs/exp1"


def test_default_canyon_defined_once():
    canyon = CanyonProfile.default()
    geo = default_config()["geometry"]
    assert (geo["h"], geo["w_crest"], geo["w_base"]) == (canyon.h, canyon.w_crest, canyon.w_base)
    assert DamProblem().canyon == canyon
    assert DamGeometry(DesignVector.from_array(LOWER_BOUNDS)).canyon == canyon


@pytest.mark.parametrize("section, value, key", [
    ("loads", [{"kind": "hydrostatic"}, {"kind": "sloshing"}], "loads[1]"),
    ("geometry", {"h": 100.0, "w_crest": 50.0, "w_base": 60.0}, "geometry"),
    ("geometry", {"h": -1.0, "w_crest": 50.0, "w_base": 40.0}, "geometry"),
    ("strength", {"f_c": 30.0, "f_t": -1.0}, "strength"),
])
def test_make_problem_names_the_rejected_section(section, value, key):
    # a dict that skipped load_config's schema and checks
    cfg = default_config()
    cfg[section] = value
    with pytest.raises(ConfigError, match="^" + re.escape(f"{key} invalid: ")):
        make_problem(cfg)
