import json
import math
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import archdam
from archdam.config import (
    _SCALARS,
    ConfigError,
    _schema,
    _validate,
    default_config,
    load_config,
    make_mocss_config,
    make_problem,
)
from archdam import CanyonProfile, DamProblem, LoadCase, MocssConfig, StrengthParams
from archdam.cli import ARCHIVE_COLUMNS
from archdam.objectives import LOWER_BOUNDS, UPPER_BOUNDS

from conftest import TABLE5


# default_config() as it was written out before it was read from the
# dataclasses, and the digest load_config() gives with no file
DEFAULTS = {
    "problem": {
        "gamma_allow": 0.65,
        "moment_share": 0.02,
        "quadrature_order": 32,
        "penalty_fit1": 3.4e5,
        "penalty_fit2": 1.3,
        "lower_bounds": [0.0, 0.5, 3.0, 5.0, 7.0, 9.0, 11.0, 12.0, 104.0, 91.0, 78.0, 65.0,
                         52.0, 39.0, 104.0, 91.0, 78.0, 65.0, 52.0, 39.0],
        "upper_bounds": [0.3, 1.0, 10.0, 14.0, 19.0, 23.0, 26.0, 31.0, 135.0, 118.0, 101.0,
                         85.0, 68.0, 51.0, 135.0, 118.0, 101.0, 85.0, 68.0, 51.0],
    },
    "geometry": {"h": 142.65, "w_crest": 135.0, "w_base": 0.35 * 135.0},
    "strength": {
        "f_c": 30.0,
        "f_t": 1.5,
        "f_cb": 1.2 * 30.0,
        "f_1": 1.45 * 30.0,
        "f_2": 1.725 * 30.0,
        "sigma_h_a": math.sqrt(3.0) * 30.0,
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
        "radius": 1.0,
        "cmcr": 0.98,
        "par": 0.5,
        "par_step0": 0.02,
        "attraction_prob": 0.8,
        "replace_fraction": 0.3,
        "seed": 0,
    },
    "output": {"directory": "."},
}
DEFAULT_DIGEST = "77f41f09768011a702e1e9b15183db7f6e5d2ccd1ab68e266505ac809aa944c2"


def _assert_same_json(got, want, path="$"):
    """got equals want key for key, item for item and type for type, so
    an int default does not turn into a float."""
    assert type(got) is type(want), (path, got, want)
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), path
        for key in want:
            _assert_same_json(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), path
        for k, (g, w) in enumerate(zip(got, want)):
            _assert_same_json(g, w, f"{path}[{k}]")
    else:
        assert got == want, (path, got, want)


def test_defaults_pinned():
    cfg = default_config()
    _assert_same_json(cfg, DEFAULTS)
    _validate(cfg, _schema())
    got, digest = load_config()
    _assert_same_json(got, DEFAULTS)
    assert digest == DEFAULT_DIGEST


def _write(tmp_path, payload, name="cfg.json"):
    p = tmp_path / name
    p.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    return str(p)


def test_defaults_load_without_file():
    cfg, digest = load_config()
    assert cfg == default_config()
    assert len(digest) == 64
    problem = make_problem(cfg)
    assert len(problem.lower) == 20
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
    assert cfg["output"]["directory"] == "."
    path = _write(tmp_path, {"output": {"directory": "runs/exp1"}})
    cfg, _ = load_config(path)
    assert cfg["output"]["directory"] == "runs/exp1"


def test_default_canyon_defined_once():
    canyon = CanyonProfile.default()
    geo = default_config()["geometry"]
    assert (geo["h"], geo["w_crest"], geo["w_base"]) == (canyon.h, canyon.w_crest, canyon.w_base)
    assert DamProblem().canyon == canyon


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
    with pytest.raises(ConfigError, match="^" + re.escape(f"$.{key} invalid: ")):
        make_problem(cfg)


# keywords config._validate implements, plus the annotations it may ignore
SUPPORTED_KEYWORDS = {
    "type", "properties", "additionalProperties", "required", "enum",
    "minimum", "maximum", "exclusiveMinimum", "items",
    "minItems", "maxItems", "minLength",
}
ANNOTATIONS = {"$schema", "title"}


def _subschemas(schema):
    """The schema and every schema nested in it, under any keyword."""
    yield schema
    for keyword, value in schema.items():
        for sub in value.values() if keyword == "properties" else [value]:
            if isinstance(sub, dict):
                yield from _subschemas(sub)


def test_schema_keys_are_the_fields_default_config_reads():
    # a schema key with no field would pass _validate and be dropped by
    # make_problem; a field with no key could not be set
    schema = _schema()["properties"]
    names = {
        "problem": [f.name for f in _SCALARS] + ["lower_bounds", "upper_bounds"],
        "geometry": [f.name for f in fields(CanyonProfile)],
        "strength": [f.name for f in fields(StrengthParams)],
        "mocss": [f.name for f in fields(MocssConfig)],
    }
    for section, want in names.items():
        assert sorted(schema[section]["properties"]) == sorted(want), section
    assert sorted(schema["loads"]["items"]["properties"]) == sorted(f.name
                                                                    for f in fields(LoadCase))


def test_schema_uses_only_supported_keywords():
    for sub in _subschemas(_schema()):
        assert set(sub) <= SUPPORTED_KEYWORDS | ANNOTATIONS, sorted(set(sub) - SUPPORTED_KEYWORDS)
        assert sub.get("additionalProperties", False) is False


_MUTANTS = [0, 1, 2, 4, 5, 6, 8, 9, 10, -1, 2**40, 0.0, 0.5, 1.0, 1.5, 9.0, -0.5,
            True, False, None, "", "x", "gravity", "sloshing", [], {},
            {"kind": "gravity"}, float("nan"), float("inf"), float("-inf")]


def _nodes(value, path=()):
    """Every (path, value) below the root of a parsed JSON document."""
    if isinstance(value, dict):
        children = value.items()
    elif isinstance(value, list) and value:
        # the items share one schema: the first and last stand for the rest
        children = {0: value[0], len(value) - 1: value[-1]}.items()
    else:
        children = ()
    for key, child in children:
        yield path + (key,), child
        yield from _nodes(child, path + (key,))


def _copy_at(doc, path):
    """A deep copy of doc, and the node of the copy at path."""
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in path:
        node = node[key]
    return doc, node


def _mutated_defaults():
    """Default configs with one node replaced or deleted, an unknown key
    added to one object or an item appended to one list. Each comes with
    whether the change is one that _validate is deliberately stricter
    about than JSON Schema: a non-finite number, or an integral float."""
    base = default_config()
    for path, _ in _nodes(base):
        for value in _MUTANTS:
            doc, parent = _copy_at(base, path[:-1])
            parent[path[-1]] = value
            yield doc, isinstance(value, float) and (not math.isfinite(value)
                                                     or value.is_integer())
        doc, parent = _copy_at(base, path[:-1])
        del parent[path[-1]]
        yield doc, False
    for path, node in [((), base), *_nodes(base)]:
        if isinstance(node, (dict, list)):
            doc, target = _copy_at(base, path)
            if isinstance(target, dict):
                target["unknown"] = 1
            else:
                target.append(target[-1])
            yield doc, False


def test_validator_matches_jsonschema():
    jsonschema = pytest.importorskip("jsonschema")
    schema = _schema()
    oracle = jsonschema.Draft202012Validator(schema)
    counts = {"agree accept": 0, "agree reject": 0, "stricter": 0}
    for doc, stricter in _mutated_defaults():
        paths = {e.json_path for e in oracle.iter_errors(doc)}
        try:
            _validate(doc, schema)
        except ConfigError as exc:
            where = re.match(r"config schema violation at (\S+): ", str(exc)).group(1)
            if paths:
                assert where in paths, (doc, str(exc), paths)
                counts["agree reject"] += 1
            else:
                # jsonschema accepts, _validate rejects: only NaN, +-inf or
                # an integral float, and only where the mutation put it
                assert stricter, (doc, str(exc))
                counts["stricter"] += 1
        else:
            assert not paths, (doc, paths)
            counts["agree accept"] += 1
    assert min(counts.values()) > 50, counts


def test_import_and_setup_skip_jsonschema_and_importlib_resources(tmp_path):
    cfg = _write(tmp_path, {"mocss": {"n_cps": 12}, "geometry": {"h": 120.0}})
    code = (
        "import sys\n"
        "import archdam\n"
        f"cfg, _ = archdam.load_config({cfg!r})\n"
        "archdam.make_problem(cfg)\n"
        "print(sorted(m for m in ('jsonschema', 'importlib.resources') if m in sys.modules))\n"
    )
    assert _run_bare(code) == "[]\n"


def test_dam_setup_skips_polynomial_decision_maker_benchmarks_and_cli(tmp_path):
    # a dam is built and evaluated with these six modules alone; the
    # optimizer, the decision maker and the benchmarks load on first use of
    # one of their names or of their submodule
    cfg = _write(tmp_path, {"mocss": {"n_cps": 12}, "geometry": {"h": 120.0}})
    code = (
        "import sys\n"
        "import archdam\n"
        f"cfg, _ = archdam.load_config({cfg!r})\n"
        "problem = archdam.make_problem(cfg)\n"
        "archdam.make_mocss_config(cfg)\n"
        "lo, hi = problem.bounds\n"
        "x = (lo + hi) / 2\n"
        "problem.evaluate_batch(x[None])\n"
        "problem.evaluate(x)\n"
        "print(sorted(m for m in sys.modules if m == 'archdam' or m.startswith('archdam.')))\n"
        "print('numpy.polynomial' in sys.modules)\n"
        "got = (archdam.run_mocss, archdam.pareto_rank, archdam.MocssResult,\n"
        "       archdam.mocss.MocssConfig, archdam.MocssConfig,\n"
        "       archdam.Scenario, archdam.rank_R, archdam.get_benchmark, archdam.mtdm.rank_R)\n"
        "mocss, mtdm, bench = (sys.modules[f'archdam.{m}'] for m in ('mocss', 'mtdm', 'benchmarks'))\n"
        "want = (mocss.run_mocss, mocss.pareto_rank, mocss.MocssResult,\n"
        "        archdam.config.MocssConfig, archdam.config.MocssConfig,\n"
        "        mtdm.Scenario, mtdm.rank_R, bench.get_benchmark, mtdm.rank_R)\n"
        "print([a is b for a, b in zip(got, want, strict=True)])\n"
    )
    assert _run_bare(code) == (
        "['archdam', 'archdam.config', 'archdam.geometry', 'archdam.objectives', "
        "'archdam.stress_model', 'archdam.willam_warnke']\n"
        "False\n"
        f"{[True] * 9}\n")


def test_dam_run_within_capacity_never_loads_heapq(tmp_path):
    # the prune imports heapq only when it deletes, and the dam's CM here
    # stays within capacity; the run's hypervolume log needs no benchmarks
    cfg = _write(tmp_path, {"mocss": {"n_cps": 12, "iterations": 5, "archive_capacity": 100}})
    code = (
        "import sys\n"
        "import archdam\n"
        f"cfg, _ = archdam.load_config({cfg!r})\n"
        "res = archdam.run_mocss(archdam.make_problem(cfg), archdam.make_mocss_config(cfg))\n"
        "print(max(e['archive_size'] for e in res.log) < 100,\n"
        "      'heapq' in sys.modules, 'archdam.benchmarks' in sys.modules)\n"
    )
    assert _run_bare(code) == "True False False\n"


def test_cli_import_skips_decision_maker_and_logging(tmp_path):
    # the optimizer loads for `optimize` and `benchmark` alone, the decision
    # maker for `decide` alone, and nothing logs
    code = ("import sys, archdam.cli\n"
            "print(sorted(m for m in ('archdam.mocss', 'archdam.mtdm', 'logging') "
            "if m in sys.modules))\n")
    assert _run_bare(code) == "[]\n"
    cfg = _write(tmp_path, {"mocss": {"n_cps": 12, "iterations": 3}})
    scenarios = _write(tmp_path, [{"name": "even", "weights": [0.5, 0.5]}], "scenarios.json")
    archive = tmp_path / "archive.csv"
    design = ",".join(map(str, TABLE5))
    archive.write_text(f"{','.join(ARCHIVE_COLUMNS)}\n{design},317086.7,-0.036,0,1\n"
                       f"{design},320000,-0.04,0,1\n")
    out = str(tmp_path / "out")
    common = ["--config", cfg, "--out", out]
    runs = [
        [["evaluate", "--design", design, "--config", cfg],
         ["evaluate-geometry", "--design", design, *common],
         ["stress-field", "--design", design, *common],
         ["ww-surface", "--steps", "3", *common],
         ["decide", "--archive", str(archive), "--scenarios", scenarios, "--out", out],
         ["optimize", *common]],
        # a fresh interpreter, as `optimize` above has loaded the optimizer
        [["benchmark", "--problem", "zdt1", *common]],
    ]
    for argvs in runs:
        code = ("import contextlib, io, sys, archdam.cli\n"
                f"for argv in {argvs!r}:\n"
                "    with contextlib.redirect_stdout(io.StringIO()):\n"
                "        code = archdam.cli.main(argv)\n"
                "    print(argv[0], code, 'archdam.mocss' in sys.modules)\n")
        assert _run_bare(code) == "".join(
            f"{argv[0]} 0 {argv[0] in ('optimize', 'benchmark')}\n" for argv in argvs)


def test_cli_loads_benchmarks_for_benchmark_command_alone():
    # --problem's choices come from the package, so a refused name gets
    # argparse's usage and exit 2 without loading the benchmark problems
    code = ("import contextlib, io, os, sys\n"
            "os.environ['COLUMNS'] = '80'\n"
            "import archdam.cli\n"
            "err = io.StringIO()\n"
            "with contextlib.redirect_stderr(err):\n"
            "    code = archdam.cli.main(['benchmark', '--problem', 'nope'])\n"
            "print(code, 'archdam.benchmarks' in sys.modules)\n"
            "print(err.getvalue(), end='')\n")
    assert _run_bare(code) == (
        "2 False\n"
        "usage: archdam benchmark [-h] [--config CONFIG] [--out OUT] [--seed SEED]\n"
        "                         --problem {sch,zdt1,zdt2}\n"
        "archdam benchmark: error: argument --problem: invalid choice: 'nope' "
        "(choose from 'sch', 'zdt1', 'zdt2')\n")


def _run_bare(code):
    """The standard output of code run by a fresh interpreter started with
    -S, which skips site start-up, whose .pth hooks may import modules
    themselves; the path reaches archdam and numpy only."""
    path = os.pathsep.join([str(Path(archdam.__file__).parents[1]),
                            str(Path(np.__file__).parents[1])])
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                          text=True, timeout=60, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    return proc.stdout
