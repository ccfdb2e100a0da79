import hashlib
import json
import os
import re
import shutil
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import archdam
from archdam import DamProblem
from archdam.benchmarks import hypervolume2d
from archdam.cli import _f6, _g6, main
from archdam.schema import _schema
from archdam.geometry import (DEFAULT_HEIGHT, LOWER_BOUNDS, UPPER_BOUNDS, CanyonProfile,
                              level_depths)
from archdam.stress_model import LoadCase, MOMENT_SHARE
from archdam.willam_warnke import StrengthParams, criterion_values, solve_coefficients

from _oracles import LagrangeInterpolant, sample_points, surrogate_states
from conftest import TABLE5

TABLE5_ARG = ",".join(f"{v}" for v in TABLE5)


def _tiny_config(tmp_path, n_cps=16, iterations=10, name="cfg.json", **mocss):
    payload = {"mocss": {"n_cps": n_cps, "iterations": iterations,
                         "archive_capacity": 50, **mocss}}
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


def _assert_manifest_lists_the_other_files(out):
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["outputs"] == sorted(p.name for p in out.iterdir()
                                         if p.name != "manifest.json")


def _assert_finite_artifacts(out):
    """Every value in the CSV and JSON files of a run directory is finite."""
    for p in out.iterdir():
        text = p.read_text()
        if p.suffix == ".csv":  # a manifest line and a header, then numbers
            rows = [line.split(",") for line in text.splitlines()[2:]]
            assert np.isfinite(np.array(rows, dtype=float)).all(), p.name
        else:
            for doc in text.splitlines() if p.suffix == ".jsonl" else [text]:
                json.loads(doc, parse_constant=lambda c: pytest.fail(f"{p.name}: {c}"))


def test_usage_and_help_exit_codes(capsys):
    assert main([]) == 2
    assert main(["frobnicate"]) == 2
    assert main(["--help"]) == 0
    assert main(["optimize", "--help"]) == 0
    capsys.readouterr()


def test_evaluate_json_contract(capsys):
    assert main(["evaluate", "--design", TABLE5_ARG]) == 0
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert list(doc) == ["fit1", "fit2", "violation", "feasible", "diagnostics"]
    assert doc["feasible"] is True
    assert doc["fit1"] == pytest.approx(317086.689073, rel=1e-6)
    assert doc["fit2"] == pytest.approx(-0.036224, abs=1e-6)


def test_evaluate_rejects_bad_designs(tmp_path, capsys):
    short = ",".join(["1"] * 19)
    assert main(["evaluate", "--design", short]) == 2
    oob = TABLE5.copy()
    oob[0] = 0.9
    assert main(["evaluate", "--design", ",".join(map(str, oob))]) == 2
    capsys.readouterr()
    nan = "nan,0.7,5,8,11,14,17,20,120,105,90,75,60,45,118,103,88,73,58,43"
    for command in ("evaluate", "evaluate-geometry", "stress-field"):
        out = [] if command == "evaluate" else ["--out", str(tmp_path)]
        assert main([command, "--design", nan] + out) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "gamma = nan is not finite" in captured.err
    assert main(["evaluate", "--design", nan.replace("nan", "0.1").replace("43", "inf")]) == 2
    assert "rd6 = inf is not finite" in capsys.readouterr().err
    # a comma-separated value that is not a number is named as in a design
    # file; the count is checked first
    tokens = nan.split(",")
    for k, token in [(0, "true"), (9, "abc"), (19, "")]:
        bad = ",".join(tokens[:k] + [token] + tokens[k + 1:]).replace("nan", "0.1")
        want = f"error: design value {archdam.VARIABLE_NAMES[k]} = {token} is not a number\n"
        for arg, err in [(bad, want), (bad + ",1", "error: design needs 20 values, got 21\n")]:
            for command in ("evaluate", "evaluate-geometry", "stress-field"):
                out = [] if command == "evaluate" else ["--out", str(tmp_path / "o")]
                assert main([command, "--design", arg] + out) == 2
                captured = capsys.readouterr()
                assert captured.out == ""
                assert captured.err == err
    # a design file holds JSON numbers only: no boolean, string, array or
    # null, and an integer past the float range is not finite
    values = json.loads(f"[{nan.replace('nan', '0.1')}]")
    for k, entry, shown in [(0, False, "false"), (2, "5", '"5"'), (0, [0.1], "[0.1]"),
                            (19, None, "null"), (8, 10**400, "inf")]:
        path = tmp_path / "design.json"
        path.write_text(json.dumps(values[:k] + [entry] + values[k + 1:]))
        name = archdam.VARIABLE_NAMES[k]
        reason = "is not finite" if shown == "inf" else "is not a number"
        for command in ("evaluate", "evaluate-geometry", "stress-field"):
            out = [] if command == "evaluate" else ["--out", str(tmp_path / "o")]
            assert main([command, "--design", str(path)] + out) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: design value {name} = {shown} {reason}\n"
    assert not (tmp_path / "o").exists()
    # evaluate prints its result and writes no file, so it takes no --out
    assert main(["evaluate", "--design", TABLE5_ARG, "--out", str(tmp_path / "x")]) == 2
    assert "unrecognized arguments: --out" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_config_n_arc_is_an_unknown_key(tmp_path, capsys):
    # the surrogate samples no arc, so even 9 stations is refused
    for n_arc in (7, 9, 10, 202):
        cfg = tmp_path / f"arc{n_arc}.json"
        cfg.write_text(json.dumps({"problem": {"n_arc": n_arc}}))
        assert main(["evaluate", "--config", str(cfg), "--design", TABLE5_ARG]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: config schema violation at $.problem: additional "
                                "properties are not allowed: 'n_arc'\n")


def test_config_n_depths_is_an_unknown_key(tmp_path, capsys):
    # the stress grid is fixed at the six control levels, so even 6 is refused
    for n_depths in (6, 8, 200, 201):
        cfg = tmp_path / f"depths{n_depths}.json"
        cfg.write_text(json.dumps({"problem": {"n_depths": n_depths}}))
        for argv in (["evaluate", "--design", TABLE5_ARG],
                     ["stress-field", "--design", TABLE5_ARG, "--out", str(tmp_path / "run")],
                     ["optimize", "--out", str(tmp_path / "run")]):
            assert main(argv[:1] + ["--config", str(cfg)] + argv[1:]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == ("error: config schema violation at $.problem: additional "
                                    "properties are not allowed: 'n_depths'\n")
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("key, value", [
    ("alpha", 1.0), ("schedule", True), ("par_step_min", 1e-4), ("infeasible_jitter", 0.1),
])
def test_config_removed_mocss_setting_is_an_unknown_key(tmp_path, capsys, key, value):
    # the schedule is always on, the crowding weights fixed and the other
    # two are constants of mocss, so even the old defaults are refused
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mocss": {key: value}}))
    run = tmp_path / "run"
    for argv in (["optimize"], ["benchmark", "--problem", "zdt1"]):
        assert main(argv + ["--config", str(cfg), "--out", str(run)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: config schema violation at $.mocss: additional "
                                f"properties are not allowed: '{key}'\n")
    assert not run.exists()


@pytest.mark.parametrize("payload, message", [
    pytest.param({"strength": {"f_c": 30, "f_t": 40}}, "$.strength.f_t is not below $.strength.f_c",
                 id="payload0-strength-tensile strength must be below compressive"),
    pytest.param({"strength": {"f_1": 1e9}}, "$.strength invalid: singular calibration system",
                 id="payload1-strength-singular calibration system"),
])
def test_config_rejected_at_runtime_exits_2_with_key(tmp_path, capsys, payload, message):
    # the schema accepts these values; the library rejects them on assembly
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(payload))
    for argv in (["evaluate", "--design", TABLE5_ARG],
                 ["optimize", "--out", str(tmp_path / "run")]):
        assert main(argv[:1] + ["--config", str(cfg)] + argv[1:]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


# the schema keeps every config value in a range where the evaluation stays
# finite; these backstops stand behind it, so a non-finite evaluation is
# injected by wrapping the problem's evaluation


@pytest.mark.parametrize("payload, key", [
    ({"fit2": -np.inf}, "fit2 = -inf"),
    ({"violation": np.inf}, "violation = inf"),
])
def test_evaluate_non_finite_output_exits_2(monkeypatch, capsys, payload, key):
    # evaluate must not print the result as JSON with Infinity in it
    evaluate = DamProblem.evaluate
    monkeypatch.setattr(DamProblem, "evaluate",
                        lambda self, x: evaluate(self, x)._replace(**payload))
    assert main(["evaluate", "--design", TABLE5_ARG]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: evaluate: {key} is not finite")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("payload", [
    {"fit2": -np.inf},
    {"violation": np.inf},
])
def test_optimize_non_finite_output_exits_2_leaving_nothing(tmp_path, monkeypatch, capsys,
                                                            payload):
    evaluate_batch = DamProblem.evaluate_batch

    def non_finite(self, X):
        F, violation = evaluate_batch(self, X)
        F[-1, 1] = payload.get("fit2", F[-1, 1])
        violation[-1] = payload.get("violation", violation[-1])
        return F, violation

    monkeypatch.setattr(DamProblem, "evaluate_batch", non_finite)
    cfg = _tiny_config(tmp_path, n_cps=8, iterations=2)
    run = tmp_path / "run"
    assert main(["optimize", "--config", cfg, "--out", str(run)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: optimize: an objective or violation is "
                                   "not finite under this config")
    assert "Traceback" not in captured.err
    assert not run.exists()


@pytest.mark.parametrize("command, k, value, message", [
    ("evaluate-geometry", 9, -100.0, "ru2 = -100.0 is not a finite value within [91.0, 118.0]"),
    ("stress-field", 7, -5.0, "tc6 = -5.0 is not a finite value within [12.0, 31.0]"),
    # a negative first value is a value, not an option, in either spelling
    *[(command, 0, -0.1, "gamma = -0.1 is not a finite value within [0.0, 0.3]")
      for command in ("evaluate", "evaluate-geometry", "stress-field")],
])
def test_design_outside_bounds_exits_2_before_writing(tmp_path, capsys, command, k, value,
                                                       message):
    x = TABLE5.copy()
    x[k] = value
    out = tmp_path / "out"
    design = ",".join(map(str, x))
    for argv in (["--design", design], [f"--design={design}"]):
        argv += [] if command == "evaluate" else ["--out", str(out)]
        assert main([command, *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: design row 0: {message}\n"
    assert not out.exists()


PENALTY_CEILINGS = {"problem": {"penalty_fit1": 1e9, "penalty_fit2": 1e3}}


@pytest.mark.parametrize("payload, path, ceiling", [
    ({"geometry": {"h": 1e308}}, "$.geometry.h", {"geometry": {"h": 500}}),
    ({"loads": [{"kind": "pseudo_seismic", "seismic_coefficient": 1e300}]},
     "$.loads[0].seismic_coefficient",
     {"loads": [{"kind": "pseudo_seismic", "seismic_coefficient": 1}]}),
    # the floor of the dam height works the same way as the ceilings
    ({"geometry": {"h": 1e-300}}, "$.geometry.h", {"geometry": {"h": 15}}),
    ({"geometry": {"h": 14.999999}}, "$.geometry.h", {"geometry": {"h": 15}}),
    # a larger penalty corner overflows the hypervolume optimize logs
    ({"problem": {"penalty_fit1": 1e308}}, "$.problem.penalty_fit1", PENALTY_CEILINGS),
    ({"problem": {"penalty_fit2": 1e308}}, "$.problem.penalty_fit2", PENALTY_CEILINGS),
    # subnormal divisors overflow the margin and the slope constraint
    ({"strength": {"s_f": 1e-320}}, "$.strength.s_f", {"strength": {"s_f": 1}}),
    ({"problem": {"gamma_allow": 1e-320}}, "$.problem.gamma_allow",
     {"problem": {"gamma_allow": 0.01}}),
    # huge densities overflow the stresses and the meridian
    ({"loads": [{"kind": "hydrostatic", "water_density": 1e150}]}, "$.loads[0].water_density",
     {"loads": [{"kind": "hydrostatic", "water_density": 2000}]}),
    ({"loads": [{"kind": "hydrostatic", "concrete_density": 1e300}]},
     "$.loads[0].concrete_density",
     {"loads": [{"kind": "hydrostatic", "concrete_density": 6000}]}),
    # the size keys: at the maxima the largest array of a 100-design batch,
    # or of one MoCSS iteration, stays under about 64 MB
    ({"problem": {"quadrature_order": 257}}, "$.problem.quadrature_order",
     {"problem": {"quadrature_order": 256}}),
    # numpy's generator takes no negative seed; the --seed flag keeps the same floor
    ({"mocss": {"seed": -1}}, "$.mocss.seed", {"mocss": {"seed": 0}}),
    ({"mocss": {"n_cps": 2001}}, "$.mocss.n_cps", {"mocss": {"n_cps": 2000}}),
    # radius**3 overflows, or underflows to a zero divisor; well inside
    # these, the force step stays clear of its Gram rounding floor
    ({"mocss": {"radius": 1e300}}, "$.mocss.radius", {"mocss": {"radius": 1000}}),
    ({"mocss": {"radius": 1e-300}}, "$.mocss.radius", {"mocss": {"radius": 0.001}}),
    # a jitter wider than the normalized box overflows rng.uniform's range
    ({"mocss": {"par_step0": 1e308}}, "$.mocss.par_step0", {"mocss": {"par_step0": 1}}),
    # the move rand * ka * force overflows
    ({"mocss": {"ka": 1e308}}, "$.mocss.ka", {"mocss": {"ka": 1000}}),
])
def test_config_above_physical_ceiling_exits_2_with_path(tmp_path, capsys, payload, path,
                                                         ceiling):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(payload))
    for argv in (["evaluate", "--design", TABLE5_ARG],
                 ["optimize", "--out", str(tmp_path / "run")]):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv[:1] + ["--config", str(cfg)] + argv[1:]) == 2
        assert not caught, [str(w.message) for w in caught]
        captured = capsys.readouterr()
        assert captured.out == ""
        m = re.fullmatch(rf"error: config schema violation at {re.escape(path)}: (\S+) "
                         r"is (greater than the maximum|less than the minimum) of (\S+)\n",
                         captured.err)
        assert m, captured.err
        value, bound = float(m[1]), float(m[3])
        assert value > bound if m[2].startswith("greater") else value < bound
    assert not (tmp_path / "run").exists()
    # the limit itself is accepted and gives finite output, without a
    # warning; evaluate reads no mocss key, so a short optimize runs those
    cfg.write_text(json.dumps(ceiling))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["evaluate", "--config", str(cfg), "--design", TABLE5_ARG]) == 0
        assert np.isfinite(json.loads(capsys.readouterr().out)["fit1"])
        if "mocss" in ceiling:
            cfg.write_text(json.dumps({"mocss": {"iterations": 3, **ceiling["mocss"]}}))
            assert main(["optimize", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 0
            assert capsys.readouterr().err == ""
            _assert_finite_artifacts(tmp_path / "run")
    assert not caught, [str(w.message) for w in caught]



@pytest.mark.parametrize("payload, section", [
    ({"geometry": {"w_crest": 1e200, "w_base": 1.0}}, "geometry"),
    ({"problem": {"moment_share": 1e300}}, "problem"),
])
def test_config_whose_terms_overflow_exits_2_naming_section(tmp_path, capsys, payload, section):
    # the schema accepts these values; the problem's design-independent
    # terms overflow, which is a config error, not a warning
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(payload))
    for argv in (["evaluate", "--design", TABLE5_ARG],
                 ["optimize", "--out", str(tmp_path / "run")]):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv[:1] + ["--config", str(cfg)] + argv[1:]) == 2
        assert not caught, [str(w.message) for w in caught]
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: $.{section} invalid: overflow"), captured.err
    assert not (tmp_path / "run").exists()

def test_optimize_at_penalty_ceilings_logs_finite_hypervolume(tmp_path, capsys):
    cfg, run = tmp_path / "cfg.json", tmp_path / "run"
    cfg.write_text(json.dumps({**PENALTY_CEILINGS, "mocss": {
        "n_cps": 24, "iterations": 30, "archive_capacity": 50}}))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["optimize", "--config", str(cfg), "--out", str(run)]) == 0
    assert not caught, [str(w.message) for w in caught]
    assert capsys.readouterr().err == ""
    hv = json.loads((run / "log.jsonl").read_text().splitlines()[-1])["hypervolume"]
    assert 0.0 < hv < 1e9 * 1e3


@pytest.mark.parametrize("payload, path", [
    ({"geometry": {"h": float("nan")}}, "$.geometry.h"),
    ({"mocss": {"radius": float("nan")}}, "$.mocss.radius"),
    ({"strength": {"f_c": float("inf")}}, "$.strength.f_c"),
    ({"mocss": {"n_cps": 4.0}}, "$.mocss.n_cps"),
    ({"mocss": {"iterations": 1.0}}, "$.mocss.iterations"),
    ({"problem": {"quadrature_order": 32.0}}, "$.problem.quadrature_order"),
])
def test_config_non_finite_or_float_integer_exits_2_with_path(tmp_path, capsys, payload, path):
    # JSON Schema accepts these (NaN passes every bound, 4.0 counts as an
    # integer); the runtime cannot use them, so load_config rejects them
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(payload))
    for argv in (["evaluate", "--design", TABLE5_ARG],
                 ["optimize", "--out", str(tmp_path / "run")]):
        assert main(argv[:1] + ["--config", str(cfg)] + argv[1:]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: config schema violation at {path}: ")
        assert "Traceback" not in captured.err
    assert not (tmp_path / "run").exists()


def _table5_interpolants():
    h = DEFAULT_HEIGHT
    return h, (LagrangeInterpolant(level_depths(h), TABLE5[k:k + 6]) for k in (2, 8, 14))


def test_evaluate_geometry_artifact(tmp_path, capsys):
    out = tmp_path / "geo"
    assert main(["evaluate-geometry", "--design", TABLE5_ARG, "--out", str(out)]) == 0
    capsys.readouterr()
    _assert_manifest_lists_the_other_files(out)
    lines = (out / "geometry.csv").read_text().splitlines()
    assert lines[0].startswith("# manifest: ")
    assert lines[1] == "z,tc,ru,rd,phi_deg,overhang_slope"
    # every value, from the per-design interpolant and the formulas written out
    h, (tc, ru, rd) = _table5_interpolants()
    gamma, beta = TABLE5[:2]
    z = np.linspace(0.0, h, 50)
    s_u = gamma * z / (beta * h) - gamma
    s_d = s_u + tc.derivative(z)
    phi = np.degrees(2.0 * np.arctan(CanyonProfile.default().half_width(z) / ru(z)))
    slope = np.maximum(np.abs(s_u), np.abs(s_d))
    assert lines[2:] == [",".join(map(_f6, row))
                         for row in zip(z, tc(z), ru(z), rd(z), phi, slope)]


def test_stress_field_artifact(tmp_path, capsys):
    out = tmp_path / "sf"
    assert main(["stress-field", "--design", TABLE5_ARG, "--out", str(out)]) == 0
    capsys.readouterr()
    _assert_manifest_lists_the_other_files(out)
    lines = (out / "stress_field.csv").read_text().splitlines()
    assert lines[1] == "z,face,load_case,s1,s2,s3,ww_margin"
    # one row per (face, level, load case), every value from the per-row
    # surrogate on the per-design interpolant
    h, (tc, ru, _) = _table5_interpolants()
    z, face = sample_points(CanyonProfile.default())
    cases = [LoadCase(kind="hydrostatic"), LoadCase(kind="pseudo_seismic")]
    states = surrogate_states(tc(z), ru(z), z, face, h, cases, MOMENT_SHARE)
    strength = StrengthParams()
    margins = criterion_values(states, strength, solve_coefficients(strength))[0]
    assert len(lines) == 2 + 24
    assert lines[2:] == [
        ",".join([_g6(z[i]), face[i], f"{k}:{lc.kind}", *map(_g6, states[i, k]),
                  _g6(margins[i, k])])
        for i in range(len(z)) for k, lc in enumerate(cases)]
    assert not any("-0," in ln or ln.endswith("-0") for ln in lines)


@pytest.mark.parametrize("geometry", [None, {"h": 100.0, "w_crest": 90.0, "w_base": 30.0}])
def test_tables_take_the_evaluators_passes(tmp_path, capsys, geometry):
    # the sections' maxima are the slope and angle constraints, and the
    # stress states' largest margin is fit2, bit for bit, on the default
    # canyon and on one of another height
    problem = DamProblem() if geometry is None else DamProblem(canyon=CanyonProfile(**geometry))
    lo, hi = problem.bounds
    draws = np.random.default_rng(23).uniform(lo, hi, (40, 20))
    for x in [TABLE5, *draws]:
        ev = problem.evaluate(x)
        nodes = x[2:].reshape(3, 1, 6)
        _, s_u, s_d, phi = problem.constraint_depths.sections(x[:1], x[1:2], nodes)
        states = problem.stress_surrogate(*nodes[:2])
        assert criterion_values(states, problem.strength, problem.coeffs)[0].max() == ev.fit2
        assert ev.diagnostics["constraints"][6:] == [
            np.abs(s_u).max() / problem.gamma_allow - 1.0,
            np.abs(s_d).max() / problem.gamma_allow - 1.0,
            np.maximum(90.0 - phi, phi - 130.0).max() / 130.0]
    # both tables, at the constraint depths and on the grid of the six
    # levels, two faces and two load cases
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({} if geometry is None else {"geometry": geometry}))
    for command, name, rows in [("evaluate-geometry", "geometry.csv", 50),
                                ("stress-field", "stress_field.csv", 6 * 2 * 2)]:
        out = tmp_path / command
        assert main([command, "--config", str(cfg), "--design", TABLE5_ARG,
                     "--out", str(out)]) == 0
        assert len((out / name).read_text().splitlines()) == 2 + rows
    capsys.readouterr()


def test_ww_surface_artifact(tmp_path, capsys):
    out = tmp_path / "ww"
    assert main(["ww-surface", "--out", str(out), "--steps", "5",
                 "--sigma-min", "-40", "--sigma-max", "4"]) == 0
    capsys.readouterr()
    _assert_manifest_lists_the_other_files(out)
    lines = (out / "ww_surface.csv").read_text().splitlines()
    assert lines[1] == "sigma1,sigma2,sigma3,domain,F_over_fc,S,margin"
    assert len(lines) == 2 + 5**3
    domains = {ln.split(",")[3] for ln in lines[2:]}
    assert domains <= {"CCC", "TCC", "TTC", "TTT"}
    assert len(domains) >= 3
    assert main(["ww-surface", "--out", str(out), "--sigma-min", "5",
                 "--sigma-max", "-5"]) == 2
    capsys.readouterr()
    # a grid needs both ends on every axis: fewer than 2 steps is a usage
    # error naming --steps, and writes nothing
    for steps in ("1", "0", "-1"):
        few = tmp_path / f"ww_steps{steps}"
        assert main(["ww-surface", "--out", str(few), "--steps", steps]) == 2
        assert capsys.readouterr().err == f"error: --steps must be at least 2, got {steps}\n"
        assert not few.exists()
    # a grid reaching past the calibrated range (mean stress below about
    # -3.06 f_c) is a usage error naming the range, not a runtime failure
    far = tmp_path / "ww_far"
    assert main(["ww-surface", "--out", str(far), "--sigma-min", "-400",
                 "--sigma-max", "20", "--steps", "31"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --sigma-min/--sigma-max: the grid [-400, 20] MPa ")
    assert err.count("\n") == 1
    assert not far.exists()
    # squares that underflow to zero still give a finite table
    tiny = tmp_path / "ww_tiny"
    assert main(["ww-surface", f"--out={tiny}", "--steps=2", "--sigma-min=-1e-150",
                 "--sigma-max=1e-150"]) == 0
    assert capsys.readouterr().err == ""
    assert "nan" not in (tiny / "ww_surface.csv").read_text()


def test_ww_surface_reads_a_negative_bound_with_an_exponent(tmp_path, capsys):
    # -4e1 is the number -40, not an option
    tables = []
    for spelling in ("-4e1", "-40", "-4E+1", "-.4e2"):
        out = tmp_path / f"ww{spelling}"
        assert main(["ww-surface", "--out", str(out), "--sigma-min", spelling,
                     "--sigma-max", "5", "--steps", "3"]) == 0
        assert capsys.readouterr().err == ""
        tables.append((out / "ww_surface.csv").read_text())
    assert tables[1:] == tables[:1] * 3
    assert main(["ww-surface", "--out", str(tmp_path / "x"), "--sigma-min", "-1e3",
                 "--sigma-max", "-2e3"]) == 2
    assert capsys.readouterr().err.startswith("error: --sigma-min/--sigma-max: the grid "
                                              "[-1000, -2000] MPa ")


@pytest.mark.parametrize("argv, option", [
    (["--sigma-min=nan"], "--sigma-min/--sigma-max"),
    (["--sigma-max=inf"], "--sigma-min/--sigma-max"),
    # a finite grid whose squares overflow inside the criterion
    (["--steps=3", "--sigma-min=-1e200", "--sigma-max=5"], "--sigma-min/--sigma-max"),
    # a span past the float range
    (["--sigma-min=-1e308", "--sigma-max=1e308"], "--sigma-min/--sigma-max"),
    (["--steps=52"], "--steps"),
])
def test_ww_surface_grid_without_a_finite_table_exits_2(tmp_path, capsys, argv, option):
    out = tmp_path / "ww"
    assert main(["ww-surface", f"--out={out}", *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {option}") and err.count("\n") == 1
    assert "Warning" not in err
    assert not out.exists()


def test_optimize_decide_round_trip(tmp_path, capsys):
    cfg = _tiny_config(tmp_path, n_cps=24, iterations=30)
    run = tmp_path / "run"
    assert main(["optimize", "--config", cfg, "--out", str(run)]) == 0
    capsys.readouterr()

    archive = run / "archive.csv"
    lines = archive.read_text().splitlines()
    header = lines[1].split(",")
    assert header[:2] == ["gamma", "beta"]
    assert header[-4:] == ["fit1", "fit2", "violation", "feasible"]
    assert len(header) == 24
    feas_designs = [ln for ln in lines[2:] if ln.endswith(",1")]
    assert len(feas_designs) >= 2

    manifest = json.loads((run / "manifest.json").read_text())
    assert manifest["seed"] == 0
    assert manifest["timestamps"] is None
    _assert_manifest_lists_the_other_files(run)

    log_lines = (run / "log.jsonl").read_text().splitlines()
    assert json.loads(log_lines[0])["manifest"] == manifest["config_digest"]
    last = json.loads(log_lines[-1])
    assert last["iter"] == 30

    scen = tmp_path / "scenarios.json"
    scen.write_text(json.dumps([
        {"name": "economy", "weights": [0.9, 0.1]},
        {"name": "safety", "weights": [0.1, 0.9]},
    ]))
    dec = tmp_path / "dec"
    assert main(["decide", "--archive", str(archive),
                 "--scenarios", str(scen), "--out", str(dec)]) == 0
    capsys.readouterr()
    rlines = (dec / "rankings.csv").read_text().splitlines()
    assert rlines[1] == "scenario,archive_row,rank,fit1,fit2,R"
    dlines = (dec / "decisions.csv").read_text().splitlines()
    assert len(dlines) == 4  # manifest + header + one pick per scenario
    picks = {ln.split(",")[0] for ln in dlines[2:]}
    assert picks == {"economy", "safety"}
    _assert_manifest_lists_the_other_files(dec)


def test_optimize_reruns_byte_identical(tmp_path, capsys):
    cfg = _tiny_config(tmp_path, n_cps=8, iterations=5)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["optimize", "--config", cfg, "--out", str(a)]) == 0
    assert main(["optimize", "--config", cfg, "--out", str(b)]) == 0
    capsys.readouterr()
    for name in ("archive.csv", "log.jsonl", "manifest.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_optimize_hypervolume_uses_configured_penalty_corner(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "problem": {"penalty_fit1": 4.0e5},
        "mocss": {"n_cps": 24, "iterations": 30, "archive_capacity": 50},
    }))
    run = tmp_path / "run"
    assert main(["optimize", "--config", str(cfg), "--out", str(run)]) == 0
    capsys.readouterr()
    rows = [ln.split(",") for ln in (run / "archive.csv").read_text().splitlines()[2:]]
    front = np.array([[float(r[-4]), float(r[-3])] for r in rows if r[-1] == "1"])
    assert len(front) >= 1
    hv = json.loads((run / "log.jsonl").read_text().splitlines()[-1])["hypervolume"]
    assert hv == pytest.approx(hypervolume2d(front, (4.0e5, 1.3)), rel=1e-4)
    assert hv > 1.5 * hypervolume2d(front, (3.4e5, 1.3))


def test_optimize_seed_flag_changes_run(tmp_path, capsys):
    cfg = _tiny_config(tmp_path, n_cps=8, iterations=5)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["optimize", "--config", cfg, "--out", str(a), "--seed", "3"]) == 0
    assert main(["optimize", "--config", cfg, "--out", str(b)]) == 0
    capsys.readouterr()
    ma = json.loads((a / "manifest.json").read_text())
    assert ma["seed"] == 3
    assert (a / "archive.csv").read_bytes() != (b / "archive.csv").read_bytes()


def test_negative_seed_flag_exits_2(tmp_path, capsys):
    # as the schema refuses a mocss.seed below 0; numpy's generator takes none
    cfg = _tiny_config(tmp_path, n_cps=8, iterations=2)
    run = tmp_path / "run"
    for argv in (["optimize"], ["benchmark", "--problem", "zdt1"]):
        assert main(argv + ["--config", cfg, "--out", str(run), "--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: config schema violation at $.mocss.seed: -1 is less "
                                "than the minimum of 0\n")
    assert not run.exists()


def test_decide_input_validation(tmp_path, capsys):
    scen = tmp_path / "scenarios.json"
    scen.write_text(json.dumps([{"name": "even", "weights": [0.5, 0.5]}]))
    assert main(["decide", "--archive", str(tmp_path / "none.csv"),
                 "--scenarios", str(scen), "--out", str(tmp_path)]) == 2

    bad = tmp_path / "bad.csv"
    bad.write_text("gamma,beta\n0.1,0.5\n")
    assert main(["decide", "--archive", str(bad),
                 "--scenarios", str(scen), "--out", str(tmp_path)]) == 2

    # an archive with a single acceptable design cannot run a tournament
    lone = tmp_path / "lone.csv"
    cols = "gamma,beta,tc1,tc2,tc3,tc4,tc5,tc6,ru1,ru2,ru3,ru4,ru5,ru6,rd1,rd2,rd3,rd4,rd5,rd6,fit1,fit2,violation,feasible"
    row = ",".join(map(str, TABLE5)) + ",317086.7,-0.036,0,1"
    lone.write_text(f"{cols}\n{row}\n")

    # malformed data rows exit 2 naming the file and line, after a comment
    # line and a good row
    malformed = {
        "short": (",".join(row.split(",")[:20]), "line 4: 20 columns, expected 24"),
        "long": (row + ",7", "line 4: 25 columns, expected 24"),
        "not a number": (row.replace("0.201", "abc", 1), "line 4: could not convert"),
        "nan": (row.replace("317086.7", "nan"), "line 4: fit1 = nan is not finite"),
        "inf": (row.replace("0.516", "-inf", 1), "line 4: beta = -inf is not finite"),
        "fractional feasible": (row.replace(",0,1", ",7.5,0.5"),
                                "line 4: feasible = 0.5 does not match violation = 7.5"),
        "violating, feasible": (row.replace(",0,1", ",7.5,1"),
                                "line 4: feasible = 1 does not match violation = 7.5"),
        "clean, infeasible": (row.replace(",0,1", ",0,0"),
                              "line 4: feasible = 0 does not match violation = 0"),
    }
    for name, (bad_row, message) in malformed.items():
        ragged = tmp_path / "ragged.csv"
        ragged.write_text(f"# manifest: x\n{cols}\n{row}\n{bad_row}\n")
        assert main(["decide", "--archive", str(ragged),
                     "--scenarios", str(scen), "--out", str(tmp_path)]) == 2, name
        err = capsys.readouterr().err
        assert f"archive {str(ragged)!r} {message}" in err, (name, err)
        assert "Traceback" not in err

    code = main(["decide", "--archive", str(lone),
                 "--scenarios", str(scen), "--out", str(tmp_path)])
    assert code == 1
    capsys.readouterr()

    # scenarios are refused before the ranking, without a numpy warning or
    # repr; the CSV files write the name unquoted
    even = [0.5, 0.5]
    refused = {
        "three weights": ("b", [0.2, 0.3, 0.5], "3 weights for 2 objectives"),
        "one weight": ("b", [1.0], "1 weights for 2 objectives"),
        "overflowing sum": ("b", [1e308, 1e308], "weights must sum to 1, got inf"),
        "sum of 0.5": ("b", [0.25, 0.25], "weights must sum to 1, got 0.5"),
        "string weight": ("b", ["0.5", 0.5],
                          'weights must be an array of numbers, got ["0.5", 0.5]'),
        "integer weight past the float range": ("b", [10**400, 0.5],
                                                "int too large to convert to float"),
        **{f"name {what}": (text, even, "name must be a non-empty string without a comma, "
                                        f"double quote, CR or LF, got {json.dumps(text)}")
           for what, text in (("null", None), ("empty", ""), ("a number", 7),
                              ("with a comma", "a,b"), ("with a double quote", 'say "b"'),
                              ("with a CR", "c\rd"), ("with an LF", "c\nd"))},
    }
    for name, (scenario_name, weights, message) in refused.items():
        scen.write_text(json.dumps([{"name": "a", "weights": even},
                                    {"name": scenario_name, "weights": weights}]))
        assert main(["decide", "--archive", str(lone),
                     "--scenarios", str(scen), "--out", str(tmp_path)]) == 2, name
        captured = capsys.readouterr()
        assert captured.out == "", name
        assert captured.err == f"error: scenario [1] invalid: {message}\n", name


ARCHIVE_HEADER = ",".join(archdam.VARIABLE_NAMES) + ",fit1,fit2,violation,feasible"


def _archive(tmp_path):
    """An archive file of three feasible, acceptable Table 5 rows."""
    rows = [",".join(map(str, TABLE5)) + f",{fit1},{fit2},0,1"
            for fit1, fit2 in ((317086.7, -0.036), (320000, -0.05), (330000, -0.07))]
    path = tmp_path / "archive.csv"
    path.write_text("\n".join([ARCHIVE_HEADER, *rows]) + "\n")
    return path


def _hostile_file_argv(tmp_path, option, path):
    """A writing command that reads `path` for `option`, its other inputs
    valid, and its output directory."""
    out = tmp_path / "out"
    scenarios = tmp_path / "scenarios.json"
    scenarios.write_text(json.dumps([{"name": "even", "weights": [0.5, 0.5]}]))
    if option == "--config":
        argv = ["evaluate-geometry", "--config", path, "--design", TABLE5_ARG]
    elif option == "--design":
        argv = ["stress-field", "--design", path]
    elif option == "--scenarios":
        argv = ["decide", "--archive", str(_archive(tmp_path)), "--scenarios", path]
    else:
        argv = ["decide", "--archive", path, "--scenarios", str(scenarios)]
    return argv + ["--out", str(out)], out


WHAT = {"--config": "config file", "--design": "design file", "--scenarios": "scenarios",
        "--archive": "archive"}


@pytest.mark.parametrize("option", list(WHAT))
@pytest.mark.parametrize("case", ["missing", "directory", "undecodable"])
def test_hostile_input_file_exits_2_naming_it(tmp_path, capsys, option, case):
    path = tmp_path / "input"
    if case == "directory":
        path.mkdir()
    elif case == "undecodable":
        path.write_bytes(b"\xff\xfe[1]")
    argv, out = _hostile_file_argv(tmp_path, option, str(path))
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    what = f"{WHAT[option]} {str(path)!r}"
    if case == "undecodable":
        kind = "UTF-8" if option == "--archive" else "JSON"
        assert captured.err == (f"error: {what} is not valid {kind}: 'utf-8' codec can't "
                                "decode byte 0xff in position 0: invalid start byte\n")
    else:
        errno = "[Errno 2] No such file" if case == "missing" else "[Errno 21] Is a directory"
        assert captured.err.startswith(f"error: cannot read {what}: {errno}")
        assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err
    assert not out.exists()


@pytest.mark.parametrize("option, text, reason", [
    ("--config", '{"mocss": {"seed": 1, "seed": 2}}', "duplicate key 'seed'"),
    ("--scenarios", '[{"name": "a", "weights": [0.5, 0.5], "name": "b"}]',
     "duplicate key 'name'"),
    # valid JSON, but nested past the parser's recursion limit
    ("--design", "[" * 100_000 + "]" * 100_000, "maximum recursion depth exceeded"),
])
def test_json_the_reader_refuses_exits_2_naming_the_file(tmp_path, capsys, option, text,
                                                          reason):
    path = tmp_path / "input.json"
    path.write_text(text)
    argv, out = _hostile_file_argv(tmp_path, option, str(path))
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {WHAT[option]} {str(path)!r} is not valid JSON: "
                                   f"{reason}")
    assert captured.err.count("\n") == 1
    assert not out.exists()


def test_archive_lines_numbered_as_in_text_mode(tmp_path, capsys):
    # CR and CRLF end a line, a form feed does not
    scenarios = tmp_path / "scenarios.json"
    scenarios.write_text(json.dumps([{"name": "even", "weights": [0.5, 0.5]}]))
    row = _archive(tmp_path).read_text().splitlines()[1]
    archive = tmp_path / "mixed.csv"
    bad = row.replace("0.201", "0.2\x0c01")
    archive.write_bytes(f"# manifest: x\r{ARCHIVE_HEADER}\r\n{row}\r{bad}\n".encode())
    assert main(["decide", "--archive", str(archive), "--scenarios", str(scenarios),
                 "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (f"error: archive {str(archive)!r} line 4: could not "
                                       "convert string to float: '0.2\\x0c01'\n")


@pytest.mark.parametrize("via_pipe", [False, True])
def test_decide_digest_is_the_sha256_of_the_scenarios_bytes(tmp_path, capsys, via_pipe):
    data = json.dumps([{"name": "economy", "weights": [0.9, 0.1]},
                       {"name": "safety", "weights": [0.1, 0.9]}]).encode()
    out = tmp_path / "dec"
    argv = ["decide", "--archive", str(_archive(tmp_path)), "--out", str(out)]
    if via_pipe:
        # a pipe can be read once only
        read_end, write_end = os.pipe()
        os.write(write_end, data)
        os.close(write_end)
        try:
            assert main(argv + ["--scenarios", f"/dev/fd/{read_end}"]) == 0
        finally:
            os.close(read_end)
    else:
        scenarios = tmp_path / "scenarios.json"
        scenarios.write_bytes(data)
        assert main(argv + ["--scenarios", str(scenarios)]) == 0
    capsys.readouterr()
    digest = hashlib.sha256(data).hexdigest()
    assert json.loads((out / "manifest.json").read_text())["config_digest"] == digest
    for name in ("rankings.csv", "decisions.csv"):
        assert (out / name).read_text().splitlines()[0] == f"# manifest: {digest}"
    assert (out / "decisions.csv").read_text().count("\n") == 4


# every command that writes artifacts, and the call that starts its work
_WRITERS = pytest.mark.parametrize("argv, work", [
    (["optimize"], "archdam.mocss.run_mocss"),
    (["benchmark", "--problem", "zdt1"], "archdam.mocss.run_mocss"),
    (["decide", "--scenarios", "SCENARIOS", "--archive", "ARCHIVE"], "archdam.mtdm.rank_R"),
    (["evaluate-geometry", "--design", TABLE5_ARG], None),
    (["stress-field", "--design", TABLE5_ARG], None),
    (["ww-surface", "--steps", "3"], None),
])


def _assert_output_path_refused(tmp_path, monkeypatch, capsys, argv, work, out, reason):
    """argv with out as --out, and as output.directory in a config where
    the command takes one, exits 2 with `output directory 'out' reason`
    before its work, and leaves the file tmp_path/taken as it was."""
    if work:
        monkeypatch.setattr(work, lambda *a, **k: pytest.fail("the run started"))
    scenarios = tmp_path / "scenarios.json"
    scenarios.write_text(json.dumps([{"name": "even", "weights": [0.5, 0.5]}]))
    argv = [{"SCENARIOS": str(scenarios), "ARCHIVE": str(_archive(tmp_path))}.get(a, a)
            for a in argv]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"output": {"directory": out}}))
    spellings = [["--out", out]]
    if argv[0] != "decide":  # decide takes no config
        spellings.append(["--config", str(cfg)])
    for extra in spellings:
        assert main(argv + extra) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: output directory {out!r} {reason}\n"
    assert (tmp_path / "taken").read_text() == "a file\n"


@_WRITERS
def test_output_path_that_is_not_a_directory_exits_2_before_the_run(tmp_path, monkeypatch,
                                                                    capsys, argv, work):
    target = tmp_path / "taken"
    target.write_text("a file\n")
    _assert_output_path_refused(tmp_path, monkeypatch, capsys, argv, work, str(target),
                                "exists and is not a directory")


@_WRITERS
def test_output_path_below_a_file_exits_2_before_the_run(tmp_path, monkeypatch, capsys, argv,
                                                         work):
    # the nearest existing ancestor of the path is a file, so no directory
    # can be made there
    target = tmp_path / "taken"
    target.write_text("a file\n")
    _assert_output_path_refused(tmp_path, monkeypatch, capsys, argv, work,
                                str(target / "sub" / "run"),
                                f"lies below {str(target)!r}, which is not a directory")


def test_benchmark_artifacts(tmp_path, capsys):
    cfg = _tiny_config(tmp_path, n_cps=20, iterations=30)
    out = tmp_path / "bench"
    assert main(["benchmark", "--problem", "sch", "--config", cfg,
                 "--out", str(out)]) == 0
    capsys.readouterr()
    # pinned to the digit: IGD is measured against analytic_front(1000)
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics == {"igd": 0.0173779, "hypervolume": 17.4318, "seed": 0}
    lines = (out / "front.csv").read_text().splitlines()
    assert lines[1] == "f1,f2"
    _assert_manifest_lists_the_other_files(out)
    assert main(["benchmark", "--problem", "dtlz9", "--config", cfg,
                 "--out", str(out)]) == 2


def test_version_flag(capsys):
    assert main(["--version"]) == 0
    assert capsys.readouterr().out == f"archdam {archdam.__version__}\n"


def test_version_defined_once():
    # pyproject.toml reads the version from the package instead of repeating it
    text = (Path(__file__).parent.parent / "pyproject.toml").read_text()
    assert 'dynamic = ["version"]' in text
    assert 'version = {attr = "archdam.__version__"}' in text
    assert archdam.__version__ not in text


def _leaf_values(spec, draw):
    """A value for one numeric config key: one inside its schema range, a
    bound the schema admits, the float (integer) next to a bound on the
    inside, 1e308 where the schema sets no maximum, or, one draw in
    twenty, the float (integer) just past a bound."""
    integer = spec["type"] == "integer"
    lo = spec.get("minimum", spec.get("exclusiveMinimum"))
    hi = spec.get("maximum")
    step = (lambda b, d: b + d) if integer else (lambda b, d: float(np.nextafter(b, d * np.inf)))
    admitted = [step(lo, 1)] + ([] if "exclusiveMinimum" in spec else [lo])
    past = [step(lo, -1)] if "exclusiveMinimum" not in spec else [lo]
    if hi is not None:
        admitted += [hi, step(hi, -1)]
        past.append(step(hi, 1))
    elif not integer:
        admitted.append(1e308)
    pick = draw(st.integers(0, 19))
    if pick == 19:
        return draw(st.sampled_from(past))
    if pick > 12:
        return draw(st.sampled_from(admitted))
    if integer:
        return draw(st.integers(lo, lo + 1000 if hi is None else hi))
    return draw(st.floats(lo, 1e6 if hi is None else hi, exclude_min="exclusiveMinimum" in spec))


def _section(properties, draw):
    """A random subset of a schema section's keys with drawn values."""
    out = {}
    for key in draw(st.lists(st.sampled_from(sorted(properties)), unique=True)):
        spec = properties[key]
        if "enum" in spec:
            out[key] = draw(st.sampled_from(spec["enum"]))
        elif spec.get("type") in ("number", "integer"):
            out[key] = _leaf_values(spec, draw)
        elif spec.get("type") == "string":
            out[key] = draw(st.sampled_from(["."] * 9 + [""]))
    return out


def _bounds_list(draw, which):
    """A bounds list: narrowed around Table 5, or now and then ragged or
    with one entry a micrometre past the canonical box."""
    base = LOWER_BOUNDS if which == "lower" else UPPER_BOUNDS
    kind = draw(st.sampled_from(["narrowed"] * 4 + ["ragged", "past the box"]))
    if kind == "ragged":
        return base.tolist()[:draw(st.sampled_from([0, 19, 20]))] + [1.0] * draw(st.integers(0, 1))
    values = ((base + TABLE5) / 2 if kind == "narrowed" else base).tolist()
    if kind == "past the box":
        k = draw(st.integers(0, 19))
        values[k] += -1e-6 if which == "lower" else 1e-6
    return values


@st.composite
def _configs(draw):
    """Configs drawn key by key from the schema: values inside it, its
    bounds, the floats just past them, 1e308, and ragged loads and bounds
    lists."""
    schema = _schema()["properties"]
    cfg = {}
    for section in draw(st.lists(st.sampled_from(sorted(schema)), unique=True)):
        spec = schema[section]
        if section == "loads":
            items = spec["items"]["properties"]
            n = draw(st.sampled_from([0] + [1, 2, 3, 4] * 4))
            cfg[section] = [_section(items, draw) for _ in range(n)]
            for item in cfg[section]:
                if draw(st.integers(0, 19)):
                    item.setdefault("kind", draw(st.sampled_from(items["kind"]["enum"])))
        else:
            cfg[section] = _section(spec["properties"], draw)
        if section == "problem":
            for which in ("lower", "upper"):
                if draw(st.booleans()):
                    cfg[section][f"{which}_bounds"] = _bounds_list(draw, which)
    return cfg


@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_configs())
# an overflowed calibration entry once reached LAPACK, which printed to
# stdout; a w_base above w_crest, and two sections that overflow only
# together, were refused without a path
@example(cfg={"strength": {"f_cb": 1e308}})
@example(cfg={"geometry": {"w_crest": 50.0, "w_base": 60.0}})
@example(cfg={"problem": {"moment_share": 4.2e297},
              "loads": [{"kind": "hydrostatic", "water_density": 2000}]})
def test_config_in_schema_gives_finite_json_or_exit_2_with_path(tmp_path_factory, capfd, cfg):
    # evaluate of the Table 5 design, in-process: exit 0 with finite JSON,
    # or exit 2 naming the config key path that it refuses. capfd also
    # sees what a library writes to the file descriptors
    path = tmp_path_factory.getbasetemp() / "drawn_config.json"
    path.write_text(json.dumps(cfg))
    code = main(["evaluate", "--config", str(path), "--design", TABLE5_ARG])
    out, err = capfd.readouterr()
    if code == 0:
        doc = json.loads(out, parse_constant=lambda c: pytest.fail(c))
        assert np.isfinite([doc["fit1"], doc["fit2"], doc["violation"]]).all()
        assert err == ""
    else:
        assert code == 2, err
        assert out == ""
        assert re.fullmatch(r"error: [^\n]*\$\.[a-z][^\n]*\n", err), err


@st.composite
def _mocss_sections(draw):
    """mocss sections drawn key by key as _configs draws them, with short
    runs: n_cps and iterations, where the schema admits them, are cut to
    at most 12, and are 12 when not drawn."""
    spec = _schema()["properties"]["mocss"]["properties"]
    section = _section(spec, draw)
    for key in ("n_cps", "iterations"):
        value = section.get(key, 12)
        section[key] = min(value, 12) if value <= spec[key].get("maximum", value) else value
    return section


@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_mocss_sections())
# radius**3 overflowed; on the all-feasible ZDT1, the first reseeding
# jitter's range, 2e308 * (1 - 1/12), overflowed rng.uniform
@example(mocss={"radius": 1e300, "n_cps": 12, "iterations": 12})
@example(mocss={"par_step0": 1e308, "n_cps": 12, "iterations": 12})
def test_mocss_in_schema_runs_or_exits_2_with_path(tmp_path_factory, capfd, mocss):
    # optimize on the dam and benchmark on ZDT1, in-process: exit 0 with
    # finite artifacts, or exit 2 naming the mocss key path that it refuses
    base = tmp_path_factory.getbasetemp()
    path, out = base / "drawn_mocss.json", base / "drawn_run"
    path.write_text(json.dumps({"mocss": mocss}))
    for argv in (["optimize"], ["benchmark", "--problem", "zdt1"]):
        shutil.rmtree(out, ignore_errors=True)
        code = main(argv + ["--config", str(path), "--out", str(out)])
        stdout, err = capfd.readouterr()
        if code == 0:
            assert err == ""
            _assert_finite_artifacts(out)
        else:
            assert code == 2, err
            assert stdout == ""
            assert re.fullmatch(r"error: [^\n]*\$\.mocss[^\n]*\n", err), err
            assert not out.exists()
