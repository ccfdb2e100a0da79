"""End-to-end acceptance checks.

Each test covers one numbered acceptance criterion and prints exactly one
[AC-nn] PASS/FAIL line (bypassing capture) so a plain ``pytest -v`` run
doubles as the acceptance report. Criterion 2 is expected to fail on its
sigma2-boundary leg: the failure-surface families on either side of that
plane genuinely disagree, see test_criterion_02 for the analysis.
"""

import json
import statistics
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import numpy as np
import pytest

from archdam import (
    DamProblem,
    MocssConfig,
    Scenario,
    StrengthParams,
    criterion_values,
    get_benchmark,
    pareto_rank,
    rank_R,
    run_mocss,
    solve_coefficients,
)
from archdam.cli import main
from archdam.geometry import DEFAULT_HEIGHT, level_depths
from archdam.benchmarks import igd
from archdam.mtdm import acceptable_mask

from _oracles import (
    brute_force_rank,
    calibration_states,
    lagrange_basis,
    mc_volume,
    random_population,
    spearman,
)
from conftest import TABLE5


def _emit(capsys, tag, ok, detail):
    line = f"[{tag}] {'PASS' if ok else 'FAIL'} - {detail}"
    with capsys.disabled():
        print(line, flush=True)
    return line


# -- criterion 1: failure-surface calibration --------------------------------


def test_criterion_01_calibration_round_trip(capsys):
    t0 = perf_counter()
    worst = 0.0
    strength = StrengthParams()
    coeffs = solve_coefficients(strength)
    m = criterion_values(calibration_states(strength), strength, coeffs)[0]
    worst = max(worst, float(np.max(np.abs(m))))

    rng = np.random.default_rng(101)
    for _ in range(50):
        fc = rng.uniform(15.0, 80.0)
        ft = fc * rng.uniform(0.03, 0.12)
        s = StrengthParams(f_c=fc, f_t=ft)
        c = solve_coefficients(s)
        m = criterion_values(calibration_states(s), s, c)[0]
        worst = max(worst, float(np.max(np.abs(m))))
    dt = perf_counter() - t0

    ok = worst < 1e-9 and dt < 1.0
    _emit(capsys, "AC-01", ok,
          f"max |margin| at 255 calibration states {worst:.3e} (<1e-09), {dt:.2f}s")
    assert ok


# -- criterion 2: boundary continuity and scale invariance -------------------


def _straddle_pairs(rng, n, boundary):
    eps = 5e-9
    lo = np.empty((n, 3))
    hi = np.empty((n, 3))
    if boundary == 1:
        lo[:, 0], hi[:, 0] = -eps, eps
        lo[:, 1] = hi[:, 1] = rng.uniform(-30.0, -0.5, n)
        lo[:, 2] = hi[:, 2] = lo[:, 1] - rng.uniform(0.5, 20.0, n)
    elif boundary == 2:
        lo[:, 1], hi[:, 1] = -eps, eps
        lo[:, 0] = hi[:, 0] = rng.uniform(0.05, 1.4, n)
        lo[:, 2] = hi[:, 2] = rng.uniform(-30.0, -0.5, n)
    else:
        lo[:, 2], hi[:, 2] = -eps, eps
        lo[:, 0] = hi[:, 0] = rng.uniform(0.3, 1.4, n)
        lo[:, 1] = hi[:, 1] = lo[:, 0] - rng.uniform(0.0, 0.2, n)
    return lo, hi


def test_criterion_02_boundary_continuity(capsys):
    strength = StrengthParams()
    coeffs = solve_coefficients(strength)
    rng = np.random.default_rng(211)
    n = 10_000

    gaps = {}
    for boundary in (1, 2, 3):
        lo, hi = _straddle_pairs(rng, n, boundary)
        m_lo = criterion_values(lo, strength, coeffs)[0]
        m_hi = criterion_values(hi, strength, coeffs)[0]
        gaps[boundary] = float(np.max(np.abs(m_hi - m_lo)))

    states = np.sort(rng.uniform(-45.0, 4.0, (n, 3)), axis=1)[:, ::-1]
    base = criterion_values(states, strength, coeffs)[0]
    lam = 3.7
    scaled_strength = StrengthParams(
        f_c=strength.f_c * lam, f_t=strength.f_t * lam, f_cb=strength.f_cb * lam,
        f_1=strength.f_1 * lam, f_2=strength.f_2 * lam,
        sigma_h_a=strength.sigma_h_a * lam)
    lam_gap = float(np.max(np.abs(
        criterion_values(states * lam, scaled_strength,
                         solve_coefficients(scaled_strength))[0] - base)))

    ok = gaps[1] < 1e-6 and gaps[3] < 1e-6 and lam_gap < 1e-9 and gaps[2] < 1e-6
    _emit(capsys, "AC-02", ok,
          f"sigma1 gap {gaps[1]:.2e}, sigma3 gap {gaps[3]:.2e}, "
          f"lambda gap {lam_gap:.2e}, sigma2 gap {gaps[2]:.2e} (tol 1e-06)")
    if not ok:
        pytest.fail(
            "sigma2 = 0 boundary is discontinuous by construction: the "
            "tension-compression family keeps the plain tension cutoff "
            "F = sigma_i while the compression side switches to the "
            "deviatoric form, so their values disagree at the shared plane "
            f"(worst gap {gaps[2]:.3e}). Both one-sided values match their "
            "closed forms exactly (see test_willam_warnke.py::"
            "test_sigma2_boundary_jump_is_model_intrinsic); the sigma1 and "
            "sigma3 boundaries and the joint scale invariance all pass. "
            "The gap is inherent in the piecewise criterion itself, "
            "not an implementation defect, so this leg is reported red "
            "rather than papered over.")


# -- criterion 3: volume quadrature vs Monte Carlo ----------------------------


def test_criterion_03_volume_oracle(capsys):
    t0 = perf_counter()
    problem = DamProblem()
    vol32 = problem.evaluate(TABLE5).fit1
    vol64 = DamProblem(quadrature_order=64).evaluate(TABLE5).fit1
    mc = mc_volume(TABLE5, problem.canyon, 10_000_000, seed=7)
    dt = perf_counter() - t0

    mc_rel = abs(vol32 - mc) / mc
    order_rel = abs(vol64 - vol32) / vol32
    ok = mc_rel < 0.005 and order_rel < 0.001 and dt < 10.0
    _emit(capsys, "AC-03", ok,
          f"quadrature {vol32:.1f} vs MC(1e7) {mc:.1f} rel {mc_rel:.2e} (<5e-3), "
          f"order-doubling rel {order_rel:.2e} (<1e-3), {dt:.1f}s")
    assert ok


# -- criterion 4: interpolation identities ------------------------------------


def test_criterion_04_interpolation(capsys):
    h = DEFAULT_HEIGHT
    nodes = level_depths(h)
    card = max(
        abs(lagrange_basis(nodes[j], i, nodes) - (1.0 if i - 1 == j else 0.0))
        for i in range(1, 7) for j in range(6))

    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(20):
        coef = rng.uniform(-1.0, 1.0, 6)
        poly = np.polynomial.Polynomial(coef)
        vals = poly(nodes / h)
        zq = rng.uniform(0.0, h, 100)
        interp = sum(vals[i - 1] * lagrange_basis(zq, i, nodes) for i in range(1, 7))
        worst = max(worst, float(np.max(np.abs(interp - poly(zq / h)))))

    ok = card < 1e-12 and worst < 1e-9
    _emit(capsys, "AC-04", ok,
          f"cardinality error {card:.1e}, degree-5 reproduction error {worst:.2e} (<1e-09)")
    assert ok


# -- criterion 5: benchmark convergence ---------------------------------------


def test_criterion_05_benchmark_convergence(capsys):
    thresholds = json.loads((Path(__file__).parent / "thresholds.json").read_text())
    limits = {"SCH": thresholds["sch_igd_median"], "ZDT1": thresholds["zdt1_igd_median"]}
    medians = {}
    tmax = 0.0
    for name, scale, n_seeds in (("SCH", (4.0, 4.0), 10), ("ZDT1", (1.0, 1.0), 10)):
        bp = get_benchmark(name)
        front = bp.analytic_front(1000)
        vals = []
        for seed in range(n_seeds):
            cfg = MocssConfig(n_cps=100, iterations=200, archive_capacity=100, seed=seed)
            t0 = perf_counter()
            res = run_mocss(bp, cfg)
            tmax = max(tmax, perf_counter() - t0)
            vals.append(igd(res.objectives, front, scale=scale))
        medians[name] = statistics.median(vals)

    ok = all(medians[k] < limits[k] for k in limits) and tmax < 30.0
    _emit(capsys, "AC-05", ok,
          f"median IGD over 10 seeds: SCH {medians['SCH']:.4f} (<{limits['SCH']}), "
          f"ZDT1 {medians['ZDT1']:.4f} (<{limits['ZDT1']}), slowest run {tmax:.1f}s (<30s)")
    assert ok


# -- shared end-to-end dam run (criteria 6, 8, 9) ------------------------------


@pytest.fixture(scope="module")
def dam_run():
    problem = DamProblem()
    cfg = MocssConfig(n_cps=30, iterations=50, archive_capacity=100, seed=0)
    snapshots = []

    def hook(it, aF, aV):
        snapshots.append((it, aF.copy(), aV.copy()))

    t0 = perf_counter()
    res = run_mocss(problem, cfg, hook=hook, hv_reference=problem.hv_reference)
    seconds = perf_counter() - t0
    return SimpleNamespace(problem=problem, config=cfg, result=res,
                           snapshots=snapshots, seconds=seconds)


# -- criterion 6: archive invariants ------------------------------------------


def test_criterion_06_archive_invariants(capsys, dam_run):
    cap_violations = 0
    nd_violations = 0
    checked = 0

    def check_snapshots(snaps, capacity):
        nonlocal cap_violations, nd_violations, checked
        for _, aF, aV in snaps:
            checked += 1
            if len(aF) > capacity:
                cap_violations += 1
            if np.any(pareto_rank(aF, aV) != 1):
                nd_violations += 1

    runs = []
    for name in ("SCH", "ZDT1"):
        bp = get_benchmark(name)
        snaps = []
        cfg = MocssConfig(n_cps=30, iterations=60, archive_capacity=40, seed=3)
        res = run_mocss(bp, cfg, hook=lambda it, F, V: snaps.append((it, F.copy(), V.copy())))
        check_snapshots(snaps, cfg.archive_capacity)
        runs.append(res)
    check_snapshots(dam_run.snapshots, dam_run.config.archive_capacity)

    # per-objective extremes, read from the iteration logs, never worsen
    regressions = 0
    for res in runs + [dam_run.result]:
        for key in ("fit1_min", "fit2_min"):
            seq = [e[key] for e in res.log if e[key] is not None]
            if any(b > a + 1e-9 for a, b in zip(seq, seq[1:])):
                regressions += 1

    ok = cap_violations == 0 and nd_violations == 0 and regressions == 0 and checked > 170
    _emit(capsys, "AC-06", ok,
          f"{checked} archive snapshots: {cap_violations} over capacity, "
          f"{nd_violations} dominated members, {regressions} extreme regressions")
    assert ok


# -- criterion 7: dominance ranking vs brute force -----------------------------


def test_criterion_07_rank_oracle(capsys):
    rng = np.random.default_rng(777)
    mismatches = 0
    for _ in range(200):
        F, viol = random_population(rng)
        if not np.array_equal(pareto_rank(F, viol), brute_force_rank(F, viol)):
            mismatches += 1
    ok = mismatches == 0
    _emit(capsys, "AC-07", ok,
          f"200 random constrained populations, {mismatches} rank mismatches")
    assert ok


# -- criterion 8: end-to-end dam optimization ----------------------------------


def test_criterion_08_dam_run(capsys, dam_run):
    res = dam_run.result
    feas = res.violations == 0.0
    n_feas = int(feas.sum())
    Ff = res.objectives[feas]

    nd_ok = bool(np.all(pareto_rank(Ff) == 1)) if n_feas else False
    # spot re-evaluation: archived rows must reproduce and satisfy the
    # geometric constraints when pushed back through the evaluator
    reeval_ok = True
    for x, f in zip(res.positions[feas], Ff):
        e = dam_run.problem.evaluate(x)
        if e.violation != 0.0 or abs(e.fit1 - f[0]) > 1e-6 or abs(e.fit2 - f[1]) > 1e-9:
            reeval_ok = False
            break
    rho = spearman(Ff[:, 0], Ff[:, 1]) if n_feas >= 3 else 0.0

    ok = (dam_run.seconds < 60.0 and n_feas >= 20 and nd_ok and reeval_ok
          and rho < -0.9)
    _emit(capsys, "AC-08", ok,
          f"30x50 run: {dam_run.seconds:.1f}s (<60s), {n_feas} feasible "
          f"nondominated designs (>=20), re-evaluation {'clean' if reeval_ok else 'DIRTY'}, "
          f"volume/margin Spearman {rho:.3f} (<-0.9)")
    assert ok


# -- criterion 9: tournament decision maker -------------------------------------


def test_criterion_09_decision_maker(capsys, dam_run):
    hand = rank_R(np.array([[1.0, 3.0], [2.0, 2.0], [3.0, 1.0]]),
                  Scenario(name="even", weights=(0.5, 0.5)))
    hand_ok = (np.allclose(hand.R, [0.0, np.sqrt(0.5), 0.0], atol=1e-12)
               and hand.best == 1)

    rng = np.random.default_rng(909)
    transform_ok = True
    for _ in range(100):
        n = int(rng.integers(3, 26))
        F = rng.random((n, 2))
        w1 = float(rng.uniform(0.1, 0.9))
        sc = Scenario(name="s", weights=(w1, 1.0 - w1))
        base = rank_R(F, sc)
        G = np.column_stack([np.expm1(2.0 * F[:, 0]), F[:, 1] ** 3 - 4.0])
        res = rank_R(G, sc)
        if not np.allclose(res.R, base.R, atol=1e-12):
            transform_ok = False
            break

    feas = dam_run.result.violations == 0.0
    Ff = dam_run.result.objectives[feas]
    Fa = Ff[acceptable_mask(Ff)]
    picks = []
    for w1 in (0.9, 0.7, 0.5, 0.3, 0.1):
        sc = Scenario(name=f"w{w1:.1f}", weights=(w1, 1.0 - w1))
        picks.append(Fa[rank_R(Fa, sc).best])
    f1 = [p[0] for p in picks]
    f2 = [p[1] for p in picks]
    sweep_ok = (all(a <= b + 1e-9 for a, b in zip(f1, f1[1:]))
                and all(a >= b - 1e-12 for a, b in zip(f2, f2[1:])))

    ok = hand_ok and transform_ok and sweep_ok
    _emit(capsys, "AC-09", ok,
          f"hand case {'exact' if hand_ok else 'WRONG'}, monotone-transform "
          f"invariance on 100 fronts {'holds' if transform_ok else 'BROKEN'}, "
          f"weight sweep volume {f1[0]:.0f}->{f1[-1]:.0f} nondecreasing and "
          f"margin {f2[0]:.4f}->{f2[-1]:.4f} nonincreasing: {sweep_ok}")
    assert ok


# -- criterion 10: byte-identical reruns ----------------------------------------


def test_criterion_10_rerun_determinism(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mocss": {"n_cps": 10, "iterations": 6,
                                         "archive_capacity": 30}}))
    scen = tmp_path / "scen.json"
    scen.write_text(json.dumps([{"name": "even", "weights": [0.5, 0.5]},
                                {"name": "safety", "weights": [0.2, 0.8]}]))
    cols = ("gamma,beta,tc1,tc2,tc3,tc4,tc5,tc6,ru1,ru2,ru3,ru4,ru5,ru6,"
            "rd1,rd2,rd3,rd4,rd5,rd6,fit1,fit2,violation,feasible")
    row = ",".join(map(str, TABLE5))
    archive = tmp_path / "archive.csv"
    archive.write_text(
        f"{cols}\n{row},317086.7,-0.0362,0,1\n{row},320000.0,-0.0370,0,1\n"
        f"{row},325000.0,-0.0380,0,1\n")
    design = ",".join(map(str, TABLE5))

    jobs = {
        "optimize": ["optimize", "--config", str(cfg)],
        "benchmark": ["benchmark", "--problem", "sch", "--config", str(cfg)],
        "decide": ["decide", "--archive", str(archive), "--scenarios", str(scen)],
        "evaluate-geometry": ["evaluate-geometry", "--design", design],
        "stress-field": ["stress-field", "--design", design],
        "ww-surface": ["ww-surface", "--steps", "7"],
    }
    diffs = []
    for name, argv in jobs.items():
        outs = []
        for rep in ("a", "b"):
            out = tmp_path / f"{name}-{rep}"
            code = main(argv + ["--out", str(out)])
            if code != 0:
                diffs.append(f"{name} exit {code}")
                break
            outs.append(out)
        if len(outs) == 2:
            names_a = sorted(p.name for p in outs[0].iterdir())
            names_b = sorted(p.name for p in outs[1].iterdir())
            if names_a != names_b:
                diffs.append(f"{name} file sets differ")
                continue
            for fname in names_a:
                if (outs[0] / fname).read_bytes() != (outs[1] / fname).read_bytes():
                    diffs.append(f"{name}/{fname}")

    ok = not diffs
    _emit(capsys, "AC-10", ok,
          "all six subcommands byte-identical across reruns" if ok
          else f"divergent artifacts: {', '.join(diffs)}")
    assert ok
