"""Command-line interface: config parsing, subcommand dispatch, artifacts.

Exit codes: 0 success, 1 runtime failure, 2 usage or configuration
error. All artifacts are plain CSV/JSON files; every file written by a
run carries the run manifest's config digest so artifacts and
configurations can be matched after the fact. Reruns with identical
config and seed produce byte-identical artifacts (manifests carry no
wall-clock timestamps for exactly this reason).

Set ARCHDAM_LOG=debug|info|warning|quiet to control stderr verbosity.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from . import willam_warnke as ww
from .benchmarks import BENCHMARK_NAMES, get_benchmark, hypervolume2d, igd
from .config import (
    ConfigError,
    load_config,
    make_mocss_config,
    make_problem,
    output_directory,
)
from .geometry import DamGeometry, DesignVector, VARIABLE_NAMES
from .mocss import run_mocss
from .mtdm import Scenario, UndefinedSetError, acceptable_mask, rank_R
from .stress_model import evaluate_stresses, sample_grid

log = logging.getLogger("archdam")

_LOG_LEVELS = {
    "debug": logging.DEBUG,
    "info": logging.INFO,
    "warning": logging.WARNING,
    "quiet": logging.ERROR,
}


def _setup_logging():
    level = _LOG_LEVELS.get(os.environ.get("ARCHDAM_LOG", "warning").lower())
    logging.basicConfig(
        level=level if level is not None else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )


# -- formatting ---------------------------------------------------------------


def _g6(x) -> str:
    """Default float emission: 6 significant decimals."""
    # + 0.0 folds IEEE negative zero into plain zero
    return f"{float(x) + 0.0:.6g}"


def _f6(x) -> str:
    """Fixed 6 decimal places, for the interfaces that pin it."""
    return f"{float(x) + 0.0:.6f}"


def _round6(obj):
    """Recursively round floats to 6 significant decimals for JSON output."""
    if isinstance(obj, float):
        return float(_g6(obj))
    if isinstance(obj, dict):
        return {k: _round6(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round6(v) for v in obj]
    if isinstance(obj, (np.floating,)):
        return float(_g6(float(obj)))
    if isinstance(obj, (np.integer,)):
        return int(obj)
    return obj


def _write_text(path: str, text: str):
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


def _write_csv(path: str, digest: str, header, rows):
    lines = [f"# manifest: {digest}", ",".join(header)]
    lines.extend(",".join(row) for row in rows)
    _write_text(path, "\n".join(lines) + "\n")


def _write_manifest(outdir: str, digest: str, seed, outputs) -> str:
    manifest = {
        "config_digest": digest,
        "seed": seed,
        "version": __version__,
        "timestamps": None,
        "outputs": sorted(outputs),
    }
    path = os.path.join(outdir, "manifest.json")
    _write_text(path, json.dumps(manifest, indent=2) + "\n")
    return path


def _write_log_jsonl(path: str, digest: str, entries):
    lines = [json.dumps({"manifest": digest})]
    for e in entries:
        rec = {
            "iter": int(e["iter"]),
            "archive_size": int(e["archive_size"]),
            "fit1_min": _round6(e["fit1_min"]) if e["fit1_min"] is not None else None,
            "fit2_min": _round6(e["fit2_min"]) if e["fit2_min"] is not None else None,
            "hypervolume": _round6(e["hypervolume"]) if e["hypervolume"] is not None else None,
        }
        lines.append(json.dumps(rec))
    _write_text(path, "\n".join(lines) + "\n")


# -- input parsing ------------------------------------------------------------


def _parse_design(raw: str) -> np.ndarray:
    """20 comma-separated values, or a path to a JSON array file."""
    if "," in raw:
        try:
            vals = [float(tok) for tok in raw.split(",")]
        except ValueError as exc:
            raise ConfigError(f"design value not a number: {exc}") from exc
    else:
        try:
            with open(raw) as fh:
                vals = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read design file {raw!r}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"design file {raw!r} is not valid JSON: {exc}") from exc
        if not isinstance(vals, list):
            raise ConfigError("design file must hold a JSON array")
    if len(vals) != 20:
        raise ConfigError(f"design needs 20 values, got {len(vals)}")
    x = np.asarray(vals, dtype=float)
    bad = ~np.isfinite(x)
    if bad.any():
        i = int(np.argmax(bad))
        raise ConfigError(f"design value {VARIABLE_NAMES[i]} = {x[i]} is not finite")
    return x


ARCHIVE_COLUMNS = list(VARIABLE_NAMES) + ["fit1", "fit2", "violation", "feasible"]


def _read_archive(path: str):
    """Parse an archive CSV back into (X, fit1, fit2, violation, feasible).
    A data row needs one finite number per column, and a feasible flag of
    0 or 1 that agrees with violation == 0; ConfigError names the file and
    line of the first row that breaks this."""
    try:
        with open(path) as fh:
            lines = [(k, ln.strip()) for k, ln in enumerate(fh, 1)
                     if ln.strip() and not ln.startswith("#")]
    except OSError as exc:
        raise ConfigError(f"cannot read archive {path!r}: {exc}") from exc
    if not lines:
        raise ConfigError(f"archive {path!r} is empty")
    header = lines[0][1].split(",")
    if header != ARCHIVE_COLUMNS:
        raise ConfigError(
            f"archive {path!r} header mismatch: expected {ARCHIVE_COLUMNS}"
        )
    rows = []
    for k, ln in lines[1:]:
        where = f"archive {path!r} line {k}"
        tokens = ln.split(",")
        if len(tokens) != len(ARCHIVE_COLUMNS):
            raise ConfigError(f"{where}: {len(tokens)} columns, "
                              f"expected {len(ARCHIVE_COLUMNS)}")
        try:
            row = np.array([float(tok) for tok in tokens])
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from exc
        bad = ~np.isfinite(row)
        if bad.any():
            j = int(np.argmax(bad))
            raise ConfigError(f"{where}: {ARCHIVE_COLUMNS[j]} = {row[j]} is not finite")
        violation, feasible = row[22], row[23]
        if feasible not in (0.0, 1.0) or (feasible == 1.0) != (violation == 0.0):
            raise ConfigError(f"{where}: feasible = {_g6(feasible)} does not match "
                              f"violation = {_g6(violation)}")
        rows.append(row)
    if not rows:
        raise ConfigError(f"archive {path!r} has no data rows")
    body = np.array(rows)
    X = body[:, :20]
    return X, body[:, 20], body[:, 21], body[:, 22], body[:, 23] == 1.0


def _load_scenarios(path: str):
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read scenarios {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"scenarios {path!r} not valid JSON: {exc}") from exc
    if not isinstance(raw, list) or not raw:
        raise ConfigError("scenarios file must hold a non-empty JSON array")
    out = []
    for k, item in enumerate(raw):
        if not isinstance(item, dict) or set(item) != {"name", "weights"}:
            raise ConfigError(
                f"scenario [{k}] must be an object with keys name, weights"
            )
        try:
            out.append(Scenario(str(item["name"]), tuple(item["weights"])))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"scenario [{k}] invalid: {exc}") from exc
    return out


def _archive_rows(X, F, viol, feas):
    for k in range(len(X)):
        yield (
            [_g6(v) for v in X[k]]
            + [_g6(F[k, 0]), _g6(F[k, 1]), _g6(viol[k]), str(int(feas[k]))]
        )


# -- subcommands --------------------------------------------------------------


def _cmd_optimize(args) -> int:
    cfg, digest = load_config(args.config)
    problem = make_problem(cfg)
    mocss_cfg = make_mocss_config(cfg, seed=args.seed)
    outdir = args.out or output_directory(cfg)
    os.makedirs(outdir, exist_ok=True)

    log.info("optimize: %d CPs, %d iterations, seed %d",
             mocss_cfg.n_cps, mocss_cfg.iterations, mocss_cfg.seed)
    res = run_mocss(problem, mocss_cfg)

    feas = res.violations == 0.0
    _write_csv(
        os.path.join(outdir, "archive.csv"), digest, ARCHIVE_COLUMNS,
        _archive_rows(res.positions, res.objectives, res.violations, feas),
    )
    _write_log_jsonl(os.path.join(outdir, "log.jsonl"), digest, res.log)
    _write_manifest(outdir, digest, mocss_cfg.seed,
                    ["archive.csv", "log.jsonl"])
    print(f"archive: {len(res.positions)} designs ({int(feas.sum())} feasible), "
          f"{res.n_evaluations} evaluations, artifacts in {outdir}")
    return 0


def _cmd_evaluate(args) -> int:
    cfg, _ = load_config(args.config)
    problem = make_problem(cfg)
    x = _parse_design(args.design)
    try:
        ev = problem.evaluate(x)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    out = {
        "fit1": _round6(float(ev.fit1)),
        "fit2": _round6(float(ev.fit2)),
        "violation": _round6(float(ev.violation)),
        "feasible": bool(ev.feasible),
        "diagnostics": _round6(dict(ev.diagnostics)),
    }
    print(json.dumps(out, indent=2))
    return 0


def _cmd_evaluate_geometry(args) -> int:
    cfg, digest = load_config(args.config)
    problem = make_problem(cfg)
    x = _parse_design(args.design)
    geo = DamGeometry(design=DesignVector.from_array(x),
                      levels=problem.levels, canyon=problem.canyon)
    outdir = args.out or output_directory(cfg)
    os.makedirs(outdir, exist_ok=True)

    zs = np.linspace(0.0, problem.levels.h, 50)
    rows = []
    for z in zs:
        su, sd = geo.face_slopes(z)
        rows.append([
            _f6(z), _f6(geo.tc(z)), _f6(geo.ru(z)), _f6(geo.rd(z)),
            _f6(geo.central_angle(z)), _f6(max(abs(float(su)), abs(float(sd)))),
        ])
    _write_csv(os.path.join(outdir, "geometry.csv"), digest,
               ["z", "tc", "ru", "rd", "phi_deg", "overhang_slope"], rows)
    _write_manifest(outdir, digest, None, ["geometry.csv"])
    print(f"geometry profile written to {outdir}/geometry.csv")
    return 0


def _cmd_stress_field(args) -> int:
    cfg, digest = load_config(args.config)
    problem = make_problem(cfg)
    x = _parse_design(args.design)
    geo = DamGeometry(design=DesignVector.from_array(x),
                      levels=problem.levels, canyon=problem.canyon)
    outdir = args.out or output_directory(cfg)
    os.makedirs(outdir, exist_ok=True)

    grid = sample_grid(geo, problem.canyon, problem.n_depths, problem.n_arc)
    field = evaluate_stresses(geo, problem.canyon, problem.load_cases,
                              grid=grid, moment_share=problem.moment_share)
    margins = ww.criterion_values(field.states, problem.strength, problem.coeffs)

    rows = []
    for i in range(len(field.x)):
        for k, lc in enumerate(field.cases):
            s1, s2, s3 = field.states[i, k]
            rows.append([
                _g6(field.x[i]), _g6(field.z[i]), str(field.face[i]),
                f"{k}:{lc.kind}", _g6(s1), _g6(s2), _g6(s3),
                _g6(margins[i, k]),
            ])
    _write_csv(os.path.join(outdir, "stress_field.csv"), digest,
               ["x", "z", "face", "load_case", "s1", "s2", "s3", "ww_margin"],
               rows)
    _write_manifest(outdir, digest, None, ["stress_field.csv"])
    print(f"stress field written to {outdir}/stress_field.csv")
    return 0


def _cmd_ww_surface(args) -> int:
    cfg, digest = load_config(args.config)
    problem = make_problem(cfg)
    outdir = args.out or output_directory(cfg)
    os.makedirs(outdir, exist_ok=True)
    if args.sigma_max <= args.sigma_min:
        raise ConfigError("--sigma-max must exceed --sigma-min")

    axis = np.linspace(args.sigma_min, args.sigma_max, args.steps)
    pts = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1)
    states = np.sort(pts.reshape(-1, 3), axis=1)[:, ::-1]
    margin, f_over, s_term, dom = ww.evaluate_components(
        states, problem.strength, problem.coeffs
    )

    rows = [
        [_f6(s[0]), _f6(s[1]), _f6(s[2]), ww.DOMAIN_NAMES[d],
         _f6(fo), _f6(st), _f6(m)]
        for s, d, fo, st, m in zip(states, dom, f_over, s_term, margin)
    ]
    _write_csv(os.path.join(outdir, "ww_surface.csv"), digest,
               ["sigma1", "sigma2", "sigma3", "domain", "F_over_fc", "S",
                "margin"], rows)
    _write_manifest(outdir, digest, None, ["ww_surface.csv"])
    print(f"failure surface samples written to {outdir}/ww_surface.csv")
    return 0


def _cmd_decide(args) -> int:
    X, fit1, fit2, viol, feas = _read_archive(args.archive)
    scenarios = _load_scenarios(args.scenarios)
    with open(args.scenarios, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    outdir = args.out
    os.makedirs(outdir, exist_ok=True)

    F = np.column_stack([fit1, fit2])
    keep = feas & acceptable_mask(F)
    idx = np.flatnonzero(keep)
    if len(idx) < 2:
        raise RuntimeError(
            f"decision needs at least 2 feasible designs with fit2 <= 0; "
            f"archive has {len(idx)}"
        )
    Fk = F[idx]

    ranking_rows, decision_rows = [], []
    for sc in scenarios:
        res = rank_R(Fk, sc)
        for pos, j in enumerate(res.order):
            ranking_rows.append([
                sc.name, str(int(idx[j])), str(pos + 1),
                _g6(Fk[j, 0]), _g6(Fk[j, 1]), f"{res.R[j]:.4f}",
            ])
        b = res.best
        decision_rows.append(
            [sc.name] + [_g6(v) for v in X[idx[b]]]
            + [_g6(Fk[b, 0]), _g6(Fk[b, 1]), f"{res.R[b]:.4f}"]
        )

    _write_csv(os.path.join(outdir, "rankings.csv"), digest,
               ["scenario", "archive_row", "rank", "fit1", "fit2", "R"],
               ranking_rows)
    _write_csv(os.path.join(outdir, "decisions.csv"), digest,
               ["scenario"] + list(VARIABLE_NAMES) + ["fit1", "fit2", "R"],
               decision_rows)
    _write_manifest(outdir, digest, None, ["rankings.csv", "decisions.csv"])
    print(f"{len(scenarios)} scenarios decided over {len(idx)} acceptable "
          f"designs, artifacts in {outdir}")
    return 0


def _cmd_benchmark(args) -> int:
    cfg, digest = load_config(args.config)
    problem = get_benchmark(args.problem)
    mocss_cfg = make_mocss_config(cfg, seed=args.seed)
    outdir = args.out or output_directory(cfg)
    os.makedirs(outdir, exist_ok=True)

    log.info("benchmark %s: %d CPs, %d iterations, seed %d",
             problem.name, mocss_cfg.n_cps, mocss_cfg.iterations,
             mocss_cfg.seed)
    res = run_mocss(problem, mocss_cfg, hv_reference=problem.hv_reference)

    name = problem.name.lower()
    golden = Path(__file__).parent / "data" / "golden" / f"{name}_front.csv"
    samples = np.loadtxt(golden, delimiter=",", skiprows=1)
    scale = samples.max(axis=0) - samples.min(axis=0)
    scale[scale == 0.0] = 1.0

    igd_val = igd(res.objectives, samples, scale=scale)
    hv_val = hypervolume2d(res.objectives, problem.hv_reference, strict=False)

    rows = [[_g6(f1), _g6(f2)] for f1, f2 in res.objectives]
    _write_csv(os.path.join(outdir, "front.csv"), digest, ["f1", "f2"], rows)
    metrics = {"igd": _round6(igd_val), "hypervolume": _round6(hv_val),
               "seed": mocss_cfg.seed}
    _write_text(os.path.join(outdir, "metrics.json"),
                json.dumps(metrics, indent=2) + "\n")
    _write_log_jsonl(os.path.join(outdir, "log.jsonl"), digest, res.log)
    _write_manifest(outdir, digest, mocss_cfg.seed,
                    ["front.csv", "metrics.json", "log.jsonl"])
    print(f"{problem.name}: igd={metrics['igd']} "
          f"hypervolume={metrics['hypervolume']}, artifacts in {outdir}")
    return 0


# -- dispatch -----------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="archdam",
        description="Two-objective parabolic arch dam shape optimization "
                    "with tournament decision making.",
    )
    parser.add_argument("--version", action="version",
                        version=f"archdam {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, design=False, seed=False):
        p.add_argument("--config", default=None,
                       help="JSON run configuration (defaults apply if omitted)")
        p.add_argument("--out", default=None,
                       help="output directory (overrides [output] in config)")
        if design:
            p.add_argument("--design", required=True,
                           help="20 comma-separated values or a JSON array file")
        if seed:
            p.add_argument("--seed", type=int, default=None,
                           help="override the configured random seed")

    p = sub.add_parser("optimize", help="run MoCSS on the dam problem")
    add_common(p, seed=True)
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser("evaluate", help="evaluate one design vector")
    add_common(p, design=True)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("evaluate-geometry",
                       help="tabulate thickness/radii/angle/slope vs depth")
    add_common(p, design=True)
    p.set_defaults(func=_cmd_evaluate_geometry)

    p = sub.add_parser("stress-field",
                       help="tabulate surrogate stresses and failure margins")
    add_common(p, design=True)
    p.set_defaults(func=_cmd_stress_field)

    p = sub.add_parser("ww-surface",
                       help="sample the failure criterion on a stress grid")
    add_common(p)
    p.add_argument("--sigma-min", type=float, default=-60.0,
                   help="grid lower bound, MPa")
    p.add_argument("--sigma-max", type=float, default=5.0,
                   help="grid upper bound, MPa")
    p.add_argument("--steps", type=int, default=11,
                   help="grid points per axis")
    p.set_defaults(func=_cmd_ww_surface)

    p = sub.add_parser("decide", help="rank an archive under scenarios")
    p.add_argument("--archive", required=True, help="archive CSV from optimize")
    p.add_argument("--scenarios", required=True,
                   help="JSON array of {name, weights}")
    p.add_argument("--out", default=".", help="output directory")
    p.set_defaults(func=_cmd_decide)

    p = sub.add_parser("benchmark", help="run MoCSS on an analytic benchmark")
    add_common(p, seed=True)
    p.add_argument("--problem", required=True,
                   choices=[n.lower() for n in BENCHMARK_NAMES])
    p.set_defaults(func=_cmd_benchmark)

    return parser


def main(argv=None) -> int:
    _setup_logging()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except UndefinedSetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - subcommand runtime failures
        log.debug("unhandled failure", exc_info=True)
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
