"""Command-line interface: config parsing, subcommand dispatch, artifacts.

Exit codes: 0 success, 1 runtime failure, 2 usage or configuration
error. All artifacts are plain CSV/JSON files; every file written by a
run carries the run manifest's config digest so artifacts and
configurations can be matched after the fact. Reruns with identical
config and seed produce byte-identical artifacts (manifests carry no
wall-clock timestamps for exactly this reason). A command renders all
its artifacts before it makes its output directory, so a run that fails
leaves nothing behind.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import sys

import numpy as np

from . import BENCHMARK_NAMES, __version__
from . import willam_warnke as ww
from .config import ConfigError, load_config, make_mocss_config, make_problem
from .geometry import VARIABLE_NAMES


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
    if isinstance(obj, list):
        return [_round6(v) for v in obj]
    return obj


def _json(obj) -> str:
    return json.dumps(obj, indent=2, allow_nan=False) + "\n"


def _csv(digest: str, header, rows) -> str:
    lines = [f"# manifest: {digest}", ",".join(header)]
    lines.extend(",".join(row) for row in rows)
    return "\n".join(lines) + "\n"


def _log_jsonl(digest: str, entries) -> str:
    lines = [json.dumps({"manifest": digest}, allow_nan=False)]
    lines.extend(json.dumps(_round6(e), allow_nan=False) for e in entries)
    return "\n".join(lines) + "\n"


def _write_artifacts(outdir: str, digest: str, seed, files: dict) -> None:
    """Write the rendered artifacts, file name -> text, and a manifest.json
    whose outputs are those names. Everything is rendered before the
    first file is written, so a failure leaves no partial directory."""
    manifest = {
        "config_digest": digest,
        "seed": seed,
        "version": __version__,
        "timestamps": None,
        "outputs": sorted(files),
    }
    files = {**files, "manifest.json": _json(manifest)}
    os.makedirs(outdir, exist_ok=True)
    for name, text in files.items():
        with open(os.path.join(outdir, name), "w", newline="\n") as fh:
            fh.write(text)


# -- input parsing ------------------------------------------------------------


def _parse_design(raw: str) -> np.ndarray:
    """20 comma-separated values, or a path to a JSON array file of 20
    numbers (not booleans, strings, null or arrays)."""
    if "," in raw:
        tokens = raw.split(",")
        if len(tokens) != 20:
            raise ConfigError(f"design needs 20 values, got {len(tokens)}")
        vals = []
        for name, tok in zip(VARIABLE_NAMES, tokens):
            try:
                vals.append(float(tok))
            except ValueError as exc:
                raise ConfigError(f"design value {name} = {tok.strip()} is not a number") from exc
    else:
        try:
            with open(raw) as fh:
                # an integer past the float range reads as inf, refused below
                vals = json.load(fh, parse_int=float)
        except OSError as exc:
            raise ConfigError(f"cannot read design file {raw!r}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"design file {raw!r} is not valid JSON: {exc}") from exc
        if not isinstance(vals, list):
            raise ConfigError("design file must hold a JSON array")
    if len(vals) != 20:
        raise ConfigError(f"design needs 20 values, got {len(vals)}")
    for name, v in zip(VARIABLE_NAMES, vals):
        if type(v) is not float:
            raise ConfigError(f"design value {name} = {json.dumps(v)} is not a number")
    x = np.asarray(vals, dtype=float)
    bad = ~np.isfinite(x)
    if bad.any():
        i = int(np.argmax(bad))
        raise ConfigError(f"design value {VARIABLE_NAMES[i]} = {x[i]} is not finite")
    return x


def _checked_design(raw: str, problem) -> np.ndarray:
    """The --design values, checked against the problem's bounds."""
    x = _parse_design(raw)
    try:
        problem.check_designs(x[None])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return x


def _seed(text: str) -> int:
    """A --seed value: a non-negative integer, as the schema's mocss.seed."""
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {seed}")
    return seed


# the largest ww-surface --steps: its table holds steps^3 rows, and each
# costs about 0.9 KB of memory while it is built
WW_SURFACE_MAX_STEPS = 51

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
    from .mtdm import Scenario

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
        name, weights = item["name"], item["weights"]
        try:
            # the CSV rows write the name unquoted
            if not (isinstance(name, str) and name) or any(c in name for c in ',"\r\n'):
                raise ValueError("name must be a non-empty string without a comma, double "
                                 f"quote, CR or LF, got {json.dumps(name)}")
            if not isinstance(weights, list) or any(type(w) not in (int, float) for w in weights):
                raise ValueError(f"weights must be an array of numbers, got {json.dumps(weights)}")
            scenario = Scenario(name, tuple(weights))
        except (OverflowError, ValueError) as exc:
            raise ConfigError(f"scenario [{k}] invalid: {exc}") from exc
        if len(scenario.weights) != 2:  # fit1 and fit2
            raise ConfigError(f"scenario [{k}] invalid: {len(scenario.weights)} weights "
                              "for 2 objectives")
        out.append(scenario)
    return out


def _archive_rows(X, F, viol, feas):
    for k in range(len(X)):
        yield (
            [_g6(v) for v in X[k]]
            + [_g6(F[k, 0]), _g6(F[k, 1]), _g6(viol[k]), str(int(feas[k]))]
        )


# -- subcommands --------------------------------------------------------------


def _setup(args, design=False):
    """The config, its digest, the dam problem, the checked --design (when
    asked for) and the output directory."""
    cfg, digest = load_config(args.config)
    problem = make_problem(cfg)
    x = _checked_design(args.design, problem) if design else None
    return cfg, digest, problem, x, args.out or cfg["output"]["directory"]


def _cmd_optimize(args) -> int:
    from .mocss import NonFiniteError, run_mocss

    cfg, digest, problem, _, outdir = _setup(args)
    mocss_cfg = make_mocss_config(cfg, seed=args.seed)
    try:
        res = run_mocss(problem, mocss_cfg)
    except NonFiniteError as exc:
        # as in evaluate: a config value at the edge of the float range
        raise ConfigError("optimize: an objective or violation is not finite "
                          "under this config") from exc

    feas = res.violations == 0.0
    _write_artifacts(outdir, digest, mocss_cfg.seed, {
        "archive.csv": _csv(digest, ARCHIVE_COLUMNS, _archive_rows(
            res.positions, res.objectives, res.violations, feas)),
        "log.jsonl": _log_jsonl(digest, res.log),
    })
    print(f"archive: {len(res.positions)} designs ({int(feas.sum())} feasible), "
          f"{res.n_evaluations} evaluations, artifacts in {outdir}")
    return 0


def _cmd_evaluate(args) -> int:
    problem = make_problem(load_config(args.config)[0])
    ev = problem.evaluate(_checked_design(args.design, problem))
    # a config value at the edge of the float range (a subnormal strength
    # or slope limit) can overflow a quotient; JSON has no inf or NaN
    values = {"fit1": ev.fit1, "fit2": ev.fit2, "violation": ev.violation}
    values.update((f"constraints[{k}]", c)
                  for k, c in enumerate(ev.diagnostics.get("constraints", ())))
    for key, value in values.items():
        if not np.isfinite(value):
            raise ConfigError(f"evaluate: {key} = {value} is not finite under this config")
    print(json.dumps(_round6(ev._asdict()), indent=2, allow_nan=False))
    return 0


def _cmd_evaluate_geometry(args) -> int:
    _, digest, problem, x, outdir = _setup(args, design=True)
    cons = problem.constraint_depths
    v, s_u, s_d, phi = cons.sections(x[:1], x[1:2], x[2:].reshape(3, 1, 6))
    slope = np.maximum(np.abs(s_u), np.abs(s_d))
    rows = [[_f6(c) for c in row] for row in zip(cons.z, *v[:, 0], phi[0], slope[0])]
    _write_artifacts(outdir, digest, None, {"geometry.csv": _csv(
        digest, ["z", "tc", "ru", "rd", "phi_deg", "overhang_slope"], rows)})
    print(f"geometry profile written to {outdir}/geometry.csv")
    return 0


def _cmd_stress_field(args) -> int:
    _, digest, problem, x, outdir = _setup(args, design=True)
    surrogate = problem.stress_surrogate
    states = surrogate(x[2:8], x[8:14])
    margins = ww.criterion_values(states, problem.strength, problem.coeffs)[0]

    rows = [
        [_g6(z), str(face), f"{k}:{lc.kind}", *map(_g6, states[i, k]), _g6(margins[i, k])]
        for i, (z, face) in enumerate(zip(surrogate.z, surrogate.face))
        for k, lc in enumerate(problem.load_cases)
    ]
    _write_artifacts(outdir, digest, None, {"stress_field.csv": _csv(
        digest, ["z", "face", "load_case", "s1", "s2", "s3", "ww_margin"], rows)})
    print(f"stress field written to {outdir}/stress_field.csv")
    return 0


def _cmd_ww_surface(args) -> int:
    _, digest, problem, _, outdir = _setup(args)
    grid = f"[{args.sigma_min:g}, {args.sigma_max:g}] MPa"
    # NaN, an infinite bound or a span past the float range fails this too
    if not 0.0 < args.sigma_max - args.sigma_min < np.inf:
        raise ConfigError(f"--sigma-min/--sigma-max: the grid {grid} needs finite bounds "
                          "with --sigma-max above --sigma-min")
    if args.steps < 2:
        # one point per axis would ignore --sigma-max
        raise ConfigError(f"--steps must be at least 2, got {args.steps}")
    if args.steps > WW_SURFACE_MAX_STEPS:
        raise ConfigError(f"--steps must be at most {WW_SURFACE_MAX_STEPS}, got {args.steps}")

    axis = np.linspace(args.sigma_min, args.sigma_max, args.steps)
    pts = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1)
    states = np.sort(pts.reshape(-1, 3), axis=1)[:, ::-1]
    try:
        # an overflow is a state outside the range; an underflow to zero is not
        with np.errstate(all="raise", under="ignore"):
            margin, f_over, s_term = ww.criterion_values(states, problem.strength,
                                                         problem.coeffs)
    except (ww.EvaluationError, FloatingPointError) as exc:
        raise ConfigError(
            f"--sigma-min/--sigma-max: the grid {grid} "
            f"reaches states outside the criterion's calibrated range ({exc})"
        ) from exc

    rows = [
        [_f6(s[0]), _f6(s[1]), _f6(s[2]), ww.DOMAIN_NAMES[d],
         _f6(fo), _f6(st), _f6(m)]
        for s, d, fo, st, m in zip(states, ww.domain_codes(states), f_over, s_term, margin)
    ]
    _write_artifacts(outdir, digest, None, {"ww_surface.csv": _csv(
        digest, ["sigma1", "sigma2", "sigma3", "domain", "F_over_fc", "S", "margin"], rows)})
    print(f"failure surface samples written to {outdir}/ww_surface.csv")
    return 0


def _cmd_decide(args) -> int:
    # the decision maker serves this command alone, so it loads here
    from .mtdm import acceptable_mask, rank_R

    X, fit1, fit2, viol, feas = _read_archive(args.archive)
    scenarios = _load_scenarios(args.scenarios)
    with open(args.scenarios, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    outdir = args.out

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

    _write_artifacts(outdir, digest, None, {
        "rankings.csv": _csv(digest, ["scenario", "archive_row", "rank", "fit1", "fit2", "R"],
                             ranking_rows),
        "decisions.csv": _csv(digest, ["scenario"] + list(VARIABLE_NAMES) + ["fit1", "fit2", "R"],
                              decision_rows),
    })
    print(f"{len(scenarios)} scenarios decided over {len(idx)} acceptable "
          f"designs, artifacts in {outdir}")
    return 0


def _cmd_benchmark(args) -> int:
    from .benchmarks import get_benchmark, hypervolume2d, igd
    from .mocss import run_mocss

    cfg, digest = load_config(args.config)
    problem = get_benchmark(args.problem)
    mocss_cfg = make_mocss_config(cfg, seed=args.seed)
    outdir = args.out or cfg["output"]["directory"]
    res = run_mocss(problem, mocss_cfg)

    samples = problem.analytic_front(1000)
    scale = samples.max(axis=0) - samples.min(axis=0)
    scale[scale == 0.0] = 1.0

    igd_val = igd(res.objectives, samples, scale=scale)
    hv_val = hypervolume2d(res.objectives, problem.hv_reference, strict=False)

    rows = [[_g6(f1), _g6(f2)] for f1, f2 in res.objectives]
    metrics = {"igd": _round6(igd_val), "hypervolume": _round6(hv_val),
               "seed": mocss_cfg.seed}
    _write_artifacts(outdir, digest, mocss_cfg.seed, {
        "front.csv": _csv(digest, ["f1", "f2"], rows),
        "metrics.json": _json(metrics),
        "log.jsonl": _log_jsonl(digest, res.log),
    })
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

    def add_common(p, design=False, seed=False, out=True):
        p.add_argument("--config", default=None,
                       help="JSON run configuration (defaults apply if omitted)")
        if out:
            p.add_argument("--out", default=None,
                           help="output directory (overrides [output] in config)")
        if design:
            p.add_argument("--design", required=True,
                           help="20 comma-separated values or a JSON array file")
        if seed:
            p.add_argument("--seed", type=_seed, default=None,
                           help="override the configured random seed")

    p = sub.add_parser("optimize", help="run MoCSS on the dam problem")
    add_common(p, seed=True)
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser("evaluate", help="evaluate one design vector")
    add_common(p, design=True, out=False)
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
    # argparse's negative-number pattern has no exponent, so it would take
    # a bound such as -4e1 for an option
    p._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")
    add_common(p)
    p.add_argument("--sigma-min", type=float, default=-60.0,
                   help="grid lower bound, MPa")
    p.add_argument("--sigma-max", type=float, default=5.0,
                   help="grid upper bound, MPa")
    p.add_argument("--steps", type=int, default=11,
                   help=f"grid points per axis, 2 to {WW_SURFACE_MAX_STEPS}")
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
    except Exception as exc:  # noqa: BLE001 - subcommand runtime failures
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
