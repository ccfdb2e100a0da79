"""archdam benchmark: one workload per run, one JSON result line at the end.

    python3 archbench/run.py --workload dam_optimize --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout: the package is imported from
./src, never from an installed copy. With --trace 0 the last line holds
the end-to-end metrics (wall_s, setup_s, peak_rss_mb); with --trace 1 it
holds the per-layer metrics of a traced run. See archbench/README.md.
"""

import os

# one thread everywhere; must be set before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import functools  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
MIN_ROUNDS = 3
SETUP_SAMPLES = 9

# Set-up in a fresh interpreter: numpy is imported before the clock starts,
# because interpreter and numpy start-up are not the program's to control.
# The child calibrates its own speed around the timed steps.
SETUP_CODE = """
import json, statistics, sys
from time import perf_counter
src, here, cfg_path, workload = sys.argv[1:5]
sys.path.insert(0, src)
sys.path.insert(0, here)
import numpy
import clock
before = [clock.calibrate() for _ in range(3)]
t0 = perf_counter()
import archdam
t1 = perf_counter()
cfg, _ = archdam.load_config(cfg_path)
t2 = perf_counter()
if workload == "zdt1_optimize":
    archdam.get_benchmark("ZDT1")
else:
    archdam.make_problem(cfg)
archdam.make_mocss_config(cfg)
t3 = perf_counter()
after = [clock.calibrate() for _ in range(3)]
if not archdam.__file__.startswith(src):
    sys.exit("archdam imported from outside " + src)
scale = clock.NOMINAL_S / statistics.median(before + after)
print(json.dumps([scale * (t1 - t0), scale * (t2 - t1), scale * (t3 - t2)]))
"""


def setup_sample(workload, cfg_path):
    """One set-up in a fresh interpreter: (import, load_config, problem)
    seconds at nominal machine speed."""
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), str(HERE), str(cfg_path), workload],
                          capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def per_layer(tracer, rounds, scale):
    """Per-layer metrics of the traced rounds, as {name: (value, unit)},
    times scaled to nominal machine speed."""
    times = {k: (calls, scale * total, scale * own)
             for k, (calls, total, own) in tracer.layer_times().items()}
    c = tracer.counts

    def per(total, n):
        return total / n if n else 0.0

    def t(name):
        return times.get(name, (0, 0.0, 0.0))

    designs = c["objectives.designs"]
    iters = c["mocss.iterations"]
    m = {}
    calls, total, own = t("objectives.evaluate_batch")
    m["objectives.evaluate_batch.us_per_design"] = (per(total * 1e6, designs), "us")
    m["objectives.evaluate_batch.self_us_per_design"] = (per(own * 1e6, designs), "us")
    m["objectives.evaluate_batch.calls"] = (calls / rounds, "count")
    for key in ("objectives.designs", "objectives.feasible", "objectives.degenerate"):
        m[key] = (c[key] / rounds, "count")
    for name in ("geometry.DamGeometry", "geometry.check_radii",
                 "geometry.geometric_constraints", "geometry.volume"):
        calls, total, _ = t(name)
        m[f"{name}.us_per_design"] = (per(total * 1e6, designs), "us")
        m[f"{name}.calls"] = (calls / rounds, "count")
    for name in ("stress_model.sample_grid", "stress_model.evaluate_stresses",
                 "willam_warnke.criterion_values", "willam_warnke.hydrostatic_validity"):
        m[f"{name}.us_per_design"] = (per(t(name)[1] * 1e6, designs), "us")
    m["stress_model.states"] = (c["stress_model.states"] / rounds, "count")
    for dom in ("CCC", "TCC", "TTC", "TTT"):
        m[f"willam_warnke.states_{dom}"] = (c[f"willam_warnke.states_{dom}"] / rounds, "count")
    m["mocss.iterations"] = (iters / rounds, "count")
    m["mocss.evaluations"] = (c["mocss.evaluations"] / rounds, "count")
    calls, total, _ = t("mocss.pareto_rank")
    m["mocss.pareto_rank.us_per_iter"] = (per(total * 1e6, iters), "us")
    m["mocss.pareto_rank.calls"] = (calls / rounds, "count")
    m["mocss.pareto_rank.fronts_per_call"] = (per(c["mocss.pareto_rank.fronts"], calls), "count")
    m["mocss.self_us_per_iter"] = (per(t("mocss.run_mocss")[2] * 1e6, iters), "us")
    m["mocss.archive_size_final"] = (c["mocss.archive_size_final"], "count")
    m["mocss.infeasible_iters"] = (c["mocss.infeasible_iters"] / rounds, "count")
    m["benchmarks.hypervolume2d.us_per_iter"] = (per(t("benchmarks.hypervolume2d")[1] * 1e6, iters), "us")
    m["benchmarks.evaluate_batch.us_per_design"] = (
        per(t("benchmarks.evaluate_batch")[1] * 1e6, c["benchmarks.designs"]), "us")
    calls, total, _ = t("mtdm.rank_R")
    m["mtdm.rank_R.us"] = (per(total * 1e6, calls), "us")
    m["mtdm.rank_R.calls"] = (calls / rounds, "count")
    return m


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "archdam" / "__init__.py").is_file():
        print(f"error: no archdam sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import workloads
    from clock import Clock
    from spans import Tracer

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    work = workloads.WORKLOADS[args.workload](args.seed)

    OUT.mkdir(exist_ok=True)
    cfg_path = OUT / f"config-{args.workload}-{args.seed}.json"
    cfg_path.write_text(json.dumps(work.config()))
    cfg, _ = workloads.archdam.load_config(str(cfg_path))
    work.setup(cfg)

    # Set-up samples are spread over the measuring window, between rounds,
    # so that they see the same mix of machine states as the rounds do.
    # Each round is scaled by the calibrations taken from just before it
    # to just after it.
    tracer = Tracer() if args.trace else None
    clock = Clock()
    plain, traced, setups, scales = [], [], [], []
    start = perf_counter()
    r = 0
    while r < MIN_ROUNDS or perf_counter() - start < args.seconds:
        while len(setups) < min(SETUP_SAMPLES, SETUP_SAMPLES * (perf_counter() - start) / args.seconds):
            setups.append(setup_sample(args.workload, cfg_path))
        # a traced run alternates untraced and traced rounds; the difference
        # of their medians is the tracing overhead
        trace_this = tracer is not None and r % 2 == 1
        clock.calibrate()
        first = len(clock.samples) - 1
        t0, spent = perf_counter(), clock.spent
        if trace_this:
            work.tick = functools.partial(tracer.untimed, clock.tick)
            with tracer:
                out = work.round()
        else:
            work.tick = clock.tick
            out = work.round()
        elapsed = perf_counter() - t0 - (clock.spent - spent)
        clock.calibrate()
        scale = clock.scale(first)
        (traced if trace_this else plain).append(scale * elapsed)
        if trace_this:
            scales.append(scale)
        work.verify(out)
        r += 1
    while len(setups) < SETUP_SAMPLES:
        setups.append(setup_sample(args.workload, cfg_path))
    setup_s = statistics.median(sum(s) for s in setups)
    import_s, load_s, problem_s = (statistics.median(col) for col in zip(*setups))
    wall_s = statistics.median(plain)
    if tracer is None:
        metrics = {
            "wall_s": (wall_s, "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    else:
        metrics = per_layer(tracer, len(traced), statistics.median(scales))
        metrics["config.import_archdam.ms"] = (import_s * 1e3, "ms")
        metrics["config.load_config.ms"] = (load_s * 1e3, "ms")
        metrics["config.make_problem.ms"] = (problem_s * 1e3, "ms")
        metrics["trace.overhead_s"] = (statistics.median(traced) - wall_s, "s")
        tracer.write(OUT / f"spans-{args.workload}-{args.seed}.jsonl")

    print(f"{args.workload} seed {args.seed}: {r} rounds, "
          f"{work.attempted} operations attempted, {work.failed} failed; "
          f"speed factor {clock.scale():.4f} from {len(clock.samples)} calibrations")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<48} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": work.failed == 0,
        "attempted": work.attempted,
        "failed": work.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
