"""Benchmark for split244: one command, one process, one thread.

    python3 bench/run.py --workload analyze_curves --seed 1 --seconds 30 --trace 0

Every workload is a closed loop with one client: each input is sent after
the previous one returned.  The inputs come from the seed, their references
are computed before they are timed, and every output is checked.  With
``--trace 0`` the run prints the end-to-end metrics; with ``--trace 1`` it
prints the per-layer metrics of a traced run, the root panel and the
tracing overhead.  The last line of standard output is one JSON object;
the full result, with the environment, goes to ``.bench_out/``.
See bench/README.md.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 5
PANEL_REPEATS = 3

# Set-up in a fresh interpreter: cold import, gates, sieve and warm-up.
SETUP_SNIPPET = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import workloads
workloads.set_up()
print(time.perf_counter() - start)
"""


@dataclass
class Outcome:
    case: object
    latency: float
    returned: bool
    verdict: tuple | None  # None when the output passed its check
    output: object = None


def run_case(workload, case, tracer=None) -> Outcome:
    """Time one call, under the tracer if one is given, then check it."""
    from workloads import FAILED, WRONG

    if tracer is not None:
        tracer.active = True
    start = time.perf_counter()
    try:
        output, error = workload.call(case), None
    except Exception as exc:  # counted as a failed input, the run goes on
        output, error = None, exc
    latency = time.perf_counter() - start
    if tracer is not None:
        tracer.active = False
    if error is not None:
        verdict = (FAILED, f"{type(error).__name__}: {error}")
    else:
        try:
            verdict = workload.check(case, output)
        except Exception as exc:  # an output the check cannot read
            verdict = (WRONG, f"unreadable output, {type(exc).__name__}: {exc}")
    return Outcome(case, latency, error is None, verdict, output)


def measure(workload, cases, seconds: float, tracer=None) -> tuple[list[Outcome], list[Outcome]]:
    """Run cases one after another until ``seconds`` of busy time have
    passed, stopping at a round boundary, or until the cases run out.
    Cases are drawn a chunk at a time, so each chunk's references are
    computed before any of its inputs is timed.

    With a tracer, each case runs twice in a row, untraced and traced, the
    order alternating from case to case, so that drift in the machine's
    speed and warm caches fall on both sides alike.  Returns the untraced
    outcomes and the traced ones (empty without a tracer)."""
    plain: list[Outcome] = []
    traced: list[Outcome] = []
    busy = 0.0
    while True:
        chunk = list(itertools.islice(cases, workload.chunk))
        if not chunk:
            return plain, traced
        for case in chunk:
            sides = [(plain, None)]
            if tracer is not None:
                tracer.input_id = len(plain)
                sides.append((traced, tracer))
                if len(plain) % 2:
                    sides.reverse()
            for outcomes, side_tracer in sides:
                outcomes.append(run_case(workload, case, side_tracer))
            busy += plain[-1].latency
            if busy >= seconds and len(plain) % workload.round_size == 0:
                return plain, traced


def percentile(values: list, pct: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def tally(outcomes: list[Outcome]) -> dict:
    from workloads import FAILED, WRONG

    attempted = len(outcomes)
    failed = sum(1 for o in outcomes if o.verdict and o.verdict[0] == FAILED)
    wrong = sum(1 for o in outcomes if o.verdict and o.verdict[0] == WRONG)
    return {
        "attempted": attempted,
        "failed": failed,
        "wrong": wrong,
        "failed_share": failed / attempted,
        "wrong_share": wrong / attempted,
    }


def end_to_end(workload, outcomes: list[Outcome], setup_samples: list) -> tuple[dict, dict]:
    latencies = [o.latency for o in outcomes]
    busy = sum(latencies)
    tail = percentile(latencies, workload.tail_pct)
    return {
        "throughput_per_s": (sum(o.returned for o in outcomes) / busy, "1/s"),
        "latency_p50_ms": (1e3 * statistics.median(latencies), "ms"),
        "latency_tail_ms": (1e3 * tail, "ms"),
        "setup_s": (statistics.median(setup_samples), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }, {
        "tail_percentile": workload.tail_pct,
        "samples": len(latencies),
        "samples_beyond_tail": sum(1 for x in latencies if x > tail),
        "busy_s": busy,
        "setup_samples_s": setup_samples,
    }


def cold_setups(repeats: int) -> list[float]:
    samples = []
    for _ in range(repeats):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_SNIPPET, str(BENCH)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(done.stdout.split()[-1]))
    return samples


def root_panel() -> dict:
    """ROADMAP item 1's root panel: median time of ``polynomial_roots`` on
    three fixed polynomials, and whether it raised NonConvergence."""
    from split244 import curves, loci, oracle
    from split244.errors import NonConvergence

    panel = {
        "calibration": [0, 1, 1, 1, 1, 1],
        "uv_large": list(curves.genus2_from_uv(curves.UVPoint(20, -20)).sextic.coeffs),
        "clustered_f1": list(loci.F1_POLY.restrict(2, (Fraction(13, 3), Fraction(3, 4))).coeffs),
    }
    metrics = {}
    for name, coeffs in panel.items():
        times, failures = [], 0
        for _ in range(PANEL_REPEATS):
            start = time.perf_counter()
            try:
                oracle.polynomial_roots(coeffs)
            except NonConvergence:
                failures += 1
            times.append(time.perf_counter() - start)
        metrics[f"oracle.polynomial_roots.panel_{name}_ms"] = (1e3 * statistics.median(times), "ms")
        metrics[f"oracle.polynomial_roots.panel_{name}_nonconvergence"] = (failures, "count")
    return metrics


def failing_fiber() -> dict:
    """The fiber_scan input kept out of the timed loop because a root solve
    fails on it: its time under the tracer, the NonConvergence raised in
    ``polynomial_roots`` and the branches the CLI dropped."""
    import tracing
    from split244 import oracle
    from workloads import FAILING_FIBER, FiberScan, fiber_case

    scan, case = FiberScan(), fiber_case(*FAILING_FIBER)
    tracer = tracing.Tracer()
    tracer.install(oracle.DEFAULT_INVOLUTION_TOL)
    tracer.active = True
    try:
        start = time.perf_counter()
        out = scan.call(case)
        elapsed = time.perf_counter() - start
    finally:
        tracer.uninstall()
    return {
        "cli.main.failing_fiber_ms": (1e3 * elapsed, "ms"),
        "cli.main.failing_fiber_nonconvergence": (tracer.layer_metrics()["oracle.polynomial_roots"]["failed"], "count"),
        "cli.main.failing_fiber_dropped": (len(scan.dropped(case, scan.rows(out))), "count"),
    }


def traced_run(workload, seed: int, seconds: float) -> tuple:
    """The root panel and the failing fiber, then inputs for half the time,
    each run untraced and traced; the ratio of the two busy times is the
    tracing overhead."""
    import tracing
    from split244 import oracle

    metrics = root_panel()
    metrics.update(failing_fiber())
    tracer = tracing.Tracer()
    tracer.install(oracle.DEFAULT_INVOLUTION_TOL)
    try:
        plain, traced = measure(workload, workload.cases(seed), seconds / 2, tracer)
    finally:
        tracer.uninstall()
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{workload.name}-seed{seed}.jsonl")

    layers = tracer.layer_metrics()
    for name, row in layers.items():
        metrics[f"{name}.calls"] = (row["calls"], "count")
        metrics[f"{name}.busy_s"] = (row["busy_s"], "s")
        metrics[f"{name}.self_s"] = (row["self_s"], "s")
        metrics[f"{name}.failed"] = (row["failed"], "count")
    metrics["oracle.best_involution_candidate.accept_ratio"] = (
        tracer.accepted / tracer.attempts if tracer.attempts else 0.0, "ratio",
    )
    rows = row_verdicts(workload, traced)
    for verdict, count in rows.items():
        metrics[f"cli.main.rows.{verdict}"] = (count, "count")
    untraced_s = sum(o.latency for o in plain)
    traced_s = sum(o.latency for o in traced)
    metrics["trace.overhead_pct"] = (100 * (traced_s / untraced_s - 1), "%")
    counts = tally(traced)
    metrics["failed_share"] = (counts["failed_share"], "ratio")
    metrics["wrong_share"] = (counts["wrong_share"], "ratio")
    extra = {"untraced_busy_s": untraced_s, "traced_busy_s": traced_s, "untraced": tally(plain), "layers": layers}
    return traced, plain, metrics, extra


def row_verdicts(workload, outcomes: list[Outcome]) -> dict:
    from workloads import VERDICTS

    counts = dict.fromkeys(VERDICTS, 0)
    rows = getattr(workload, "rows", None)  # only fiber_scan drives the CLI
    for o in outcomes:
        if rows and o.returned:
            for row in rows(o.output):
                counts[row["verdict"]] += 1
    return counts


def environment() -> dict:
    import mpmath

    commit = "unknown"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
        lines = done.stdout.split()
        if done.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": commit,
        "platform": platform.platform(),
    }


def report(workload, outcomes, metrics: dict, extra: dict, env: dict) -> None:
    print(f"workload {workload.name}: {len(outcomes)} inputs, environment {json.dumps(env, sort_keys=True)}")
    counts = tally(outcomes)
    print(
        "failed_share {failed_share:.4f} ({failed}/{attempted})  wrong_share {wrong_share:.4f} ({wrong}/{attempted})".format(**counts)
    )
    for o in outcomes:
        if o.verdict:
            print(f"  {o.verdict[0]}: {o.case!r:.120}: {o.verdict[1]}")
    if "layers" in extra:
        print(f"{'layer entry point':42} {'calls':>8} {'busy_s':>10} {'self_s':>10} {'failed':>7}")
        for name, row in extra["layers"].items():
            if row["calls"]:
                print(f"{name:42} {row['calls']:8d} {row['busy_s']:10.4f} {row['self_s']:10.4f} {row['failed']:7d}")
    for name, (value, unit) in metrics.items():
        if "layers" not in extra or not name.endswith(("calls", "busy_s", "self_s", ".failed")):
            print(f"{name} = {value:.6g} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(BENCH))
    try:
        import workloads
    except ImportError as exc:
        print(f"bench: cannot import split244 from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    import split244

    if Path(split244.__file__).resolve().parent != ROOT / "src" / "split244":
        print(f"bench: split244 imported from {split244.__file__}, not from this checkout", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    env = environment()
    workloads.set_up()

    if args.trace:
        outcomes, plain, metrics, extra = traced_run(workload, args.seed, args.seconds)
        wrong = tally(plain)["wrong"] + tally(outcomes)["wrong"]
    else:
        setup_samples = cold_setups(SETUP_REPEATS)
        outcomes, _ = measure(workload, workload.cases(args.seed), args.seconds)
        metrics, extra = end_to_end(workload, outcomes, setup_samples)
        wrong = tally(outcomes)["wrong"]

    report(workload, outcomes, metrics, extra, env)
    counts = tally(outcomes)
    OUT.mkdir(exist_ok=True)
    result = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "counts": counts,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "detail": {k: v for k, v in extra.items() if k != "layers"},
        "latencies_s": [o.latency for o in outcomes],
        "problems": [{"input": i, "case": repr(o.case), "verdict": o.verdict[0], "detail": o.verdict[1]}
                     for i, o in enumerate(outcomes) if o.verdict],
    }
    (OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
