"""kdm benchmark: one workload per process, end-to-end or traced per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--toy]

Run from anywhere; kdm is imported from ``src`` next to this directory.  The
run sets up the workload's inputs from ``--seed`` and runs one untimed warm-up
job, then runs jobs back to back for ``--seconds`` seconds on one BLAS thread,
checking every job's outputs.  Human-readable lines come first; the last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones.  ``setup_s`` is timed
in SETUP_PROCESSES fresh processes started one after another with
``--setup-only``: each is timed from its start to the point where its first
timed job would begin, so interpreter start, imports and first-call costs
count, and the median is reported.  With ``--trace 1`` traced and untraced
jobs alternate on the same inputs: the traced ones give the per-layer metrics
(per job) and the pair gives the tracing overhead.  ``--toy`` shrinks every
input for a quick check of the harness itself.  Inputs and model bundles live
in ``.perfbench_work/`` at the checkout root and are removed on exit.
"""

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback

import harness

SETUP_PROCESSES = 4
SETUP_TIMEOUT_S = 60
P90_MIN_JOBS = 100  # a 90th percentile needs ten samples beyond it
REFERENCES = harness.ROOT / "perfbench" / "references.json"

# (metric, unit) of the traced run, all per job unless a share
LAYER_METRICS = (
    ("lowrank.pivoted_cholesky.s", "s"),
    ("lowrank.pivoted_cholesky.self_s", "s"),
    ("lowrank.pivot.s", "s"),
    ("lowrank.schur_flops", "flop"),
    ("lowrank.column.s", "s"),
    ("lowrank.column.calls", "count"),
    ("lowrank.cap_hit_frac", "share"),
    ("estimator.fit.self_s", "s"),
    ("estimator.cross_validate.self_s", "s"),
    ("estimator.solves", "count"),
    ("estimator.validation_loss.s", "s"),
    ("estimator.kernel_eval.s", "s"),
    ("estimator.kernel_eval.entries", "count"),
    ("estimator.save_model.s", "s"),
    ("estimator.save_model.bytes", "bytes"),
    ("estimator.load_model.s", "s"),
    ("hypothesis.run_test.s", "s"),
    ("hypothesis.covariance_matrix.s", "s"),
    ("hypothesis.ell_sum", "count"),
    ("conditional.conditional_weights.s", "s"),
    ("conditional.conditional_weights.calls", "count"),
    ("conditional.pairs", "count"),
    ("conditional.degenerate_frac", "share"),
    ("conditional.fit_conditional.self_s", "s"),
    ("bench.median_heuristic_rho.s", "s"),
    ("bench.independence_test.self_s", "s"),
    ("bench.mixture_energy_study.self_s", "s"),
    ("metrics.energy_score.s", "s"),
    ("cli.ingest_csv.s", "s"),
    ("cli.ingest_csv.rows", "count"),
    ("trace.job_s", "s"),
    ("trace.unattributed_frac", "share"),
    ("trace.overhead_frac", "share"),
)


def _references(workload, size: str, seed: int):
    if not REFERENCES.is_file():
        return None
    with open(REFERENCES) as fh:
        recorded = json.load(fh)
    return recorded.get(workload.name, {}).get(size, {}).get(str(seed))


def _job(workload, checker, index, item, runner=None):
    """Run one job, through ``runner`` if given; returns (ok, seconds or None).

    Garbage left by the previous job is collected first, outside the timing,
    so no job pays for its predecessor's garbage.
    """
    gc.collect()
    try:
        if runner is None:
            t = time.perf_counter()
            summary = workload.run(item)
            seconds = time.perf_counter() - t
        else:
            summary, seconds = runner(index, workload.run, item)
    except Exception:  # one failed job is counted, the run goes on
        if len(checker.problems) < 20:
            checker.problems.append(f"input {index} raised:\n{traceback.format_exc()}")
        return False, None
    return checker.check(index, summary), seconds


def _setup(workload, checker, seed, workdir):
    """Make the inputs and run one untimed warm-up job."""
    pool = workload.setup(seed, workdir)
    _job(workload, checker, 0, pool[0])  # a failure is kept in checker.problems
    gc.freeze()  # the per-job collections then skip everything set-up made
    return pool


def _setup_times(args, problems) -> list:
    """Set-up seconds of SETUP_PROCESSES fresh processes, one after another.

    Each is timed from just before it is started until it reads the clock
    after its warm-up job.  ``time.monotonic`` is the system-wide
    CLOCK_MONOTONIC on Linux, so the two readings compare across processes.
    """
    argv = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", "0", "--setup-only"] + (["--toy"] if args.toy else [])
    times = []
    for _ in range(SETUP_PROCESSES):
        started = time.monotonic()
        try:
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        except subprocess.TimeoutExpired:  # run() has killed and reaped the process
            problems.append(f"a set-up process took over {SETUP_TIMEOUT_S} s")
            continue
        if proc.returncode != 0:
            problems.append(f"a set-up process exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
            continue
        times.append(float(proc.stdout.split()[-1]) - started)
    return times


def _measure(workload, checker, pool, seconds):
    """Jobs back to back for ``seconds``; returns (job times, failed, wall time of the loop)."""
    times, failed = [], 0
    start = time.perf_counter()
    while not times or time.perf_counter() - start < seconds:
        index = len(times) % len(pool)
        ok, dt = _job(workload, checker, index, pool[index])
        times.append(dt)
        failed += not ok
    return times, failed, time.perf_counter() - start


def _measure_traced(workload, checker, pool, seconds):
    """Alternate untraced and traced jobs on the same input, switching which goes first."""
    from spans import Tracer

    tracer = Tracer()
    ratios, attempted, failed = [], 0, 0
    start = time.perf_counter()
    while not ratios or time.perf_counter() - start < seconds:
        pair = len(ratios)
        index = pair % len(pool)
        if pair % 2 == 0:
            ok1, d1 = _job(workload, checker, index, pool[index])
            ok2, d2 = _job(workload, checker, index, pool[index], tracer.job)
        else:
            ok2, d2 = _job(workload, checker, index, pool[index], tracer.job)
            ok1, d1 = _job(workload, checker, index, pool[index])
        attempted += 2
        failed += (not ok1) + (not ok2)
        ratios.append(d2 / d1 if ok1 and ok2 else None)
    return tracer, [r for r in ratios if r is not None], attempted, failed


def _layer_metrics(tracer, jobs, ratios) -> dict:
    """LAYER_METRICS from one traced run: span and counter totals per job, and shares."""
    totals = tracer.summary()
    counts = tracer.counts

    def share(num, den):
        return counts.get(num, 0.0) / counts[den] if counts.get(den) else 0.0

    job_s = totals.get("job.s", 0.0)
    values = {
        "lowrank.cap_hit_frac": share("lowrank.cap_hits", "lowrank.pivoted_cholesky.calls"),
        "conditional.degenerate_frac": share("conditional.degenerate", "conditional.conditional_weights.calls"),
        "trace.job_s": job_s / jobs,
        "trace.unattributed_frac": totals.get("job.self_s", 0.0) / job_s if job_s else 0.0,
        "trace.overhead_frac": statistics.median(ratios) - 1.0 if ratios else 0.0,
    }
    for name, _ in LAYER_METRICS:
        if name not in values:
            values[name] = totals.get(name, counts.get(name, 0.0)) / jobs
    return values


def _print_metric(label, name, value, unit, note=""):
    print(f"{label} {name} = {value:.6g} {unit}{note}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="kdm benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="tiny inputs, for checking the harness")
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, run the warm-up job, print the monotonic clock and exit")
    args = parser.parse_args(argv)

    harness.configure_process()
    try:
        harness.load_kdm()
    except harness.SourceMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS, Checker

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](toy=args.toy)
    size = "toy" if args.toy else "full"
    refs = _references(workload, size, args.seed)
    checker = Checker(workload, refs)
    if refs is None:
        print(f"note: no reference values for {workload.name} ({size}) seed {args.seed}; "
              "checking invariants and repeatability only", file=sys.stderr)

    if args.setup_only:
        with harness.work_dir(workload.name) as workdir:
            _setup(workload, checker, args.seed, str(workdir))
            ready = time.monotonic()
        for problem in checker.problems:
            print(f"check failed: {problem}", file=sys.stderr)
        if checker.problems:
            return 1
        print(repr(ready))
        return 0

    setup_times = [] if args.trace else _setup_times(args, checker.problems)
    with harness.work_dir(workload.name) as workdir:
        pool = _setup(workload, checker, args.seed, str(workdir))
        if args.trace:
            tracer, ratios, attempted, failed = _measure_traced(workload, checker, pool, args.seconds)
        else:
            times, failed, wall = _measure(workload, checker, pool, args.seconds)
            attempted = len(times)

    name = workload.name
    if args.trace:
        jobs = attempted // 2
        values = _layer_metrics(tracer, jobs, ratios)
        metrics = {m: {"value": values[m], "unit": unit} for m, unit in LAYER_METRICS}
        for m, unit in LAYER_METRICS:
            _print_metric(name, m, values[m], unit)
        if tracer.absent:
            print(f"{name} absent layers (reported as 0): {', '.join(tracer.absent)}")
    else:
        ran = [t for t in times if t is not None]  # jobs that returned, right or wrong
        metrics = {
            "job_s_p50": {"value": statistics.median(ran) if ran else 0.0, "unit": "s"},
            "jobs_per_s": {"value": (attempted - failed) / wall, "unit": "1/s"},
            "setup_s": {"value": statistics.median(setup_times) if setup_times else 0.0, "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
        }
        for m, v in metrics.items():
            _print_metric(name, m, v["value"], v["unit"])
        print(f"{name} set-up seconds of each process: {', '.join(f'{t:.4f}' for t in setup_times)}")
        if len(ran) >= P90_MIN_JOBS:
            p90 = statistics.quantiles(ran, n=10)[-1]
            _print_metric(name, "job_s_p90", p90, "s", f" (of {len(ran)} jobs)")
        if "bundle_bytes" in checker.first.get(0, {}):
            _print_metric(name, "bundle_bytes", checker.first[0]["bundle_bytes"], "bytes")
        _print_metric(name, "failed_frac", failed / attempted, "share", f" ({failed} of {attempted} jobs)")
    for problem in checker.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {
        "correct": failed == 0 and not checker.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
