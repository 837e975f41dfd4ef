"""Run every workload of the benchmark and check the harness against BENCHMARK.json.

    python3 perfbench/all.py --toy                   # smoke check, about a minute
    python3 perfbench/all.py [--seeds 1-10] [--seconds S] [--out FILE]

Each workload runs in a fresh process (peak memory is per process): once per
seed untraced, then once traced with the first seed.  Every run must exit 0,
pass its output checks and emit exactly the metrics BENCHMARK.json names,
with their units; with ``--toy`` the recorded toy references for the seed
must exist too.  The tracer must report a hook whose name does not exist as
an absent layer and still trace the rest.  Last, the benchmark is run in a
directory holding only BENCHMARK.json and perfbench/, where it must fail
without printing a result.

With several seeds the script prints, per end-to-end metric, the median and
the spread between the quartiles as a share of the median, the figure the
bounds in BENCHMARK.json are set against; ``--out`` writes them to a file,
with the environment block: Python, numpy, scipy, BLAS name and version,
usable cores, CPU model and BLAS threads.  The exit code is 1 if any check failed.
"""

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time

import harness

ROOT = harness.ROOT
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def _run(cwd, workload: str, seed: int, seconds: float, trace: int, toy: bool):
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)] + (["--toy"] if toy else [])
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=900)


def _result(proc, expected: dict, toy: bool):
    """(result or None, problems) of one run."""
    if proc.returncode != 0:
        return None, [f"exit code {proc.returncode}: {proc.stderr.strip()[-2000:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"output checks failed: {proc.stderr.strip()[-2000:]}")
    if toy and "no reference values" in proc.stderr:
        problems.append("no toy reference values recorded for this seed")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        problems.append(f"metrics {got} differ from BENCHMARK.json {expected}")
    return result, problems


def _fails_without_sources(workload: str) -> bool:
    with harness.work_dir("bare") as bare:
        shutil.copytree(ROOT / "perfbench", bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = _run(bare, workload, 0, 1, 0, True)
    printed = proc.stdout.strip().splitlines()
    return proc.returncode != 0 and not (printed and printed[-1].startswith("{"))


def _tolerates_absent_layer(kdm) -> bool:
    import numpy as np
    from spans import HOOKS, Hook, Tracer

    tracer = Tracer(HOOKS + (Hook("metrics.moved_away", "kdm.metrics", "no_such_function"),))
    # look the name up inside the job, where the wrapper is installed
    tracer.job(0, lambda pts: kdm.bench.median_heuristic_rho(pts), np.arange(10.0).reshape(5, 2))
    return tracer.absent == ["metrics.moved_away"] and "bench.median_heuristic_rho.s" in tracer.summary()


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description="run every benchmark workload")
    parser.add_argument("--seeds", default="0", help="e.g. 1-10 or 0,3,7")
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds, or 1 with --toy")
    parser.add_argument("--toy", action="store_true")
    parser.add_argument("--out", default=None, help="write medians and quartiles here as JSON")
    args = parser.parse_args(argv)
    seeds = harness.parse_seeds(args.seeds)
    seconds = args.seconds or (1 if args.toy else spec["run_seconds"])
    expected = {trace: {m["name"]: m["unit"] for m in spec[key]}
                for trace, key in ((0, "end_to_end"), (1, "per_layer"))}
    harness.configure_process()  # as run.py does, so the environment block shows its setting
    kdm = harness.load_kdm()

    failures = 0
    report = {"env": harness.environment(), "run_seconds": seconds, "seeds": seeds, "toy": args.toy,
              "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        values: dict[str, list] = {}
        runs = [(seed, 0) for seed in seeds] + [(seeds[0], 1)]
        for seed, trace in runs:
            started = time.perf_counter()
            proc = _run(ROOT, workload, seed, seconds, trace, args.toy)
            result, problems = _result(proc, expected[trace], args.toy)
            failures += bool(problems)
            lines = proc.stdout.strip().splitlines()
            print(f"--- {workload} seed {seed} trace {trace}: {time.perf_counter() - started:.1f} s, "
                  f"{'ok' if not problems else problems}", flush=True)
            print("\n".join(lines[:-1]))
            if result is not None:
                for name, m in result["metrics"].items():
                    values.setdefault(name, []).append(m["value"])
        summary = {}
        for name, vals in values.items():
            if name in expected[0] and len(vals) >= 2:
                q1, _, q3 = statistics.quantiles(vals, n=4)
                med = statistics.median(vals)
                summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": vals}
                print(f"=== {workload} {name}: median {med:.6g}, quartile spread {(q3 - q1) / med:.3f} "
                      f"of the median over {len(vals)} seeds")
            else:
                summary[name] = vals[-1]
        report["workloads"][workload] = summary

    ok = _tolerates_absent_layer(kdm)
    failures += not ok
    print(f"--- tracer with a missing name: {'reports it absent' if ok else 'failed'}")
    ok = _fails_without_sources(spec["workloads"][0]["name"])
    failures += not ok
    print(f"--- without sources: {'fails as it should' if ok else 'did not fail'}")
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
