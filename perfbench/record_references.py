"""Record reference outputs that later benchmark runs compare against.

    python3 perfbench/record_references.py --seeds 0-31 [--workloads a,b] [--toy]

Runs every input of each workload's pool once per seed and stores the job
summaries (without the keys a workload marks as unreferenced) in
``perfbench/references.json``, replacing entries for the same workload, size
and seed.  Record only at a commit whose outputs are known to be right: the
benchmark treats any later difference beyond the tolerance in
``workloads.py`` as a wrong result.
"""

import argparse
import json
import os
import sys

import harness


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="e.g. 0-31 or 1,5,9")
    parser.add_argument("--workloads", default=None, help="comma-separated; all when omitted")
    parser.add_argument("--toy", action="store_true")
    args = parser.parse_args(argv)

    harness.configure_process()
    harness.load_kdm()
    from workloads import WORKLOADS

    names = args.workloads.split(",") if args.workloads else list(WORKLOADS)
    size = "toy" if args.toy else "full"
    path = harness.ROOT / "perfbench" / "references.json"
    recorded = json.loads(path.read_text()) if path.is_file() else {}
    with harness.work_dir("record") as workdir:
        for name in names:
            workload = WORKLOADS[name](toy=args.toy)
            for seed in harness.parse_seeds(args.seeds):
                for entry in os.scandir(workdir):
                    os.remove(entry.path)
                summaries = []
                for item in workload.setup(seed, str(workdir)):
                    summary = workload.run(item)
                    problems = workload.check(summary)
                    if problems:
                        print(f"{name} seed {seed}: {problems}", file=sys.stderr)
                        return 1
                    summaries.append({k: v for k, v in summary.items() if k not in workload.unreferenced})
                recorded.setdefault(name, {}).setdefault(size, {})[str(seed)] = summaries
                print(f"{name} {size} seed {seed}: {len(summaries)} inputs", flush=True)
    path.write_text(json.dumps(recorded, sort_keys=True, separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
