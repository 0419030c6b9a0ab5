"""Print every metric of every workload, the oracle checks and the trace
self-check.

    python3 bench/report.py [--seed N] [--seconds S]

Runs bench/run.py on each workload once untraced and twice traced and passes
their lines through: each end-to-end and per-layer metric by name with its
unit, and every operation's oracle verdict as the runs give it.  Then checks
that every count of the two traced runs repeats exactly.  Exits 1 when a
count differs or a run fails.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def run(workload, seed, seconds, trace) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"report: {workload} trace {trace} exited "
                 f"{proc.returncode}")
    print("\n".join(lines[:-1]), flush=True)
    return json.loads(lines[-1])


def main(argv=None) -> int:
    with open(BENCH.parent / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = p.parse_args(argv)
    counts = [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]
    same = True
    for workload in (w["name"] for w in spec["workloads"]):
        run(workload, args.seed, args.seconds, 0)
        first, second = (run(workload, args.seed, args.seconds, 1)
                         for _ in range(2))
        differ = [n for n in counts if first["metrics"][n]["value"]
                  != second["metrics"][n]["value"]]
        verdict = ("repeat exactly" if not differ
                   else "DIFFER: " + ", ".join(differ))
        print(f"trace self-check {workload}: {len(counts)} counts {verdict}\n",
              flush=True)
        same = same and not differ
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
