"""Run one laplab benchmark workload and print its metrics.

    python3 bench/run.py --workload boundary --seed 0 --seconds 30 --trace 0

Run from anywhere inside a checkout that holds src/laplab.  Every pass runs
in a fresh interpreter, because a lapcli user pays import and cache warm-up
on each invocation.  With --trace 0 the workload runs at least twice
and repeats while another pass still fits in --seconds; the end-to-end
metrics are medians over passes, and set-up is sampled in further
set-up-only interpreters.
With --trace 1 one untraced and one traced pass give the per-layer metrics
and the tracing overhead.  Human-readable lines come first; the last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
OUT = ROOT / ".bench_out"
WORKLOADS = ("boundary", "bs-sweep", "eigen-scan")
RUN_LIMIT_S = 170.0
# a single pass varies by 10-20% on a shared machine, so timings are medians
# over passes; two passes of the slowest workload, eigen-scan, fill the
# declared run length of 30 s
MIN_PASSES = 2
# a set-up sample is one interpreter start, about 0.5 s; over ten runs the
# median of fifteen spread by at most 0.18 of itself, that of five by 0.29
SETUP_SAMPLES = 15


class BenchError(Exception):
    pass


def checkout_spec() -> dict:
    """BENCHMARK.json of a checkout that also holds the program's source."""
    if not (ROOT / "src" / "laplab" / "__init__.py").is_file():
        raise BenchError(f"no laplab source under {ROOT / 'src'}")
    try:
        with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as e:
        raise BenchError(str(e)) from None


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    # one client and one thread of work: BLAS threads gave 2x slower and
    # noisier sweeps on 2 CPUs, and the other CPU absorbs the harness
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["LAPLAB_WORKERS"] = "1"
    return env


def run_pass(workload, seed, deadline, trace=False, setup_only=False) -> dict:
    out = tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT)
    cmd = [sys.executable, str(BENCH / "one_pass.py"), "--workload", workload,
           "--seed", str(seed), "--out", out]
    cmd += ["--trace"] * trace + ["--setup-only"] * setup_only
    t = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=child_env(), stdout=subprocess.PIPE,
                              text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
        if trace and proc.returncode == 0:
            shutil.move(os.path.join(out, "spans.csv"),
                        OUT / f"spans-{workload}-seed{seed}.csv")
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} pass overran the {RUN_LIMIT_S:g} s "
                         "limit of a run") from None
    finally:
        shutil.rmtree(out, ignore_errors=True)
    if proc.returncode != 0:
        raise BenchError(f"{workload} pass exited {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["pass_s"] = time.monotonic() - t
    if not setup_only:
        lib = Path(result["env"]["laplab_file"]).resolve()
        if ROOT / "src" not in lib.parents:
            raise BenchError(f"imported laplab from {lib}, not this checkout")
    return result


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def print_pass(label, p):
    print(f"{label}: setup {p['setup_s']:.3f} s, timed section "
          f"{p['wall_s']:.3f} s, peak RSS {p['peak_rss_mb']:.1f} MB")
    for op in p["ops"]:
        verdict = "PASS" if op["ok"] else "FAIL"
        if not op["ok"] and op["known_failure"]:
            verdict = "FAIL (known: " + op["known_failure"] + ")"
        print(f"  {op['name']:<20} {op['seconds']:8.3f} s  {verdict}  "
              f"{op['detail']}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    try:
        spec = checkout_spec()
        # bytecode is compiled once here, so no set-up sample pays for it
        compileall.compile_dir(ROOT / "src" / "laplab", quiet=1)
        OUT.mkdir(exist_ok=True)
        passes = [run_pass(args.workload, args.seed, deadline)]
        if args.trace:
            traced = run_pass(args.workload, args.seed, deadline, trace=True)
        else:
            while len(passes) < MIN_PASSES or (
                    time.monotonic() - start
                    + statistics.mean(q["pass_s"] for q in passes)
                    <= args.seconds):
                passes.append(run_pass(args.workload, args.seed, deadline))
            setups = [q["setup_s"] for q in passes]
            while len(setups) < SETUP_SAMPLES:
                setups.append(run_pass(args.workload, args.seed, deadline,
                                       setup_only=True)["setup_s"])
    except BenchError as e:
        print(f"bench: {e}", file=sys.stderr)
        return 2

    env = passes[0]["env"]
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print(f"environment: nproc {len(os.sched_getaffinity(0))}, cpu "
          f"{cpu_model()}, python {env['python']}, numpy {env['numpy']}, "
          f"scipy {env['scipy']}, blas {env['blas']}, blas threads "
          f"{env['blas_threads']}, LAPLAB_WORKERS {env['laplab_workers']}")
    for i, q in enumerate(passes, 1):
        print_pass(f"pass {i}", q)
    runs = list(passes)
    if args.trace:
        print_pass("traced pass", traced)
        runs.append(traced)
    ops = [op for q in runs for op in q["ops"]]
    failed = [op for op in ops if not op["ok"]]

    if args.trace:
        values = dict(traced["layers"])
        values["trace.wall_s"] = traced["wall_s"]
        values["trace.overhead_s"] = traced["wall_s"] - passes[0]["wall_s"]
        declared = spec["per_layer"]
        note = "traced pass"
    else:
        errs = [op["rel_err"] for op in ops if op["rel_err"] is not None]
        values = {
            "wall_s": statistics.median(q["wall_s"] for q in passes),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(q["peak_rss_mb"] for q in passes),
            "pass_ratio": (len(ops) - len(failed)) / len(ops),
            # no oracle value at all (every compared operation raised) reads
            # as a full miss
            "max_rel_err": max(errs) if errs else 1.0,
        }
        declared = spec["end_to_end"]
        note = (f"median of {len(passes)} passes, {len(setups)} set-ups; "
                f"{len(ops)} operations")
    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(values):
        print(f"bench: metrics {sorted(values)} differ from BENCHMARK.json "
              f"{sorted(units)}", file=sys.stderr)
        return 2
    print(f"metrics ({note}):")
    for name, value in values.items():
        print(f"  {name:<36} {value:.6g} {units[name]}")
    # a failure whose check recognised it as the recorded one is counted in
    # `failed` but is not a wrong output of this program version
    correct = all(op["known_failure"] for op in failed)
    print(json.dumps({
        "correct": correct, "attempted": len(ops), "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
