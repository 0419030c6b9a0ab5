"""One pass of a benchmark workload, in a fresh interpreter.

    python3 bench/one_pass.py --workload boundary --seed 0 --out DIR [--trace]

Prints one JSON line: set-up seconds, timed-section seconds, peak RSS and the
outcome of every operation's oracle check; with --trace, the per-layer
metrics of this traced pass as well.  ``--setup-only`` stops after set-up.
bench/run.py starts this with PYTHONPATH pointing at the checkout's src/.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback

import tracer
import workloads


def bare_fft_pair_s(grid, reps: int = 200) -> float:
    """Median seconds of one FFT pair applying a precomputed symbol."""
    import numpy as np
    from laplab.multiplier import pm_values
    symbol = np.fft.ifftshift(1.0 / (pm_values(grid, 1) - (1.0 + 0.01j)))
    x = np.random.default_rng(0).standard_normal(grid.shape) + 0j
    times = []
    for _ in range(reps):
        t = time.perf_counter()
        np.fft.fftn(symbol * np.fft.ifftn(x))
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def environment() -> dict:
    import laplab
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "laplab_file": laplab.__file__,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "laplab_workers": os.environ.get("LAPLAB_WORKERS"),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    t0 = time.perf_counter()
    import laplab.cli  # noqa: F401  (the timed import of the package)
    spans = None
    if args.trace:
        spans = tracer.Tracer()
        spans.install()
    ops = workloads.WORKLOADS[args.workload](args.seed, args.out)
    setup_s = time.perf_counter() - t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    done = []
    t1 = time.perf_counter()
    for op in ops:
        t = time.perf_counter()
        value, error = None, ""
        try:
            value = op.run()
        except SystemExit as e:        # argparse inside the CLI
            value = e.code
        except Exception:              # counted as a failed operation
            error = traceback.format_exc()
        done.append((op, value, error, time.perf_counter() - t))
    wall_s = time.perf_counter() - t1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    results = []
    for op, value, error, seconds in done:
        if not error:
            try:
                check = op.check(value)
            except Exception:
                error = traceback.format_exc()
        if error:
            print(f"{op.name}:\n{error}", file=sys.stderr)
            check = workloads.Check(False, error.strip().splitlines()[-1],
                                    1.0 if op.has_rel_err else None)
        results.append({"name": op.name, "seconds": seconds, "ok": check.ok,
                        "detail": check.detail, "rel_err": check.rel_err,
                        "known_failure": check.known_failure})

    out = {"setup_s": setup_s, "wall_s": wall_s, "peak_rss_mb": peak_rss_mb,
           "ops": results, "env": environment()}
    if spans is not None:
        grid = spans.matvec_grid
        bare = bare_fft_pair_s(grid) if grid is not None else 0.0
        out["layers"] = tracer.layer_metrics(spans, bare)
        spans.write(os.path.join(args.out, "spans.csv"))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
