"""Spans around calls into laplab's public functions, recorded from outside
the package for the benchmark's traced run.

``from .lattice import forward_transform`` binds the name once per module, so
a wrapper must replace the name in every ``laplab.*`` namespace that imported
it; methods are replaced on the class.  Spans are kept in memory and reduced
to per-layer metrics and written out when the pass ends.  The
tracer assumes one thread, which the benchmark enforces with
``LAPLAB_WORKERS=1``.
"""

from __future__ import annotations

import functools
import sys
import time

# (module, attribute, span name); a dotted attribute is a method on a class
TARGETS = (
    ("lattice", "forward_transform", "lattice.transform"),
    ("lattice", "inverse_transform", "lattice.transform"),
    ("lattice", "SpectralInterpolator.__init__", "lattice.interp_build"),
    ("lattice", "SpectralInterpolator.__call__", "lattice.interp_eval"),
    ("multiplier", "free_resolvent", "multiplier.free_resolvent"),
    ("multiplier", "apply_symbol", "multiplier.apply_symbol"),
    ("spaces", "xstar_norm", "spaces.xstar_norm"),
    ("spaces", "x_norm_upper", "spaces.x_norm_upper"),
    ("spaces", "lorentz_norm", "spaces.lorentz_norm"),
    ("boundary", "boundary_pairing", "boundary.plemelj"),
    ("boundary", "epsilon_limit_pairing", "boundary.eps_limit"),
    ("boundary", "kernel_k_plus", "boundary.kernel"),
    ("perturb", "bs_solve", "perturb.bs_solve"),
    ("perturb", "eigen_scan", "perturb.eigen_scan"),
    ("perturb", "direct_eigs", "perturb.direct_eigs"),
    ("family", "standard_family", "family"),
    ("cli", "main", "cli"),
)


def _count_points(tracer, args, result):
    pts = args[1]
    n = pts.shape[0] if getattr(pts, "ndim", 1) == 2 else 1
    tracer.counts["lattice.interp_eval.points"] += n


def _count_resolvent(tracer, args, result):
    if tracer.matvec_grid is None:
        tracer.matvec_grid = args[2].grid


def _count_kernel(tracer, args, result):
    tracer.counts["boundary.kernel.flagged"] += int(result.flagged)


def _count_solve(tracer, args, result):
    tracer.counts["perturb.bs_solve.iterations"] += result.iterations
    tracer.counts["perturb.bs_solve.unconverged"] += int(not result.converged)


def _count_scan(tracer, args, result):
    c = tracer.counts
    c["perturb.eigen_scan.points"] += len(result.lambdas)
    c["perturb.eigen_scan.support_nodes"] = max(
        c["perturb.eigen_scan.support_nodes"], result.support_nodes)


COUNTERS = {
    "lattice.interp_eval": _count_points,
    "multiplier.free_resolvent": _count_resolvent,
    "boundary.kernel": _count_kernel,
    "perturb.bs_solve": _count_solve,
    "perturb.eigen_scan": _count_scan,
}


class Tracer:
    """In-memory span recorder: each span is [name, parent index, start, end].

    ``matvec_grid`` is the grid of the first free_resolvent call, on which
    the bare FFT pair of ``multiplier.matvec_overhead`` is timed.
    """

    def __init__(self):
        self.spans: list = []
        self._open: list = []
        self.matvec_grid = None
        self.counts = {
            "lattice.interp_eval.points": 0,
            "boundary.kernel.flagged": 0,
            "perturb.bs_solve.iterations": 0,
            "perturb.bs_solve.unconverged": 0,
            "perturb.eigen_scan.points": 0,
            "perturb.eigen_scan.support_nodes": 0,
        }

    def wrap(self, name, fn):
        count = COUNTERS.get(name)
        spans, opened = self.spans, self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, opened[-1] if opened else -1, clock(), 0.0])
            opened.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                opened.pop()
                spans[idx][3] = clock()
            if count is not None:
                count(self, args, result)
            return result

        return traced

    def install(self):
        """Wrap every target; laplab must already be imported."""
        laplab_modules = [m for k, m in sys.modules.items()
                          if k == "laplab" or k.startswith("laplab.")]
        for module, attr, name in TARGETS:
            owner = sys.modules[f"laplab.{module}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self.wrap(name, getattr(cls, meth)))
                continue
            original = getattr(owner, attr)
            traced = self.wrap(name, original)
            for mod in laplab_modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, traced)

    def totals(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds (the span
        minus the time its child spans cover)."""
        child = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
               for _, _, name in TARGETS}
        for (name, _, start, end), inner in zip(self.spans, child):
            agg = out[name]
            agg["calls"] += 1
            agg["total_s"] += end - start
            agg["self_s"] += end - start - inner
        return out

    def write(self, path):
        """One line per span: index, parent index, name, start, end."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, parent, start, end) in enumerate(self.spans):
                fh.write(f"{i},{parent},{name},{start!r},{end!r}\n")


def layer_metrics(tracer: Tracer, bare_pair_s: float) -> dict:
    """The per-layer metrics of BENCHMARK.json (except the trace.* ones) as
    name -> value; ``bare_pair_s`` is one precomputed-symbol FFT pair on the
    grid of the free_resolvent calls (0 when there were none)."""
    t, c = tracer.totals(), tracer.counts
    fr = t["multiplier.free_resolvent"]
    mean_call = fr["total_s"] / fr["calls"] if fr["calls"] else 0.0
    return {
        "lattice.transform.calls": t["lattice.transform"]["calls"],
        "lattice.transform.self_s": t["lattice.transform"]["self_s"],
        "lattice.interp_build.calls": t["lattice.interp_build"]["calls"],
        "lattice.interp_build.self_s": t["lattice.interp_build"]["self_s"],
        "lattice.interp_eval.points": c["lattice.interp_eval.points"],
        "lattice.interp_eval.self_s": t["lattice.interp_eval"]["self_s"],
        "multiplier.free_resolvent.calls": fr["calls"],
        "multiplier.free_resolvent.self_s": fr["self_s"],
        "multiplier.apply_symbol.self_s":
            t["multiplier.apply_symbol"]["self_s"],
        "multiplier.matvec_overhead":
            mean_call / bare_pair_s if bare_pair_s > 0 else 0.0,
        "spaces.xstar_norm.calls": t["spaces.xstar_norm"]["calls"],
        "spaces.xstar_norm.self_s": t["spaces.xstar_norm"]["self_s"],
        "spaces.x_norm_upper.self_s": t["spaces.x_norm_upper"]["self_s"],
        "spaces.lorentz_norm.self_s": t["spaces.lorentz_norm"]["self_s"],
        "boundary.plemelj.calls": t["boundary.plemelj"]["calls"],
        "boundary.plemelj.self_s": t["boundary.plemelj"]["self_s"],
        "boundary.eps_limit.calls": t["boundary.eps_limit"]["calls"],
        "boundary.eps_limit.self_s": t["boundary.eps_limit"]["self_s"],
        "boundary.kernel.samples": t["boundary.kernel"]["calls"],
        "boundary.kernel.flagged": c["boundary.kernel.flagged"],
        "boundary.kernel.self_s": t["boundary.kernel"]["self_s"],
        "perturb.bs_solve.calls": t["perturb.bs_solve"]["calls"],
        "perturb.bs_solve.iterations": c["perturb.bs_solve.iterations"],
        "perturb.bs_solve.unconverged": c["perturb.bs_solve.unconverged"],
        "perturb.bs_solve.self_s": t["perturb.bs_solve"]["self_s"],
        "perturb.eigen_scan.points": c["perturb.eigen_scan.points"],
        "perturb.eigen_scan.support_nodes":
            c["perturb.eigen_scan.support_nodes"],
        "perturb.eigen_scan.self_s": t["perturb.eigen_scan"]["self_s"],
        "perturb.direct_eigs.calls": t["perturb.direct_eigs"]["calls"],
        "perturb.direct_eigs.self_s": t["perturb.direct_eigs"]["self_s"],
        "family.self_s": t["family"]["self_s"],
        "cli.self_s": t["cli"]["self_s"],
    }
