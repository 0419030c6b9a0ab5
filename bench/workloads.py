"""The benchmark's three workloads: inputs, timed operations and oracle checks.

Each workload function imports laplab itself and builds, through public
constructors, the grids, families and potentials of the workload; the
benchmark times that as set-up.  An operation is one CLI command or one
library call.  Its check runs after the timed section, reads the program's
own outputs and compares them with an oracle; a miss is counted, never
raised.

boundary   -- SpectralInterpolator and the boundary radial quadrature; almost
              nothing in perturb.
bs-sweep   -- the lgmres matvec path through multiplier and lattice, plus
              spaces norms per solve and the eigen pre-scan; no interpolator.
eigen-scan -- perturb and lattice through dense SVDs and Lanczos instead of
              matvec-heavy Krylov solves.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

# The boundary pass is kept near 10 s so that a run holds two or three
# passes: on a shared 2-CPU machine a single pass varies by 10-20%, and the
# median over passes keeps the run-to-run spread of wall_s low.  Hence one
# d=3 Plemelj pair and two family members rather than three pairs and four.
PAIR_LAMBDAS = (1.0,)
# radii of acceptance criterion 05, along the CLI's three default directions
KERNEL_SETS = ["kernel.radii=[5,10,20,35,50]", "kernel.n_directions=3",
               "grid.points_per_axis=32"]

RESOLVENT_SETS = ["lambdas=[0.5,1.0,2.0]", "family.count=2"]
SWEEP_SETS = ["potential.kind=well", "potential.depth=-0.05"]
SPECTRUM_SETS = ["potential.kind=well", "potential.depth=-8"]
# the grid of acceptance criterion 08
SPECTRUM_D3_SETS = SPECTRUM_SETS + ["grid.dimension=3", "grid.half_width=6.0",
                                    "grid.points_per_axis=32"]

# a cell of the sweep: its middle lambda at its smallest epsilon
DIRECT_Z = 1.0 + 0.001j

# The recorded failure of the d=2 spectrum run: its candidate at -0.95 misses
# the Lanczos eigenvalue -0.968 by 1.9%, over the 1% gate, because candidates
# are resolved only to the scan step.  _check_spectrum names an outcome known
# only when it is exactly this one.
SPECTRUM_D2_MISS_AT = -0.95
SPECTRUM_D2_MISS = (
    "candidates are resolved only to the 0.05 scan step, so the one at -0.95 "
    "misses the Lanczos eigenvalue -0.968 by 1.9%, over the 1% gate")


@dataclass
class Check:
    ok: bool
    detail: str
    rel_err: Optional[float] = None   # enters max_rel_err when set
    known_failure: str = ""           # set only for a recorded failure


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], Check]
    # the check measures a relative error against an oracle: when the
    # operation raises, that error reads as a full miss, 1.0
    has_rel_err: bool = False


def _finite_or_miss(x: float) -> float:
    return x if math.isfinite(x) else 1.0


def _config(cli, sets, seed) -> dict:
    cfg = cli.load_config(None, sets, seed)
    errors = cli.validate_config(cfg)
    if errors:
        raise ValueError(f"invalid workload config: {errors}")
    return cfg


def _grid(cfg):
    from laplab import GridSpec
    g = cfg["grid"]
    return GridSpec(int(g["dimension"]), float(g["half_width"]),
                    int(g["points_per_axis"]))


def _family(cfg, grid) -> list:
    from laplab import FamilySpec, standard_family
    fam = cfg["family"]
    return standard_family(grid, FamilySpec(
        kinds=tuple(fam["kinds"]), count=int(fam["count"]),
        seed=int(fam["seed"]),
        modulation_radius=float(fam["modulation_radius"])))


def _well(cfg, grid):
    import numpy as np
    from laplab import Field, Potential
    from laplab.lattice import PHYSICAL
    pot = cfg["potential"]
    radius = float(pot.get("radius", 1.0))
    r = np.broadcast_to(grid.radius_grid(), grid.shape)
    vals = np.where(r <= radius, float(pot["depth"]), 0.0).astype(complex)
    return Potential(Field(grid, vals, PHYSICAL), kind="well",
                     support_radius=radius)


def _unit_gaussian(grid):
    import numpy as np
    from laplab import sample
    return sample(lambda *x: np.exp(-sum(c * c for c in x) / 2.0), grid)


def _cli_op(name, command, sets, seed, out_dir, check, has_rel_err=False):
    from laplab import cli
    op_dir = os.path.join(out_dir, name)
    argv = [command, "--seed", str(seed), "--out-dir", op_dir]
    for s in sets:
        argv += ["--set", s]
    # cli.main is looked up per call, so the traced run sees its wrapper
    return Op(name, lambda: cli.main(argv),
              lambda code: check(code, op_dir), has_rel_err)


def _table(op_dir, name) -> list:
    with open(os.path.join(op_dir, f"{name}.csv"), encoding="utf-8") as fh:
        next(fh)   # schema line
        return list(csv.DictReader(fh))


def _summary(op_dir, name) -> dict:
    with open(os.path.join(op_dir, f"{name}.json"), encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def _check_resolvent(cfg, labels, code, op_dir) -> Check:
    rows = _table(op_dir, "resolvent")
    tol = float(cfg["tolerances"]["backend_rel"])
    sign = int(cfg["sign"])
    expected = sorted((float(lam), label) for lam in cfg["lambdas"]
                      for label in labels)
    got = sorted((float(r["lambda"]), r["label"]) for r in rows)
    worst = max(float(r["rel_diff"]) for r in rows)
    min_im = min(sign * float(r["im_part"]) for r in rows)
    ok = (code == 0 and got == expected and worst <= tol
          and min_im >= -1e-10
          and _summary(op_dir, "resolvent")["agreement_ok"] is True)
    return Check(ok, f"exit {code}; {len(rows)} pairs; Plemelj vs eps-limit "
                     f"worst rel diff {worst:.3e} <= {tol:g}; min signed Im "
                     f"{min_im:.3e} >= -1e-10")


def _check_gaussian_pairing(lam, d, tol, value) -> Check:
    from oracles import gaussian_pairing
    ref = gaussian_pairing(lam, d)
    rel = _finite_or_miss(abs(value - ref) / abs(ref))
    return Check(rel <= tol, f"closed form {ref:.10g}: rel err {rel:.3e} "
                             f"<= {tol:g}", rel)


def _check_kernel(code, op_dir) -> Check:
    s = _summary(op_dir, "kernel")
    return Check(code == 0 and s["band_ok"] is True,
                 f"exit {code}; {s['samples']} samples, {s['flagged']} "
                 f"flagged; band_ok {s['band_ok']}")


def _check_sweep(cfg, labels, code, op_dir) -> Check:
    rows = _table(op_dir, "sweep")
    s = _summary(op_dir, "sweep")
    cells = len(cfg["lambdas"]) * len(cfg["epsilons"])
    ok = (code == 0 and s["drift_ok"] is True and s["holes"] == 0
          and len(rows) == cells and all(r["ok"] == "1" for r in rows)
          and all(r["worst_label"] in labels for r in rows))
    return Check(ok, f"exit {code}; {len(rows)} cells; last-decade drift "
                     f"{s['last_decade_drift']:.6f} < {s['drift_limit']:g}; "
                     f"holes {s['holes']}")


def _check_direct(potential, f, tol, solver_tol, sol) -> Check:
    import numpy as np
    from oracles import birman_schwinger_direct
    ref = birman_schwinger_direct(sol.z, potential.real_values(), f.values,
                                  f.grid.half_width)
    rel = _finite_or_miss(
        float(np.linalg.norm(sol.u.values - ref) / np.linalg.norm(ref)))
    # lgmres stops anywhere below its tolerance, so agreement closer than the
    # solver tolerance is roundoff and is reported as the tolerance itself
    return Check(sol.converged and rel <= tol,
                 f"converged {sol.converged} in {sol.iterations} iterations; "
                 f"dense restricted solve: rel err {rel:.3e} <= {tol:g}",
                 max(rel, solver_tol))


def _check_spectrum(cfg, nodes, code, op_dir, known_miss_at=None) -> Check:
    rows = _table(op_dir, "spectrum")
    s = _summary(op_dir, "spectrum")
    gate = float(cfg["spectrum"]["oracle_rel"])
    step = float(s["grid_step"])
    cands = [float(r["candidate"]) for r in rows]
    misses = [float(r["oracle_rel"]) for r in rows]
    shifts = [float(r["probe_halving_shift"]) for r in rows]
    finite = bool(rows) and all(math.isfinite(x) for x in misses)
    worst = max(misses) if finite else 1.0
    ok = (code == 0 and bool(s["oracle"]) and finite and worst <= gate
          and s["support_nodes"] == nodes)
    shown = ", ".join(f"{c:.4g}" for c in cands)
    oracle = ", ".join(f"{e:.4g}" for e in s["oracle"])
    detail = (f"exit {code}; candidates [{shown}] vs Lanczos [{oracle}]: "
              f"worst rel miss {worst:.3e} <= {gate:g}; support nodes "
              f"{s['support_nodes']} (expected {nodes})")
    known = ""
    if not ok and known_miss_at is not None:
        over = [c for c, x in zip(cands, misses) if x > gate]
        # exit 3 from one candidate near the recorded one, every other
        # candidate matched and stable under probe halving, and its distance
        # to the nearest Lanczos eigenvalue within one scan step
        if (code == 3 and s["support_nodes"] == nodes and finite
                and bool(s["oracle"]) and len(over) == 1
                and abs(over[0] - known_miss_at) <= step
                and min(abs(over[0] - e) for e in s["oracle"]) <= step
                and all(x <= step + 1e-12 for x in shifts)):
            known = SPECTRUM_D2_MISS
    return Check(ok, detail, worst, known)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def build_boundary(seed, out_dir) -> list:
    from laplab import BoundarySpec, GridSpec, boundary_pairing, cli
    cfg = _config(cli, RESOLVENT_SETS, seed)
    labels = [label for label, _ in _family(cfg, _grid(cfg))]
    gauss = _unit_gaussian(GridSpec(3, 6.8, 32))
    tol = float(cfg["tolerances"]["backend_rel"])
    ops = [_cli_op("resolvent", "resolvent", RESOLVENT_SETS, seed, out_dir,
                   partial(_check_resolvent, cfg, labels))]
    # the d=3 eps-limit is left out: it costs about 64 s per pair
    for lam in PAIR_LAMBDAS:
        ops.append(Op(f"plemelj-d3-lam{lam:g}",
                      partial(boundary_pairing, gauss, gauss,
                              BoundarySpec(lam=lam)),
                      partial(_check_gaussian_pairing, lam, 3, tol),
                      has_rel_err=True))
    for d in (2, 3):
        for m in (1, 2):
            sets = KERNEL_SETS + [f"grid.dimension={d}", f"m={m}"]
            ops.append(_cli_op(f"kernel-d{d}-m{m}", "kernel", sets, seed,
                               out_dir, _check_kernel))
    return ops


def build_bs_sweep(seed, out_dir) -> list:
    from laplab import bs_solve, cli
    cfg = _config(cli, SWEEP_SETS, seed)
    grid = _grid(cfg)
    labels = [label for label, _ in _family(cfg, grid)]
    V = _well(cfg, grid)
    gauss = _unit_gaussian(grid)
    solver_tol = float(cfg["tolerances"]["solver"])
    return [
        _cli_op("sweep", "sweep", SWEEP_SETS, seed, out_dir,
                partial(_check_sweep, cfg, labels)),
        Op("bs-solve-direct",
           partial(bs_solve, DIRECT_Z, int(cfg["m"]), V, gauss,
                   tol=solver_tol),
           partial(_check_direct, V, gauss,
                   float(cfg["tolerances"]["backend_rel"]), solver_tol),
           has_rel_err=True),
    ]


def build_eigen_scan(seed, out_dir) -> list:
    import numpy as np
    from laplab import cli
    ops = []
    for name, sets, miss_at in (
            ("spectrum-d2", SPECTRUM_SETS, SPECTRUM_D2_MISS_AT),
            ("spectrum-d3", SPECTRUM_D3_SETS, None)):
        cfg = _config(cli, sets, seed)
        nodes = int(np.count_nonzero(_well(cfg, _grid(cfg)).real_values()))
        ops.append(_cli_op(name, "spectrum", sets, seed, out_dir,
                           partial(_check_spectrum, cfg, nodes,
                                   known_miss_at=miss_at),
                           has_rel_err=True))
    return ops


WORKLOADS = {
    "boundary": build_boundary,
    "bs-sweep": build_bs_sweep,
    "eigen-scan": build_eigen_scan,
}
