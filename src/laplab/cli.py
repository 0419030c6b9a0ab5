"""Command-line front end: configuration, experiment execution, reports.

A single JSON config drives every subcommand; ``--seed`` and repeated
``--set path=value`` flags override individual fields (precedence: built-in
defaults < config file < --set < --seed).  Tables go to CSV with a versioned
schema comment line; summaries go to JSON.  Each command returns a `Report`;
``main`` alone times it, writes its table and summary, and picks the exit
code: 0 success, 2 config validation failure, 3 the verdict failed, 4
completed with solver holes.
"""

from __future__ import annotations

import argparse
import copy
import csv
import json
import math
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import __version__
from .boundary import (BoundarySpec, boundary_pairing, decay_scan,
                       epsilon_limit_pairing)
from .family import FAMILY_VERSION, FamilySpec, standard_family
from .lattice import DEFAULT_MAX_POINTS, Field, GridSpec, PHYSICAL
from .perturb import (BISECTION_WIDTH, EigenvalueCounter, Potential,
                      direct_eigs, eigen_scan, example_potential,
                      lap_perturbed_sweep)
from .spaces import (LorentzExponents, b_norm, bstar_norm, lorentz_norm,
                     lp_norm, slab_l2_profile, stein_tomas_exponent,
                     x_norm_upper, xstar_norm)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_CRITERIA = 3
EXIT_HOLES = 4

TABLE_SCHEMA = "laplab-table-v1"

DEFAULTS = {
    # the box length keeps every default lambda at distance >= 0.067 from the
    # lattice values of |xi|^2, so the sweep proxy saturates well before the
    # smallest epsilon instead of riding a near-resonant lattice mode
    "grid": {"dimension": 2, "half_width": 6.8, "points_per_axis": 128},
    "m": 1,
    "delta": 0.5,
    "lambdas": [0.5, 0.75, 1.0, 1.5, 2.0],
    "epsilons": [0.1, 0.05, 0.02, 0.01, 0.005, 0.002, 0.001],
    "sign": 1,
    "potential": {"kind": "none"},
    "family": {"kinds": ["gaussian", "modulated", "translated", "shell"],
               "count": 8, "seed": 0, "modulation_radius": 1.0},
    "tolerances": {"backend_rel": 1e-4, "drift_factor": 2.0,
                   "sqrt2_slack": 1e-6, "solver": 1e-10},
    "kernel": {"lambda": 1.0, "radii": [5.0, 10.0, 20.0, 40.0],
               "n_directions": 3, "tol": 1e-6, "band_factor": 3.0},
    "spectrum": {"interval": [-8.0, -0.5], "oracle_rel": 0.01},
    "potential_report": {"q": 2.0, "truncations": [4, 8, 16, 32, 64],
                         "reference": 128, "points_per_axis": 512},
    "eigen_margin": 0.1,
}


class ConfigError(Exception):
    """Validation failure with field-level messages."""

    def __init__(self, messages):
        self.messages = list(messages)
        super().__init__("; ".join(self.messages))


# ---------------------------------------------------------------------------
# config loading / validation
# ---------------------------------------------------------------------------

def _deep_merge(base: dict, extra: dict) -> dict:
    out = copy.deepcopy(base)
    for k, v in extra.items():
        if isinstance(v, dict) and isinstance(out.get(k), dict):
            out[k] = _deep_merge(out[k], v)
        else:
            out[k] = copy.deepcopy(v)
    return out


def _apply_override(cfg: dict, path: str, raw: str):
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    keys = path.split(".")
    node = cfg
    for k in keys[:-1]:
        if not isinstance(node.get(k), dict):
            node[k] = {}
        node = node[k]
    node[keys[-1]] = value


def load_config(path, overrides=(), seed=None) -> dict:
    cfg = copy.deepcopy(DEFAULTS)
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            try:
                user = json.load(fh)
            except json.JSONDecodeError as e:
                raise ConfigError([f"config: invalid JSON ({e})"])
        if not isinstance(user, dict):
            raise ConfigError(["config: top level must be a JSON object"])
        cfg = _deep_merge(cfg, user)
    for item in overrides:
        if "=" not in item:
            raise ConfigError([f"--set {item!r}: expected path=value"])
        key, _, raw = item.partition("=")
        _apply_override(cfg, key, raw)
    if seed is not None and isinstance(cfg.get("family"), dict):
        cfg["family"]["seed"] = int(seed)
    return cfg


_MISSING = object()


def _lookup(cfg, path, errors):
    keys = path.split(".")
    node = cfg
    for i, k in enumerate(keys):
        if not isinstance(node, dict):
            # reported once, not once for every field of the section
            msg = f"{'.'.join(keys[:i])}: expected an object, got {node!r}"
            if msg not in errors:
                errors.append(msg)
            return _MISSING
        if k not in node:
            errors.append(f"{path}: missing")
            return _MISSING
        node = node[k]
    return node


def _num(cfg, path, lo=None, hi=None, above=None, integer=False,
         errors=None):
    node = _lookup(cfg, path, errors)
    if node is _MISSING:
        return None
    return _check_num(path, node, lo, hi, above, integer, errors)


def _check_num(path, node, lo, hi, above, integer, errors):
    """``node`` if it is a finite number within the bounds, else None."""
    if isinstance(node, bool) or not isinstance(node, (int, float)):
        errors.append(f"{path}: expected a number, got {node!r}")
        return None
    # JSON reads NaN and Infinity, and NaN passes every comparison below
    if isinstance(node, float) and not math.isfinite(node):
        errors.append(f"{path}: expected a finite number, got {node!r}")
        return None
    if integer and not (isinstance(node, int) or float(node).is_integer()):
        errors.append(f"{path}: expected an integer, got {node!r}")
        return None
    if lo is not None and node < lo:
        errors.append(f"{path}: must be >= {lo}, got {node}")
        return None
    if above is not None and not node > above:
        errors.append(f"{path}: must be > {above}, got {node}")
        return None
    if hi is not None and node > hi:
        errors.append(f"{path}: must be <= {hi}, got {node}")
        return None
    return node


def _num_list(cfg, path, lo=None, above=None, integer=False, length=None,
              errors=None) -> list:
    """The checked entries of a list field; [] if it is not a list."""
    node = _lookup(cfg, path, errors)
    if node is _MISSING:
        return []
    if not isinstance(node, list) or (length is not None
                                      and len(node) != length):
        size = f"{length} " if length is not None else ""
        errors.append(f"{path}: expected a list of {size}numbers, got {node!r}")
        return []
    return [_check_num(f"{path}[{i}]", v, lo, None, above, integer, errors)
            for i, v in enumerate(node)]


#: the bounds of the optional fields of a potential section
POTENTIAL_BOUNDS = {"depth": {}, "radius": {"above": 0},
                    "width": {"above": 0}, "q": {"lo": 1},
                    "J": {"lo": 1, "integer": True}}


def _unknown_fields(node: dict, known: dict, prefix: str, errors: list):
    """Names every key of ``node`` that ``known`` lacks; an unknown section
    is named once, without its fields."""
    for key, value in node.items():
        if key not in known:
            errors.append(f"{prefix}{key}: unknown field")
        elif isinstance(value, dict) and isinstance(known[key], dict):
            _unknown_fields(value, known[key], f"{prefix}{key}.", errors)


def validate_config(cfg: dict) -> list:
    errors: list = []
    _unknown_fields(cfg, {**DEFAULTS,
                          "potential": {"kind": None, **POTENTIAL_BOUNDS}},
                    "", errors)
    _num(cfg, "grid.dimension", 2, 4, integer=True, errors=errors)
    _num(cfg, "grid.half_width", above=0, errors=errors)
    n = _num(cfg, "grid.points_per_axis", 16, integer=True, errors=errors)
    if n is not None and int(n) % 2:
        errors.append(f"grid.points_per_axis: must be even, got {n}")
    _num(cfg, "m", 1, integer=True, errors=errors)
    delta = _num(cfg, "delta", hi=1, above=0, errors=errors)
    lambdas = _num_list(cfg, "lambdas", errors=errors)
    if delta is not None:
        for i, v in enumerate(lambdas):
            if v is not None and not delta <= v <= 1.0 / delta:
                errors.append(f"lambdas[{i}]: {v} outside [delta, 1/delta] "
                              f"= [{delta}, {1.0 / delta}]")
    _num_list(cfg, "epsilons", above=0, errors=errors)
    sign = cfg.get("sign")
    if sign not in (1, -1):
        errors.append(f"sign: must be +1 or -1, got {sign!r}")
    pot = cfg.get("potential")
    if not isinstance(pot, dict) or pot.get("kind") not in (
            "none", "well", "gaussian", "example"):
        errors.append("potential.kind: must be one of none|well|gaussian|example")
    if isinstance(pot, dict):
        for key, bound in POTENTIAL_BOUNDS.items():
            if key in pot:
                _num(cfg, f"potential.{key}", errors=errors, **bound)
    _num(cfg, "eigen_margin", 0, errors=errors)
    for key in ("backend_rel", "drift_factor", "solver"):
        _num(cfg, f"tolerances.{key}", above=0, errors=errors)
    _num(cfg, "tolerances.sqrt2_slack", 0, errors=errors)
    _num(cfg, "kernel.lambda", above=0, errors=errors)
    _num_list(cfg, "kernel.radii", 0, errors=errors)
    _num(cfg, "kernel.n_directions", 0, integer=True, errors=errors)
    _num(cfg, "kernel.tol", above=0, errors=errors)
    _num(cfg, "kernel.band_factor", above=0, errors=errors)
    interval = _num_list(cfg, "spectrum.interval", length=2, errors=errors)
    if interval and None not in interval:
        if not interval[0] < interval[1]:
            errors.append(f"spectrum.interval: must satisfy a < b, got "
                          f"{interval}")
        elif interval[0] <= 0 <= interval[1]:
            errors.append(f"spectrum.interval: must avoid 0, got {interval}")
    _num(cfg, "spectrum.oracle_rel", above=0, errors=errors)
    _num(cfg, "potential_report.q", above=1, errors=errors)
    _num_list(cfg, "potential_report.truncations", 1, integer=True,
              errors=errors)
    _num(cfg, "potential_report.reference", 1, integer=True, errors=errors)
    pr = _num(cfg, "potential_report.points_per_axis", 16, integer=True,
              errors=errors)
    if pr is not None and int(pr) % 2:
        errors.append(
            f"potential_report.points_per_axis: must be even, got {pr}")
    kinds = _lookup(cfg, "family.kinds", errors)
    if kinds is not _MISSING and not isinstance(kinds, list):
        errors.append(f"family.kinds: expected a list, got {kinds!r}")
    fam = [_num(cfg, f"family.{key}", integer=key != "modulation_radius",
                errors=errors)
           for key in ("count", "seed", "modulation_radius")]
    if isinstance(kinds, list) and None not in fam:
        try:
            _family_spec(cfg)
        except ValueError as e:
            errors.append(f"family.{e}")
    if not errors:
        # every other GridSpec bound is checked above: this is the budget
        try:
            _grid(cfg)
        except ValueError as e:
            errors.append(f"grid.points_per_axis: {e}")
    return errors


def _grid(cfg) -> GridSpec:
    g = cfg["grid"]
    return GridSpec(dimension=int(g["dimension"]),
                    half_width=float(g["half_width"]),
                    points_per_axis=int(g["points_per_axis"]))


def _family_spec(cfg) -> FamilySpec:
    fam = cfg["family"]
    return FamilySpec(kinds=tuple(fam["kinds"]), count=int(fam["count"]),
                      seed=int(fam["seed"]),
                      modulation_radius=float(fam["modulation_radius"]))


def _family(cfg, grid) -> list:
    return standard_family(grid, _family_spec(cfg))


def _potential(cfg, grid) -> Potential:
    pot = cfg["potential"]
    kind = pot["kind"]
    if kind == "none":
        zero = Field(grid, np.zeros(grid.shape, dtype=complex), PHYSICAL)
        return Potential(field=zero, kind="none")
    if kind == "well":
        depth = float(pot.get("depth", -10.0))
        radius = float(pot.get("radius", 1.0))
        r = np.broadcast_to(grid.radius_grid(), grid.shape)
        vals = np.where(r <= radius, depth, 0.0).astype(complex)
        return Potential(field=Field(grid, vals, PHYSICAL), kind="well",
                         support_radius=radius)
    if kind == "gaussian":
        depth = float(pot.get("depth", -1.0))
        width = float(pot.get("width", 1.0))
        r = np.broadcast_to(grid.radius_grid(), grid.shape)
        vals = (depth * np.exp(-((r / width) ** 2))).astype(complex)
        return Potential(field=Field(grid, vals, PHYSICAL), kind="gaussian")
    return _staircase(float(pot.get("q", 2.0)), int(pot.get("J", 16)), grid,
                      "grid.points_per_axis")


def _staircase(q, J, grid, points_field) -> Potential:
    """``example_potential``, refused with the field to change: ``points_field``
    for a shell thinner than the cells allow, ``grid.half_width`` for shells
    that do not fit in the box."""
    try:
        return example_potential(q=q, J=J, grid=grid)
    except ValueError as e:
        field = "grid.half_width" if "box" in str(e) else points_field
        raise ValueError(f"{field}: {e}") from e


@dataclass(frozen=True)
class Report:
    """What a command found: ``ok`` is written under the summary key
    ``verdict``, ``checked`` counts the items it judged and ``holes`` the
    solves that left a gap in the table."""

    header: list
    rows: list
    summary: dict
    verdict: str
    ok: bool
    checked: int
    holes: int


# ---------------------------------------------------------------------------
# report writing
# ---------------------------------------------------------------------------

def write_table(path, name, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# {TABLE_SCHEMA} {name} laplab/{__version__} "
                 f"family/{FAMILY_VERSION}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _fmt(v):
    if isinstance(v, float):
        return format(v, ".17g")
    if isinstance(v, complex):
        return format(v.real, ".17g") + ("+" if v.imag >= 0 else "") \
            + format(v.imag, ".17g") + "j"
    return v


def write_summary(path, command, cfg, payload, wall_clock):
    doc = {
        "command": command,
        "artifact_version": __version__,
        "family_version": FAMILY_VERSION,
        "config": cfg,
        # the single non-deterministic field: everything else is a pure
        # function of the config
        "timestamp": {
            "utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "wall_clock_seconds": wall_clock,
        },
    }
    doc.update(payload)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")


def _json_default(v):
    if isinstance(v, (np.floating, np.integer, np.bool_)):
        return v.item()
    if isinstance(v, complex):
        return {"re": v.real, "im": v.imag}
    if isinstance(v, np.ndarray):
        return v.tolist()
    raise TypeError(f"cannot serialize {type(v)!r}")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_norms(cfg) -> Report:
    grid = _grid(cfg)
    m = int(cfg["m"])
    pd, _ = stein_tomas_exponent(grid.dimension)
    fam = _family(cfg, grid)

    def one(item):
        label, f = item
        prof = slab_l2_profile(f)
        slab_int = float(np.sum(prof) * f.grid.spacing)
        slab_sup = float(np.max(prof))
        b, bs = b_norm(f), bstar_norm(f)
        ratio_b = slab_int / b if b > 0 else 0.0
        ratio_bs = bs / slab_sup if slab_sup > 0 else 0.0
        return [label, f.l2(), lp_norm(f, pd),
                lorentz_norm(f, LorentzExponents(pd, 2.0)), b, bs,
                xstar_norm(f, m), x_norm_upper(f, m),
                ratio_b, ratio_bs]

    rows = [one(item) for item in fam]
    header = ["label", "l2", f"lp_{pd:.6g}", "lorentz_pd_2", "b", "bstar",
              "xstar", "x_upper", "emb_ratio_b", "emb_ratio_bstar"]
    bound = np.sqrt(2.0) * (1.0 + cfg["tolerances"]["sqrt2_slack"])
    worst = max((max(r[-2], r[-1]) for r in rows), default=0.0)
    return Report(header, rows,
                  {"fields": len(rows), "max_embedding_ratio": worst,
                   "sqrt2_bound": float(bound)},
                  verdict="embeddings_ok", ok=worst <= bound,
                  checked=len(rows), holes=0)


def cmd_resolvent(cfg) -> Report:
    grid = _grid(cfg)
    m, sign = int(cfg["m"]), int(cfg["sign"])
    delta = float(cfg["delta"])
    tol = float(cfg["tolerances"]["backend_rel"])
    fam = _family(cfg, grid)
    cells = [(lam, label, f) for lam in cfg["lambdas"] for label, f in fam]

    def pairing(fn, f, spec, label):
        # an unconverged quadrature or extrapolation leaves a nan hole
        try:
            return fn(f, f, spec)
        except ArithmeticError as exc:
            print(f"resolvent: {fn.__name__} at lambda={spec.lam:g}, {label}: "
                  f"{exc}", file=sys.stderr)
            return np.nan

    def one(cell):
        lam, label, f = cell
        spec = BoundarySpec(lam=float(lam), sign=sign, m=m, delta=delta)
        val = pairing(boundary_pairing, f, spec, label)
        ref = pairing(epsilon_limit_pairing, f, spec, label)
        rel = abs(val - ref) / max(abs(ref), 1e-300)
        return [lam, label, val, ref, rel,
                np.nan if np.isnan(val) else val.imag]

    rows = [one(cell) for cell in cells]
    header = ["lambda", "label", "plemelj", "epsilon_limit", "rel_diff",
              "im_part"]
    done = [r for r in rows if not np.isnan(r[4])]
    holes = len(rows) - len(done)
    worst = max((r[4] for r in done), default=0.0)
    min_im = min((r[5] * sign for r in done), default=0.0)
    return Report(header, rows,
                  {"pairs": len(rows), "max_backend_rel_diff": worst,
                   "min_signed_im": min_im, "holes": holes},
                  verdict="agreement_ok",
                  ok=worst <= tol and min_im >= -1e-10,
                  checked=len(done), holes=holes)


def cmd_kernel(cfg) -> Report:
    grid_d = int(cfg["grid"]["dimension"])
    kc = cfg["kernel"]
    lam, m = float(kc["lambda"]), int(cfg["m"])
    radii = [float(r) for r in kc["radii"]]
    ndir = int(kc["n_directions"])
    dirs = _directions(grid_d, ndir)
    scan = decay_scan(lam, m, radii, dirs, float(kc["tol"]))
    per_dir = max(len(radii), 1)
    rows = [[i // per_dir, float(np.linalg.norm(x)), mag, norm_val, int(flag)]
            for i, (x, mag, norm_val, flag) in enumerate(scan.rows)]
    header = ["direction", "radius", "abs_k", "normalized", "flagged"]
    vals = [r[3] for r in rows if not r[4]]
    med = float(np.median(vals)) if vals else 0.0
    band = float(kc["band_factor"])
    # the decay rate is uniform along each ray; the amplitude varies with the
    # direction, so the band is checked per direction
    ok = not rows or bool(vals)
    checked = 0
    for j in range(len(dirs)):
        dvals = [r[3] for r in rows if r[0] == j and not r[4]]
        dm = float(np.median(dvals)) if dvals else 0.0
        if dvals and dm > 0:
            checked += len(dvals)
            ok = ok and max(dvals) <= band * dm and min(dvals) >= dm / band
    return Report(header, rows,
                  {"samples": len(rows),
                   "empirical_constant": scan.max_normalized,
                   "median_normalized": med, "band_factor": band,
                   "flagged": sum(r[4] for r in rows)},
                  verdict="band_ok", ok=ok, checked=checked, holes=0)


_MAX_TILT = np.deg2rad(30.0)


def _directions(d, n):
    # rays sin(t) e_1 + cos(t) e_d inside the cone covered by the north-pole
    # patch of the kernel weight: outside it the taper makes the kernel decay
    # faster than the normalized rate and the band comparison is vacuous (the
    # kernel also vanishes identically for x_d < 0).  K depends on x' only
    # through |x'|, so one tilt per ray is every direction there is.
    tilts = _MAX_TILT * np.arange(n) / max(n - 1, 1)
    return [np.eye(d)[0] * np.sin(t) + np.eye(d)[-1] * np.cos(t)
            for t in tilts]


def cmd_sweep(cfg) -> Report:
    grid = _grid(cfg)
    m, sign = int(cfg["m"]), int(cfg["sign"])
    V = _potential(cfg, grid)
    lambdas = [float(v) for v in cfg["lambdas"]]
    prescan = {"support_nodes": 0, "weyl_shift": 0.0}    # V = 0: no scan
    if not V.is_zero():
        # refuse a lambda only when V moves an eigenvalue across its window:
        # box modes that H and P_m both have there do not count
        margin = float(cfg["eigen_margin"])
        counter = EigenvalueCounter(V, m)
        prescan = {"support_nodes": counter.nodes,
                   "weyl_shift": counter.weyl_shift}
        for i, lam in enumerate(lambdas):
            lo, hi = lam - margin, lam + margin
            xi_lo, xi_hi = counter.xi(lo), counter.xi(hi)
            if xi_lo != xi_hi:
                raise ValueError(
                    f"lambdas[{i}]: V moves an eigenvalue across [{lo:.4g}, "
                    f"{hi:.4g}] around lambda={lam:g} (spectral shift "
                    f"{xi_lo} -> {xi_hi})")
    fam = _family(cfg, grid)
    report = lap_perturbed_sweep(V, m, lambdas,
                                 [float(e) for e in cfg["epsilons"]], fam,
                                 sign=sign,
                                 solver_tol=float(cfg["tolerances"]["solver"]))
    rows = [[r.lam, r.eps, r.proxy, r.worst_label, r.residual, int(r.ok)]
            for r in report["rows"]]
    header = ["lambda", "epsilon", "proxy", "worst_label", "residual", "ok"]
    drift_limit = float(cfg["tolerances"]["drift_factor"])
    drift = report["last_decade_drift"]
    checked = report["compared"]
    return Report(header, rows,
                  {"sup": report["sup"], "sup_by_eps": report["sup_by_eps"],
                   "last_decade_drift": drift, "drift_limit": drift_limit,
                   "holes": report["holes"], "eigen_prescan": prescan,
                   "diagnostics": report["diagnostics"]},
                  verdict="drift_ok",
                  ok=not checked or (np.isfinite(drift)
                                     and drift < drift_limit),
                  checked=checked, holes=report["holes"])


def cmd_spectrum(cfg) -> Report:
    grid = _grid(cfg)
    m = int(cfg["m"])
    sc = cfg["spectrum"]
    V = _potential(cfg, grid)
    interval = (float(sc["interval"][0]), float(sc["interval"][1]))
    gate = float(sc["oracle_rel"])
    res = eigen_scan(V, m, interval)
    # the widest bracket the scan can leave around a candidate
    grid_step = BISECTION_WIDTH * max(1.0, abs(interval[0]), abs(interval[1]))
    oracle, converged, residual, matvecs, solves = [], None, None, 0, 0
    judged = not V.is_zero() and interval[1] < 0
    if judged:
        # the count below b sizes Lanczos to reach every eigenvalue there
        k = max(6, int(res.counts[-1]) + 1)
        lanczos = direct_eigs(m, V, k=k)
        converged, residual = lanczos.converged, lanczos.residual
        matvecs, solves = lanczos.matvecs, lanczos.solves
        oracle = [e for e in lanczos.values
                  if interval[0] <= e <= interval[1]]
    cands = [lam for lam, _ in res.candidates]
    rows = []
    for lam, mult in res.candidates:
        # the last bracket: the counted points on either side of the candidate
        i = int(np.searchsorted(res.lambdas, lam))
        width = float(res.lambdas[i] - res.lambdas[i - 1])
        match = min((abs(lam - e) / abs(e) for e in oracle), default=np.nan)
        rows.append([lam, int(mult), width, match])
    # two-sided: every candidate and every distinct Lanczos eigenvalue in the
    # interval has a partner within the gate; Lanczos multiplicities are not
    # compared, since a single-start Lanczos can miss copies of an eigenvalue
    ok = not judged or (
        converged
        and all(r[3] <= gate for r in rows)
        and all(min((abs(c - e) / abs(e) for c in cands), default=np.inf)
                <= gate for e in oracle))
    header = ["candidate", "multiplicity", "probe_halving_shift",
              "oracle_rel"]
    return Report(header, rows,
                  {"candidates": rows, "oracle": [float(e) for e in oracle],
                   "oracle_converged": converged, "oracle_matvecs": matvecs,
                   "oracle_residual": residual, "oracle_solves": solves,
                   "support_nodes": res.support_nodes, "grid_step": grid_step,
                   "weyl_shift": res.weyl_shift},
                  verdict="ok", ok=ok,
                  checked=len(rows) + len(oracle) if judged else 0, holes=0)


def cmd_potential(cfg) -> Report:
    pc = cfg["potential_report"]
    base = _grid(cfg)
    # the staircase needs cells much smaller than the thinnest shell, so the
    # report runs on its own refinement of the configured box
    n = max(base.points_per_axis, int(pc["points_per_axis"]))
    if n**base.dimension > DEFAULT_MAX_POINTS:
        raise ValueError(f"potential_report.points_per_axis: a {n}^"
                         f"{base.dimension} report grid exceeds the budget of "
                         f"{DEFAULT_MAX_POINTS} points")
    grid = GridSpec(base.dimension, base.half_width, n)
    q = float(pc["q"])
    truncs = [int(N) for N in pc["truncations"]]
    ref = int(pc["reference"])
    exps = LorentzExponents(q, float("inf"))

    def staircase(J):
        # the shells are cut from the report grid
        return _staircase(q, J, grid, "potential_report.points_per_axis")

    V_ref = staircase(ref)
    rows = []
    for N in truncs:
        VN = staircase(N)
        tail = V_ref.field.with_values(V_ref.field.values - VN.field.values)
        rows.append([N, lorentz_norm(VN.field, exps),
                     lorentz_norm(tail, exps),
                     float(np.log(2.0 + N) ** (-1.0 / q))])
    header = ["N", "weak_norm", "tail_weak_norm", "log_bound"]
    tails = [r[2] for r in rows]
    bounds = [r[3] for r in rows]
    decreasing = all(b <= a + 1e-12 for a, b in zip(tails, tails[1:]))
    within = all(t <= 2.0 * b for t, b in zip(tails, bounds))
    return Report(header, rows,
                  {"q": q, "reference_J": ref, "tail_decreasing": decreasing,
                   "tail_within_factor2": within},
                  verdict="ok", ok=decreasing and within, checked=len(rows),
                  holes=0)


COMMANDS = {
    "norms": cmd_norms,
    "resolvent": cmd_resolvent,
    "kernel": cmd_kernel,
    "sweep": cmd_sweep,
    "spectrum": cmd_spectrum,
    "potential": cmd_potential,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="lapcli",
        description="numerical laboratory for limiting absorption of "
                    "(-Laplace)^m + V")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--seed", type=int, help="override family.seed")
    parser.add_argument("--out-dir", default=".", help="report directory")
    parser.add_argument("--set", action="append", default=[], metavar="K=V",
                        dest="overrides",
                        help="override a config field, e.g. --set m=2 or "
                             "--set grid.points_per_axis=256")
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config, args.overrides, args.seed)
        errors = validate_config(cfg)
    except ConfigError as e:
        errors = e.messages
    except OSError as e:
        errors = [str(e)]
    if errors:
        for msg in errors:
            print(f"config error: {msg}", file=sys.stderr)
        return EXIT_VALIDATION
    os.makedirs(args.out_dir, exist_ok=True)
    t0 = time.time()
    try:
        report = COMMANDS[args.command](cfg)
    except ValueError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    wall_clock = time.time() - t0
    path = os.path.join(args.out_dir, args.command)
    write_table(f"{path}.csv", args.command, report.header, report.rows)
    # a pass that judged nothing is null, a failure stays false (as a bool)
    verdict = bool(report.ok) if report.checked or not report.ok else None
    write_summary(f"{path}.json", args.command, cfg,
                  {**report.summary, report.verdict: verdict,
                   "checked": report.checked}, wall_clock)
    if report.holes:
        return EXIT_HOLES
    return EXIT_CRITERIA if verdict is False else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
