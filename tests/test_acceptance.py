"""Acceptance suite: the ten headline properties of the laboratory, one test
(and one pass/fail line) each."""

import math
import time

import numpy as np

from laplab.boundary import (
    BoundarySpec,
    boundary_pairing,
    decay_scan,
    epsilon_limit_pairing,
    sphere_restriction_norm,
)
from laplab.cli import _directions, main
from laplab.family import FamilySpec, shell_stress_family, standard_family
from laplab.lattice import Field, GridSpec, PHYSICAL, forward_transform
from laplab.multiplier import free_resolvent
from laplab.perturb import (
    Potential,
    bs_solve,
    direct_eigs,
    eigen_scan,
    example_potential,
    lap_perturbed_sweep,
)
from laplab.spaces import (
    LorentzExponents,
    b_norm,
    bstar_norm,
    lorentz_norm,
    slab_l2_profile,
    stein_tomas_exponent,
    x_norm_upper,
    xstar_norm,
)

from conftest import gaussian_field
from test_perturb import well_potential, zero_potential


def report(num, label, ok, detail=""):
    line = f"criterion {num:2d} {'PASS' if ok else 'FAIL'}  {label}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def grid_fields(grid):
    """Three qualitatively different smooth fields on a grid."""
    d = grid.dimension
    return [
        ("gauss", gaussian_field(grid, 1.0)),
        ("offset", gaussian_field(grid, 0.7,
                                  center=(1.0,) + (0.0,) * (d - 1))),
        ("modulated", gaussian_field(grid, 1.0,
                                     wavevector=(1.0,) + (0.0,) * (d - 1))),
    ]


def test_criterion_01_transform_fidelity():
    t0 = time.monotonic()
    g = GridSpec(2, 10.0, 128)
    f = gaussian_field(g, 1.0)
    F = forward_transform(f)
    pts = np.stack([x.ravel() for x in np.meshgrid(
        *[g.axis_freqs()] * 2, indexing="ij")], axis=1)
    closed = 2.0 * np.pi * np.exp(-0.5 * np.sum(pts**2, axis=1))
    mask = np.sqrt(np.sum(pts**2, axis=1)) <= 5.0
    rel = np.max(np.abs(F.values.ravel()[mask] - closed[mask])
                 / np.max(closed))
    phys = g.cell_volume * np.sum(np.abs(f.values) ** 2)
    spect = g.freq_cell_volume / (2.0 * np.pi) ** 2 \
        * np.sum(np.abs(F.values) ** 2)
    parseval = abs(phys - spect) / phys
    elapsed = time.monotonic() - t0
    report(1, "transform fidelity",
           rel < 1e-8 and parseval < 1e-10 and elapsed < 10.0,
           f"closed-form rel {rel:.2e}, parseval {parseval:.2e}, "
           f"{elapsed:.2f}s")


def test_criterion_02_plemelj_correctness():
    worst, min_im, pairs = 0.0, np.inf, 0
    for d, m, n in ((2, 1, 128), (2, 2, 128), (3, 1, 32)):
        g = GridSpec(d, 6.8, n)
        fields = grid_fields(g)
        for lam in (0.5, 1.0, 2.0):
            spec = BoundarySpec(lam=lam, sign=+1, m=m)
            for _, f in fields:
                val = boundary_pairing(f, f, spec)
                ref = epsilon_limit_pairing(f, f, spec)
                worst = max(worst, abs(val - ref) / abs(ref))
                min_im = min(min_im, val.imag)
                pairs += 1
    report(2, "plemelj vs epsilon limit",
           pairs >= 20 and worst < 1e-4 and min_im > -1e-10,
           f"{pairs} pairs, worst rel {worst:.2e}, min Im {min_im:.2e}")


def test_criterion_03_embedding_constants(g2):
    fam = standard_family(g2, FamilySpec(count=60, seed=2)) \
        + shell_stress_family(g2, 48, seed=3)
    bound = math.sqrt(2.0) * (1.0 + 1e-6)
    worst = 0.0
    for _, f in fam:
        prof = slab_l2_profile(f)
        slab_int = float(np.sum(prof) * g2.spacing)
        slab_sup = float(np.max(prof))
        b, bs = b_norm(f), bstar_norm(f)
        if b > 0:
            worst = max(worst, slab_int / b)
        if slab_sup > 0:
            worst = max(worst, bs / slab_sup)
    report(3, "embedding constants sqrt(2)",
           len(fam) >= 100 and worst <= bound,
           f"{len(fam)} fields, worst ratio {worst:.6f}")


def test_criterion_04_restriction_constant():
    ok, details = True, []
    for d, n, r in ((2, 128, 1.0), (3, 32, 1.0)):
        consts = []
        for nn in (n, 2 * n):
            g = GridSpec(d, 6.8, nn)
            fam = standard_family(g, FamilySpec(count=8, seed=4))
            pd, _ = stein_tomas_exponent(d)
            lor = LorentzExponents(pd, 2.0)
            C = 0.0
            for _, f in fam:
                denom = min(b_norm(f), lorentz_norm(f, lor))
                if denom > 0:
                    C = max(C, sphere_restriction_norm(f, r) / denom)
            consts.append(C)
        stable = max(consts) <= 2.0 * min(consts)
        ok = ok and stable
        details.append(f"d={d}: C={consts[0]:.3f}->{consts[1]:.3f}")
    report(4, "sphere restriction constant", ok, "; ".join(details))


def test_criterion_05_kernel_decay():
    # far-field radii along rays inside the patch cone (see _directions)
    radii = [5.0, 10.0, 20.0, 35.0, 50.0]
    ok, worst = True, 1.0
    for d in (2, 3):
        dirs = _directions(d, 3)
        for m in (1, 2):
            t0 = time.monotonic()
            scan = decay_scan(1.0, m, radii, dirs, tol=1e-6)
            assert time.monotonic() - t0 < 300.0
            for j in range(len(dirs)):
                vals = [row[2] for row in
                        scan.rows[j * len(radii):(j + 1) * len(radii)]]
                med = float(np.median(vals))
                spread = max(max(vals) / med, med / min(vals))
                worst = max(worst, spread)
                ok = ok and spread <= 3.0
    report(5, "kernel decay factor-3 band", ok,
           f"worst band spread {worst:.2f}")


def test_criterion_06_free_lap_uniformity(g2):
    fam = standard_family(g2, FamilySpec(count=6, seed=0))
    lambdas = [0.5, 0.75, 1.0, 1.5, 2.0]
    epsilons = [0.1, 0.05, 0.02, 0.01, 0.005, 0.002, 0.001]
    out = lap_perturbed_sweep(zero_potential(g2), 1, lambdas, epsilons, fam)
    sups = list(out["sup_by_eps"].values())
    drift = max(sups) / min(sups)
    report(6, "free sweep uniformity", out["holes"] == 0 and drift < 2.0,
           f"drift {drift:.3f}, sup {out['sup']:.2f}")


def test_criterion_07_perturbed_resolvent(g2):
    fam = standard_family(g2, FamilySpec(count=4, seed=7))
    lambdas, epsilons = [0.5, 1.0, 2.0], [0.1, 0.01]

    # V = 0 reduction
    z0 = 1.0 + 0.1j
    sol0 = bs_solve(z0, 1, zero_potential(g2), fam[0][1])
    free0 = free_resolvent(z0, 1, fam[0][1])
    red = float(np.max(np.abs(sol0.u.values - free0.values)))

    V = well_potential(g2, depth=-0.05)
    pert = lap_perturbed_sweep(V, 1, lambdas, epsilons, fam)
    free = lap_perturbed_sweep(zero_potential(g2), 1, lambdas, epsilons, fam)
    worst_res = max(r.residual for r in pert["rows"])

    # Neumann contraction factor of R_0(z) V on the test family
    q = 0.0
    for lam in lambdas:
        for eps in epsilons:
            z = lam + 1j * eps
            for _, f in fam:
                vf = V.apply(f)
                q = max(q, xstar_norm(free_resolvent(z, 1, vf), 1)
                        / xstar_norm(f, 1))
    neumann_ok = q < 1.0 and \
        pert["sup"] <= 1.1 * free["sup"] / (1.0 - q)
    report(7, "perturbed resolvent",
           red < 1e-10 and worst_res <= 1e-8 and pert["holes"] == 0
           and neumann_ok,
           f"V=0 diff {red:.1e}, residual {worst_res:.1e}, q {q:.3f}, "
           f"sup {pert['sup']:.2f} vs bound "
           f"{1.1 * free['sup'] / (1.0 - q):.2f}")


def test_criterion_08_eigenvalue_oracle(g3_well):
    V = well_potential(g3_well, depth=-8.0)
    scan = eigen_scan(V, 1, (-8.0, -0.5), steps=151)
    found = min(lam for lam, _ in scan.candidates)
    oracle = direct_eigs(1, V, k=3).values[0]
    rel = abs(found - oracle) / abs(oracle)
    report(8, "square-well eigenvalue oracle", rel < 0.01,
           f"scan {found:.4f} vs lanczos {oracle:.4f}, rel {rel:.2%}")


def test_criterion_09_example_potential(g2_fine):
    q, J_max, ref = 2.0, 64, 128
    exps = LorentzExponents(q, math.inf)
    V_ref = example_potential(q, ref, g2_fine)
    tails, bounds = [], []
    for N in (4, 8, 16, 32, 64):
        VN = example_potential(q, N, g2_fine)
        tail = V_ref.field.with_values(V_ref.field.values - VN.field.values)
        tails.append(lorentz_norm(tail, exps))
        bounds.append(math.log(2.0 + N) ** (-1.0 / q))
    decreasing = all(b <= a + 1e-12 for a, b in zip(tails, tails[1:]))
    within = all(t <= 2.0 * b for t, b in zip(tails, bounds))
    report(9, "example potential tail chain", decreasing and within,
           f"tails {['%.3f' % t for t in tails]}")


def test_criterion_10_determinism(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        out.mkdir()
        code = main(["norms", "--set", "family.count=4", "--seed", "3",
                     "--out-dir", str(out)])
        assert code == 0
        outs.append((out / "norms.csv").read_bytes())
    report(10, "byte-identical tables", outs[0] == outs[1],
           f"{len(outs[0])} bytes")
