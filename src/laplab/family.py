"""Versioned, seeded families of decaying test fields.

All sweep and norm experiments report suprema over one of these families, so
the family itself is part of the artifact: ``FAMILY_VERSION`` is bumped
whenever the construction changes, and every member is a deterministic
function of (grid, spec) alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import Field, GridSpec, PHYSICAL

FAMILY_VERSION = 1

KNOWN_KINDS = ("gaussian", "modulated", "translated", "shell", "ball")


@dataclass(frozen=True)
class FamilySpec:
    kinds: tuple = KNOWN_KINDS
    count: int = 12
    seed: int = 0
    modulation_radius: float = 1.0   # target |k|, usually r(lambda)

    def __post_init__(self):
        # each message starts with the field it names
        bad = [k for k in self.kinds if k not in KNOWN_KINDS]
        if bad:
            raise ValueError(f"kinds: unknown {bad}; known: {KNOWN_KINDS}")
        if not self.kinds:
            raise ValueError("kinds: must not be empty")
        if self.count < 0:
            raise ValueError(f"count: must be >= 0, got {self.count}")
        if self.seed < 0:
            raise ValueError(f"seed: must be >= 0, got {self.seed}")
        if not self.modulation_radius > 0:
            raise ValueError(f"modulation_radius: must be positive, "
                             f"got {self.modulation_radius}")


def _gaussian(grid: GridSpec, width: float, center, wavevector) -> np.ndarray:
    r2 = sum((x - c) ** 2 for x, c in zip(grid.coord_grids(), center))
    phase = sum(k * x for x, k in zip(grid.coord_grids(), wavevector))
    vals = np.exp(-r2 / (2.0 * width**2)) * np.exp(1j * phase)
    return np.broadcast_to(vals, grid.shape)


def _shell_bump(grid: GridSpec, radius: float, thickness: float) -> np.ndarray:
    r = np.broadcast_to(grid.radius_grid(), grid.shape)
    t = (r - radius) / thickness
    return np.exp(-(t**2))


def standard_family(grid: GridSpec, spec: FamilySpec) -> list:
    """Deterministic list of (label, Field) pairs.

    Gaussians at several widths, modulated copies with wavevectors near the
    configured radius, translated copies, and shell-localized bumps at dyadic
    radii (the adversarial cases for the dyadic norms).  Centers and widths
    are drawn from a seeded generator so refinement studies can reuse the
    exact same family on finer grids.
    """
    if spec.count == 0:
        return []
    rng = np.random.default_rng(spec.seed)
    L, d = grid.half_width, grid.dimension
    out = []
    per_kind = -(-spec.count // len(spec.kinds))   # ceil split
    for kind in spec.kinds:
        for i in range(per_kind):
            if len(out) >= spec.count:
                break
            if kind == "gaussian":
                w = 0.5 + rng.uniform(0.0, 1.0)
                vals = _gaussian(grid, w, (0.0,) * d, (0.0,) * d)
                label = f"gaussian_w{w:.3f}"
            elif kind == "modulated":
                w = 0.7 + rng.uniform(0.0, 0.6)
                u = rng.standard_normal(d)
                u /= np.linalg.norm(u)
                k = spec.modulation_radius * (1.0 + 0.1 * rng.uniform(-1, 1)) * u
                vals = _gaussian(grid, w, (0.0,) * d, tuple(k))
                label = f"modulated_{i}"
            elif kind == "translated":
                w = 0.6 + rng.uniform(0.0, 0.8)
                c = rng.uniform(-L / 4.0, L / 4.0, size=d)
                vals = _gaussian(grid, w, tuple(c), (0.0,) * d)
                label = f"translated_{i}"
            elif kind == "shell":
                j = i % max(1, int(np.log2(max(L / 2.0, 2.0))))
                radius = 2.0**j
                vals = _shell_bump(grid, radius, max(0.25, 2.0 * grid.spacing))
                label = f"shell_r{radius:g}"
            else:  # ball: indicator of the unit ball (the innermost dyadic region)
                r = np.broadcast_to(grid.radius_grid(), grid.shape)
                vals = np.where(r <= 1.0, 1.0 + 0j, 0.0)
                label = "ball_r1"
            out.append((label, Field(grid, np.ascontiguousarray(vals), PHYSICAL)))
    return out


def shell_stress_family(grid: GridSpec, n_shells: int, seed: int = 0) -> list:
    """Shell-localized fields at many radii/thicknesses.

    These concentrate mass on single dyadic shells or straddle shell
    boundaries, the cases where the B / B* embedding constants are attained.
    """
    rng = np.random.default_rng(seed)
    L = grid.half_width
    out = []
    for i in range(n_shells):
        radius = float(rng.uniform(0.3, 0.8 * L))
        thickness = float(max(2.0 * grid.spacing, rng.uniform(0.1, 1.5)))
        vals = _shell_bump(grid, radius, thickness)
        if rng.uniform() < 0.5:
            # straddle: add a second bump on the neighboring dyadic scale
            vals = vals + _shell_bump(grid, min(2.0 * radius, 0.9 * L),
                                      thickness)
        out.append((f"shell_{i}_r{radius:.2f}",
                    Field(grid, np.ascontiguousarray(vals + 0j), PHYSICAL)))
    return out
