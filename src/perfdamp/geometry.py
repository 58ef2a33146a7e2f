"""Dimensional model of a perforated plate device and the equivalent-radius
conversions that let circular-cell damping models represent square holes.

All lengths are SI meters. The validated inputs (PlateGeometry,
BeamGeometry) are frozen dataclasses, so `dataclasses.replace` makes a
changed copy that is checked again; the derived result (DerivedGeometry) is
an immutable NamedTuple. Every operation is a pure function, so instances can
be shared freely across threads. A PlateGeometry derives its equivalent-cell
quantities once, when it is built, and carries them as `derived`; the models
read them from there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

# Square channels are mapped onto circular ones by matching acoustic
# impedances; the coefficient below is the unrounded published value.
HOLE_RADIUS_FACTOR = 1.096 / 2

# Perforation grid may overhang the plate outline by this much before the
# geometry is rejected (fabricated devices have border margins either way).
_GRID_SLACK = 1.10


@dataclass(frozen=True)
class BeamGeometry:
    """Supporting beams of the plate: length, width, and how many there are."""

    L_b: float
    W_b: float
    count: int = 4

    def __post_init__(self):
        for name in ("L_b", "W_b"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be non-negative and finite")
        if self.count < 1:
            raise ValueError("beam count must be >= 1")


@dataclass(frozen=True)
class PlateGeometry:
    """A rectangular plate of L x W with an M x N grid of square holes.

    s0 is the hole side, s1 the wall between adjacent holes, h the air-gap
    height under the plate and h_c the plate (hole channel) height.
    """

    L: float
    W: float
    M: int
    N: int
    s0: float
    s1: float
    h: float
    h_c: float
    beams: BeamGeometry | None = None
    derived: DerivedGeometry = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("L", "W", "s0", "s1", "h", "h_c"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be strictly positive and finite")
        if self.M < 1 or self.N < 1:
            raise ValueError("hole counts M, N must be >= 1")
        pitch = self.s0 + self.s1
        if not self.s0 / pitch < 1:
            raise ValueError("s1 is too thin against s0: s0/(s0 + s1) rounds to 1")
        if self.M * pitch > _GRID_SLACK * self.L:
            raise ValueError("perforation grid does not fit along plate length")
        if self.N * pitch > _GRID_SLACK * self.W:
            raise ValueError("perforation grid does not fit along plate width")
        object.__setattr__(self, "derived", derive_geometry(self))


class DerivedGeometry(NamedTuple):
    """Equivalent-cell quantities derived from a PlateGeometry.

    s_X: cell pitch; r_X: equivalent (area-matched) cell radius; r_0:
    impedance-matched hole radius; r_0E: effective square-hole radius used by
    the square-cell model; xi = s0/s_X; beta = r_0/r_X; q: perforation ratio.
    """

    s_X: float
    r_X: float
    r_0: float
    r_0E: float
    xi: float
    beta: float
    q: float


def cell_pitch(geom: PlateGeometry) -> float:
    """Pitch of the perforation cell, s0 + s1."""
    return geom.s0 + geom.s1


def perforation_ratio(geom: PlateGeometry) -> float:
    """Open-area fraction M*N*s0^2 / (L*W).

    Always computed from the dimensions; the published per-device percentages
    disagree with this formula by 2-3 points and are not used.
    """
    return geom.M * geom.N * geom.s0**2 / (geom.L * geom.W)


def equivalent_cell_radius(s_X: float) -> float:
    """Radius of the circle with the same area as the square cell: s_X/sqrt(pi)."""
    if s_X <= 0:
        raise ValueError("cell pitch must be positive")
    return s_X / math.sqrt(math.pi)


def equivalent_hole_radius(s0: float) -> float:
    """Impedance-matched circular radius of a square hole of side s0."""
    if s0 <= 0:
        raise ValueError("hole side must be positive")
    return HOLE_RADIUS_FACTOR * s0


def effective_square_radius(s0: float, xi: float) -> float:
    """Effective radius of a square hole for the square-cell model."""
    if not 0 < xi < 1:
        raise ValueError("xi must be in (0, 1)")
    return 0.58076 * s0 / (1 + 0.02108 * xi**2 + 0.008 * xi**4)


def derive_geometry(geom: PlateGeometry) -> DerivedGeometry:
    """All equivalent-cell quantities for a plate. PlateGeometry calls this
    once, when it is built, and keeps the result as `derived`."""
    s_X = cell_pitch(geom)
    r_X = equivalent_cell_radius(s_X)
    r_0 = equivalent_hole_radius(geom.s0)
    xi = geom.s0 / s_X
    return DerivedGeometry(
        s_X=s_X,
        r_X=r_X,
        r_0=r_0,
        r_0E=effective_square_radius(geom.s0, xi),
        xi=xi,
        beta=r_0 / r_X,
        q=perforation_ratio(geom),
    )
