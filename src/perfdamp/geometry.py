"""Dimensional model of a perforated plate device and the equivalent-radius
conversions that let circular-cell damping models represent square holes.

All lengths are SI meters. The validated inputs (PlateGeometry,
BeamGeometry) are frozen dataclasses, so `dataclasses.replace` makes a
changed copy that is checked again; the derived result (DerivedGeometry) is
an immutable NamedTuple. Every operation is a pure function, so instances can
be shared freely across threads.

A PlateGeometry runs `derive_geometry` once, when it is built, and keeps the
result as `derived`: the equivalent-cell quantities and the plate's
orientation, derived here, and the plate-only factors of M1-M6, which
`compact_models` owns and `derive_geometry` only stores.
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
_SQRT_PI = math.sqrt(math.pi)


def require_positive(*named: tuple[str, float]) -> None:
    """Refuse the first (name, value) pair whose value is not in (0, inf),
    NaN included, with a ValueError that names it. The message carries no
    value: callers such as `config` rename the field into a unit of their own."""
    for name, value in named:
        if not 0 < value < math.inf:
            raise ValueError(f"{name} must be positive and finite")


def require_non_negative(*named: tuple[str, float]) -> None:
    """The sibling of require_positive for quantities in [0, inf): refuse the
    first (name, value) pair outside it, NaN included, naming it."""
    for name, value in named:
        if not 0 <= value < math.inf:
            raise ValueError(f"{name} must be non-negative and finite")


@dataclass(frozen=True)
class BeamGeometry:
    """Supporting beams of the plate: length, width, and how many there are."""

    L_b: float
    W_b: float
    count: int = 4

    def __post_init__(self):
        require_non_negative(("L_b", self.L_b), ("W_b", self.W_b))
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
        s0 = self.s0
        require_positive(("L", self.L), ("W", self.W), ("s0", s0), ("s1", self.s1),
                         ("h", self.h), ("h_c", self.h_c))
        if self.M < 1 or self.N < 1:
            raise ValueError("hole counts M, N must be >= 1")
        pitch = s0 + self.s1
        if not s0 / pitch < 1:
            raise ValueError("s1 is too thin against s0: s0/(s0 + s1) rounds to 1")
        try:
            if self.M * pitch > _GRID_SLACK * self.L:
                raise ValueError("perforation grid does not fit along plate length")
            if self.N * pitch > _GRID_SLACK * self.W:
                raise ValueError("perforation grid does not fit along plate width")
            if not s0 / pitch > 0:
                raise ValueError("s0 is too small against s1: s0/(s0 + s1) rounds to 0")
            derived = derive_geometry(self)
        except ArithmeticError as exc:
            raise ValueError(f"plate dimensions are out of floating-point range "
                             f"({type(exc).__name__}: {exc})") from exc
        object.__setattr__(self, "derived", derived)


# compact_models and flow_regime import the names above from this module, so
# it binds the models' per-plate stage only once they are defined.
from perfdamp.compact_models import (  # noqa: E402
    CircularCellFactors,
    SquareCellFactors,
    plate_factors,
)


class DerivedGeometry(NamedTuple):
    """Equivalent-cell quantities and plate-only model factors of a PlateGeometry.

    s_X: cell pitch; r_X: equivalent (area-matched) cell radius; r_0:
    impedance-matched hole radius; r_0E: effective square-hole radius used by
    the square-cell model; xi = s0/s_X; beta = r_0/r_X; q: perforation ratio.
    short, long: the plate's sides, W and L unless W > L; the models and the
    regime screen read the orientation only from them.

    H_eff, eta, l (the effective hole length, perforation-loading factor and
    attenuation length that M1 and M2 share) and circular, square (the
    plate-only factors of the two cell resistances) are the compact models'
    per-plate stage, `compact_models.plate_factors`, which gives their formulas.
    """

    s_X: float
    r_X: float
    r_0: float
    r_0E: float
    xi: float
    beta: float
    q: float
    H_eff: float
    eta: float
    l: float
    short: float
    long: float
    circular: CircularCellFactors
    square: SquareCellFactors


def derive_geometry(geom: PlateGeometry) -> DerivedGeometry:
    """All equivalent-cell quantities and plate-only model factors of a plate.
    PlateGeometry calls this once, when it is built, and keeps the result as
    `derived`. On a plate outside the float range the first step that raises
    names the error, so the steps keep their order."""
    s_0 = geom.s0
    s_X = s_0 + geom.s1
    # area-matched: the circle with the area of the square cell
    r_X = s_X / _SQRT_PI
    # impedance-matched: the circular channel of the square hole's impedance
    r_0 = HOLE_RADIUS_FACTOR * s_0
    xi = s_0 / s_X
    # effective square radius: the square hole in the square-cell model
    r_0E = 0.58076 * s_0 / (1 + 0.02108 * xi**2 + 0.008 * xi**4)
    beta = r_0 / r_X
    H_eff, eta, l, circular, square = plate_factors(geom, s_X, r_X, r_0, r_0E, xi, beta)
    # open-area fraction from the dimensions; the published per-device
    # percentages disagree with it by 2-3 points and are not used
    q = geom.M * geom.N * s_0**2 / (geom.L * geom.W)
    short, long = (geom.W, geom.L) if geom.W <= geom.L else (geom.L, geom.W)
    return DerivedGeometry(s_X, r_X, r_0, r_0E, xi, beta, q, H_eff, eta, l, short, long,
                           circular, square)
