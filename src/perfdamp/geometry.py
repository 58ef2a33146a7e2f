"""Dimensional model of a perforated plate device and the equivalent-radius
conversions that let circular-cell damping models represent square holes.

All lengths are SI meters. The validated inputs (PlateGeometry,
BeamGeometry) are frozen dataclasses, so `dataclasses.replace` makes a
changed copy that is checked again; the derived result (DerivedGeometry) is
an immutable NamedTuple. Every operation is a pure function, so instances can
be shared freely across threads.

The compact models run in two stages. The per-plate stage is
`derive_geometry`, which a PlateGeometry runs once, when it is built, and
keeps as `derived`: the equivalent-cell quantities, and every factor of
M1-M6 that depends on the plate alone (the attenuation length shared by M1
and M2, and the plate-only parts of both cell resistances). It builds the
three records in one pass and computes each repeated power once; callers
read the conversions as fields of `derived` (s_X, r_X, r_0, r_0E, q). The
gas stage, in `compact_models`, reads the factors and does the arithmetic
that involves the gas, plus the M2 and border series. Each factor is a whole
subexpression of the model formula as written, evaluated in the same order,
so the split changes no result bit.
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
_3PI = 3 * math.pi
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


class CircularCellFactors(NamedTuple):
    """Plate-only factors of the circular-cell resistance, with rr = r_0/r_X,
    x = r_0/h and y = h_c/h; `cell_resistance_circular` gives the formulas."""

    r_X4: float    # r_X^4
    h3: float      # h^3
    g_S: float     # 0.5*ln(r_X/r_0) - 3/8 + rr^2/2 - rr^4/8
    g_IS: float    # (r_X^2 - r_0^2)^2
    r0h2: float    # r_0*h^2
    dS_num: float  # 0.56 - 0.32*rr + 0.86*rr^2
    f_B: float     # 1 + x^4*y^3/(7.11*(43*y^3 + 1))
    dB: float      # 1.33*(1 - 0.812*rr^2)
    dC: float      # 0.66 - 0.41*rr - 0.25*rr^2
    x35: float     # x^3.5
    dE: float      # 1 + 0.2*rr^2 - 0.754*rr^4
    scale: float   # (r_X/r_0)^4


class SquareCellFactors(NamedTuple):
    """Plate-only factors of the square-cell resistance, with rr = r_0E/r_X;
    `cell_resistance_square` gives the formulas."""

    r_X4: float     # r_X^4
    h3: float       # h^3
    g_S: float      # 0.5*ln(r_X/r_0E) - 3/8 + rr^2/2 - rr^4/8
    g_IS: float     # (s_X^2 - s0^2)^2
    s0h2: float     # s0*h^2
    delta_S: float  # 0.122*(1 + 6.5*xi - 3.8*xi^2)
    dE_xi: float    # 1 - xi^4
    dE_h: float     # 1 + 0.019*(s0/h)^2.83
    scale: float    # (s_X/s0)^4


class DerivedGeometry(NamedTuple):
    """Equivalent-cell quantities and plate-only model factors of a PlateGeometry.

    s_X: cell pitch; r_X: equivalent (area-matched) cell radius; r_0:
    impedance-matched hole radius; r_0E: effective square-hole radius used by
    the square-cell model; xi = s0/s_X; beta = r_0/r_X; q: perforation ratio.

    H_eff = h_c + 3*pi*r_0/8: effective hole length; eta = 1 +
    3*r_0^4*K/(16*H_eff*h^3) with K = 4*beta^2 - beta^4 - 4*ln(beta) - 3: the
    perforation-loading factor; l = sqrt(2*h^3*H_eff*eta/(3*beta^2*r_0^2)):
    the attenuation length of the perforated-plate Reynolds solution. M1 and
    M2 share them. short, long: the plate's sides, W and L unless W > L; the
    models and the regime screen read the orientation only from them.
    circular, square: the plate-only factors of the two cell resistances.
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
    `derived`. Each repeated power is computed once, where it is first needed:
    on a plate outside the float range the first step that raises names the
    error, so the steps keep their order. The circular cell's rr = r_0/r_X is
    beta itself."""
    s_0, h, h_c = geom.s0, geom.h, geom.h_c
    s_X = s_0 + geom.s1
    # area-matched: the circle with the area of the square cell
    r_X = s_X / _SQRT_PI
    # impedance-matched: the circular channel of the square hole's impedance
    r_0 = HOLE_RADIUS_FACTOR * s_0
    xi = s_0 / s_X
    # effective square radius: the square hole in the square-cell model
    r_0E = 0.58076 * s_0 / (1 + 0.02108 * xi**2 + 0.008 * xi**4)
    beta = r_0 / r_X
    h3, r_X4 = h**3, r_X**4
    beta2, beta4 = beta**2, beta**4
    K = 4 * beta2 - beta4 - 4 * math.log(beta) - 3
    H_eff = h_c + _3PI * r_0 / 8
    # eta's denominator uses the effective hole length, not the bare plate
    # height; with the bare height the published comparison is missed by up
    # to 3.5 points, with H_eff five of six devices match within 0.01 points.
    eta = 1 + 3 * r_0**4 * K / (16 * H_eff * h3)
    # open-area fraction from the dimensions; the published per-device
    # percentages disagree with it by 2-3 points and are not used
    q = geom.M * geom.N * s_0**2 / (geom.L * geom.W)
    short, long = (geom.W, geom.L) if geom.W <= geom.L else (geom.L, geom.W)
    r_02 = r_0**2
    l = math.sqrt(2 * h3 * H_eff * eta / (3 * beta2 * r_02))
    x, h2, y3 = r_0 / h, h**2, (h_c / h) ** 3
    circular = CircularCellFactors(
        r_X4, h3,
        0.5 * math.log(r_X / r_0) - 3 / 8 + beta2 / 2 - beta4 / 8,
        (r_X**2 - r_02) ** 2,
        r_0 * h2,
        0.56 - 0.32 * beta + 0.86 * beta2,
        1 + x**4 * y3 / (7.11 * (43 * y3 + 1)),
        1.33 * (1 - 0.812 * beta2),
        0.66 - 0.41 * beta - 0.25 * beta2,
        x**3.5,
        1 + 0.2 * beta2 - 0.754 * beta4,
        (r_X / r_0) ** 4,
    )
    rr = r_0E / r_X
    square = SquareCellFactors(
        r_X4, h3,
        0.5 * math.log(r_X / r_0E) - 3 / 8 + rr**2 / 2 - rr**4 / 8,
        (s_X**2 - s_0**2) ** 2,
        s_0 * h2,
        0.122 * (1 + 6.5 * xi - 3.8 * xi**2),
        1 - xi**4,
        1 + 0.019 * (s_0 / h) ** 2.83,
        (s_X / s_0) ** 4,
    )
    return DerivedGeometry(s_X, r_X, r_0, r_0E, xi, beta, q, H_eff, eta, l, short, long,
                           circular, square)
