"""Validated inputs of a perforated plate device: the plate and its beams.

All lengths are SI meters and all counts ints. The records are frozen
dataclasses: `dataclasses.replace` makes a changed copy that is checked
again, and instances can be shared freely across threads.

A PlateGeometry runs `derive_geometry` once, when it is built, and keeps the
result as `derived`: every product of M1-M6 and of the regime screen that
holds no gas quantity, each kept only because a function reads it. Both
that function and DerivedGeometry belong to `compact_models`, whose model
docstrings give the formulas.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from perfdamp.checks import range_kind, require_non_negative, require_positive
from perfdamp.compact_models import DerivedGeometry, derive_geometry

# Perforation grid may overhang the plate outline by this much before the
# geometry is rejected (fabricated devices have border margins either way).
_GRID_SLACK = 1.10


def _require_int(*named: tuple[str, int]) -> None:
    """Refuse the first (name, value) pair whose value is not an int (a bool,
    a float and NaN are not), with a ValueError that names it."""
    for name, value in named:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"{name} must be an integer, got {type(value).__name__}")


@dataclass(frozen=True)
class BeamGeometry:
    """Supporting beams of the plate: length, width, and how many there are."""

    L_b: float
    W_b: float
    count: int = 4

    def __post_init__(self):
        require_non_negative(("L_b", self.L_b), ("W_b", self.W_b))
        _require_int(("count", self.count))
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
        M, N = self.M, self.N
        _require_int(("M", M), ("N", N))
        if M < 1 or N < 1:
            raise ValueError("hole counts M, N must be >= 1")
        pitch = s0 + self.s1
        if not s0 / pitch < 1:
            raise ValueError("s1 is too thin against s0: s0/(s0 + s1) rounds to 1")
        try:
            if M * pitch > _GRID_SLACK * self.L:
                raise ValueError("perforation grid does not fit along plate length")
            if N * pitch > _GRID_SLACK * self.W:
                raise ValueError("perforation grid does not fit along plate width")
            if not s0 / pitch > 0:
                raise ValueError("s0 is too small against s1: s0/(s0 + s1) rounds to 0")
            derived = derive_geometry(self)
        except ArithmeticError as exc:
            raise ValueError(f"plate dimensions are out of floating-point range "
                             f"({range_kind(exc)})") from exc
        object.__setattr__(self, "derived", derived)
