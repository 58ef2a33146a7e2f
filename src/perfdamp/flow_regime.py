"""Characteristic numbers of the oscillating gas film.

Three effects are screened: rarefaction (Knudsen numbers), film
compressibility (squeeze number), and gas inertia in the hole channels
(Reynolds number). The significance thresholds are sigma ~ 20 (viscous and
spring forces equal) and Re ~ 6 (real and imaginary channel impedance equal).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

from perfdamp.checks import out_of_range, require_positive

if TYPE_CHECKING:
    from perfdamp.geometry import PlateGeometry

SIGMA_THRESHOLD = 20.0
RE_THRESHOLD = 6.0

# Slopes of the first-order slip-flow rate coefficient Q = 1 + slope*K of a
# gap (channel), a circular hole (tube) and a square hole, K the Knudsen
# number of that cross-section.
CHANNEL_SLIP_SLOPE = 6.0
TUBE_SLIP_SLOPE = 4.0
SQUARE_SLIP_SLOPE = 7.567

# Builds a record from the tuple of all its field values in order, without
# the Python-level __new__ of a NamedTuple class.
_new = tuple.__new__
_INF = math.inf


@dataclass(frozen=True)
class GasProperties:
    """Ambient gas state. Defaults are air at standard atmospheric conditions."""

    P_A: float = 101e3       # Pa
    rho: float = 1.155       # kg/m^3
    mu: float = 18.5e-6      # Pa s
    lam: float = 65e-9       # mean free path, m

    def __post_init__(self):
        require_positive(("P_A", self.P_A), ("rho", self.rho), ("mu", self.mu),
                         ("lam", self.lam))


class RegimeReport(NamedTuple):
    """Characteristic numbers of one device at one drive frequency.

    Rarefaction percentages are the estimated damping reductions (magnitudes)
    reported as Q - 1, i.e. 6*K_ch and 7.567*K_hole in percent. This matches
    the published convention; the algebraically distinct 1 - 1/Q would give
    slightly smaller numbers.
    """

    K_ch: float
    K_hole: float
    sigma_plate: float
    sigma_cell: float
    Re: float
    rarefaction_gap_pct: float
    rarefaction_hole_pct: float
    compressible: bool
    inertial: bool

    def to_dict(self) -> dict:
        return self._asdict()


def regime_report(geom: PlateGeometry, gas: GasProperties, f: float) -> RegimeReport:
    """Full characteristic-number screen of one device at drive frequency f (Hz).

    Conventions: the plate squeeze number uses the plate's short side, the
    cell squeeze number uses the wall width s1, and the channel Reynolds
    number uses r = s0/2. Kn = lam/length, sigma = 12*mu*w^2*omega/(P_A*h^2)
    for the dominating dimension w, and Re = rho*r^2*omega/mu. The plate and
    the gas are validated when they are built, so only f is checked here; a
    report with a number that leaves the float range is refused.
    """
    require_positive(("frequency", f))
    omega = 2.0 * math.pi * f
    lam, mu, h, s1 = gas.lam, gas.mu, geom.h, geom.s1
    short, half_s0 = geom.derived.short, geom.s0 / 2.0
    K_ch = lam / h
    K_hole = lam / geom.s0
    mu12 = 12.0 * mu
    # each square is a product: short^2 is inf where it overflows; s1^2 and
    # (s0/2)^2 cannot, as r_X^4 refuses the plate first
    short_sq = short * short
    try:
        P_Ah2 = gas.P_A * h**2
        sigma_plate = mu12 * short_sq * omega / P_Ah2
        sigma_cell = mu12 * (s1 * s1) * omega / P_Ah2
        Re = gas.rho * (half_s0 * half_s0) * omega / mu
    except ArithmeticError as exc:
        # a zero P_A*h^2 divides here, but short^2 overflowing came first
        raise out_of_range("regime report", None if short_sq == _INF else exc) from exc
    gap_pct = 100.0 * CHANNEL_SLIP_SLOPE * K_ch
    hole_pct = 100.0 * SQUARE_SLIP_SLOPE * K_hole
    # no number is negative, so one that is not below inf is inf or NaN: an
    # overflow (K_ch and K_hole are finite where their percentages are)
    if not (gap_pct < _INF and hole_pct < _INF and sigma_plate < _INF and sigma_cell < _INF
            and Re < _INF):
        raise out_of_range("regime report")
    return _new(RegimeReport, (
        K_ch, K_hole, sigma_plate, sigma_cell, Re, gap_pct, hole_pct,
        sigma_cell >= SIGMA_THRESHOLD, Re >= RE_THRESHOLD))
