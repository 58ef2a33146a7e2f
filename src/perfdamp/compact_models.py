"""Compact squeeze-film damping models for perforated rectangular plates.

Six models (MODELS) are provided, all functions of (geom, gas). M1 (long
narrow plate) and M2 (arbitrary rectangle) are the continuum models as
published, built on an attenuation-length solution of the modified Reynolds
equation. M3-M6 share one path, `_cell_model`: the slip-corrected resistance
R_p of one perforation cell, circular (M3, M5) or square (M4, M6), feeds a
double-series border-flow solution (M3, M4) or the cell-only, closed-borders
c = M*N*R_p (M5, M6). `evaluate` runs several models on one (plate, gas), each
through its MODELS entry. A rough supporting-beam drag estimate completes the set.

All functions are pure. They take the validated inputs, PlateGeometry and
GasProperties (frozen dataclasses), and return their results as immutable
NamedTuples (ModelResult, CellResistanceBreakdown). The functions here build
each record positionally with `tuple.__new__(Cls, (...))`, every field
written out, defaults included, which skips the Python-level `__new__` that
NamedTuple generates; the keyword constructors stay the public way to build
a record, and build an equal one. The M2 shape series and the M3/M4 border
double series are evaluated in closed form plus a number of explicit terms
fixed before summing, which each result reports as `series_terms`.

Each model runs in two stages. The per-plate stage, `derive_geometry`,
computes once per plate every product that holds no gas quantity and
returns them as a DerivedGeometry, which a PlateGeometry keeps as `derived`.
The gas stage, the model functions, does only the arithmetic in mu and lam
(and, in the border series, the series itself). M1 and M2 are exactly
linear in mu, the only gas quantity they read, so the plate keeps their
c/mu; where their per-plate arithmetic leaves the float range, the plate
keeps the refusal's message instead and still builds, and the model raises
it as a ModelDomainError when it is called. Each model's docstring states
its full formula. Moving mu out of a product, and regrouping, rounds
differently from the formula as written, by a few ulps. M1-M6 raise
ModelDomainError on a floating-point overflow or division by zero, and on a
c that is not finite, positive and normal (a subnormal c has lost precision
to underflow; a c/mu that overflowed gives an inf c).
"""

from __future__ import annotations

import math
import sys
from typing import TYPE_CHECKING, Callable, NamedTuple, Sequence

from perfdamp.checks import ModelDomainError, out_of_range, require_positive
from perfdamp.flow_regime import CHANNEL_SLIP_SLOPE, SQUARE_SLIP_SLOPE, TUBE_SLIP_SLOPE

if TYPE_CHECKING:
    from perfdamp.flow_regime import GasProperties
    from perfdamp.geometry import BeamGeometry, PlateGeometry

# Closed-form series. Both series run over odd indices and rest on
# sum_{n odd} 1/(n^2 + c^2) = pi*tanh(pi*c/2)/(4c) (Gradshteyn & Ryzhik 1.421).
#
# Border series (M3/M4): the inner sum over n is exact, and so is one part of the
# outer sum over m. The other part has terms C*tanh(pi*c_m/2)*f(m) with
# f(x) = 1/(x^2 (x^2 + d^2)^(3/2)). Its first BORDER_TERMS odd m are summed explicitly.
# From x0 = 17 on tanh = 1 (b >= a puts its argument above 26.7), and the rest is the
# Euler-Maclaurin sum (step 2) I/2 + f(x0)/2 - f'(x0)/6 + f'''(x0)/90 - f5(x0)/945,
# with I = 1/(x0 s (s + x0)^2) the integral of f from x0 and s = sqrt(x0^2 + d^2).
# Each correction is f(x0) times a polynomial in rho = d^2/s^2 and sig = x0^2/s^2;
# as rho = 1 - sig, together they are f(x0) times one polynomial in sig, which lies
# in [0, 1], so no power of d^2 can overflow. Against the 40-digit sums of
# tests/golden/border_truth.csv the relative error is at most 7.5e-13 on devices A-F
# and 1.8e-12 on other plates.
#
# M2 shape series: the sum with tanh(x_n) replaced by 1 is exact. The
# difference, 1 - tanh(x_n) = 2/(exp(2 x_n) + 1), is summed over the odd n
# with x_n < TANH_SATURATION, a count fixed by the geometry; the terms left
# out change the series by less than 2*exp(-2*TANH_SATURATION) ~ 6e-17
# relatively.
BORDER_TERMS = 8
TANH_SATURATION = 19.0

# math.tanh returns exactly 1.0 from x = 19.0616 on (1 - tanh x = 2/(e^(2x) + 1)
# falls below half an ulp of 1), so a border term whose tanh argument reaches
# this takes 1.0 without calling tanh.
_TANH_ONE = 19.1
# m^2 for the odd m of the explicit border terms, as floats: the loop adds
# them to d^2 and multiplies them by floats, which converts an int each time.
_ODD_SQUARES = tuple(float(m * m) for m in range(1, 2 * BORDER_TERMS, 2))
# First index of the border tail, the steps of its three corrections in powers
# of 1/x0, and the constant powers of pi in both series.
_X0 = 2 * BORDER_TERMS + 1
_X0SQ = _X0 * _X0
_EM1, _EM3, _EM5 = 1 / (6 * _X0), 1 / (30 * _X0**3), 1 / (21 * _X0**5)
# The tail's bracket 1/2 + (2 + 3 sig)/(6 x0) - (8 + 12 sig + 15 sig^2 + 35 sig^3)/(30 x0^3)
# + (16 + 24 sig + 30 sig^2 + 35 sig^3 + 231 sig^5)/(21 x0^5), by powers of sig.
_TAIL0 = 0.5 + 2 * _EM1 - 8 * _EM3 + 16 * _EM5
_TAIL1 = 3 * _EM1 - 12 * _EM3 + 24 * _EM5
_TAIL2 = -15 * _EM3 + 30 * _EM5
_TAIL3 = -35 * _EM3 + 35 * _EM5
_TAIL5 = 231 * _EM5
_PI2 = math.pi**2
_PI2_4 = _PI2 / 4
_PI2_8 = _PI2 / 8
_PI2_8_SQ = _PI2_8**2
_PI6 = math.pi**6
_PI6_256 = _PI6 / 256
_PI6_6_768 = _PI6 * 6 / 768
_PI4_64 = math.pi**4 / 64

# 1 - t*tanh(1/t) = x*P(x) with x = 1/t^2, where P(x) = (y - tanh y)/y^3 at
# y^2 = x: the Taylor coefficients of tanh from y^3 on (1/3, 2/15, 17/315,
# 62/2835, ...) with their signs flipped, highest power first, for Horner's
# rule. Above t = _LEAK_SWITCH the 16 terms are good to 4e-16; below it the
# direct form loses at most 3.7e-15 to cancellation.
_LEAK_SWITCH = 2.0
_LEAK_SWITCH_Y2 = 1 / _LEAK_SWITCH**2
_LEAK_TAYLOR = (
    -4.294911078273806e-07, 1.0597268320104654e-06, -2.6147711512907546e-06,
    6.451689215655431e-06, -1.5918905069328964e-05, 3.927832388331683e-05,
    -9.691537956929451e-05, 0.00023912911424355248, -0.000590027440945586,
    0.0014558343870513183, -0.003592128036572481, 0.008863235529902197,
    -0.021869488536155203, 0.05396825396825397, -0.13333333333333333, 0.3333333333333333,
)

# R_S's bracket ln(1/rr)/2 - 3/8 + rr^2/2 - rr^4/8 cancels as rr -> 1. With
# w = (1 - rr^2)/(1 + rr^2) it is (w^3/2)*(1/(1 + w)^2 + sum_k w^(2k)/(2k + 3)),
# which has no cancellation; where rr^2 lies in (1/2, 2), |w| < 1/3 and these 16
# terms (highest power first, for Horner's rule) truncate it below 2e-17. Where
# rr^2 <= 1/2 the direct form is within 5e-15.
_ANNULUS_SERIES = tuple(1 / (2 * k + 3) for k in range(15, -1, -1))

# Constant products of the cell resistances' plate-only coefficients.
_12PI = 12 * math.pi
_6PI = 6 * math.pi
_8PI = 8 * math.pi
_8PI_DELTA_E0 = _8PI * 0.944 * 3 * math.pi / 16
_3PI = 3 * math.pi

# Square channels are mapped onto circular ones by matching acoustic
# impedances; the coefficient below is the unrounded published value.
HOLE_RADIUS_FACTOR = 1.096 / 2
_SQRT_PI = math.sqrt(math.pi)
_TINY = sys.float_info.min

# Builds a record from the tuple of all its field values in order, without
# the Python-level __new__ of a NamedTuple class (which only fills in
# defaults): _new(ModelResult, ("m1", c, None, 0, True)).
_new = tuple.__new__


class CellResistanceBreakdown(NamedTuple):
    """Flow resistance of one perforation cell, by component (Ns/m each).

    R_S: squeeze-film resistance of the cell annulus; R_IS, R_IB, R_IC:
    intermediate-region resistances; R_C: hole channel resistance; R_E:
    outlet-elongation resistance. R_IC, R_C and R_E are referred to the cell:
    each is multiplied by the (r_X/r_0)^4 or (s_X/s0)^4 factor that
    `geom.derived.circular.scale` or `geom.derived.square.scale` holds. R_p,
    the cell resistance, is the float sum of the six from left to right, so
    sum(br[:6]) == R_p holds exactly.
    """

    R_S: float
    R_IS: float
    R_IB: float
    R_IC: float
    R_C: float
    R_E: float
    R_p: float

    def percentages(self) -> tuple[float, float, float, float, float, float]:
        """Relative contributions of the six components to R_p, in percent."""
        S, IS, IB, IC, C, E, R_p = self
        return (100.0 * S / R_p, 100.0 * IS / R_p, 100.0 * IB / R_p,
                100.0 * IC / R_p, 100.0 * C / R_p, 100.0 * E / R_p)


class ModelResult(NamedTuple):
    model: str
    c: float
    breakdown: CellResistanceBreakdown | None = None
    series_terms: int = 0
    converged: bool = True


class CircularCellFactors(NamedTuple):
    """Plate-only coefficients of the circular-cell resistance, one per
    component, with rr = r_0/r_X, x = r_0/h, y = h_c/h and scale =
    (r_X/r_0)^4; `cell_resistance_circular` multiplies each A_X by mu and
    its slip factor. A_C leaves scale to the gas stage, after the slip
    divisor Q_tb: Q_tb grows as 1/r_0 and scale as 1/r_0^4, so on a plate
    with tiny holes h_c*scale can overflow where R_C does not."""

    A_S: float      # 12*pi*r_X^4/h^2 * (ln(r_X/r_0)/2 - 3/8 + rr^2/2 - rr^4/8)
    A_IS: float     # 6*pi*(r_X^2 - r_0^2)^2/(r_0*h^2) * (0.56 - 0.32*rr + 0.86*rr^2)
    A_IB: float     # 8*pi*r_0 * 1.33*(1 - 0.812*rr^2) * (1 + x^4*y^3/(7.11*(43*y^3 + 1)))
    A_IC: float     # 8*pi*r_0 * (0.66 - 0.41*rr - 0.25*rr^2) * scale
    A_C: float      # 8*pi*h_c
    A_E: float      # 8*pi*r_0 * 0.944*3*pi/16 * (1 + 0.2*rr^2 - 0.754*rr^4) * scale
    x35_178: float  # x^3.5/178
    scale: float    # (r_X/r_0)^4


class SquareCellFactors(NamedTuple):
    """Plate-only coefficients of the square-cell resistance, one per
    component (R_IB is 0), with rr = r_0E/r_X and scale = (s_X/s0)^4;
    `cell_resistance_square` multiplies each A_X by mu and its slip factor,
    and R_C by scale after its slip divisor, as the circular cell does."""

    A_S: float    # 12*pi*r_X^4/h^2 * (ln(r_X/r_0E)/2 - 3/8 + rr^2/2 - rr^4/8)
    A_IS: float   # 3*(s_X^2 - s0^2)^2/(s0*h^2) * 0.122*(1 + 6.5*xi - 3.8*xi^2)
    A_IC: float   # 28.454*s0*0.302 * scale
    A_C: float    # 28.454*h_c
    A_E: float    # 28.454*0.242*(1 - xi^4)*(1 + 0.019*(s0/h)^2.83)*s0 * scale
    scale: float  # (s_X/s0)^4


class DerivedGeometry(NamedTuple):
    """The per-plate stage of a PlateGeometry, built by `derive_geometry`:
    each field is a product that holds no gas quantity, commented with the
    function that reads it. The formulas are those of the reader's
    docstring; short and long are the plate's sides, W and L unless W > L."""

    r_0: float                      # cell_resistance_circular: HOLE_RADIUS_FACTOR*s0
    beta: float                     # the benchmark's M2 reference: r_0/r_X
    m2_terms: int                   # damping_m2: its series_terms
    m1_per_mu: float                # damping_m1: c/mu, NaN where m1_refusal is set
    m2_per_mu: float                # damping_m2: c/mu, NaN where m2_refusal is set
    m1_refusal: str | None          # damping_m1: None, or the message it raises
    m2_refusal: str | None          # damping_m2: None, or the message it raises
    short_1_3h: float               # damping_border_coupled: short + 1.3h
    long_1_3h: float                # damping_border_coupled: long + 1.3h
    pi6_h3_768: float               # damping_border_coupled: pi^6*h^3/768
    pi6_6h2_768: float              # damping_border_coupled: pi^6*6h^2/768
    pi4_64MN: float                 # damping_border_coupled: pi^4/(64*M*N)
    short_sq: float                 # regime_report: short^2, inf where it overflows
    s1_sq: float                    # regime_report: s1^2
    half_s0_sq: float               # regime_report: (s0/2)^2
    circular: CircularCellFactors   # cell_resistance_circular
    square: SquareCellFactors       # cell_resistance_square


def _checked(label: str, c: float) -> float:
    """c itself, if it is a physical damping coefficient: finite and positive,
    and not below the smallest normal float (a subnormal c has lost precision
    to underflow, as mu*c/mu does for a vanishing viscosity)."""
    if not _TINY <= c < math.inf:
        raise ModelDomainError(f"{label} produced a non-physical damping coefficient")
    return c


def _leak_series(x: float) -> float:
    """(y - tanh y)/y^3 at y^2 = x, by its Taylor series (_LEAK_TAYLOR)."""
    p = 0.0
    for c in _LEAK_TAYLOR:
        p = p * x + c
    return p


def _leak_brackets(al: float) -> tuple[float, float]:
    """(1 - al*tanh(1/al), 1 - 1.5*al*tanh(1/al) + 0.5*sech(1/al)^2): the
    border-leakage attenuation of M1 and M2, and M2's shape bracket, the closed
    form of (8/pi^2) * sum_{n odd} 1/(n^2 t_n^2) with t_n = 1 + (n*pi*al/2)^2.

    Both cancel as al grows (very leaky films), the shape bracket down to
    O(al^-4), so above _LEAK_SWITCH they come from one Horner pass of
    _LEAK_TAYLOR with x = 1/al^2: x*p and x^2*(1.5*q + p - 0.5*x*p^2), where
    p = _leak_series(x) = q*x + 1/3 and q is its sum without the constant.
    There the first is within 1e-15 and the second within 3e-15; below, the
    direct forms share one tanh and are within 4e-15 and 7e-14. al = 0
    divides by zero.
    """
    if al > _LEAK_SWITCH:
        x = 1.0 / (al * al)
        q = 0.0
        for c in _LEAK_TAYLOR[:-1]:
            q = q * x + c
        p = q * x + _LEAK_TAYLOR[-1]
        return x * p, x * x * (1.5 * q + p - 0.5 * x * p * p)
    t = math.tanh(1.0 / al)
    leak = 1.0 - al * t
    return leak, 1.5 * leak - 0.5 * t * t


def _annulus_bracket(r_X: float, r_in: float, rr: float, rr2: float, rr4: float) -> float:
    """ln(r_X/r_in)/2 - 3/8 + rr^2/2 - rr^4/8, R_S's bracket, with rr = r_in/r_X
    and its powers rr2 = rr**2, rr4 = rr**4: the direct form, or the series of
    _ANNULUS_SERIES where rr^2 is in (1/2, 2), near the cancellation at rr = 1."""
    if not 0.5 < rr2 < 2.0:
        return 0.5 * math.log(r_X / r_in) - 3 / 8 + rr2 / 2 - rr4 / 8
    w = (1 - rr) * (1 + rr) / (1 + rr2)
    x = w * w
    p = 0.0
    for c in _ANNULUS_SERIES:
        p = p * x + c
    return 0.5 * w * x * (1 / ((1 + w) * (1 + w)) + p)


def _m2_gamma(al: float, kappa: float, leak: float, shape: float) -> tuple[float, int]:
    """M2's gamma and the number of its explicit series terms (see damping_m2),
    from al, kappa and the two _leak_brackets at al."""
    k = math.pi * al / 2
    s = _PI2_8 * shape
    # x_n < TANH_SATURATION exactly when n*k < sqrt((TANH_SATURATION*al*kappa)^2 - 1),
    # so no term is needed where that radicand is not positive
    odd = ()
    r2 = (TANH_SATURATION * al * kappa) ** 2 - 1
    if r2 > 0:
        odd = range(1, int(math.sqrt(r2) / k) + 1, 2)
        ak = al * kappa
        for n in odd:
            t = 1 + (n * k) ** 2
            s -= 2 / (math.exp(2 * math.sqrt(t) / ak) + 1) / (n**2 * t**2)
    # 3*al^3*tanh(1/al) equals 6*al^3*sinh(1/al)^2/sinh(2/al) and cannot overflow
    return 3 * al**2 * leak - 24 * al**3 * kappa / _PI2 * s, len(odd)


def derive_geometry(geom: PlateGeometry) -> DerivedGeometry:
    """The DerivedGeometry of a plate, which PlateGeometry keeps as `derived`.
    Each repeated power is computed once, where it is first needed, and the
    steps keep their order: on a plate outside the float range the first step
    that raises names the error. M1's and M2's steps come last and raise
    nothing: a float-range error there becomes that model's kept refusal."""
    s_0, h, h_c = geom.s0, geom.h, geom.h_c
    s_X = s_0 + geom.s1
    # area-matched: the circle with the area of the square cell
    r_X = s_X / _SQRT_PI
    # impedance-matched: the circular channel of the square hole's impedance
    r_0 = HOLE_RADIUS_FACTOR * s_0
    xi = s_0 / s_X
    xi2, xi4 = xi**2, xi**4
    # effective square radius: the square hole in the square-cell model
    r_0E = 0.58076 * s_0 / (1 + 0.02108 * xi2 + 0.008 * xi4)
    beta = r_0 / r_X
    h3, r_X4 = h**3, r_X**4
    beta2, beta4 = beta**2, beta**4
    K = 4 * beta2 - beta4 - 4 * math.log(beta) - 3
    H_eff = h_c + _3PI * r_0 / 8
    # eta's denominator uses the effective hole length, not the bare plate
    # height; with the bare height the published comparison is missed by up
    # to 3.5 points, with H_eff five of six devices match within 0.01 points.
    eta = 1 + 3 * r_0**4 * K / (16 * H_eff * h3)
    r_02 = r_0**2
    l = math.sqrt(2 * h3 * H_eff * eta / (3 * beta2 * r_02))
    # h^3 and r_X^4 are finite here, so h^2 and r_X^2 are products; the powers
    # that can overflow keep their order
    x, h2, y3 = r_0 / h, h * h, (h_c / h) ** 3
    g_IS = r_X * r_X - r_02
    g_IS *= g_IS
    f_B = 1 + x**4 * y3 / (7.11 * (43 * y3 + 1))
    x35 = x**3.5
    scale = (r_X / r_0) ** 4
    circular = _new(CircularCellFactors, (
        r_X4 / h2 * (_12PI * _annulus_bracket(r_X, r_0, beta, beta2, beta4)),
        g_IS / r_0 / h2 * (_6PI * (0.56 - 0.32 * beta + 0.86 * beta2)),
        _8PI * r_0 * (1.33 * (1 - 0.812 * beta2)) * f_B,
        _8PI * r_0 * (0.66 - 0.41 * beta - 0.25 * beta2) * scale,
        _8PI * h_c,
        _8PI_DELTA_E0 * r_0 * (1 + 0.2 * beta2 - 0.754 * beta4) * scale,
        x35 / 178,
        scale,
    ))
    rr = r_0E / r_X
    g_IS = (s_X**2 - s_0**2) ** 2
    dE_h = 1 + 0.019 * (s_0 / h) ** 2.83
    scale = (s_X / s_0) ** 4
    square = _new(SquareCellFactors, (
        r_X4 / h2 * (_12PI * _annulus_bracket(r_X, r_0E, rr, rr**2, rr**4)),
        g_IS / s_0 / h2 * (3 * 0.122 * (1 + 6.5 * xi - 3.8 * xi2)),
        28.454 * s_0 * 0.302 * scale,
        28.454 * h_c,
        28.454 * 0.242 * (1 - xi4) * dE_h * s_0 * scale,
        scale,
    ))
    MN = geom.M * geom.N
    short, long = (geom.W, geom.L) if geom.W <= geom.L else (geom.L, geom.W)
    # M1 and M2 read the plate's size through al = l/a, a = short/2. Their
    # arithmetic may leave the float range here, and then refuses the model,
    # not the plate: the refusal is kept and raised when the model is called
    a, b = short / 2, long / 2
    al = l / a
    m2_terms, m1_refusal, m2_refusal = 0, None, None
    m1_per_mu = m2_per_mu = math.nan
    try:
        leak, shape = _leak_brackets(al)
        m1_per_mu = 2 * a * long * (8 * H_eff / (beta2 * r_02)) * eta * leak
    except ZeroDivisionError as exc:  # al = 0, or beta^2*r_0^2 underflowed
        m1_refusal = str(out_of_range("M1", exc))
    if not 0 < al < math.inf:
        m2_refusal = "M2 attenuation length is not a positive finite number"
    else:
        try:
            gamma, m2_terms = _m2_gamma(al, a / b, leak, shape)
            m2_per_mu = gamma * (2 * a) ** 3 * (2 * b) / h3
        # ValueError: int() of a NaN series length, inf/inf once pi*al/2 overflows;
        # OverflowError: (2a)^3
        except (ArithmeticError, ValueError) as exc:
            m2_refusal = str(out_of_range("M2", exc))
    h_13 = 1.3 * h
    # the regime screen's squares, as regime_report writes them: a product, so
    # short^2 is inf where it overflows (s1^2 and (s0/2)^2 are finite here)
    return _new(DerivedGeometry, (r_0, beta, m2_terms, m1_per_mu, m2_per_mu, m1_refusal,
                                  m2_refusal, short + h_13, long + h_13, _PI6 * h3 / 768,
                                  _PI6_6_768 * h2, _PI4_64 / MN, short * short, geom.s1**2,
                                  (s_0 / 2.0) ** 2, circular, square))


def damping_m1(geom: PlateGeometry, gas: GasProperties) -> ModelResult:
    """Model M1: continuum compact model for a plate much longer than wide.

    c = 2*a*long * 8*mu*H_eff/(beta^2*r_0^2) * eta * (1 - (l/a)*tanh(a/l)), with
    short, long the plate's sides (W and L unless W > L), a = short/2 and
      r_X = (s0 + s1)/sqrt(pi), the area-matched cell radius,
      r_0 = HOLE_RADIUS_FACTOR*s0, the impedance-matched hole radius,
      beta = r_0/r_X, K = 4*beta^2 - beta^4 - 4*ln(beta) - 3,
      H_eff = h_c + 3*pi*r_0/8, the effective hole length,
      eta = 1 + 3*r_0^4*K/(16*H_eff*h^3), the perforation-loading factor,
      l = sqrt(2*h^3*H_eff*eta/(3*beta^2*r_0^2)), the attenuation length.

    Note: the damping prefactor uses H_eff, not the bare plate height; with
    the bare height the model misses the published comparison by 10-18 points.
    c is exactly linear in mu, the only gas quantity it reads, so
    `derive_geometry` computes the rest of the product, c/mu, as
    `geom.derived.m1_per_mu`.
    """
    d = geom.derived
    if d.m1_refusal:
        raise ModelDomainError(d.m1_refusal)
    return _new(ModelResult, ("m1", _checked("M1", gas.mu * d.m1_per_mu), None, 0, True))


def damping_m2(geom: PlateGeometry, gas: GasProperties) -> ModelResult:
    """Model M2: continuum compact model for an arbitrary rectangular plate.

    c = gamma * mu * (2a)^3 * (2b) / h^3 with a = short/2, b = long/2,
    kappa = a/b, al = l/a (short, long and l as in damping_m1) and
    gamma = 3*al^2 - 3*al^3*tanh(1/al)
            - (24*al^3*kappa/pi^2) * sum_{n odd} tanh(x_n)/(n^2 t_n^2),
    t_n = 1 + (n*pi*al/2)^2, x_n = sqrt(t_n)/(al*kappa).

    As kappa <= 1, the series is the closed form of the series with tanh = 1,
    less at most about 6 terms 1 - tanh(x_n) that are not negligible;
    `series_terms` counts those. gamma, that count and c/mu hold no gas, so
    `derive_geometry` computes them, and the plate keeps the count and c/mu
    (`geom.derived.m2_terms`, `.m2_per_mu`).
    """
    d = geom.derived
    if d.m2_refusal:
        raise ModelDomainError(d.m2_refusal)
    return _new(ModelResult, ("m2", _checked("M2", gas.mu * d.m2_per_mu), None, d.m2_terms, True))


def cell_resistance_circular(geom: PlateGeometry, gas: GasProperties) -> CellResistanceBreakdown:
    """Flow resistance of one circular-equivalent perforation cell (model M5's
    cell; also feeds M3), slip-flow corrected.

    With r_X and r_0 as in damping_m1, rr = r_0/r_X, x = r_0/h, y = h_c/h,
    K_ch = lam/h, K_tb = lam/r_0, Q_ch = 1 + 6*K_ch and Q_tb = 1 + 4*K_tb:
      R_S  = 12*pi*mu*r_X^4/(Q_ch*h^3) * (ln(r_X/r_0)/2 - 3/8 + rr^2/2 - rr^4/8)
      R_IS = 6*pi*mu*(r_X^2 - r_0^2)^2/(r_0*h^2) * delta_S,
             delta_S = (0.56 - 0.32*rr + 0.86*rr^2)/(1 + 2.5*K_ch)
      R_IB = 8*pi*mu*r_0*delta_B, delta_B = 1.33*(1 - 0.812*rr^2)
             * (1 + 0.732*K_tb)/(1 + K_ch) * f_B, f_B = 1 + x^4*y^3/(7.11*(43*y^3 + 1))
      R_IC = 8*pi*mu*r_0*delta_C, delta_C = (1 + 6*K_tb)*(0.66 - 0.41*rr - 0.25*rr^2)
      R_C  = 8*pi*mu*h_c/Q_tb
      R_E  = 8*pi*mu*delta_E*r_0, delta_E = 0.944*3*pi*(1 + 0.216*K_tb)/16
             * (1 + 0.2*rr^2 - 0.754*rr^4) * f_E, f_E = 1 + x^3.5/(178*(1 + 17.5*K_ch))
    R_IC, R_C and R_E are returned times scale = (r_X/r_0)^4, and R_p is the
    float sum of the six. `geom.derived.circular` holds the plate-only
    coefficient A_X of each component, so R_S = mu*A_S/(h*Q_ch), R_IS =
    mu*A_IS/(1 + 2.5*K_ch), R_IB = mu*A_IB*(1 + 0.732*K_tb)/(1 + K_ch), R_IC =
    mu*A_IC*(1 + 6*K_tb), R_C = mu*A_C/Q_tb*scale and R_E = mu*A_E*(1 + 0.216*K_tb)*f_E.
    """
    d = geom.derived
    A_S, A_IS, A_IB, A_IC, A_C, A_E, x35_178, scale = d.circular
    h, mu, lam = geom.h, gas.mu, gas.lam
    K_ch = lam / h
    K_tb = lam / d.r_0

    R_S = mu * A_S / (h + CHANNEL_SLIP_SLOPE * lam)
    R_IS = mu * A_IS / (1 + 2.5 * K_ch)
    R_IB = mu * A_IB * (1 + 0.732 * K_tb) / (1 + K_ch)
    R_IC = mu * A_IC * (1 + 6 * K_tb)
    R_C = mu * A_C / (1 + TUBE_SLIP_SLOPE * K_tb) * scale
    R_E = mu * A_E * (1 + 0.216 * K_tb) * (1 + x35_178 / (1 + 17.5 * K_ch))
    return _new(CellResistanceBreakdown,
                (R_S, R_IS, R_IB, R_IC, R_C, R_E, R_S + R_IS + R_IB + R_IC + R_C + R_E))


def cell_resistance_square(geom: PlateGeometry, gas: GasProperties) -> CellResistanceBreakdown:
    """Flow resistance of one square perforation cell (model M6's cell; also
    feeds M4), slip-flow corrected.

    With r_X as in damping_m1, the cell pitch s_X = s0 + s1, xi = s0/s_X, the
    effective square-hole radius r_0E = 0.58076*s0/(1 + 0.02108*xi^2 +
    0.008*xi^4), rr = r_0E/r_X, K_ch = lam/h, K_sq = lam/s0, Q_ch = 1 + 6*K_ch
    and Q_sq = 1 + 7.567*K_sq:
      R_S  = 12*pi*mu*r_X^4/(Q_ch*h^3) * (ln(r_X/r_0E)/2 - 3/8 + rr^2/2 - rr^4/8)
      R_IS = 3*mu*(s_X^2 - s0^2)^2/(s0*h^2) * 0.122*(1 + 6.5*xi - 3.8*xi^2)
      R_IB = 0
      R_IC = 28.454*mu*s0*0.302
      R_C  = 28.454*mu*h_c/Q_sq
      R_E  = 28.454*mu*delta_E*s0,
             delta_E = 0.242*(1 + 4*K_sq)*(1 - xi^4)*(1 + 0.019*(s0/h)^2.83)
    R_IC, R_C and R_E are returned times scale = (s_X/s0)^4, and R_p is the
    float sum of the six. `geom.derived.square` holds the plate-only
    coefficient A_X of each component, so R_S = mu*A_S/(h*Q_ch), R_IS = mu*A_IS,
    R_IC = mu*A_IC, R_C = mu*A_C/Q_sq*scale and R_E = mu*A_E*(1 + 4*K_sq).
    """
    A_S, A_IS, A_IC, A_C, A_E, scale = geom.derived.square
    mu, lam = gas.mu, gas.lam
    K_sq = lam / geom.s0

    R_S = mu * A_S / (geom.h + CHANNEL_SLIP_SLOPE * lam)
    R_IS = mu * A_IS
    R_IB = 0.0
    R_IC = mu * A_IC
    R_C = mu * A_C / (1 + SQUARE_SLIP_SLOPE * K_sq) * scale
    R_E = mu * A_E * (1 + 4 * K_sq)
    return _new(CellResistanceBreakdown,
                (R_S, R_IS, R_IB, R_IC, R_C, R_E, R_S + R_IS + R_IB + R_IC + R_C + R_E))


def damping_border_coupled(geom: PlateGeometry, gas: GasProperties, R_p: float,
                           model: str = "border",
                           breakdown: CellResistanceBreakdown | None = None) -> ModelResult:
    """Double-series damping of a perforated plate whose cells (resistance R_p
    each) are coupled to border flow past slip-corrected effective plate edges.

    The series is sum_{m,n odd} 1/(m^2 n^2 (alpha_m + beta n^2)) with
    alpha_m = g m^2/a^2 + 1/r and beta = g/b^2. It is symmetric in
    (a, m) <-> (b, n); a is the short side, so b >= a keeps every inner
    bracket pi^2/8 - pi*tanh(pi c_m/2)/(4 c_m), c_m = sqrt(alpha_m/beta) >= 1,
    clear of cancellation. The module comment gives the outer sum. The result
    is labelled `model` and carries `breakdown`, so M3/M4 return it as it is.
    """
    if not 0 < R_p < math.inf:
        raise ModelDomainError("cell resistance must be positive and finite")
    try:
        d = geom.derived
        lam = gas.lam
        # a = short + edge, b = long + edge with edge = 1.3*(1 + 3.3*lam/h)*h, and
        # g = pi^6*h^3*(1 + 6*lam/h)/(768*mu*a*b), from their plate-only products
        edge = 4.29 * lam
        a, b = d.short_1_3h + edge, d.long_1_3h + edge
        g = (d.pi6_h3_768 + d.pi6_6h2_768 * lam) / (gas.mu * a * b)
        inv_r = d.pi4_64MN / R_p
        a2 = a**2
        d2 = a2 * inv_r / g

        # (pi^2/8) sum_m 1/(m^2 alpha_m) = (pi^2/8)^2 r (1 - tanh(y)/y) with y = pi*d/2.
        # The bracket cancels as d -> 0 (sealed holes); there it is y^2 times
        # _leak_series(y^2), and r*y^2 = pi^2 a^2/(4 g) holds no r, so neither a
        # huge r nor an underflowing d^2 reaches the result.
        y2 = _PI2_4 * d2
        if y2 < _LEAK_SWITCH_Y2:
            exact = _PI6_256 * a2 / g * _leak_series(y2)
        else:  # the direct form of _leak_brackets' first bracket, t = 1/y
            t = 2 / (math.pi * math.sqrt(d2))
            exact = _PI2_8_SQ / inv_r * (1.0 - t * math.tanh(1.0 / t))

        # sum_m pi*tanh(pi c_m/2)/(4 c_m m^2 alpha_m) = C sum_m tanh(pi c_m/2) f(m)
        # with c_m = (b/a) sqrt(m^2 + d^2), d^2 = a^2/(g r) and C = pi a^3/(4 b g);
        # per term, tanh(k*sqrt(m^2 + d^2)) is 1.0 once its argument reaches _TANH_ONE
        k = math.pi * b / (2 * a)
        explicit = 0.0
        sqrt, tanh = math.sqrt, math.tanh
        for m2 in _ODD_SQUARES:
            q = m2 + d2
            rq = sqrt(q)
            x = k * rq
            explicit += (tanh(x) if x < _TANH_ONE else 1.0) / (m2 * q * rq)
        s2 = _X0SQ + d2
        s = sqrt(s2)
        sig = _X0SQ / s2
        # s**3 is the one power left: its OverflowError refuses d^2 > 3e205
        # (a vanishing R_p), where products would pass inf on
        f0 = 1 / (_X0SQ * s**3)
        p = s + _X0
        tail = 0.5 / (_X0 * s * (p * p)) + f0 * (
            (((_TAIL5 * (sig * sig) + _TAIL3) * sig + _TAIL2) * sig + _TAIL1) * sig + _TAIL0)
        c = exact - math.pi * a**3 / (4 * b * g) * (explicit + tail)
    except ArithmeticError as exc:
        raise out_of_range("border-coupled series", exc) from exc
    c = _checked("border-coupled series", c)
    return _new(ModelResult, (model, c, breakdown, BORDER_TERMS, True))


def _cell_model(model: str, label: str, cell: Callable[..., CellResistanceBreakdown],
                geom: PlateGeometry, gas: GasProperties, border: bool) -> ModelResult:
    """M3-M6: the resistance R_p of one cell, fed to the border series
    (border=True, M3/M4) or scaled to the plate, c = M*N*R_p (M5/M6); the
    result is named `model` and a refusal starts with `label`."""
    try:
        br = cell(geom, gas)
        if border:
            return damping_border_coupled(geom, gas, br.R_p, model, br)
        c = geom.M * geom.N * br.R_p
    except ArithmeticError as exc:
        raise out_of_range(label, exc) from exc
    except ModelDomainError as exc:
        raise ModelDomainError(f"{label} {exc}") from exc
    return _new(ModelResult, (model, _checked(label, c), br, 0, True))


def damping_m3(geom: PlateGeometry, gas: GasProperties) -> ModelResult:
    """Model M3: border-coupled series with the circular-cell resistance."""
    return _cell_model("m3", "M3", cell_resistance_circular, geom, gas, True)


def damping_m4(geom: PlateGeometry, gas: GasProperties) -> ModelResult:
    """Model M4: border-coupled series with the square-cell resistance."""
    return _cell_model("m4", "M4", cell_resistance_square, geom, gas, True)


def damping_m5(geom: PlateGeometry, gas: GasProperties) -> ModelResult:
    """Model M5: closed-borders pattern, circular cells: c = M*N*R_p."""
    return _cell_model("m5", "M5", cell_resistance_circular, geom, gas, False)


def damping_m6(geom: PlateGeometry, gas: GasProperties) -> ModelResult:
    """Model M6: closed-borders pattern, square cells: c = M*N*R_p."""
    return _cell_model("m6", "M6", cell_resistance_square, geom, gas, False)


MODELS = {
    "m1": damping_m1,
    "m2": damping_m2,
    "m3": damping_m3,
    "m4": damping_m4,
    "m5": damping_m5,
    "m6": damping_m6,
}


def evaluate(geom: PlateGeometry, gas: GasProperties,
             models: Sequence[str] = tuple(MODELS)) -> dict[str, ModelResult]:
    """{name: ModelResult} of the named models, in the order given, each from
    MODELS[name]; an unknown or repeated name, or a bare string, raises
    ValueError before any runs, and a model's refusal passes through as worded."""
    if len(MODELS.keys() & models) < len(models):  # valid names cost one set intersection
        if isinstance(models, str):
            raise ValueError(f"models must be a sequence of names, not the string {models!r}")
        for i, name in enumerate(models):
            if name not in MODELS or name in models[:i]:
                raise ValueError(f"{'repeated' if name in MODELS else 'unknown'} model {name!r}")
    out = {}
    for name in models:
        out[name] = MODELS[name](geom, gas)
    return out


def beam_damping(beams: BeamGeometry, h: float, gas: GasProperties) -> float:
    """Rough drag estimate for the supporting beams, slip-corrected.

    Evaluating the published expression as printed gives 0.133e-6 Ns/m for the
    reference beams (the source quotes 0.16e-6, which matches the same formula
    without the slip divisor; both are negligible next to the plate damping).
    The leading beam count replaces the printed factor of 4. A gap whose
    arithmetic leaves the float range, or gives an inf or NaN drag, is refused.
    """
    require_positive(("air gap", h))
    K_ch = gas.lam / h
    try:
        c = (beams.count * beams.L_b * (beams.W_b + 1.3 * h) ** 3 * gas.mu
             / (3 * h**3 * (1 + CHANNEL_SLIP_SLOPE * K_ch)))
    except ArithmeticError as exc:
        raise out_of_range("beam drag", exc) from exc
    if not c < math.inf:  # inf from a product, or NaN: h^3 underflowed, K_ch overflowed
        raise out_of_range("beam drag")
    return c

