"""Compact squeeze-film damping models for perforated rectangular plates.

Six models are provided. M1 (long narrow plate) and M2 (arbitrary rectangle)
are continuum models built on an attenuation-length solution of the modified
Reynolds equation. M3 (circular perforation cell) and M4 (square perforation
cell) couple a per-cell flow resistance into a double-series border-flow
solution with slip-flow corrections. M5 and M6 are the cell-only variants
(closed-borders flow pattern): c = M*N*R_p. A rough supporting-beam drag
estimate completes the set.

All functions are pure. The M2 shape series and the M3/M4 border double
series are evaluated in closed form plus a number of explicit terms fixed
before summing, which each result reports as `series_terms`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from perfdamp.geometry import PlateGeometry, BeamGeometry, derive_geometry
from perfdamp.flow_regime import GasProperties

# Closed-form series. Both series run over odd indices and rest on
# sum_{n odd} 1/(n^2 + c^2) = pi*tanh(pi*c/2)/(4c) (Gradshteyn & Ryzhik 1.421).
#
# Border series (M3/M4): the inner sum over n is exact, and so is one part of
# the outer sum over m. The other part has terms C*tanh(pi*c_m/2)*f(m) with
# f(x) = 1/(x^2 (x^2 + d^2)^(3/2)). Its first BORDER_TERMS odd m are summed
# explicitly; beyond them tanh = 1 to double precision, and the rest is the
# Euler-Maclaurin sum (step 2) from x0 = 2*BORDER_TERMS + 1:
# I/2 + f(x0)/2 - f'(x0)/6, with I = 1/(x0 s (s + x0)^2), s = sqrt(x0^2 + d^2),
# the integral of f from x0 written without cancellation. The first omitted
# correction, f'''(x0)/90, leaves at most 6e-12 relative error on devices A-F
# (against the same sum with 400 explicit terms).
#
# M2 shape series: the sum with tanh(x_n) replaced by 1 is exact. The
# difference, 1 - tanh(x_n) = 2/(exp(2 x_n) + 1), is summed over the odd n
# with x_n < TANH_SATURATION, a count fixed by the geometry; the terms left
# out change the series by less than 2*exp(-2*TANH_SATURATION) ~ 6e-17
# relatively.
BORDER_TERMS = 24
TANH_SATURATION = 19.0


class ModelDomainError(ValueError):
    """The model's formulas are invalid for the given geometry."""


@dataclass(frozen=True)
class CellResistanceBreakdown:
    """Flow resistance of one perforation cell, by component (Ns/m each).

    R_S: squeeze-film resistance of the cell annulus; R_IS, R_IB, R_IC:
    intermediate-region resistances; R_C: hole channel resistance; R_E:
    outlet-elongation resistance. R_IC, R_C, R_E are stored unscaled; `scale`
    is the (r_X/r_0)^4 or (s_X/s_0)^4 factor applied to them in the total
    R_p = R_S + R_IS + R_IB + scale*(R_IC + R_C + R_E).
    """

    R_S: float
    R_IS: float
    R_IB: float
    R_IC: float
    R_C: float
    R_E: float
    scale: float
    R_p: float

    def scaled_components(self) -> tuple[float, float, float, float, float, float]:
        """(R_S, R_IS, R_IB, scale*R_IC, scale*R_C, scale*R_E); sums to R_p."""
        return (
            self.R_S,
            self.R_IS,
            self.R_IB,
            self.scale * self.R_IC,
            self.scale * self.R_C,
            self.scale * self.R_E,
        )

    def percentages(self) -> tuple[float, float, float, float, float, float]:
        """Relative contributions of the six components to R_p, in percent."""
        return tuple(100.0 * x / self.R_p for x in self.scaled_components())


@dataclass(frozen=True)
class ModelResult:
    model: str
    c: float
    breakdown: CellResistanceBreakdown | None = None
    series_terms: int = 0
    converged: bool = True


def _attenuation_length(geom: PlateGeometry, beta: float, r_0: float) -> tuple[float, float]:
    """Attenuation length l of the perforated-plate Reynolds solution and the
    perforation-loading factor eta(beta); shared by M1 and M2."""
    if beta >= 1.0:
        raise ModelDomainError("hole radius must be smaller than cell radius")
    h = geom.h
    K = 4 * beta**2 - beta**4 - 4 * math.log(beta) - 3
    H_eff = geom.h_c + 3 * math.pi * r_0 / 8
    # eta's denominator uses the effective hole length, not the bare plate
    # height; with the bare height the published comparison is missed by up
    # to 3.5 points, with H_eff five of six devices match within 0.01 points.
    eta = 1 + 3 * r_0**4 * K / (16 * H_eff * h**3)
    l = math.sqrt(2 * h**3 * H_eff * eta / (3 * beta**2 * r_0**2))
    return l, eta


def _edge_leak_bracket(t: float) -> float:
    """1 - t*tanh(1/t), the border-leakage attenuation of the plate response.

    Direct evaluation cancels catastrophically for t >> 1 (very leaky films),
    so the Taylor tail x^2/3 - 2x^4/15 + 17x^6/315 (x = 1/t) is used there.
    """
    if t > 100.0:
        x2 = 1.0 / (t * t)
        return x2 * (1.0 / 3.0 - x2 * (2.0 / 15.0 - x2 * 17.0 / 315.0))
    return 1.0 - t * math.tanh(1.0 / t)


def _shape_bracket(al: float) -> float:
    """1 - 1.5*al*tanh(1/al) + 0.5*sech(1/al)^2, the closed form of
    (8/pi^2) * sum_{n odd} 1/(n^2 t_n^2) with t_n = 1 + (n*pi*al/2)^2.

    Its leading terms cancel down to O(al^-4) for al >> 1, so the Taylor
    series in x = 1/al is used there; at x = 0.1 both forms are good to about
    5e-11 relatively.
    """
    if al > 10.0:
        x2 = 1.0 / (al * al)
        return x2 * x2 * (2.0 / 15.0 - x2 * (34.0 / 315.0 - x2 * (
            62.0 / 945.0 - x2 * (5528.0 / 155925.0 - x2 * 21844.0 / 1216215.0))))
    t = math.tanh(1.0 / al)
    return 1.5 * _edge_leak_bracket(al) - 0.5 * t * t


def damping_m1(geom: PlateGeometry, gas: GasProperties, slip_correct: bool = False) -> ModelResult:
    """Model M1: continuum compact model for a plate much longer than wide.

    Note: the damping prefactor uses the effective hole length
    H_eff = h_c + 3*pi*r_0/8, not the bare plate height; with the bare height
    the model misses the published comparison by 10-18 points.
    """
    d = derive_geometry(geom)
    a = geom.W / 2
    l, eta = _attenuation_length(geom, d.beta, d.r_0)
    H_eff = geom.h_c + 3 * math.pi * d.r_0 / 8
    c = (
        2 * a * geom.L
        * (8 * gas.mu * H_eff / (d.beta**2 * d.r_0**2))
        * eta
        * _edge_leak_bracket(l / a)
    )
    if not math.isfinite(c) or c <= 0:
        raise ModelDomainError("M1 produced a non-physical damping coefficient")
    if slip_correct:
        c /= 1 + 6 * gas.lam / geom.h
    return ModelResult(model="m1", c=c)


def damping_m2(geom: PlateGeometry, gas: GasProperties, slip_correct: bool = False) -> ModelResult:
    """Model M2: continuum compact model for an arbitrary rectangular plate.

    The shape factor gamma holds the series sum_{n odd} tanh(x_n)/(n^2 t_n^2)
    with t_n = 1 + (n*pi*al/2)^2 and x_n = sqrt(t_n)/(al*kappa). It is the
    closed form of the series with tanh = 1, less the terms 1 - tanh(x_n)
    that are not negligible; `series_terms` counts those. A non-positive
    damping raises, since that would indicate a sign-convention misreading
    rather than physics.
    """
    d = derive_geometry(geom)
    a, b = geom.W / 2, geom.L / 2
    kappa = a / b
    l, _ = _attenuation_length(geom, d.beta, d.r_0)
    al = l / a
    if not 0 < al < math.inf:
        raise ModelDomainError("M2 attenuation length is not a positive finite number")

    k = math.pi * al / 2
    s = math.pi**2 / 8 * _shape_bracket(al)
    # x_n < TANH_SATURATION exactly when n*k < sqrt((TANH_SATURATION*al*kappa)^2 - 1)
    n_last = math.sqrt(max((TANH_SATURATION * al * kappa) ** 2 - 1, 0.0)) / k
    odd = range(1, int(n_last) + 1, 2)
    for n in odd:
        t = 1 + (n * k) ** 2
        s -= 2 / (math.exp(2 * math.sqrt(t) / (al * kappa)) + 1) / (n**2 * t**2)

    # 3*al^3*tanh(1/al) equals 6*al^3*sinh(1/al)^2/sinh(2/al) and cannot overflow
    gamma = 3 * al**2 * _edge_leak_bracket(al) - 24 * al**3 * kappa / math.pi**2 * s
    c = gamma * gas.mu * (2 * a) ** 3 * (2 * b) / geom.h**3
    if not math.isfinite(c) or c <= 0:
        raise ModelDomainError("M2 produced a non-positive damping coefficient")
    if slip_correct:
        c /= 1 + 6 * gas.lam / geom.h
    return ModelResult(model="m2", c=c, series_terms=len(odd))


def cell_resistance_circular(geom: PlateGeometry, gas: GasProperties) -> CellResistanceBreakdown:
    """Flow resistance of one circular-equivalent perforation cell (model M5's
    cell; also feeds M3). Slip-flow corrected via Q_ch and Q_tb = 1 + 4*lam/r_0."""
    d = derive_geometry(geom)
    r_X, r_0 = d.r_X, d.r_0
    h, h_c, mu = geom.h, geom.h_c, gas.mu
    K_ch = gas.lam / h
    K_tb = gas.lam / r_0
    Q_ch = 1 + 6 * K_ch
    Q_tb = 1 + 4 * K_tb
    rr = r_0 / r_X

    R_S = (
        12 * math.pi * mu * r_X**4 / (Q_ch * h**3)
        * (0.5 * math.log(r_X / r_0) - 3 / 8 + rr**2 / 2 - rr**4 / 8)
    )
    delta_S = (0.56 - 0.32 * rr + 0.86 * rr**2) / (1 + 2.5 * K_ch)
    R_IS = 6 * math.pi * mu * (r_X**2 - r_0**2) ** 2 / (r_0 * h**2) * delta_S

    x, y = r_0 / h, h_c / h
    f_B = 1 + x**4 * y**3 / (7.11 * (43 * y**3 + 1))
    delta_B = 1.33 * (1 - 0.812 * rr**2) * (1 + 0.732 * K_tb) / (1 + K_ch) * f_B
    R_IB = 8 * math.pi * mu * r_0 * delta_B

    delta_C = (1 + 6 * K_tb) * (0.66 - 0.41 * rr - 0.25 * rr**2)
    R_IC = 8 * math.pi * mu * r_0 * delta_C

    f_E = 1 + x**3.5 / (178 * (1 + 17.5 * K_ch))
    delta_E = (
        0.944 * 3 * math.pi * (1 + 0.216 * K_tb) / 16
        * (1 + 0.2 * rr**2 - 0.754 * rr**4)
        * f_E
    )
    R_C = 8 * math.pi * mu * h_c / Q_tb
    R_E = 8 * math.pi * mu * delta_E * r_0

    scale = (r_X / r_0) ** 4
    R_p = R_S + R_IS + R_IB + scale * (R_IC + R_C + R_E)
    return CellResistanceBreakdown(R_S, R_IS, R_IB, R_IC, R_C, R_E, scale, R_p)


def cell_resistance_square(geom: PlateGeometry, gas: GasProperties) -> CellResistanceBreakdown:
    """Flow resistance of one square perforation cell (model M6's cell; also
    feeds M4). Uses the effective square-hole radius r_0E and Q_sq = 1 + 7.567*lam/s0."""
    d = derive_geometry(geom)
    s_X, s_0, r_X, r_0E, xi = d.s_X, geom.s0, d.r_X, d.r_0E, d.xi
    h, h_c, mu = geom.h, geom.h_c, gas.mu
    K_ch = gas.lam / h
    K_sq = gas.lam / s_0
    Q_ch = 1 + 6 * K_ch
    Q_sq = 1 + 7.567 * K_sq
    rr = r_0E / r_X

    R_S = (
        12 * math.pi * mu * r_X**4 / (Q_ch * h**3)
        * (0.5 * math.log(r_X / r_0E) - 3 / 8 + rr**2 / 2 - rr**4 / 8)
    )
    delta_S = 0.122 * (1 + 6.5 * xi - 3.8 * xi**2)
    R_IS = 3 * mu * (s_X**2 - s_0**2) ** 2 / (s_0 * h**2) * delta_S
    R_IB = 0.0

    delta_C = 0.302
    R_IC = 28.454 * mu * s_0 * delta_C

    delta_E = 0.242 * (1 + 4 * K_sq) * (1 - xi**4) * (1 + 0.019 * (s_0 / h) ** 2.83)
    R_C = 28.454 * mu * h_c / Q_sq
    R_E = 28.454 * mu * delta_E * s_0

    scale = (s_X / s_0) ** 4
    R_p = R_S + R_IS + R_IB + scale * (R_IC + R_C + R_E)
    return CellResistanceBreakdown(R_S, R_IS, R_IB, R_IC, R_C, R_E, scale, R_p)


def damping_border_coupled(geom: PlateGeometry, gas: GasProperties, R_p: float) -> ModelResult:
    """Double-series damping of a perforated plate whose cells (resistance R_p
    each) are coupled to border flow past slip-corrected effective plate edges.

    The series is sum_{m,n odd} 1/(m^2 n^2 (alpha_m + beta n^2)) with
    alpha_m = g m^2/a^2 + 1/r and beta = g/b^2. It is symmetric in
    (a, m) <-> (b, n) and is summed with b >= a, which keeps every inner
    bracket pi^2/8 - pi*tanh(pi c_m/2)/(4 c_m), c_m = sqrt(alpha_m/beta) >= 1,
    clear of cancellation. The module comment gives the outer sum.
    """
    if R_p <= 0:
        raise ModelDomainError("cell resistance must be positive")
    h, mu = geom.h, gas.mu
    K_ch = gas.lam / h
    edge = 1.3 * (1 + 3.3 * K_ch) * h
    a, b = sorted((geom.W + edge, geom.L + edge))
    g = math.pi**6 * h**3 * (1 + 6 * K_ch) / (768 * mu * a * b)
    inv_r = math.pi**4 / (64 * geom.M * geom.N * R_p)
    d2 = a**2 * inv_r / g

    # (pi^2/8) sum_m 1/(m^2 alpha_m) = (pi^2/8)^2 r (1 - tanh(y)/y) with y = pi*d/2;
    # the bracket cancels as d -> 0 (sealed holes), which _edge_leak_bracket handles
    exact = (math.pi**2 / 8) ** 2 / inv_r * _edge_leak_bracket(2 / (math.pi * math.sqrt(d2)))

    # sum_m pi*tanh(pi c_m/2)/(4 c_m m^2 alpha_m) = C sum_m tanh(pi c_m/2) f(m)
    # with c_m = (b/a) sqrt(m^2 + d^2), d^2 = a^2/(g r) and C = pi a^3/(4 b g)
    explicit = 0.0
    for m in range(1, 2 * BORDER_TERMS, 2):
        q = m * m + d2
        explicit += math.tanh(math.pi * b / (2 * a) * math.sqrt(q)) / (m * m * q * math.sqrt(q))
    x0 = 2 * BORDER_TERMS + 1
    s = math.sqrt(x0 * x0 + d2)
    f0 = 1 / (x0 * x0 * s**3)
    tail = 0.5 / (x0 * s * (s + x0) ** 2) + f0 / 2 + f0 * (2 / x0 + 3 * x0 / s**2) / 6
    c = exact - math.pi * a**3 / (4 * b * g) * (explicit + tail)
    if not math.isfinite(c) or c <= 0:
        raise ModelDomainError("border-coupled series produced a non-physical damping coefficient")
    return ModelResult(model="border", c=c, series_terms=BORDER_TERMS)


def damping_m3(geom: PlateGeometry, gas: GasProperties) -> ModelResult:
    """Model M3: border-coupled series with the circular-cell resistance."""
    br = cell_resistance_circular(geom, gas)
    res = damping_border_coupled(geom, gas, br.R_p)
    return ModelResult(model="m3", c=res.c, breakdown=br,
                       series_terms=res.series_terms, converged=res.converged)


def damping_m4(geom: PlateGeometry, gas: GasProperties) -> ModelResult:
    """Model M4: border-coupled series with the square-cell resistance."""
    br = cell_resistance_square(geom, gas)
    res = damping_border_coupled(geom, gas, br.R_p)
    return ModelResult(model="m4", c=res.c, breakdown=br,
                       series_terms=res.series_terms, converged=res.converged)


def damping_m5(geom: PlateGeometry, gas: GasProperties) -> ModelResult:
    """Model M5: closed-borders pattern, circular cells: c = M*N*R_p."""
    br = cell_resistance_circular(geom, gas)
    return ModelResult(model="m5", c=geom.M * geom.N * br.R_p, breakdown=br)


def damping_m6(geom: PlateGeometry, gas: GasProperties) -> ModelResult:
    """Model M6: closed-borders pattern, square cells: c = M*N*R_p."""
    br = cell_resistance_square(geom, gas)
    return ModelResult(model="m6", c=geom.M * geom.N * br.R_p, breakdown=br)


MODELS = {
    "m1": damping_m1,
    "m2": damping_m2,
    "m3": damping_m3,
    "m4": damping_m4,
    "m5": damping_m5,
    "m6": damping_m6,
}


def beam_damping(beams: BeamGeometry, h: float, gas: GasProperties) -> float:
    """Rough drag estimate for the supporting beams, slip-corrected.

    Evaluating the published expression as printed gives 0.133e-6 Ns/m for the
    reference beams (the source quotes 0.16e-6, which matches the same formula
    without the slip divisor; both are negligible next to the plate damping).
    The leading beam count replaces the printed factor of 4.
    """
    if h <= 0:
        raise ValueError("air gap must be positive")
    K_ch = gas.lam / h
    return (
        beams.count * beams.L_b * (beams.W_b + 1.3 * h) ** 3 * gas.mu
        / (3 * h**3 * (1 + 6 * K_ch))
    )
