"""Brute-force references for the closed-form series of compact_models, and
the plain numpy form of the FRF extraction.

The series references sum term by term, as the model formulas state them, and
share no code with the package's closed forms. extract_reference runs the Q
extraction through numpy's Polynomial class (an SVD least-squares fit, the
peak from the eigenvalues of the derivative's companion matrix) and a
sample-by-sample walk; frf.extract reaches the same numbers by other
arithmetic, so tests compare the two within 1e-12. to_file_search finds a
device file's value by the ulp-by-ulp search that config._to_file's three
candidates replace.

border_truth sums the border series to 40 digits with mpmath, to write
tests/golden/border_truth.csv again: ``PYTHONPATH=src python tests/oracles.py``.
The tests read the file. cell_resistance_truth evaluates both cells'
resistance formulas to 40 digits, and m1_truth and m2_truth the formulas of
M1 and M2; the tests that call them, like those that recompute truth rows, are
skipped where mpmath is not installed.
"""

import csv
import dataclasses
import math
from pathlib import Path

import numpy as np

from perfdamp.frf import BandwidthError, ExtractionResult, FitError, damping_from_q
from perfdamp.geometry import derive_geometry

# Odd-index caps of the extrapolated border sum. Its truncated tail falls 8x
# per doubling of the cap, so S(2K) + (S(2K) - S(K))/7 removes the leading
# term; from (1001, 2001) the result is good to about 3e-10 on devices A-F.
BORDER_CAPS = (1001, 2001)
# Odd indices of the direct M2 sum; its terms fall as n^-6.
M2_TERMS = 100_000
# The border series' 40-digit values and the columns of each row.
BORDER_TRUTH = Path(__file__).parent / "golden" / "border_truth.csv"
BORDER_TRUTH_FIELDS = ("case", "L", "W", "M", "N", "s0", "s1", "h", "h_c", "lam", "mu", "R_p",
                       "c")


def border_partial_sum(geom, gas, R_p, cap):
    """Border-coupled double series summed over odd m, n <= cap."""
    h = geom.h
    K_ch = gas.lam / h
    edge = 1.3 * (1 + 3.3 * K_ch) * h
    a, b = geom.W + edge, geom.L + edge
    g = math.pi**6 * h**3 * (1 + 6 * K_ch) / (768 * gas.mu * a * b)
    inv_r = math.pi**4 / (64 * geom.M * geom.N * R_p)
    n2 = np.arange(1, cap + 1, 2, dtype=float) ** 2
    m2 = n2[:, None]
    return float((1 / (m2 * n2 * (g * m2 / a**2 + g * n2 / b**2 + inv_r))).sum())


def border_series(geom, gas, R_p):
    """Border-coupled double series, extrapolated from two partial sums."""
    s1, s2 = (border_partial_sum(geom, gas, R_p, cap) for cap in BORDER_CAPS)
    return s2 + (s2 - s1) / 7


def border_truth(geom, gas, R_p, dps=40, head=100):
    """The border-coupled double series to `dps` significant digits.

    The inner sum over n is closed (Gradshteyn & Ryzhik 1.421), so odd m adds
    (pi^2/8 - pi*tanh(pi*c_m/2)/(4*c_m)) / (m^2*alpha_m), where
    c_m = (b/a)*sqrt(m^2 + d^2) >= 1. Every term is positive and none is split
    in two, so nothing cancels at any R_p: this form has no bracket
    1 - tanh(y)/y, which the package's exact part forms and which cancels at
    40 digits once R_p exceeds about 1e40. The first `head` odd m are summed
    term by term and the rest by mpmath's Euler-Maclaurin summation, whose
    integral is taken in t = ln(j/head): there the terms fall like e^-t up to
    m ~ d and faster beyond. The terms are scaled by (1 + d^2) g/a^2 to order
    one, because mpmath's quadrature and summation stop on an absolute
    tolerance. (40, 100) and (60, 300) agree to 50 digits on devices A-C for
    R_p from 1e-211 to 1e300.
    """
    import mpmath as mp

    with mp.workdps(dps + 10):
        mpf = mp.mpf
        h, lam = mpf(geom.h), mpf(gas.lam)
        K_ch = lam / h
        edge = mpf("1.3") * (1 + mpf("3.3") * K_ch) * h
        a, b = (x + edge for x in sorted((mpf(geom.L), mpf(geom.W))))
        g = mp.pi**6 * h**3 * (1 + 6 * K_ch) / (768 * mpf(gas.mu) * a * b)
        inv_r = mp.pi**4 / (64 * geom.M * geom.N * mpf(R_p))
        d2 = a**2 * inv_r / g
        w = 1 + d2

        def term(j):  # odd m = 2j + 1, times (1 + d^2) g/a^2
            m2 = (2 * j + 1) ** 2
            c = b / a * mp.sqrt(m2 + d2)
            return (mp.pi**2 / 8 - mp.pi * mp.tanh(mp.pi * c / 2) / (4 * c)) * w / (m2 * (m2 + d2))

        t_d = max(mp.log(mp.sqrt(d2) / head), 0)
        nodes = mp.linspace(0, t_d + 40, int(t_d / 4) + 11)
        integral = mp.quad(lambda t: term(head * mp.exp(t)) * head * mp.exp(t), nodes)
        total = (mp.fsum(term(j) for j in range(head))
                 + mp.sumem(term, [head, mp.inf], integral=integral))
        return total * a**2 / (g * w)


def border_truth_cases():
    """(case, geom, gas, R_p) rows of tests/golden/border_truth.csv: devices A-F
    with both cells' R_p in air; 50 seeded design points (tests/test_models_golden.py)
    with both; square plates, and a 100 um square plate stretched to b/a = 10,
    100 and 1000, with the circular cell's R_p scaled by 1e-3 ... 1e6; devices
    A-F with R_p = 10^k from 1e-200 to 1e308 (d^2 underflows from about 1e305);
    and devices A-F with R_p in
    quarter decades from 1e-2 to 10^-0.25, where the exact part's bracket
    argument t = 2/(pi*d) runs through about 10 ... 300."""
    from perfdamp import compact_models as cm
    from perfdamp.comparison import builtin_dataset
    from perfdamp.flow_regime import GasProperties
    from perfdamp.geometry import PlateGeometry
    from test_models_golden import design_points

    air = GasProperties()
    cells = (("m3", cm.cell_resistance_circular), ("m4", cm.cell_resistance_square))
    devices = [(rec.id, rec.geom) for rec in builtin_dataset()]
    for dev, geom in devices:
        for model, cell in cells:
            yield f"{dev}.{model}", geom, air, cell(geom, air).R_p
    for i, (dev, geom, gas) in zip(range(50), design_points()):
        for model, cell in cells:
            yield f"design.{i:02d}.{dev}.{model}", geom, gas, cell(geom, gas).R_p
    base = PlateGeometry(L=100e-6, W=100e-6, M=10, N=10, s0=5e-6, s1=5e-6, h=1.6e-6,
                         h_c=15e-6)
    shapes = [(f"square.{dev}", dataclasses.replace(geom, W=geom.L, N=geom.M))
              for dev, geom in devices]
    shapes += [(f"long.{ratio}", dataclasses.replace(base, L=base.W * ratio, M=base.N * ratio))
               for ratio in (10, 100, 1000)]
    for name, geom in shapes:
        R_p = cm.cell_resistance_circular(geom, air).R_p
        for k in (-3, 0, 3, 6):
            yield f"{name}.1e{k}", geom, air, R_p * float(f"1e{k}")
    for dev, geom in devices:
        for k in (-200, -150, -100, -50, -20, -10, -5, 0, 5, 10, 20, 50, 100, 150, 200, 250,
                  300, 305, 308):
            yield f"range.{dev}.1e{k}", geom, air, float(f"1e{k}")
    for dev, geom in devices:
        for k in range(-8, 0):
            yield f"bracket.{dev}.1e{k / 4:g}", geom, air, 10 ** (k / 4)


def write_border_truth(path=BORDER_TRUTH):
    """Write every border_truth_cases row, its inputs as repr and c to 25 digits."""
    import mpmath as mp

    with open(path, "w", newline="", encoding="utf-8") as f:
        out = csv.writer(f, lineterminator="\n")
        out.writerow(BORDER_TRUTH_FIELDS)
        for case, g, gas, R_p in border_truth_cases():
            c = mp.nstr(border_truth(g, gas, R_p), 25, min_fixed=1, max_fixed=0)
            out.writerow([case, *map(repr, (g.L, g.W, g.M, g.N, g.s0, g.s1, g.h, g.h_c,
                                            gas.lam, gas.mu, R_p)), c])


def cell_resistance_truth(geom, gas, shape, dps=40):
    """The seven fields of the circular (shape "circular") or square ("square")
    CellResistanceBreakdown, to `dps` significant digits with mpmath: the
    formulas of the cell_resistance_circular/_square docstrings evaluated from
    the plate's and gas's fields, with the decimal constants as written."""
    import mpmath as mp

    with mp.workdps(dps + 10):
        mpf = mp.mpf
        s0, s1, h, h_c = (mpf(v) for v in (geom.s0, geom.s1, geom.h, geom.h_c))
        mu, lam = mpf(gas.mu), mpf(gas.lam)
        s_X = s0 + s1
        r_X = s_X / mp.sqrt(mp.pi)
        xi = s0 / s_X
        K_ch = lam / h
        Q_ch = 1 + 6 * K_ch
        if shape == "circular":
            r_0 = mpf("1.096") / 2 * s0
            rr, x, y = r_0 / r_X, r_0 / h, h_c / h
            K_tb = lam / r_0
            R_S = (12 * mp.pi * mu * r_X**4 / (Q_ch * h**3)
                   * (mp.log(r_X / r_0) / 2 - mpf(3) / 8 + rr**2 / 2 - rr**4 / 8))
            delta_S = (mpf("0.56") - mpf("0.32") * rr + mpf("0.86") * rr**2) / (1 + mpf("2.5") * K_ch)
            R_IS = 6 * mp.pi * mu * (r_X**2 - r_0**2) ** 2 / (r_0 * h**2) * delta_S
            f_B = 1 + x**4 * y**3 / (mpf("7.11") * (43 * y**3 + 1))
            delta_B = (mpf("1.33") * (1 - mpf("0.812") * rr**2) * (1 + mpf("0.732") * K_tb)
                       / (1 + K_ch) * f_B)
            R_IB = 8 * mp.pi * mu * r_0 * delta_B
            delta_C = (1 + 6 * K_tb) * (mpf("0.66") - mpf("0.41") * rr - mpf("0.25") * rr**2)
            R_IC = 8 * mp.pi * mu * r_0 * delta_C
            R_C = 8 * mp.pi * mu * h_c / (1 + 4 * K_tb)
            f_E = 1 + x ** mpf("3.5") / (178 * (1 + mpf("17.5") * K_ch))
            delta_E = (mpf("0.944") * 3 * mp.pi * (1 + mpf("0.216") * K_tb) / 16
                       * (1 + mpf("0.2") * rr**2 - mpf("0.754") * rr**4) * f_E)
            R_E = 8 * mp.pi * mu * delta_E * r_0
            scale = (r_X / r_0) ** 4
        elif shape == "square":
            r_0E = mpf("0.58076") * s0 / (1 + mpf("0.02108") * xi**2 + mpf("0.008") * xi**4)
            rr = r_0E / r_X
            K_sq = lam / s0
            R_S = (12 * mp.pi * mu * r_X**4 / (Q_ch * h**3)
                   * (mp.log(r_X / r_0E) / 2 - mpf(3) / 8 + rr**2 / 2 - rr**4 / 8))
            R_IS = (3 * mu * (s_X**2 - s0**2) ** 2 / (s0 * h**2)
                    * mpf("0.122") * (1 + mpf("6.5") * xi - mpf("3.8") * xi**2))
            R_IB = mpf(0)
            R_IC = mpf("28.454") * mu * s0 * mpf("0.302")
            R_C = mpf("28.454") * mu * h_c / (1 + mpf("7.567") * K_sq)
            delta_E = (mpf("0.242") * (1 + 4 * K_sq) * (1 - xi**4)
                       * (1 + mpf("0.019") * (s0 / h) ** mpf("2.83")))
            R_E = mpf("28.454") * mu * delta_E * s0
            scale = (s_X / s0) ** 4
        else:
            raise ValueError(f"unknown cell shape {shape!r}")
        parts = (R_S, R_IS, R_IB, scale * R_IC, scale * R_C, scale * R_E)
        return (*parts, mp.fsum(parts))


def _continuum_truth(geom, mp):
    """(a, b, l, H_eff, eta, beta, r_0, h) of M1 and M2 in mpmath numbers, from
    the plate's fields: a and b half the short and long side, the attenuation
    length l, effective hole length H_eff and loading factor eta of the
    DerivedGeometry docstring."""
    mpf = mp.mpf
    s0, s1, h, h_c = (mpf(v) for v in (geom.s0, geom.s1, geom.h, geom.h_c))
    short, long = sorted((mpf(geom.L), mpf(geom.W)))
    r_X = (s0 + s1) / mp.sqrt(mp.pi)
    r_0 = mpf("1.096") / 2 * s0
    beta = r_0 / r_X
    K = 4 * beta**2 - beta**4 - 4 * mp.log(beta) - 3
    H_eff = h_c + 3 * mp.pi * r_0 / 8
    eta = 1 + 3 * r_0**4 * K / (16 * H_eff * h**3)
    l = mp.sqrt(2 * h**3 * H_eff * eta / (3 * beta**2 * r_0**2))
    return short / 2, long / 2, l, H_eff, eta, beta, r_0, h


def m1_truth(geom, gas, dps=40):
    """M1's c to `dps` significant digits with mpmath: the damping_m1 docstring,
    c = 2a*long * 8*mu*H_eff/(beta^2*r_0^2) * eta * (1 - (l/a)*tanh(a/l))."""
    import mpmath as mp

    with mp.workdps(dps + 10):
        a, b, l, H_eff, eta, beta, r_0, _ = _continuum_truth(geom, mp)
        return (2 * a * 2 * b * 8 * mp.mpf(gas.mu) * H_eff / (beta**2 * r_0**2) * eta
                * (1 - l / a * mp.tanh(a / l)))


def m2_truth(geom, gas, dps=40):
    """M2's c to `dps` significant digits with mpmath: the damping_m2 docstring,
    c = gamma*mu*(2a)^3*(2b)/h^3, with its series sum_{n odd} tanh(x_n)/(n^2 t_n^2)
    summed directly. The series is split as sum 1/(n^2 t_n^2), which
    mpmath's nsum extrapolates by Richardson's method (its terms are rational
    in n), less (1 - tanh(x_n))/(n^2 t_n^2) for each n up to x_n > 60, past
    which those terms fall below 1e-52 relatively. On A-F and the design points
    of test_models_golden it agrees with nsum over the whole term at 60 digits
    to 1.2e-50. gamma cancels from 3*al^2 down to O(1), so the result keeps 40
    digits only while al stays below about 1e4 (A-F and the design points have
    al < 2); m1_truth's bracket cancels alike."""
    import mpmath as mp

    with mp.workdps(dps + 10):
        a, b, l, *_, h = _continuum_truth(geom, mp)
        al, kappa = l / a, a / b
        k = mp.pi * al / 2
        s = mp.nsum(lambda j: 1 / ((2 * j + 1) ** 2 * (1 + ((2 * j + 1) * k) ** 2) ** 2),
                    [0, mp.inf], method="richardson")
        n = 1
        while True:
            t = 1 + (n * k) ** 2
            x = mp.sqrt(t) / (al * kappa)
            if x > 60:
                break
            s -= (1 - mp.tanh(x)) / (n**2 * t**2)
            n += 2
        gamma = 3 * al**2 - 3 * al**3 * mp.tanh(1 / al) - 24 * al**3 * kappa / mp.pi**2 * s
        return gamma * mp.mpf(gas.mu) * (2 * a) ** 3 * (2 * b) / h**3


def m2_damping(geom, gas):
    """Model M2 with its shape series summed directly, smallest terms first,
    and its attenuation length computed here from the published formula."""
    d = derive_geometry(geom)
    beta, r_0, h = d.beta, d.r_0, geom.h
    a, b = geom.W / 2, geom.L / 2
    kappa = a / b
    K = 4 * beta**2 - beta**4 - 4 * math.log(beta) - 3
    H_eff = geom.h_c + 3 * math.pi * r_0 / 8
    eta = 1 + 3 * r_0**4 * K / (16 * H_eff * h**3)
    al = math.sqrt(2 * h**3 * H_eff * eta / (3 * beta**2 * r_0**2)) / a
    n = np.arange(2 * M2_TERMS - 1, 0, -2, dtype=float)
    t = 1 + (n * math.pi * al / 2) ** 2
    s = math.fsum((np.tanh(np.sqrt(t) / (al * kappa)) / (n**2 * t**2)).tolist())
    gamma = 3 * al**2 - 3 * al**3 * math.tanh(1 / al) - 24 * al**3 * kappa / math.pi**2 * s
    return gamma * gas.mu * (2 * a) ** 3 * (2 * b) / geom.h**3


def extract_reference(curve, m_eff=None):
    """frf.extract through numpy's Polynomial class: fit a degree-6 polynomial
    to the samples at or above 0.9 of the raw peak, take its maximum, and walk
    outward one sample at a time to the first pair that falls through the
    half-power level, interpolating that pair linearly."""
    freqs, amps = curve.freqs, curve.amps
    i_peak = int(np.argmax(amps))
    if amps[i_peak] <= 0 or np.all(amps == amps[0]):
        raise BandwidthError("curve has no peak")
    thr = amps[i_peak] * 0.9
    half = 0
    while True:
        lo, hi = i_peak - half - 1, i_peak + half + 1
        if lo < 0 or hi >= len(amps) or amps[lo] < thr or amps[hi] < thr:
            break
        half += 1
    half = max(half, 9 // 2)
    lo = max(0, i_peak - half)
    hi = min(len(amps) - 1, i_peak + half)

    x, y = freqs[lo : hi + 1], amps[lo : hi + 1]
    if len(x) <= 7:
        raise FitError("fit window too small for a 6th-degree polynomial")
    try:
        poly = np.polynomial.Polynomial.fit(x, y, 6)
    except np.linalg.LinAlgError as exc:
        raise FitError("polynomial fit failed") from exc
    crit = poly.deriv().roots()
    crit = crit[np.isreal(crit)].real
    crit = crit[(crit >= x[0]) & (crit <= x[-1])]
    cand = np.concatenate([crit, x[:1], x[-1:]])
    vals = poly(cand)
    j = int(np.argmax(vals))
    f0, A_peak = float(cand[j]), float(vals[j])
    thr = A_peak * (1.0 / math.sqrt(2.0))

    def crossing(step):
        i = i_peak
        while 0 <= i + step < len(freqs):
            j = i + step
            if amps[j] < thr <= amps[i]:
                aa, ab = amps[i], amps[j]
                return freqs[i] + (thr - aa) * (freqs[j] - freqs[i]) / (ab - aa)
            i = j
        raise BandwidthError("amplitude never falls below the half-power level")

    f1, f2 = crossing(-1), crossing(+1)
    if not f1 < f0 < f2:
        raise BandwidthError("half-power frequencies do not bracket the peak")
    Q = f0 / (f2 - f1)
    c = damping_from_q(f0, Q, m_eff) if m_eff is not None else None
    return ExtractionResult(f0=f0, A_peak=A_peak, f1=f1, f2=f2, Q=Q, c=c)


def to_file_search(value, scale):
    """The file value x with x * scale == value: the product value*(1/scale)
    if it reloads, else the first that does of up to four floats above it,
    then of up to four below; the product if none does."""
    x = value * (1 / scale)
    if x * scale == value:
        return x
    for direction in (math.inf, -math.inf):
        cand = x
        for _ in range(4):
            cand = math.nextafter(cand, direction)
            if cand * scale == value:
                return cand
    return x


if __name__ == "__main__":
    write_border_truth()
