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
"""

import math

import numpy as np

from perfdamp.frf import BandwidthError, ExtractionResult, FitError, damping_from_q
from perfdamp.geometry import derive_geometry

# Odd-index caps of the extrapolated border sum. Its truncated tail falls 8x
# per doubling of the cap, so S(2K) + (S(2K) - S(K))/7 removes the leading
# term; from (1001, 2001) the result is good to about 3e-10 on devices A-F.
BORDER_CAPS = (1001, 2001)
# Odd indices of the direct M2 sum; its terms fall as n^-6.
M2_TERMS = 100_000


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
