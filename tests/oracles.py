"""Brute-force references for the closed-form series of compact_models.

They sum the series term by term, as the model formulas state them, and share
no code with the package's closed forms.
"""

import math

import numpy as np

from perfdamp.compact_models import _attenuation_length
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
    """Model M2 with its shape series summed directly, smallest terms first."""
    d = derive_geometry(geom)
    a, b = geom.W / 2, geom.L / 2
    kappa = a / b
    l, _ = _attenuation_length(geom, d.beta, d.r_0)
    al = l / a
    n = np.arange(2 * M2_TERMS - 1, 0, -2, dtype=float)
    t = 1 + (n * math.pi * al / 2) ** 2
    s = math.fsum((np.tanh(np.sqrt(t) / (al * kappa)) / (n**2 * t**2)).tolist())
    gamma = 3 * al**2 - 3 * al**3 * math.tanh(1 / al) - 24 * al**3 * kappa / math.pi**2 * s
    return gamma * gas.mu * (2 * a) ** 3 * (2 * b) / geom.h**3
