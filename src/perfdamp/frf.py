"""Quality-factor and damping extraction from frequency-response curves.

The measured procedure is mirrored: locate the resonance peak, fit a
6th-degree polynomial through a window around it, and read Q from the
half-power bandwidth Q = f0/(f2 - f1). A synthetic second-order resonator
response is provided so the extraction can be tested closed-loop.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.polynomial import polynomial as P

POLY_DEGREE = 6
MIN_WINDOW = 9
HALF_POWER = 1.0 / math.sqrt(2.0)


class BandwidthError(ValueError):
    """No half-power crossing exists on one side of the peak."""


class FitError(RuntimeError):
    """Polynomial fit around the peak is ill-conditioned."""


@dataclass(frozen=True, eq=False)
class FrfCurve:
    """Sampled amplitude response: strictly increasing freqs (Hz), amps (m)."""

    freqs: np.ndarray
    amps: np.ndarray

    def __post_init__(self):
        freqs = np.asarray(self.freqs, dtype=float)
        amps = np.asarray(self.amps, dtype=float)
        object.__setattr__(self, "freqs", freqs)
        object.__setattr__(self, "amps", amps)
        if freqs.ndim != 1 or freqs.shape != amps.shape:
            raise ValueError("freqs and amps must be 1-D arrays of equal length")
        for name, values in (("freqs", freqs), ("amps", amps)):
            bad = np.flatnonzero(~np.isfinite(values))
            if bad.size:
                i = int(bad[0])
                raise ValueError(f"{name}[{i}] is not finite ({values[i]})")
        if len(freqs) < 8:
            raise ValueError("need at least 8 samples")
        if not np.all(np.diff(freqs) > 0):
            raise ValueError("freqs must be strictly increasing")
        if np.any(amps < 0):
            raise ValueError("amplitudes must be non-negative")


class ExtractionResult(NamedTuple):
    f0: float
    A_peak: float
    f1: float
    f2: float
    Q: float
    c: float | None = None


def synth_frf(m_eff: float, c: float, k: float, F0: float, freqs: np.ndarray) -> FrfCurve:
    """Amplitude response of a driven damped resonator:
    A(w) = F0 / sqrt((k - m*w^2)^2 + (c*w)^2)."""
    if m_eff <= 0 or k <= 0 or F0 <= 0:
        raise ValueError("m_eff, k, F0 must be positive")
    if c < 0:
        raise ValueError("damping must be non-negative")
    w = 2 * np.pi * np.asarray(freqs, dtype=float)
    amps = F0 / np.sqrt((k - m_eff * w**2) ** 2 + (c * w) ** 2)
    return FrfCurve(freqs=np.asarray(freqs, dtype=float), amps=amps)


def read_curve(path) -> FrfCurve:
    """Read a curve CSV whose header names the columns freq_hz and amp_m."""
    data = np.genfromtxt(path, delimiter=",", names=True)
    if data.dtype.names is None or set(data.dtype.names) != {"freq_hz", "amp_m"}:
        raise ValueError("input CSV must have header 'freq_hz,amp_m'")
    return FrfCurve(freqs=np.atleast_1d(data["freq_hz"]), amps=np.atleast_1d(data["amp_m"]))


def damping_from_q(f0: float, Q: float, m_eff: float) -> float:
    """Damping coefficient from quality factor: c = 2*pi*f0*m_eff/Q."""
    if f0 <= 0 or Q <= 0 or m_eff <= 0:
        raise ValueError("f0, Q, m_eff must be positive")
    return 2 * math.pi * f0 * m_eff / Q


def _fit_window(amps: list[float], i_peak: int) -> tuple[int, int]:
    """Widest symmetric index span around the raw peak whose amplitudes stay
    above half the raw maximum, at least MIN_WINDOW samples."""
    thr = amps[i_peak] / 2.0
    half = 0
    while True:
        lo, hi = i_peak - half - 1, i_peak + half + 1
        if lo < 0 or hi >= len(amps) or amps[lo] < thr or amps[hi] < thr:
            break
        half += 1
    half = max(half, MIN_WINDOW // 2)
    lo = max(0, i_peak - half)
    hi = min(len(amps) - 1, i_peak + half)
    return lo, hi


def _horner(poly, f: float) -> float:
    """Value at f of a fitted polynomial (off, scl, coef): coef holds the
    coefficients in the mapped variable x = off + scl*f, highest degree first.
    The operations are those of numpy's Polynomial.__call__, so the result is
    bit-identical to it."""
    off, scl, coef = poly
    x = off + scl * f
    acc = 0.0
    for c in coef:
        acc = c + acc * x
    return acc


def _poly_peak(freqs, amps, lo, hi):
    """Fit the window with a degree-6 polynomial and return (poly, f0, A_peak).

    The least-squares fit and the derivative roots repeat numpy's
    Polynomial.fit, deriv and roots step for step, without the class."""
    x, y = freqs[lo : hi + 1], amps[lo : hi + 1]
    if len(x) <= POLY_DEGREE + 1:
        raise FitError("fit window too small for a 6th-degree polynomial")
    x_lo, x_hi = float(x[0]), float(x[-1])
    span = x_hi - x_lo
    off, scl = (-x_hi - x_lo) / span, 2.0 / span  # map [x_lo, x_hi] to [-1, 1]
    van = P.polyvander(off + scl * x, POLY_DEGREE)
    norms = np.sqrt(np.square(van.T).sum(1))
    try:
        coef, _, rank, _ = np.linalg.lstsq(van / norms, y, len(x) * np.finfo(float).eps)
    except np.linalg.LinAlgError as exc:
        raise FitError("polynomial fit failed") from exc
    if rank != POLY_DEGREE + 1:
        warnings.warn("The fit may be poorly conditioned", np.exceptions.RankWarning,
                      stacklevel=2)
    coef = coef / norms
    roots = P.polyroots(coef[1:] * scl * np.arange(1, POLY_DEGREE + 1))
    crit = (x_hi + x_lo) / 2 + span / 2 * roots
    crit = crit.real[crit.imag == 0]
    cand = crit[(crit >= x_lo) & (crit <= x_hi)].tolist() + [x_lo, x_hi]
    poly = (off, scl, coef[::-1].tolist())
    vals = [_horner(poly, f) for f in cand]
    j = max(range(len(vals)), key=vals.__getitem__)
    return poly, cand[j], vals[j]


def _crossing(freqs, amps, poly, window, thr, i_start, step):
    """Walk outward from i_start in direction step and return the frequency
    where the amplitude falls through thr. Uses the polynomial inside the fit
    window, linear interpolation between raw samples outside it."""
    lo, hi = window
    i = i_start
    while 0 <= i + step < len(freqs):
        j = i + step
        if amps[j] < thr <= amps[i]:
            if lo <= i <= hi and lo <= j <= hi:
                # bisection on the fitted polynomial
                a, b = (freqs[i], freqs[j]) if step > 0 else (freqs[j], freqs[i])
                # g(f) = poly(f) - thr keeps the sign of g(a) at every left
                # end, so the sign stands in for g(a) in the bracket test;
                # a product of two g values would underflow on tiny amplitudes
                ga = _horner(poly, a) - thr
                sa = (ga > 0) - (ga < 0)
                if sa * (_horner(poly, b) - thr) <= 0:
                    for _ in range(80):
                        mid = 0.5 * (a + b)
                        if mid == a or mid == b:
                            # the bracket is at float resolution and stays put
                            return mid
                        if sa * (_horner(poly, mid) - thr) <= 0:
                            b = mid
                        else:
                            a = mid
                    return 0.5 * (a + b)
            # linear interpolation on the raw samples
            aa, ab = amps[i], amps[j]
            return freqs[i] + (thr - aa) * (freqs[j] - freqs[i]) / (ab - aa)
        i = j
    raise BandwidthError("amplitude never falls below the half-power level")


def extract(curve: FrfCurve, m_eff: float | None = None) -> ExtractionResult:
    """Extract f0, half-power bandwidth and Q from a single-peak response.

    When m_eff is given, the damping coefficient c = 2*pi*f0*m_eff/Q is
    included in the result.
    """
    freqs, amps = curve.freqs, curve.amps
    i_peak = int(np.argmax(amps))
    if amps[i_peak] <= 0 or np.all(amps == amps[0]):
        raise BandwidthError("curve has no peak")
    # the sample walks below run on Python floats, not on numpy scalars
    freq_list, amp_list = freqs.tolist(), amps.tolist()
    lo, hi = _fit_window(amp_list, i_peak)
    poly, f0, A_peak = _poly_peak(freqs, amps, lo, hi)
    thr = A_peak * HALF_POWER
    f1 = _crossing(freq_list, amp_list, poly, (lo, hi), thr, i_peak, -1)
    f2 = _crossing(freq_list, amp_list, poly, (lo, hi), thr, i_peak, +1)
    if not f1 < f0 < f2:
        raise BandwidthError("half-power frequencies do not bracket the peak")
    Q = f0 / (f2 - f1)
    c = damping_from_q(f0, Q, m_eff) if m_eff is not None else None
    return ExtractionResult(f0=f0, A_peak=A_peak, f1=f1, f2=f2, Q=Q, c=c)

