"""Quality-factor and damping extraction from frequency-response curves.

The measured procedure is mirrored: a 6th-degree polynomial fitted to the top of the
resonance peak (normal equations) gives f0 and the peak amplitude at its maximum (Newton
on p'), and Q is read from the half-power bandwidth Q = f0/(f2 - f1), each crossing
interpolated linearly between the samples that bracket it. A synthetic second-order
resonator response is provided so the extraction can be tested closed-loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from perfdamp.compact_models import ModelDomainError
from perfdamp.geometry import require_non_negative, require_positive

POLY_DEGREE = 6
MIN_WINDOW = 9
MIN_SAMPLES = 8  # the fewest samples an FrfCurve takes
HALF_POWER = 1.0 / math.sqrt(2.0)
FIT_WINDOW_LEVEL = 0.9
# Largest sum of G_ii * (G^-1)_ii of a fit's normal matrix G: the trace of the inverse of G
# scaled to unit diagonal, within 7x of its condition number (even windows: 1150 to 2640).
MAX_FIT_COND = 1e8


class BandwidthError(ModelDomainError):
    """The curve has no peak, or its half-power crossings are missing or do not bracket it."""


class FitError(ModelDomainError, RuntimeError):
    """The polynomial fit around the peak has too few samples or is ill-conditioned."""


@dataclass(frozen=True, eq=False)
class FrfCurve:
    """Sampled amplitude response: strictly increasing positive freqs (Hz), amps (m)."""

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
            finite = np.isfinite(values)
            if not finite.all():
                i = int(finite.argmin())
                raise ValueError(f"{name}[{i}] is not finite ({values[i]})")
        if len(freqs) < MIN_SAMPLES:
            raise ValueError(f"need at least {MIN_SAMPLES} samples")
        if not (freqs[1:] > freqs[:-1]).all():
            raise ValueError("freqs must be strictly increasing")
        # increasing, so the first frequency is the smallest
        require_positive(("freqs", freqs.item(0)))
        if (amps < 0).any():
            raise ValueError("amplitudes must be non-negative")


class ExtractionResult(NamedTuple):
    f0: float
    A_peak: float
    f1: float
    f2: float
    Q: float
    c: float | None = None


_M_EFF = "m_eff (effective mass)"


def synth_frf(m_eff: float, c: float, k: float, F0: float, freqs: np.ndarray) -> FrfCurve:
    """Amplitude response of a driven damped resonator:
    A(w) = F0 / sqrt((k - m*w^2)^2 + (c*w)^2).

    Finite parameters whose response leaves the float range (an amplitude
    that overflows or underflows to 0, or is infinite) raise ValueError."""
    require_positive((_M_EFF, m_eff), ("k (stiffness)", k), ("F0 (drive force)", F0))
    require_non_negative(("c (damping)", c))
    freqs = np.asarray(freqs, dtype=float)
    w = 2 * np.pi * freqs
    with np.errstate(over="ignore", divide="ignore"):
        amps = F0 / np.sqrt((k - m_eff * w**2) ** 2 + (c * w) ** 2)
    curve = FrfCurve(freqs=freqs, amps=amps)
    if not amps.min() > 0:
        i = int(amps.argmin())
        raise ValueError(f"response at {freqs[i]} Hz is out of floating-point range "
                         f"(amplitude {amps[i]})")
    return curve


def read_curve(path) -> FrfCurve:
    """Read a curve CSV whose header names the columns freq_hz and amp_m."""
    data = np.genfromtxt(path, delimiter=",", names=True)
    if data.dtype.names is None or set(data.dtype.names) != {"freq_hz", "amp_m"}:
        raise ValueError("input CSV must have header 'freq_hz,amp_m'")
    return FrfCurve(freqs=np.atleast_1d(data["freq_hz"]), amps=np.atleast_1d(data["amp_m"]))


def damping_from_q(f0: float, Q: float, m_eff: float) -> float:
    """Damping coefficient from quality factor: c = 2*pi*f0*m_eff/Q."""
    require_positive((_M_EFF, m_eff), ("f0 (resonance frequency)", f0), ("Q (quality factor)", Q))
    return 2 * math.pi * f0 * m_eff / Q


def _fit_window(amps: np.ndarray, i_peak: int) -> tuple[int, int]:
    """Widest symmetric index span around the raw peak whose amplitudes stay
    at or above FIT_WINDOW_LEVEL of it, at least MIN_WINDOW samples.

    Both sides widen together until a sample on either side falls below the
    level or the span reaches an end of the array."""
    reach = min(i_peak, len(amps) - 1 - i_peak)
    half = 0
    if reach:
        below = amps[i_peak - reach : i_peak + reach + 1] < amps[i_peak] * FIT_WINDOW_LEVEL
        # stop[k]: a sample k + 1 places left or right of the peak is below the level
        stop = below[reach + 1 :] | below[reach - 1 :: -1]
        k = int(stop.argmax())
        half = k if stop[k] else reach
    half = max(half, MIN_WINDOW // 2)
    lo = max(0, i_peak - half)
    hi = min(len(amps) - 1, i_peak + half)
    return lo, hi


def _peak_between(coef, a: float, b: float) -> tuple[float, float]:
    """(p(t), t) at the root t in [a, b] of p' (or t = a = b), given p'(a) > 0 >= p'(b) and
    coef, p lowest degree first: Newton, or bisection where a step leaves [a, b] or p'' >= 0."""
    c0, c1, c2, c3, c4, c5, c6 = coef
    d2, d3, d4, d5, d6 = 2 * c2, 3 * c3, 4 * c4, 5 * c5, 6 * c6
    u = 0.5 * (a + b)
    for _ in range(100):  # bisection halves the bracket: 52 steps reach 1e-15
        t = u
        slope = ((((d6 * t + d5) * t + d4) * t + d3) * t + d2) * t + c1
        curv = (((5 * d6 * t + 4 * d5) * t + 3 * d4) * t + 2 * d3) * t + d2
        a, b = (t, b) if slope > 0 else (a, t)
        u = t - slope / curv if curv < 0 else a
        u = u if a < u <= b else 0.5 * (a + b)
        if abs(u - t) <= 1e-15:  # floats near |t| = 1 lie 1.1e-16 to 2.2e-16 apart
            break
    return (((((c6 * u + c5) * u + c4) * u + c3) * u + c2) * u + c1) * u + c0, u


def _poly_peak(freqs, amps, lo, hi):
    """Fit the window with a degree-6 polynomial; return its maximum (f0, A_peak).

    On the window mapped to t in [-1, 1] the coefficients solve the normal equations
    V V^T c = V y. The maximum is over both window ends and each root of p' falling from
    > 0 to <= 0 between two samples; a local max/min pair between adjacent samples is not seen."""
    x, y = freqs[lo : hi + 1], amps[lo : hi + 1]
    if len(x) <= POLY_DEGREE + 1:
        raise FitError("fit window too small for a 6th-degree polynomial")
    x_lo, x_hi = x.item(0), x.item(-1)
    span = x_hi - x_lo
    t = (-x_hi - x_lo) / span + 2.0 / span * x  # map [x_lo, x_hi] to [-1, 1]
    van_t = np.vander(t, POLY_DEGREE + 1, increasing=True).T
    gram = van_t @ van_t.T
    try:
        inv = np.linalg.inv(gram)
    except np.linalg.LinAlgError as exc:
        raise FitError("polynomial fit is ill-conditioned") from exc
    if not gram.diagonal() @ inv.diagonal() <= MAX_FIT_COND:
        raise FitError("polynomial fit is ill-conditioned")
    scale = 2.0 ** (math.frexp(y.max())[1] - 1)  # exact, and keeps V y finite
    coef = inv @ (van_t @ (y / scale))
    rising = coef[1:] * np.arange(1, POLY_DEGREE + 1) @ van_t[:-1] > 0  # p' > 0 at the samples
    ts, cl = t.tolist(), coef.tolist()
    pairs = [(ts[k], ts[k + 1]) for k in np.flatnonzero(rising[:-1] > rising[1:]).tolist()]
    A_peak, t0 = max(_peak_between(cl, a, b) for a, b in pairs + [(ts[0],) * 2, (ts[-1],) * 2])
    return (x_hi + x_lo) / 2 + span / 2 * t0, A_peak * scale


def _crossing(freqs, amps, thr, i_start, step):
    """Return the frequency where the amplitude first falls through thr going
    outward from i_start in direction step.

    numpy finds the first sample pair i, j = i + step with
    amps[j] < thr <= amps[i]; the crossing is interpolated linearly on it."""
    walk = amps[i_start:] if step > 0 else amps[i_start::-1]
    above = walk >= thr
    falls = above[:-1] > above[1:]  # above at i, below at j
    k = int(falls.argmax()) if falls.size else 0
    if not (falls.size and falls[k]):
        raise BandwidthError("amplitude never falls below the half-power level")
    i = i_start + k * step
    j = i + step
    fi, aa, ab = freqs.item(i), amps.item(i), amps.item(j)
    return fi + (thr - aa) * (freqs.item(j) - fi) / (ab - aa)


def extract(curve: FrfCurve, m_eff: float | None = None) -> ExtractionResult:
    """Extract f0, half-power bandwidth and Q from a single-peak response.

    When m_eff is given, the damping coefficient c = 2*pi*f0*m_eff/Q is
    included in the result.
    """
    if m_eff is not None:
        require_positive((_M_EFF, m_eff))
    freqs, amps = curve.freqs, curve.amps
    i_peak = int(amps.argmax())
    peak = amps.item(i_peak)
    # amplitudes are finite, so a flat curve is one whose minimum is its peak
    if peak <= 0 or peak == amps.min():
        raise BandwidthError("curve has no peak")
    lo, hi = _fit_window(amps, i_peak)
    f0, A_peak = _poly_peak(freqs, amps, lo, hi)
    thr = A_peak * HALF_POWER
    f1 = _crossing(freqs, amps, thr, i_peak, -1)
    f2 = _crossing(freqs, amps, thr, i_peak, +1)
    if not f1 < f0 < f2:
        raise BandwidthError("half-power frequencies do not bracket the peak")
    Q = f0 / (f2 - f1)
    c = damping_from_q(f0, Q, m_eff) if m_eff is not None else None
    return ExtractionResult(f0=f0, A_peak=A_peak, f1=f1, f2=f2, Q=Q, c=c)
