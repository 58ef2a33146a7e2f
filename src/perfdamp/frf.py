"""Quality-factor and damping extraction from frequency-response curves.

The measured procedure is mirrored: a 6th-degree polynomial fitted to the top of the
resonance peak (normal equations) gives f0 and the peak amplitude at its maximum (Newton
on p'), and Q is read from the half-power bandwidth Q = f0/(f2 - f1), each crossing
interpolated linearly between the samples that bracket it. A synthetic second-order
resonator response is provided so the extraction can be tested closed-loop.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from perfdamp.checks import ModelDomainError, require_non_negative, require_positive
from perfdamp.config import CURVE_HEADER

POLY_DEGREE = 6
MIN_WINDOW = 9
MIN_SAMPLES = 8  # the fewest samples an FrfCurve takes
HALF_POWER = 1.0 / math.sqrt(2.0)
FIT_WINDOW_LEVEL = 0.9
# Largest sum of G_ii * (G^-1)_ii of a fit's normal matrix G: the trace of the inverse of G
# scaled to unit diagonal, within 7x of its condition number (even windows: 1150 to 2640).
MAX_FIT_COND = 1e8
_DEGREES = np.arange(1.0, POLY_DEGREE + 1)  # p' = (coef[1:] * _DEGREES) @ (1, t, ..., t^5)

# The reductions themselves: ndarray.min/max/all reach them through Python-level wrappers.
_min, _max, _all = np.minimum.reduce, np.maximum.reduce, np.logical_and.reduce
# Builds an ExtractionResult from all six fields, without its Python-level __new__.
_new = tuple.__new__


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
        if freqs is not self.freqs:
            object.__setattr__(self, "freqs", freqs)
        if amps is not self.amps:
            object.__setattr__(self, "amps", amps)
        if freqs.ndim != 1 or freqs.shape != amps.shape:
            raise ValueError("freqs and amps must be 1-D arrays of equal length")
        # One pass: increasing freqs in (0, inf) and amps in [0, inf) are all finite, and
        # a NaN fails every comparison. Only a refused curve runs the ordered checks.
        if not (len(freqs) >= MIN_SAMPLES and 0 < freqs.item(0) and freqs.item(-1) < math.inf
                and _all(freqs[1:] > freqs[:-1]) and 0 <= _min(amps) and _max(amps) < math.inf):
            _refuse(freqs, amps)


def _refuse(freqs: np.ndarray, amps: np.ndarray) -> None:
    """Raise ValueError for the first check, in this order, that the curve fails."""
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

    Finite parameters whose amplitude overflows or underflows to 0 raise
    ValueError naming the first frequency where it does."""
    require_positive((_M_EFF, m_eff), ("k (stiffness)", k), ("F0 (drive force)", F0))
    require_non_negative(("c (damping)", c))
    freqs = np.asarray(freqs, dtype=float)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        # the operations of the formula, in its order, in place
        w = 2 * np.pi * freqs
        amps = np.multiply(w, w)
        amps *= m_eff
        np.subtract(k, amps, out=amps)
        np.multiply(amps, amps, out=amps)
        w *= c
        w *= w
        amps += w
        np.sqrt(amps, out=amps)
        np.divide(F0, amps, out=amps)
    try:
        curve = FrfCurve(freqs=freqs, amps=amps)
        if _min(amps) > 0:
            return curve
    except ValueError:
        FrfCurve(freqs=freqs, amps=np.ones_like(freqs))  # refuses freqs in FrfCurve's words
    i = int((~((amps > 0) & (amps < math.inf))).argmax())  # the first amplitude out of range
    raise ValueError(f"response at {freqs[i]} Hz is out of floating-point range "
                     f"(amplitude {amps[i]})")


def read_curve(path) -> FrfCurve:
    """Read a curve CSV whose header names the columns of CURVE_HEADER, in either order.

    The header may start with '#'; '#' comments, blank lines and spaces around a cell are
    skipped. An empty file, a wrong header, or a row with a missing or extra cell or a cell
    that is not a finite number raises ValueError, a row's naming its line."""
    # utf-8-sig: a byte-order mark, as spreadsheet programs write, is not part of the header
    with open(path, encoding="utf-8-sig") as fh:
        reader = csv.reader(_uncommented(fh))
        try:
            rows = [(reader.line_num, row) for row in reader if row]
        except csv.Error as exc:
            raise ValueError(f"input CSV line {reader.line_num}: {exc}") from None
    if not rows:
        raise ValueError(f"input CSV is empty; it must have header '{','.join(CURVE_HEADER)}'")
    names = [name.strip() for name in rows[0][1]]
    if sorted(names) != sorted(CURVE_HEADER):
        raise ValueError(f"input CSV must have header '{','.join(CURVE_HEADER)}'")
    values = []
    for line, row in rows[1:]:
        if len(row) != 2:
            raise ValueError(f"input CSV line {line}: expected 2 cells, found {len(row)}")
        for cell in row:
            try:
                values.append(float(cell))
            except ValueError:
                raise ValueError(
                    f"input CSV line {line}: cell {cell.strip()!r} is not a number") from None
            if not math.isfinite(values[-1]):
                raise ValueError(
                    f"input CSV line {line}: cell {cell.strip()!r} is not a finite number")
    columns = np.array(values).reshape(-1, 2).T.copy()
    i_freq = names.index(CURVE_HEADER[0])
    return FrfCurve(freqs=columns[i_freq], amps=columns[1 - i_freq])


def _uncommented(lines):
    """Each line stripped, without its '#' comment. Above the header, a line that opens
    with '#' is the header if its cells name both columns, and a comment otherwise."""
    header = True
    for line in lines:
        line = line.strip()
        if header and line.startswith("#"):
            line = line[1:].split("#", 1)[0]
            if sorted(name.strip() for name in next(csv.reader([line]))) != sorted(CURVE_HEADER):
                line = ""
        line = line.split("#", 1)[0].strip()
        header = header and not line
        yield line


def damping_from_q(f0: float, Q: float, m_eff: float) -> float:
    """Damping coefficient from quality factor: c = 2*pi*f0*m_eff/Q."""
    require_positive((_M_EFF, m_eff), ("f0 (resonance frequency)", f0), ("Q (quality factor)", Q))
    return 2 * math.pi * f0 * m_eff / Q


def _below_from_peak(amps: np.ndarray, i_peak: int, step: int, level: float) -> int:
    """Steps from the raw maximum amps[i_peak] outward in direction step to the first sample
    below level (one at level counts as above); 0 if there is none or the maximum is below."""
    # argmax is 0 both for a walk with no sample below and for one that starts below
    return int((amps[i_peak::step] < level).argmax())


def _fit_window(amps: np.ndarray, i_peak: int) -> tuple[int, int]:
    """Widest symmetric index span around the raw peak whose amplitudes stay
    at or above FIT_WINDOW_LEVEL of it, at least MIN_WINDOW samples.

    Both sides widen together until a sample on either side falls below the
    level or the span reaches an end of the array."""
    level = amps.item(i_peak) * FIT_WINDOW_LEVEL
    half = min(i_peak, len(amps) - 1 - i_peak)
    for step in (-1, 1):
        k = _below_from_peak(amps, i_peak, step, level)
        if k:
            half = min(half, k - 1)
    half = max(half, MIN_WINDOW // 2)
    lo = max(0, i_peak - half)
    hi = min(len(amps) - 1, i_peak + half)
    return lo, hi


def _peak_between(coef, a: float, b: float) -> tuple[float, float]:
    """(p(t), t) at the root t in [a, b] of p', given p'(a) > 0 >= p'(b) and
    coef, p lowest degree first: Newton, or bisection where a step leaves [a, b] or p'' >= 0."""
    _, c1, c2, c3, c4, c5, c6 = coef
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
    return _horner(coef, u), u


def _horner(coef, u: float) -> float:
    """p(u), coef lowest degree first."""
    c0, c1, c2, c3, c4, c5, c6 = coef
    return (((((c6 * u + c5) * u + c4) * u + c3) * u + c2) * u + c1) * u + c0


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
    # rows 1, t, ..., t^6 of V; t maps [x_lo, x_hi] to [-1, 1]
    van_t = np.empty((POLY_DEGREE + 1, len(x)))
    van_t[0] = 1.0
    t = np.multiply(x, 2.0 / span, out=van_t[1])
    t += (-x_hi - x_lo) / span
    van_t[2:] = t
    np.multiply.accumulate(van_t[1:], out=van_t[1:])
    gram = van_t @ van_t.T
    try:
        inv = np.linalg.inv(gram)
    except np.linalg.LinAlgError as exc:
        raise FitError("polynomial fit is ill-conditioned") from exc
    if not gram.diagonal() @ inv.diagonal() <= MAX_FIT_COND:
        raise FitError("polynomial fit is ill-conditioned")
    scale = 2.0 ** (math.frexp(_max(y))[1] - 1)  # exact, and keeps V y finite
    coef = inv @ (van_t @ (y / scale))
    rising = coef[1:] * _DEGREES @ van_t[:-1] > 0  # p' > 0 at the samples
    ts, cl = t.tolist(), coef.tolist()
    ends = [(_horner(cl, u), u) for u in (ts[0], ts[-1])]
    peaks = [_peak_between(cl, ts[k], ts[k + 1])
             for k in (rising[:-1] > rising[1:]).nonzero()[0].tolist()]
    A_peak, t0 = max(ends + peaks)
    return (x_hi + x_lo) / 2 + span / 2 * t0, A_peak * scale


def _crossing(freqs, amps, thr, i_peak, step):
    """Return the frequency where the amplitude first falls through thr going
    outward from the raw maximum amps[i_peak] in direction step.

    The crossing is interpolated linearly between the last sample at or above
    thr and the first sample below it."""
    k = _below_from_peak(amps, i_peak, step, thr)
    if not k:
        raise BandwidthError("amplitude never falls below the half-power level")
    j = i_peak + k * step
    i = j - step
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
    # amplitudes are finite and non-negative, so a flat curve (an all-zero one too) is
    # one whose minimum is its peak; a curve whose end samples differ from its peak is not
    if amps.item(0) == peak == amps.item(-1) == _min(amps):
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
    return _new(ExtractionResult, (f0, A_peak, f1, f2, Q, c))
