"""Quality-factor and damping extraction from frequency-response curves.

The measured procedure is mirrored: f0 and the peak amplitude are the maximum, over the
top of the resonance peak, of a driven resonator's response fitted there (1/A^2 is a
quadratic in f^2, one 3x3 linear solve), and Q is read from the half-power bandwidth
Q = f0/(f2 - f1), each crossing interpolated linearly between the samples that bracket
it. A synthetic second-order resonator response is provided so the extraction can be
tested closed-loop.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from perfdamp.checks import ModelDomainError, require_non_negative, require_positive
from perfdamp.config import CURVE_HEADER

MIN_WINDOW = 9
MIN_SAMPLES = 8  # the fewest samples an FrfCurve takes
HALF_POWER = 1.0 / math.sqrt(2.0)
FIT_WINDOW_LEVEL = 0.9
# Largest sum of G_ii * (G^-1)_ii of the fit's 3x3 normal matrix G: the trace of the
# inverse of G scaled to unit diagonal, within 3x of its condition number (even windows of
# 5 to 65 samples: about 5 to 6).
MAX_FIT_COND = 1e8

# The reductions themselves: ndarray.min/max/all reach them through Python-level wrappers.
_min, _max, _all = np.minimum.reduce, np.maximum.reduce, np.logical_and.reduce
# Builds an ExtractionResult from all six fields, without its Python-level __new__.
_new = tuple.__new__


class BandwidthError(ModelDomainError):
    """The curve has no peak, or its half-power crossings are missing or do not bracket it."""


class FitError(ModelDomainError, RuntimeError):
    """The resonator fit around the peak, a quadratic in f^2, is ill-conditioned or has
    no finite peak."""


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


def _resonator_peak(freqs, amps, lo, hi):
    """Fit the window with a driven resonator's 1/A^2, a quadratic in f^2; return
    the maximum of the fitted response on the window (f0, A_peak).

    With s mapping (f/f_hi)^2 onto [-1, 1], p0 + p1*s + p2*s^2 is fitted to 1/A^2
    with each row scaled by A^2, so each residual is relative: the 3x3 Hankel
    normal equations of the sums of A^4*s^0..4 and A^2*s^0..2, solved by cofactors.
    The maximum is at the smallest fitted 1/A^2 of the two window ends and the
    vertex -p1/(2*p2), which counts where p2 > 0 and it lies inside the window."""
    x, y = freqs[lo : hi + 1], amps[lo : hi + 1]
    f_hi = x.item(-1)
    # rows 1, s, ..., s^4, s mapping u = (f/f_hi)^2 from [u_0, 1] onto [-1, 1]: no finite
    # f overflows u, and u_0 < 1, as the window's first frequency lies below f_hi
    powers = np.empty((5, len(x)))
    s = np.divide(x, f_hi, out=powers[1])
    s *= s
    half = 0.5 * (1.0 - s.item(0))
    mid = 1.0 - half
    s -= mid
    s *= 1.0 / half
    powers[0] = 1.0
    np.multiply(s, s, out=powers[2])
    np.multiply(powers[2], s, out=powers[3])
    np.multiply(powers[2], powers[2], out=powers[4])
    scale = 2.0 ** (math.frexp(_max(y))[1] - 1)  # exact, and keeps the sums finite
    a2 = y * (1.0 / scale)
    a2 *= a2
    m0, m1, m2, m3, m4 = (powers @ (a2 * a2)).tolist()
    r0, r1, r2 = (powers[:3] @ a2).tolist()
    # the cofactors of the Gram matrix [[m0, m1, m2], [m1, m2, m3], [m2, m3, m4]]
    c00, c01, c02 = m2 * m4 - m3 * m3, m2 * m3 - m1 * m4, m1 * m3 - m2 * m2
    c11, c12, c22 = m0 * m4 - m2 * m2, m1 * m2 - m0 * m3, m0 * m2 - m1 * m1
    det = m0 * c00 + m1 * c01 + m2 * c02
    if not (det > 0 and m0 * c00 + m2 * c11 + m4 * c22 <= MAX_FIT_COND * det):
        raise FitError("polynomial fit is ill-conditioned")
    p0 = (c00 * r0 + c01 * r1 + c02 * r2) / det
    p1 = (c01 * r0 + c11 * r1 + c12 * r2) / det
    p2 = (c02 * r0 + c12 * r1 + c22 * r2) / det
    s_lo, s_hi = s.item(0), s.item(-1)
    peaks = [(p0 + (p1 + p2 * s_lo) * s_lo, x.item(0)), (p0 + (p1 + p2 * s_hi) * s_hi, f_hi)]
    vertex = -p1 / (2 * p2) if p2 > 0 else math.nan
    if s_lo < vertex < s_hi:
        peaks.append((p0 + (p1 + p2 * vertex) * vertex, f_hi * math.sqrt(mid + half * vertex)))
    inv_a2, f0 = min(peaks)
    if not inv_a2 > 0:
        raise FitError("polynomial fit has no finite peak")
    return f0, scale / math.sqrt(inv_a2)


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
    f0, A_peak = _resonator_peak(freqs, amps, lo, hi)
    thr = A_peak * HALF_POWER
    f1 = _crossing(freqs, amps, thr, i_peak, -1)
    f2 = _crossing(freqs, amps, thr, i_peak, +1)
    if not f1 < f0 < f2:
        raise BandwidthError("half-power frequencies do not bracket the peak")
    Q = f0 / (f2 - f1)
    c = damping_from_q(f0, Q, m_eff) if m_eff is not None else None
    return _new(ExtractionResult, (f0, A_peak, f1, f2, Q, c))
