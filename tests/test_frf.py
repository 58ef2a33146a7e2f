import math
import statistics
import warnings

import numpy as np
import pytest
from numpy.polynomial import Polynomial
from hypothesis import given, settings, strategies as st

from perfdamp import cli
from perfdamp.compact_models import ModelDomainError
from perfdamp.frf import (
    FIT_WINDOW_LEVEL,
    HALF_POWER,
    MIN_SAMPLES,
    MIN_WINDOW,
    BandwidthError,
    FitError,
    FrfCurve,
    _crossing,
    _fit_window,
    _resonator_peak,
    damping_from_q,
    extract,
    read_curve,
    synth_frf,
)

from oracles import extract_reference, resonator_fit_reference


def _resonator_curve(f0, Q, m_eff=1e-9, F0=1e-6, points=801, span_bw=5.0):
    """Curve for a resonator with the given f0 and Q; returns (curve, c, k)."""
    w0 = 2 * math.pi * f0
    k = m_eff * w0**2
    c = m_eff * w0 / Q
    bw = f0 / Q
    freqs = np.linspace(f0 - span_bw * bw, f0 + span_bw * bw, points)
    return synth_frf(m_eff, c, k, F0, freqs), c, k


class TestSynth:
    def test_static_deflection(self):
        curve = synth_frf(1e-9, 2e-5, 1.6, 1e-6, np.linspace(1e-12, 8000, 9))
        assert curve.amps[0] == pytest.approx(1e-6 / 1.6, rel=1e-6)

    def test_amplitude_at_natural_frequency(self):
        m, k, c, F0 = 1e-9, 1.6, 2e-5, 1e-6
        wn = math.sqrt(k / m)
        freqs = np.linspace(0.5, 1.5, 101) * wn / (2 * math.pi)
        curve = synth_frf(m, c, k, F0, freqs)
        amp_at_wn = F0 / (c * wn)
        assert np.interp(wn / (2 * math.pi), curve.freqs, curve.amps) \
            == pytest.approx(amp_at_wn, rel=1e-3)

    def test_low_q_peak(self):
        # m=1e-9 kg, k=1.6 N/m, c=2e-5 Ns/m: fn ~ 6366 Hz, Q = sqrt(mk)/c ~ 2
        m, k, c = 1e-9, 1.6, 2e-5
        assert math.sqrt(k / m) / (2 * math.pi) == pytest.approx(6366.2, rel=1e-4)
        assert math.sqrt(m * k) / c == pytest.approx(2.0, rel=1e-6)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            synth_frf(0.0, 1e-5, 1.0, 1e-6, np.linspace(1, 2, 9))

    @pytest.mark.parametrize("arg,value", [
        ("m_eff", math.nan), ("m_eff", math.inf), ("m_eff", 0.0),
        ("c", math.nan), ("c", math.inf), ("c", -1e-5),
        ("k", math.nan), ("k", math.inf), ("F0", math.nan), ("F0", math.inf),
    ])
    def test_rejects_non_finite_or_out_of_range_parameter(self, arg, value):
        args = {"m_eff": 1e-9, "c": 2e-5, "k": 1.6, "F0": 1e-6, **{arg: value}}
        with pytest.raises(ValueError, match=rf"^{arg} \("):
            synth_frf(freqs=np.linspace(5e3, 8e3, 9), **args)

    def test_zero_damping_allowed(self):
        assert synth_frf(1e-9, 0.0, 1.6, 1e-6, np.linspace(5e3, 6e3, 9)).amps[0] > 0

    @pytest.mark.parametrize("m_eff, k, F0", [
        (1e-300, 1e300, 1e-6),  # (k - m*w^2)^2 overflows
        (1e-9, 1e150, 1e-300),  # F0/sqrt(...) ~ 1e-450 underflows to 0
    ], ids=["overflow", "underflow"])
    def test_rejects_response_out_of_float_range(self, m_eff, k, F0):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="out of floating-point range"):
                synth_frf(m_eff, 2e-5, k, F0, np.linspace(190e3, 210e3, 9))

    @pytest.mark.parametrize("f0, Q, m_eff, F0", [
        (200e3, 5.0, 1e-9, 1e-6), (130e3, 500.0, 3e-9, 1e-6), (6366.2, 3.5, 1e-9, 2e-6),
        (211.011e3, 134.4, 1e-12, 1e-3),
    ])
    def test_amplitudes_equal_the_formula_bit_for_bit(self, f0, Q, m_eff, F0):
        # synth_frf computes in place; its amplitudes are those of the formula as written
        w0 = 2 * math.pi * f0
        k, c = m_eff * w0**2, m_eff * w0 / Q
        freqs = np.linspace(f0 * (1 - 3 / Q), f0 * (1 + 3 / Q), 801)
        w = 2 * np.pi * freqs
        expected = F0 / np.sqrt((k - m_eff * w**2) ** 2 + (c * w) ** 2)
        curve = synth_frf(m_eff, c, k, F0, freqs)
        assert curve.amps.tobytes() == expected.tobytes()
        assert curve.freqs.tobytes() == freqs.tobytes()

    def test_squares_that_overflow_are_refused(self):
        # (c*w)^2 overflows to inf at every sample, so the formula reads 0 there
        freqs = np.linspace(190e3, 210e3, 9)
        w = 2 * np.pi * freqs
        with np.errstate(over="ignore"):
            assert (1e-6 / np.sqrt((1.0 - 1e-9 * w**2) ** 2 + (1e160 * w) ** 2) == 0).all()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^response at 190000\.0 Hz is out of "
                               r"floating-point range \(amplitude 0\.0\)$"):
                synth_frf(1e-9, 1e160, 1.0, 1e-6, freqs)

    def test_rejects_infinite_amplitude_at_undamped_resonance(self):
        # worded as an underflow is, by the frequency, not by an index into amps
        freqs = np.linspace(5e3, 8e3, 9)
        w = 2 * np.pi * freqs[3]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^response at {freqs[3]} Hz is out of "
                               r"floating-point range \(amplitude inf\)$"):
                synth_frf(1.0, 0.0, float(w**2), 1e-6, freqs)

    def test_frequencies_whose_w_squared_overflows_are_refused_without_warning(self):
        # w*w overflows from the first sample on, and w itself from 2.86e307 Hz, where
        # c*w = 0*inf is NaN
        freqs = np.linspace(1e307, 1.7e308, 9)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^response at 1e\+307 Hz is out of "
                               r"floating-point range \(amplitude 0\.0\)$"):
                synth_frf(1e-9, 0.0, 1.58e3, 1e-6, freqs)

    @pytest.mark.parametrize("freqs, message", [
        ([*np.linspace(5e3, 8e3, 8), math.nan], r"^freqs\[8\] is not finite \(nan\)$"),
        (np.linspace(8e3, 5e3, 9), "^freqs must be strictly increasing$"),
    ], ids=["nan", "decreasing"])
    def test_refused_freqs_keep_the_curve_message(self, freqs, message):
        # even where the response also overflows (the undamped resonance at 6125 Hz)
        k = float((2 * np.pi * 6125.0) ** 2)
        with pytest.raises(ValueError, match=message):
            synth_frf(1.0, 0.0, k, 1e-6, freqs)


class TestCurveValidation:
    def test_too_short(self):
        FrfCurve(freqs=np.arange(1.0, MIN_SAMPLES + 1), amps=np.ones(MIN_SAMPLES))
        with pytest.raises(ValueError, match=f"^need at least {MIN_SAMPLES} samples$"):
            FrfCurve(freqs=np.arange(1.0, MIN_SAMPLES), amps=np.ones(MIN_SAMPLES - 1))

    def test_unequal_lengths(self):
        with pytest.raises(ValueError, match="^freqs and amps must be 1-D arrays of equal "
                           "length$"):
            FrfCurve(freqs=np.arange(1.0, 11.0), amps=np.ones(9))

    def test_non_monotone(self):
        f = np.ones(10)
        with pytest.raises(ValueError):
            FrfCurve(freqs=f, amps=np.ones(10))

    @pytest.mark.parametrize("name,index,value", [
        ("amps", 3, math.nan), ("amps", 0, math.inf), ("freqs", 7, math.nan),
    ])
    def test_non_finite_sample_named(self, name, index, value):
        data = {"freqs": np.arange(10.0), "amps": np.ones(10)}
        data[name][index] = value
        with pytest.raises(ValueError, match=rf"{name}\[{index}\] is not finite"):
            FrfCurve(**data)

    def test_negative_amplitude(self):
        with pytest.raises(ValueError, match="^amplitudes must be non-negative$"):
            FrfCurve(freqs=np.arange(1.0, 11.0), amps=np.full(10, -1.0))

    @pytest.mark.parametrize("n, freqs_at, amps_at, message", [
        # one fault
        (10, {}, {2: math.nan}, "amps[2] is not finite (nan)"),
        (10, {9: math.inf}, {}, "freqs[9] is not finite (inf)"),
        (10, {}, {0: -math.inf}, "amps[0] is not finite (-inf)"),
        (MIN_SAMPLES - 1, {}, {}, f"need at least {MIN_SAMPLES} samples"),
        (10, {4: 3.0}, {}, "freqs must be strictly increasing"),
        (10, {5: 5.0}, {}, "freqs must be strictly increasing"),
        (10, {0: 0.0}, {}, "freqs must be positive and finite"),
        (10, {}, {7: -1e-300}, "amplitudes must be non-negative"),
        # two faults: the first check in order wins
        (5, {}, {2: math.nan}, "amps[2] is not finite (nan)"),
        (10, {3: math.nan}, {1: math.nan}, "freqs[3] is not finite (nan)"),
        (10, {}, {6: math.inf, 2: math.nan}, "amps[2] is not finite (nan)"),
        (10, {4: 3.0}, {1: -1.0}, "freqs must be strictly increasing"),
        (10, {0: -1.0}, {4: math.inf}, "amps[4] is not finite (inf)"),
        (10, {0: 0.0}, {4: -1.0}, "freqs must be positive and finite"),
        (MIN_SAMPLES - 1, {3: 2.0}, {}, f"need at least {MIN_SAMPLES} samples"),
        (MIN_SAMPLES - 1, {0: -5.0}, {0: -1.0}, f"need at least {MIN_SAMPLES} samples"),
    ])
    def test_refusal_order(self, n, freqs_at, amps_at, message):
        # freqs 1, 2, ..., n and unit amps, with the given samples replaced
        freqs, amps = np.arange(1.0, n + 1), np.ones(n)
        for values, at in ((freqs, freqs_at), (amps, amps_at)):
            for i, value in at.items():
                values[i] = value
        with pytest.raises(ValueError) as info:
            FrfCurve(freqs=freqs, amps=amps)
        assert str(info.value) == message

    def test_shape_refused_before_samples(self):
        with pytest.raises(ValueError, match="^freqs and amps must be 1-D arrays of equal "
                           "length$"):
            FrfCurve(freqs=np.full((2, 10), math.nan), amps=np.ones((2, 10)))

    def test_arrays_kept_or_converted(self):
        freqs, amps = np.arange(1.0, 11.0), np.ones(10)
        curve = FrfCurve(freqs=freqs, amps=amps)
        assert curve.freqs is freqs and curve.amps is amps
        listed = FrfCurve(freqs=freqs.tolist(), amps=[1] * 10)
        assert listed.freqs.dtype == listed.amps.dtype == np.float64
        assert np.array_equal(listed.freqs, freqs) and np.array_equal(listed.amps, amps)

    def test_first_frequency_must_be_positive(self):
        # a Q = 0.75 resonance at 200 kHz sampled from -400 to 800 kHz: its
        # left half-power crossing lies below 0 Hz, where no response exists
        with pytest.raises(ValueError, match="^freqs must be positive and finite$"):
            _resonator_curve(200e3, 0.75, span_bw=2.25)


class TestReadCurve:
    @pytest.fixture
    def synth_csv(self, tmp_path):
        path = tmp_path / "curve.csv"
        assert cli.run(["frf", "synth", "--meff", "1e-9", "--damping", "2e-5",
                        "--stiffness", "1.58e3", "--start", "190kHz", "--stop", "210kHz",
                        "--points", "101", "--out", str(path)]) == 0
        return path

    def test_synth_output_round_trips_bit_for_bit(self, synth_csv):
        curve = read_curve(synth_csv)
        expected = synth_frf(1e-9, 2e-5, 1.58e3, 1e-6, np.linspace(190e3, 210e3, 101))
        assert curve.freqs.tobytes() == expected.freqs.tobytes()
        assert curve.amps.tobytes() == expected.amps.tobytes()

    def test_columns_in_either_order(self, synth_csv, tmp_path):
        curve = read_curve(synth_csv)
        path = tmp_path / "swapped.csv"
        path.write_text("amp_m,freq_hz\n" + "".join(
            f"{a!r},{f!r}\n" for a, f in zip(curve.amps.tolist(), curve.freqs.tolist())))
        swapped = read_curve(path)
        assert np.array_equal(swapped.freqs, curve.freqs)
        assert np.array_equal(swapped.amps, curve.amps)

    @pytest.mark.parametrize("layout", ["blank-end", "comment-header", "spaces", "comments",
                                        "byte-order-mark", "comment-above-header"])
    def test_layouts_read_as_plain(self, synth_csv, tmp_path, layout):
        lines = synth_csv.read_text().splitlines()
        if layout == "byte-order-mark":
            # a CSV re-saved as "CSV UTF-8" by a spreadsheet program
            lines[0] = "\ufeff" + lines[0]
        elif layout == "blank-end":
            lines += ["", ""]
        elif layout == "comment-header":
            lines = ["", "# freq_hz,amp_m"] + lines[1:]
        elif layout == "comment-above-header":
            # a '#' line that does not name both columns is a comment, not the header
            lines = ["# made by perfdamp frf synth", "#", "# amp_m, m", *lines]
        elif layout == "spaces":
            lines = [" , ".join(line.split(",")) + "  " for line in lines]
        else:
            lines = [lines[0], "# sampled on a grid", *lines[1:3], "   ", lines[3] + " # sample 3",
                     *lines[4:]]
        path = tmp_path / "layout.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        curve, plain = read_curve(path), read_curve(synth_csv)
        assert np.array_equal(curve.freqs, plain.freqs)
        assert np.array_equal(curve.amps, plain.amps)

    @pytest.mark.parametrize("text,message", [
        ("", "input CSV is empty; it must have header 'freq_hz,amp_m'"),
        ("\n  \n", "input CSV is empty; it must have header 'freq_hz,amp_m'"),
        ("freq_hz,amp_m\n", f"need at least {MIN_SAMPLES} samples"),
        ("freq,amp\n1.0,2.0\n", "input CSV must have header 'freq_hz,amp_m'"),
        ("freq_hz,amp_m,x\n1.0,2.0,3.0\n", "input CSV must have header 'freq_hz,amp_m'"),
        ("freq_hz,amp_m\n1.0,2.0\n\n3.0,4.0,5.0\n", "input CSV line 4: expected 2 cells, "
         "found 3"),
        ("freq_hz,amp_m\n1.0,2.0\n3.0\n", "input CSV line 3: expected 2 cells, found 1"),
        ("freq_hz,amp_m\n1.0,2.0\n3.0, x \n", "input CSV line 3: cell 'x' is not a number"),
        ("freq_hz,amp_m\n1.0,\n", "input CSV line 2: cell '' is not a number"),
        ("freq_hz,amp_m\n1.0,2.0\n3.0, nan \n", "input CSV line 3: cell 'nan' is not a finite "
         "number"),
        ("freq_hz,amp_m\n1.0,2.0\n3.0,inf\n", "input CSV line 3: cell 'inf' is not a finite number"),
        ("# freq_hz,amp_m\n\n1.0,-inf\n", "input CSV line 3: cell '-inf' is not a finite number"),
        ("freq_hz,amp_m\n1.0,2.0\nnan,4.0\n", "input CSV line 3: cell 'nan' is not a finite number"),
        ("# made by X\n", "input CSV is empty; it must have header 'freq_hz,amp_m'"),
        ("# made by X\nfreq,amp\n1.0,2.0\n", "input CSV must have header 'freq_hz,amp_m'"),
        ("# made by X\nfreq_hz,amp_m\n1.0,nan\n", "input CSV line 3: cell 'nan' is not a finite "
         "number"),
        # the csv module's own refusal, past its 131072-character field limit
        ("freq_hz,amp_m\n1.0," + "1" * 200_000 + "\n", "input CSV line 2: field larger than "
         "field limit (131072)"),
    ], ids=["empty", "blank", "header-only", "wrong-header", "extra-column", "ragged",
            "missing-cell", "not-a-number", "empty-cell", "nan-amplitude", "inf-amplitude",
            "minus-inf-amplitude", "nan-frequency", "comment-only", "comment-then-wrong-header",
            "comment-then-nan", "oversized-cell"])
    def test_malformed_file_refused_in_one_line(self, tmp_path, text, message):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(ValueError) as info:
            read_curve(path)
        assert str(info.value) == message


class TestExtract:
    def test_errors_are_model_domain_errors(self):
        # the CLI maps a ModelDomainError to exit 3 by its type alone
        assert issubclass(BandwidthError, ModelDomainError)
        assert issubclass(FitError, ModelDomainError)
        assert issubclass(FitError, RuntimeError)

    @pytest.mark.parametrize("Q", [50, 500, 5000])
    @pytest.mark.parametrize("f0", [100e3, 200e3, 300e3])
    def test_round_trip(self, Q, f0):
        curve, _, _ = _resonator_curve(f0, Q, points=401)
        res = extract(curve)
        assert res.Q == pytest.approx(Q, rel=0.02)
        assert res.f0 == pytest.approx(f0, rel=5e-4)
        assert res.f1 < res.f0 < res.f2
        assert res.Q == pytest.approx(res.f0 / (res.f2 - res.f1), rel=1e-12)

    def test_flat_curve_rejected(self):
        curve = FrfCurve(freqs=np.linspace(1, 2, 64), amps=np.ones(64))
        with pytest.raises(BandwidthError):
            extract(curve)

    def test_halfpower_crossings_not_bracketing_peak_rejected(self):
        # the fit over all 8 jagged samples peaks at 149.7 Hz and 10.9, so its
        # half-power level of 7.7 puts the crossings around the raw maximum at
        # 140 Hz at 135.7 and 146.4 Hz, short of the fitted peak
        curve = FrfCurve(freqs=np.arange(100.0, 180.0, 10.0),
                         amps=np.array([3.0, 1, 2, 6, 9, 7, 9, 4]))
        with pytest.raises(BandwidthError, match="^half-power frequencies do not bracket "
                           "the peak$"):
            extract(curve)
        assert _outcome(extract, curve) == _outcome(extract_reference, curve)

    def test_fit_without_finite_peak_rejected(self):
        # a lone spike: rows weighted by A^2 pull the fit through the spike's small
        # 1/A^2, and the fitted quadratic dips below zero between the samples
        curve = FrfCurve(freqs=np.arange(100.0, 190.0, 10.0),
                         amps=np.array([1.0, 1, 1, 1, 10, 1, 1, 1, 1]))
        with pytest.raises(FitError, match="^polynomial fit has no finite peak$"):
            extract(curve)
        assert _outcome(extract, curve) == _outcome(extract_reference, curve)

    def test_no_halfpower_crossing_rejected(self):
        # truncated wing: right side never falls below peak/sqrt(2)
        curve, _, _ = _resonator_curve(200e3, 500, span_bw=5.0)
        cut = FrfCurve(freqs=curve.freqs[: len(curve.freqs) // 2 + 4],
                       amps=curve.amps[: len(curve.freqs) // 2 + 4])
        with pytest.raises(BandwidthError):
            extract(cut)

    def test_scale_invariance(self):
        curve, _, _ = _resonator_curve(200e3, 500)
        scaled = FrfCurve(freqs=curve.freqs, amps=1234.5 * curve.amps)
        a, b = extract(curve), extract(scaled)
        assert a.f0 == b.f0
        assert a.Q == b.Q

    def test_scale_invariance_near_float_max(self):
        # a peak at 1.5e307, where the sums V y of the fit's normal equations
        # would overflow without the fit's power-of-2 scaling
        curve, _, _ = _resonator_curve(200e3, 500)
        scaled = FrfCurve(freqs=curve.freqs, amps=np.ldexp(curve.amps, 1042))
        a, b = extract(curve), extract(scaled)
        assert (b.f0, b.A_peak, b.Q) == (a.f0, np.ldexp(a.A_peak, 1042), a.Q)

    def test_grid_refinement_stays_bounded(self):
        # the extraction carries a small fit bias, so errors plateau rather
        # than decrease monotonically; refinements must stay within the
        # round-trip tolerance and not drift
        qs = []
        for points in (201, 401, 801):
            curve, _, _ = _resonator_curve(200e3, 500, points=points)
            qs.append(extract(curve).Q)
        for q in qs:
            assert q == pytest.approx(500, rel=0.02)
        assert abs(qs[2] - qs[1]) <= abs(qs[1] - qs[0]) + 0.01 * 500

    @pytest.mark.parametrize("m_eff", [math.nan, math.inf, 0.0, -1e-9])
    def test_rejects_bad_m_eff_before_fit(self, m_eff):
        # a flat curve would fail the fit with BandwidthError; m_eff is checked first
        curve = FrfCurve(freqs=np.linspace(1, 2, 64), amps=np.ones(64))
        with pytest.raises(ValueError, match=r"^m_eff \("):
            extract(curve, m_eff=m_eff)

    def test_type_c_damping_round_trip(self):
        # Table-style values: f0 = 211.011 kHz, c_m = 9.863e-6 Ns/m;
        # effective mass chosen so Q lands in the measured range
        f0, c_m, m_eff = 211.011e3, 9.863e-6, 1e-9
        w0 = 2 * math.pi * f0
        Q = m_eff * w0 / c_m
        curve, _, _ = _resonator_curve(f0, Q, m_eff=m_eff)
        res = extract(curve, m_eff=m_eff)
        assert res.c == pytest.approx(c_m, rel=0.02)


def _half_power_q(Q):
    """f_peak/(f2 - f1) of the continuous response |X| of a resonator with
    quality factor Q. With z = 1/(2Q) and r = f/f0, |X|^-2 is proportional to
    (1 - r^2)^2 + (2*z*r)^2: its minimum lies at r^2 = 1 - 2z^2 and it doubles
    at the roots r^2 = 1 - 2z^2 +- 2z*sqrt(1 - z^2) of a quadratic in r^2."""
    z = 1.0 / (2.0 * Q)
    mid, half_gap = 1.0 - 2.0 * z * z, 2.0 * z * math.sqrt(1.0 - z * z)
    return math.sqrt(mid) / (math.sqrt(mid + half_gap) - math.sqrt(mid - half_gap))


class TestHalfPowerOracle:
    """On clean curves, Q matches the half-power Q of the continuous response, and
    f0 and A_peak its maximum."""

    @pytest.mark.parametrize("points, tol", [(801, 1e-4), (201, 3e-4)])
    @pytest.mark.parametrize("Q", [2, 3, 5, 10, 20, 50, 100, 500, 5000])
    def test_matches_closed_form(self, Q, points, tol):
        # below Q = 3.2 the span narrows so that it starts at 0.05 f0, above
        # 0 Hz and below the left crossing (0.63 f0 at Q = 2)
        curve, _, _ = _resonator_curve(200e3, Q, points=points, span_bw=min(3.0, 0.95 * Q))
        assert abs(extract(curve).Q / _half_power_q(Q) - 1) <= tol

    @pytest.mark.parametrize("points", [201, 801])
    @pytest.mark.parametrize("Q", [2, 3, 5, 10, 20, 50, 100, 500, 5000])
    def test_peak_is_the_resonance_maximum(self, Q, points):
        # 1/A^2 of a driven resonator is a quadratic in f^2, so the fit is exact up to
        # rounding: the peak of |X| lies at f_n*sqrt(1 - 1/(2Q^2)) and reads
        # F0/(c*w_n*sqrt(1 - 1/(4Q^2)))
        f_n, F0 = 200e3, 1e-6
        curve, c, _ = _resonator_curve(f_n, Q, F0=F0, points=points, span_bw=min(3.0, 0.95 * Q))
        res = extract(curve)
        w_n = 2 * math.pi * f_n
        assert res.f0 == pytest.approx(f_n * math.sqrt(1 - 1 / (2 * Q * Q)), rel=1e-12, abs=0)
        assert res.A_peak == pytest.approx(F0 / (c * w_n * math.sqrt(1 - 1 / (4 * Q * Q))),
                                           rel=1e-12, abs=0)


# name: (relative noise, flat offset and tilt as fractions of the response at f_n, points)
ROBUSTNESS_SCENARIOS = {
    "noise-1e-3": (1e-3, 0.0, 0.0, 801),
    "noise-1e-2": (1e-2, 0.0, 0.0, 801),
    "offset-1pc": (1e-3, 0.01, 0.0, 801),
    "tilt+2pc": (1e-3, 0.0, 0.02, 801),
    "tilt-2pc": (1e-3, 0.0, -0.02, 801),
    "points-101": (1e-3, 0.0, 0.0, 101),
    "points-61": (1e-3, 0.0, 0.0, 61),
}
# Worst and median |Q/Q_true - 1| of each scenario's curves when the peak came from a
# degree-6 polynomial fitted to the window (7x7 normal equations, Newton on p'), the fit
# the resonator fit replaced: measured with _robustness_q_errors on that code
POLYNOMIAL_Q_ERRORS = {
    "noise-1e-3": (0.020636897785011432, 0.0013337283789034426),
    "noise-1e-2": (0.052747926706675496, 0.009155879229919395),
    "offset-1pc": (0.029063249634251997, 0.00910816493945854),
    "tilt+2pc": (0.019659422498151002, 0.0012348457375986333),
    "tilt-2pc": (0.022538941022390846, 0.0014131596336112162),
    "points-101": (0.024671016289434577, 0.0019775466375867023),
    "points-61": (0.0258353142050064, 0.0025163816722885146),
}


def _robustness_q_errors(scenario):
    """|Q/Q_true - 1| of extract on 1,500 seeded resonator curves of the scenario:
    Q log-uniform in [5, 500], f_n in 130-230 kHz, +-3 bandwidths around f_n; the
    amplitudes times (1 + noise * N(0, 1)) and a linear tilt that reaches +-tilt at
    the ends, plus the flat offset."""
    noise, offset, tilt, points = ROBUSTNESS_SCENARIOS[scenario]
    rng = np.random.default_rng(1)
    errors = []
    for _ in range(1500):
        Q = math.exp(rng.uniform(math.log(5.0), math.log(500.0)))
        f_n = rng.uniform(130e3, 230e3)
        m_eff, w_n = 1e-9, 2 * math.pi * f_n
        bw = f_n / Q
        freqs = np.linspace(f_n - 3 * bw, f_n + 3 * bw, points)
        amps = synth_frf(m_eff, m_eff * w_n / Q, m_eff * w_n**2, 1e-6, freqs).amps
        peak = 1e-6 / (m_eff * w_n * w_n / Q)  # F0/(c*w_n), the response at f_n
        amps = amps * (1 + noise * rng.standard_normal(points)) \
            * (1 + tilt * (freqs - f_n) / (3 * bw)) + offset * peak
        errors.append(abs(extract(FrfCurve(freqs=freqs, amps=amps)).Q / Q - 1))
    return errors


class TestRobustness:
    """Off the clean resonator, the half-power Q is as accurate as it was with the
    polynomial peak fit: the worst error within 5 % of that fit's, the median no
    larger."""

    @pytest.mark.parametrize("scenario", ROBUSTNESS_SCENARIOS)
    def test_q_error_within_the_polynomial_fits(self, scenario):
        errors = _robustness_q_errors(scenario)
        worst, median = POLYNOMIAL_Q_ERRORS[scenario]
        assert max(errors) <= 1.05 * worst
        assert statistics.median(errors) <= median


class TestMatchesReference:
    """extract is within 1e-12 of the extraction through np.linalg.lstsq."""

    @pytest.mark.parametrize("noise", [False, True])
    @pytest.mark.parametrize("points", [201, 401, 801])
    @pytest.mark.parametrize("Q", [5, 20, 50, 500, 5000])
    def test_equal_fields(self, Q, points, noise):
        curve, _, _ = _resonator_curve(200e3, Q, points=points, span_bw=3.0)
        if noise:
            rng = np.random.default_rng(Q * points)
            curve = FrfCurve(freqs=curve.freqs,
                             amps=curve.amps * (1 + 1e-3 * rng.standard_normal(points)))
        _assert_matches_reference(curve)


def _outcome(fn, curve):
    """Result fields of fn(curve), or the type and message of its error."""
    try:
        return tuple(fn(curve, m_eff=1e-9))
    except (BandwidthError, FitError) as exc:
        return type(exc), str(exc)


def _assert_matches_reference(curve):
    """extract raises the error extract_reference raises, or returns every
    field within 1e-12 of it: the two fits differ only in rounding."""
    out, ref = _outcome(extract, curve), _outcome(extract_reference, curve)
    if isinstance(ref[0], type):
        assert out == ref
    else:
        assert out == pytest.approx(ref, rel=1e-12, abs=0)


# One side of a peak, read outward: a run of samples at or above 0.9 of it, then any samples
_side = st.builds(lambda run, rest: run + rest,
                  st.integers(0, 12).flatmap(
                      lambda n: st.lists(st.sampled_from([9, 10]), min_size=n, max_size=n)),
                  st.lists(st.sampled_from([0, 8, 9, 10]), max_size=8))


class TestIndexSearches:
    """The numpy searches of the fit window and of the crossings keep the
    semantics of a walk outward from the peak, one sample at a time."""

    def test_window_widens_both_sides_together(self):
        amps = np.full(21, 0.95)
        amps[10] = 1.0
        amps[3] = 0.85  # 7 samples left of the peak, below the level
        assert _fit_window(amps, 10) == (4, 16)

    def test_window_clipped_by_array_end(self):
        amps = np.full(21, 0.95)
        amps[15] = 1.0
        assert _fit_window(amps, 15) == (10, 20)
        amps[15], amps[3] = 0.95, 1.0
        # the walk stops at the left end after 3 samples; MIN_WINDOW widens it
        assert _fit_window(amps, 3) == (0, 7)

    def test_window_sample_at_level_counts_as_above(self):
        amps = np.full(21, 0.95)
        amps[10], amps[3] = 1.0, FIT_WINDOW_LEVEL
        assert _fit_window(amps, 10) == (0, 20)

    def test_crossing_sample_at_threshold_counts_as_above(self):
        amps = np.array([0.2, 0.5, 0.5, 1.0, 0.75, 0.5, 0.5, 0.1])
        freqs = np.arange(8.0)
        # the plateaus at thr count as above, so the crossings are the pairs
        # (6, 7) and (1, 0); counted as below, they would be (4, 5) at 5.0
        # and (3, 2) at 2.0
        assert _crossing(freqs, amps, 0.5, 3, +1) == 6.0
        assert _crossing(freqs, amps, 0.5, 3, -1) == 1.0

    @pytest.mark.parametrize("step", [-1, +1])
    def test_crossing_refuses_threshold_above_its_maximum(self, step):
        # the walk starts below thr at the maximum, so no sample falls through it
        amps = np.array([0.1, 0.9, 0.9, 0.4, 1.0, 0.5, 0.1, 0.1])
        with pytest.raises(BandwidthError):
            _crossing(np.arange(8.0), amps, 1.0000001, 4, step)

    @settings(max_examples=300, deadline=None)
    @given(left=_side, right=_side)
    def test_window_matches_a_walk_widening_both_sides(self, left, right):
        # tenths of a peak of 1.0 between left and right: 0.9 lies at the level, 0.8 below
        amps = np.array([*left[::-1], 10, *right], dtype=float) / 10
        i_peak = len(left)
        level = amps[i_peak] * FIT_WINDOW_LEVEL
        half = 0
        while (half < i_peak and i_peak + half + 1 < len(amps)
               and amps[i_peak - half - 1] >= level and amps[i_peak + half + 1] >= level):
            half += 1
        half = max(half, MIN_WINDOW // 2)
        assert _fit_window(amps, i_peak) == (max(0, i_peak - half),
                                            min(len(amps) - 1, i_peak + half))

    def test_crossing_first_dip_wins(self):
        amps = np.array([0.1, 0.25, 0.5, 1.0, 1.0, 1.0, 0.5, 1.0, 0.25, 0.1])
        freqs = np.arange(10.0)
        # pairs (5, 6) and (7, 8) both fall through 0.75; the walk stops at the first
        assert _crossing(freqs, amps, 0.75, 4, +1) == 5.5
        assert _crossing(freqs, amps, 0.75, 4, -1) == 2.5

    def test_crossing_never_falls(self):
        amps = np.array([0.9, 0.95, 1.0, 0.5, 0.25, 0.2, 0.1, 0.1])
        with pytest.raises(BandwidthError):
            _crossing(np.arange(8.0), amps, 0.75, 2, -1)

    @pytest.mark.parametrize("first", [True, False])
    def test_peak_on_end_sample(self, first):
        # the fit window holds 5 samples, and no sample lies beyond the peak to fall
        # below its half-power level
        amps = np.linspace(1.0, 0.1, 64)
        curve = FrfCurve(freqs=np.linspace(1e5, 2e5, 64), amps=amps if first else amps[::-1])
        out = _outcome(extract, curve)
        assert out == (BandwidthError, "amplitude never falls below the half-power level")
        assert out == _outcome(extract_reference, curve)

    def test_window_clipped_then_no_crossing(self):
        amps = np.concatenate([[0.9, 0.95, 0.97, 0.99, 1.0], np.linspace(0.98, 0.1, 59)])
        curve = FrfCurve(freqs=np.linspace(1e5, 2e5, 64), amps=amps)
        out = _outcome(extract, curve)
        assert out[0] is BandwidthError
        assert out == _outcome(extract_reference, curve)

    def test_dip_above_half_inside_window(self):
        curve, _, _ = _resonator_curve(200e3, 50, points=201, span_bw=3.0)
        amps = curve.amps.copy()
        i_peak = int(amps.argmax())
        amps[i_peak + 3] = 0.6 * amps[i_peak]
        _assert_matches_reference(FrfCurve(freqs=curve.freqs, amps=amps))

    def _narrow_window_curve(self):
        """A curve whose left dip below the fit level narrows the fit window,
        so its right crossing lies outside the window."""
        curve, _, _ = _resonator_curve(200e3, 50, points=201, span_bw=3.0)
        amps = curve.amps.copy()
        i_peak = int(amps.argmax())
        amps[i_peak - 6] = 0.4 * amps[i_peak]
        return FrfCurve(freqs=curve.freqs, amps=amps), i_peak

    def test_crossing_outside_window_interpolated(self):
        curve, i_peak = self._narrow_window_curve()
        lo, hi = _fit_window(curve.amps, i_peak)
        assert (lo, hi) == (i_peak - 5, i_peak + 5)
        res = extract(curve, m_eff=1e-9)
        assert res.f2 > curve.freqs[hi]
        _assert_matches_reference(curve)

    def test_sample_at_threshold_outside_window(self):
        curve, i_peak = self._narrow_window_curve()
        thr = extract(curve).A_peak * HALF_POWER
        amps = curve.amps.copy()
        j = i_peak + int(np.argmax(amps[i_peak:] < thr))  # first sample right below thr
        amps[j:j + 2] = thr  # outside the window, so the fit and thr stay as they are
        moved = FrfCurve(freqs=curve.freqs, amps=amps)
        res = extract(moved, m_eff=1e-9)
        assert extract(curve).f2 < curve.freqs[j]
        # the crossing moves to the pair (j + 1, j + 2); were a sample at thr
        # below, it would be (j - 1, j), at about freqs[j]
        assert res.f2 == curve.freqs[j + 1]
        # f0, A_peak and f1 are those of the unmoved curve. The reference is no
        # oracle here: its threshold differs from thr in the last bits, so the
        # samples placed at thr may fall below it
        assert res[:3] == extract(curve)[:3]


def singular_gram_curve():
    """(freqs, amps) of nine samples rising to a peak and falling, the first eight at
    1-8 kHz and the last at 1e200 Hz: (f/f_hi)^2 underflows to 0 on the first eight,
    so s takes two values, and the Gram matrix of the three-coefficient fit is exactly
    singular (its first and last columns are equal)."""
    return np.array([*np.arange(1e3, 9e3, 1e3), 1e200]), np.array([1.0, 2, 3, 4, 5, 4, 3, 2, 1])


# 1/A^2 = 1 + k*(w - w_v)^2 with w mapping f^2 onto [-1, 1] over the window, k and the
# vertex w_v drawn from these ranges; each case names the sample or point where A peaks
VERTEX_CASES = {
    "vertex-inside": ((0.1, 0.5), (-0.6, 0.6)),
    "vertex-left-of-window": ((0.1, 0.5), (-1.6, -1.2)),
    "vertex-right-of-window": ((0.1, 0.5), (1.2, 1.6)),
    # k < 0: a maximum of 1/A^2, so A peaks at the end farther from it
    "concave": ((-0.3, -0.1), (-0.6, 0.6)),
}


# p' = sign * (t - r_1) ... (t - r_k) * (t^2 + 1) in the mapped variable t in
# [-1, 1], p of degree 6: the ranges the roots r_i are drawn from, and the sign
PEAK_SHAPES = {
    "max-at-left-end": ([(1.2, 1.5), (-1.6, -1.2)], 1),
    "max-at-right-end": ([(-1.5, -1.2), (1.2, 1.6)], -1),
    "one-interior-peak": ([(-0.3, 0.3), (1.3, 1.6), (-1.6, -1.3)], 1),
    # the minimum lies at least 0.45 from either maximum, wider than any
    # sample gap below, so each maximum has its own sign change of p'
    "two-interior-maxima": ([(-0.75, -0.55), (-0.1, 0.1), (0.55, 0.75)], -1),
}


def _sampled_poly(shape, n, even, seed):
    """A degree-6 polynomial p of the given shape, positive on a window of n
    samples from 199 to 201 kHz, evenly spaced or each inner one moved by up
    to 0.3 of the spacing; returns p, the frequencies and the samples."""
    rng = np.random.default_rng(seed)
    ranges, sign = PEAK_SHAPES[shape]
    slope = sign * Polynomial.fromroots([rng.uniform(lo, hi) for lo, hi in ranges])
    in_t = (slope * Polynomial([1.0, 0.0, 1.0])).integ()
    in_t = in_t + 2.0 * np.abs(in_t.coef).sum()  # |p| <= sum |coef| on [-1, 1] before
    freqs = np.linspace(199e3, 201e3, n)
    if not even:
        freqs[1:-1] += rng.uniform(-0.3, 0.3, n - 2) * (freqs[1] - freqs[0])
    poly = Polynomial(in_t.coef, domain=[199e3, 201e3])
    return poly, freqs, poly(freqs)


class TestPolyPeak:
    """_resonator_peak finds the maximum over its window of the fitted response, whose
    1/A^2 is a quadratic polynomial in f^2: the vertex or a window end."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("even", [True, False], ids=["even", "jittered"])
    @pytest.mark.parametrize("n", [9, 17, 65])
    @pytest.mark.parametrize("shape", PEAK_SHAPES)
    def test_matches_derivative_roots(self, shape, n, even, seed):
        # samples of degree-6 shapes outside the resonator model: the peak is that of
        # the quadratic numpy's least squares fits to 1/A^2, where its derivative vanishes
        poly, freqs, amps = _sampled_poly(shape, n, even, seed)
        crit = poly.deriv().roots()
        crit = crit[np.isreal(crit)].real
        crit = crit[(crit >= freqs[0]) & (crit <= freqs[-1])]
        maxima = crit[poly.deriv(2)(crit) < 0]
        cand = np.concatenate([crit, freqs[[0, -1]]])
        best = cand[np.argmax(poly(cand))]
        # the shape is the one named
        if shape.startswith("max-at"):
            assert len(maxima) == 0 and best == freqs[0 if "left" in shape else -1]
        else:
            assert len(maxima) == (1 if shape == "one-interior-peak" else 2)
            assert best in maxima
        u, coef = resonator_fit_reference(freqs, amps)
        fit = Polynomial(coef)  # 1/A^2 in s, A scaled by max(amps); s = -1 at freqs[0]
        vertex = [r for r in fit.deriv().roots() if -1 < r < 1 and fit.deriv(2)(r) > 0]
        s_cand = [-1.0, 1.0, *vertex]
        s_best = s_cand[int(np.argmin(fit(np.array(s_cand))))]
        f_best = freqs[-1] * math.sqrt(u[0] + (s_best + 1) / 2 * (u[-1] - u[0]))
        f0, A_peak = _resonator_peak(freqs, amps, 0, n - 1)
        assert A_peak == pytest.approx(amps.max() / math.sqrt(fit(s_best)), rel=1e-12, abs=0)
        assert abs(f0 - f_best) <= 1e-9 * (freqs[-1] - freqs[0])

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("even", [True, False], ids=["even", "jittered"])
    @pytest.mark.parametrize("n", [5, 9, 17, 65])
    @pytest.mark.parametrize("case", VERTEX_CASES)
    def test_vertex_or_window_end(self, case, n, even, seed):
        rng = np.random.default_rng(seed)
        (k_lo, k_hi), (v_lo, v_hi) = VERTEX_CASES[case]
        k, w_v = rng.uniform(k_lo, k_hi), rng.uniform(v_lo, v_hi)
        freqs = np.linspace(199e3, 201e3, n)
        if not even:
            freqs[1:-1] += rng.uniform(-0.3, 0.3, n - 2) * (freqs[1] - freqs[0])
        mid, half = (201e3**2 + 199e3**2) / 2, (201e3**2 - 199e3**2) / 2

        def inv_a2(f):
            return 1 + k * ((f * f - mid) / half - w_v) ** 2

        amps = 1e-8 / np.sqrt(inv_a2(freqs))
        if k > 0 and -1 < w_v < 1:
            best = math.sqrt(mid + half * w_v)
        else:
            best = freqs[int(np.argmin(inv_a2(freqs[[0, -1]]))) * (n - 1)]
        assert (case == "vertex-inside") == (best not in freqs[[0, -1]])
        f0, A_peak = _resonator_peak(freqs, amps, 0, n - 1)
        assert A_peak == pytest.approx(1e-8 / math.sqrt(inv_a2(best)), rel=1e-12, abs=0)
        if case == "vertex-inside":
            assert abs(f0 - best) <= 1e-9 * (freqs[-1] - freqs[0])
        else:
            assert f0 == best  # the window end itself

    def test_clustered_frequencies_raise(self):
        # eight of nine samples lie within 7 mHz of the first, so s in [-1, 1] takes
        # about two values and three coefficients cannot be resolved: the condition
        # bound refuses the fit. On the singular curve the Gram determinant is 0
        clustered = np.concatenate([1e5 + 1e-3 * np.arange(8), [1.1e5]])
        for freqs, amps in ((clustered, np.linspace(1.0, 2.0, 9)), singular_gram_curve()):
            with pytest.raises(FitError, match="^polynomial fit is ill-conditioned$"):
                _resonator_peak(freqs, amps, 0, 8)
        # extract fits the singular curve's whole peak, and refuses it the same way
        with pytest.raises(FitError, match="^polynomial fit is ill-conditioned$"):
            extract(FrfCurve(*singular_gram_curve()))


class TestDampingFromQ:
    def test_unit_case(self):
        assert damping_from_q(1 / (2 * math.pi), 1.0, 1.0) == pytest.approx(1.0, rel=1e-14)

    def test_inverse_in_q(self):
        c1 = damping_from_q(200e3, 250.0, 1e-9)
        c2 = damping_from_q(200e3, 500.0, 1e-9)
        assert c1 == 2 * c2

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            damping_from_q(1.0, 0.0, 1.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    @pytest.mark.parametrize("arg", ["f0", "Q"])
    def test_rejects_non_finite_or_nonpositive(self, arg, value):
        kwargs = {"f0": 200e3, "Q": 10.0, "m_eff": 1e-9, arg: value}
        with pytest.raises(ValueError, match=rf"^{arg} \("):
            damping_from_q(**kwargs)

    @pytest.mark.parametrize("m_eff", [math.nan, math.inf, 0.0])
    def test_rejects_bad_m_eff(self, m_eff):
        with pytest.raises(ValueError, match=r"^m_eff \("):
            damping_from_q(200e3, 500.0, m_eff)
