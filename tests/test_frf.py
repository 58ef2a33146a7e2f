import math

import numpy as np
import pytest

from perfdamp.frf import (
    BandwidthError,
    FrfCurve,
    damping_from_q,
    extract,
    synth_frf,
)

from oracles import extract_reference


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


class TestCurveValidation:
    def test_too_short(self):
        with pytest.raises(ValueError):
            FrfCurve(freqs=np.arange(5.0), amps=np.ones(5))

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
        with pytest.raises(ValueError):
            FrfCurve(freqs=np.arange(10.0), amps=np.full(10, -1.0))


class TestExtract:
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

    def test_type_c_damping_round_trip(self):
        # Table-style values: f0 = 211.011 kHz, c_m = 9.863e-6 Ns/m;
        # effective mass chosen so Q lands in the measured range
        f0, c_m, m_eff = 211.011e3, 9.863e-6, 1e-9
        w0 = 2 * math.pi * f0
        Q = m_eff * w0 / c_m
        curve, _, _ = _resonator_curve(f0, Q, m_eff=m_eff)
        res = extract(curve, m_eff=m_eff)
        assert res.c == pytest.approx(c_m, rel=0.02)


class TestMatchesReference:
    """extract is bit-identical to the Polynomial-class extraction."""

    @staticmethod
    def _fields(res):
        return (res.f0, res.A_peak, res.f1, res.f2, res.Q, res.c)

    @pytest.mark.parametrize("noise", [False, True])
    @pytest.mark.parametrize("points", [201, 401, 801])
    @pytest.mark.parametrize("Q", [5, 20, 50, 500, 5000])
    def test_equal_fields(self, Q, points, noise):
        curve, _, _ = _resonator_curve(200e3, Q, points=points, span_bw=3.0)
        if noise:
            rng = np.random.default_rng(Q * points)
            curve = FrfCurve(freqs=curve.freqs,
                             amps=curve.amps * (1 + 1e-3 * rng.standard_normal(points)))
        assert self._fields(extract(curve, m_eff=1e-9)) == \
            self._fields(extract_reference(curve, m_eff=1e-9))


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
