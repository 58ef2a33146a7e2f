"""Property-based checks of the model invariants."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from perfdamp import compact_models as cm
from perfdamp.flow_regime import GasProperties, regime_report
from perfdamp.frf import FrfCurve, extract, synth_frf
from perfdamp.compact_models import HOLE_RADIUS_FACTOR
from perfdamp.geometry import PlateGeometry, derive_geometry

lengths = st.floats(min_value=1e-7, max_value=1e-3, allow_nan=False)
mean_free_paths = st.floats(min_value=1e-9, max_value=2e-7)


@st.composite
def plate_geometries(draw):
    """Valid perforated plates in the slip-flow size range.

    s1 is kept above 5% of s0 so the square-cell effective radius stays
    strictly inside the equivalent cell.
    """
    s0 = draw(st.floats(min_value=1e-6, max_value=2e-5))
    s1 = draw(st.floats(min_value=0.05, max_value=2.0)) * s0
    M = draw(st.integers(min_value=2, max_value=40))
    N = draw(st.integers(min_value=2, max_value=24))
    margin = draw(st.floats(min_value=1.0, max_value=1.1))
    pitch = s0 + s1
    h = draw(st.floats(min_value=0.5e-6, max_value=5e-6))
    h_c = draw(st.floats(min_value=5e-6, max_value=50e-6))
    return PlateGeometry(L=M * pitch * margin, W=N * pitch * margin,
                         M=M, N=N, s0=s0, s1=s1, h=h, h_c=h_c)


class TestGeometryProperties:
    @given(s_X=lengths)
    def test_cell_radius_preserves_area(self, s_X):
        r_X = PlateGeometry(L=s_X, W=s_X, M=1, N=1, s0=s_X / 2, s1=s_X / 2,
                            h=1.6e-6, h_c=15e-6).derived.r_X
        assert math.pi * r_X**2 == pytest.approx(s_X**2, rel=1e-12, abs=0)

    @given(geom=plate_geometries())
    def test_derived_quantities_in_range(self, geom):
        d = derive_geometry(geom)
        assert 0 < d.xi < 1
        assert 0 < d.beta < HOLE_RADIUS_FACTOR * math.sqrt(math.pi)
        assert 0 < d.q < 1
        assert d.r_0 < d.r_X
        assert d.r_0E < d.r_X


# Mostly counts a grid can fit, some past the float range.
hole_counts = st.integers(min_value=1, max_value=1000) | st.integers(min_value=1,
                                                                     max_value=10**400)


@st.composite
def extreme_plates(draw):
    """PlateGeometry keyword arguments: lengths log-uniform over 1e-300..1e300,
    drawn either independently or within 20 decades of a common scale (which
    builds a plate far more often), and any hole counts."""
    spread = draw(st.sampled_from((300.0, 20.0)))
    centre = draw(st.floats(min_value=spread - 300, max_value=300 - spread))
    kw = {name: 10.0 ** (centre + draw(st.floats(min_value=-spread, max_value=spread)))
          for name in ("L", "W", "s0", "s1", "h", "h_c")}
    return {**kw, "M": draw(hole_counts), "N": draw(hole_counts)}


class TestExtremePlates:
    """Any constructible plate: each model returns a finite positive damping
    or raises ModelDomainError; building the plate raises nothing but
    ValueError."""

    @settings(max_examples=500, deadline=None)
    @example(kw=dict(L=372.4e-6, W=66.4e-6, M=36, N=6, s0=5e-6, s1=5.2e-6, h=1e-90, h_c=15e-6))
    @example(kw=dict(L=372.4e-6, W=66.4e-6, M=36, N=6, s0=1e-300, s1=5.2e-6, h=1.6e-6,
                     h_c=15e-6))
    @example(kw=dict(L=1e200, W=1e200, M=5, N=5, s0=1e199, s1=1e199, h=1.6e-6, h_c=15e-6))
    @example(kw=dict(L=1e104, W=1e104, M=5, N=5, s0=5e-6, s1=5.2e-6, h=1.6e-6, h_c=15e-6))
    @given(kw=extreme_plates())
    def test_models_finite_positive_or_domain_error(self, kw):
        try:
            geom = PlateGeometry(**kw)
        except ValueError:
            return
        gas = GasProperties()
        for model in cm.MODELS.values():
            try:
                c = model(geom, gas).c
            except cm.ModelDomainError:
                continue
            assert math.isfinite(c) and c > 0


# Type A plate, whose gap h the Knudsen property replaces
_TYPE_A = PlateGeometry(L=372.4e-6, W=66.4e-6, M=36, N=6, s0=5e-6, s1=5.2e-6,
                        h=1.6e-6, h_c=15e-6)


class TestRegimeProperties:
    @given(lam=st.floats(min_value=1e-9, max_value=1e-6),
           shorter=lengths, stretch=st.floats(min_value=1.01, max_value=100))
    def test_knudsen_decreasing_in_length(self, lam, shorter, stretch):
        gas = GasProperties(lam=lam)

        def K_ch(h):
            return regime_report(dataclasses.replace(_TYPE_A, h=h), gas, 200e3).K_ch

        assert K_ch(shorter * stretch) < K_ch(shorter)

    @given(w1=st.floats(min_value=1.0, max_value=1e6),
           factor=st.floats(min_value=1.01, max_value=100))
    def test_monotone_in_omega(self, w1, factor):
        gas = GasProperties()
        w2 = w1 * factor
        rep1 = regime_report(_TYPE_A, gas, w1 / (2 * math.pi))
        rep2 = regime_report(_TYPE_A, gas, w2 / (2 * math.pi))
        assert rep2.sigma_plate > rep1.sigma_plate
        assert rep2.sigma_cell > rep1.sigma_cell
        assert rep2.Re > rep1.Re


class TestModelProperties:
    @settings(max_examples=25, deadline=None)
    @given(geom=plate_geometries(), lam=mean_free_paths)
    def test_all_models_positive(self, geom, lam):
        gas = GasProperties(lam=lam)
        for model in cm.MODELS.values():
            c = model(geom, gas).c
            assert math.isfinite(c) and c > 0

    @settings(max_examples=25, deadline=None)
    @given(geom=plate_geometries(), lam=mean_free_paths)
    def test_border_flow_reduces_damping(self, geom, lam):
        gas = GasProperties(lam=lam)
        assert cm.damping_m3(geom, gas).c < cm.damping_m5(geom, gas).c
        assert cm.damping_m4(geom, gas).c < cm.damping_m6(geom, gas).c

    @settings(max_examples=25, deadline=None)
    @given(geom=plate_geometries())
    def test_breakdown_consistency(self, geom):
        gas = GasProperties()
        for cell in (cm.cell_resistance_circular, cm.cell_resistance_square):
            br = cell(geom, gas)
            assert all(x >= 0 for x in br[:6])
            assert sum(br[:6]) == br.R_p
            assert sum(br.percentages()) == pytest.approx(100.0, abs=1e-9)

    # any cell resistance, however scaled: a finite positive damping, or a
    # refusal; inf and NaN by the positivity rule, 5e-324 by the float range
    @settings(max_examples=200, deadline=None)
    @example(R_p=math.inf)
    @example(R_p=5e-324)
    @example(R_p=math.nan)
    @given(R_p=st.floats())
    def test_border_series_finite_positive_or_domain_error(self, R_p):
        try:
            c = cm.damping_border_coupled(_TYPE_A, GasProperties(), R_p).c
        except cm.ModelDomainError:
            return
        assert math.isfinite(c) and c > 0


def _frf_pair(scale, Q):
    """Extraction of a 401-point resonance curve and of the same curve with
    its amplitudes multiplied by scale."""
    f0, m_eff = 200e3, 1e-9
    w0 = 2 * math.pi * f0
    bw = f0 / Q
    freqs = np.linspace(f0 - 5 * bw, f0 + 5 * bw, 401)
    curve = synth_frf(m_eff, m_eff * w0 / Q, m_eff * w0**2, 1e-6, freqs)
    scaled = FrfCurve(freqs=curve.freqs, amps=scale * curve.amps)
    return extract(curve), extract(scaled)


class TestFrfProperties:
    # A power-of-two scale is exact in binary floating point, so every step of
    # the extraction scales exactly and the frequencies come out bit-identical.
    # At 2**-520 the amplitudes are near 1e-163, where a product of two of
    # them underflows to zero.
    @settings(max_examples=20, deadline=None)
    @example(k=-520, Q=300.0)
    @given(k=st.integers(min_value=-20, max_value=20),
           Q=st.floats(min_value=20, max_value=2000))
    def test_scale_invariance(self, k, Q):
        a, b = _frf_pair(2.0**k, Q)
        assert (a.f0, a.Q, a.f1, a.f2) == (b.f0, b.Q, b.f1, b.f2)

    # Any other scale rounds the amplitudes, and the fit can move f0, f1 and f2
    # by an ulp or two. Q = f0/(f2 - f1) magnifies a relative change of f1 or
    # f2 by f0/(f2 - f1) = Q, so its tolerance scales with Q.
    @settings(max_examples=20, deadline=None)
    @given(scale=st.floats(min_value=1e-6, max_value=1e6),
           Q=st.floats(min_value=20, max_value=2000))
    def test_scale_near_invariance(self, scale, Q):
        a, b = _frf_pair(scale, Q)
        for x, y in ((a.f0, b.f0), (a.f1, b.f1), (a.f2, b.f2)):
            assert y == pytest.approx(x, rel=1e-13, abs=0)
        assert b.Q == pytest.approx(a.Q, rel=3e-13 * a.Q, abs=0)
