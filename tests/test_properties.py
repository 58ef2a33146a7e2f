"""Property-based checks of the model invariants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from perfdamp import compact_models as cm
from perfdamp.flow_regime import (
    GasProperties,
    flow_rate_coefficient,
    knudsen,
    reynolds_number,
    squeeze_number,
)
from perfdamp.frf import FrfCurve, extract, synth_frf
from perfdamp.geometry import PlateGeometry, derive_geometry, equivalent_cell_radius

lengths = st.floats(min_value=1e-7, max_value=1e-3, allow_nan=False)
mean_free_paths = st.floats(min_value=1e-9, max_value=2e-7)
# zero exactly or large enough that 1 + slope*K is distinguishable from 1
knudsens = st.one_of(st.just(0.0),
                     st.floats(min_value=1e-12, max_value=0.1, allow_nan=False))


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
        r_X = equivalent_cell_radius(s_X)
        assert math.pi * r_X**2 == pytest.approx(s_X**2, rel=1e-12)

    @given(geom=plate_geometries())
    def test_derived_quantities_in_range(self, geom):
        d = derive_geometry(geom)
        assert 0 < d.xi < 1
        assert 0 < d.beta < 1
        assert 0 < d.q < 1
        assert d.r_0 < d.r_X
        assert d.r_0E < d.r_X


class TestRegimeProperties:
    @given(kind=st.sampled_from(["channel", "tube", "square"]), K=knudsens)
    def test_flow_rate_coefficient_at_least_one(self, kind, K):
        Q = flow_rate_coefficient(kind, K)
        assert Q >= 1.0
        assert (Q == 1.0) == (K == 0.0)

    @given(lam=st.floats(min_value=1e-9, max_value=1e-6),
           shorter=lengths, stretch=st.floats(min_value=1.01, max_value=100))
    def test_knudsen_decreasing_in_length(self, lam, shorter, stretch):
        assert knudsen(lam, shorter * stretch) < knudsen(lam, shorter)

    @given(w1=st.floats(min_value=1.0, max_value=1e6),
           factor=st.floats(min_value=1.01, max_value=100))
    def test_monotone_in_omega(self, w1, factor):
        gas = GasProperties()
        w2 = w1 * factor
        assert squeeze_number(gas.mu, 1e-5, w2, gas.P_A, 1.6e-6) \
            > squeeze_number(gas.mu, 1e-5, w1, gas.P_A, 1.6e-6)
        assert reynolds_number(gas.rho, 1e-5, w2, gas.mu) \
            > reynolds_number(gas.rho, 1e-5, w1, gas.mu)


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
            assert all(x >= 0 for x in br.scaled_components())
            assert sum(br.scaled_components()) == pytest.approx(br.R_p, rel=1e-12)
            assert sum(br.percentages()) == pytest.approx(100.0, abs=1e-9)


class TestFrfProperties:
    @settings(max_examples=20, deadline=None)
    @given(scale=st.floats(min_value=1e-6, max_value=1e6),
           Q=st.floats(min_value=20, max_value=2000))
    def test_scale_invariance(self, scale, Q):
        f0, m_eff = 200e3, 1e-9
        w0 = 2 * math.pi * f0
        bw = f0 / Q
        freqs = np.linspace(f0 - 5 * bw, f0 + 5 * bw, 401)
        curve = synth_frf(m_eff, m_eff * w0 / Q, m_eff * w0**2, 1e-6, freqs)
        scaled = FrfCurve(freqs=curve.freqs, amps=scale * curve.amps)
        a, b = extract(curve), extract(scaled)
        assert a.f0 == b.f0
        assert a.Q == b.Q
