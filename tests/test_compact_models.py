import dataclasses
import math

import pytest

from perfdamp import compact_models as cm
from perfdamp.comparison import relative_error
from perfdamp.flow_regime import GasProperties
from perfdamp.geometry import BeamGeometry, PlateGeometry

import oracles

# Published relative errors define the expected damping through
# c = c_m * (1 + delta/100); models must land within 3 percentage points.
TOL_PP = 3.0


def _assert_delta(model_fn, rec, gas, published_delta):
    res = model_fn(rec.geom, gas)
    assert res.converged
    assert relative_error(res.c, rec.c_m) == pytest.approx(published_delta, abs=TOL_PP)


class TestM1:
    def test_type_a(self, dataset, gas):
        _assert_delta(cm.damping_m1, dataset["A"], gas, -23.53)

    def test_type_f(self, dataset, gas):
        _assert_delta(cm.damping_m1, dataset["F"], gas, -4.77)

    def test_infinite_gap_kills_squeeze_film(self, dataset, gas):
        geom = dataclasses.replace(dataset["A"].geom, h=1.0)
        res = cm.damping_m1(geom, gas)
        assert res.c < 1e-6 * cm.damping_m1(dataset["A"].geom, gas).c

    def test_slip_correction_divides_by_qch(self, dataset, gas):
        geom = dataset["A"].geom
        plain = cm.damping_m1(geom, gas).c
        slip = cm.damping_m1(geom, gas, slip_correct=True).c
        assert slip == pytest.approx(plain / (1 + 6 * gas.lam / geom.h), rel=1e-12)


class TestM2:
    def test_type_e(self, dataset, gas):
        _assert_delta(cm.damping_m2, dataset["E"], gas, -18.94)

    def test_type_a(self, dataset, gas):
        _assert_delta(cm.damping_m2, dataset["A"], gas, -25.74)

    def test_close_to_m1_for_long_plate(self, dataset, gas):
        # type A is 6:1, where the narrow-plate model should nearly agree
        c1 = cm.damping_m1(dataset["A"].geom, gas).c
        c2 = cm.damping_m2(dataset["A"].geom, gas).c
        assert abs(c2 - c1) / c1 < 0.05

    def test_matches_direct_sum(self, dataset, gas):
        for rec in dataset.values():
            c = cm.damping_m2(rec.geom, gas).c
            assert c == pytest.approx(oracles.m2_damping(rec.geom, gas), rel=1e-12, abs=0)

    @pytest.mark.parametrize("W, L, M, N, s0, h", [
        (20e-6, 100e-6, 10, 2, 2e-6, 5e-6),  # narrow plate, wide gap: al ~ 17
        (20e-6, 100e-6, 10, 2, 1e-6, 5e-6),  # and smaller holes: al ~ 68
        (200e-6, 20e-6, 2, 20, 5e-6, 1.6e-6),  # W/L = 10: tanh(x_n) < 1 for 60 terms
    ], ids=["al17", "al68", "wide"])
    def test_outside_reference_devices(self, gas, W, L, M, N, s0, h):
        geom = PlateGeometry(L=L, W=W, M=M, N=N, s0=s0, s1=10e-6 - s0, h=h, h_c=15e-6)
        c = cm.damping_m2(geom, gas).c
        assert c == pytest.approx(oracles.m2_damping(geom, gas), rel=1e-9, abs=0)

    @pytest.mark.parametrize("al", [0.03, 2.0, 9.99, 10.01, 68.0, 1e3, 1e5])
    def test_shape_bracket_both_branches(self, al):
        # (pi^2/8) * bracket = sum_{n odd} 1/(n^2 t_n^2); its closed form
        # cancels to O(al^-4) for large al, where a Taylor branch takes over
        n = range(199_999, 0, -2)
        direct = math.fsum(1 / (k**2 * (1 + (k * math.pi * al / 2) ** 2) ** 2) for k in n)
        assert math.pi**2 / 8 * cm._shape_bracket(al) == pytest.approx(direct, rel=1e-10, abs=0)


class TestCellResistanceCircular:
    def test_type_a_contributions(self, dataset, gas):
        pct = cm.cell_resistance_circular(dataset["A"].geom, gas).percentages()
        published = (8.15, 9.78, 0.78, 5.63, 68.01, 7.65)
        for got, want in zip(pct, published):
            assert got == pytest.approx(want, abs=2.0)

    def test_e_and_f_identical(self, dataset, gas):
        br_e = cm.cell_resistance_circular(dataset["E"].geom, gas)
        br_f = cm.cell_resistance_circular(dataset["F"].geom, gas)
        assert br_e == br_f

    def test_continuum_limit_finite(self, dataset):
        gas = GasProperties(lam=1e-300)
        br = cm.cell_resistance_circular(dataset["A"].geom, gas)
        for component in br.scaled_components():
            assert math.isfinite(component) and component >= 0
        assert br.R_p > 0

    def test_components_sum_to_total(self, dataset, gas):
        br = cm.cell_resistance_circular(dataset["A"].geom, gas)
        assert sum(br.scaled_components()) == pytest.approx(br.R_p, rel=1e-14)


class TestCellResistanceSquare:
    def test_type_f_cell_damping(self, dataset, gas):
        # published M6 error for F is -1.08% => c_p ~ 66.71e-6 Ns/m
        rec = dataset["F"]
        br = cm.cell_resistance_square(rec.geom, gas)
        c_p = rec.geom.M * rec.geom.N * br.R_p
        assert relative_error(c_p, rec.c_m) == pytest.approx(-1.08, abs=TOL_PP)

    def test_type_c_cell_damping(self, dataset, gas):
        rec = dataset["C"]
        c_p = rec.geom.M * rec.geom.N * cm.cell_resistance_square(rec.geom, gas).R_p
        assert relative_error(c_p, rec.c_m) == pytest.approx(4.36, abs=TOL_PP)

    def test_border_bend_resistance_is_zero(self, dataset, gas):
        assert cm.cell_resistance_square(dataset["A"].geom, gas).R_IB == 0.0

    def test_outlet_elongation_vanishes_as_hole_fills_cell(self, gas):
        # delta_E carries a (1 - xi^4) factor; R_E -> 0 as s1 -> 0
        from perfdamp.geometry import PlateGeometry
        base = PlateGeometry(L=100e-6, W=100e-6, M=9, N=9, s0=10e-6, s1=1e-6,
                             h=1.6e-6, h_c=15e-6)
        shrunk = dataclasses.replace(base, s1=1e-9)
        assert cm.cell_resistance_square(shrunk, gas).R_E \
            < 0.01 * cm.cell_resistance_square(base, gas).R_E


class TestBorderCoupled:
    def test_m3_type_c(self, dataset, gas):
        _assert_delta(cm.damping_m3, dataset["C"], gas, -4.11)

    def test_m4_type_f(self, dataset, gas):
        _assert_delta(cm.damping_m4, dataset["F"], gas, -6.52)

    def test_sealed_holes_limit_exceeds_perforated(self, dataset, gas):
        geom = dataset["A"].geom
        sealed = cm.damping_border_coupled(geom, gas, R_p=1e12)
        for model in (cm.damping_m3, cm.damping_m4):
            assert sealed.c > model(geom, gas).c

    def test_sealed_holes_matches_brute_force(self, dataset, gas):
        # the exact part of the outer sum cancels as R_p -> inf
        geom = dataset["A"].geom
        for R_p in (1e12, 1e15):
            c = cm.damping_border_coupled(geom, gas, R_p).c
            assert c == pytest.approx(oracles.border_series(geom, gas, R_p), rel=1e-9, abs=0)

    def test_matches_brute_force(self, dataset, gas):
        for rec in dataset.values():
            for cell in (cm.cell_resistance_circular, cm.cell_resistance_square):
                R_p = cell(rec.geom, gas).R_p
                res = cm.damping_border_coupled(rec.geom, gas, R_p)
                assert res.series_terms == cm.BORDER_TERMS
                assert res.c == pytest.approx(oracles.border_series(rec.geom, gas, R_p),
                                              rel=1e-9, abs=0)

    def test_rejects_nonpositive_resistance(self, dataset, gas):
        with pytest.raises(cm.ModelDomainError):
            cm.damping_border_coupled(dataset["A"].geom, gas, R_p=0.0)

    def test_rejects_nan_resistance(self, dataset, gas):
        with pytest.raises(cm.ModelDomainError):
            cm.damping_border_coupled(dataset["A"].geom, gas, R_p=math.nan)

    def test_partial_sums_monotone(self, dataset, gas):
        # all terms are positive, so every partial sum lies below the series
        geom = dataset["A"].geom
        R_p = cm.cell_resistance_circular(geom, gas).R_p
        sums = [oracles.border_partial_sum(geom, gas, R_p, cap) for cap in (41, 81, 161)]
        assert sums == sorted(sums)
        assert sums[-1] < cm.damping_border_coupled(geom, gas, R_p).c


class TestM3M4:
    def test_m3_type_a(self, dataset, gas):
        _assert_delta(cm.damping_m3, dataset["A"], gas, -33.51)

    def test_m3_type_d(self, dataset, gas):
        _assert_delta(cm.damping_m3, dataset["D"], gas, -12.46)

    def test_m4_type_a(self, dataset, gas):
        _assert_delta(cm.damping_m4, dataset["A"], gas, -33.27)

    def test_m4_type_b(self, dataset, gas):
        _assert_delta(cm.damping_m4, dataset["B"], gas, -21.96)

    def test_length_width_symmetry(self, dataset, gas):
        for rec in dataset.values():
            geom = rec.geom
            swapped = dataclasses.replace(geom, L=geom.W, W=geom.L, M=geom.N, N=geom.M)
            for model in (cm.damping_m3, cm.damping_m4):
                assert model(swapped, gas).c == model(geom, gas).c
            assert cm.damping_border_coupled(swapped, gas, 1e12).c \
                == cm.damping_border_coupled(geom, gas, 1e12).c

    def test_m3_m4_agreement(self, dataset, gas):
        for rec in dataset.values():
            d3 = relative_error(cm.damping_m3(rec.geom, gas).c, rec.c_m)
            d4 = relative_error(cm.damping_m4(rec.geom, gas).c, rec.c_m)
            assert abs(d3 - d4) <= 3.5


class TestCellOnlyModels:
    def test_m5_type_c(self, dataset, gas):
        _assert_delta(cm.damping_m5, dataset["C"], gas, 7.38)

    def test_m6_type_a(self, dataset, gas):
        _assert_delta(cm.damping_m6, dataset["A"], gas, -16.92)

    def test_quadratic_in_hole_count(self, dataset, gas):
        geom = dataset["A"].geom
        doubled = dataclasses.replace(geom, L=2 * geom.L, W=2 * geom.W,
                                      M=2 * geom.M, N=2 * geom.N)
        for model in (cm.damping_m5, cm.damping_m6):
            assert model(doubled, gas).c == 4 * model(geom, gas).c

    def test_border_flow_only_reduces_damping(self, dataset, gas):
        for rec in dataset.values():
            assert cm.damping_m3(rec.geom, gas).c <= cm.damping_m5(rec.geom, gas).c
            assert cm.damping_m4(rec.geom, gas).c <= cm.damping_m6(rec.geom, gas).c


class TestBeamDamping:
    BEAMS = BeamGeometry(L_b=122e-6, W_b=4e-6, count=4)

    def test_reference_beams(self, gas):
        # as-printed evaluation; the source quotes 0.16e-6, which the formula
        # only gives without its slip divisor
        assert cm.beam_damping(self.BEAMS, 1.6e-6, gas) == pytest.approx(1.328e-7, rel=1e-3)

    def test_continuum(self):
        gas = GasProperties(lam=1e-300)
        assert cm.beam_damping(self.BEAMS, 1.6e-6, gas) == pytest.approx(1.652e-7, rel=1e-3)

    def test_no_beams(self, gas):
        assert cm.beam_damping(BeamGeometry(L_b=0.0, W_b=4e-6), 1.6e-6, gas) == 0.0

    def test_count_scales_linearly(self, gas):
        two = BeamGeometry(L_b=122e-6, W_b=4e-6, count=2)
        assert cm.beam_damping(self.BEAMS, 1.6e-6, gas) \
            == pytest.approx(2 * cm.beam_damping(two, 1.6e-6, gas), rel=1e-12)


class TestGlobalProperties:
    def test_positivity_all_devices_all_models(self, dataset, gas):
        for rec in dataset.values():
            for model in cm.MODELS.values():
                assert model(rec.geom, gas).c > 0

    def test_damping_decreases_with_hole_size(self, dataset, gas):
        # A -> B -> C -> D have growing holes at similar pitch
        for model in cm.MODELS.values():
            cs = [model(dataset[d].geom, gas).c for d in "ABCD"]
            assert cs == sorted(cs, reverse=True)

    def test_rarefaction_reduces_damping(self, dataset):
        geom = dataset["A"].geom
        for model in (cm.damping_m3, cm.damping_m4, cm.damping_m5, cm.damping_m6):
            cs = [model(geom, GasProperties(lam=lam)).c
                  for lam in (1e-300, 65e-9, 130e-9)]
            assert cs[0] > cs[1] > cs[2]

    def test_nan_gap_raises_domain_error(self, dataset, gas):
        geom = dataclasses.replace(dataset["A"].geom, h=math.nan)
        for model in (cm.damping_m1, cm.damping_m2, cm.damping_m3, cm.damping_m4):
            with pytest.raises(cm.ModelDomainError):
                model(geom, gas)
