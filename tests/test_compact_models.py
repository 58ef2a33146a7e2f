import csv
import dataclasses
import math
import re
import types
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from perfdamp import compact_models as cm
from perfdamp.comparison import builtin_dataset, relative_error
from perfdamp.flow_regime import GasProperties, regime_report
from perfdamp.geometry import BeamGeometry, PlateGeometry

import oracles
from test_models_golden import design_points

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
        (20e-6, 200e-6, 20, 2, 5e-6, 1.6e-6),  # L/W = 10
    ], ids=["al17", "al68", "long"])
    def test_outside_reference_devices(self, gas, W, L, M, N, s0, h):
        geom = PlateGeometry(L=L, W=W, M=M, N=N, s0=s0, s1=10e-6 - s0, h=h, h_c=15e-6)
        c = cm.damping_m2(geom, gas).c
        assert c == pytest.approx(oracles.m2_damping(geom, gas), rel=1e-9, abs=0)

    @pytest.mark.parametrize("W, L, M, N, s0, h", [
        (200e-6, 20e-6, 2, 20, 5e-6, 1.6e-6),  # W/L = 10
        (100e-3, 100e-6, 10, 10_000, 5e-6, 1.6e-6),  # W/L = 1e3
        (2.0, 20e-6, 1, 1, 5e-6, 1.6e-6),  # W/L = 1e5
    ], ids=["wide10", "wide1e3", "wide1e5"])
    def test_wider_than_long_evaluated_with_l_at_least_w(self, gas, W, L, M, N, s0, h):
        # the formula is symmetric in W <-> L only approximately; a plate
        # wider than long is evaluated as its L >= W copy, whose series is short
        geom = PlateGeometry(L=L, W=W, M=M, N=N, s0=s0, s1=10e-6 - s0, h=h, h_c=15e-6)
        long_axis = dataclasses.replace(geom, L=W, W=L, M=N, N=M)
        res = cm.damping_m2(geom, gas)
        assert res == cm.damping_m2(long_axis, gas)
        assert res.series_terms <= 6
        assert res.c == pytest.approx(oracles.m2_damping(long_axis, gas), rel=1e-9, abs=0)

    def test_series_overflow_refuses_m2_not_the_plate(self, gas):
        # a 1e60 m gap puts al near 8e97, where t_n^2 of M2's series overflows:
        # the plate builds, keeps M2's refusal, and the other models evaluate
        geom = PlateGeometry(L=372.4e-6, W=66.4e-6, M=36, N=6, s0=5.0e-6, s1=5.2e-6,
                             h=1e60, h_c=15e-6)
        assert geom.derived.m2_refusal == "M2 is out of floating-point range (overflow)"
        for _ in range(2):  # the kept refusal is raised afresh on every call
            with pytest.raises(cm.ModelDomainError,
                               match=r"^M2 is out of floating-point range \(overflow\)$"):
                cm.damping_m2(geom, gas)
        for name in ("m1", "m3", "m4", "m5", "m6"):
            c = cm.MODELS[name](geom, gas).c
            assert math.isfinite(c) and c > 0

    @pytest.mark.parametrize("al", [0.03, 1.99, 2.0, 2.01, 68.0, 1e3, 1e5])
    def test_shape_bracket_both_branches(self, al):
        # (pi^2/8) * bracket = sum_{n odd} 1/(n^2 t_n^2); its closed form
        # cancels to O(al^-4) for large al, where a Taylor branch takes over
        n = range(199_999, 0, -2)
        direct = math.fsum(1 / (k**2 * (1 + (k * math.pi * al / 2) ** 2) ** 2) for k in n)
        shape = cm._leak_brackets(al)[1]
        assert math.pi**2 / 8 * shape == pytest.approx(direct, rel=1e-10, abs=0)


# Largest relative error of M1 and M2 against m1_truth/m2_truth (40 digits) on
# A-F and the 300 design points: both read 4.0e-15, at design point 116 (D), and
# at most 1.0e-15 on A-F; the bound adds half of that worst case as margin.
CONTINUUM_TRUTH_BOUND = 6e-15
_DEVICES = {rec.id: rec.geom for rec in builtin_dataset()}


class TestContinuumGasStage:
    """M1 and M2 read the gas only through mu, as mu times their c/mu."""

    @pytest.mark.parametrize("model, truth", [(cm.damping_m1, oracles.m1_truth),
                                              (cm.damping_m2, oracles.m2_truth)],
                             ids=["m1", "m2"])
    def test_matches_truth(self, gas, model, truth):
        mp = pytest.importorskip("mpmath")
        points = [(dev, geom, gas) for dev, geom in _DEVICES.items()] + list(design_points())
        assert len(points) == 306
        misses = []
        for dev, geom, gs in points:
            err = abs(mp.mpf(model(geom, gs).c) / truth(geom, gs) - 1)
            if err > CONTINUUM_TRUTH_BOUND:
                misses.append((dev, float(err)))
        assert misses == []

    @pytest.mark.parametrize("model", [cm.damping_m1, cm.damping_m2], ids=["m1", "m2"])
    def test_gas_with_only_mu(self, gas, model):
        # a stand-in gas with no field but mu gives the same record
        points = [(geom, gas) for geom in _DEVICES.values()]
        points += [(geom, gs) for _, geom, gs in design_points()]
        for geom, gs in points:
            assert model(geom, types.SimpleNamespace(mu=gs.mu)) == model(geom, gs)

    @settings(max_examples=200, deadline=None)
    @given(dev=st.sampled_from(sorted(_DEVICES)), k=st.integers(min_value=-900, max_value=900),
           name=st.sampled_from(["m1", "m2"]))
    def test_c_scales_exactly_with_mu(self, dev, k, name):
        # c = mu*(c/mu), one rounding, so a power of two in mu carries through
        # exactly while c stays a normal float
        geom, model, mu = _DEVICES[dev], cm.MODELS[name], GasProperties().mu
        c = model(geom, types.SimpleNamespace(mu=mu)).c
        scaled = model(geom, types.SimpleNamespace(mu=math.ldexp(mu, k)))
        assert scaled.c == math.ldexp(c, k)
        assert scaled.series_terms == model(geom, GasProperties()).series_terms


class TestEdgeLeakBracket:
    """The two outputs of _leak_brackets: 1 - t*tanh(1/t), which M1 and M2
    share (and the border series' exact part, by its own branches), and M2's
    shape bracket, which derive_geometry takes from the same tanh or Taylor pass."""

    # each output, its truth, and its bound up to and above _LEAK_SWITCH: the
    # direct forms cancel as t grows, and the Taylor forms take over above it.
    # The truth cancels too, to O(t^-4) at most, so it keeps 48 digits up to t = 1e8
    @pytest.mark.parametrize("output,truth,below,above", [
        (0, lambda mp, t: 1 - t * mp.tanh(1 / t), 4e-15, 1e-15),
        (1, lambda mp, t: 1 - 1.5 * t * mp.tanh(1 / t) + 0.5 * mp.sech(1 / t) ** 2, 7e-14, 3e-15),
    ], ids=["edge-leak", "shape"])
    def test_matches_truth(self, output, truth, below, above):
        mp = pytest.importorskip("mpmath")
        misses = []
        for k in range(-200, 801):
            t = 10 ** (k / 100)
            with mp.workdps(80):
                err = abs(cm._leak_brackets(t)[output] / truth(mp, mp.mpf(t)) - 1)
            if err > (below if t <= cm._LEAK_SWITCH else above):
                misses.append((t, float(err)))
        assert misses == []

    def test_taylor_coefficients_are_those_of_tanh(self):
        mp = pytest.importorskip("mpmath")
        with mp.workdps(40):
            tanh = mp.taylor(mp.tanh, 0, 2 * len(cm._LEAK_TAYLOR) + 1)
        assert cm._LEAK_TAYLOR[::-1] == tuple(float(-tanh[2 * k + 3])
                                             for k in range(len(cm._LEAK_TAYLOR)))


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
        for component in br[:6]:
            assert math.isfinite(component) and component >= 0
        assert br.R_p > 0

    def test_components_sum_to_total(self, dataset, gas):
        br = cm.cell_resistance_circular(dataset["A"].geom, gas)
        assert sum(br[:6]) == br.R_p


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

    def test_components_sum_to_total(self, dataset, gas):
        br = cm.cell_resistance_square(dataset["A"].geom, gas)
        assert sum(br[:6]) == br.R_p

    def test_hole_components_are_referred_to_the_cell(self, dataset, gas):
        # R_IC = 28.454*mu*s0*0.302 before the (s_X/s0)^4 factor
        geom = dataset["A"].geom
        br = cm.cell_resistance_square(geom, gas)
        unscaled = br.R_IC / geom.derived.square.scale
        assert unscaled == pytest.approx(28.454 * gas.mu * geom.s0 * 0.302, rel=1e-15, abs=0)

    def test_outlet_elongation_vanishes_as_hole_fills_cell(self, gas):
        # delta_E carries a (1 - xi^4) factor; R_E -> 0 as s1 -> 0
        from perfdamp.geometry import PlateGeometry
        base = PlateGeometry(L=100e-6, W=100e-6, M=9, N=9, s0=10e-6, s1=1e-6,
                             h=1.6e-6, h_c=15e-6)
        shrunk = dataclasses.replace(base, s1=1e-9)
        assert cm.cell_resistance_square(shrunk, gas).R_E \
            < 0.01 * cm.cell_resistance_square(base, gas).R_E


# Largest relative error of a cell component against the 40-digit formulas,
# R_S included: its bracket ln(r_X/r_0)/2 - 3/8 + rr^2/2 - rr^4/8 cancels where rr
# nears 1 (square cell, design point 49, D: rr = 0.869), and _annulus_bracket
# takes a series there.
CELL_TRUTH_BOUND = 2e-14


@pytest.mark.parametrize("shape, cell", [("circular", cm.cell_resistance_circular),
                                         ("square", cm.cell_resistance_square)])
def test_cell_resistance_matches_truth(dataset, gas, shape, cell):
    mp = pytest.importorskip("mpmath")
    points = [(rec.id, rec.geom, gas) for rec in dataset.values()] + list(design_points())
    assert len(points) == 306
    misses = []
    for dev, geom, gs in points:
        br = cell(geom, gs)
        for name, got, want in zip(br._fields, br, oracles.cell_resistance_truth(geom, gs, shape)):
            err = abs(mp.mpf(got) / want - 1) if want else abs(got)
            if err > CELL_TRUTH_BOUND:
                misses.append((dev, name, float(err)))
    assert misses == []


def _truth_rows():
    with oracles.BORDER_TRUTH.open(newline="", encoding="utf-8") as f:
        return list(csv.DictReader(f))


def _truth_inputs(row):
    geom = PlateGeometry(float(row["L"]), float(row["W"]), int(row["M"]), int(row["N"]),
                         *(float(row[k]) for k in ("s0", "s1", "h", "h_c")))
    return geom, GasProperties(lam=float(row["lam"]), mu=float(row["mu"])), float(row["R_p"])


# R_p = 10^k with a finite, positive border series on each device, in air
BORDER_RANGE = {"A": (-211, 308), "B": (-211, 308), "C": (-211, 308), "D": (-211, 308),
                "E": (-210, 308), "F": (-210, 308)}


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

    def test_matches_truth(self):
        # tests/golden/border_truth.csv: 40-digit sums, from tests/oracles.py. The
        # bracket rows put the exact part's bracket argument t = 2/(pi*d) at about
        # 10 ... 300, where its direct form used to cancel (they needed 6e-12); the
        # range rows reach R_p = 1e308, where d^2 underflows.
        rows = _truth_rows()
        assert len(rows) == 310
        bounds = {dev: 1e-12 for dev in "ABCDEF"}
        misses = []
        for row in rows:
            c = cm.damping_border_coupled(*_truth_inputs(row)).c
            err = abs(float(Fraction(c) / Fraction(row["c"]) - 1))
            if err > bounds.get(row["case"].split(".")[0], 3e-12):
                misses.append((row["case"], err))
        assert misses == []

    def test_truth_file_is_the_oracle(self):
        mp = pytest.importorskip("mpmath")
        rows = {row["case"]: row for row in _truth_rows()}
        for case in ("A.m3", "square.C.1e0", "long.1000.1e6", "range.F.1e-200",
                     "range.B.1e300"):
            row = rows[case]
            truth = oracles.border_truth(*_truth_inputs(row))
            with mp.workdps(40):
                assert abs(truth / mp.mpf(row["c"]) - 1) < 1e-23, case

    def test_finite_on_known_range(self, dataset, gas):
        # a tail that formed powers of d^2 would overflow at a larger R_p (a small
        # R_p is a large d^2) and raise the lower ends; the sealed-hole form of the
        # exact part holds no r, so the upper ends are the float maximum (the range
        # rows of the truth file check 1e305 and 1e308)
        for dev, (lo, hi) in BORDER_RANGE.items():
            finite = []
            for k in range(-330, 330):
                try:
                    c = cm.damping_border_coupled(dataset[dev].geom, gas, float(f"1e{k}")).c
                except cm.ModelDomainError:
                    continue
                assert 0 < c < math.inf
                finite.append(k)
            assert finite == list(range(lo, hi + 1)), dev

    def test_tanh_skip_agrees_with_tanh_loop(self, monkeypatch, dataset, gas):
        # math.tanh is exactly 1.0 from 19.0616 on, so skipping it once the smallest
        # argument k*sqrt(1 + d^2) reaches _TANH_ONE changes no bit. On a square
        # plate (k = pi/2) the R_p below put that argument at 19.1*(1 + j/1000).
        assert cm._TANH_ONE == 19.1 and math.tanh(19.1) == 1.0 and math.tanh(19.0) < 1.0
        geom = dataclasses.replace(dataset["A"].geom, W=dataset["A"].geom.L,
                                   N=dataset["A"].geom.M)
        K_ch = gas.lam / geom.h
        a = geom.L + 1.3 * (1 + 3.3 * K_ch) * geom.h
        g = math.pi**6 * geom.h**3 * (1 + 6 * K_ch) / (768 * gas.mu * a * a)
        args = [19.1 * (1 + j / 1000) for j in range(-20, 21)]
        R_ps = [math.pi**4 * a**2 / (64 * geom.M * geom.N * g * ((2 * x / math.pi) ** 2 - 1))
                for x in args]
        skipped = [cm.damping_border_coupled(geom, gas, R_p).c for R_p in R_ps]
        monkeypatch.setattr(cm, "_TANH_ONE", math.inf)
        looped = [cm.damping_border_coupled(geom, gas, R_p).c for R_p in R_ps]
        assert skipped == looped
        assert min(args) < 19.1 < max(args)

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
        # the plate's short and long sides are ordered once, by derive_geometry,
        # so the plate with L <-> W and M <-> N exchanged is the same plate
        for rec in dataset.values():
            geom = rec.geom
            swapped = dataclasses.replace(geom, L=geom.W, W=geom.L, M=geom.N, N=geom.M)
            for name, model in cm.MODELS.items():
                assert model(swapped, gas) == model(geom, gas), name
            assert regime_report(swapped, gas, 200e3) == regime_report(geom, gas, 200e3)
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


CELL_MODELS = [("m3", "cell_resistance_circular"), ("m4", "cell_resistance_square"),
               ("m5", "cell_resistance_circular"), ("m6", "cell_resistance_square")]


class TestCellModelErrors:
    """M3-M6 look their cell function up in the module at call time, so a
    patched one is what they run."""

    @pytest.mark.parametrize("model, cell", CELL_MODELS)
    def test_cell_overflow_names_model(self, monkeypatch, dataset, gas, model, cell):
        def overflow(geom, gas):
            raise OverflowError("math range error")

        monkeypatch.setattr(cm, cell, overflow)
        with pytest.raises(cm.ModelDomainError, match=f"^{model.upper()} is out of "
                           "floating-point range"):
            cm.MODELS[model](dataset["A"].geom, gas)

    @pytest.mark.parametrize("model, cell", CELL_MODELS[:2])
    @pytest.mark.parametrize("R_p, message", [
        (0.0, "cell resistance must be positive and finite"),
        (math.nan, "cell resistance must be positive and finite"),
        (math.inf, "cell resistance must be positive and finite"),
        (1e-300, "border-coupled series is out of floating-point range (overflow)"),
    ], ids=["zero", "nan", "inf", "tiny"])
    def test_border_refusal_names_model(self, monkeypatch, dataset, gas, model, cell, R_p,
                                        message):
        real = getattr(cm, cell)
        monkeypatch.setattr(cm, cell, lambda geom, gas: real(geom, gas)._replace(R_p=R_p))
        with pytest.raises(cm.ModelDomainError, match=f"^{model.upper()} {re.escape(message)}$"):
            cm.evaluate(dataset["A"].geom, gas, (model,))

    @pytest.mark.parametrize("model, cell", CELL_MODELS[:2])
    def test_sealed_cell_is_not_refused(self, monkeypatch, dataset, gas, model, cell):
        # R_p = 1e305 underflows d^2; M3/M4 give the sealed-hole series
        real = getattr(cm, cell)
        monkeypatch.setattr(cm, cell, lambda geom, gas: real(geom, gas)._replace(R_p=1e305))
        res = cm.MODELS[model](dataset["A"].geom, gas)
        assert res.c == cm.damping_border_coupled(dataset["A"].geom, gas, 1e305).c
        assert res.c == pytest.approx(3.912442932295189e-04, rel=1e-12, abs=0)

    @pytest.mark.parametrize("model, cell", CELL_MODELS[2:])
    @pytest.mark.parametrize("R_p", [1e308, math.inf, math.nan])
    def test_cell_only_non_finite_c(self, monkeypatch, dataset, gas, model, cell, R_p):
        # M*N = 216 on device A, so R_p = 1e308 overflows c = M*N*R_p to inf
        real = getattr(cm, cell)
        monkeypatch.setattr(cm, cell, lambda geom, gas: real(geom, gas)._replace(R_p=R_p))
        with pytest.raises(cm.ModelDomainError):
            cm.MODELS[model](dataset["A"].geom, gas)


class TestEvaluate:
    """`evaluate` runs each named model through its MODELS entry, once, in the
    order given, after checking every name."""

    def test_runs_each_models_entry_once(self, monkeypatch, dataset, gas):
        calls = []
        for name, fn in list(cm.MODELS.items()):
            def recording(geom, gas, name=name, fn=fn):
                calls.append(name)
                return fn(geom, gas)

            monkeypatch.setitem(cm.MODELS, name, recording)
        order = ("m4", "m1", "m6")
        assert tuple(cm.evaluate(dataset["A"].geom, gas, order)) == order
        assert tuple(calls) == order

    def test_equals_model_functions_on_devices(self, dataset, gas):
        for rec in dataset.values():
            res = cm.evaluate(rec.geom, gas)
            assert list(res) == list(cm.MODELS)
            for name, fn in cm.MODELS.items():
                assert res[name] == fn(rec.geom, gas)

    def test_equals_model_functions_on_design_points(self):
        for _, geom, gas in design_points():
            res = cm.evaluate(geom, gas)
            for name, fn in cm.MODELS.items():
                assert res[name] == fn(geom, gas), name

    def test_keeps_the_given_order(self, dataset, gas):
        order = ("m6", "m1", "m4", "m5", "m2", "m3")
        assert tuple(cm.evaluate(dataset["B"].geom, gas, order)) == order
        assert tuple(cm.evaluate(dataset["B"].geom, gas, ("m5",))) == ("m5",)

    @pytest.mark.parametrize("models, message", [
        (("m3", "m9"), "unknown model 'm9'"),
        (("m3", "m5", "m3"), "repeated model 'm3'"),
    ])
    def test_refuses_unknown_or_repeated_name(self, monkeypatch, dataset, gas, models, message):
        # every name is checked before any model runs, so m3 never refuses
        def refuse(geom, gas):
            raise cm.ModelDomainError("M3 refused")

        monkeypatch.setitem(cm.MODELS, "m3", refuse)
        with pytest.raises(ValueError, match=f"^{message}$") as info:
            cm.evaluate(dataset["A"].geom, gas, models)
        assert type(info.value) is ValueError

    def test_refuses_bare_string(self, dataset, gas):
        # a string is a sequence of characters, none of them a model's name
        with pytest.raises(ValueError, match="^models must be a sequence of names, "
                           "not the string 'm3'$"):
            cm.evaluate(dataset["A"].geom, gas, "m3")

    @pytest.mark.parametrize("model, cell", CELL_MODELS)
    def test_patched_cell_names_model(self, monkeypatch, dataset, gas, model, cell):
        def overflow(geom, gas):
            raise OverflowError("math range error")

        monkeypatch.setattr(cm, cell, overflow)
        with pytest.raises(cm.ModelDomainError, match=f"^{model.upper()} is out of "
                           "floating-point range"):
            cm.evaluate(dataset["A"].geom, gas, ("m1", "m2", model))


class TestBeamDamping:
    BEAMS = BeamGeometry(L_b=122e-6, W_b=4e-6, count=4)

    def test_reference_beams(self, gas):
        # as-printed evaluation; the source quotes 0.16e-6, which the formula
        # only gives without its slip divisor
        assert cm.beam_damping(self.BEAMS, 1.6e-6, gas) == pytest.approx(1.328e-7, rel=1e-3, abs=0)

    def test_continuum(self):
        gas = GasProperties(lam=1e-300)
        assert cm.beam_damping(self.BEAMS, 1.6e-6, gas) == pytest.approx(1.652e-7, rel=1e-3, abs=0)

    def test_no_beams(self, gas):
        assert cm.beam_damping(BeamGeometry(L_b=0.0, W_b=4e-6), 1.6e-6, gas) == 0.0

    @pytest.mark.parametrize("h", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_gap_outside_zero_to_inf_refused(self, gas, h):
        with pytest.raises(ValueError, match="^air gap must be"):
            cm.beam_damping(self.BEAMS, h, gas)

    def test_count_scales_linearly(self, gas):
        two = BeamGeometry(L_b=122e-6, W_b=4e-6, count=2)
        assert cm.beam_damping(self.BEAMS, 1.6e-6, gas) \
            == pytest.approx(2 * cm.beam_damping(two, 1.6e-6, gas), rel=1e-12, abs=0)

    # a huge gap overflows (W_b + 1.3h)^3, a tiny one underflows h^3 to 0, and
    # the smallest one also overflows K_ch, so inf*0 would come out as NaN
    @pytest.mark.parametrize("h, kind", [(1e200, "overflow"), (1e-120, "division by zero"),
                                         (5e-324, "overflow")], ids=["huge", "tiny", "smallest"])
    def test_gap_outside_float_range_refused(self, gas, h, kind):
        with pytest.raises(cm.ModelDomainError,
                           match=rf"^beam drag is out of floating-point range \({kind}\)$"):
            cm.beam_damping(self.BEAMS, h, gas)


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

    def test_non_finite_input_rejected_at_construction(self, dataset, gas):
        # the models never see a NaN or infinite geometry or gas; their own
        # guard on a non-finite c is covered by test_rejects_nan_resistance
        geom = dataset["A"].geom
        for bad in (math.nan, math.inf):
            for name in ("L", "W", "s0", "s1", "h", "h_c"):
                with pytest.raises(ValueError, match=f"^{name} must"):
                    dataclasses.replace(geom, **{name: bad})
            for name in ("P_A", "rho", "mu", "lam"):
                with pytest.raises(ValueError, match=f"^{name} must"):
                    dataclasses.replace(gas, **{name: bad})
