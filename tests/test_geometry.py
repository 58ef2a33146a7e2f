import dataclasses
import math
import sys
import types

import pytest

from perfdamp import compact_models as cm
from perfdamp import comparison as cmp
from perfdamp.flow_regime import GasProperties, regime_report
from perfdamp.geometry import BeamGeometry, PlateGeometry, derive_geometry


def _plate(**kw):
    base = dict(L=372.4e-6, W=66.4e-6, M=36, N=6, s0=5.0e-6, s1=5.2e-6,
                h=1.6e-6, h_c=15e-6)
    base.update(kw)
    return PlateGeometry(**base)


class TestConstruction:
    def test_zero_wall_rejected(self):
        with pytest.raises(ValueError):
            _plate(s0=1.0, s1=0.0, L=100.0, W=100.0, M=1, N=1)

    def test_vanishing_wall_names_s1(self):
        # s1 > 0, but s0/(s0 + s1) rounds to 1
        with pytest.raises(ValueError, match="^s1 "):
            _plate(L=1e-4, W=1e-4, M=1, N=1, s0=5e-6, s1=1e-22, h=1e-6, h_c=1e-5)

    @pytest.mark.parametrize("field", ["L", "W", "s0", "s1", "h", "h_c"])
    def test_nonpositive_length_rejected(self, field):
        with pytest.raises(ValueError, match=field):
            _plate(**{field: -1e-6})

    @pytest.mark.parametrize("field", ["M", "N"])
    def test_hole_count_at_least_one(self, field):
        with pytest.raises(ValueError, match="^hole counts M, N must be >= 1$"):
            _plate(**{field: 0})

    @pytest.mark.parametrize("value", [2.5, 36.0, math.nan, True], ids=["2.5", "36.0", "nan", "true"])
    @pytest.mark.parametrize("field", ["M", "N"])
    def test_hole_count_must_be_an_int(self, field, value):
        message = f"^{field} must be an integer, got {type(value).__name__}$"
        with pytest.raises(ValueError, match=message):
            _plate(**{field: value})

    def test_grid_must_fit_on_plate(self):
        with pytest.raises(ValueError):
            _plate(M=100)

    def test_beam_count_positive(self):
        with pytest.raises(ValueError):
            BeamGeometry(L_b=1e-6, W_b=1e-6, count=0)

    @pytest.mark.parametrize("value", [2.5, 4.0, math.nan, True], ids=["2.5", "4.0", "nan", "true"])
    def test_beam_count_must_be_an_int(self, value):
        with pytest.raises(ValueError, match=f"^count must be an integer, got {type(value).__name__}$"):
            BeamGeometry(L_b=1e-6, W_b=1e-6, count=value)

    @pytest.mark.parametrize("field", ["L_b", "W_b"])
    @pytest.mark.parametrize("value", [-1e-6, math.nan, math.inf])
    def test_beam_dimension_must_be_finite_non_negative(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must"):
            BeamGeometry(**{"L_b": 1e-6, "W_b": 1e-6, field: value})


def _cell(s_X):
    """A one-hole plate of pitch s0 + s1 = s_X (halving is exact)."""
    return _plate(L=s_X, W=s_X, M=1, N=1, s0=s_X / 2, s1=s_X / 2).derived


def _hole(s0, xi):
    """A one-hole plate with hole side s0 and s0/(s0 + s1) = xi."""
    s1 = s0 / xi - s0
    return _plate(L=s0 + s1, W=s0 + s1, M=1, N=1, s0=s0, s1=s1).derived


def _cell_radius(d):
    """The area-matched cell radius r_X of a DerivedGeometry, as r_0/beta."""
    return d.r_0 / d.beta


def _square_hole_radius(d, h):
    """The square cell's effective hole radius r_0E, recovered from the one
    plate-only coefficient that holds it, A_S = 12*pi*r_X^4/h^2 * B(r_0E/r_X)
    with B(rr) = ln(1/rr)/2 - 3/8 + rr^2/2 - rr^4/8, which falls from +inf
    to 0 as rr rises from 0 to 1: bisection on rr."""
    r_X = _cell_radius(d)
    target = d.square.A_S * h**2 / (12 * math.pi * r_X**4)
    lo, hi = 0.0, 1.0
    for _ in range(100):
        rr = (lo + hi) / 2
        if -math.log(rr) / 2 - 3 / 8 + rr**2 / 2 - rr**4 / 8 > target:
            lo = rr
        else:
            hi = rr
    return rr * r_X


class TestCellPitch:
    # the pitch s_X = s0 + s1 reaches the record as the square cell's
    # scale = (s_X/s0)^4
    def test_type_a(self):
        assert _plate().derived.square.scale == pytest.approx((10.2 / 5.0) ** 4, rel=1e-12)

    def test_type_e(self):
        geom = _plate(L=363.8e-6, W=123.8e-6, N=12, s0=6.2e-6, s1=3.8e-6)
        assert geom.derived.square.scale == pytest.approx((10.0 / 6.2) ** 4, rel=1e-12)


class TestEquivalentRadii:
    def test_cell_radius_type_a(self):
        assert _cell_radius(_cell(10.2e-6)) == pytest.approx(5.7548e-6, rel=1e-4)

    def test_cell_radius_type_e(self):
        assert _cell_radius(_cell(10.0e-6)) == pytest.approx(5.6419e-6, rel=1e-4)

    def test_cell_radius_unit_case(self):
        assert _cell_radius(_cell(math.sqrt(math.pi))) == pytest.approx(1.0, rel=1e-14)

    def test_cell_radius_preserves_area(self):
        for s_X in (10.0e-6, 10.2e-6, 3.3e-6, 1.0):
            r_X = _cell_radius(_cell(s_X))
            assert math.pi * r_X**2 == pytest.approx(s_X**2, rel=1e-14)

    def test_hole_radius_type_a(self):
        assert _plate().derived.r_0 == pytest.approx(2.740e-6, rel=1e-4)

    def test_hole_radius_inversion(self):
        assert _hole(2 / 1.096, 0.5).r_0 == pytest.approx(1.0, rel=1e-14)

    def test_hole_radius_type_d(self):
        assert _hole(7.9e-6, 7.9 / 10.2).r_0 == pytest.approx(4.329e-6, rel=1e-3)


class TestEffectiveSquareRadius:
    def test_type_a(self):
        # 0.58076*5.0um / (1 + 0.02108*xi^2 + 0.008*xi^4) at xi = 5.0/10.2
        r_0E = _square_hole_radius(_hole(5.0e-6, 5.0 / 10.2), h=1.6e-6)
        assert r_0E == pytest.approx(2.8879e-6, rel=1e-4)

    def test_type_d(self):
        r_0E = _square_hole_radius(_hole(7.9e-6, 7.9 / 10.2), h=1.6e-6)
        assert r_0E == pytest.approx(4.5179e-6, rel=1e-4)

    def test_vanishing_hole_limit(self):
        r_0E = _square_hole_radius(_hole(5.0e-6, 1e-9), h=1.6e-6)
        assert r_0E == pytest.approx(0.58076 * 5.0e-6, rel=1e-6)

    def test_xi_out_of_range(self):
        # the formula needs 0 < xi < 1: a plate where s0/(s0 + s1) rounds to
        # 1 or to 0 is refused when it is built, naming the field at fault
        with pytest.raises(ValueError, match="^s1 .* rounds to 1"):
            _plate(L=1e-4, W=1e-4, M=1, N=1, s0=5e-6, s1=1e-22)
        with pytest.raises(ValueError, match="^s0 .* rounds to 0"):
            _plate(L=1e300, W=1e300, M=1, N=1, s0=1e-300, s1=1e300)


class TestDerivedGeometry:
    def test_all_devices_in_range(self, dataset):
        for rec in dataset.values():
            d = derive_geometry(rec.geom)
            assert 0 < d.beta < 1  # r_0 < r_X
            assert d.square.A_S > 0  # r_0E < r_X: R_S's annulus bracket is positive

    def test_square_cell_overflow_refuses_the_plate(self, dataset):
        # A times 2^273: r_X^4 is finite, but the square cell's (s_X^2 - s0^2)^2,
        # up to pi^2 times larger, overflows, which refuses the plate rather
        # than building it with an infinite A_IS
        geom = dataset["A"].geom
        assert (math.ldexp(geom.s0 + geom.s1, 273) / math.sqrt(math.pi)) ** 4 < math.inf
        with pytest.raises(ValueError, match=r"^plate dimensions are out of floating-point "
                                             r"range \(overflow\)$"):
            PlateGeometry(**{name: math.ldexp(getattr(geom, name), 273)
                             for name in ("L", "W", "s0", "s1", "h", "h_c")}, M=geom.M, N=geom.N)

    def test_pure_function(self, dataset):
        geom = dataset["A"].geom
        assert derive_geometry(geom) == derive_geometry(geom)

    def test_plate_carries_its_derived_geometry(self, dataset):
        for rec in dataset.values():
            assert rec.geom.derived == derive_geometry(rec.geom)

    def test_replace_recomputes_derived(self, dataset):
        geom = dataset["A"].geom
        wider = dataclasses.replace(geom, s0=1.2 * geom.s0)
        assert wider.derived == derive_geometry(wider)
        assert wider.derived.beta > geom.derived.beta

    @pytest.mark.parametrize("L, W", [(372.4e-6, 66.4e-6), (66.4e-6, 372.4e-6),
                                      (66.4e-6, 66.4e-6)], ids=["long", "wide", "square"])
    def test_short_and_long_sides(self, L, W):
        # the record keeps the short side, and both sides in the products that read them
        d = _plate(L=L, W=W, M=6, N=6).derived
        h_13 = 1.3 * 1.6e-6
        assert (d.short_1_3h, d.long_1_3h, d.short) \
            == (min(L, W) + h_13, max(L, W) + h_13, min(L, W))

    def test_derived_outside_equality_hash_and_repr(self):
        a, b = _plate(), _plate()
        object.__setattr__(b, "derived", derive_geometry(_plate(s0=6.0e-6)))
        assert a.derived != b.derived
        assert a == b
        assert hash(a) == hash(b)
        assert repr(a) == repr(b)
        assert "derived" not in repr(a)

    # each statement's module loads first, then only the modules it imports
    @pytest.mark.parametrize("first, order", [
        pytest.param(first, order, id=first) for first, order in [
            ("import perfdamp.checks", ["checks"]),
            ("import perfdamp.compact_models", ["compact_models", "checks", "flow_regime"]),
            ("import perfdamp.flow_regime", ["flow_regime", "checks"]),
            ("from perfdamp.geometry import PlateGeometry",
             ["geometry", "checks", "compact_models", "flow_regime"]),
        ]])
    def test_each_module_can_be_imported_first(self, first, order):
        # the model modules import one way, geometry -> compact_models ->
        # flow_regime -> checks, each at its top, so any of them can load first.
        # A bare module with the package's __path__ stands in for perfdamp, so
        # that perfdamp/__init__ (which imports geometry first) does not run;
        # the perfdamp modules leave sys.modules while the imports run, so each
        # loads afresh, and a finder records the order in which they start
        loaded = {name: mod for name, mod in sys.modules.items()
                  if name.partition(".")[0] == "perfdamp"}
        started = []

        class Recorder:
            @staticmethod
            def find_spec(name, path=None, target=None):
                if name.startswith("perfdamp."):
                    started.append(name.removeprefix("perfdamp."))
                return None

        package = types.ModuleType("perfdamp")
        package.__path__ = loaded["perfdamp"].__path__
        for name in loaded:
            del sys.modules[name]
        sys.modules["perfdamp"] = package
        sys.meta_path.insert(0, Recorder)
        try:
            scope = {}
            exec(first, scope)
            first_started = list(started)
            exec("from perfdamp.compact_models import damping_m3\n"
                 "from perfdamp.flow_regime import GasProperties\n"
                 "from perfdamp.geometry import PlateGeometry\n", scope)
        finally:
            sys.meta_path.remove(Recorder)
            for name in [n for n in sys.modules if n.partition(".")[0] == "perfdamp"]:
                del sys.modules[name]
            sys.modules.update(loaded)
        assert first_started == order
        assert scope["damping_m3"] is not cm.damping_m3
        geom = scope["PlateGeometry"](L=372.4e-6, W=66.4e-6, M=36, N=6, s0=5.0e-6,
                                      s1=5.2e-6, h=1.6e-6, h_c=15e-6)
        assert scope["damping_m3"](geom, scope["GasProperties"]()).c \
            == cm.damping_m3(_plate(), GasProperties()).c

    def test_m1_m2_gas_stage_does_no_bracket_or_series_work(self, monkeypatch, dataset, gas):
        # M1's and M2's brackets, M2's series and gamma run when a plate is
        # built; with every tanh, exp and both helpers refused, the gas stage
        # of A-F returns the same records
        plates = [rec.geom for rec in dataset.values()]
        before = [(cm.damping_m1(g, gas), cm.damping_m2(g, gas)) for g in plates]

        def refuse(*args):
            raise AssertionError("bracket or series work")

        for mod, name in [(math, "tanh"), (math, "exp"), (cm, "_leak_brackets"),
                          (cm, "_m2_gamma")]:
            monkeypatch.setattr(mod, name, refuse)
        assert [(cm.damping_m1(g, gas), cm.damping_m2(g, gas)) for g in plates] == before
        with pytest.raises(AssertionError, match="bracket or series work"):
            _plate()  # the per-plate stage does that work

    def test_derived_once_per_plate(self, monkeypatch, gas):
        # counts every call, whichever perfdamp module it is reached through
        # (a plate calls compact_models.derive_geometry through geometry's import)
        calls = []

        def counting(geom):
            calls.append(geom)
            return derive_geometry(geom)

        for name, mod in list(sys.modules.items()):
            if (name == "perfdamp" or name.startswith("perfdamp.")) \
                    and getattr(mod, "derive_geometry", None) is derive_geometry:
                monkeypatch.setattr(mod, "derive_geometry", counting)

        geom = _plate()
        assert len(calls) == 1
        for model in cm.MODELS.values():
            model(geom, gas)
        regime_report(geom, gas, 200e3)
        assert len(calls) == 1
        cmp.reproduce_table3(gas)
        cmp.reproduce_table4(gas)
        cmp.reproduce_table5(gas)
        assert len(calls) == 1
