import dataclasses
import math

import pytest

from perfdamp.checks import ModelDomainError
from perfdamp.flow_regime import GasProperties, regime_report
from perfdamp.geometry import PlateGeometry

OMEGA_200K = 2 * math.pi * 200e3
PER_OMEGA = 1 / (2 * math.pi)  # the drive frequency at which omega = 1 rad/s

# Type A plate: h = 1.6 um, s0 = 5 um, s1 = 5.2 um, min(L, W) = 66.4 um
TYPE_A = dict(L=372.4e-6, W=66.4e-6, M=36, N=6, s0=5.0e-6, s1=5.2e-6, h=1.6e-6, h_c=15e-6)
PLATE_A = PlateGeometry(**TYPE_A)
# a plate with s0 = 8 um, so the channel Reynolds number uses r = 4 um
PLATE_R4 = dataclasses.replace(PLATE_A, s0=8e-6, M=28, N=5)


class TestKnudsen:
    def test_air_gap(self, gas):
        assert regime_report(PLATE_A, gas, 200e3).K_ch == pytest.approx(0.0406, abs=1e-4)

    def test_hole(self, gas):
        assert regime_report(PLATE_A, gas, 200e3).K_hole == pytest.approx(0.013, abs=1e-4)

    def test_continuum_limit(self):
        rep = regime_report(PLATE_A, GasProperties(lam=1e-300), 200e3)
        assert rep.K_ch == 1e-300 / 1.6e-6
        assert 0 < rep.rarefaction_gap_pct < 1e-290
        assert 0 < rep.rarefaction_hole_pct < 1e-290

    def test_bad_length(self):
        with pytest.raises(ValueError, match="^h must be"):
            PlateGeometry(**{**TYPE_A, "h": 0.0})


class TestSqueezeNumber:
    def test_type_a_plate_per_omega(self, gas):
        sigma = regime_report(PLATE_A, gas, PER_OMEGA).sigma_plate
        assert sigma == pytest.approx(3.8e-6, rel=0.02)

    def test_type_a_plate_at_200khz(self, gas):
        sigma = regime_report(PLATE_A, gas, 200e3).sigma_plate
        assert sigma == pytest.approx(4.8, abs=0.1)

    def test_type_a_cell_at_200khz(self, gas):
        sigma = regime_report(PLATE_A, gas, 200e3).sigma_cell
        assert sigma == pytest.approx(0.03, abs=0.005)


class TestReynoldsNumber:
    def test_per_omega(self, gas):
        assert regime_report(PLATE_R4, gas, PER_OMEGA).Re == pytest.approx(0.998e-6, rel=0.01)

    def test_at_200khz(self, gas):
        assert regime_report(PLATE_R4, gas, 200e3).Re == pytest.approx(1.255, abs=0.01)


BAD = [("nan", math.nan), ("inf", math.inf), ("-inf", -math.inf), ("negative", -1.0)]


def _report_with(entry, value):
    """regime_report of the type A plate at 200 kHz with one input replaced."""
    where, name = entry
    plate = {**TYPE_A, name: value} if where == "plate" else TYPE_A
    gas = {name: value} if where == "gas" else {}
    f = value if where == "f" else 200e3
    return regime_report(PlateGeometry(**plate), GasProperties(**gas), f)


class TestArgumentChecks:
    """Each argument of Kn, sigma and Re enters regime_report through the gas,
    the plate or the frequency, which refuse a NaN, infinite, negative or
    zero value and name the input it entered as."""

    # number -> its argument -> (where it enters, the name refused there)
    CASES = {
        "knudsen": {"lam": ("gas", "lam"), "char_length": ("plate", "h")},
        "squeeze_number": {"mu": ("gas", "mu"), "W_char": ("plate", "W"),
                           "omega": ("f", "frequency"), "P_A": ("gas", "P_A"),
                           "h": ("plate", "h")},
        "reynolds_number": {"rho": ("gas", "rho"), "r": ("plate", "s0"),
                            "omega": ("f", "frequency"), "mu": ("gas", "mu")},
    }
    DIVISORS = {"knudsen": ("char_length",), "squeeze_number": ("P_A", "h"),
                "reynolds_number": ("mu",)}

    @pytest.mark.parametrize("fn, name", [(fn, name) for fn, args in CASES.items()
                                          for name in args])
    @pytest.mark.parametrize("label, bad", BAD, ids=[label for label, _ in BAD])
    def test_bad_value_names_argument(self, fn, name, label, bad):
        entry = self.CASES[fn][name]
        with pytest.raises(ValueError, match=f"^{entry[1]} must be"):
            _report_with(entry, bad)

    @pytest.mark.parametrize("fn, name", [(fn, name) for fn, names in DIVISORS.items()
                                          for name in names])
    def test_zero_divisor_names_argument(self, fn, name):
        entry = self.CASES[fn][name]
        with pytest.raises(ValueError, match=f"^{entry[1]} must be"):
            _report_with(entry, 0.0)


class TestGasProperties:
    def test_defaults_are_standard_air(self, gas):
        assert gas.P_A == 101e3
        assert gas.rho == 1.155
        assert gas.mu == 18.5e-6
        assert gas.lam == 65e-9

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            GasProperties(P_A=0.0)


class TestRegimeReport:
    def test_type_a_at_200khz(self, dataset, gas):
        rep = regime_report(dataset["A"].geom, gas, 200e3)
        assert rep.K_ch == pytest.approx(0.0406, abs=1e-4)
        assert rep.K_hole == pytest.approx(0.013, abs=1e-4)
        assert rep.sigma_plate == pytest.approx(4.76, abs=0.05)
        assert rep.sigma_cell == pytest.approx(0.029, abs=0.001)
        assert not rep.compressible
        assert not rep.inertial
        assert rep.rarefaction_gap_pct == pytest.approx(24.375, abs=0.01)
        assert rep.rarefaction_hole_pct == pytest.approx(9.84, abs=0.01)

    def test_type_d_reynolds_exact_half_side(self, dataset, gas):
        rep = regime_report(dataset["D"].geom, gas, 200e3)
        assert rep.Re == pytest.approx(1.224, abs=0.001)

    def test_quasi_static_limit(self, dataset, gas):
        rep = regime_report(dataset["A"].geom, gas, 1e-6)
        assert rep.sigma_plate < 1e-9
        assert rep.Re < 1e-9
        assert not rep.compressible
        assert not rep.inertial

    def test_all_devices_viscous_at_resonance(self, dataset, gas):
        for rec in dataset.values():
            rep = regime_report(rec.geom, gas, rec.f0)
            assert not rep.compressible
            assert not rep.inertial

    @pytest.mark.parametrize("f", [math.nan, math.inf, -math.inf, 0.0, -1.0],
                             ids=["nan", "inf", "-inf", "zero", "negative"])
    def test_refuses_frequency_outside_positive_finite(self, dataset, gas, f):
        with pytest.raises(ValueError, match="^frequency must be positive and finite$"):
            regime_report(dataset["A"].geom, gas, f)

    @pytest.mark.parametrize("side, kind", [(None, "division by zero"), (1e160, "overflow")],
                             ids=["zero-divisor", "short-squared-inf"])
    def test_refuses_out_of_range_arithmetic(self, dataset, side, kind):
        # P_A*h^2 underflows to 0 and divides; where short^2 is inf as well,
        # the overflow came first and names the refusal
        geom = dataset["A"].geom
        if side is not None:
            geom = dataclasses.replace(geom, L=side, W=side)
            assert geom.derived.short_sq == math.inf
        with pytest.raises(ModelDomainError,
                           match=rf"^regime report is out of floating-point range \({kind}\)$"):
            regime_report(geom, GasProperties(P_A=5e-324), 200e3)

    def test_refuses_nan_squeeze_number(self):
        # with a 1e100 m gap, P_A*h^2 and omega are both inf, so sigma_plate
        # would come out as inf/inf = NaN (test_config_cli pins short^2 overflowing)
        geom = dataclasses.replace(PLATE_A, h=1e100)
        with pytest.raises(ModelDomainError,
                           match=r"^regime report is out of floating-point range \(overflow\)$"):
            regime_report(geom, GasProperties(P_A=1e308), 1e308)
