import math

import pytest

from perfdamp.flow_regime import (
    GasProperties,
    knudsen,
    regime_report,
    reynolds_number,
    squeeze_number,
)

OMEGA_200K = 2 * math.pi * 200e3


class TestKnudsen:
    def test_air_gap(self):
        assert knudsen(65e-9, 1.6e-6) == pytest.approx(0.0406, abs=1e-4)

    def test_hole(self):
        assert knudsen(65e-9, 5e-6) == pytest.approx(0.013, abs=1e-4)

    def test_continuum_limit(self):
        assert knudsen(0.0, 1.6e-6) == 0.0

    def test_bad_length(self):
        with pytest.raises(ValueError):
            knudsen(65e-9, 0.0)


class TestSqueezeNumber:
    def test_type_a_plate_per_omega(self, gas):
        sigma = squeeze_number(gas.mu, 66.4e-6, 1.0, gas.P_A, 1.6e-6)
        assert sigma == pytest.approx(3.8e-6, rel=0.02)

    def test_type_a_plate_at_200khz(self, gas):
        sigma = squeeze_number(gas.mu, 66.4e-6, OMEGA_200K, gas.P_A, 1.6e-6)
        assert sigma == pytest.approx(4.8, abs=0.1)

    def test_type_a_cell_at_200khz(self, gas):
        sigma = squeeze_number(gas.mu, 5.2e-6, OMEGA_200K, gas.P_A, 1.6e-6)
        assert sigma == pytest.approx(0.03, abs=0.005)


class TestReynoldsNumber:
    def test_per_omega(self, gas):
        assert reynolds_number(gas.rho, 4e-6, 1.0, gas.mu) == pytest.approx(0.998e-6, rel=0.01)

    def test_at_200khz(self, gas):
        assert reynolds_number(gas.rho, 4e-6, OMEGA_200K, gas.mu) == pytest.approx(1.255, abs=0.01)

    def test_static(self, gas):
        assert reynolds_number(gas.rho, 4e-6, 0.0, gas.mu) == 0.0


BAD = [("nan", math.nan), ("inf", math.inf), ("-inf", -math.inf), ("negative", -1.0)]


class TestArgumentChecks:
    """knudsen, squeeze_number and reynolds_number refuse NaN, infinite and
    negative arguments, and zero where the argument divides, naming it."""

    CASES = {
        knudsen: {"lam": 65e-9, "char_length": 1.6e-6},
        squeeze_number: {"mu": 18.5e-6, "W_char": 66.4e-6, "omega": OMEGA_200K,
                         "P_A": 101e3, "h": 1.6e-6},
        reynolds_number: {"rho": 1.155, "r": 4e-6, "omega": OMEGA_200K, "mu": 18.5e-6},
    }
    DIVISORS = {knudsen: ("char_length",), squeeze_number: ("P_A", "h"),
                reynolds_number: ("mu",)}

    @pytest.mark.parametrize("fn, name", [(fn, name) for fn, args in CASES.items()
                                          for name in args],
                             ids=lambda v: getattr(v, "__name__", v))
    @pytest.mark.parametrize("label, bad", BAD, ids=[label for label, _ in BAD])
    def test_bad_value_names_argument(self, fn, name, label, bad):
        args = {**self.CASES[fn], name: bad}
        with pytest.raises(ValueError, match=f"^{name} must be"):
            fn(**args)

    @pytest.mark.parametrize("fn, name", [(fn, name) for fn, names in DIVISORS.items()
                                          for name in names],
                             ids=lambda v: getattr(v, "__name__", v))
    def test_zero_divisor_names_argument(self, fn, name):
        with pytest.raises(ValueError, match=f"^{name} must be positive and finite"):
            fn(**{**self.CASES[fn], name: 0.0})

    @pytest.mark.parametrize("fn, name", [
        (knudsen, "lam"), (squeeze_number, "mu"), (squeeze_number, "W_char"),
        (squeeze_number, "omega"), (reynolds_number, "rho"), (reynolds_number, "r"),
        (reynolds_number, "omega"),
    ], ids=lambda v: getattr(v, "__name__", v))
    def test_zero_numerator_gives_zero(self, fn, name):
        assert fn(**{**self.CASES[fn], name: 0.0}) == 0.0


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
        with pytest.raises(ValueError, match="frequency"):
            regime_report(dataset["A"].geom, gas, f)
