"""Units oracle: every length of a plate, and the gas's mean free path, times
2^k.

Every model is built from powers of lengths, mu and lam/h. So with every
length and lam multiplied by 2^k, each damping coefficient M1-M6 and each
component of both cell breakdowns must be multiplied by exactly 2^k, the
oscillatory Reynolds number by exactly 2^(2k), and the Knudsen numbers, the
squeeze numbers and the rarefaction percentages must not change. A power of
two rounds nothing while every step stays in the normal float range, so the
check needs no oracle and no tolerance, and it catches a wrong power (h^2
for h^3) or a missing length anywhere in a formula. A plate that does not
build, or a model or report that refuses, marks the envelope and is not a
failure; a value that is not exact is one.
"""

import dataclasses
import itertools
import math

import pytest
from test_models_golden import design_points

from perfdamp import compact_models as cm
from perfdamp.checks import ModelDomainError
from perfdamp.flow_regime import RE_THRESHOLD, SIGMA_THRESHOLD, regime_report
from perfdamp.geometry import PlateGeometry

F = 200e3  # drive frequency of every regime report, Hz
# The k at which at least one of A-F builds.
K_BUILDS = range(-251, 274)
# Below k = -237 an intermediate of the per-plate stage goes subnormal and
# loses digits, and 447 (k, device, model) cases miss 2^k*c by up to 17 %
# without a refusal (ROADMAP item 19).
K_SUBNORMAL = range(-251, -237)
_SUBNORMAL = pytest.mark.xfail(
    raises=AssertionError, strict=True,
    reason="ROADMAP item 19: per-plate intermediates go subnormal without a refusal")


# The regime numbers that hold no length: ratios of lengths, or of squares.
_UNCHANGED = ("K_ch", "K_hole", "sigma_plate", "sigma_cell", "rarefaction_gap_pct",
              "rarefaction_hole_pct")


def _scaled(geom, k):
    """geom with every length times 2^k; raises ValueError where it does not build."""
    return PlateGeometry(**{name: math.ldexp(getattr(geom, name), k)
                            for name in ("L", "W", "s0", "s1", "h", "h_c")},
                         M=geom.M, N=geom.N)


def _scaled_gas(gas, k):
    return dataclasses.replace(gas, lam=math.ldexp(gas.lam, k))


def _check_models(label, geom, gas, geom_k, gas_k, k):
    """Each of M1-M6 on geom_k and gas_k, geom and gas scaled by 2^k, refuses
    or gives 2^k times its c and its breakdown on geom and gas."""
    for name, model in cm.MODELS.items():
        base = model(geom, gas)
        try:
            res = model(geom_k, gas_k)
        except ModelDomainError:
            continue
        assert res.c == math.ldexp(base.c, k), (label, name)
        if base.breakdown is not None:
            assert res.breakdown == tuple(math.ldexp(v, k) for v in base.breakdown), \
                (label, name)


def _check_plate(label, geom, gas, k):
    """geom and gas scaled by 2^k, where the plate builds: the models as in
    _check_models, and a regime report that refuses or has Re times 2^(2k) and
    every number without a length unchanged. Returns whether the plate built."""
    try:
        geom_k = _scaled(geom, k)
    except ValueError:
        return False
    gas_k = _scaled_gas(gas, k)
    _check_models(label, geom, gas, geom_k, gas_k, k)
    base = regime_report(geom, gas, F)
    try:
        rep = regime_report(geom_k, gas_k, F)
    except ModelDomainError:
        return True
    assert rep.Re == math.ldexp(base.Re, 2 * k), label
    assert [getattr(rep, name) for name in _UNCHANGED] \
        == [getattr(base, name) for name in _UNCHANGED], label
    assert rep.compressible == (rep.sigma_cell >= SIGMA_THRESHOLD), label
    assert rep.inertial == (rep.Re >= RE_THRESHOLD), label
    return True


@pytest.mark.parametrize("k", [pytest.param(k, marks=_SUBNORMAL) if k in K_SUBNORMAL else k
                               for k in K_BUILDS], ids=lambda k: f"k={k}")
def test_lengths_and_lam_times_2_to_k(k, dataset, gas):
    assert sum(_check_plate(rec.id, rec.geom, gas, k) for rec in dataset.values())


@pytest.fixture(scope="module")
def design():
    return list(design_points())


# Every 7th k inside the envelope, on the 300 design points of test_models_golden.
# A square formed as pow(x, 2) is not exactly covariant under every libm (glibc
# 2.36's pow is not always correctly rounded), and on these plates it showed in
# the square cell's R_IS and in sigma_cell; x*x is correctly rounded everywhere.
@pytest.mark.parametrize("k", range(-200, 200, 7), ids=lambda k: f"k={k}")
def test_design_points_times_2_to_k(k, design):
    assert sum(_check_plate(i, geom, gas, k) for i, (_, geom, gas) in enumerate(design)) \
        == len(design)


@pytest.mark.parametrize("point, k", [(282, 273), (143, 272)])
def test_top_of_envelope(point, k):
    # 16*H_eff*h^3 overflows to inf on these design points times 2^k, where M1's eta
    # would read exactly 1 and M1 come out 4.06 % (282) and 0.32 % (143) low: M1 refuses
    _, geom, gas = next(itertools.islice(design_points(), point, None))
    geom_k = _scaled(geom, k)
    assert geom_k.derived.m1_refusal == "M1 is out of floating-point range (overflow)"
    _check_models(point, geom, gas, geom_k, _scaled_gas(gas, k), k)


def test_inertia_follows_the_scaled_reynolds_number(dataset, gas):
    # A's holes at 200 kHz: Re is about 0.49, so Re >= 6 from k = 2 on
    geom = dataset["A"].geom
    assert [regime_report(_scaled(geom, k), _scaled_gas(gas, k), F).inertial
            for k in (0, 1, 2)] == [False, False, True]
