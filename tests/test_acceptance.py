"""Acceptance gate: one test per release criterion, each printing a PASS line
with the observed numbers when it succeeds.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from perfdamp import cli
from perfdamp import compact_models as cm
from perfdamp import comparison as cmp
from perfdamp.flow_regime import GasProperties, regime_report
from perfdamp.frf import extract, synth_frf
from perfdamp.geometry import BeamGeometry, PlateGeometry

import oracles


def _report(criterion, detail):
    print(f"PASS  criterion {criterion}: {detail}")


def test_criterion_1_characteristic_numbers(gas):
    t0 = time.perf_counter()
    # type A plate (h = 1.6 um, s0 = 5 um, s1 = 5.2 um, W = 66.4 um), and the
    # same plate with s0 = 8 um for the Reynolds number at r = s0/2 = 4 um
    plate = PlateGeometry(L=372.4e-6, W=66.4e-6, M=36, N=6, s0=5e-6, s1=5.2e-6,
                          h=1.6e-6, h_c=15e-6)
    plate_r4 = dataclasses.replace(plate, s0=8e-6, M=28, N=5)
    per_omega = 1 / (2 * math.pi)  # omega = 1 rad/s
    rep_200k = regime_report(plate, gas, 200e3)
    K_ch, K_hole = rep_200k.K_ch, rep_200k.K_hole
    sigma_per_omega = regime_report(plate, gas, per_omega).sigma_plate
    sigma_200k, sigma_cell = rep_200k.sigma_plate, rep_200k.sigma_cell
    re_per_omega = regime_report(plate_r4, gas, per_omega).Re
    re_200k = regime_report(plate_r4, gas, 200e3).Re
    elapsed = time.perf_counter() - t0

    assert K_ch == pytest.approx(0.041, abs=0.001)
    assert K_hole == pytest.approx(0.013, abs=0.0005)
    assert sigma_per_omega == pytest.approx(3.8e-6, rel=0.02)
    assert sigma_200k == pytest.approx(4.8, abs=0.1)
    assert sigma_cell == pytest.approx(0.03, abs=0.005)
    assert re_per_omega == pytest.approx(0.998e-6, rel=0.01)
    assert re_200k == pytest.approx(1.255, abs=0.01)
    assert elapsed < 0.010
    _report(1, f"K_ch={K_ch:.4f} K_hole={K_hole:.4f} sigma/w={sigma_per_omega:.3e} "
               f"sigma(200kHz)={sigma_200k:.3f} sigma_cell={sigma_cell:.4f} "
               f"Re/w={re_per_omega:.4e} Re(200kHz)={re_200k:.4f} in {elapsed*1e3:.2f} ms")


def test_criterion_2_table3(gas):
    t0 = time.perf_counter()
    repro = cmp.reproduce_table3(gas)
    elapsed = time.perf_counter() - t0
    worst = 0.0
    for dev, published in cmp.PUBLISHED_TABLE3.items():
        for got, want in zip(repro[dev], published):
            assert got == pytest.approx(want, abs=cmp.TABLE3_TOL_PP)
            assert (got < 0) == (want < 0)
            worst = max(worst, abs(got - want))
    assert elapsed < 5.0
    _report(2, f"all 24 cells within {cmp.TABLE3_TOL_PP} pp "
               f"(worst {worst:.2f} pp), signs match, {elapsed:.2f} s")


def test_criterion_3_table4(dataset, gas):
    repro = cmp.reproduce_table4(gas)
    worst = 0.0
    for dev, published in cmp.PUBLISHED_TABLE4.items():
        for got, want in zip(repro[dev], published):
            assert got == pytest.approx(want, abs=cmp.TABLE4_TOL_PP)
            assert (got < 0) == (want < 0)
            worst = max(worst, abs(got - want))
    for rec in dataset.values():
        assert cm.damping_m5(rec.geom, gas).c >= cm.damping_m3(rec.geom, gas).c
        assert cm.damping_m6(rec.geom, gas).c >= cm.damping_m4(rec.geom, gas).c
    _report(3, f"all 12 cells within {cmp.TABLE4_TOL_PP} pp (worst {worst:.2f} pp), "
               "signs match, cell-only >= border-coupled per device")


def test_criterion_4_table5(gas):
    repro = cmp.reproduce_table5(gas)
    worst = 0.0
    for dev, published in cmp.PUBLISHED_TABLE5.items():
        for got, want in zip(repro[dev], published):
            assert got == pytest.approx(want, abs=cmp.TABLE5_TOL_PP)
            worst = max(worst, abs(got - want))
        assert sum(repro[dev]) == pytest.approx(100.0, abs=0.01)
    assert repro["E"] == repro["F"]
    _report(4, f"all 36 cells within {cmp.TABLE5_TOL_PP} pp (worst {worst:.2f} pp), "
               "rows sum to 100, rows E and F identical")


def test_criterion_5_m3_m4_agreement(dataset, gas):
    worst = 0.0
    for rec in dataset.values():
        d3 = cmp.relative_error(cm.damping_m3(rec.geom, gas).c, rec.c_m)
        d4 = cmp.relative_error(cm.damping_m4(rec.geom, gas).c, rec.c_m)
        worst = max(worst, abs(d3 - d4))
    assert worst <= 3.5
    _report(5, f"max |delta3 - delta4| = {worst:.2f} pp (limit 3.5, published 2.8)")


def test_criterion_6_beam_damping(gas):
    beams = BeamGeometry(L_b=122e-6, W_b=4e-6, count=4)
    c_b = cm.beam_damping(beams, 1.6e-6, gas)
    assert 0.12e-6 <= c_b <= 0.17e-6
    _report(6, f"c_b = {c_b*1e6:.3f}e-6 Ns/m in [0.12e-6, 0.17e-6] "
               "(published 0.16e-6 matches the formula without its slip divisor)")


def test_criterion_7_property_suite(dataset, gas):
    t0 = time.perf_counter()
    # positivity: six devices x six models
    for rec in dataset.values():
        for model in cm.MODELS.values():
            assert model(rec.geom, gas).c > 0
    # monotone decrease A -> B -> C -> D for every model
    for model in cm.MODELS.values():
        cs = [model(dataset[d].geom, gas).c for d in "ABCD"]
        assert cs == sorted(cs, reverse=True)
    # closed-form border series against its brute-force sum
    geom = dataset["A"].geom
    R_p = cm.cell_resistance_circular(geom, gas).R_p
    assert cm.damping_border_coupled(geom, gas, R_p).c \
        == pytest.approx(oracles.border_series(geom, gas, R_p), rel=1e-9, abs=0)
    # a plate turned by 90 degrees (L <-> W, M <-> N) gives every model's result
    # and its regime report exactly
    for rec in dataset.values():
        turned = dataclasses.replace(rec.geom, L=rec.geom.W, W=rec.geom.L,
                                     M=rec.geom.N, N=rec.geom.M)
        assert cm.evaluate(turned, gas) == cm.evaluate(rec.geom, gas)
        assert regime_report(turned, gas, rec.f0) == regime_report(rec.geom, gas, rec.f0)
    # rarefaction monotonicity in mean free path
    for model in (cm.damping_m3, cm.damping_m4, cm.damping_m5, cm.damping_m6):
        cs = [model(geom, GasProperties(lam=lam)).c for lam in (1e-300, 65e-9, 130e-9)]
        assert cs[0] > cs[1] > cs[2]
    # FRF round trip for Q in {50, 500, 5000}
    for Q in (50, 500, 5000):
        f0, m_eff = 200e3, 1e-9
        w0 = 2 * math.pi * f0
        bw = f0 / Q
        freqs = np.linspace(f0 - 5 * bw, f0 + 5 * bw, 401)
        curve = synth_frf(m_eff, m_eff * w0 / Q, m_eff * w0**2, 1e-6, freqs)
        assert extract(curve).Q == pytest.approx(Q, rel=0.02)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _report(7, f"positivity, monotonicity, border series, symmetry, rarefaction and FRF "
               f"round-trip properties hold in {elapsed:.2f} s")


def test_criterion_8_determinism(tmp_path):
    out1, out2 = tmp_path / "run1.csv", tmp_path / "run2.csv"
    assert cli.run(["compare", "--table", "all", "--format", "csv",
                    "--out", str(out1)]) == 0
    assert cli.run(["compare", "--table", "all", "--format", "csv",
                    "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    _report(8, "compare --table all --format csv is byte-identical across runs")
