"""The positive-and-finite and non-negative-and-finite rules at the boundary.

Every record field and entry point that takes a strictly positive quantity
refuses 0, a negative value, NaN and both infinities with the same message,
`<name> must be positive and finite`, naming the quantity it refused. One that
takes a quantity in [0, inf) accepts 0 and refuses the rest with
`<name> must be non-negative and finite`.
"""

import dataclasses
import math

import numpy as np
import pytest

from perfdamp import compact_models as cm
from perfdamp import comparison as cmp
from perfdamp import frf
from perfdamp.flow_regime import GasProperties, regime_report

REC = cmp.builtin_dataset()[0]
GAS = GasProperties()
FREQS = np.linspace(190e3, 210e3, 64)
CURVE = frf.synth_frf(1e-9, 2e-5, 1.58e3, 1e-6, FREQS)


def _replace(obj, name):
    return lambda v: dataclasses.replace(obj, **{name: v})


# site -> (the name its refusal reports, a call that passes the value there)
SITES = {
    **{f"PlateGeometry.{n}": (n, _replace(REC.geom, n))
       for n in ("L", "W", "s0", "s1", "h", "h_c")},
    **{f"GasProperties.{n}": (n, _replace(GAS, n)) for n in ("P_A", "rho", "mu", "lam")},
    **{f"MeasuredRecord.{n}": (n, _replace(REC, n)) for n in ("c_m", "f0")},
    "relative_error": ("measured damping", lambda v: cmp.relative_error(1.0, v)),
    "regime_report": ("frequency", lambda v: regime_report(REC.geom, GAS, v)),
    "beam_damping": ("air gap", lambda v: cm.beam_damping(REC.geom.beams, v, GAS)),
    "synth_frf.m_eff": ("m_eff (effective mass)",
                        lambda v: frf.synth_frf(v, 2e-5, 1.58e3, 1e-6, FREQS)),
    "synth_frf.k": ("k (stiffness)", lambda v: frf.synth_frf(1e-9, 2e-5, v, 1e-6, FREQS)),
    "synth_frf.F0": ("F0 (drive force)", lambda v: frf.synth_frf(1e-9, 2e-5, 1.58e3, v, FREQS)),
    "damping_from_q.m_eff": ("m_eff (effective mass)", lambda v: frf.damping_from_q(2e5, 10, v)),
    "damping_from_q.f0": ("f0 (resonance frequency)", lambda v: frf.damping_from_q(v, 10, 1e-9)),
    "damping_from_q.Q": ("Q (quality factor)", lambda v: frf.damping_from_q(2e5, v, 1e-9)),
    "extract.m_eff": ("m_eff (effective mass)", lambda v: frf.extract(CURVE, m_eff=v)),
}
BAD = {"zero": 0.0, "negative": -1.0, "nan": math.nan, "inf": math.inf, "-inf": -math.inf}


@pytest.mark.parametrize("label", BAD)
@pytest.mark.parametrize("site", SITES)
def test_refusal_names_the_quantity(site, label):
    name, call = SITES[site]
    with pytest.raises(ValueError) as info:
        call(BAD[label])
    assert str(info.value) == f"{name} must be positive and finite"


@pytest.mark.parametrize("label", ["zero", "negative"])
def test_curve_refuses_first_frequency(label):
    # a NaN or infinite frequency is refused earlier, by index (freqs[i] is not finite)
    with pytest.raises(ValueError) as info:
        frf.FrfCurve(freqs=FREQS - FREQS[0] + BAD[label], amps=CURVE.amps)
    assert str(info.value) == "freqs must be positive and finite"


NON_NEGATIVE_SITES = {
    **{f"BeamGeometry.{n}": (n, _replace(REC.geom.beams, n)) for n in ("L_b", "W_b")},
    "synth_frf.c": ("c (damping)", lambda v: frf.synth_frf(1e-9, v, 1.58e3, 1e-6, FREQS)),
    "relative_error.c_s": ("simulated damping", lambda v: cmp.relative_error(v, 1.0)),
}


@pytest.mark.parametrize("label", ["negative", "nan", "inf", "-inf"])
@pytest.mark.parametrize("site", NON_NEGATIVE_SITES)
def test_non_negative_refusal_names_the_quantity(site, label):
    name, call = NON_NEGATIVE_SITES[site]
    with pytest.raises(ValueError) as info:
        call(BAD[label])
    assert str(info.value) == f"{name} must be non-negative and finite"


@pytest.mark.parametrize("site", NON_NEGATIVE_SITES)
def test_non_negative_accepts_zero(site):
    NON_NEGATIVE_SITES[site][1](0.0)
