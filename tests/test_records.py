"""Result records are immutable NamedTuples with fixed field order and defaults."""

import pytest

from perfdamp import compact_models as cm
from perfdamp.comparison import builtin_dataset
from perfdamp.flow_regime import GasProperties, RegimeReport, regime_report
from perfdamp.frf import ExtractionResult, extract, synth_frf
from perfdamp.geometry import DerivedGeometry

from test_models_golden import design_points

FIELDS = {
    cm.ModelResult: ("model", "c", "breakdown", "series_terms", "converged"),
    cm.CellResistanceBreakdown: ("R_S", "R_IS", "R_IB", "R_IC", "R_C", "R_E", "R_p"),
    RegimeReport: ("K_ch", "K_hole", "sigma_plate", "sigma_cell", "Re",
                   "rarefaction_gap_pct", "rarefaction_hole_pct", "compressible", "inertial"),
    DerivedGeometry: ("r_0", "beta", "m2_terms", "m1_per_mu", "m2_per_mu", "m1_refusal", "m2_refusal",
                      "short_1_3h", "long_1_3h", "pi6_h3_768", "pi6_6h2_768", "pi4_64MN",
                      "short", "circular", "square"),
    cm.CircularCellFactors: ("A_S", "A_IS", "A_IB", "A_IC", "A_C", "A_E", "x35_178", "scale"),
    cm.SquareCellFactors: ("A_S", "A_IS", "A_IC", "A_C", "A_E", "scale"),
    ExtractionResult: ("f0", "A_peak", "f1", "f2", "Q", "c"),
}


@pytest.fixture(scope="module")
def records(dataset, gas):
    rec = dataset["A"]
    freqs = [5.9e3 + 1.0 * i for i in range(901)]  # f0 ~ 6.37 kHz, Q = 40
    return {
        cm.ModelResult: cm.damping_m3(rec.geom, gas),
        cm.CellResistanceBreakdown: cm.cell_resistance_circular(rec.geom, gas),
        RegimeReport: regime_report(rec.geom, gas, rec.f0),
        DerivedGeometry: rec.geom.derived,
        cm.CircularCellFactors: rec.geom.derived.circular,
        cm.SquareCellFactors: rec.geom.derived.square,
        ExtractionResult: extract(synth_frf(1e-9, 1e-6, 1.6, 1e-6, freqs), m_eff=1e-9),
    }


@pytest.mark.parametrize("cls", list(FIELDS), ids=lambda cls: cls.__name__)
class TestRecord:
    def test_field_order(self, cls):
        assert cls._fields == FIELDS[cls]

    def test_assignment_raises(self, cls, records):
        with pytest.raises(AttributeError):
            setattr(records[cls], FIELDS[cls][0], 0.0)

    def test_hashable_and_equal_to_its_values(self, cls, records):
        rec = records[cls]
        values = tuple(getattr(rec, name) for name in FIELDS[cls])
        assert hash(rec) == hash(values)
        assert rec == values
        assert cls(*values) == rec


def test_defaults():
    assert cm.ModelResult("m1", 1.0) == ("m1", 1.0, None, 0, True)
    assert ExtractionResult(1.0, 2.0, 0.5, 1.5, 1.0).c is None


def test_regime_to_dict_is_the_plain_field_dict(records):
    rep = records[RegimeReport]
    d = rep.to_dict()
    assert type(d) is dict
    assert list(d) == list(FIELDS[RegimeReport])
    assert d == {name: getattr(rep, name) for name in FIELDS[RegimeReport]}


def _gas_stage_records(geom, gas, f):
    """Every record the gas stage returns for one plate and gas, with its class."""
    out = []
    for fn in cm.MODELS.values():
        res = fn(geom, gas)
        out.append((cm.ModelResult, res))
        if res.breakdown is not None:
            out.append((cm.CellResistanceBreakdown, res.breakdown))
    for fn in (cm.cell_resistance_circular, cm.cell_resistance_square):
        br = fn(geom, gas)
        out.append((cm.CellResistanceBreakdown, br))
        out.append((cm.ModelResult, cm.damping_border_coupled(geom, gas, br.R_p)))
    out.append((RegimeReport, regime_report(geom, gas, f)))
    return out


def _plates():
    """Devices A-F at f0, and every 30th golden design point."""
    points = [(rec.id, rec.geom, GasProperties(), rec.f0) for rec in builtin_dataset()]
    for i, (dev, geom, gas) in enumerate(design_points()):
        if i % 30 == 0:
            points.append((f"{dev}{i}", geom, gas, 150e3 + 1e3 * i))
    return points


@pytest.mark.parametrize("plate", _plates(), ids=lambda p: p[0])
def test_gas_stage_records_are_whole_instances(plate):
    """Records built positionally are instances of their class with every
    field set, equal to the same record built by keyword."""
    _, geom, gas, f = plate
    for cls, rec in _gas_stage_records(geom, gas, f):
        assert type(rec) is cls
        assert len(rec) == len(cls._fields)
        assert rec == cls(**rec._asdict())
