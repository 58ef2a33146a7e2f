"""Squeeze-film damping of perforated MEMS plates: compact models M1-M6,
flow-regime characteristic numbers, and Q extraction from frequency responses."""

from perfdamp.geometry import (
    PlateGeometry,
    BeamGeometry,
    DerivedGeometry,
    derive_geometry,
)
from perfdamp.flow_regime import GasProperties, RegimeReport, regime_report
from perfdamp.compact_models import (
    CellResistanceBreakdown,
    ModelResult,
    ModelDomainError,
    damping_m1,
    damping_m2,
    damping_m3,
    damping_m4,
    damping_m5,
    damping_m6,
    beam_damping,
)
from perfdamp.frf import FrfCurve, ExtractionResult, synth_frf, extract, damping_from_q
from perfdamp.comparison import MeasuredRecord, builtin_dataset, relative_error

__all__ = [
    "PlateGeometry",
    "BeamGeometry",
    "DerivedGeometry",
    "derive_geometry",
    "GasProperties",
    "RegimeReport",
    "regime_report",
    "CellResistanceBreakdown",
    "ModelResult",
    "ModelDomainError",
    "damping_m1",
    "damping_m2",
    "damping_m3",
    "damping_m4",
    "damping_m5",
    "damping_m6",
    "beam_damping",
    "FrfCurve",
    "ExtractionResult",
    "synth_frf",
    "extract",
    "damping_from_q",
    "MeasuredRecord",
    "builtin_dataset",
    "relative_error",
]
