"""Squeeze-film damping of perforated MEMS plates: compact models M1-M6,
flow-regime characteristic numbers, and Q extraction from frequency responses.

Only ``perfdamp.frf`` imports numpy. Its public names are loaded on first
access, so ``import perfdamp`` and the model modules stay numpy-free.
"""

import importlib

from perfdamp.geometry import PlateGeometry, BeamGeometry
from perfdamp.flow_regime import GasProperties, RegimeReport, regime_report
from perfdamp.compact_models import (
    DerivedGeometry,
    derive_geometry,
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

_FRF_NAMES = {"FrfCurve", "ExtractionResult", "synth_frf", "extract", "damping_from_q"}


def __getattr__(name):
    if name in _FRF_NAMES:
        return getattr(importlib.import_module("perfdamp.frf"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
