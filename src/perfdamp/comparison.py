"""Measured reference dataset (six devices, A-F) and the measured-vs-modeled
comparison tables that validate the compact models.

Table "3" holds the relative errors of the full models M1-M4, table "4" those
of the cell-only models M5-M6, and table "5" the relative contributions of
the six flow-resistance components in M5. Published values are embedded so
reproduction can be tolerance-gated.
"""

from __future__ import annotations

from dataclasses import dataclass

from perfdamp.geometry import PlateGeometry, BeamGeometry
from perfdamp.flow_regime import GasProperties
from perfdamp import compact_models as cm

DEVICE_IDS = ("A", "B", "C", "D", "E", "F")
TABLE3_MODELS = ("m1", "m2", "m3", "m4")
TABLE4_MODELS = ("m5", "m6")
TABLE5_COLUMNS = ("R_S", "R_IS", "R_IB", "R_IC", "R_C", "R_E")

# Reproduction tolerances in percentage points.
TABLE3_TOL_PP = 3.0
TABLE4_TOL_PP = 3.0
TABLE5_TOL_PP = 2.0


@dataclass(frozen=True)
class MeasuredRecord:
    """One device: geometry plus measured damping, resonance and mass ratio."""

    id: str
    geom: PlateGeometry
    c_m: float     # Ns/m
    f0: float      # Hz
    alpha: float   # modal/total mass ratio

    def __post_init__(self):
        if self.c_m <= 0 or self.f0 <= 0:
            raise ValueError("c_m and f0 must be positive")
        if not 0 < self.alpha <= 1:
            raise ValueError("mass ratio must be in (0, 1]")


@dataclass(frozen=True)
class ComparisonRow:
    id: str
    model: str
    c_s: float
    delta_pct: float


_BEAMS = BeamGeometry(L_b=122e-6, W_b=4e-6, count=4)

# (L, W, M, N, s0, s1) in um / counts, then c_m (Ns/m), f0 (Hz), alpha
_DEVICES = {
    "A": ((372.4, 66.4, 36, 6, 5.0, 5.2), 47.38e-6, 201.637e3, 0.918),
    "B": ((363.9, 63.9, 36, 6, 6.1, 3.9), 19.46e-6, 204.329e3, 0.893),
    "C": ((373.8, 64.8, 36, 6, 7.3, 3.0), 9.863e-6, 211.011e3, 0.885),
    "D": ((369.5, 64.5, 36, 6, 7.9, 2.3), 7.609e-6, 222.282e3, 0.856),
    "E": ((363.8, 123.8, 36, 12, 6.2, 3.8), 38.22e-6, 173.904e3, 0.946),
    "F": ((363.8, 243.8, 36, 24, 6.2, 3.8), 67.44e-6, 138.564e3, 0.974),
}

PUBLISHED_TABLE3 = {
    "A": (-23.53, -25.74, -33.51, -33.27),
    "B": (-16.36, -18.06, -21.02, -21.96),
    "C": (-5.21, -6.59, -4.11, -6.65),
    "D": (-14.66, -15.72, -12.46, -15.29),
    "E": (-17.27, -18.94, -19.03, -20.14),
    "F": (-4.77, -6.70, -5.19, -6.52),
}

PUBLISHED_TABLE4 = {
    "A": (-17.25, -16.92),
    "B": (-7.81, -9.00),
    "C": (7.38, 4.36),
    "D": (-3.55, -6.83),
    "E": (-11.45, -12.73),
    "F": (0.37, -1.08),
}

PUBLISHED_TABLE5 = {
    "A": (8.15, 9.78, 0.78, 5.63, 68.01, 7.65),
    "B": (7.62, 12.94, 1.87, 5.13, 64.05, 8.40),
    "C": (6.48, 15.30, 3.50, 4.55, 61.19, 8.98),
    "D": (4.51, 14.49, 5.03, 4.06, 62.59, 9.31),
    "E": (7.51, 13.18, 2.00, 5.07, 63.80, 8.45),
    "F": (7.51, 13.18, 2.00, 5.07, 63.80, 8.45),
}


def builtin_dataset() -> list[MeasuredRecord]:
    """The six measured devices with all dimensions and measurements.

    The air gap is 1.6 um and the plate height 15 um for every device; the
    supporting beams are 122 um x 4 um, four per device.
    """
    records = []
    for dev_id, (dims, c_m, f0, alpha) in _DEVICES.items():
        L, W, M, N, s0, s1 = dims
        geom = PlateGeometry(
            L=L * 1e-6, W=W * 1e-6, M=M, N=N,
            s0=s0 * 1e-6, s1=s1 * 1e-6, h=1.6e-6, h_c=15e-6,
            beams=_BEAMS,
        )
        records.append(MeasuredRecord(id=dev_id, geom=geom, c_m=c_m, f0=f0, alpha=alpha))
    return records


def relative_error(c_s: float, c_m: float) -> float:
    """Relative model error 100*(c_s - c_m)/c_m in percent."""
    if c_m <= 0:
        raise ValueError("measured damping must be positive")
    return 100.0 * (c_s - c_m) / c_m


def _error_table(models: tuple[str, ...], gas: GasProperties) -> dict[str, tuple[float, ...]]:
    out = {}
    for rec in builtin_dataset():
        row = []
        for model in models:
            try:
                res = cm.MODELS[model](rec.geom, gas)
            except cm.ModelDomainError as exc:
                raise cm.ModelDomainError(f"device {rec.id}, model {model}: {exc}") from exc
            row.append(relative_error(res.c, rec.c_m))
        out[rec.id] = tuple(row)
    return out


def reproduce_table3(gas: GasProperties = GasProperties()) -> dict[str, tuple[float, ...]]:
    """Relative errors of M1-M4 per device, in percent."""
    return _error_table(TABLE3_MODELS, gas)


def reproduce_table4(gas: GasProperties = GasProperties()) -> dict[str, tuple[float, ...]]:
    """Relative errors of the cell-only models M5-M6 per device, in percent."""
    return _error_table(TABLE4_MODELS, gas)


def reproduce_table5(gas: GasProperties = GasProperties()) -> dict[str, tuple[float, ...]]:
    """Relative contributions of the six M5 flow-resistance components, in
    percent of the total cell resistance (each row sums to 100)."""
    out = {}
    for rec in builtin_dataset():
        out[rec.id] = cm.cell_resistance_circular(rec.geom, gas).percentages()
    return out


def within_tolerance(reproduced: dict, published: dict, tol_pp: float) -> bool:
    """True when every reproduced cell is within tol_pp percentage points of
    the published value."""
    return all(
        abs(r - p) <= tol_pp
        for dev in published
        for r, p in zip(reproduced[dev], published[dev])
    )
