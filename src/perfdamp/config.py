"""Device and gas configuration files, plus unit-suffix parsing.

Configuration lives at the boundary in convenient units (micrometers,
kilohertz, ...); everything behind this module is SI. Device files are JSON:

    {"L_um": 372.4, "W_um": 66.4, "M": 36, "N": 6,
     "s0_um": 5.0, "s1_um": 5.2, "h_um": 1.6, "hc_um": 15,
     "beams": {"Lb_um": 122, "Wb_um": 4, "count": 4},
     "measured": {"c_Ns_per_m": 47.38e-6, "f0_kHz": 201.637, "mass_ratio": 0.918}}

`beams` and `measured` are optional. Gas files carry the unit in the field
name as well: {"P_A_kPa", "rho_kg_m3", "mu_Ns_m2", "lambda_nm"}.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

from perfdamp.geometry import PlateGeometry, BeamGeometry
from perfdamp.flow_regime import GasProperties
from perfdamp.comparison import MeasuredRecord


class ConfigError(ValueError):
    """Malformed configuration file; message names the offending field."""


_LENGTH_UNITS = {"m": 1.0, "mm": 1e-3, "um": 1e-6, "µm": 1e-6, "nm": 1e-9}
_FREQ_UNITS = {"hz": 1.0, "khz": 1e3, "mhz": 1e6, "ghz": 1e9}
_QUANTITY_RE = re.compile(r"^\s*([-+]?[0-9.eE+-]+?)\s*([a-zA-Zµ]*)\s*$")


def _parse_quantity(text: str, units: dict[str, float], what: str) -> float:
    m = _QUANTITY_RE.match(str(text))
    if m:
        try:
            value = float(m.group(1))
        except ValueError:
            m = None
    if not m:
        raise ConfigError(f"cannot parse {what} value {text!r}")
    suffix = m.group(2)
    if suffix == "":
        return value
    key = suffix if suffix in units else suffix.lower()
    if key not in units:
        raise ConfigError(f"unknown unit suffix {suffix!r} in {what} value {text!r}")
    return value * units[key]


def parse_length(text: str) -> float:
    """Parse "0.8um", "65nm", "1.6e-6" (bare = meters) to meters."""
    return _parse_quantity(text, _LENGTH_UNITS, "length")


def parse_frequency(text: str) -> float:
    """Parse "200kHz", "1.2MHz", "500" (bare = Hz) to Hz."""
    return _parse_quantity(text, _FREQ_UNITS, "frequency")


def _number(data: dict, field: str, scale: float = 1.0) -> float:
    if field not in data:
        raise ConfigError(f"missing field {field!r}")
    value = data[field]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"field {field!r} must be a number, got {type(value).__name__}")
    try:
        scaled = float(value) * scale
    except OverflowError:
        scaled = math.inf
    if not math.isfinite(scaled):
        raise ConfigError(f"field {field!r} must be a finite number, got {value}")
    return scaled


def _integer(data: dict, field: str) -> int:
    if field not in data:
        raise ConfigError(f"missing field {field!r}")
    value = data[field]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"field {field!r} must be an integer, got {type(value).__name__}")
    return value


def _read_json(path: str | Path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{path} must contain a JSON object")
    return data


def load_device(path: str | Path) -> tuple[PlateGeometry, MeasuredRecord | None]:
    """Load and validate a device file; returns SI geometry and, when the file
    carries a `measured` block, the corresponding MeasuredRecord."""
    data = _read_json(path)
    beams = None
    if "beams" in data:
        b = data["beams"]
        if not isinstance(b, dict):
            raise ConfigError("field 'beams' must be an object")
        # an absent count is left to BeamGeometry's default
        count = {"count": _integer(b, "count")} if "count" in b else {}
        beams = BeamGeometry(L_b=_number(b, "Lb_um", 1e-6), W_b=_number(b, "Wb_um", 1e-6), **count)
    try:
        geom = PlateGeometry(
            L=_number(data, "L_um", 1e-6),
            W=_number(data, "W_um", 1e-6),
            M=_integer(data, "M"),
            N=_integer(data, "N"),
            s0=_number(data, "s0_um", 1e-6),
            s1=_number(data, "s1_um", 1e-6),
            h=_number(data, "h_um", 1e-6),
            h_c=_number(data, "hc_um", 1e-6),
            beams=beams,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    measured = None
    if "measured" in data:
        m = data["measured"]
        if not isinstance(m, dict):
            raise ConfigError("field 'measured' must be an object")
        measured = MeasuredRecord(
            id=str(data.get("id", Path(path).stem)),
            geom=geom,
            c_m=_number(m, "c_Ns_per_m"),
            f0=_number(m, "f0_kHz", 1e3),
            alpha=_number(m, "mass_ratio"),
        )
    return geom, measured


def _to_um(meters: float) -> float:
    """Micrometer value that converts back to exactly `meters` via * 1e-6.

    Plain meters*1e6 can land one ulp off; nudge until the round trip is exact
    so dumped files reload to bit-identical geometry.
    """
    um = meters * 1e6
    if um * 1e-6 == meters:
        return um
    for direction in (math.inf, -math.inf):
        cand = um
        for _ in range(4):
            cand = math.nextafter(cand, direction)
            if cand * 1e-6 == meters:
                return cand
    return um


def dump_device(geom: PlateGeometry, measured: MeasuredRecord | None = None) -> dict:
    """Inverse of load_device; the returned dict reloads to an equal geometry."""
    data = {
        "L_um": _to_um(geom.L),
        "W_um": _to_um(geom.W),
        "M": geom.M,
        "N": geom.N,
        "s0_um": _to_um(geom.s0),
        "s1_um": _to_um(geom.s1),
        "h_um": _to_um(geom.h),
        "hc_um": _to_um(geom.h_c),
    }
    if geom.beams is not None:
        data["beams"] = {
            "Lb_um": _to_um(geom.beams.L_b),
            "Wb_um": _to_um(geom.beams.W_b),
            "count": geom.beams.count,
        }
    if measured is not None:
        data["id"] = measured.id
        data["measured"] = {
            "c_Ns_per_m": measured.c_m,
            "f0_kHz": measured.f0 / 1e3,
            "mass_ratio": measured.alpha,
        }
    return data


# gas-file field -> (GasProperties field, scale to SI)
_GAS_FIELDS = {"P_A_kPa": ("P_A", 1e3), "rho_kg_m3": ("rho", 1.0),
               "mu_Ns_m2": ("mu", 1.0), "lambda_nm": ("lam", 1e-9)}


def load_gas(path: str | Path) -> GasProperties:
    """Load a gas-properties file; the fields it leaves out keep the
    GasProperties defaults (standard air)."""
    data = _read_json(path)
    try:
        return GasProperties(**{name: _number(data, field, scale)
                                for field, (name, scale) in _GAS_FIELDS.items() if field in data})
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
