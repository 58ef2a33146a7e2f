"""Device and gas configuration files, plus unit-suffix parsing.

Configuration lives at the boundary in convenient units (micrometers,
kilohertz, ...); everything behind this module is SI. Device files are JSON:

    {"L_um": 372.4, "W_um": 66.4, "M": 36, "N": 6,
     "s0_um": 5.0, "s1_um": 5.2, "h_um": 1.6, "hc_um": 15,
     "beams": {"Lb_um": 122, "Wb_um": 4, "count": 4},
     "measured": {"c_Ns_per_m": 47.38e-6, "f0_kHz": 201.637, "mass_ratio": 0.918}}

`beams` and `measured` are optional. Gas files carry the unit in the field
name as well: {"P_A_kPa", "rho_kg_m3", "mu_Ns_m2", "lambda_nm"}. A field
that a file or block does not define is refused, never ignored.
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


CURVE_HEADER = ("freq_hz", "amp_m")  # the columns of a curve CSV, as `frf synth` writes them

# Each unit as the power of ten it adds to the number's exponent, keyed as
# _parse_quantity normalises a suffix: a leading m or M keeps its case, which
# tells milli from mega; every other letter is lower case. Micro is spelt u,
# the micro sign U+00B5 or the Greek mu U+03BC. No suffix means SI.
_LENGTH_UNITS = {"": 0, "m": 0, "mm": -3, "um": -6, "µm": -6, "μm": -6, "nm": -9}
_FREQ_UNITS = {"": 0, "hz": 0, "khz": 3, "Mhz": 6, "ghz": 9}
_QUANTITY_RE = re.compile(r"^\s*([-+]?[0-9.eE+-]+?)\s*([a-zA-Zµμ]*)\s*$")


def _parse_quantity(text: str, units: dict[str, int], what: str) -> float:
    """The float nearest the decimal that `text` spells: the unit shifts the
    exponent of the number text before one float() call, so "30nm" is 3e-08,
    not 30 * 1e-9 = 3.0000000000000004e-08."""
    m = _QUANTITY_RE.match(str(text))
    if m:
        number, suffix = m.groups()
        mantissa, _, exponent = number.lower().partition("e")
        try:
            float(number)
            shift = int(exponent or 0)  # over 4300 digits is a ValueError too
        except ValueError:
            m = None
    if not m:
        raise ConfigError(f"cannot parse {what} value {text!r}")
    key = suffix[0] + suffix[1:].lower() if suffix[:1] in ("m", "M") else suffix.lower()
    if key not in units:
        raise ConfigError(f"unknown unit suffix {suffix!r} in {what} value {text!r}")
    return float(f"{mantissa}e{shift + units[key]}")


def parse_length(text: str) -> float:
    """Parse "0.8um", "65nm", "1.6e-6" (bare = meters) to meters."""
    return _parse_quantity(text, _LENGTH_UNITS, "length")


def parse_frequency(text: str) -> float:
    """Parse "200kHz", "1.2MHz", "500" (bare = Hz) to Hz."""
    return _parse_quantity(text, _FREQ_UNITS, "frequency")


def _value(data: dict, field: str, scale: float | None):
    """The number in `field` times `scale` (to SI); a count (scale None) as written."""
    if field not in data:
        raise ConfigError(f"missing field {field!r}")
    value = data[field]
    if scale is None:
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"field {field!r} must be a number, got {type(value).__name__}")
    # a NaN or an infinity is left to the record, which refuses it by name
    try:
        return float(value) * scale
    except OverflowError:
        return math.inf


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


# Field tables of the file blocks: file field -> (attribute, scale to SI),
# scale None for an integer. load_device/load_gas read them, dump_device
# writes them, in table order.
_PLATE_FIELDS = {"L_um": ("L", 1e-6), "W_um": ("W", 1e-6), "M": ("M", None), "N": ("N", None),
                 "s0_um": ("s0", 1e-6), "s1_um": ("s1", 1e-6), "h_um": ("h", 1e-6),
                 "hc_um": ("h_c", 1e-6)}
_BEAM_FIELDS = {"Lb_um": ("L_b", 1e-6), "Wb_um": ("W_b", 1e-6), "count": ("count", None)}
_MEASURED_FIELDS = {"c_Ns_per_m": ("c_m", 1.0), "f0_kHz": ("f0", 1e3),
                    "mass_ratio": ("alpha", 1.0)}
_GAS_FIELDS = {"P_A_kPa": ("P_A", 1e3), "rho_kg_m3": ("rho", 1.0),
               "mu_Ns_m2": ("mu", 1.0), "lambda_nm": ("lam", 1e-9)}


def _build(cls, data, fields: dict, block: str, optional=(), allowed=(), **extra):
    """cls built from the fields of one block: a field the table does not know
    (nor `allowed`) is refused, an absent `optional` one is left to cls's
    default, and a bad value or cls's ValueError becomes a ConfigError that
    names the block. Each word of the message that is an attribute of cls with
    a file field of another name is replaced by that field (`L_b` -> `Lb_um`)."""
    if not isinstance(data, dict):
        raise ConfigError(f"{block} must be a JSON object")
    for key in data:
        if key not in fields and key not in allowed:
            raise ConfigError(f"unknown field {key!r} in {block}")
    try:
        kwargs = {name: _value(data, field, scale) for field, (name, scale) in fields.items()
                  if field in data or field not in optional}
        return cls(**kwargs, **extra)
    except ValueError as exc:
        to_field = {name: field for field, (name, _) in fields.items() if name != field}
        message = re.sub(r"\w+", lambda m: to_field.get(m[0], m[0]), str(exc))
        raise ConfigError(f"{block}: {message}") from exc


def load_device(path: str | Path) -> tuple[PlateGeometry, MeasuredRecord | None]:
    """Load and validate a device file; returns SI geometry and, when the file
    carries a `measured` block, the corresponding MeasuredRecord."""
    _, geom, measured = read_device(path)
    return geom, measured


def read_device(path: str | Path) -> tuple[str, PlateGeometry, MeasuredRecord | None]:
    """load_device's (geom, measured), after the device's id: the file's `id`,
    or the file name's stem where it gives none."""
    data = _read_json(path)
    ident = data.get("id", Path(path).stem)
    if not isinstance(ident, str) or not ident:
        got = repr(ident) if isinstance(ident, str) else type(ident).__name__
        raise ConfigError(f"field 'id' must be a non-empty string, got {got}")
    beams = None
    if "beams" in data:
        beams = _build(BeamGeometry, data["beams"], _BEAM_FIELDS, "block 'beams'",
                       optional=("count",))
    geom = _build(PlateGeometry, data, _PLATE_FIELDS, "device file", beams=beams,
                  allowed=("id", "beams", "measured"))
    if "measured" not in data:
        return ident, geom, None
    return ident, geom, _build(MeasuredRecord, data["measured"], _MEASURED_FIELDS,
                               "block 'measured'", id=ident, geom=geom)


def _to_file(value: float, scale: float) -> float:
    """File value that converts back to exactly `value` via * scale.

    Such values are consecutive floats around value/scale, reaching as far
    above it as below (twice as far above if `value` is a power of two), so the
    rounded quotient or the float above it is one, if any is. The product
    value*(1/scale), which the shipped files hold, is tried first. Where the SI
    binade holds more floats than the file unit's (f0 in [256, 262.144) kHz),
    some values have none; they keep the product, one ulp off.
    """
    x = value * (1 / scale)
    for cand in (x, value / scale, math.nextafter(value / scale, math.inf)):
        if cand * scale == value:
            return cand
    return x


def _dump(obj, fields: dict) -> dict:
    return {field: getattr(obj, name) if scale is None else _to_file(getattr(obj, name), scale)
            for field, (name, scale) in fields.items()}


def dump_device(geom: PlateGeometry, measured: MeasuredRecord | None = None,
                ident: str | None = None) -> dict:
    """Inverse of read_device; the returned dict reloads to an equal geometry
    and measured record wherever the file units can hold each value. Its `id`
    is `ident`, else the measured record's; with neither it has none."""
    data = _dump(geom, _PLATE_FIELDS)
    if geom.beams is not None:
        data["beams"] = _dump(geom.beams, _BEAM_FIELDS)
    if ident is None and measured is not None:
        ident = measured.id
    if ident is not None:
        data["id"] = ident
    if measured is not None:
        data["measured"] = _dump(measured, _MEASURED_FIELDS)
    return data


def load_gas(path: str | Path) -> GasProperties:
    """Load a gas-properties file; the fields it leaves out keep the
    GasProperties defaults (standard air)."""
    return _build(GasProperties, _read_json(path), _GAS_FIELDS, "gas file", optional=_GAS_FIELDS)
