import dataclasses
import json
import math
import os
import random
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oracles
import perfdamp
from perfdamp import cli
from perfdamp import compact_models as cm
from perfdamp import comparison as cmp
from perfdamp.config import (
    ConfigError,
    _to_file,
    dump_device,
    load_device,
    load_gas,
    parse_frequency,
    parse_length,
    read_device,
)
from perfdamp.flow_regime import GasProperties, regime_report
from perfdamp.geometry import BeamGeometry, PlateGeometry

from test_frf import singular_gram_curve

DEVICES = Path(__file__).parent.parent / "devices"
# the options of a valid frf synth run
FRF_SYNTH = ["--meff", "1e-9", "--damping", "2e-5", "--stiffness", "1.58e3",
             "--start", "190kHz", "--stop", "210kHz"]

VALID = {
    "L_um": 372.4, "W_um": 66.4, "M": 36, "N": 6,
    "s0_um": 5.0, "s1_um": 5.2, "h_um": 1.6, "hc_um": 15,
}


def _write(tmp_path, data, name="dev.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


class TestQuantityParsing:
    @pytest.mark.parametrize("text,expected", [
        ("0.8um", 0.8e-6), ("65nm", 65e-9), ("1.5mm", 1.5e-3),
        ("2m", 2.0), ("1.6e-6", 1.6e-6), ("0.8UM", 0.8e-6),
        # micro as the micro sign U+00B5 and as the Greek mu U+03BC
        ("1.2\u00b5m", 1.2e-6), ("1.2\u03bcm", 1.2e-6),
    ])
    def test_lengths(self, text, expected):
        assert parse_length(text) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("text,expected", [
        ("200kHz", 200e3), ("1.2MHz", 1.2e6), ("500", 500.0), ("50Hz", 50.0),
        ("200khz", 200e3), ("200KHZ", 200e3), ("1.2MHZ", 1.2e6), ("1.5GHz", 1.5e9),
    ])
    def test_frequencies(self, text, expected):
        assert parse_frequency(text) == pytest.approx(expected, rel=1e-12)

    def test_bad_suffix(self):
        with pytest.raises(ConfigError, match="suffix"):
            parse_length("3parsec")

    # m is milli and M mega in either case of the rest of the suffix: there is
    # no millihertz and no megametre, so neither is read as the other
    @pytest.mark.parametrize("parse,text,what", [
        (parse_frequency, "200mHz", "frequency"), (parse_frequency, "200mhz", "frequency"),
        (parse_length, "1.2Mm", "length"), (parse_length, "5MM", "length"),
        (parse_length, "5M", "length"),
    ])
    def test_milli_and_mega_not_confused(self, parse, text, what):
        suffix = text.lstrip("0123456789.")
        with pytest.raises(ConfigError) as info:
            parse(text)
        assert str(info.value) == f"unknown unit suffix {suffix!r} in {what} value {text!r}"

    def test_garbage(self):
        with pytest.raises(ConfigError):
            parse_frequency("fast")

    def test_exponent_too_long_to_read(self):
        text = "1e" + "1" * 5000 + "um"
        with pytest.raises(ConfigError, match="^cannot parse length value"):
            parse_length(text)

    # the unit shifts the decimal exponent, so each text parses to the float
    # nearest the decimal it spells; 30 * 1e-9 would be 3.0000000000000004e-08
    @pytest.mark.parametrize("parse,text,expected", [
        (parse_length, "30nm", 30e-9), (parse_length, "90nm", 90e-9),
        (parse_length, "15um", 15e-6), (parse_length, "15\u00b5m", 15e-6),
        (parse_length, "15\u03bcm", 15e-6), (parse_length, "1.5mm", 1.5e-3),
        (parse_length, "2m", 2.0), (parse_length, "1.6e-6", 1.6e-6),
        (parse_length, "3e1nm", 30e-9), (parse_length, "0.3E+2nm", 30e-9),
        (parse_length, "-30nm", -30e-9), (parse_length, "+.5um", 0.5e-6),
        (parse_length, "5.um", 5e-6), (parse_length, "1e400um", math.inf),
        (parse_length, "1e-400m", 0.0),
        (parse_frequency, "1.2MHz", 1.2e6), (parse_frequency, "201.637kHz", 201.637e3),
        (parse_frequency, "1.5GHz", 1.5e9), (parse_frequency, "50Hz", 50.0),
        (parse_frequency, "500", 500.0), (parse_frequency, "-5kHz", -5e3),
        (parse_frequency, "2e-1kHz", 200.0),
    ])
    def test_parse_is_exact(self, parse, text, expected):
        assert parse(text) == expected


class TestLoadDevice:
    def test_shipped_files_match_dataset(self, dataset):
        for dev_id, rec in dataset.items():
            geom, measured = load_device(DEVICES / f"{dev_id}.json")
            assert geom == rec.geom
            assert measured.c_m == rec.c_m
            assert measured.f0 == rec.f0
            assert measured.alpha == rec.alpha

    def test_missing_field(self, tmp_path):
        data = dict(VALID)
        del data["W_um"]
        with pytest.raises(ConfigError, match="W_um"):
            load_device(_write(tmp_path, data))

    def test_string_where_number_expected(self, tmp_path):
        data = dict(VALID, h_um="1.6")
        with pytest.raises(ConfigError, match="h_um"):
            load_device(_write(tmp_path, data))

    def test_invariant_violation_names_field(self, tmp_path):
        data = dict(VALID, s1_um=0)
        with pytest.raises(ConfigError, match="s1"):
            load_device(_write(tmp_path, data))

    @pytest.mark.parametrize("field,value", [
        ("L_um", math.nan), ("h_um", math.inf), ("L_um", 10**400),
    ], ids=["L_um-nan", "h_um-inf", "L_um-int-overflow"])
    def test_non_finite_value_names_field(self, tmp_path, field, value):
        with pytest.raises(ConfigError, match=f"{field}.*finite"):
            load_device(_write(tmp_path, {**VALID, field: value}))

    def test_beams_without_count_default_to_four(self, tmp_path):
        geom, _ = load_device(_write(tmp_path, {**VALID, "beams": {"Lb_um": 122, "Wb_um": 4}}))
        assert geom.beams == BeamGeometry(L_b=122e-6, W_b=4e-6)
        assert geom.beams.count == 4

    def test_beams_count_read_when_present(self, tmp_path):
        beams = {"Lb_um": 122, "Wb_um": 4, "count": 2}
        geom, _ = load_device(_write(tmp_path, {**VALID, "beams": beams}))
        assert geom.beams.count == 2

    def test_round_trip(self, tmp_path, dataset):
        rec = dataset["B"]
        path = _write(tmp_path, dump_device(rec.id, rec.geom, rec))
        geom, measured = load_device(path)
        assert geom == rec.geom
        assert measured.c_m == rec.c_m


class TestUnknownAndInvalidBlocks:
    """Every block refuses a field it does not define, naming it, and a
    value its record refuses becomes a ConfigError that names the block."""

    MEASURED = {"c_Ns_per_m": 4.738e-05, "f0_kHz": 201.637, "mass_ratio": 0.918}
    BEAMS = {"Lb_um": 122, "Wb_um": 4, "count": 4}

    @pytest.mark.parametrize("data,field", [
        ({**VALID, "hc_uum": 15}, "hc_uum"),
        ({**VALID, "beams": {"Lb_um": 122, "Wb_um": 4, "cuont": 2}}, "cuont"),
        ({**VALID, "measured": {**MEASURED, "f0_khz": 201.637}}, "f0_khz"),
    ], ids=["device", "beams", "measured"])
    def test_device_unknown_field_named(self, tmp_path, data, field):
        with pytest.raises(ConfigError, match=f"unknown field '{field}'"):
            load_device(_write(tmp_path, data))

    @pytest.mark.parametrize("text, message", [
        ("{", "is not valid JSON"),
        ("[372.4, 66.4]", "must contain a JSON object$"),
    ], ids=["invalid", "array"])
    def test_device_file_not_a_json_object(self, tmp_path, text, message):
        path = tmp_path / "dev.json"
        path.write_text(text)
        with pytest.raises(ConfigError, match=message):
            load_device(path)

    def test_beams_block_not_an_object(self, tmp_path):
        with pytest.raises(ConfigError, match="^block 'beams' must be a JSON object$"):
            load_device(_write(tmp_path, {**VALID, "beams": [122, 4, 4]}))

    def test_gas_unknown_field_named(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown field 'lamda_nm' in gas file"):
            load_gas(_write(tmp_path, {"lamda_nm": 30}, "gas.json"))

    @pytest.mark.parametrize("data,message", [
        ({**VALID, "beams": {"Lb_um": -1, "Wb_um": 4}}, "^block 'beams': Lb_um must"),
        ({**VALID, "beams": {**BEAMS, "count": 0}}, "^block 'beams': beam count"),
        ({**VALID, "measured": {**MEASURED, "mass_ratio": 2}},
         "^block 'measured': mass_ratio must"),
        ({**VALID, "measured": {**MEASURED, "f0_kHz": 0}},
         "^block 'measured': f0_kHz must"),
    ], ids=["beam-length", "beam-count", "mass-ratio", "f0"])
    def test_invalid_block_value_names_block(self, tmp_path, data, message):
        with pytest.raises(ConfigError, match=message):
            load_device(_write(tmp_path, data))

    # damp prints the id as a CSV cell, so an id that would need quoting there
    # (a comma, a double quote, a line break) is refused like a malformed one
    @pytest.mark.parametrize("ident,got", [
        (5, "int"), (None, "NoneType"), (True, "bool"), ({"a": 1}, "dict"), ("", "''"),
        ("plate,1", "'plate,1'"), ('plate "1"', "'plate \"1\"'"), ("two\nlines", "'two\\nlines'"),
        ("cr\r", "'cr\\r'"),
    ], ids=["number", "null", "true", "object", "empty", "comma", "quote", "newline", "cr"])
    def test_device_id_must_be_a_non_empty_string(self, tmp_path, capsys, ident, got):
        message = ("field 'id' must be a non-empty string with no comma, quote or line break, "
                   f"got {got}")
        path = _write(tmp_path, {**VALID, "id": ident, "measured": self.MEASURED})
        with pytest.raises(ConfigError) as info:
            load_device(path)
        assert str(info.value) == message
        assert cli.run(["damp", "--device", path, "--model", "m5"]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_device_id_from_a_file_name_with_a_comma_is_refused(self, tmp_path, capsys):
        path = _write(tmp_path, VALID, name="plate,1.json")
        message = ("field 'id' must be a non-empty string with no comma, quote or line break, "
                   "got 'plate,1'")
        with pytest.raises(ConfigError) as info:
            read_device(path)
        assert str(info.value) == message
        assert cli.run(["damp", "--device", path, "--model", "m1"]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize("device,gas,named", [
        (VALID, {"lamda_nm": 30}, "lamda_nm"),
        ({**VALID, "hc_uum": 15}, None, "hc_uum"),
        ({**VALID, "measured": {**MEASURED, "f0_khz": 201.637}}, None, "f0_khz"),
        ({**VALID, "beams": {"Lb_um": -1, "Wb_um": 4}}, None, "'beams'"),
        ({**VALID, "measured": {**MEASURED, "mass_ratio": 2}}, None, "'measured'"),
    ], ids=["gas-unknown", "device-unknown", "measured-unknown", "beams-invalid",
            "measured-invalid"])
    def test_cli_exit1_one_error_line(self, tmp_path, capsys, device, gas, named):
        argv = ["damp", "--device", _write(tmp_path, device), "--model", "m5"]
        if gas is not None:
            argv += ["--gas", _write(tmp_path, gas, "gas.json")]
        assert cli.run(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert named in err

    # One case per record (BeamGeometry, GasProperties, PlateGeometry,
    # MeasuredRecord), each pinning the whole message that _build rewrites; a
    # count that is not an int is refused by its record alone.
    @pytest.mark.parametrize("device,gas,message", [
        ({**VALID, "beams": {"Wb_um": 4}}, None, "block 'beams': missing field 'Lb_um'"),
        ({**VALID, "beams": {**BEAMS, "Lb_um": -1}}, None,
         "block 'beams': Lb_um must be non-negative and finite"),
        (VALID, {"lambda_nm": -1}, "gas file: lambda_nm must be positive and finite"),
        ({**VALID, "s0_um": 0}, None, "device file: s0_um must be positive and finite"),
        ({**VALID, "measured": {**MEASURED, "f0_kHz": 0}}, None,
         "block 'measured': f0_kHz must be positive and finite"),
        ({**VALID, "M": 2.5}, None, "device file: M must be an integer, got float"),
        ({**VALID, "M": "6"}, None, "device file: M must be an integer, got str"),
        ({**VALID, "N": True}, None, "device file: N must be an integer, got bool"),
        ({**VALID, "M": None}, None, "device file: M must be an integer, got NoneType"),
        ({**VALID, "beams": {**BEAMS, "count": 4.0}}, None,
         "block 'beams': count must be an integer, got float"),
    ], ids=["Lb_um-missing", "Lb_um", "lambda_nm", "s0_um", "f0_kHz", "M-float", "M-string",
            "N-true", "M-null", "count-float"])
    def test_cli_error_names_block_and_file_field(self, tmp_path, capsys, device, gas, message):
        argv = ["damp", "--device", _write(tmp_path, device), "--model", "m5"]
        if gas is not None:
            argv += ["--gas", _write(tmp_path, gas, "gas.json")]
        assert cli.run(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {message}\n"


def _reloads_to(value, scale):
    """Whether some float x near value/scale gives x*scale == value, that is,
    whether a file can hold the value at all."""
    lo = hi = value / scale
    for _ in range(8):
        if lo * scale == value or hi * scale == value:
            return True
        lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
    return False


class TestDumpDevice:
    @pytest.mark.parametrize("dev", "ABCDEF")
    def test_dump_config_reproduces_shipped_file(self, capsys, dev):
        path = DEVICES / f"{dev}.json"
        assert cli.run(["dump-config", "--device", str(path)]) == 0
        assert capsys.readouterr().out == path.read_text()

    def test_dump_config_keeps_the_id_without_measured_block(self, tmp_path, capsys):
        # the dump carries the device's id, so it reloads as that device
        # under any file name
        data = json.loads((DEVICES / "A.json").read_text())
        del data["measured"]
        data["id"] = "plateX"
        path = _write(tmp_path, data)
        assert cli.run(["dump-config", "--device", path]) == 0
        out = capsys.readouterr().out
        assert json.loads(out)["id"] == "plateX"
        (tmp_path / "other.json").write_text(out)
        assert read_device(tmp_path / "other.json")[0] == "plateX"

    def test_scaled_fields_round_trip(self, tmp_path):
        # every scaled field reloads bit-identical wherever a file value can
        # reload to it; where none can (f0 in [256, 262.144) kHz, say, whose
        # binade has twice the floats of [256, 262.144)), it reloads one ulp off
        rng = random.Random(20261018)
        path = tmp_path / "dev.json"
        exact = 0
        for _ in range(500):
            s0, s1 = rng.uniform(1e-6, 2e-5), rng.uniform(1e-6, 2e-5)
            M, N = rng.randint(1, 40), rng.randint(1, 40)
            geom = PlateGeometry(L=M * (s0 + s1) * rng.uniform(1, 1.1),
                                 W=N * (s0 + s1) * rng.uniform(1, 1.1), M=M, N=N, s0=s0, s1=s1,
                                 h=rng.uniform(0.5e-6, 5e-6), h_c=rng.uniform(5e-6, 50e-6),
                                 beams=BeamGeometry(L_b=rng.uniform(1e-5, 5e-4),
                                                    W_b=rng.uniform(1e-6, 2e-5)))
            rec = cmp.MeasuredRecord("R", geom, c_m=rng.uniform(1e-6, 1e-4),
                                     f0=rng.uniform(100e3, 300e3), alpha=rng.uniform(0.5, 1.0))
            path.write_text(json.dumps(dump_device(rec.id, geom, rec)))
            got, got_rec = load_device(path)
            pairs = [(getattr(geom, n), getattr(got, n), 1e-6)
                     for n in ("L", "W", "s0", "s1", "h", "h_c")]
            pairs += [(geom.beams.L_b, got.beams.L_b, 1e-6), (geom.beams.W_b, got.beams.W_b, 1e-6),
                      (rec.c_m, got_rec.c_m, 1.0), (rec.f0, got_rec.f0, 1e3),
                      (rec.alpha, got_rec.alpha, 1.0)]
            for want, have, scale in pairs:
                if _reloads_to(want, scale):
                    assert have == want
                    exact += 1
                else:
                    assert abs(have - want) <= math.ulp(want)
        assert exact > 0.9 * 500 * 11

    @pytest.mark.parametrize("scale", [1e-6, 1e3, 1e-9])
    def test_to_file_matches_search(self, scale):
        # every power of two with both neighbours, where the floats that reload
        # reach twice as far above value/scale as below, and random bit patterns
        # (NaN, infinities, subnormals, overflowing products and all)
        powers = [math.ldexp(1.0, e) for e in range(-970, 970)]
        values = powers + [math.nextafter(p, d) for p in powers for d in (-math.inf, math.inf)]
        rng = random.Random(20261020)
        values += [struct.unpack("<d", rng.getrandbits(64).to_bytes(8, "little"))[0]
                   for _ in range(100_000)]
        bad = [v for v in values
               if repr(_to_file(v, scale)) != repr(oracles.to_file_search(v, scale))]
        assert bad == []

    @pytest.mark.parametrize("block, field, value", [
        ("measured", "f0_kHz", 294.9),  # f0 * (1/1e3) is 294.90000000000003
        (None, "W_um", 380.7203),  # W * (1/1e-6) is 380.72029999999995
    ])
    def test_dump_config_keeps_value_whose_product_misses(self, tmp_path, capsys, block,
                                                           field, value):
        data = json.loads((DEVICES / "A.json").read_text())
        (data[block] if block else data)[field] = value
        path = _write(tmp_path, data)
        assert cli.run(["dump-config", "--device", str(path)]) == 0
        out = capsys.readouterr().out
        dumped = json.loads(out)
        assert repr((dumped[block] if block else dumped)[field]) == repr(value)
        again = tmp_path / "again.json"
        again.write_text(out)
        assert cli.run(["dump-config", "--device", str(again)]) == 0
        assert capsys.readouterr().out == out

    def test_unrepresentable_f0_reloads_one_ulp_off(self, tmp_path):
        rec = cmp.builtin_dataset()[0]
        f0 = 256457.5630968484
        assert not _reloads_to(f0, 1e3)
        path = tmp_path / "dev.json"
        path.write_text(json.dumps(dump_device(rec.id, rec.geom, dataclasses.replace(rec, f0=f0))))
        assert abs(load_device(path)[1].f0 - f0) == math.ulp(f0)


class TestLoadGas:
    def test_empty_file_is_standard_air(self, tmp_path):
        path = tmp_path / "gas.json"
        path.write_text("{}")
        assert load_gas(path) == GasProperties()

    def test_every_field_read_and_scaled(self, tmp_path):
        path = tmp_path / "gas.json"
        path.write_text(json.dumps({"P_A_kPa": 50.0, "rho_kg_m3": 0.6, "mu_Ns_m2": 2e-5,
                                    "lambda_nm": 130.0}))
        assert load_gas(path) == GasProperties(P_A=50.0 * 1e3, rho=0.6, mu=2e-5,
                                               lam=130.0 * 1e-9)

    def test_partial_file_uses_air_defaults(self, tmp_path):
        path = tmp_path / "gas.json"
        path.write_text(json.dumps({"P_A_kPa": 50.0}))
        gas = load_gas(path)
        assert gas.P_A == 50e3
        assert gas.mu == 18.5e-6

    def test_nan_value_names_field(self, tmp_path):
        path = tmp_path / "gas.json"
        path.write_text(json.dumps({"lambda_nm": math.nan}))
        with pytest.raises(ConfigError, match="lambda_nm"):
            load_gas(path)


class TestCli:
    def test_regime_json(self, tmp_path, capsys):
        assert cli.run(["regime", "--device", str(DEVICES / "A.json"),
                        "--freq", "200kHz", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["compressible"] is False
        assert report["sigma_plate"] == pytest.approx(4.76, abs=0.05)

    def test_regime_text_lines_match_report(self, capsys):
        assert cli.run(["regime", "--device", str(DEVICES / "A.json"), "--freq", "200kHz"]) == 0
        lines = capsys.readouterr().out.splitlines()
        report = regime_report(load_device(DEVICES / "A.json")[0], GasProperties(), 200e3)
        assert len(lines) == 9
        assert [line.split() for line in lines] == [[k, str(v)] for k, v
                                                    in report.to_dict().items()]

    def test_damp_m5_breakdown(self, tmp_path, capsys):
        assert cli.run(["damp", "--device", str(DEVICES / "C.json"),
                        "--model", "m5", "--breakdown"]) == 0
        out = capsys.readouterr().out
        header, row = out.splitlines()[:2]
        assert header == "device,model,c_Ns_per_m,series_terms,converged"
        c = float(row.split(",")[2])
        assert c == pytest.approx(10.59e-6, rel=0.03)
        assert "R_E" in out

    def test_damp_prints_the_device_id(self, tmp_path, capsys):
        # the id is the file's `id`, and the file name's stem only where it has none
        golden = Path(__file__).parent / "golden" / "cli" / "damp_A.csv"
        data = json.loads((DEVICES / "A.json").read_text())
        (tmp_path / "foo.json").write_text(json.dumps(data))
        del data["id"]
        (tmp_path / "bar.json").write_text(json.dumps(data))
        assert cli.run(["damp", "--device", str(tmp_path / "foo.json"), "--model", "all"]) == 0
        assert capsys.readouterr().out == golden.read_text()
        assert cli.run(["damp", "--device", str(tmp_path / "bar.json"), "--model", "m1"]) == 0
        assert capsys.readouterr().out.splitlines()[1].startswith("bar,m1,")

    def test_compare_table3_passes(self, capsys):
        assert cli.run(["compare", "--table", "3"]) == 0

    def test_compare_all_deterministic(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.run(["compare", "--table", "all", "--format", "csv",
                        "--out", str(out1)]) == 0
        assert cli.run(["compare", "--table", "all", "--format", "csv",
                        "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_sweep_gap_monotone(self, tmp_path, capsys):
        assert cli.run(["sweep", "--device", str(DEVICES / "A.json"),
                        "--parameter", "h", "--start", "0.8um",
                        "--stop", "3.2um", "--steps", "5", "--models", "m3"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "param_value,model,c_Ns_per_m"
        cs = [float(line.split(",")[2]) for line in lines[1:]]
        assert len(cs) == 5
        assert cs == sorted(cs, reverse=True)

    def test_sweep_lambda_rows_equal_evaluate(self, capsys):
        # each point runs evaluate on the gas with its mean free path replaced
        assert cli.run(["sweep", "--device", str(DEVICES / "A.json"),
                        "--parameter", "lambda", "--start", "30nm",
                        "--stop", "90nm", "--steps", "3", "--models", "m1,m3"]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        geom, _ = load_device(DEVICES / "A.json")
        expected = []
        for lam in cli._linspace(parse_length("30nm"), parse_length("90nm"), 3):
            gas = dataclasses.replace(GasProperties(), lam=lam)
            expected += [[repr(lam), name, repr(res.c)]
                         for name, res in cm.evaluate(geom, gas, ("m1", "m3")).items()]
        assert rows == expected

    def test_sweep_refuses_one_step(self, capsys):
        assert cli.run(["sweep", "--device", str(DEVICES / "A.json"),
                        "--parameter", "h", "--start", "0.8um",
                        "--stop", "3.2um", "--steps", "1"]) == 1
        assert capsys.readouterr() == ("", "error: sweep needs at least 2 steps\n")

    def test_sweep_readme_example_parses(self, capsys):
        # the README's example: every model's c prints as a plain float
        assert cli.run(["sweep", "--device", str(DEVICES / "A.json"),
                        "--parameter", "h", "--start", "0.8um",
                        "--stop", "3.2um", "--steps", "5", "--models", "m3,m5"]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.strip().splitlines()[1:]]
        assert [model for _, model, _ in rows] == ["m3", "m5"] * 5
        for value, _, c in rows:
            assert float(value) > 0 and float(c) > 0

    @pytest.mark.parametrize("models, message", [
        ("m3,m9", "unknown model 'm9'"),
        ("m3,m5,m3", "repeated model 'm3'"),
    ], ids=["unknown", "repeated"])
    def test_sweep_refuses_model_list(self, monkeypatch, capsys, models, message):
        # the names are checked before m3, which refuses every point, runs
        def refuse(geom, gas):
            raise cm.ModelDomainError("M3 refused")

        monkeypatch.setitem(cm.MODELS, "m3", refuse)
        assert cli.run(["sweep", "--device", str(DEVICES / "A.json"),
                        "--parameter", "h", "--start", "0.8um",
                        "--stop", "3.2um", "--steps", "3", "--models", models]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_sweep_rejects_freq_parameter(self, capsys):
        # no model depends on the drive frequency
        assert cli.run(["sweep", "--device", str(DEVICES / "A.json"),
                        "--parameter", "freq", "--start", "100kHz",
                        "--stop", "300kHz", "--steps", "3"]) == 1

    @pytest.mark.parametrize("start,stop,message", [
        ("1um", "1e400um", "--stop must be positive and finite"),
        ("0um", "3um", "--start must be positive and finite"),
        ("3um", "1um", "sweep start must be below stop"),
    ], ids=["stop-inf", "start-zero", "start-above-stop"])
    def test_sweep_refuses_range_outside_positive(self, capsys, start, stop, message):
        assert cli.run(["sweep", "--device", str(DEVICES / "A.json"),
                        "--parameter", "h", "--start", start,
                        "--stop", stop, "--steps", "3"]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_sweep_lambda_prints_the_decimal(self, capsys):
        # the end points are parsed; the inner ones are linspace arithmetic
        assert cli.run(["sweep", "--device", str(DEVICES / "A.json"),
                        "--parameter", "lambda", "--start", "30nm",
                        "--stop", "90nm", "--steps", "3"]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert (rows[0].split(",")[0], rows[-1].split(",")[0]) == ("3e-08", "9e-08")

    def test_sweep_rejects_reversed_range(self, capsys):
        assert cli.run(["sweep", "--device", str(DEVICES / "A.json"),
                        "--parameter", "h", "--start", "2um",
                        "--stop", "1um", "--steps", "3"]) == 1

    def test_frf_extract_help_names_the_curve_header(self, capsys):
        from perfdamp import frf
        assert cli.run(["frf", "extract", "--help"]) == 0
        assert ",".join(frf.CURVE_HEADER) in capsys.readouterr().out

    def test_frf_synth_extract_round_trip(self, tmp_path):
        curve_csv = tmp_path / "curve.csv"
        result_json = tmp_path / "result.json"
        m_eff, c, k = 1e-9, 2e-5, 1.6e9 * 1e-9 * (2 * 3.141592653589793 * 200e3) ** 2 / 1.6e9
        # resonator with f0 = 200 kHz, Q = 2*pi*f0*m/c
        k = m_eff * (2 * 3.141592653589793 * 200e3) ** 2
        assert cli.run(["frf", "synth", "--meff", str(m_eff), "--damping", str(c),
                        "--stiffness", str(k), "--start", "190kHz",
                        "--stop", "210kHz", "--points", "801",
                        "--out", str(curve_csv)]) == 0
        assert curve_csv.read_text().splitlines()[0] == "freq_hz,amp_m"
        assert cli.run(["frf", "extract", "--input", str(curve_csv),
                        "--meff", str(m_eff), "--out", str(result_json)]) == 0
        res = json.loads(result_json.read_text())
        assert res["f0_hz"] == pytest.approx(200e3, rel=1e-3)
        assert res["c_Ns_per_m"] == pytest.approx(c, rel=0.02)

    def test_frf_extract_wrong_header_exit1(self, tmp_path, capsys):
        path = tmp_path / "curve.csv"
        path.write_text("f,a\n" + "".join(f"{f},1.0\n" for f in range(100, 200, 10)))
        assert cli.run(["frf", "extract", "--input", str(path)]) == 1
        assert "freq_hz,amp_m" in capsys.readouterr().err

    def test_frf_extract_missing_amplitude_exit1(self, tmp_path, capsys):
        curve_csv = tmp_path / "curve.csv"
        assert cli.run(["frf", "synth", "--meff", "1e-9", "--damping", "2e-5",
                        "--stiffness", "1.6", "--start", "5kHz", "--stop", "8kHz",
                        "--points", "101", "--out", str(curve_csv)]) == 0
        lines = curve_csv.read_text().splitlines()
        lines[31] = lines[31].split(",")[0] + ","
        curve_csv.write_text("\n".join(lines) + "\n")
        assert cli.run(["frf", "extract", "--input", str(curve_csv)]) == 1
        # the empty cell is refused with the file line it is on
        assert capsys.readouterr() == ("", "error: input CSV line 32: cell '' is not a number\n")

    def test_frf_extract_non_finite_cell_exit1(self, tmp_path, capsys):
        curve_csv = tmp_path / "curve.csv"
        assert cli.run(["frf", "synth", "--meff", "1e-9", "--damping", "2e-5",
                        "--stiffness", "1.6", "--start", "5kHz", "--stop", "8kHz",
                        "--points", "101", "--out", str(curve_csv)]) == 0
        lines = curve_csv.read_text().splitlines()
        lines[31] = lines[31].split(",")[0] + ",nan"
        curve_csv.write_text("\n".join(lines) + "\n")
        assert cli.run(["frf", "extract", "--input", str(curve_csv)]) == 1
        # named by its file line, not by its index among the samples
        assert capsys.readouterr() == (
            "", "error: input CSV line 32: cell 'nan' is not a finite number\n")

    @pytest.mark.parametrize("text,message", [
        ("", "input CSV is empty; it must have header 'freq_hz,amp_m'"),
        ("freq_hz,amp_m\n1.0,2.0\n3.0,4.0,5.0\n", "input CSV line 3: expected 2 cells, found 3"),
        ("freq_hz,amp_m\n1.0,2.0\nx,4.0\n", "input CSV line 3: cell 'x' is not a number"),
        ("freq_hz,amp_m\n1.0," + "1" * 200_000 + "\n", "input CSV line 2: field larger than "
         "field limit (131072)"),
    ], ids=["empty", "ragged", "not-a-number", "oversized-cell"])
    def test_frf_extract_malformed_file_exit1(self, tmp_path, capsys, text, message):
        # one error line naming the file line, not a numpy warning or traceback
        path = tmp_path / "curve.csv"
        path.write_text(text)
        assert cli.run(["frf", "extract", "--input", str(path)]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize("argv,name", [
        (["frf", "extract", "--input", "{curve}", "--meff", "nan"], "m_eff"),
        (["frf", "extract", "--input", "{curve}", "--meff", "inf"], "m_eff"),
        (["frf", "synth", "--meff", "1e-9", "--damping", "inf", "--stiffness", "1.6",
          "--start", "5kHz", "--stop", "8kHz", "--points", "9"], "damping"),
        (["frf", "synth", "--meff", "1e-9", "--damping", "nan", "--stiffness", "1.6",
          "--start", "5kHz", "--stop", "8kHz", "--points", "9"], "damping"),
        (["frf", "synth", "--meff", "1e-9", "--damping", "2e-5", "--stiffness", "inf",
          "--start", "5kHz", "--stop", "8kHz"], "stiffness"),
        (["frf", "synth", "--meff", "1e-9", "--damping", "2e-5", "--stiffness", "1.6",
          "--force", "nan", "--start", "5kHz", "--stop", "8kHz"], "force"),
    ], ids=["extract-meff-nan", "extract-meff-inf", "synth-damping-inf",
            "synth-damping-nan", "synth-stiffness-inf", "synth-force-nan"])
    def test_frf_non_finite_option_exit1(self, tmp_path, capsys, argv, name):
        curve_csv = tmp_path / "curve.csv"
        assert cli.run(["frf", "synth", "--meff", "1e-9", "--damping", "2e-5",
                        "--stiffness", "1.6", "--start", "5kHz", "--stop", "8kHz",
                        "--points", "101", "--out", str(curve_csv)]) == 0
        capsys.readouterr()
        assert cli.run([a.format(curve=curve_csv) for a in argv]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert name in err

    # a response that leaves the float range is refused by its frequency; numpy's
    # float warnings are errors under pytest, so one that escapes fails here
    @pytest.mark.parametrize("options,message", [
        (["--start", "0Hz"], "--start must be positive and finite"),
        (["--start=-5kHz"], "--start must be positive and finite"),
        (["--stop", "1e400"], "--stop must be positive and finite"),
        (["--start", "210kHz", "--stop", "190kHz"], "frf synth start must be below stop"),
        (["--points", "5"], "frf synth needs at least 8 points"),
        (["--meff", "1e-300", "--stiffness", "1e300", "--points", "9"],
         "response at 190000.0 Hz is out of floating-point range (amplitude 0.0)"),
        (["--damping", "1e-300", "--force", "1e308", "--start", "199kHz", "--stop", "201kHz"],
         "response at 200020.0 Hz is out of floating-point range (amplitude inf)"),
    ], ids=["start-zero", "start-negative", "stop-infinite", "reversed", "few-points",
            "response-underflow", "response-overflow"])
    def test_frf_synth_refusal_names_option(self, capsys, options, message):
        # the later of two equal options wins, so each case overrides a valid one
        argv = ["frf", "synth", *FRF_SYNTH, *options]
        assert cli.run(argv) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_frf_extract_flat_curve_exit3(self, tmp_path, capsys):
        path = tmp_path / "flat.csv"
        path.write_text("freq_hz,amp_m\n" +
                        "".join(f"{f},1.0\n" for f in range(100, 200, 10)))
        assert cli.run(["frf", "extract", "--input", str(path)]) == 3

    def test_frf_extract_peak_outside_halfpower_band_exit3(self, tmp_path, capsys):
        # jagged samples whose fitted peak lies past the right half-power crossing
        path = tmp_path / "jagged.csv"
        path.write_text("freq_hz,amp_m\n" + "".join(
            f"{f},{a}\n" for f, a in zip(range(100, 180, 10), (3, 1, 2, 6, 9, 7, 9, 4))))
        assert cli.run(["frf", "extract", "--input", str(path)]) == 3
        assert capsys.readouterr() == (
            "", "error: half-power frequencies do not bracket the peak\n")

    def test_frf_extract_nonpositive_frequency_exit1(self, tmp_path, capsys):
        # a Q = 0.75 resonance at 200 kHz sampled from -400 to 800 kHz
        m, f0, Q = 1e-9, 200e3, 0.75
        w0 = 2 * math.pi * f0
        freqs = np.linspace(-400e3, 800e3, 201)
        w = 2 * math.pi * freqs
        amps = 1e-6 / np.sqrt((m * w0**2 - m * w**2) ** 2 + (m * w0 / Q * w) ** 2)
        path = tmp_path / "curve.csv"
        path.write_text("freq_hz,amp_m\n" +
                        "".join(f"{f!r},{a!r}\n" for f, a in zip(freqs.tolist(), amps.tolist())))
        assert cli.run(["frf", "extract", "--input", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: freqs must be positive and finite\n"

    def test_dump_config_round_trip(self, tmp_path, dataset):
        out = tmp_path / "dumped.json"
        assert cli.run(["dump-config", "--device", str(DEVICES / "E.json"),
                        "--out", str(out)]) == 0
        geom, _ = load_device(out)
        assert geom == dataset["E"].geom

    def test_missing_device_file_exit1(self, capsys):
        assert cli.run(["regime", "--device", "no/such/file.json",
                        "--freq", "200kHz"]) == 1

    @pytest.mark.parametrize("argv", [
        ["frf", "extract", "--input", "{tmp}/none.csv"],
        ["compare", "--table", "3", "--out", "{tmp}/no_dir/x"],
    ], ids=["missing_input", "out_in_missing_directory"])
    def test_os_error_exit1(self, tmp_path, capsys, argv):
        assert cli.run([a.format(tmp=tmp_path) for a in argv]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_usage_error_exit1(self, capsys):
        assert cli.run(["damp", "--model", "m9"]) == 1

    @pytest.mark.parametrize("field,value", [
        ("h_um", math.nan), ("L_um", math.nan), ("h_um", math.inf),
    ])
    def test_damp_non_finite_device_exit1(self, tmp_path, capsys, field, value):
        device = _write(tmp_path, {**VALID, field: value})
        assert cli.run(["damp", "--device", device, "--model", "m5"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert field in err

    # Each device passes field validation, but deriving the plate or
    # evaluating a model leaves the float range: a tiny gap overflows x^4 of
    # the cell resistance, a tinier one underflows to a division by zero, a
    # tiny hole underflows the attenuation length's denominator, a huge plate
    # overflows the perforation ratio, a 1e104 m plate overflows M2's (2a)^3,
    # and a 1e60 m gap overflows M2's series, which the plate evaluates when it
    # is built and M2 refuses when it is called; so does an al ~ 7.7e307, which
    # overflows pi*al/2 and the series length with it. A 1e200 m plate builds
    # but overflows the plate's squeeze number. The message ends in how the
    # arithmetic left the range, not in Python's exception text.
    @pytest.mark.parametrize("fields,argv,code,message", [
        ({"h_um": 1e-84}, ["damp", "--model", "all"], cli.EXIT_USAGE,
         "device file: plate dimensions are out of floating-point range (overflow)"),
        ({"h_um": 1e-200}, ["damp"], cli.EXIT_USAGE,
         "device file: plate dimensions are out of floating-point range (division by zero)"),
        ({"s0_um": 1e-294}, ["damp", "--model", "m1"], cli.EXIT_USAGE,
         "device file: plate dimensions are out of floating-point range (division by zero)"),
        ({"L_um": 1e206, "W_um": 1e206, "s0_um": 1e205, "s1_um": 1e205, "M": 5, "N": 5},
         ["regime", "--freq", "200kHz"], cli.EXIT_USAGE,
         "device file: plate dimensions are out of floating-point range (overflow)"),
        ({"L_um": 1e110, "W_um": 1e110, "M": 5, "N": 5}, ["damp", "--model", "m2"],
         cli.EXIT_MODEL, "M2 is out of floating-point range (overflow)"),
        ({"h_um": 1e66}, ["damp", "--model", "m2"], cli.EXIT_MODEL,
         "M2 is out of floating-point range (overflow)"),
        ({"L_um": 6.6e-156, "W_um": 6.6e-156, "M": 1, "N": 1, "s0_um": 3e-156,
          "s1_um": 3e-156, "h_um": 0.02, "hc_um": 0.02}, ["damp", "--model", "m2"],
         cli.EXIT_MODEL, "M2 is out of floating-point range (overflow)"),
        ({"L_um": 1e206, "W_um": 1e206}, ["regime", "--freq", "200kHz"], cli.EXIT_MODEL,
         "regime report is out of floating-point range (overflow)"),
    ], ids=["tiny_gap", "vanishing_gap", "tiny_hole", "huge_plate", "model_overflow", "huge_gap",
            "series_length_overflow", "regime_overflow"])
    def test_out_of_float_range_one_error_line(self, tmp_path, capsys, fields, argv, code,
                                               message):
        device = _write(tmp_path, {**VALID, **fields})
        assert cli.run([*argv, "--device", device]) == code
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_compare_nan_gas_exit1(self, tmp_path, capsys):
        gas = tmp_path / "gas.json"
        gas.write_text(json.dumps({"lambda_nm": math.nan}))
        assert cli.run(["compare", "--gas", str(gas)]) == 1
        assert "lambda_nm" in capsys.readouterr().err

    # mu = 5e-324 makes every cell resistance 0; table 5 divided by it
    @pytest.mark.parametrize("table, model", [("3", "m1"), ("4", "m5"), ("5", "m5")])
    def test_compare_vanishing_viscosity_exit3(self, tmp_path, capsys, table, model):
        gas = _write(tmp_path, {"mu_Ns_m2": 5e-324}, "gas.json")
        assert cli.run(["compare", "--table", table, "--gas", gas]) == cli.EXIT_MODEL
        assert capsys.readouterr() == ("", f"error: device A: {model.upper()} "
                                       "produced a non-physical damping coefficient\n")

    def test_damp_vanishing_viscosity_exit3(self, tmp_path, capsys):
        gas = _write(tmp_path, {"mu_Ns_m2": 5e-324}, "gas.json")
        argv = ["damp", "--device", str(DEVICES / "A.json"), "--model", "all", "--gas", gas]
        assert cli.run(argv) == cli.EXIT_MODEL
        assert capsys.readouterr() == (
            "", "error: M1 produced a non-physical damping coefficient\n")

    # every cell model's refusal starts with its label; M3/M4 refuse R_p = 0
    @pytest.mark.parametrize("model, message", [
        ("m3", "M3 cell resistance must be positive and finite"),
        ("m4", "M4 cell resistance must be positive and finite"),
        ("m5", "M5 produced a non-physical damping coefficient"),
        ("m6", "M6 produced a non-physical damping coefficient"),
    ])
    def test_damp_cell_model_refusal_names_model(self, tmp_path, capsys, model, message):
        gas = _write(tmp_path, {"mu_Ns_m2": 5e-324}, "gas.json")
        argv = ["damp", "--device", str(DEVICES / "A.json"), "--model", model, "--gas", gas]
        assert cli.run(argv) == cli.EXIT_MODEL
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_compare_uses_gas_file(self, tmp_path):
        gas = tmp_path / "gas.json"
        gas.write_text(json.dumps({"lambda_nm": 30.0}))
        air, thin = tmp_path / "air.csv", tmp_path / "thin.csv"
        assert cli.run(["compare", "--format", "csv", "--out", str(air)]) == 0
        assert cli.run(["compare", "--format", "csv", "--gas", str(gas),
                        "--out", str(thin)]) in (0, 2)
        assert air.read_text() != thin.read_text()

    def test_compare_text_fields_separated(self, capsys):
        assert cli.run(["compare", "--table", "all", "--format", "text"]) == 0
        blocks = capsys.readouterr().out.strip().split("\n\n")
        assert len(blocks) == 3
        for block in blocks:
            _, head, *rows = block.splitlines()
            n_fields = len(head.split())
            assert n_fields > 1
            assert len(rows) == 6
            for row in rows:
                assert len(row.split()) == n_fields

    @pytest.mark.parametrize("gas_data,code,verdicts", [
        ({}, 0, ["within tolerance"] * 3),
        ({"mu_Ns_m2": 37e-6}, 2, ["TOLERANCE BREACH"] * 2 + ["within tolerance"]),
    ], ids=["air", "double-viscosity"])
    def test_compare_text_shows_residuals(self, tmp_path, capsys, gas_data, code, verdicts):
        gas_file = _write(tmp_path, gas_data, "gas.json")
        assert cli.run(["compare", "--format", "text", "--gas", gas_file]) == code
        gas = load_gas(gas_file)
        blocks = capsys.readouterr().out.strip().split("\n\n")
        assert len(blocks) == len(cmp.TABLES)
        for block, verdict, (key, (reproduce, published, tol, columns)) in zip(
                blocks, verdicts, cmp.TABLES.items()):
            repro = reproduce(gas)
            title, head, *rows = block.splitlines()
            assert title.startswith(f"table {key} ")
            worst = max(abs(r - p) for dev in published
                        for r, p in zip(repro[dev], published[dev]))
            assert title.endswith(f": worst |Δ| {worst:.2f} pp, tolerance {tol} pp, {verdict}")
            assert head.split() == ["device", *(n for c in columns for n in (c, "Δ" + c))]
            assert [row.split()[0] for row in rows] == list(published)
            for row in rows:
                dev, *fields = row.split()
                assert fields == [f for r, p in zip(repro[dev], published[dev])
                                  for f in (f"{r:.2f}", f"{r - p:+.2f}")]

    @pytest.mark.parametrize("argv", [
        ["frf", "synth", *FRF_SYNTH],
        ["frf", "extract", "--input", "curve.csv"],
        ["dump-config", "--device", str(DEVICES / "A.json")],
    ], ids=["frf-synth", "frf-extract", "dump-config"])
    def test_gas_refused_where_unused(self, tmp_path, capsys, argv):
        gas = tmp_path / "gas.json"
        gas.write_text(json.dumps({"lambda_nm": 30.0}))
        out = tmp_path / "out"
        assert cli.run([*argv, "--gas", str(gas), "--out", str(out)]) == 1
        assert "--gas" in capsys.readouterr().err
        assert not out.exists()

    def test_damp_refuses_slip_correct_flag(self, capsys):
        # M1/M2 are the continuum forms as published; the flag is gone
        argv = ["damp", "--device", str(DEVICES / "A.json"), "--slip-correct"]
        assert cli.run(argv) == 1
        assert "--slip-correct" in capsys.readouterr().err

    def test_frf_extract_fit_error_exit3(self, tmp_path, capsys):
        # the peak sits on the first sample, so no sample before it falls below the
        # half-power level; on the singular curve the fit's Gram matrix is singular,
        # and the fit through a lone spike dips below zero
        edge = [(100 + 10 * i, 8 - i) for i in range(8)]
        singular = zip(*(column.tolist() for column in singular_gram_curve()))
        spike = [(100 + 10 * i, 10 if i == 4 else 1) for i in range(9)]
        for rows, message in ((edge, "amplitude never falls below the half-power level"),
                              (singular, "polynomial fit is ill-conditioned"),
                              (spike, "polynomial fit has no finite peak")):
            path = tmp_path / "curve.csv"
            path.write_text("freq_hz,amp_m\n" + "".join(f"{f!r},{a!r}\n" for f, a in rows))
            assert cli.run(["frf", "extract", "--input", str(path)]) == 3
            assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_frf_extract_bandwidth_error_exit3(self, tmp_path, capsys):
        # a peak whose amplitude stays above 0.7 of its maximum on both sides
        path = tmp_path / "wide.csv"
        path.write_text("freq_hz,amp_m\n" + "".join(
            f"{100 + 10 * i},{1.0 - 0.001 * (i - 15) ** 2}\n" for i in range(31)))
        assert cli.run(["frf", "extract", "--input", str(path)]) == 3
        assert capsys.readouterr() == (
            "", "error: amplitude never falls below the half-power level\n")

    @pytest.mark.parametrize("base,option,value,message", [
        (["regime", "--device", "A"], "--freq", "-5kHz",
         "frequency must be positive and finite"),
        (["sweep", "--device", "A", "--parameter", "h", "--stop", "3um", "--steps", "3"],
         "--start", "-1um", "--start must be positive and finite"),
        (["sweep", "--device", "A", "--parameter", "h", "--start", "1um", "--stop", "3um"],
         "--steps", "-3", "sweep needs at least 2 steps"),
        (["frf", "synth", *FRF_SYNTH], "--start", "-5kHz", "--start must be positive and finite"),
        (["frf", "synth", *FRF_SYNTH], "--start", "-.5kHz", "--start must be positive and finite"),
        (["frf", "synth", *FRF_SYNTH], "--meff", "-1e-9",
         "m_eff (effective mass) must be positive and finite"),
        (["frf", "synth", *FRF_SYNTH], "--damping", "-2e-5",
         "c (damping) must be non-negative and finite"),
        (["frf", "synth", *FRF_SYNTH], "--points", "-5", "frf synth needs at least 8 points"),
        (["frf", "extract", "--input", "{curve}"], "--meff", "-1e-9",
         "m_eff (effective mass) must be positive and finite"),
    ], ids=["regime-freq", "sweep-start", "sweep-steps", "synth-start", "synth-start-dot",
            "synth-meff", "synth-damping", "synth-points", "extract-meff"])
    @pytest.mark.parametrize("joined", [False, True], ids=["spaced", "joined"])
    def test_negative_value_reaches_its_check(self, tmp_path, capsys, base, option, value,
                                              message, joined):
        # argparse alone reads "--start -5kHz" as two options; both spellings are refused alike
        curve = tmp_path / "curve.csv"
        assert cli.run(["frf", "synth", *FRF_SYNTH, "--out", str(curve)]) == 0
        base = [str(DEVICES / "A.json") if a == "A" else a.format(curve=curve) for a in base]
        argv = [*base, f"{option}={value}"] if joined else [*base, option, value]
        assert cli.run(argv) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")


class TestNumpyFree:
    def test_non_frf_subcommands_do_not_import_numpy(self, tmp_path):
        device = str(DEVICES / "A.json")
        commands = [
            ["compare", "--table", "all"],
            ["damp", "--device", device, "--model", "all", "--breakdown"],
            ["sweep", "--device", device, "--parameter", "h", "--start", "0.8um",
             "--stop", "3.2um", "--steps", "5", "--models", "m1,m2,m3,m4,m5,m6"],
            ["regime", "--device", device, "--freq", "200kHz", "--json"],
            ["dump-config", "--device", device],
        ]
        script = (
            "import json, sys\n"
            "from perfdamp.cli import run\n"
            f"for i, argv in enumerate(json.loads({json.dumps(commands)!r})):\n"
            f"    assert run([*argv, '--out', {str(tmp_path)!r} + f'/{{i}}.out']) == 0, argv\n"
            "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
        )
        src = str(Path(cli.__file__).parents[1])
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert len(list(tmp_path.glob("*.out"))) == len(commands)

    @pytest.mark.parametrize("start,stop,n", [
        (0.8e-6, 3.2e-6, 5), (1.2e-6, 2.0e-6, 3), (0.8e-6, 4.0e-6, 17),
        (1e-9, 2e-7, 7), (100e3, 300e3, 11), (190e3, 210e3, 801), (-3.0, 7.5, 1000),
        (0.0, 1.0, 2), (1.0, 3.9, 10),  # the last: (n - 1)*step + start != stop
    ])
    def test_sweep_values_match_numpy_linspace(self, start, stop, n):
        assert cli._linspace(start, stop, n) == np.linspace(start, stop, n).tolist()

    def test_frf_names_load_on_access(self):
        import perfdamp.frf
        assert perfdamp.extract is perfdamp.frf.extract
        for name in ("FrfCurve", "ExtractionResult", "synth_frf", "extract", "damping_from_q"):
            assert name in perfdamp.__all__
            assert getattr(perfdamp, name) is getattr(perfdamp.frf, name)
        with pytest.raises(AttributeError):
            perfdamp.no_such_name
