import json
from pathlib import Path

import pytest

from perfdamp import cli
from perfdamp.config import (
    ConfigError,
    dump_device,
    load_device,
    load_gas,
    parse_frequency,
    parse_length,
)

DEVICES = Path(__file__).parent.parent / "devices"

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
        ("2m", 2.0), ("1.6e-6", 1.6e-6),
    ])
    def test_lengths(self, text, expected):
        assert parse_length(text) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("text,expected", [
        ("200kHz", 200e3), ("1.2MHz", 1.2e6), ("500", 500.0), ("50Hz", 50.0),
    ])
    def test_frequencies(self, text, expected):
        assert parse_frequency(text) == pytest.approx(expected, rel=1e-12)

    def test_bad_suffix(self):
        with pytest.raises(ConfigError, match="suffix"):
            parse_length("3parsec")

    def test_garbage(self):
        with pytest.raises(ConfigError):
            parse_frequency("fast")


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

    def test_round_trip(self, tmp_path, dataset):
        rec = dataset["B"]
        path = _write(tmp_path, dump_device(rec.geom, rec))
        geom, measured = load_device(path)
        assert geom == rec.geom
        assert measured.c_m == rec.c_m


class TestLoadGas:
    def test_partial_file_uses_air_defaults(self, tmp_path):
        path = tmp_path / "gas.json"
        path.write_text(json.dumps({"P_A_kPa": 50.0}))
        gas = load_gas(path)
        assert gas.P_A == 50e3
        assert gas.mu == 18.5e-6


class TestCli:
    def test_regime_json(self, tmp_path, capsys):
        assert cli.run(["regime", "--device", str(DEVICES / "A.json"),
                        "--freq", "200kHz", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["compressible"] is False
        assert report["sigma_plate"] == pytest.approx(4.76, abs=0.05)

    def test_damp_m5_breakdown(self, tmp_path, capsys):
        assert cli.run(["damp", "--device", str(DEVICES / "C.json"),
                        "--model", "m5", "--breakdown"]) == 0
        out = capsys.readouterr().out
        header, row = out.splitlines()[:2]
        assert header == "device,model,c_Ns_per_m,series_terms,converged"
        c = float(row.split(",")[2])
        assert c == pytest.approx(10.59e-6, rel=0.03)
        assert "R_E" in out

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

    def test_sweep_readme_example_parses(self, capsys):
        # the README's example: every model's c prints as a plain float
        assert cli.run(["sweep", "--device", str(DEVICES / "A.json"),
                        "--parameter", "h", "--start", "0.8um",
                        "--stop", "3.2um", "--steps", "5", "--models", "m3,m5"]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.strip().splitlines()[1:]]
        assert [model for _, model, _ in rows] == ["m3", "m5"] * 5
        for value, _, c in rows:
            assert float(value) > 0 and float(c) > 0

    def test_sweep_rejects_reversed_range(self, capsys):
        assert cli.run(["sweep", "--device", str(DEVICES / "A.json"),
                        "--parameter", "h", "--start", "2um",
                        "--stop", "1um", "--steps", "3"]) == 1

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

    def test_frf_extract_flat_curve_exit3(self, tmp_path, capsys):
        path = tmp_path / "flat.csv"
        path.write_text("freq_hz,amp_m\n" +
                        "".join(f"{f},1.0\n" for f in range(100, 200, 10)))
        assert cli.run(["frf", "extract", "--input", str(path)]) == 3

    def test_dump_config_round_trip(self, tmp_path, dataset):
        out = tmp_path / "dumped.json"
        assert cli.run(["dump-config", "--device", str(DEVICES / "E.json"),
                        "--out", str(out)]) == 0
        geom, _ = load_device(out)
        assert geom == dataset["E"].geom

    def test_missing_device_file_exit1(self, capsys):
        assert cli.run(["regime", "--device", "no/such/file.json",
                        "--freq", "200kHz"]) == 1

    def test_usage_error_exit1(self, capsys):
        assert cli.run(["damp", "--model", "m9"]) == 1
