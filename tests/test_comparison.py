import csv
import math
from pathlib import Path

import pytest

from perfdamp import compact_models as cm
from perfdamp import comparison as cmp

GOLDEN = Path(__file__).parent / "golden"


def _load_golden(name):
    with open(GOLDEN / name, newline="") as fh:
        rows = list(csv.reader(fh))
    return {row[0]: tuple(float(v) for v in row[1:]) for row in rows[1:]}


class TestDataset:
    def test_shape(self):
        records = cmp.builtin_dataset()
        assert len(records) == 6
        assert [r.id for r in records] == list("ABCDEF")

    def test_fresh_list_of_the_same_records(self):
        first, second = cmp.builtin_dataset(), cmp.builtin_dataset()
        assert first is not second
        assert all(a is b for a, b in zip(first, second, strict=True))

    def test_record_a(self, dataset):
        rec = dataset["A"]
        assert rec.c_m == 47.38e-6
        assert rec.f0 == 201.637e3
        assert rec.alpha == 0.918

    def test_record_f_geometry(self, dataset):
        geom = dataset["F"].geom
        assert geom.L == pytest.approx(363.8e-6)
        assert geom.W == pytest.approx(243.8e-6)
        assert (geom.M, geom.N) == (36, 24)

    def test_common_heights(self, dataset):
        for rec in dataset.values():
            assert rec.geom.h == 1.6e-6
            assert rec.geom.h_c == 15e-6


class TestRelativeError:
    def test_exact_model(self):
        assert cmp.relative_error(47.38e-6, 47.38e-6) == 0.0

    def test_type_a_m1(self):
        assert cmp.relative_error(36.23e-6, 47.38e-6) == pytest.approx(-23.53, abs=0.01)

    def test_zero_model(self):
        assert cmp.relative_error(0.0, 1.0) == -100.0

    @pytest.mark.parametrize("c_m", [math.nan, math.inf, -math.inf, 0.0, -1.0],
                             ids=["nan", "inf", "-inf", "zero", "negative"])
    def test_refuses_measured_outside_positive_finite(self, c_m):
        with pytest.raises(ValueError, match="measured damping"):
            cmp.relative_error(1.0, c_m)


class TestMeasuredRecord:
    @pytest.mark.parametrize("field", ["c_m", "f0"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0, -1.0],
                             ids=["nan", "inf", "-inf", "zero", "negative"])
    def test_refuses_measurement_outside_positive_finite(self, dataset, field, value):
        rec = dataset["A"]
        kwargs = {"id": "X", "geom": rec.geom, "c_m": rec.c_m, "f0": rec.f0, "alpha": rec.alpha}
        kwargs[field] = value
        with pytest.raises(ValueError, match=f"^{field} must be"):
            cmp.MeasuredRecord(**kwargs)

    @pytest.mark.parametrize("alpha", [math.nan, 0.0, 1.5])
    def test_refuses_mass_ratio_outside_unit_interval(self, dataset, alpha):
        rec = dataset["A"]
        with pytest.raises(ValueError, match=r"^alpha must be in \(0, 1\]$"):
            cmp.MeasuredRecord("X", rec.geom, rec.c_m, rec.f0, alpha)


class TestTableReproduction:
    def test_table3_matches_golden(self, gas):
        repro = cmp.reproduce_table3(gas)
        golden = _load_golden("table3.csv")
        for dev, published in golden.items():
            for got, want in zip(repro[dev], published):
                assert got == pytest.approx(want, abs=cmp.TABLE3_TOL_PP)
                assert (got < 0) == (want < 0)

    def test_table4_matches_golden(self, gas):
        repro = cmp.reproduce_table4(gas)
        golden = _load_golden("table4.csv")
        for dev, published in golden.items():
            for got, want in zip(repro[dev], published):
                assert got == pytest.approx(want, abs=cmp.TABLE4_TOL_PP)
                assert (got < 0) == (want < 0)

    def test_table5_matches_golden(self, gas):
        repro = cmp.reproduce_table5(gas)
        golden = _load_golden("table5.csv")
        for dev, published in golden.items():
            for got, want in zip(repro[dev], published):
                assert got == pytest.approx(want, abs=cmp.TABLE5_TOL_PP)

    def test_table5_rows_normalized(self, gas):
        for row in cmp.reproduce_table5(gas).values():
            assert sum(row) == pytest.approx(100.0, abs=0.01)

    def test_table5_e_f_identical(self, gas):
        repro = cmp.reproduce_table5(gas)
        assert repro["E"] == repro["F"]

    def test_systematic_underestimate(self, gas):
        cells = [v for row in cmp.reproduce_table3(gas).values() for v in row]
        mean = sum(cells) / len(cells)
        assert -20.0 < mean < -10.0

    def test_within_tolerance_helper(self):
        pub = {"A": (1.0, 2.0)}
        assert cmp.within_tolerance({"A": (1.5, 2.5)}, pub, 1.0)
        assert not cmp.within_tolerance({"A": (1.5, 3.5)}, pub, 1.0)

    def test_within_tolerance_nan_cell_is_a_breach(self):
        pub = {"A": (1.0, 2.0), "B": (3.0,)}
        assert not cmp.within_tolerance({"A": (1.0, math.nan), "B": (3.0,)}, pub, 1.0)
        assert not cmp.within_tolerance({"A": (1.0, 2.0), "B": (math.nan,)}, pub, 1.0)

    def test_within_tolerance_cell_at_the_edge_passes(self):
        pub = {"A": (1.0, -2.0)}
        assert cmp.within_tolerance({"A": (1.5, -2.5)}, pub, 0.5)
        assert not cmp.within_tolerance({"A": (1.5, -2.5)}, pub, 0.4999999)

    def test_within_tolerance_missing_device_raises(self):
        with pytest.raises(KeyError, match="B"):
            cmp.within_tolerance({"A": (1.0,)}, {"A": (1.0,), "B": (2.0,)}, 1.0)

    def test_model_domain_error_names_device_and_model(self, gas, monkeypatch):
        # the device is the table's context; the model's label is in its own message
        def refuse(geom, gas):
            raise cm.ModelDomainError("M2 refused")

        monkeypatch.setitem(cm.MODELS, "m2", refuse)
        with pytest.raises(cm.ModelDomainError, match=r"^device A: M2 refused$") as info:
            cmp.reproduce_table3(gas)
        assert type(info.value.__cause__) is cm.ModelDomainError

    @pytest.mark.parametrize("model", list(cm.MODELS))
    def test_tables_run_the_models_entry(self, gas, monkeypatch, model):
        # a replaced MODELS entry (a wrapper, a test double) is the one that runs
        monkeypatch.setitem(cm.MODELS, model, lambda geom, gas: cm.ModelResult(model, 1e-6))
        if model in cmp.TABLE3_MODELS:
            table, col = cmp.reproduce_table3(gas), cmp.TABLE3_MODELS.index(model)
        else:
            table, col = cmp.reproduce_table4(gas), cmp.TABLE4_MODELS.index(model)
        for rec in cmp.builtin_dataset():
            assert table[rec.id][col] == 100.0 * (1e-6 - rec.c_m) / rec.c_m
