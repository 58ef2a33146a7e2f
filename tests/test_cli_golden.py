"""Byte-exact replays of CLI outputs recorded in tests/golden/cli/.

Each golden file holds what one command line wrote; the test runs it again
and compares the bytes, so any change in a printed digit fails here. To record
every golden again after an intended output change, run
``PYTHONPATH=src python tests/test_cli_golden.py``; one is its command line
with ``--out tests/golden/cli/<name>``.
"""

import json
from pathlib import Path

import pytest

from perfdamp import cli

ROOT = Path(__file__).parent.parent
GOLDEN = Path(__file__).parent / "golden" / "cli"
DEVICE_IDS = "ABCDEF"


def _cases() -> dict[str, list[str]]:
    cases = {}
    for dev in DEVICE_IDS:
        path = str(ROOT / "devices" / f"{dev}.json")
        f0_khz = json.loads(Path(path).read_text())["measured"]["f0_kHz"]
        cases[f"damp_{dev}.csv"] = ["damp", "--device", path, "--model", "all"]
        cases[f"regime_{dev}.json"] = ["regime", "--device", path, "--freq", f"{f0_khz}kHz",
                                       "--json"]
    cases["compare_all.csv"] = ["compare", "--table", "all", "--format", "csv"]
    return cases


CASES = _cases()


@pytest.mark.parametrize("name", sorted(CASES))
def test_replays_byte_for_byte(name, tmp_path):
    out = tmp_path / name
    assert cli.run([*CASES[name], "--out", str(out)]) == cli.EXIT_OK
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


def test_every_golden_has_a_case():
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(CASES)


if __name__ == "__main__":
    for name, argv in CASES.items():
        assert cli.run([*argv, "--out", str(GOLDEN / name)]) == cli.EXIT_OK, name
