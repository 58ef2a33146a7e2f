"""Byte-exact replay of the per-plate and gas stages on the design points of
test_models_golden, tests/golden/stages_design.csv.

Each row holds the device id, every flat DerivedGeometry field (selected by
name, so a new per-plate field adds a column and a dropped one drops its
column) and the nested circular- and square-cell factors, both cell
resistances' six components and percentages(), a drive frequency drawn from
its own seeded stream and the regime_report at that frequency, all as repr.
The models' goldens show these values only through the six damping
coefficients and two R_p; here a change in any last digit of a stage fails. To record the
file again after an intended output change, run
``PYTHONPATH=src python tests/test_stages_golden.py``.
"""

import random
from pathlib import Path

from perfdamp import compact_models as cm
from perfdamp.flow_regime import RegimeReport, regime_report
from perfdamp.geometry import DerivedGeometry

from test_models_golden import assert_replays, design_points

GOLDEN = Path(__file__).parent / "golden" / "stages_design.csv"
FREQ_SEED = 20081
F_RANGE = (130e3, 220e3)
_COMPONENTS = ("S", "IS", "IB", "IC", "C", "E")
_NESTED = ("circular", "square")
_FLAT = tuple(name for name in DerivedGeometry._fields if name not in _NESTED)

HEADER = ",".join([
    "device",
    *_FLAT,
    *(f"circular.{name}" for name in cm.CircularCellFactors._fields),
    *(f"square.{name}" for name in cm.SquareCellFactors._fields),
    *(f"{cell}.{kind}_{name}" for cell in _NESTED
      for kind in ("scaled", "pct") for name in _COMPONENTS),
    "f",
    *RegimeReport._fields,
])


def render() -> str:
    rng = random.Random(FREQ_SEED)
    lines = [HEADER]
    for dev, g, gas in design_points():
        d = g.derived
        f = rng.uniform(*F_RANGE)
        row = [dev, *(getattr(d, name) for name in _FLAT), *d.circular, *d.square]
        for br in (cm.cell_resistance_circular(g, gas), cm.cell_resistance_square(g, gas)):
            row += [*br[:6], *br.percentages()]
        row += [f, *regime_report(g, gas, f)]
        lines.append(",".join(v if isinstance(v, str) else repr(v) for v in row))
    return "\n".join(lines) + "\n"


def test_replays_byte_for_byte():
    assert_replays(render(), GOLDEN)


if __name__ == "__main__":
    GOLDEN.write_text(render(), encoding="utf-8")
