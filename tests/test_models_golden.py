"""Byte-exact replay of M1-M6 on seeded design points, tests/golden/models_design.csv.

The points perturb devices A-F in s0, s1, h, h_c, the hole counts and the
mean free path. Each row holds the inputs, then the six damping
coefficients, the circular- and square-cell R_p and M2's series length, all
as repr, so a change in any last digit fails here. To record the file again
after an intended output change, run
``PYTHONPATH=src python tests/test_models_golden.py``.
"""

import dataclasses
import math
import random
from pathlib import Path

from perfdamp import compact_models as cm
from perfdamp.comparison import builtin_dataset
from perfdamp.flow_regime import GasProperties

GOLDEN = Path(__file__).parent / "golden" / "models_design.csv"
POINTS = 300
SEED = 20080


def _log_uniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def design_points():
    """(device id, geometry, gas) for POINTS seeded perturbations of A-F."""
    rng = random.Random(SEED)
    bases = [(rec.id, rec.geom) for rec in builtin_dataset()]
    for _ in range(POINTS):
        dev, g = rng.choice(bases)
        s0 = g.s0 * _log_uniform(rng, 0.7, 1.4)
        s1 = g.s1 * _log_uniform(rng, 0.7, 1.4)
        pitch = s0 + s1
        M = max(1, min(int(1.1 * g.L / pitch), round(g.M * _log_uniform(rng, 0.5, 1.5))))
        N = max(1, min(int(1.1 * g.W / pitch), round(g.N * _log_uniform(rng, 0.5, 1.5))))
        geom = dataclasses.replace(g, s0=s0, s1=s1, M=M, N=N,
                                   h=g.h * _log_uniform(rng, 0.25, 4.0),
                                   h_c=g.h_c * _log_uniform(rng, 0.5, 2.0))
        yield dev, geom, GasProperties(lam=65e-9 * _log_uniform(rng, 0.3, 3.0))


HEADER = ("device,L,W,M,N,s0,s1,h,h_c,lam,c_m1,c_m2,c_m3,c_m4,c_m5,c_m6,"
          "R_p_circular,R_p_square,m2_series_terms")


def render() -> str:
    lines = [HEADER]
    for dev, g, gas in design_points():
        res = {key: fn(g, gas) for key, fn in cm.MODELS.items()}
        row = [dev, g.L, g.W, g.M, g.N, g.s0, g.s1, g.h, g.h_c, gas.lam,
               *(r.c for r in res.values()),
               res["m5"].breakdown.R_p, res["m6"].breakdown.R_p, res["m2"].series_terms]
        lines.append(",".join(v if isinstance(v, str) else repr(v) for v in row))
    return "\n".join(lines) + "\n"


def test_replays_byte_for_byte():
    assert render().encode() == GOLDEN.read_bytes()


if __name__ == "__main__":
    GOLDEN.write_text(render(), encoding="utf-8")
