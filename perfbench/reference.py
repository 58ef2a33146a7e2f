"""Quality checks run once per benchmark run, after the timed loop.

- Table slack: reproduced tables 3/4/5 against ``tests/golden``.
- Series error: M2, M3 and M4 on devices A-F against brute-force references
  computed here, independent of the package's term grid and adaptive loops.
- Q error: extraction error over a fixed number of generated FRF curves.
"""

from __future__ import annotations

import math

import numpy as np

from workloads import Frf, read_golden, table_slack

# Odd-index caps of the brute-force border sums. The truncated tail falls
# 8x per doubling of the cap, so S(K2) + (S(K2) - S(K1))/7 removes its leading
# term; on A-F the extrapolation from (2001, 4001) agrees with the one from
# (4001, 8001) to about 1e-11 relative.
BORDER_CAPS = (2001, 4001)
BORDER_BLOCK = 128
# Odd indices of the brute-force M2 sum; its terms fall as n^-6.
M2_TERMS = 100_000
Q_CURVES = 200


def border_reference(geom, gas, R_p: float) -> float:
    """Border-coupled damping double series, summed over odd m, n up to each
    cap in row blocks and Richardson-extrapolated in the cap."""
    h, mu = geom.h, gas.mu
    K_ch = gas.lam / h
    edge = 1.3 * (1 + 3.3 * K_ch) * h
    a, b = geom.W + edge, geom.L + edge
    g = math.pi**6 * h**3 * (1 + 6 * K_ch) / (768 * mu * a * b)
    inv_r = math.pi**4 / (64 * geom.M * geom.N * R_p)

    def partial(cap):
        n2 = np.arange(1, cap + 1, 2, dtype=float) ** 2
        row = g * n2 / b**2 + inv_r
        total = 0.0
        for i in range(0, n2.size, BORDER_BLOCK):
            m2 = n2[i:i + BORDER_BLOCK, None]
            total += float((1.0 / (m2 * n2 * (g * m2 / a**2 + row))).sum())
        return total

    s1, s2 = (partial(cap) for cap in BORDER_CAPS)
    return s2 + (s2 - s1) / 7.0


def m2_reference(geom, gas, d) -> float:
    """Model M2 with its shape-factor series summed over a fixed, long range
    of odd indices, smallest terms first."""
    beta, r_0, h = d.beta, d.r_0, geom.h
    a, b = geom.W / 2, geom.L / 2
    kappa = a / b
    K = 4 * beta**2 - beta**4 - 4 * math.log(beta) - 3
    H_eff = geom.h_c + 3 * math.pi * r_0 / 8
    eta = 1 + 3 * r_0**4 * K / (16 * H_eff * h**3)
    al = math.sqrt(2 * h**3 * H_eff * eta / (3 * beta**2 * r_0**2)) / a
    n = np.arange(2 * M2_TERMS - 1, 0, -2, dtype=float)
    t = 1 + (n * math.pi * al / 2) ** 2
    s = math.fsum((np.tanh(np.sqrt(t) / (al * kappa)) / (n**2 * t**2)).tolist())
    gamma = (3 * al**2 - 6 * al**3 * math.sinh(1 / al) ** 2 / math.sinh(2 / al)
             - 24 * al**3 * kappa / math.pi**2 * s)
    return gamma * gas.mu * (2 * a) ** 3 * (2 * b) / h**3


def series_errors() -> dict[str, float]:
    """|c_model / c_reference - 1| for M2, M3 and M4 on each reference device."""
    from perfdamp import comparison, compact_models as cm, flow_regime, geometry
    gas = flow_regime.GasProperties()
    out = {}
    for rec in comparison.builtin_dataset():
        geom = rec.geom
        refs = {
            "m2": m2_reference(geom, gas, geometry.derive_geometry(geom)),
            "m3": border_reference(geom, gas, cm.cell_resistance_circular(geom, gas).R_p),
            "m4": border_reference(geom, gas, cm.cell_resistance_square(geom, gas).R_p),
        }
        for model, ref in refs.items():
            out[f"{rec.id}.{model}"] = abs(cm.MODELS[model](geom, gas).c / ref - 1.0)
    return out


def tables_slack(root) -> float:
    from perfdamp import comparison, flow_regime
    gas = flow_regime.GasProperties()
    tables = {"3": comparison.reproduce_table3(gas), "4": comparison.reproduce_table4(gas),
              "5": comparison.reproduce_table5(gas)}
    return table_slack(tables, read_golden(root))


def q_errors(root, seed: int) -> list[float]:
    """Q extraction error, the bias of the procedure, on the first Q_CURVES
    curves the frf workload generates for this seed, without their noise."""
    wl = Frf(root, seed)
    errs = []
    for _ in range(Q_CURVES):
        clean = wl.next_input()[:-1] + (1.0,)
        errs.append(wl.q_error(clean, wl.run(clean)))
    return errs
