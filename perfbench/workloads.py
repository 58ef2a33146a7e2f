"""The benchmark's four workloads.

Each workload is built from the checkout root and a seed, and offers:

- ``next_input()``: the next generated input (not timed);
- ``run(inp)``: one operation on the package, the timed part;
- ``check(inp, out)``: the correctness check of that operation's output,
  raising ``CheckFailed``;
- ``shares()``: the share of operations so far that have the input property
  an optimisation would target;
- ``close()``: release what the workload holds.

A workload imports perfdamp when it is built, so that the set-up probe
counts the import as set-up time.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

# Reproduction tolerances of the published tables, in percentage points. Kept
# here rather than read from the package, so that loosening the package's
# gate does not loosen the benchmark's check.
TABLE_TOL_PP = {"3": 3.0, "4": 3.0, "5": 2.0}
# Border series length of the shortest cap (251 odd indices squared).
SHORT_BORDER_TERMS = 63_001
FRF_POINTS = 801
FRF_NOISE = 1e-3
FRF_Q_RANGE = (5.0, 500.0)
FRF_Q_STRATA = 200
FRF_F0_RANGE = (130e3, 230e3)
FRF_LOW_Q = 20.0
FRF_Q_TOL = 0.05
# Peak frequency tolerance, as a share of the half-power bandwidth f0/Q.
FRF_F0_TOL = 0.02
CHILD_TIMEOUT_S = 60.0
# The cli workload's sweep runs the CLI's default model, m3. A sweep that
# includes m1, m2, m5 or m6 prints np.float64(...) reprs under numpy 2
# (see Cli.sweep_repr_defect), which no CSV reader parses.
SWEEP_ARGS = ("--parameter", "h", "--start", "1.2um", "--stop", "2.0um", "--steps", "3",
              "--models", "m3")


class CheckFailed(Exception):
    """An operation's output failed its correctness check."""


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def _log_uniform(rng, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def read_golden(root: Path) -> dict[str, dict[str, tuple[float, ...]]]:
    """Published tables 3/4/5 from tests/golden/table*.csv, keyed by device."""
    out = {}
    for key in TABLE_TOL_PP:
        lines = (root / "tests" / "golden" / f"table{key}.csv").read_text().split()
        out[key] = {row.split(",")[0]: tuple(float(v) for v in row.split(",")[1:])
                    for row in lines[1:]}
    return out


def table_slack(tables: dict, golden: dict) -> float:
    """Smallest distance, in pp, between a reproduced cell and its tolerance
    edge; negative when a cell is outside its tolerance."""
    slack = math.inf
    for key, published in golden.items():
        _require(set(tables[key]) == set(published), f"table {key} devices differ")
        for dev, row in published.items():
            _require(len(tables[key][dev]) == len(row), f"table {key} row {dev} length")
            for r, p in zip(tables[key][dev], row):
                _require(math.isfinite(r), f"table {key} row {dev} not finite")
                slack = min(slack, TABLE_TOL_PP[key] - abs(r - p))
    return slack


def _check_regime(rep) -> None:
    _require(all(math.isfinite(v) for v in (rep.K_ch, rep.K_hole, rep.sigma_plate,
                                             rep.sigma_cell, rep.Re)),
             "regime numbers not finite")


class Tables:
    """One operation is a full validation pass: tables 3, 4 and 5 plus the
    regime report of each reference device at its measured f0."""

    name = "tables"
    tail_pct = 99.0
    in_process = True

    def __init__(self, root: Path, seed: int):
        from perfdamp import comparison, flow_regime
        self.comparison, self.flow_regime = comparison, flow_regime
        self.gas = flow_regime.GasProperties()
        self.records = comparison.builtin_dataset()
        self.golden = read_golden(root)
        self.ops = 0

    def next_input(self):
        return None

    def run(self, inp):
        cmp = self.comparison
        tables = {"3": cmp.reproduce_table3(self.gas), "4": cmp.reproduce_table4(self.gas),
                  "5": cmp.reproduce_table5(self.gas)}
        reports = [self.flow_regime.regime_report(r.geom, self.gas, r.f0) for r in self.records]
        return tables, reports

    def check(self, inp, out):
        tables, reports = out
        _require(table_slack(tables, self.golden) >= 0, "table cell outside tolerance")
        cmp = self.comparison
        for key, published, tol in (("3", cmp.PUBLISHED_TABLE3, cmp.TABLE3_TOL_PP),
                                    ("4", cmp.PUBLISHED_TABLE4, cmp.TABLE4_TOL_PP),
                                    ("5", cmp.PUBLISHED_TABLE5, cmp.TABLE5_TOL_PP)):
            _require(cmp.within_tolerance(tables[key], published, tol),
                     f"table {key} fails the package's tolerance gate")
        for rep in reports:
            _check_regime(rep)
            _require(not rep.compressible and not rep.inertial,
                     "reference device flagged compressible or inertial")
        self.ops += 1

    def shares(self):
        return {"repeated_input_share": 1.0 if self.ops else 0.0}

    def close(self):
        pass


class DesignSweep:
    """One operation is one generated design point evaluated by all six
    models plus the regime report. Points perturb devices A-F in h, s0, s1,
    h_c, lambda and the hole counts, inside the geometry envelope; no two
    points share inputs."""

    name = "design_sweep"
    tail_pct = 99.0
    in_process = True

    def __init__(self, root: Path, seed: int):
        from perfdamp import compact_models, comparison, flow_regime
        self.models, self.flow_regime = compact_models.MODELS, flow_regime
        self.bases = [r.geom for r in comparison.builtin_dataset()]
        self.rng = random.Random(seed)
        self.ops = 0
        self.long_series = 0

    def next_input(self):
        rng = self.rng
        g = rng.choice(self.bases)
        s0 = g.s0 * _log_uniform(rng, 0.8, 1.25)
        s1 = g.s1 * _log_uniform(rng, 0.8, 1.25)
        pitch = s0 + s1
        # hole counts stay inside the package's grid-fit envelope (10 % slack)
        M = max(1, min(int(1.1 * g.L / pitch), round(g.M * _log_uniform(rng, 0.8, 1.25))))
        N = max(1, min(int(1.1 * g.W / pitch), round(g.N * _log_uniform(rng, 0.8, 1.25))))
        geom = dataclasses.replace(g, s0=s0, s1=s1, M=M, N=N,
                                   h=g.h * _log_uniform(rng, 0.5, 2.0),
                                   h_c=g.h_c * _log_uniform(rng, 0.7, 1.4))
        gas = self.flow_regime.GasProperties(lam=65e-9 * _log_uniform(rng, 0.7, 1.5))
        return geom, gas, rng.uniform(*FRF_F0_RANGE)

    def run(self, inp):
        geom, gas, f = inp
        res = {key: fn(geom, gas) for key, fn in self.models.items()}
        return res, self.flow_regime.regime_report(geom, gas, f)

    def check(self, inp, out):
        geom = inp[0]
        res, rep = out
        for key, r in res.items():
            _require(math.isfinite(r.c) and r.c > 0, f"{key}: c not finite and positive")
        c = {key: r.c for key, r in res.items()}
        _require(res["m5"].breakdown.R_p == res["m3"].breakdown.R_p, "m3/m5 cell differ")
        _require(res["m6"].breakdown.R_p == res["m4"].breakdown.R_p, "m4/m6 cell differ")
        _require(c["m5"] == geom.M * geom.N * res["m5"].breakdown.R_p, "c_m5 != M*N*R_p")
        _require(c["m6"] == geom.M * geom.N * res["m6"].breakdown.R_p, "c_m6 != M*N*R_p")
        # border leakage only lowers damping
        _require(0 < c["m3"] < c["m5"], "c_m3 not in (0, c_m5)")
        _require(0 < c["m4"] < c["m6"], "c_m4 not in (0, c_m6)")
        _check_regime(rep)
        self.ops += 1
        self.long_series += max(res["m3"].series_terms, res["m4"].series_terms) > SHORT_BORDER_TERMS

    def shares(self):
        return {"long_border_series_share": self.long_series / max(self.ops, 1)}

    def close(self):
        pass


class Frf:
    """One operation synthesises one generated resonance curve, adds seeded
    amplitude noise and extracts f0, Q and c from it."""

    name = "frf"
    tail_pct = 99.0
    in_process = True

    def __init__(self, root: Path, seed: int):
        import numpy as np
        from perfdamp import frf
        self.np, self.frf = np, frf
        self.rng = np.random.default_rng(seed)
        self.ops = 0
        self.low_q = 0
        self._q_block: list[float] = []

    def _next_q(self) -> float:
        """Q drawn log-uniformly, stratified: each block of FRF_Q_STRATA curves
        has one Q in each equal log-width stratum, in seeded order, so every
        block covers the low-Q end where extraction error is largest."""
        if not self._q_block:
            lo, hi = (math.log(q) for q in FRF_Q_RANGE)
            u = (self.np.arange(FRF_Q_STRATA) + self.rng.random(FRF_Q_STRATA)) / FRF_Q_STRATA
            self._q_block = self.rng.permutation(self.np.exp(lo + u * (hi - lo))).tolist()
        return self._q_block.pop()

    def next_input(self):
        rng, np = self.rng, self.np
        Q = self._next_q()
        f0 = rng.uniform(*FRF_F0_RANGE)
        m_eff = 1e-9 * math.exp(rng.uniform(-1.0, 1.0))
        w0 = 2 * math.pi * f0
        bw = f0 / Q
        freqs = np.linspace(f0 - 3 * bw, f0 + 3 * bw, FRF_POINTS)
        noise = 1.0 + FRF_NOISE * rng.standard_normal(FRF_POINTS)
        return Q, f0, m_eff, m_eff * w0 / Q, m_eff * w0**2, freqs, noise

    def run(self, inp):
        Q, f0, m_eff, c, k, freqs, noise = inp
        curve = self.frf.synth_frf(m_eff, c, k, 1e-6, freqs)
        noisy = self.frf.FrfCurve(freqs=freqs, amps=curve.amps * noise)
        return self.frf.extract(noisy, m_eff=m_eff)

    @staticmethod
    def q_error(inp, res) -> float:
        return abs(res.Q / inp[0] - 1.0)

    def check(self, inp, res):
        Q, f0, m_eff, c = inp[:4]
        _require(all(math.isfinite(v) for v in (res.f0, res.Q, res.c)), "non-finite result")
        _require(self.q_error(inp, res) <= FRF_Q_TOL, "Q off by more than 5 %")
        _require(abs(res.c / c - 1.0) <= FRF_Q_TOL, "c off by more than 5 %")
        f_peak = f0 * math.sqrt(1.0 - 0.5 / Q**2)
        _require(abs(res.f0 - f_peak) <= FRF_F0_TOL * f0 / Q, "f0 off the amplitude peak")
        self.ops += 1
        self.low_q += Q < FRF_LOW_Q

    def shares(self):
        return {"low_q_share": self.low_q / max(self.ops, 1)}

    def close(self):
        pass


class Cli:
    """One operation is one cold ``perfdamp`` process, from a seeded mix of
    compare, damp, sweep, regime and frf extract. Every block of five
    operations runs each kind once, so the mix is the same for every seed.

    The child is ``cli_child.py``, the console script's equivalent, which
    also reports its peak memory and, with a tracer set, its span totals."""

    name = "cli"
    tail_pct = 90.0
    in_process = False
    KINDS = ("compare", "damp", "sweep", "regime", "frf")
    DEVICES = "ABCDEF"

    def __init__(self, root: Path, seed: int):
        import numpy as np
        from perfdamp import comparison, compact_models, config, flow_regime, frf
        self.root = root
        self.rng = random.Random(seed)
        self.tracer = None
        self.children = []  # (wall s, inside s, numpy import s, package import s)
        self.ops = 0
        self.max_rss_kb = 0
        self.kind_counts = dict.fromkeys(self.KINDS, 0)
        self._queue: list[str] = []
        self.tmp = root / ".perfbench_tmp" / f"cli-{os.getpid()}"
        self.tmp.mkdir(parents=True, exist_ok=True)
        self.env = child_env(root)

        # FRF input whose resonance lies inside the swept band
        Q = _log_uniform(self.rng, 20.0, 200.0)
        f0 = self.rng.uniform(*FRF_F0_RANGE)
        m_eff = 1e-9
        w0 = 2 * math.pi * f0
        freqs = np.linspace(f0 - 3 * f0 / Q, f0 + 3 * f0 / Q, FRF_POINTS)
        curve = frf.synth_frf(m_eff, m_eff * w0 / Q, m_eff * w0**2, 1e-6, freqs)
        self.curve_path = self.tmp / "curve.csv"
        self.curve_path.write_text("freq_hz,amp_m\n" + "".join(
            f"{f!r},{a!r}\n" for f, a in zip(curve.freqs.tolist(), curve.amps.tolist())))
        res = frf.extract(curve, m_eff=m_eff)

        gas = flow_regime.GasProperties()
        self.expected = {("frf", ""): {"f0_hz": res.f0, "Q": res.Q, "f1_hz": res.f1,
                                       "f2_hz": res.f2, "c_Ns_per_m": res.c}}
        tables = {"3": comparison.reproduce_table3(gas), "4": comparison.reproduce_table4(gas),
                  "5": comparison.reproduce_table5(gas)}
        self.expected[("compare", "")] = {(k, dev): list(row) for k, t in tables.items()
                                          for dev, row in t.items()}
        start, stop = config.parse_length(SWEEP_ARGS[3]), config.parse_length(SWEEP_ARGS[5])
        self.freqs = {}
        for dev in self.DEVICES:
            path = root / "devices" / f"{dev}.json"
            geom, _ = config.load_device(path)
            self.freqs[dev] = f"{json.loads(path.read_text())['measured']['f0_kHz']!r}kHz"
            self.expected[("damp", dev)] = {
                key: (r.c, r.series_terms) for key, r in
                ((key, fn(geom, gas)) for key, fn in compact_models.MODELS.items())}
            self.expected[("sweep", dev)] = [
                (float(v), "m3", compact_models.MODELS["m3"](dataclasses.replace(geom, h=v), gas).c)
                for v in np.linspace(start, stop, int(SWEEP_ARGS[7]))]
            f = config.parse_frequency(self.freqs[dev])
            self.expected[("regime", dev)] = flow_regime.regime_report(geom, gas, f).to_dict()

    def _args(self, kind: str, dev: str) -> list[str]:
        device = f"devices/{dev}.json"
        if kind == "compare":
            return ["compare", "--table", "all", "--format", "csv"]
        if kind == "damp":
            return ["damp", "--device", device, "--model", "all"]
        if kind == "sweep":
            return ["sweep", "--device", device, *SWEEP_ARGS]
        if kind == "regime":
            return ["regime", "--device", device, "--freq", self.freqs[dev], "--json"]
        return ["frf", "extract", "--input", str(self.curve_path), "--meff", "1e-09"]

    def next_input(self):
        if not self._queue:
            self._queue = list(self.KINDS)
            self.rng.shuffle(self._queue)
        kind = self._queue.pop()
        dev = "" if kind in ("compare", "frf") else self.rng.choice(self.DEVICES)
        return kind, dev, self._args(kind, dev)

    def run(self, inp):
        args = inp[2]
        span_file = None if self.tracer is None else self.tmp / "spans.json"
        cmd = [sys.executable, str(Path(__file__).with_name("cli_child.py")),
               str(span_file or "-"), *args]
        code, out, err, wall = spawn(cmd, self.root, self.env)
        last = err.splitlines()[-1:]
        if last and last[0].startswith("peak_rss_kb "):
            self.max_rss_kb = max(self.max_rss_kb, int(last[0].split()[1]))
        if span_file is not None and span_file.exists():
            child = json.loads(span_file.read_text())
            span_file.unlink()
            self.tracer.merge(child["totals"])
            self.children.append((wall, child["inside_s"], child["numpy_import_s"],
                                  child["package_import_s"]))
        return code, out, err

    def check(self, inp, out):
        kind, dev, _ = inp
        code, stdout, stderr = out
        _require(code == 0, f"{kind} exited {code}: {stderr.strip()[-200:]}")
        want = self.expected[(kind, dev)]
        if kind in ("frf", "regime"):
            got = json.loads(stdout)
        elif kind == "compare":
            got, table = {}, None
            for line in stdout.splitlines():
                if line.startswith("# table "):
                    table = line.split()[-1]
                elif line and not line.startswith("device,"):
                    dev_id, *vals = line.split(",")
                    got[(table, dev_id)] = [float(v) for v in vals]
        elif kind == "damp":
            got = {}
            for line in stdout.splitlines()[1:]:
                _, model, c, terms, _ = line.split(",")
                got[model] = (float(c), int(terms))
        else:
            got = [(float(v), model, float(c)) for v, model, c in
                   (line.split(",") for line in stdout.splitlines()[1:])]
        _require(got == want, f"{kind} {dev}: CLI output differs from the in-process value")
        self.ops += 1
        self.kind_counts[kind] += 1

    def shares(self):
        return {f"{k}_share": n / max(self.ops, 1) for k, n in self.kind_counts.items()}

    def known_defects(self) -> dict[str, bool]:
        """Defects of the CLI that the workload's commands do not exercise.

        sweep_repr: a geometry sweep that includes m5 prints np.float64(...)
        instead of a number, so its CSV does not parse.
        """
        from perfdamp import cli
        out = self.tmp / "sweep_m5.csv"
        cli.run(["sweep", "--device", str(self.root / "devices" / "A.json"), *SWEEP_ARGS[:-1],
                 "m3,m5", "--out", str(out)])
        try:
            for line in out.read_text().splitlines()[1:]:
                float(line.split(",")[2])
        except ValueError:
            return {"sweep_repr": True}
        return {"sweep_repr": False}

    def close(self):
        shutil.rmtree(self.tmp, ignore_errors=True)
        try:
            self.tmp.parent.rmdir()
        except OSError:  # another run's files are still there
            pass


def child_env(root: Path) -> dict:
    """Environment of a child process: the checkout's src first on the path,
    BLAS and OpenMP pinned to one thread."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH", "")) if p)
    env.update(THREAD_PINS)
    return env


THREAD_PINS = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                                "NUMEXPR_NUM_THREADS")}


def spawn(cmd: list[str], cwd: Path, env: dict, timeout: float = CHILD_TIMEOUT_S):
    """Run cmd to completion; return (exit code, stdout, stderr, wall seconds).
    A child that outlives `timeout` seconds is killed and raises
    subprocess.TimeoutExpired."""
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                          capture_output=True, text=True, timeout=timeout)
    return proc.returncode, proc.stdout, proc.stderr, time.perf_counter() - t0


WORKLOADS = {w.name: w for w in (Tables, DesignSweep, Frf, Cli)}
