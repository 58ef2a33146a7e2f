"""perfdamp benchmark: seeded closed-loop workloads against the package's
public API and its CLI.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload tables --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py            # every workload, seed 1, 20 s each

Workloads: tables, design_sweep, frf, cli (see workloads.py). With
``--trace 0`` the run reports the end-to-end metrics listed in BENCHMARK.json,
with ``--trace 1`` the per-layer metrics, measured by alternating traced and
untraced blocks of operations. Human-readable lines and a context record come
first; the last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. The exit code is 0 only when every
operation and every quality check passed.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from cli_child import peak_rss_kb  # noqa: E402
from workloads import FRF_Q_TOL, THREAD_PINS, WORKLOADS, CheckFailed, child_env, spawn  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REQUIRED = ("src/perfdamp/__init__.py", "devices/A.json", "tests/golden/table3.csv",
            "BENCHMARK.json")
SETUP_PROBES = 5
NPROC = len(os.sched_getaffinity(0))
CPU = min(os.sched_getaffinity(0))
TRACE_BLOCK_S = 1.0
# How often the measured loop re-times the speed calibration kernel.
CAL_PERIOD_S = 0.1
# Errors an operation may raise that count as a failed operation; perfdamp's
# typed errors derive from ValueError or RuntimeError.
OP_ERRORS = (CheckFailed, ValueError, RuntimeError, ArithmeticError)
SERIES_ERR_LIMIT = 1e-3


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, default=0, choices=(0, 1))
    p.add_argument("--trace-out", help="write the raw spans of a traced run here (JSON lines)")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def import_perfdamp():
    """Import perfdamp from the checkout's src, refusing any other copy."""
    import perfdamp
    if not Path(perfdamp.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"error: perfdamp imported from {perfdamp.__file__}, not {ROOT / 'src'}")
    return perfdamp


def setup_probe(args) -> int:
    """Set up the workload once in this fresh process and report the times."""
    t0 = time.perf_counter()
    import numpy  # noqa: F401
    t1 = time.perf_counter()
    import_perfdamp()
    t2 = time.perf_counter()
    wl = WORKLOADS[args.workload](ROOT, args.seed)
    try:
        inp = wl.next_input()
        wl.check(inp, wl.run(inp))
        t3 = time.perf_counter()
    finally:
        wl.close()
    print(json.dumps({"setup_s": t3 - t0, "numpy_import_s": t1 - t0,
                      "package_import_s": t2 - t1,
                      "inside_s": time.perf_counter() - T_START}))
    return 0


def run_probes(args, speed) -> list[dict]:
    """Time the set-up in SETUP_PROBES fresh processes; each probe's times
    are calibrated by the machine speed measured just before it."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    probes = []
    for _ in range(SETUP_PROBES):
        factor = speed.factor()
        code, out, err, wall = spawn(cmd, ROOT, child_env(ROOT))
        if code != 0:
            raise SystemExit(f"error: set-up probe exited {code}:\n{err}")
        probe = json.loads(out.splitlines()[-1])
        probe["wall_s"] = wall
        probe["calibrated_setup_s"] = probe["setup_s"] * factor
        probes.append(probe)
    return probes


def percentile(sorted_vals: list[float], pct: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples above its rank."""
    k = max(0, math.ceil(pct / 100.0 * len(sorted_vals)) - 1)
    return sorted_vals[k], len(sorted_vals) - k - 1


class Mode:
    """Latencies and busy time of the operations run in one mode, raw and
    calibrated (see speed.py)."""

    def __init__(self):
        self.lat: list[float] = []
        self.raw_lat: list[float] = []
        self.busy = 0.0
        self.raw_busy = 0.0
        self.ops = 0

    def rate(self) -> float:
        return self.ops / self.busy if self.busy > 0 else 0.0


def measure(wl, seconds: float, tracer, speed):
    """Closed loop of operations for `seconds`. With a tracer, blocks of
    TRACE_BLOCK_S alternate between untraced and traced operations.

    Every CAL_PERIOD_S the machine speed is measured again, outside busy
    time. The operations between two measurements are scaled by the mean of
    the two factors, so a speed change within the interval is split between
    its ends. Returns (untraced Mode, traced Mode, failed count, failure
    messages)."""
    untraced, traced = Mode(), Mode()
    failed, failures = 0, []
    pending: list[tuple[Mode, float | None, float]] = []  # (mode, latency, busy)

    def calibrate(before):
        after = speed.factor()
        for mode, lat, busy in pending:
            f = 0.5 * (before + after)
            if lat is not None:
                mode.raw_lat.append(lat)
                mode.lat.append(lat * f)
            mode.raw_busy += busy
            mode.busy += busy * f
        pending.clear()
        return after

    clock = time.perf_counter
    factor = calibrate(None)
    t_end = clock() + seconds
    block_end = cal_due = clock()
    block_end += TRACE_BLOCK_S
    cal_due += CAL_PERIOD_S
    mode, run = untraced, wl.run
    traced_run = tracer.wrap("bench.op", wl.run) if tracer and wl.in_process else wl.run
    while True:
        t_iter = clock()
        if t_iter >= t_end:
            break
        if t_iter >= cal_due:
            factor = calibrate(factor)
            t_iter = clock()
            cal_due = t_iter + CAL_PERIOD_S
        if tracer is not None and t_iter >= block_end:
            block_end = t_iter + TRACE_BLOCK_S
            mode = traced if mode is untraced else untraced
            if wl.in_process:
                tracer.install() if mode is traced else tracer.uninstall()
                run = traced_run if mode is traced else wl.run
            else:
                wl.tracer = tracer if mode is traced else None
        inp = wl.next_input()
        lat = None
        try:
            t0 = clock()
            out = run(inp)
            lat = clock() - t0
            wl.check(inp, out)
        except OP_ERRORS as exc:
            failed += 1
            if len(failures) < 5:
                failures.append(f"{type(exc).__name__}: {exc}")
        mode.ops += 1
        pending.append((mode, lat, clock() - t_iter))
    if tracer is not None:
        tracer.uninstall()
        wl.tracer = None
    calibrate(factor)
    return untraced, traced, failed, failures


def run_one(args) -> int:
    import numpy
    from speed import REF_KERNEL_S, Speed
    speed = Speed()
    probes = run_probes(args, speed)
    import_perfdamp()
    import reference
    from tracer import Tracer, per_layer

    wl = WORKLOADS[args.workload](ROOT, args.seed)
    try:
        inp = wl.next_input()
        wl.check(inp, wl.run(inp))
        tracer = Tracer() if args.trace else None
        untraced, traced, failed, failures = measure(wl, args.seconds, tracer, speed)
        rss_mb = (peak_rss_kb() if wl.in_process else wl.max_rss_kb) / 1024.0
        shares = wl.shares()
        quality_failures = []
        slack = reference.tables_slack(ROOT)
        series = reference.series_errors()
        q_errs = reference.q_errors(ROOT, args.seed)
        if slack < 0:
            quality_failures.append(f"table slack {slack} pp is negative")
        if not max(series.values()) <= SERIES_ERR_LIMIT:
            quality_failures.append(f"series error {max(series.values())} > {SERIES_ERR_LIMIT}")
        if not max(q_errs) <= FRF_Q_TOL:
            quality_failures.append(f"Q extraction error {max(q_errs)} > {FRF_Q_TOL}")
        defects = wl.known_defects() if hasattr(wl, "known_defects") else {}
    finally:
        wl.close()

    lat, raw_lat = sorted(untraced.lat), sorted(untraced.raw_lat)
    tail, beyond = percentile(lat, wl.tail_pct)
    attempted = untraced.ops + traced.ops
    correct = failed == 0 and not quality_failures
    e2e = {
        "setup_s": statistics.median(p["calibrated_setup_s"] for p in probes),
        "ops_per_s": untraced.rate(),
        "latency_p50_ms": statistics.median(lat) * 1e3,
        "latency_tail_ms": tail * 1e3,
        "success_ratio": (attempted - failed) / attempted,
        "max_rss_mb": rss_mb,
        "table_slack_min_pp": slack,
        "series_rel_err_max": max(series.values()),
        "q_rel_err_max": max(q_errs),
    }
    if args.trace:
        cold = wl.children if not wl.in_process else [
            (p["wall_s"], p["inside_s"], p["numpy_import_s"], p["package_import_s"])
            for p in probes]
        metrics = per_layer(tracer.totals(), max(traced.ops, 1))
        metrics["cli.interpreter_ms"] = statistics.median(w - i for w, i, _, _ in cold) * 1e3
        metrics["cli.numpy_import_ms"] = statistics.median(c[2] for c in cold) * 1e3
        metrics["cli.package_import_ms"] = statistics.median(c[3] for c in cold) * 1e3
        metrics["trace.overhead_ratio"] = traced.rate() / untraced.rate()
        if args.trace_out:
            tracer.dump(args.trace_out)
    else:
        metrics = e2e

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = spec["per_layer" if args.trace else "end_to_end"]
    missing = {m["name"] for m in listed} ^ set(metrics)
    if missing:
        raise SystemExit(f"error: metrics and BENCHMARK.json disagree on {sorted(missing)}")

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    for m in listed:
        print(f"  {m['name']:40s} {metrics[m['name']]:.6g} {m['unit']}")
    for msg in failures + quality_failures:
        print(f"  FAILED: {msg}")
    context = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "numpy": numpy.__version__, "machine": platform.machine(),
        "nproc": NPROC, "pinned_cpu": CPU, "blas_threads": THREAD_PINS,
        "samples": {"ops": attempted, "failed": failed, "untraced_ops": untraced.ops,
                    "traced_ops": traced.ops, "setup_probes": len(probes),
                    "q_curves": len(q_errs)},
        "tail": {"percentile": wl.tail_pct, "samples_beyond": beyond},
        "raw": {"setup_s": statistics.median(p["setup_s"] for p in probes),
                "ops_per_s": untraced.ops / untraced.raw_busy,
                "latency_p50_ms": statistics.median(raw_lat) * 1e3,
                "latency_tail_ms": percentile(raw_lat, wl.tail_pct)[0] * 1e3},
        "calibration": {"ref_kernel_ms": REF_KERNEL_S * 1e3,
                        "kernel_median_ms": statistics.median(speed.kernel_s) * 1e3,
                        "kernel_samples": len(speed.kernel_s)},
        "shares": shares,
        "series_rel_err": series,
        "known_defects": defects,
    }
    if args.trace:
        context["end_to_end_traced_run"] = e2e
    print(json.dumps({"context": context}))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in listed}}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Run every workload in its own process and print a combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        code, out, err, _ = spawn(cmd, ROOT, child_env(ROOT), timeout=None)
        lines = out.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if code != 0 or not lines:
            print(err, file=sys.stderr)
            combined["correct"] = False
        if not lines:
            continue
        res = json.loads(lines[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for key, val in res["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = val
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    os.environ.update(THREAD_PINS)
    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"error: {', '.join(missing)} not found under {ROOT}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        return run_all(args)
    # One core for this process and, by inheritance, its children: the speed
    # calibration then times the core that the measured work runs on.
    os.sched_setaffinity(0, {CPU})
    if args.setup_probe:
        return setup_probe(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
