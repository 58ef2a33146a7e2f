"""Command-line front end.

Subcommands: regime, damp, compare, sweep, frf synth, frf extract,
dump-config. Exit codes: 0 success, 1 usage or configuration error,
2 comparison tolerance breach, 3 model-domain error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from perfdamp import compact_models as cm
from perfdamp import comparison as cmp
from perfdamp import frf
from perfdamp.config import (
    ConfigError,
    dump_device,
    load_device,
    load_gas,
    parse_frequency,
    parse_length,
)
from perfdamp.flow_regime import GasProperties, regime_report

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_TOLERANCE = 2
EXIT_MODEL = 3

_SWEEP_PARAMS = {"s0", "s1", "h", "h_c", "lambda", "freq"}


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _gas_from(args) -> GasProperties:
    return load_gas(args.gas) if args.gas else GasProperties()


def _csv(rows: list[list], header: list[str]) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_cell(v) for v in row))
    return "\n".join(lines) + "\n"


def _cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(float(v))
    return str(v)


def _cmd_regime(args) -> int:
    geom, _ = load_device(args.device)
    report = regime_report(geom, _gas_from(args), parse_frequency(args.freq))
    if args.json:
        _emit(json.dumps(report.to_dict(), indent=2) + "\n", args.out)
    else:
        lines = []
        for key, value in report.to_dict().items():
            lines.append(f"{key:22s} {value}")
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _cmd_damp(args) -> int:
    geom, _ = load_device(args.device)
    gas = _gas_from(args)
    models = list(cm.MODELS) if args.model == "all" else [args.model]
    device = Path(args.device).stem
    rows = []
    breakdowns = []
    for model in models:
        fn = cm.MODELS[model]
        if model in ("m1", "m2"):
            res = fn(geom, gas, slip_correct=args.slip_correct)
        else:
            res = fn(geom, gas)
        rows.append([device, model, res.c, res.series_terms, res.converged])
        if args.breakdown and res.breakdown is not None:
            breakdowns.append((model, res.breakdown))
    text = _csv(rows, ["device", "model", "c_Ns_per_m", "series_terms", "converged"])
    if args.breakdown:
        for model, br in breakdowns:
            text += f"# {model} cell resistance breakdown (Ns/m per cell, scaled)\n"
            names = ("R_S", "R_IS", "R_IB", "R_IC", "R_C", "R_E")
            for name, val, pct in zip(names, br.scaled_components(), br.percentages()):
                text += f"# {name:5s} {val:.6e}  {pct:6.2f}%\n"
    _emit(text, args.out)
    return EXIT_OK


_TABLES = {
    "3": (cmp.reproduce_table3, cmp.PUBLISHED_TABLE3, cmp.TABLE3_TOL_PP, cmp.TABLE3_MODELS),
    "4": (cmp.reproduce_table4, cmp.PUBLISHED_TABLE4, cmp.TABLE4_TOL_PP, cmp.TABLE4_MODELS),
    "5": (cmp.reproduce_table5, cmp.PUBLISHED_TABLE5, cmp.TABLE5_TOL_PP, cmp.TABLE5_COLUMNS),
}


def _cmd_compare(args) -> int:
    wanted = list(_TABLES) if args.table == "all" else [args.table]
    gas = GasProperties()
    chunks = []
    ok = True
    for key in wanted:
        reproduce, published, tol, columns = _TABLES[key]
        repro = reproduce(gas)
        ok = ok and cmp.within_tolerance(repro, published, tol)
        if args.format == "csv":
            rows = [[dev, *vals] for dev, vals in repro.items()]
            chunks.append(f"# table {key}\n" + _csv(rows, ["device", *columns]))
        else:
            width = max(len(c) for c in columns) + 4
            head = "device" + "".join(f"{c:>{width}}" for c in columns)
            body = [f"table {key} (reproduced, percent)", head]
            for dev, vals in repro.items():
                body.append(f"{dev:6s}" + "".join(f"{v:{width}.2f}" for v in vals))
            chunks.append("\n".join(body) + "\n")
    _emit("\n".join(chunks), args.out)
    return EXIT_OK if ok else EXIT_TOLERANCE


def _cmd_sweep(args) -> int:
    geom, _ = load_device(args.device)
    gas = _gas_from(args)
    if args.parameter not in _SWEEP_PARAMS:
        raise ConfigError(f"unknown sweep parameter {args.parameter!r}")
    parse = parse_frequency if args.parameter == "freq" else parse_length
    start, stop = parse(args.start), parse(args.stop)
    if not start < stop:
        raise ConfigError("sweep start must be below stop")
    if args.steps < 2:
        raise ConfigError("sweep needs at least 2 steps")
    models = args.models.split(",")
    for model in models:
        if model not in cm.MODELS:
            raise ConfigError(f"unknown model {model!r}")
    values = np.linspace(start, stop, args.steps)
    rows = []
    for value in values:
        g, gs = geom, gas
        if args.parameter == "lambda":
            gs = dataclasses.replace(gas, lam=value)
        elif args.parameter != "freq":
            g = dataclasses.replace(geom, **{args.parameter: value})
        for model in models:
            res = cm.MODELS[model](g, gs)
            rows.append([float(value), model, res.c])
    _emit(_csv(rows, ["param_value", "model", "c_Ns_per_m"]), args.out)
    return EXIT_OK


def _cmd_frf_synth(args) -> int:
    freqs = np.linspace(parse_frequency(args.start), parse_frequency(args.stop), args.points)
    curve = frf.synth_frf(args.meff, args.damping, args.stiffness, args.force, freqs)
    rows = [[float(f), float(a)] for f, a in zip(curve.freqs, curve.amps)]
    _emit(_csv(rows, ["freq_hz", "amp_m"]), args.out)
    return EXIT_OK


def _cmd_frf_extract(args) -> int:
    data = np.genfromtxt(args.input, delimiter=",", names=True)
    if data.dtype.names is None or set(data.dtype.names) != {"freq_hz", "amp_m"}:
        raise ConfigError("input CSV must have header 'freq_hz,amp_m'")
    curve = frf.FrfCurve(freqs=np.atleast_1d(data["freq_hz"]),
                         amps=np.atleast_1d(data["amp_m"]))
    res = frf.extract(curve, m_eff=args.meff)
    payload = {"f0_hz": res.f0, "Q": res.Q, "f1_hz": res.f1, "f2_hz": res.f2}
    if res.c is not None:
        payload["c_Ns_per_m"] = res.c
    _emit(json.dumps(payload, indent=2) + "\n", args.out)
    return EXIT_OK


def _cmd_dump_config(args) -> int:
    geom, measured = load_device(args.device)
    _emit(json.dumps(dump_device(geom, measured), indent=2) + "\n", args.out)
    return EXIT_OK


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", help="write output to this file instead of stdout")
    p.add_argument("--gas", help="gas-properties JSON file (default: standard air)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="perfdamp",
        description="Squeeze-film damping of perforated MEMS plates",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("regime", help="characteristic-number screen of one device")
    p.add_argument("--device", required=True)
    p.add_argument("--freq", required=True, help="drive frequency, e.g. 200kHz")
    p.add_argument("--json", action="store_true")
    _add_common(p)
    p.set_defaults(fn=_cmd_regime)

    p = sub.add_parser("damp", help="evaluate compact damping models")
    p.add_argument("--device", required=True)
    p.add_argument("--model", default="all", choices=[*cm.MODELS, "all"])
    p.add_argument("--breakdown", action="store_true")
    p.add_argument("--slip-correct", action="store_true",
                   help="apply the gap slip correction to M1/M2")
    _add_common(p)
    p.set_defaults(fn=_cmd_damp)

    p = sub.add_parser("compare", help="reproduce the measured-vs-modeled tables")
    p.add_argument("--table", default="all", choices=["3", "4", "5", "all"])
    p.add_argument("--format", default="text", choices=["csv", "text"])
    _add_common(p)
    p.set_defaults(fn=_cmd_compare)

    p = sub.add_parser("sweep", help="sweep one parameter over selected models")
    p.add_argument("--device", required=True)
    p.add_argument("--parameter", required=True, choices=sorted(_SWEEP_PARAMS))
    p.add_argument("--start", required=True)
    p.add_argument("--stop", required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--models", default="m3", help="comma-separated model list")
    _add_common(p)
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("frf", help="frequency-response synthesis and extraction")
    frf_sub = p.add_subparsers(dest="frf_command", required=True)

    ps = frf_sub.add_parser("synth", help="write a synthetic resonance curve CSV")
    ps.add_argument("--meff", type=float, required=True, help="effective mass, kg")
    ps.add_argument("--damping", type=float, required=True, help="Ns/m")
    ps.add_argument("--stiffness", type=float, required=True, help="N/m")
    ps.add_argument("--force", type=float, default=1e-6, help="drive force, N")
    ps.add_argument("--start", required=True, help="e.g. 150kHz")
    ps.add_argument("--stop", required=True)
    ps.add_argument("--points", type=int, default=801)
    _add_common(ps)
    ps.set_defaults(fn=_cmd_frf_synth)

    pe = frf_sub.add_parser("extract", help="extract f0 and Q from a curve CSV")
    pe.add_argument("--input", required=True, help="CSV with header freq_hz,amp_m")
    pe.add_argument("--meff", type=float, help="effective mass (kg); adds c to output")
    _add_common(pe)
    pe.set_defaults(fn=_cmd_frf_extract)

    p = sub.add_parser("dump-config", help="round-trip a device file")
    p.add_argument("--device", required=True)
    _add_common(p)
    p.set_defaults(fn=_cmd_dump_config)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (cm.ModelDomainError, frf.BandwidthError, frf.FitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MODEL
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main(argv=None) -> int:
    return run(argv)


if __name__ == "__main__":
    sys.exit(main())
