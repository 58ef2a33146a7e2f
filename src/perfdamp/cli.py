"""Command-line front end.

Subcommands: regime, damp, compare, sweep, frf synth, frf extract,
dump-config. Exit codes: 0 success, 1 usage, configuration or file error,
2 comparison tolerance breach, 3 model-domain error.

Only the frf subcommands load numpy (through ``perfdamp.frf``); the others
run on the standard library, so a cold process starts without it.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import re
import sys
from pathlib import Path

from perfdamp import compact_models as cm
from perfdamp import comparison as cmp
from perfdamp.checks import require_positive
from perfdamp.config import (
    CURVE_HEADER,
    ConfigError,
    dump_device,
    load_device,
    load_gas,
    parse_frequency,
    parse_length,
    read_device,
)
from perfdamp.flow_regime import GasProperties, regime_report

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_TOLERANCE = 2
EXIT_MODEL = 3

_SWEEP_PARAMS = {"s0", "s1", "h", "h_c", "lambda"}


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
    device, geom, _ = read_device(args.device)
    gas = _gas_from(args)
    results = cm.evaluate(geom, gas, tuple(cm.MODELS) if args.model == "all" else (args.model,))
    rows = [[device, model, res.c, res.series_terms, res.converged]
            for model, res in results.items()]
    text = _csv(rows, ["device", "model", "c_Ns_per_m", "series_terms", "converged"])
    if args.breakdown:
        for model, br in ((m, r.breakdown) for m, r in results.items() if r.breakdown):
            text += f"# {model} cell resistance breakdown (Ns/m per cell, scaled)\n"
            # zip stops at the six components, before R_p
            for name, val, pct in zip(br._fields, br, br.percentages()):
                text += f"# {name:5s} {val:.6e}  {pct:6.2f}%\n"
    _emit(text, args.out)
    return EXIT_OK


def _cmd_compare(args) -> int:
    wanted = list(cmp.TABLES) if args.table == "all" else [args.table]
    gas = _gas_from(args)
    chunks = []
    ok = True
    for key in wanted:
        reproduce, published, tol, columns = cmp.TABLES[key]
        repro = reproduce(gas)
        table_ok = cmp.within_tolerance(repro, published, tol)
        ok = ok and table_ok
        if args.format == "csv":
            rows = [[dev, *vals] for dev, vals in repro.items()]
            chunks.append(f"# table {key}\n" + _csv(rows, ["device", *columns]))
            continue
        # each cell: the reproduced value r and its residual r - p against the paper
        cells = {dev: [(r, r - p) for r, p in zip(vals, published[dev])]
                 for dev, vals in repro.items()}
        worst = max(abs(d) for row in cells.values() for _, d in row)
        verdict = "within tolerance" if table_ok else "TOLERANCE BREACH"
        w = max(len(c) for c in columns) + 4
        body = [f"table {key} (percent, Δ = reproduced - published): "
                f"worst |Δ| {worst:.2f} pp, tolerance {tol} pp, {verdict}",
                "device" + "".join(f" {c:>{w}} {'Δ' + c:>{w}}" for c in columns)]
        body += [f"{dev:6s}" + "".join(f" {r:{w}.2f} {d:+{w}.2f}" for r, d in row)
                 for dev, row in cells.items()]
        chunks.append("\n".join(body) + "\n")
    _emit("\n".join(chunks), args.out)
    return EXIT_OK if ok else EXIT_TOLERANCE


def _cmd_sweep(args) -> int:
    geom, _ = load_device(args.device)
    gas = _gas_from(args)
    start, stop = _bounds(args, parse_length, "sweep")
    if args.steps < 2:
        raise ConfigError("sweep needs at least 2 steps")
    models = args.models.split(",")
    values = _linspace(start, stop, args.steps)
    rows = []
    for value in values:
        g, gs = geom, gas
        if args.parameter == "lambda":
            gs = dataclasses.replace(gas, lam=value)
        else:
            g = dataclasses.replace(geom, **{args.parameter: value})
        rows += [[value, model, res.c] for model, res in cm.evaluate(g, gs, models).items()]
    _emit(_csv(rows, ["param_value", "model", "c_Ns_per_m"]), args.out)
    return EXIT_OK


def _bounds(args, parse, command: str) -> tuple[float, float]:
    """--start and --stop, read by `parse`: positive, finite and start below stop."""
    start, stop = parse(args.start), parse(args.stop)
    require_positive(("--start", start), ("--stop", stop))
    if not start < stop:
        raise ConfigError(f"{command} start must be below stop")
    return start, stop


def _linspace(start: float, stop: float, n: int) -> list[float]:
    """``numpy.linspace(start, stop, n).tolist()`` for n >= 2, bit for bit."""
    step = (stop - start) / (n - 1)
    return [i * step + start for i in range(n - 1)] + [stop]


def _cmd_frf_synth(args) -> int:
    from perfdamp import frf
    start, stop = _bounds(args, parse_frequency, "frf synth")
    if args.points < frf.MIN_SAMPLES:
        raise ConfigError(f"frf synth needs at least {frf.MIN_SAMPLES} points")
    freqs = _linspace(start, stop, args.points)
    curve = frf.synth_frf(args.meff, args.damping, args.stiffness, args.force, freqs)
    rows = list(zip(curve.freqs.tolist(), curve.amps.tolist()))
    _emit(_csv(rows, list(CURVE_HEADER)), args.out)
    return EXIT_OK


def _cmd_frf_extract(args) -> int:
    from perfdamp import frf
    res = frf.extract(frf.read_curve(args.input), m_eff=args.meff)
    payload = {"f0_hz": res.f0, "Q": res.Q, "f1_hz": res.f1, "f2_hz": res.f2}
    if res.c is not None:
        payload["c_Ns_per_m"] = res.c
    _emit(json.dumps(payload, indent=2) + "\n", args.out)
    return EXIT_OK


def _cmd_dump_config(args) -> int:
    ident, geom, measured = read_device(args.device)
    _emit(json.dumps(dump_device(geom, measured, ident), indent=2) + "\n", args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="perfdamp",
        description="Squeeze-film damping of perforated MEMS plates",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # parent parsers: every subcommand takes --out, those that read a gas also --gas
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", help="write output to this file instead of stdout")
    gas = argparse.ArgumentParser(add_help=False, parents=[out])
    gas.add_argument("--gas", help="gas-properties JSON file (default: standard air)")

    p = sub.add_parser("regime", parents=[gas], help="characteristic-number screen of one device")
    p.add_argument("--device", required=True)
    p.add_argument("--freq", required=True, help="drive frequency, e.g. 200kHz")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_regime)

    p = sub.add_parser("damp", parents=[gas], help="evaluate compact damping models")
    p.add_argument("--device", required=True)
    p.add_argument("--model", default="all", choices=[*cm.MODELS, "all"])
    p.add_argument("--breakdown", action="store_true")
    p.set_defaults(fn=_cmd_damp)

    p = sub.add_parser("compare", parents=[gas], help="reproduce the measured-vs-modeled tables")
    p.add_argument("--table", default="all", choices=[*cmp.TABLES, "all"])
    p.add_argument("--format", default="text", choices=["csv", "text"])
    p.set_defaults(fn=_cmd_compare)

    p = sub.add_parser("sweep", parents=[gas], help="sweep one parameter over selected models")
    p.add_argument("--device", required=True)
    p.add_argument("--parameter", required=True, choices=sorted(_SWEEP_PARAMS))
    p.add_argument("--start", required=True)
    p.add_argument("--stop", required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--models", default="m3", help="comma-separated model list")
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("frf", help="frequency-response synthesis and extraction")
    frf_sub = p.add_subparsers(dest="frf_command", required=True)

    ps = frf_sub.add_parser("synth", parents=[out], help="write a synthetic resonance curve CSV")
    ps.add_argument("--meff", type=float, required=True, help="effective mass, kg")
    ps.add_argument("--damping", type=float, required=True, help="Ns/m")
    ps.add_argument("--stiffness", type=float, required=True, help="N/m")
    ps.add_argument("--force", type=float, default=1e-6, help="drive force, N")
    ps.add_argument("--start", required=True, help="e.g. 150kHz")
    ps.add_argument("--stop", required=True)
    ps.add_argument("--points", type=int, default=801)
    ps.set_defaults(fn=_cmd_frf_synth)

    pe = frf_sub.add_parser("extract", parents=[out], help="extract f0 and Q from a curve CSV")
    pe.add_argument("--input", required=True, help=f"CSV with header {','.join(CURVE_HEADER)}")
    pe.add_argument("--meff", type=float, help="effective mass (kg); adds c to output")
    pe.set_defaults(fn=_cmd_frf_extract)

    p = sub.add_parser("dump-config", parents=[out], help="round-trip a device file")
    p.add_argument("--device", required=True)
    p.set_defaults(fn=_cmd_dump_config)

    return parser


def _join_negative_values(argv: list[str]) -> list[str]:
    """``--opt -5kHz`` as ``--opt=-5kHz``: argparse reads a token that starts with '-'
    and is not a plain number as an option, so the value would never reach its check."""
    joined = []
    for token in argv:
        if joined and re.match(r"-[0-9.]", token) and re.fullmatch(r"--[^=]+", joined[-1]):
            joined[-1] += "=" + token
        else:
            joined.append(token)
    return joined


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_join_negative_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        # ValueError includes ConfigError; OSError: an unreadable --input or unwritable --out
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MODEL if isinstance(exc, cm.ModelDomainError) else EXIT_USAGE


# perfbench/cli_child.py is the last caller of this alias
main = run


if __name__ == "__main__":
    sys.exit(run())
