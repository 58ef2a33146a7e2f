"""Span tracing of perfdamp's public functions, installed from outside the package.

Each traced function is replaced by a wrapper that records a span: its name,
start, end, the span that was open when it was called (its parent) and a
count (series terms, table cells) taken from its result. Spans are kept in
memory and reduced to per-layer totals when the run ends.

perfdamp imports functions by name (``from perfdamp.geometry import
derive_geometry``) and keeps function objects in dicts (``MODELS``,
``cli._TABLES``), so a wrapper must replace the function wherever it is
referenced, not only in the module that defines it. ``Tracer.install`` scans
every loaded ``perfdamp`` module for the original object, in module globals,
dict values and tuples held in dicts, and ``Tracer.uninstall`` undoes each
replacement.
"""

from __future__ import annotations

import math
import sys
import time

_clock = time.perf_counter


def _model_result(rec, res):
    rec[4] = res.series_terms
    rec[5] = not math.isfinite(res.c)


def _series_result(rec, res):
    rec[4] = res.series_terms


def _table_result(rec, res):
    rec[4] = sum(len(row) for row in res.values())


def _extract_result(rec, res):
    rec[5] = not math.isfinite(res.Q)


# (module, function, span name, how to read the span's count from the result)
TARGETS = [
    ("perfdamp.geometry", "derive_geometry", "geometry.derive_geometry", None),
    ("perfdamp.flow_regime", "regime_report", "flow_regime.regime_report", None),
    *[("perfdamp.compact_models", f"damping_m{i}", f"compact_models.m{i}", _model_result)
      for i in range(1, 7)],
    ("perfdamp.compact_models", "damping_border_coupled", "compact_models.border_series",
     _series_result),
    ("perfdamp.compact_models", "cell_resistance_circular", "compact_models.cell_resistance", None),
    ("perfdamp.compact_models", "cell_resistance_square", "compact_models.cell_resistance", None),
    *[("perfdamp.comparison", f"reproduce_table{i}", "comparison.tables", _table_result)
      for i in (3, 4, 5)],
    ("perfdamp.frf", "synth_frf", "frf.synth", None),
    ("perfdamp.frf", "extract", "frf.extract", _extract_result),
    ("perfdamp.config", "load_device", "config.load_device", None),
    ("perfdamp.config", "parse_length", "config.parse", None),
    ("perfdamp.config", "parse_frequency", "config.parse", None),
    ("perfdamp.cli", "run", "cli.run", None),
]

MODEL_SPANS = tuple(f"compact_models.m{i}" for i in range(1, 7))


class Tracer:
    """Records spans of wrapped functions; one instance per traced run."""

    def __init__(self):
        # span record: [name, start, end, parent index, count, failed]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []
        self.merged: dict[str, list] = {}

    def wrap(self, name, fn, on_result=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, 0, False]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = _clock()
            try:
                res = fn(*args, **kwargs)
            except Exception:
                rec[5] = True
                raise
            finally:
                rec[2] = _clock()
                stack.pop()
            if on_result is not None:
                on_result(rec, res)
            return res

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "perfdamp" or key.startswith("perfdamp."))]
        for mod_name, attr, name, on_result in TARGETS:
            mod = sys.modules.get(mod_name)
            orig = getattr(mod, attr, None) if mod is not None else None
            if orig is None:
                continue
            wrapper = self.wrap(name, orig, on_result)
            for mod in modules:
                self._rebind(vars(mod), orig, wrapper)

    def _rebind(self, namespace: dict, orig, wrapper) -> None:
        for key, value in list(namespace.items()):
            if value is orig:
                self._undo.append((namespace, key, value))
                namespace[key] = wrapper
            elif type(value) is dict and key != "__builtins__":
                for k, v in list(value.items()):
                    if v is orig:
                        self._undo.append((value, k, v))
                        value[k] = wrapper
                    elif type(v) is tuple and any(x is orig for x in v):
                        self._undo.append((value, k, v))
                        value[k] = tuple(wrapper if x is orig else x for x in v)

    def uninstall(self) -> None:
        while self._undo:
            container, key, value = self._undo.pop()
            container[key] = value

    def totals(self) -> dict[str, list]:
        """Per span name: [calls, self seconds, summed count, failed calls].

        Self time is a span's duration minus the durations of its children;
        children of one span never overlap, since calls are sequential.
        """
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = {name: list(v) for name, v in self.merged.items()}
        for (name, t0, t1, _, count, failed), inner in zip(self.spans, child):
            row = out.setdefault(name, [0, 0.0, 0, 0])
            row[0] += 1
            row[1] += (t1 - t0) - inner
            row[2] += count
            row[3] += failed
        return out

    def merge(self, totals: dict[str, list]) -> None:
        """Add totals recorded by a traced child process."""
        for name, (calls, self_s, count, failed) in totals.items():
            row = self.merged.setdefault(name, [0, 0.0, 0, 0])
            row[0] += calls
            row[1] += self_s
            row[2] += count
            row[3] += failed

    def dump(self, path) -> None:
        """Write the raw spans as JSON lines: name, start/end in s, parent index."""
        import json
        with open(path, "w", encoding="utf-8") as fh:
            for name, t0, t1, parent, count, failed in self.spans:
                fh.write(json.dumps({"name": name, "start": t0, "end": t1, "parent": parent,
                                     "count": count, "failed": failed}) + "\n")


def per_layer(totals: dict[str, list], ops: int) -> dict[str, float]:
    """Per-layer metrics, each per workload operation of the traced window."""
    def get(name, col):
        return totals.get(name, [0, 0.0, 0, 0])[col] / ops

    m = {
        "compact_models.border_series.calls": get("compact_models.border_series", 0),
        "compact_models.border_series.self_s": get("compact_models.border_series", 1),
        "compact_models.border_series.terms": get("compact_models.border_series", 2),
    }
    for span in MODEL_SPANS:
        m[f"{span}.self_s"] = get(span, 1)
    m["compact_models.m2.terms"] = get("compact_models.m2", 2)
    m["compact_models.cell_resistance.calls"] = get("compact_models.cell_resistance", 0)
    m["compact_models.cell_resistance.self_s"] = get("compact_models.cell_resistance", 1)
    m["compact_models.failed"] = sum(get(span, 3) for span in MODEL_SPANS)
    m["geometry.derive_geometry.calls"] = get("geometry.derive_geometry", 0)
    m["geometry.derive_geometry.self_s"] = get("geometry.derive_geometry", 1)
    m["flow_regime.regime_report.calls"] = get("flow_regime.regime_report", 0)
    m["flow_regime.regime_report.self_s"] = get("flow_regime.regime_report", 1)
    m["comparison.tables.self_s"] = get("comparison.tables", 1)
    m["comparison.cells"] = get("comparison.tables", 2)
    m["frf.synth.self_s"] = get("frf.synth", 1)
    m["frf.extract.self_s"] = get("frf.extract", 1)
    m["frf.extract.calls"] = get("frf.extract", 0)
    m["frf.failed"] = get("frf.extract", 3)
    m["config.load_device.self_s"] = get("config.load_device", 1)
    m["config.parse.calls"] = get("config.parse", 0)
    m["cli.run.self_s"] = get("cli.run", 1)
    return m
