"""Span tracing from outside the package, and the per-layer metrics.

`Tracer.install` wraps functions of the gpip modules and rebinds every
module attribute that refers to one of them, so callees imported by name
(`from .numerics import solve_hermitian`) are traced as well as attribute
lookups (`solver.gpip_iterate`). `uninstall` puts every original back.

A span records name, start, end, parent span and the Monte Carlo unit it ran
in. Spans stay in memory; `write_spans` saves them once the campaign is over.
This module imports nothing from numpy or gpip, so its arithmetic can be
tested on synthetic spans.
"""

from __future__ import annotations

import csv
import functools
import sys
import types
from array import array
from time import perf_counter

LAYERS = ("runner", "channel", "numerics", "solver", "coop", "baselines",
          "evaluation", "config")
# private functions that carry a stage of their own
PRIVATE_TRACED = {
    "runner": ("_write_csv",),
    "evaluation": ("_link_correlations", "_draw_link_csit"),
}
# per-element helpers cheaper than a span; their time stays in the caller
UNTRACED = {
    "numerics": ("hermitize",),
    "channel": ("as_rng", "standard_complex_gaussian", "okumura_hata_pathloss",
                "gain_from_pathloss"),
    "evaluation": ("trial_rng",),
}
# spans that delimit one Monte Carlo unit: a link trial or a system block
UNIT_SPANS = ("evaluation.link_trial", "runner.multicell_block")
CSIT_SPANS = ("channel.sample_channel", "channel.mmse_csit_tdd",
              "channel.additive_error_csit", "channel.fdd_quantized_csit")

# span fields
NAME, PARENT, UNIT, START, END = range(5)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._stack: list[int] = []
        self._unit = [-1, -1]  # [current unit id, last unit id]
        self._patched: list[tuple] = []  # (module, attribute, original)
        self._wrappers: dict = {}  # original function -> its traced wrapper
        self.sites: set[str] = set()  # "module.attribute" rebound by the last install
        self.reset()

    def reset(self) -> None:
        # flat arrays, not per-span objects: hundreds of thousands of tracked
        # containers would make the garbage collector part of the overhead
        self._fields = (array("q"), array("q"), array("q"), array("d"), array("d"))
        self._unit[:] = [-1, -1]

    def _wrap(self, fn, name: str):
        name_id = len(self.names)
        self.names.append(name)
        is_unit = name in UNIT_SPANS
        stack, unit = self._stack, self._unit
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if is_unit:
                unit[1] += 1
                unit[0] = unit[1]
            names, parents, units, starts, ends = tracer._fields
            idx = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            units.append(unit[0])
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
                if is_unit:
                    unit[0] = -1

        return traced

    def install(self) -> None:
        """Wrap the traced functions of every layer and rebind all references."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        wrappers = self._wrappers
        for layer in LAYERS:
            mod = sys.modules[f"gpip.{layer}"]
            for attr, obj in vars(mod).items():
                if not isinstance(obj, types.FunctionType) or obj.__module__ != mod.__name__:
                    continue
                if attr.startswith("_") and attr not in PRIVATE_TRACED.get(layer, ()):
                    continue
                if attr in UNTRACED.get(layer, ()):
                    continue
                if obj not in wrappers:
                    wrappers[obj] = self._wrap(obj, f"{layer}.{attr}")
        for mod in _package_modules():
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])
                    self._patched.append((mod, attr, obj))
        self.sites = {f"{mod.__name__}.{attr}" for mod, attr, _ in self._patched}

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def named_spans(self) -> list[tuple]:
        """(name, parent, unit, start, end) for every recorded span."""
        names, parents, units, starts, ends = self._fields
        return [(self.names[n], p, u, t0, t1)
                for n, p, u, t0, t1 in zip(names, parents, units, starts, ends)]


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "gpip" or name.startswith("gpip."))]


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Spans are (name, parent, unit, start, end) with parent an index into the
    same list or -1; on one thread children never overlap each other.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    return [s[END] - s[START] - c for s, c in zip(spans, child)]


def percentile(values, q: float) -> float:
    """Linearly interpolated q-th percentile (0 <= q <= 100); 0 when empty."""
    v = sorted(values)
    if not v:
        return 0.0
    pos = (len(v) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def layer_metrics(spans, sweeps: dict) -> dict:
    """Per-layer metrics of one traced campaign, as {name: value}.

    `sweeps` maps "gpip", "covfree" and "coop" to the list of per-solve
    iteration counts read from the campaign's solver CSVs. Times are in ms
    and include child spans unless the name says "self".
    """
    own = self_times(spans)
    names = [s[NAME] for s in spans]
    dur = [(s[END] - s[START]) * 1e3 for s in spans]

    def durs(*wanted, outermost=False):
        """Durations of spans named in `wanted` ("layer." names a whole layer);
        `outermost` skips those running inside another wanted span."""
        def match(n):
            return n in wanted or any(w.endswith(".") and n.startswith(w) for w in wanted)
        return [dur[i] for i, n in enumerate(names)
                if match(n) and not (outermost and _has_ancestor(spans, i, match))]

    def self_ms(pred):
        return sum(own[i] for i, n in enumerate(names) if pred(n)) * 1e3

    m = {}
    for key, span in (("gpip", "solver.gpip_iterate"), ("covfree", "solver.gpip_covfree"),
                      ("coop", "coop.gpip_coop")):
        layer = span.split(".")[0]
        calls = durs(span)
        n_sweeps = sweeps.get(key, [])
        m[f"{layer}.{key}_calls"] = len(calls)
        m[f"{layer}.{key}_ms_p50"] = percentile(calls, 50)
        if key != "covfree":
            m[f"{layer}.{key}_ms_p95"] = percentile(calls, 95)
        m[f"{layer}.{key}_sweeps_mean"] = sum(n_sweeps) / len(n_sweeps) if n_sweeps else 0.0
        m[f"{layer}.{key}_ms_per_sweep"] = sum(calls) / sum(n_sweeps) if n_sweeps else 0.0
    m["solver.gpip_self_ms"] = self_ms(lambda n: n == "solver.gpip_iterate")
    m["solver.kkt_ms"] = sum(durs("solver.kkt_residual"))
    m["coop.kkt_ms"] = sum(durs("coop.coop_kkt_residual"))

    for key, span in (("solve", "numerics.solve_hermitian"), ("sqrt", "numerics.hermitian_sqrt"),
                      ("rank1", "numerics.rank1_inverse_update")):
        calls = durs(span)
        m[f"numerics.{key}_calls"] = len(calls)
        m[f"numerics.{key}_ms"] = sum(calls)

    corr = durs("channel.one_ring_correlation")
    csit = durs(*CSIT_SPANS, outermost=True)
    m["channel.corr_calls"] = len(corr)
    m["channel.corr_ms"] = sum(corr)
    m["channel.csit_calls"] = len(csit)
    m["channel.csit_ms"] = sum(csit)

    unit = durs(*UNIT_SPANS)
    m["runner.unit_ms_p50"] = percentile(unit, 50)
    m["runner.unit_ms_p95"] = percentile(unit, 95)
    m["runner.drop_setup_ms"] = sum(durs("runner.system_correlations",
                                         "evaluation._link_correlations"))
    m["runner.block_csit_ms"] = sum(durs("runner.multicell_csit", "evaluation._draw_link_csit"))
    m["runner.write_ms"] = sum(durs("runner._write_csv", "config.write_manifest"))
    m["runner.self_ms"] = self_ms(lambda n: n.startswith("runner."))

    sinr = durs("evaluation.true_sinr")
    m["evaluation.true_sinr_calls"] = len(sinr)
    m["evaluation.true_sinr_ms"] = sum(sinr)
    m["evaluation.design_self_ms"] = self_ms(lambda n: n == "evaluation.design_precoders")

    base = durs("baselines.", outermost=True)
    m["baselines.calls"] = len(base)
    m["baselines.ms"] = sum(base)
    m["config.load_ms"] = sum(durs("config.load_config"))
    return m


def _has_ancestor(spans, i, match) -> bool:
    p = spans[i][PARENT]
    while p >= 0:
        if match(spans[p][NAME]):
            return True
        p = spans[p][PARENT]
    return False


def write_spans(path, spans_by_campaign) -> None:
    """One CSV row per span; times in seconds from the campaign's first span."""
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(["campaign", "span", "name", "parent", "unit", "start_s", "end_s"])
        for c, spans in enumerate(spans_by_campaign):
            t0 = spans[0][START] if spans else 0.0
            for i, s in enumerate(spans):
                out.writerow([c, i, s[NAME], s[PARENT], s[UNIT],
                              f"{s[START] - t0:.9f}", f"{s[END] - t0:.9f}"])
