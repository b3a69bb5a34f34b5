"""Outside-in tracing: spans recorded around the package's layer boundaries.

The tracer replaces functions at the module attributes through which the
package calls them (``sfwmsim.cli.filtered_jta``, ``sfwmsim.metrics.overlap``
and so on), records a span per call and restores the originals afterwards.
Spans stay in memory and are written out once, at the end of a run. A name
that a later version of the package no longer has is skipped, so its layer
reports zero calls instead of failing.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from collections import defaultdict

ROOT = "cli.main"

# (span name, module, attribute). One span name may sit behind several
# attributes when the package reaches the same function through more than
# one module.
WRAPPED = (
    ("config.load_config", "sfwmsim.cli", "load_config"),
    ("config.validate_config", "sfwmsim.cli", "validate_config"),
    ("grids.build_temporal_grid", "sfwmsim.cli", "build_temporal_grid"),
    ("grids.build_temporal_grid", "sfwmsim.config", "build_temporal_grid"),
    ("cli._load_sweep_spec", "sfwmsim.cli", "_load_sweep_spec"),
    ("cli._sweep_variant", "sfwmsim.cli", "_sweep_variant"),
    ("cli._evaluate", "sfwmsim.cli", "_evaluate"),
    ("cli._metrics_document", "sfwmsim.cli", "_metrics_document"),
    ("cli.export_matrix", "sfwmsim.cli", "export_matrix"),
    ("cli._write_marginal", "sfwmsim.cli", "_write_marginal"),
    ("jta.build_diagonal_jta", "sfwmsim.cli", "build_diagonal_jta"),
    ("jta.jta_linear", "sfwmsim.cli", "jta_linear"),
    ("jta.jta_simple", "sfwmsim.cli", "jta_simple"),
    ("jta.jta_sinc", "sfwmsim.cli", "jta_sinc"),
    ("jta.jta_general", "sfwmsim.cli", "jta_general"),
    ("pump.pump_power_profile", "sfwmsim.jta", "pump_power_profile"),
    ("pump.propagate_power", "sfwmsim.jta", "propagate_power"),
    ("pump.nonlinear_phase", "sfwmsim.jta", "nonlinear_phase"),
    ("filtering.filtered_jta", "sfwmsim.cli", "filtered_jta"),
    ("filtering.filtered_jta", "sfwmsim.metrics", "filtered_jta"),
    ("filtering.gaussian_time_kernel", "sfwmsim.filtering", "gaussian_time_kernel"),
    ("filtering.overlap", "sfwmsim.metrics", "overlap"),
    ("metrics.compute_pair_metrics", "sfwmsim.cli", "compute_pair_metrics"),
    ("metrics.pair_probability", "sfwmsim.cli", "pair_probability"),
    ("metrics.pair_probability", "sfwmsim.metrics", "pair_probability"),
    ("metrics.single_sided_eta", "sfwmsim.metrics", "single_sided_eta"),
    ("metrics.heralding_efficiency", "sfwmsim.metrics", "heralding_efficiency"),
    ("metrics.purity_schmidt", "sfwmsim.metrics", "purity_schmidt"),
    ("metrics.schmidt_mode_count", "sfwmsim.cli", "schmidt_mode_count"),
    ("spectral.jta_to_jsa", "sfwmsim.cli", "jta_to_jsa"),
    ("spectral.marginal_spectrum", "sfwmsim.cli", "marginal_spectrum"),
    ("kernels.fourfold_sum", "sfwmsim.metrics", "fourfold_sum"),
)
SPAN_NAMES = tuple(dict.fromkeys(name for name, _, _ in WRAPPED))


def _export_bytes(paths) -> int:
    return sum(os.path.getsize(p) for p in paths)


def _kept_weights(decomposition) -> int:
    return len(decomposition.weights)


# Counts read off a call's result, outside its span's interval.
COUNTERS = {
    "cli.export_matrix": ("bytes", _export_bytes),
    "metrics.purity_schmidt": ("kept", _kept_weights),
}


class Tracer:
    """Span recorder. A span is [op_id, span_id, parent_id, name, start, end,
    counts] with times from ``time.perf_counter``."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self._op_id = -1

    def install(self) -> None:
        for name, module, attr in WRAPPED:
            mod = importlib.import_module(module)
            fn = getattr(mod, attr, None)
            if fn is None:
                continue
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(name, fn))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else None
        span = [self._op_id, len(self.spans), parent, name, time.perf_counter(), None, None]
        self.spans.append(span)
        self._stack.append(span[1])
        return span

    def _close(self, span: list) -> None:
        span[5] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if counter is not None:
                try:
                    span[6] = {counter[0]: counter[1](result)}
                except (AttributeError, TypeError, OSError):
                    pass
            return result

        return traced

    def op(self, call, *args):
        """Run ``call(*args)`` as one operation under a root span."""
        self._op_id += 1
        span = self._open(ROOT)
        try:
            return call(*args)
        finally:
            self._close(span)


def write_spans(spans: list[list], path) -> None:
    """One JSON object per span, one span per line."""
    keys = ("op", "id", "parent", "name", "start", "end", "counts")
    with open(path, "w", encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def per_layer(spans: list[list], n_configs: int) -> dict:
    """Per-configuration calls, total ms and self ms of every span name, plus
    the counters and ``trace.coverage_frac`` (share of op time inside
    top-level spans)."""
    child_time: dict[int, float] = defaultdict(float)
    for span in spans:
        if span[2] is not None:
            child_time[span[2]] += span[5] - span[4]
    calls = defaultdict(int)
    total = defaultdict(float)
    own = defaultdict(float)
    counts = defaultdict(float)
    roots = {span[1] for span in spans if span[3] == ROOT}
    root_time = top_time = 0.0
    for span in spans:
        dur = span[5] - span[4]
        if span[3] == ROOT:
            root_time += dur
            continue
        if span[2] in roots:
            top_time += dur
        calls[span[3]] += 1
        total[span[3]] += dur
        own[span[3]] += dur - child_time[span[1]]
        for key, value in (span[6] or {}).items():
            counts[f"{span[3]}.{key}"] += value
    out = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = calls[name] / n_configs
        out[f"{name}.ms"] = 1e3 * total[name] / n_configs
        out[f"{name}.self_ms"] = 1e3 * own[name] / n_configs
    out["metrics.schmidt_kept"] = counts["metrics.purity_schmidt.kept"] / n_configs
    out["cli.export_matrix.bytes"] = counts["cli.export_matrix.bytes"] / n_configs
    out["trace.coverage_frac"] = top_time / root_time if root_time > 0 else 0.0
    return out


def per_layer_units() -> dict:
    """Unit and better-direction of every metric ``per_layer`` returns, plus
    ``trace.overhead_frac`` which the benchmark adds."""
    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.calls"] = ("1/cfg", "lower")
        units[f"{name}.ms"] = ("ms/cfg", "lower")
        units[f"{name}.self_ms"] = ("ms/cfg", "lower")
    units["metrics.schmidt_kept"] = ("1/cfg", "higher")
    units["cli.export_matrix.bytes"] = ("B/cfg", "lower")
    units["trace.coverage_frac"] = ("frac", "higher")
    units["trace.overhead_frac"] = ("frac", "lower")
    return units
