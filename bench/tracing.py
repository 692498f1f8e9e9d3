"""Span tracing around smmn's public functions, for the traced run only.

A :class:`Tracer` replaces each traced function, wherever a loaded
``smmn`` module holds a reference to it, by a wrapper that records a span
(id, name, start, end, parent).  Counts and computed operation sizes are
recorded at the same boundaries.  :meth:`Tracer.uninstall` puts every
original back.  Spans stay in memory until :meth:`Tracer.write`.

A span's self time is its duration minus the time its child spans cover.
Every ``*_s`` per-layer metric is a sum of self times.
"""

import functools
import json
import math
import sys
import time
import tracemalloc
from collections import defaultdict

MIB = float(1 << 20)

# Per-layer metrics: (name, unit, how the value is made, the end-to-end
# metric a change to this layer should move).  ``("self", span)`` sums the
# self time of every span of that name; ``("count", key)`` sums a counter;
# ``("max", key)`` keeps the largest value seen.
_CONV_FWD = "subjects_per_s (all workloads)"
_CONV_BWD = "subjects_per_s (train-o3, train-o6); not detect-o3"
_SETUP = "setup_s (train-o6 most)"
_DETECT = "subjects_per_s (detect-o3)"


def _conv_rows():
    rows = []
    for op in ("v2f", "f2v"):
        for way, moves in (("fwd", _CONV_FWD), ("bwd", _CONV_BWD)):
            for lvl in ("l0", "l1"):
                name = f"conv.{op}_{way}.{lvl}"
                rows.append((name + "_s", "s", ("self", name), moves))
    for op in ("pool", "unpool"):
        for way, moves in (("fwd", _CONV_FWD), ("bwd", _CONV_BWD)):
            name = f"conv.{op}_{way}"
            rows.append((name + "_s", "s", ("self", name), moves))
    for op in ("v2f", "f2v"):
        for way, moves in (("fwd", _CONV_FWD), ("bwd", _CONV_BWD)):
            name = f"conv.{op}_{way}.gflop"
            rows.append((name, "GFLOP_computed", ("count", name), moves))
    rows.append(("conv.f2v_temp_mib", "MiB_computed", ("max", "conv.f2v_temp_mib"),
                 "peak_mem_mib (train-o6)"))
    for way in ("fwd", "bwd"):
        name = f"conv.f2v_{way}.peak_mib"
        rows.append((name, "MiB", ("max", name), "peak_mem_mib (train-o6)"))
    rows.append(("conv.conv_context_s", "s", ("self", "conv.conv_context"), _SETUP))
    return rows


PER_LAYER = _conv_rows() + [
    ("net.forward_self_s", "s", ("self", "net.forward"), _CONV_FWD),
    ("net.backward_self_s", "s", ("self", "net.backward"), _CONV_BWD),
    ("net.masked_batch_s", "s", ("self", "net.masked_batch"), _CONV_FWD),
    ("net.loss_s", "s", ("self", "net.loss"), _CONV_BWD),
    ("net.adamw_s", "s", ("self", "net.adamw"), _CONV_BWD),
    ("net.evaluate_s", "s", ("self", "net.evaluate"), _CONV_BWD),
    ("net.train_self_s", "s", ("self", "net.train"), _CONV_BWD),
    ("net.save_model_s", "s", ("self", "net.save_model"), _CONV_BWD),
    ("net.load_model_s", "s", ("self", "net.load_model"), _DETECT),
    ("net.train_steps", "count", ("count", "net.train_steps"), _CONV_BWD),
    ("mesh.icosphere_s", "s", ("self", "mesh.icosphere"), _SETUP),
    ("mesh.build_hierarchy_s", "s", ("self", "mesh.build_hierarchy"), _SETUP),
    ("spharm.filter_basis_s", "s", ("self", "spharm.filter_basis"), _SETUP),
    ("anomaly.detect_all_s", "s", ("self", "anomaly.detect_all"), _DETECT),
    ("anomaly.roi_passes", "count", ("count", "anomaly.roi_passes"), _DETECT),
    ("anomaly.write_scores_s", "s", ("self", "anomaly.write_scores"), _DETECT),
    ("io.load_manifest_s", "s", ("self", "io.load_manifest"), _DETECT),
    ("io.read_subject_features_s", "s", ("self", "io.read_subject_features"),
     _DETECT),
    ("io.read_atlas_csv_s", "s", ("self", "io.read_atlas_csv"), _DETECT),
    ("stats.effect_report_s", "s", ("self", "stats.effect_report"), _DETECT),
    ("stats.write_s", "s", ("self", "stats.write"), _DETECT),
    ("stats.tests", "count", ("count", "stats.tests"), _DETECT),
    ("synth.generate_s", "s", ("self", "synth.generate"), _SETUP),
    ("cli.train_s", "s", ("self", "cli.train"), _CONV_BWD),
    ("cli.detect_s", "s", ("self", "cli.detect"), _DETECT),
    ("cli.stats_s", "s", ("self", "cli.stats"), _DETECT),
]

def _order_of(ctx):
    return round(math.log((ctx.num_vertices - 2) / 10.0, 4))


def _v2f_fwd_flops(ctx, x, coeffs):
    out_ch, in_ch, k = coeffs.shape
    return 2 * 3 * out_ch * in_ch * (x.shape[0] * ctx.num_facets + k)


def _v2f_bwd_flops(ctx, coeffs, x, grad_out):
    out_ch, in_ch, k = coeffs.shape
    return 2 * 3 * out_ch * in_ch * (2 * x.shape[0] * ctx.num_facets + k)


def _f2v_fwd_flops(ctx, h, coeffs):
    out_ch, in_ch, k = coeffs.shape
    return 2 * 3 * ctx.num_facets * out_ch * in_ch * (k + h.shape[0])


def _f2v_bwd_flops(ctx, coeffs, h, grad_out):
    out_ch, in_ch, k = coeffs.shape
    return 2 * 3 * ctx.num_facets * out_ch * in_ch * (2 * k + 2 * h.shape[0])


def _f2v_temp_mib(ctx, coeffs):
    out_ch, in_ch, _ = coeffs.shape
    return 3 * ctx.num_facets * out_ch * in_ch * 8 / MIB


class Tracer:
    """Records spans of the wrapped smmn functions while installed."""

    def __init__(self, input_order):
        self.input_order = input_order
        self.spans = []  # [id, name, start, end, parent]
        self.counts = defaultdict(float)
        self.maxima = defaultdict(float)
        self.missing = []
        self._stack = []
        self._patched = []  # (owner, attribute, original)

    # -- recording --------------------------------------------------------

    def _call(self, name, fn, args, kwargs):
        rec = [len(self.spans), name, 0.0, 0.0,
               self._stack[-1] if self._stack else None]
        self.spans.append(rec)
        self._stack.append(rec[0])
        rec[2] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[3] = time.perf_counter()
            self._stack.pop()

    def _level(self, ctx):
        return f"l{self.input_order - _order_of(ctx)}"

    def _wrapper(self, fn, name, flops=None, peak=False, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = name(args) if callable(name) else name
            if flops is not None:
                key = span.rsplit(".", 1)[0] + ".gflop"
                self.counts[key] += flops(*args) / 1e9
            if peak and tracemalloc.is_tracing():
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
            result = self._call(span, fn, args, kwargs)
            if peak and tracemalloc.is_tracing():
                key = span.rsplit(".", 1)[0] + ".peak_mib"
                used = (tracemalloc.get_traced_memory()[1] - base) / MIB
                self.maxima[key] = max(self.maxima[key], used)
            if after is not None:
                after(self, args, result)
            return result

        return traced

    # -- installation -----------------------------------------------------

    def _targets(self):
        def conv(op, way):
            return lambda args: f"conv.{op}_{way}.{self._level(args[0])}"

        def f2v_temp(coeffs_at):
            def after(tracer, args, result):
                tracer.maxima["conv.f2v_temp_mib"] = max(
                    tracer.maxima["conv.f2v_temp_mib"],
                    _f2v_temp_mib(args[0], args[coeffs_at]),
                )
            return after

        def count(key, of):
            def after(tracer, args, result):
                tracer.counts[key] += of(result)
            return after

        return [
            ("smmn.cli", "main", lambda args: f"cli.{args[0][0]}", {}),
            ("smmn.synth", "generate_dataset", "synth.generate", {}),
            ("smmn.io", "load_manifest", "io.load_manifest", {}),
            ("smmn.io", "read_subject_features", "io.read_subject_features", {}),
            ("smmn.io", "read_atlas_csv", "io.read_atlas_csv", {}),
            ("smmn.mesh", "icosphere", "mesh.icosphere", {}),
            ("smmn.mesh", "build_hierarchy", "mesh.build_hierarchy", {}),
            ("smmn.spharm", "filter_basis", "spharm.filter_basis", {}),
            ("smmn.conv", "conv_context", "conv.conv_context", {}),
            ("smmn.conv", "v2f_forward_core", conv("v2f", "fwd"),
             {"flops": _v2f_fwd_flops}),
            ("smmn.conv", "v2f_backward_core", conv("v2f", "bwd"),
             {"flops": _v2f_bwd_flops}),
            ("smmn.conv", "f2v_forward_core", conv("f2v", "fwd"),
             {"flops": _f2v_fwd_flops, "peak": True, "after": f2v_temp(2)}),
            ("smmn.conv", "f2v_backward_core", conv("f2v", "bwd"),
             {"flops": _f2v_bwd_flops, "peak": True, "after": f2v_temp(1)}),
            ("smmn.conv", "pool_max_core", "conv.pool_fwd", {}),
            ("smmn.conv", "pool_max_backward_core", "conv.pool_bwd", {}),
            ("smmn.conv", "unpool_core", "conv.unpool_fwd", {}),
            ("smmn.conv", "unpool_backward_core", "conv.unpool_bwd", {}),
            ("smmn.net", "forward_core", "net.forward", {}),
            ("smmn.net", "backward_core", "net.backward", {}),
            ("smmn.net", "masked_batch", "net.masked_batch", {}),
            ("smmn.net", "batch_loss_and_grad", "net.loss", {}),
            ("smmn.net", "AdamW.step", "net.adamw",
             {"after": count("net.train_steps", lambda result: 1)}),
            ("smmn.net", "_evaluate", "net.evaluate", {}),
            ("smmn.net", "train", "net.train", {}),
            ("smmn.net", "save_model", "net.save_model", {}),
            ("smmn.net", "load_model", "net.load_model", {}),
            ("smmn.anomaly", "detect_all", "anomaly.detect_all",
             {"after": count("anomaly.roi_passes", lambda r: len(r.roi_ids))}),
            ("smmn.anomaly", "write_scores_csv", "anomaly.write_scores", {}),
            ("smmn.anomaly", "write_scores_json", "anomaly.write_scores", {}),
            ("smmn.stats", "effect_report", "stats.effect_report",
             {"after": count("stats.tests",
                             lambda r: sum(row.tested for row in r.rows))}),
            ("smmn.stats", "write_stats_csv", "stats.write", {}),
            ("smmn.stats", "write_eta2_svg", "stats.write", {}),
        ]

    def install(self):
        """Wrap every target; a target the program no longer has is listed
        in ``missing`` and its metrics read 0."""
        modules = [m for n, m in sys.modules.items()
                   if (n == "smmn" or n.startswith("smmn.")) and m is not None]
        for module_name, attr, name, opts in self._targets():
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name, None)
                holders = [owner] if owner is not None else []
            else:
                holders = modules
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            wrapped = self._wrapper(original, name, **opts)
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapped)
                        self._patched.append((holder, key, original))

    def uninstall(self):
        for holder, key, original in reversed(self._patched):
            setattr(holder, key, original)
        self._patched.clear()

    # -- results ----------------------------------------------------------

    def self_times(self):
        covered = defaultdict(float)
        for _, _, start, end, parent in self.spans:
            if parent is not None:
                covered[parent] += end - start
        totals = defaultdict(float)
        for sid, name, start, end, _ in self.spans:
            totals[name] += (end - start) - covered[sid]
        return totals

    def layer_metrics(self):
        selfs = self.self_times()
        values = {}
        for name, unit, (kind, key), _ in PER_LAYER:
            if kind == "self":
                value = selfs.get(key, 0.0)
            elif kind == "count":
                value = self.counts.get(key, 0.0)
            else:
                value = self.maxima.get(key, 0.0)
            values[name] = (value, unit)
        return values, sum(selfs.values())

    def write(self, path):
        with open(path, "w") as fp:
            for sid, name, start, end, parent in self.spans:
                fp.write(json.dumps({"id": sid, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")


def print_table(values, out):
    """The per-layer table: metric, value, unit, end-to-end metric it moves."""
    width = max(len(name) for name, *_ in PER_LAYER)
    print(f"{'layer metric':<{width}}  {'value':>12}  {'unit':<14}  moves", file=out)
    for name, unit, _, moves in PER_LAYER:
        value = values[name][0]
        print(f"{name:<{width}}  {value:>12.6g}  {unit:<14}  {moves}", file=out)
