"""Per-layer metrics of a traced run.

The layers are the program's modules.  ``start`` wraps their public
functions (see tracing.py) and adds counters at the boundaries where work is
measured in points or bytes; ``metrics`` turns the spans and counters into
the per-layer metrics, per round of the workload (set-up spans, such as
``make_grid`` and ``make_phantom``, are counted once).
"""

import os
import sys
from collections import defaultdict

import numpy as np

import tracing

MODULES = (
    "grid", "harness", "xform", "cartesian",
    "invert_john", "invert_ac", "invert_hs", "invert_svd", "specfun",
)

# (name, unit, better); "<module>.<function>_s" is that function's self time,
# "<module>.self_s" the self time of all of a module's functions.
PER_LAYER = (
    ("grid.make_grid_s", "s", "lower"),
    ("grid.make_grid_calls", "count", "lower"),
    ("harness.make_phantom_s", "s", "lower"),
    ("harness.make_phantom_calls", "count", "lower"),
    ("harness.read_vsl_s", "s", "lower"),
    ("harness.read_vsl_calls", "count", "lower"),
    ("harness.vsl_bytes", "byte", "lower"),
    ("xform.vslice_forward_s", "s", "lower"),
    ("xform.vslice_forward_calls", "count", "lower"),
    ("xform.evaluator_points", "count", "lower"),
    ("xform.dual_radon_s", "s", "lower"),
    ("xform.dual_radon_calls", "count", "lower"),
    ("xform.dual_radon_points", "count", "lower"),
    ("xform.log_backprojection_s", "s", "lower"),
    ("xform.log_backprojection_calls", "count", "lower"),
    ("xform.log_backprojection_points", "count", "lower"),
    ("xform.is_even_slice_data_calls", "count", "lower"),
    ("xform.fold_ratio", "1", "higher"),
    ("cartesian.neg_laplacian_s", "s", "lower"),
    ("cartesian.neg_laplacian_calls", "count", "lower"),
    ("cartesian.sample_box_s", "s", "lower"),
    ("cartesian.sample_box_calls", "count", "lower"),
    ("cartesian.cartesian_nodes_calls", "count", "lower"),
    ("cartesian.lattice_nodes", "count", "lower"),
    ("invert_john.self_s", "s", "lower"),
    ("invert_john.invert_john_calls", "count", "lower"),
    ("invert_ac.self_s", "s", "lower"),
    ("invert_ac.invert_ac_calls", "count", "lower"),
    ("invert_hs.self_s", "s", "lower"),
    ("invert_hs.invert_hypersingular_calls", "count", "lower"),
    ("invert_hs.resample_calls", "count", "lower"),
    ("invert_hs.resample_points", "count", "lower"),
    ("invert_svd.self_s", "s", "lower"),
    ("invert_svd.reconstruct_calls", "count", "lower"),
    ("invert_svd.analyze_s", "s", "lower"),
    ("invert_svd.analyze_calls", "count", "lower"),
    ("invert_svd.synthesize_sphere_s", "s", "lower"),
    ("invert_svd.synthesize_sphere_calls", "count", "lower"),
    ("invert_svd.indices", "count", "lower"),
    ("specfun.self_s", "s", "lower"),
    ("specfun.sph_harm_s", "s", "lower"),
    ("specfun.sph_harm_calls", "count", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def _count(key, measure):
    return lambda args, kwargs, result: {key: measure(args, result)}


def start(vs):
    """Install the wrappers; returns the tracer and the phantom wrapper."""
    tracer = tracing.Tracer()
    # the package's `invert_john` and `invert_ac` are the functions that
    # shadow their modules, so the modules are taken from sys.modules
    modules = [sys.modules["vslice." + name] for name in MODULES]
    namespaces = [vs] + [m for name, m in sys.modules.items() if name.startswith("vslice.")]
    counters = {
        "harness.read_vsl": _count("harness.vsl_bytes", lambda a, r: os.path.getsize(a[0])),
        "xform.dual_radon": _count("xform.dual_radon_points", lambda a, r: np.size(r)),
        "xform.log_backprojection": _count("xform.log_backprojection_points",
                                           lambda a, r: np.size(r)),
        "xform.is_even_slice_data": _count("xform.is_even_slice_data_true", lambda a, r: float(r)),
        "cartesian.cartesian_nodes": _count("cartesian.lattice_nodes", lambda a, r: r[1].shape[0]),
        "invert_svd.analyze": _count("invert_svd.indices", lambda a, r: len(r.indices)),
    }
    resample = {(vs.invert_hs, "map_coordinates"): lambda args, kwargs, result: {
        "invert_hs.resample_calls": 1, "invert_hs.resample_points": np.size(result)}}
    tracing.install(tracer, modules, namespaces, counters, resample)

    def wrap(f):
        """Same phantom, with an evaluator that counts the points it is asked for."""
        if f.evaluator is None:
            return f
        counted = tracer.counter(f.evaluator, _count("xform.evaluator_points",
                                                     lambda a, r: np.size(r)))
        return type(f)(f.grid, f.smooth, f.boundary_exponent, counted)

    return tracer, wrap


def _per_round(tracer, rounds):
    """Self time per span name and counter totals, per round of the workload."""
    own = defaultdict(float)
    for span, seconds in zip(tracer.spans, tracer.self_times()):
        own[span[0]] += seconds if span[4] == "setup" else seconds / rounds
    counts = defaultdict(float)
    for (op, key), value in tracer.counts.items():
        counts[key] += value if op == "setup" else value / rounds
    return own, counts


def metrics(tracer, runner, twin):
    rounds = len(runner.rounds)
    own, counts = _per_round(tracer, rounds)
    untraced = twin["op_median_s"]
    traced = runner.op_medians()
    out = {}
    for name, unit, _ in PER_LAYER:
        module, quantity = name.split(".", 1)
        if name == "xform.fold_ratio":
            calls = counts["xform.is_even_slice_data_calls"]
            value = counts["xform.is_even_slice_data_true"] / calls if calls else 0.0
        elif name == "trace.spans":
            value = sum(1 for s in tracer.spans if s[4] != "setup") / rounds
        elif name == "trace.overhead_s":
            value = sum(traced[k] - untraced[k] for k in traced if k in untraced)
        elif quantity == "self_s":
            value = float(sum(v for k, v in own.items() if k.startswith(module + ".")))
        elif quantity.endswith("_s"):
            value = own[name[:-2]]
        else:
            value = counts[name]
        out[name] = {"value": value, "unit": unit}
    return out


def op_table(tracer, runner, twin):
    """Per op: the untraced median time per call, and per traced call the
    mean time and the mean sum of the self times of the wrapped spans inside
    it (the difference is the benchmark's own glue)."""
    covered = defaultdict(float)
    for span, seconds in zip(tracer.spans, tracer.self_times()):
        if span[4] != "setup":
            covered[span[4]] += seconds
    untraced = twin["op_median_s"]
    return {
        label: {
            "untraced_s": untraced.get(label, float("nan")),
            "traced_s": sum(times) / len(times),
            "self_sum_s": covered[label] / len(times),
        }
        for label, times in sorted(runner.times.items())
    }


def print_table(tracer, runner, table):
    """The op table, then the spans with the most self time per round."""
    print("%-24s %12s %12s %12s" % ("op", "untraced", "traced mean", "self sum"))
    for label, row in table.items():
        print("%-24s %12.4f %12.4f %12.4f"
              % (label, row["untraced_s"], row["traced_s"], row["self_sum_s"]))
    rounds = len(runner.rounds)
    top = defaultdict(float)
    for span, seconds in zip(tracer.spans, tracer.self_times()):
        top[span[0]] += seconds / (1 if span[4] == "setup" else rounds)
    for name, seconds in sorted(top.items(), key=lambda kv: -kv[1])[:12]:
        print("self %-36s %10.4f s per round" % (name, seconds))
