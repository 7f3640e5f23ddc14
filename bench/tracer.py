"""Span tracing from outside the program.

The tracer replaces public functions of stiefelgen's modules, under the
names the calling modules look them up by, with wrappers that record a
span (name, start, end, parent) per call plus a few counters. Nothing in
the package is edited; `uninstall` puts every original back.
"""

from __future__ import annotations

import hashlib
import importlib
import os
import time
from collections import defaultdict

import numpy as np

#: (module the name is looked up in, attribute path, span name). The same
#: function appears once per module that calls it, because each module
#: holds its own reference from its `from ... import`. A span name of None
#: is chosen per call: `cli.<subcommand>`, or `<calling layer>.svd`.
TARGETS = (
    ("stiefelgen.cli", "main", None),
    ("stiefelgen.io", "read_series", "io.read"),
    ("stiefelgen.io", "read_columns", "io.read"),
    ("stiefelgen.io", "write_series", "io.write"),
    ("stiefelgen.io", "write_columns", "io.write"),
    ("stiefelgen.io", "write_json", "io.write"),
    ("stiefelgen.cli", "to_page_matrix", "signal.to_page_matrix"),
    ("stiefelgen.augment", "to_page_matrix", "signal.to_page_matrix"),
    ("stiefelgen.cli", "from_page_matrix", "signal.from_page_matrix"),
    ("stiefelgen.augment", "from_page_matrix", "signal.from_page_matrix"),
    ("stiefelgen.augment", "smooth", "signal.smooth"),
    ("stiefelgen.sphere", "smooth", "signal.smooth"),
    ("stiefelgen.cli", "stiefelgen_series", "augment.stiefelgen_series"),
    ("stiefelgen.augment", "stiefelgen_series", "augment.stiefelgen_series"),
    ("stiefelgen.cli", "stiefelgen_matrix", "augment.stiefelgen_matrix"),
    ("stiefelgen.augment", "stiefelgen_matrix", "augment.stiefelgen_matrix"),
    ("stiefelgen.cli", "batch_generate", "augment.batch_generate"),
    ("stiefelgen.cli", "geodesic_path", "augment.geodesic_path"),
    ("stiefelgen.novelty", "geodesic_path", "augment.geodesic_path"),
    ("stiefelgen.augment", "random_tangent", "stiefel.random_tangent"),
    ("stiefelgen.dmd", "random_tangent", "stiefel.random_tangent"),
    ("stiefelgen.augment", "normalize_and_scale", "stiefel.normalize_and_scale"),
    ("stiefelgen.dmd", "normalize_and_scale", "stiefel.normalize_and_scale"),
    ("stiefelgen.augment", "exp_map", "stiefel.exp_map"),
    ("stiefelgen.dmd", "exp_map", "stiefel.exp_map"),
    ("stiefelgen.stiefel", "exp_map", "stiefel.exp_map"),
    ("stiefelgen.stiefel", "matrix_exp", "stiefel.matrix_exp"),
    ("stiefelgen.stiefel", "StiefelPoint.__post_init__", "stiefel.validate"),
    ("stiefelgen.stiefel", "TangentVector.__post_init__", "stiefel.validate"),
    ("stiefelgen.augment", "geodesic", "stiefel.geodesic"),
    ("stiefelgen.cli", "sphere_gen", "sphere.sphere_gen"),
    ("stiefelgen.cli", "fit_dmd", "dmd.fit"),
    ("stiefelgen.dmd", "perturbed_fit", "dmd.fit"),
    ("stiefelgen.cli", "forecast", "dmd.forecast"),
    ("stiefelgen.dmd", "forecast", "dmd.forecast"),
    ("stiefelgen.cli", "ensemble_forecast", "dmd.ensemble_forecast"),
    ("stiefelgen.fda", "mbd", "fda.mbd"),
    ("stiefelgen.cli", "functional_boxplot", "fda.functional_boxplot"),
    ("stiefelgen.cli", "generate_shm_dataset", "novelty.generate_shm_dataset"),
    ("stiefelgen.cli", "fit_pca", "novelty.fit_pca"),
    ("stiefelgen.cli", "fit_one_class", "novelty.fit_one_class"),
    ("stiefelgen.cli", "perturb_and_track", "novelty.perturb_and_track"),
    ("stiefelgen.cli", "norm_change_ranking", "novelty.norm_change_ranking"),
    ("stiefelgen.cli", "adversarial_candidate", "novelty.adversarial_candidate"),
    ("numpy.linalg", "svd", None),
)

#: Layers whose SVD calls are counted separately, by the span that made the call.
SVD_LAYERS = ("augment", "dmd", "novelty")


def _digest(a) -> bytes:
    a = np.ascontiguousarray(a)
    return hashlib.blake2b(a.tobytes() + str((a.shape, a.dtype)).encode(), digest_size=16).digest()


class Tracer:
    """In-memory span and counter recorder for one traced pass or more."""

    def __init__(self) -> None:
        self.spans = []  # [name, start, end, parent index, nested under the same name]
        self.stack = []
        self.counters = defaultdict(float)
        self.svd_inputs = defaultdict(set)
        self._patched = []

    def reset(self) -> None:
        self.spans.clear()
        self.counters.clear()
        self.svd_inputs.clear()

    def _wrap(self, fn, name, after=None):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            span_name = name(args) if callable(name) else name
            idx = len(spans)
            nested = any(spans[j][0] == span_name for j in stack)
            spans.append([span_name, 0.0, 0.0, stack[-1] if stack else -1, nested])
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx][1], spans[idx][2] = start, end
            if after is not None:
                after(span_name, args, kwargs)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # counters, updated after the call so they stay out of the span's own time

    def _io_bytes(self, span_name, args, kwargs):
        self.counters[span_name + ".bytes"] += os.path.getsize(args[0])

    def _exp_map_route(self, span_name, args, kwargs):
        base, d = args[0], args[1]
        if not np.any(d.delta):
            return
        m, n = base.matrix.shape
        route = "square" if m == n else "block" if m >= 2 * n else "dense"
        self.counters["stiefel.exp_map.route_" + route] += 1

    def _matrix_exp_work(self, span_name, args, kwargs):
        self.counters["stiefel.matrix_exp.dim3_sum"] += float(np.shape(args[0])[0]) ** 3

    def _svd_input(self, span_name, args, kwargs):
        self.svd_inputs[span_name].add(_digest(args[0]))

    def _svd_name(self, args) -> str:
        if self.stack:
            layer = self.spans[self.stack[-1]][0].split(".")[0]
            if layer in SVD_LAYERS:
                return layer + ".svd"
        return "other.svd"

    def install(self) -> None:
        """Replace every target with its tracing wrapper."""
        after = {
            "io.read": self._io_bytes,
            "io.write": self._io_bytes,
            "stiefel.exp_map": self._exp_map_route,
            "stiefel.matrix_exp": self._matrix_exp_work,
        }
        for module, path, name in TARGETS:
            owner = importlib.import_module(module)
            *classes, attr = path.split(".")
            for cls in classes:
                owner = getattr(owner, cls)
            original = getattr(owner, attr)
            if attr == "main":
                wrapped = self._wrap(original, lambda args: "cli." + args[0][0])
            elif attr == "svd":
                wrapped = self._wrap(original, self._svd_name, self._svd_input)
            else:
                wrapped = self._wrap(original, name, after.get(name))
            setattr(owner, attr, wrapped)
            self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def span_stats(self) -> dict:
        """Per span name: calls, busy seconds (outermost calls only) and self seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        stats = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        for i, (name, start, end, _, nested) in enumerate(self.spans):
            s = stats[name]
            s["calls"] += 1
            s["self_s"] += end - start - child[i]
            if not nested:
                s["busy_s"] += end - start
        return dict(stats)

    def layer_metrics(self) -> dict:
        """Span statistics and counters flattened to `<span>.<stat>` metric names."""
        stats = self.span_stats()
        out = {f"{name}.{key}": value for name, s in stats.items() for key, value in s.items()}
        out.update(self.counters)
        out["cli.self_s"] = sum(s["self_s"] for name, s in stats.items() if name.startswith("cli."))
        for layer in SVD_LAYERS:
            calls = stats.get(layer + ".svd", {}).get("calls", 0)
            distinct = len(self.svd_inputs.get(layer + ".svd", ()))
            out[layer + ".svd.distinct_inputs"] = distinct
            out[layer + ".svd.useful_frac"] = distinct / calls if calls else 0.0
        return out
