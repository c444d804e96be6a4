"""Per-layer tracing installed from outside the package.

`Tracer.install` replaces each public function named in WRAPPED with a
timing wrapper in every goodsets namespace that binds it by name (for
example `is_good` is bound in goodness, structure, solve, measures and the
package root), so nested calls are seen wherever they come from.  Spans
(name, start, end, parent, job id) stay in memory while jobs run; only calls
made inside a job are recorded, so the benchmark's own checks stay out.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from time import perf_counter

WRAPPED = {
    "instances": ("load_instance", "parse_instance"),
    "goodness": (
        "is_good", "is_full", "full_closure", "extend_to_maximal", "full_split",
        "associated_full_set",
    ),
    "linalg": (
        "solve_pinned", "column_kernel", "rank", "in_span", "extract_circuit", "verify_circuit",
    ),
    "structure": (
        "related", "geodesic", "related_components", "full_component", "ei_classes",
        "boundary", "verify_boundary",
    ),
    "solve": (
        "solve_direct", "solve_via_geodesics", "solve_componentwise", "solve_with_boundary",
        "bound_diagnostics", "geodesic_matrix",
    ),
    "measures": ("is_simplicial", "marginals"),
    "cli": ("main",),
}
TRACED = tuple(f"{module}.{name}" for module, names in WRAPPED.items() for name in names)


def _bits(value) -> int:
    return max(abs(value.numerator).bit_length(), value.denominator.bit_length())


def value_bits(result) -> int:
    """Largest numerator/denominator bit-length in a returned decomposition or loop."""
    best = 0
    decomposition = getattr(result, "decomposition", None)
    if decomposition is not None:
        for table in decomposition.tables:
            for v in table.values():
                best = max(best, _bits(v))
    loop = getattr(result, "loop", None) or (result if hasattr(result, "coefficients") else None)
    if loop is not None:
        for c in loop.coefficients:
            best = max(best, _bits(c))
    return best


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.job = None
        self.related_hits = 0
        self.good_verdicts = 0
        self.max_value_bits = 0
        self._patches: list[tuple] = []

    def install(self):
        importlib.import_module("goodsets.cli")
        modules = [m for k, m in sys.modules.items() if k == "goodsets" or k.startswith("goodsets.")]
        for module_name, names in WRAPPED.items():
            owner = importlib.import_module(f"goodsets.{module_name}")
            for name in names:
                original = getattr(owner, name)
                wrapper = self._wrap(f"{module_name}.{name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patches.append((module, attr, original))
                            setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.job is None:
                return fn(*args, **kwargs)
            start = perf_counter()
            index = len(spans)
            span = [name, start, start, stack[-1] if stack else -1, self.job]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = perf_counter()
            self._observe(name, result)
            return result

        return wrapper

    def _observe(self, name: str, result):
        if name == "structure.related":
            self.related_hits += bool(result)
        elif name == "goodness.is_good":
            self.good_verdicts += bool(result.good)
        self.max_value_bits = max(self.max_value_bits, value_bits(result))

    def layer_metrics(self) -> dict:
        """calls and self time per traced function, plus the ratio counters."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls = dict.fromkeys(TRACED, 0)
        self_ms = dict.fromkeys(TRACED, 0.0)
        for index, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            self_ms[name] += (end - start - child[index]) * 1000.0
        metrics = {}
        for name in TRACED:
            metrics[f"{name}.calls"] = (calls[name], "count")
            metrics[f"{name}.self_ms"] = (self_ms[name], "ms")
        related, good = calls["structure.related"], calls["goodness.is_good"]
        hit_ratio = self.related_hits / related if related else 0.0
        good_ratio = self.good_verdicts / good if good else 0.0
        metrics["structure.related.hit_ratio"] = (hit_ratio, "fraction")
        metrics["goodness.is_good.good_ratio"] = (good_ratio, "fraction")
        metrics["linalg.max_value_bits"] = (self.max_value_bits, "bits")
        return metrics

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as out:
            for name, start, end, parent, job in self.spans:
                span = {"name": name, "start": start, "end": end, "parent": parent, "job": job}
                out.write(json.dumps(span) + "\n")
