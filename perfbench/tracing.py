"""Per-layer tracing from outside the package.

`Tracer.install` replaces each public function listed in `WRAPPED` with a
wrapper that records a span, under every name a ``fuzzts`` module binds it
to (``fuzzts.bisim.decompose`` as well as ``fuzzts.core.decompose``), so the
calls the package makes internally are seen too.  Spans stay in memory as
``[name, start_ns, end_ns, parent, query, size]`` until the run ends;
`layer_metrics` derives calls, self time, counts and ratios from them.
"""

from __future__ import annotations

import importlib
import sys
from collections import Counter, defaultdict
from time import perf_counter_ns

# (layer, function) pairs; a dotted function is a classmethod.  The span's
# size records a count taken at the call: pairs, bytes, entries or exit code.
WRAPPED = {
    ("degrees", "Degree.parse"): None,
    ("core", "decompose"): lambda args, result: len(args[0]),
    ("core", "Fts.from_triples"): None,
    ("language", "step"): None,
    ("language", "lang_table"): lambda args, result: len(result),
    ("language", "lang_equal_up_to"): None,
    ("bisim", "refine"): lambda args, result: len(result),
    ("bisim", "bisimilarity"): None,
    ("bisim", "check_bisimulation"): None,
    ("bisim", "check_strong_bisimulation"): None,
    ("algebra", "minimize"): None,
    ("algebra", "quotient"): None,
    ("algebra", "parallel_compose"): None,
    ("algebra", "check_homomorphism"): None,
    ("algebra", "hom_image"): None,
    ("modelfile", "parse_model"): lambda args, result: len(args[0].encode("utf-8")),
    ("modelfile", "serialize_model"): None,
    ("modelfile", "parse_relation"): None,
    ("modelfile", "parse_map"): None,
    ("cli", "run"): lambda args, result: result,
}

QUERY = "query"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.active = False
        self._stack: list[int] = []
        self._query: int | None = None

    def _wrap(self, name, fn, size):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = len(spans)
            record = [name, 0, 0, stack[-1] if stack else -1, self._query, None]
            spans.append(record)
            stack.append(index)
            record[1] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter_ns()
                stack.pop()
            if size is not None:
                record[5] = size(args, result)
            return result

        return wrapper

    def install(self):
        """Wrap every function in `WRAPPED`; returns a function that undoes it."""
        undo = []
        layers = {layer: importlib.import_module(f"fuzzts.{layer}") for layer, _ in WRAPPED}
        modules = [m for n, m in list(sys.modules.items()) if n == "fuzzts" or n.startswith("fuzzts.")]
        for (layer, attr), size in WRAPPED.items():
            module = layers[layer]
            name = f"{layer}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                setattr(cls, meth, classmethod(self._wrap(name, original.__func__, size)))
                undo.append((cls, meth, original))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original, size)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)
                        undo.append((m, key, original))

        def restore():
            for owner, key, value in reversed(undo):
                setattr(owner, key, value)

        return restore

    def query(self, query_id: int, call):
        """Run one query under a root span; returns (result, error)."""
        self._query = query_id
        record = [QUERY, 0, 0, -1, query_id, None]
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        self.active = True
        record[1] = perf_counter_ns()
        try:
            return call(), None
        except Exception as err:  # a failed query is counted, not fatal
            return None, err
        finally:
            record[2] = perf_counter_ns()
            self.active = False
            self._stack.pop()


def metric_names() -> list[str]:
    """Every per-layer metric `layer_metrics` reports, in order."""
    names = []
    for layer, attr in WRAPPED:
        names += [f"{layer}.{attr}.calls", f"{layer}.{attr}.self_s"]
    return names + list(EXTRA_UNITS)


EXTRA_UNITS = {
    "bisim.refine.pairs": "count",
    "core.decompose.pairs": "count",
    "algebra.minimize.bisimilarity_per_call": "ratio",
    "algebra.hom_image.hom_checks_per_query": "ratio",
    "modelfile.parse_model.mib_per_s": "MiB/s",
    "cli.run.exit_nonzero": "count",
    "language.words": "count",
    "trace.queries_per_s_ratio": "ratio",
}


def _has_ancestor(spans, index, name) -> bool:
    parent = spans[index][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Calls and self time of every wrapped function, plus the counts and
    ratios named in `EXTRA_UNITS` (all but the tracing overhead)."""
    child = [0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    calls: Counter = Counter()
    self_ns: Counter = Counter()
    sizes: Counter = Counter()
    inclusive: Counter = Counter()
    for i, (name, start, end, _, _, size) in enumerate(spans):
        calls[name] += 1
        self_ns[name] += end - start - child[i]
        inclusive[name] += end - start
        if size:
            sizes[name] += size
    metrics: dict[str, float] = {}
    for layer, attr in WRAPPED:
        name = f"{layer}.{attr}"
        metrics[f"{name}.calls"] = calls[name]
        metrics[f"{name}.self_s"] = self_ns[name] / 1e9

    per_query = defaultdict(Counter)
    for name, _, _, _, query, _ in spans:
        per_query[query][name] += 1
    image_queries = [c for c in per_query.values() if c["algebra.hom_image"]]
    minimize_bisims = sum(
        1 for i, span in enumerate(spans)
        if span[0] == "bisim.bisimilarity" and _has_ancestor(spans, i, "algebra.minimize")
    )
    equality_steps = sum(
        1 for i, span in enumerate(spans)
        if span[0] == "language.step" and _has_ancestor(spans, i, "language.lang_equal_up_to")
    )
    parse_s = inclusive["modelfile.parse_model"] / 1e9
    metrics.update({
        "bisim.refine.pairs": sizes["bisim.refine"],
        "core.decompose.pairs": sizes["core.decompose"],
        "algebra.minimize.bisimilarity_per_call":
            minimize_bisims / calls["algebra.minimize"] if calls["algebra.minimize"] else 0.0,
        "algebra.hom_image.hom_checks_per_query":
            sum(c["algebra.check_homomorphism"] for c in image_queries) / len(image_queries)
            if image_queries else 0.0,
        "modelfile.parse_model.mib_per_s":
            sizes["modelfile.parse_model"] / 2**20 / parse_s if parse_s else 0.0,
        "cli.run.exit_nonzero": sum(
            1 for span in spans if span[0] == "cli.run" and span[5] != 0
        ),
        # table entries returned, plus words compared on both sides
        "language.words": sizes["language.lang_table"] + equality_steps // 2,
    })
    return metrics


def rounds_per_query(spans: list[list]) -> Counter:
    """Refinement rounds (calls of ``refine``) in each query."""
    return Counter(span[4] for span in spans if span[0] == "bisim.refine")
