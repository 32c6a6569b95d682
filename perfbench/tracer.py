"""Outside-in tracer for the bollosys package.

``Tracer.install`` replaces each traced function, in every ``bollosys.*``
namespace that holds it, with a wrapper; ``uninstall`` puts the originals
back.  Modules such as ``constructions``, ``search`` and ``weights`` bind
``classify`` and friends by name, which is why a function is looked for by
identity in every namespace and not only in the module that defines it.

Functions in ``SPANS`` record a span (name, start, end, parent) in memory.
A span's self time is its duration minus the time its child spans cover,
and each span's self time goes to one per-layer metric.  Hot per-element
functions, in ``COUNTERS``, only count calls: their time stays in the
caller's self time.  ``HOOKS`` add work counts read off a call's arguments
and result, after the span has ended.
"""

from __future__ import annotations

import os
import sys
from collections import defaultdict
from functools import wraps
from time import perf_counter

# (module, attribute) -> metric that receives the span's self time.
# "Class.__init__" entries time object construction.
SPANS = {
    ("bollosys.cli", "run"): "cli.self_s",
    ("bollosys.cli", "render"): "cli.render_s",
    ("bollosys.familyjson", "load_family"): "familyjson.load_s",
    ("bollosys.familyjson", "family_from_obj"): "familyjson.load_s",
    ("bollosys.familyjson", "family_to_obj"): "familyjson.dump_s",
    ("bollosys.familyjson", "certificate_to_obj"): "familyjson.dump_s",
    ("bollosys.familyjson", "outcome_to_obj"): "familyjson.dump_s",
    ("bollosys.familyjson", "cell_to_obj"): "familyjson.dump_s",
    ("bollosys.core", "DPartition.__init__"): "core.dpartition_s",
    ("bollosys.core", "Family.__init__"): "core.family_s",
    ("bollosys.core", "GroundSet.__init__"): "core.family_s",
    ("bollosys.classify", "classify_with_witnesses"): "classify.self_s",
    ("bollosys.weights", "inverse_multinomial_sum"): "weights.self_s",
    ("bollosys.weights", "blocked_inverse_sum"): "weights.self_s",
    ("bollosys.weights", "tuza_product_sum"): "weights.self_s",
    ("bollosys.weights", "check_theorem"): "weights.self_s",
    ("bollosys.constructions", "lex_full_family"): "constructions.self_s",
    ("bollosys.constructions", "chain_family_d3"): "constructions.self_s",
    ("bollosys.constructions", "type_expansion"): "constructions.self_s",
    ("bollosys.constructions", "permutation_family"): "constructions.self_s",
    ("bollosys.constructions", "complement_pair_family"): "constructions.self_s",
    ("bollosys.constructions", "matchbox_weak_family"): "constructions.self_s",
    ("bollosys.constructions", "counterexample_conj1"): "constructions.self_s",
    ("bollosys.search", "n_bollobas"): "search.graph_s",
    ("bollosys.search", "maximum_clique"): "search.clique_s",
    ("bollosys.search", "_verify_witness"): "search.verify_s",
    ("bollosys.search", "search_class"): "search.self_s",
    ("bollosys.search", "n_table"): "search.self_s",
    ("bollosys.search", "n_skew"): "search.self_s",
    ("bollosys.search", "n_strong"): "search.self_s",
    ("bollosys.search", "n_weak"): "search.self_s",
    ("bollosys.search", "interval_vertices"): "search.self_s",
    ("bollosys.permoracle", "double_count_identity"): "permoracle.self_s",
}

COUNTERS = {
    ("bollosys.classify", "pair_skew"): "classify.pair_predicate_calls",
    ("bollosys.classify", "pair_weak"): "classify.pair_predicate_calls",
    ("bollosys.classify", "pair_bollobas"): "classify.pair_predicate_calls",
    ("bollosys.classify", "pair_strong"): "classify.pair_predicate_calls",
    ("bollosys.classify", "pair_symmetric"): "classify.pair_predicate_calls",
    ("bollosys.classify", "skew_witness"): "classify.skew_witness_calls",
    ("bollosys.search", "_greedy_colour_bound"): "search.colour_bound_calls",
    ("bollosys.weights", "multinomial"): "weights.multinomial_calls",
    ("bollosys.permoracle", "i_sigma"): "permoracle.permutations",
}


def _classified(counts, args, result):
    m = args[0].m
    counts["classify.calls"] += 1
    counts["classify.pairs_offered"] += m * (m - 1) // 2


def _dpartition(counts, args, result):
    counts["core.dpartitions"] += 1


def _loaded(counts, args, result):
    counts["familyjson.bytes_in"] += os.path.getsize(args[0])


def _rendered(counts, args, result):
    counts["cli.bytes_out"] += len(result.encode())


def _members_built(counts, args, result):
    counts["constructions.members_built"] += result.m


def _clique(counts, args, result):
    adj, n = args[0], args[1]
    counts["search.vertices"] += n
    counts["search.edges"] += sum(row.bit_count() for row in adj) // 2


def _permutation(counts, args, result):
    counts["permoracle.incidences"] += args[0].m


HOOKS = {
    ("bollosys.classify", "classify_with_witnesses"): _classified,
    ("bollosys.core", "DPartition.__init__"): _dpartition,
    ("bollosys.familyjson", "load_family"): _loaded,
    ("bollosys.cli", "render"): _rendered,
    ("bollosys.search", "maximum_clique"): _clique,
    ("bollosys.permoracle", "i_sigma"): _permutation,
    **{
        key: _members_built
        for key in SPANS
        if key[0] == "bollosys.constructions" and key[1] != "counterexample_conj1"
    },
}

# Every metric the tracer can report, so absent layers report 0.
METRICS = sorted(
    set(SPANS.values()) | set(COUNTERS.values()) | {
        "classify.calls", "classify.pairs_offered", "constructions.members_built",
        "search.vertices", "search.edges", "permoracle.incidences",
        "core.dpartitions", "familyjson.bytes_in", "cli.bytes_out",
    }
)


def unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.startswith("familyjson.bytes") or metric.startswith("cli.bytes"):
        return "B"
    if metric == "classify.pairs_offered":
        return "pairs_max"  # m(m-1)/2 per call: the scan may stop early
    return "count"


def _lookup(key):
    module, attr = key
    owner = sys.modules[module]
    if "." in attr:
        cls, attr = attr.split(".")
        owner = getattr(owner, cls)
    return owner, attr


class Tracer:
    def __init__(self) -> None:
        # (module, attribute), start, end, index of the parent span or -1
        self.spans: list[tuple[tuple[str, str], float, float, int] | None] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _span(self, name, fn, hook):
        spans, stack, counts = self.spans, self._stack, self.counts

        @wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if hook is not None:
                hook(counts, args, result)
            return result

        return wrapper

    def _counter(self, metric, fn, hook):
        counts = self.counts

        @wraps(fn)
        def wrapper(*args, **kwargs):
            counts[metric] += 1
            result = fn(*args, **kwargs)
            if hook is not None:
                hook(counts, args, result)
            return result

        return wrapper

    def install(self) -> None:
        namespaces = [
            module for name, module in sys.modules.items()
            if name == "bollosys" or name.startswith("bollosys.")
        ]
        for key, metric in [*SPANS.items(), *COUNTERS.items()]:
            owner, attr = _lookup(key)
            original = getattr(owner, attr)
            if key in SPANS:
                wrapper = self._span(key, original, HOOKS.get(key))
            else:
                wrapper = self._counter(metric, original, HOOKS.get(key))
            if isinstance(owner, type):
                self._patch(owner, attr, wrapper)
                continue
            for module in namespaces:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, name, wrapper)

    def _patch(self, owner, name, wrapper) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def collect(self) -> dict[str, float]:
        """Per-layer self times and counts since the last collect; resets both."""
        covered = defaultdict(float)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out = {metric: 0 for metric in METRICS}
        out.update(self.counts)
        for index, (key, start, end, parent) in enumerate(self.spans):
            out[SPANS[key]] += end - start - covered[index]
        self.spans.clear()
        self.counts.clear()
        return out
