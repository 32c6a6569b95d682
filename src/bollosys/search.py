"""Exact extremal family sizes over increasing-parts d-partitions.

A full d-partition of [s] with increasing parts is exactly a composition of s
into d non-negative parts (part r occupies the next run of consecutive
integers), so the default search space is the composition list.  The extremal
size of a pairwise-compatible class is then a maximum clique in the
compatibility graph, found by one exhaustive branch-and-bound pass over
bitset rows with a greedy colouring bound.  The pass branches in ascending
vertex index order, so the first maximum clique it meets, the reported
witness, is the lexicographically least one and results are deterministic.
The witness is re-verified pair by pair with the scalar ``pair_*``
predicates, which share no code with the search or its bitset graph rows.

The ``general`` mode drops the fullness reduction on tiny instances: vertices
are all increasing-parts partitions with support inside [s] and cliques must
jointly cover [s].  It exists to cross-validate that the reduction loses
nothing, and agrees with the default mode wherever both run.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb
from typing import Callable, Iterator, Optional

from .classify import pair_bollobas, pair_skew, pair_strong, pair_weak, relation_rows
from .core import (
    CapExceeded,
    DPartition,
    Family,
    GroundSet,
    VerificationError,
    parts_increasing,
)

DEFAULT_VERTEX_CAP = 5000

SEARCH_CLASSES = ("bollobas", "skew", "strong", "weak")


def compositions(s: int, d: int) -> Iterator[tuple[int, ...]]:
    """All d-tuples of non-negative integers summing to s, lexicographically."""
    if d == 1:
        yield (s,)
        return
    for first in range(s + 1):
        for rest in compositions(s - first, d - 1):
            yield (first,) + rest


def _laid_out(elements: tuple[int, ...], d: int) -> Iterator[DPartition]:
    """One increasing-parts d-partition of the elements per composition of
    their count, in lexicographic composition order: part r takes the next
    run of consecutive elements."""
    for comp in compositions(len(elements), d):
        bounds = (0, *itertools.accumulate(comp))
        yield DPartition(tuple(frozenset(elements[a:b]) for a, b in itertools.pairwise(bounds)))


def interval_vertices(d: int, s: int, cap: int = DEFAULT_VERTEX_CAP) -> list[DPartition]:
    """The full increasing-parts d-partitions of [s], one per composition of
    s, in lexicographic composition order."""
    if d < 1 or s < 0:
        raise ValueError("need d >= 1 and s >= 0")
    count = comb(s + d - 1, d - 1)
    if count > cap:
        raise CapExceeded(f"{count} interval vertices, cap is {cap}")
    return list(_laid_out(tuple(range(1, s + 1)), d))


def _general_vertices(d: int, s: int, cap: int) -> list[DPartition]:
    # increasing-parts partitions with support inside [s]: a support subset
    # plus a composition of its size
    count = sum(comb(s, t) * comb(t + d - 1, d - 1) for t in range(s + 1))
    if count > cap:
        raise CapExceeded(f"{count} general vertices, cap is {cap}")
    out: list[DPartition] = []
    for t in range(s + 1):
        for subset in itertools.combinations(range(1, s + 1), t):
            out.extend(_laid_out(subset, d))
    return out


@dataclass(frozen=True)
class SearchOutcome:
    value: int
    witness: Family
    mode: str


def _greedy_colour_bound(cand: int, adj: list[int]) -> int:
    # colour classes of the candidate set; their number bounds any clique in it
    classes: list[int] = []
    rest = cand
    while rest:
        low = rest & -rest
        rest ^= low
        v = low.bit_length() - 1
        for idx, members in enumerate(classes):
            if not members & adj[v]:
                classes[idx] = members | low
                break
        else:
            classes.append(low)
    return len(classes)


def _support_reachable(cand: int, covered: int, supports: list[int], required: int) -> bool:
    reach = covered
    rest = cand
    while rest and reach & required != required:
        low = rest & -rest
        rest ^= low
        reach |= supports[low.bit_length() - 1]
    return reach & required == required


def maximum_clique(
    adj: list[int],
    n: int,
    supports: Optional[list[int]] = None,
    required: int = 0,
) -> list[int]:
    """Lexicographically least maximum clique, as ascending vertex indices.

    When ``supports`` is given, only cliques whose accumulated support covers
    ``required`` count; a feasible clique must exist.  One branch-and-bound
    pass branches in ascending index order, so cliques are met in
    lexicographic order, and records a feasible clique only when it beats
    the best so far.  The first maximum clique met, the lex-least one, is
    thus the last recorded; the colour-bound prunes never cut it, as they
    cut only subtrees that cannot beat the best so far.
    """
    if supports is None:
        supports = [0] * n
        required = 0
    best = -1
    clique: tuple[int, ...] = ()

    def extend(path: tuple[int, ...], cand: int, covered: int) -> None:
        nonlocal best, clique
        size = len(path)
        if size > best and covered & required == required:
            best = size
            clique = path
        if not cand or not _support_reachable(cand, covered, supports, required):
            return
        if size + _greedy_colour_bound(cand, adj) <= best:
            return
        rest = cand
        while rest:
            low = rest & -rest
            rest ^= low
            cand ^= low
            v = low.bit_length() - 1
            extend(path + (v,), cand & adj[v], covered | supports[v])
            if size + _greedy_colour_bound(cand, adj) <= best:
                return

    extend((), (1 << n) - 1, 0)
    if best < 0:
        raise VerificationError("no feasible clique exists")
    return list(clique)


def _verify_witness(
    witness: Family, related: Callable[[DPartition, DPartition], bool], s: int, expected: int
) -> None:
    # independent of the search: re-check shape, and every pair in listed
    # order with the class's scalar reference predicate
    if witness.m != expected:
        raise VerificationError(f"witness has {witness.m} members, claimed {expected}")
    if witness.support != frozenset(range(1, s + 1)):
        raise VerificationError("witness support does not cover [s]")
    if not all(parts_increasing(member) for member in witness.members):
        raise VerificationError("witness member without increasing parts")
    for i, j in itertools.combinations(range(witness.m), 2):
        if not related(witness.members[i], witness.members[j]):
            raise VerificationError(f"witness pair ({i}, {j}) fails {related.__name__}")


def n_bollobas(
    d: int, s: int, mode: str = "full-only", cap: int = DEFAULT_VERTEX_CAP
) -> SearchOutcome:
    """Exact maximum size of a bollobas system of increasing-parts
    d-partitions with support [s], by clique search."""
    if mode not in ("full-only", "general"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "full-only":
        parts = interval_vertices(d, s, cap)
        supports = None
        required = 0
    else:
        parts = _general_vertices(d, s, cap)
        # parts are disjoint, so the sum of their masks is the support
        supports = [sum(p.masks) for p in parts]
        required = (1 << s) - 1
    adj = list(relation_rows(parts, d, "bollobas"))
    clique = maximum_clique(adj, len(parts), supports, required)
    witness = Family(GroundSet(s), tuple(parts[i] for i in clique), d)
    _verify_witness(witness, pair_bollobas, s, len(clique))
    return SearchOutcome(len(clique), witness, mode)


def n_skew(d: int, s: int, cap: int = DEFAULT_VERTEX_CAP) -> SearchOutcome:
    """Exact skew maximum: every interval vertex, listed in decreasing
    lexicographic composition order.  The value is the vertex count (members
    of any candidate family are distinct vertices after filling, so nothing
    larger exists); a verification failure here is fatal, not a user error."""
    witness = Family(GroundSet(s), tuple(interval_vertices(d, s, cap)[::-1]), d)
    value = comb(s + d - 1, d - 1)
    _verify_witness(witness, pair_skew, s, value)
    return SearchOutcome(value, witness, "full-only")


def n_strong(d: int, s: int, cap: int = DEFAULT_VERTEX_CAP) -> SearchOutcome:
    """Exact strong maximum, always 1: every pair of distinct interval
    vertices is checked to fail the strong relation, so no two-member
    family survives and any single vertex is a witness."""
    parts = interval_vertices(d, s, cap)
    for i, row in enumerate(relation_rows(parts, d, "strong")):
        if row:
            j = (row & -row).bit_length() - 1
            raise VerificationError(f"interval vertices {i} and {j} form a strong pair")
    witness = Family(GroundSet(s), (parts[0],), d)
    _verify_witness(witness, pair_strong, s, 1)
    return SearchOutcome(1, witness, "full-only")


def n_weak(d: int, s: int, cap: int = DEFAULT_VERTEX_CAP) -> SearchOutcome:
    """Exact weak maximum: equals the skew value, with the skew witness (a
    skew system is weak).  No weak family can exceed the vertex count since
    filled members are distinct vertices."""
    base = n_skew(d, s, cap)
    _verify_witness(base.witness, pair_weak, s, base.value)
    return SearchOutcome(base.value, base.witness, "full-only")


def search_class(
    system_class: str, d: int, s: int, mode: str = "full-only", cap: int = DEFAULT_VERTEX_CAP
) -> SearchOutcome:
    if system_class == "bollobas":
        return n_bollobas(d, s, mode=mode, cap=cap)
    if mode != "full-only":
        raise ValueError("general mode is only implemented for the bollobas search")
    if system_class == "skew":
        return n_skew(d, s, cap)
    if system_class == "strong":
        return n_strong(d, s, cap)
    if system_class == "weak":
        return n_weak(d, s, cap)
    raise ValueError(f"unknown search class {system_class!r}")


@dataclass(frozen=True)
class TableCell:
    d: int
    s: int
    value: Optional[int]
    witness: Optional[Family]
    skipped: bool = False
    reason: Optional[str] = None


def n_table(
    d_values: list[int],
    s_values: list[int],
    system_class: str = "bollobas",
    cap: int = DEFAULT_VERTEX_CAP,
) -> list[TableCell]:
    """One searched cell per (d, s); cells beyond the cap are marked skipped
    with the reason, never fabricated.  Bollobas cells are sanity-bounded:
    floor(s/2)+1 <= value (d >= 3), value = 1 (d = 2), and always
    value <= C(s+d-1, d-1)."""
    cells: list[TableCell] = []
    for d in d_values:
        for s in s_values:
            try:
                outcome = search_class(system_class, d, s, cap=cap)
            except CapExceeded as exc:
                cells.append(TableCell(d, s, None, None, skipped=True, reason=str(exc)))
                continue
            value = outcome.value
            if system_class == "bollobas":
                upper = comb(s + d - 1, d - 1)
                if value > upper:
                    raise VerificationError(f"cell ({d},{s}) exceeds the vertex count")
                if d >= 3 and value < s // 2 + 1:
                    raise VerificationError(f"cell ({d},{s}) fell below floor(s/2)+1")
                if d == 2 and value != 1:
                    raise VerificationError(f"cell (2,{s}) must be 1, got {value}")
            cells.append(TableCell(d, s, value, outcome.witness))
    return cells
