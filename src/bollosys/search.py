"""Exact extremal family sizes over increasing-parts d-partitions.

A full d-partition of [s] with increasing parts is exactly a composition of s
into d non-negative parts (part r occupies the next run of consecutive
integers).  Each is listed once, as its running part sizes, a point of the
lattice L(d-1, s) (``lattice_points``), and laid out from that point
(``_layout``).  The extremal size of a pairwise-compatible class is then a
maximum clique in the compatibility graph.

For bollobas, full-only mode runs no clique search and works on the points
themselves.  N_B(d, s) is the width of L(d-1, s), the size U of its middle
rank, and a partition of the points into U chains, each re-checked
componentwise on those points, proves that no clique is larger
(``bollosys.lattice``).  The witness is the lowest antichain meeting all U
chains, read off the chains by one propagation (``lattice.lowest_antichain``):
the lex-least U-antichain, which by the lattice lemma is the lex-least
U-clique.  Only its U points are laid out as d-partitions, for the witness
check.  The lattice is Sperner and Peck (Stanley 1980), so its rank matchings
always leave exactly U chains and a U-antichain exists; a chain count other
than U, or a propagation that runs off a chain, is a VerificationError.  The
strong answer checks every pair on the points' bounds and lays out only its
one witness vertex.  The skew and weak witnesses are every vertex, so they
lay out the full list.

The clique pass is the ``general`` mode's.  That mode drops the fullness
reduction on tiny instances: vertices are all increasing-parts partitions
with support inside [s] and cliques must jointly cover [s].  It exists to
cross-validate that the reduction loses nothing, and agrees with the default
mode wherever both run.  The pass is a branch-and-bound over bitset rows
with a greedy colouring bound.  The bound builds its colour classes one at a
time, each in one sweep over the bitset of uncoloured candidates (the
bit-parallel form of BBMC, San Segundo et al. 2011).  The classes are exactly
those of first-fit colouring in ascending vertex order, so the bound and
every prune are those of first fit.  The pass branches in ascending vertex
index order, so the first maximum clique it meets, the reported witness, is
the lexicographically least one and results are deterministic.  Full-only
witnesses are re-verified by the relation engine (``relation_rows``), which
shares no code with the points or the lattice; a general-mode clique,
read off those rows, is re-checked pair by pair by the scalar predicates.
"""

from __future__ import annotations

import itertools
from functools import reduce
from math import comb
from operator import or_, sub
from typing import NamedTuple, Optional, Sequence

from .classify import first_violation, interval_relation_rows, pair_bollobas, relation_rows
from .core import (
    CapExceeded,
    DPartition,
    Family,
    GroundSet,
    VerificationError,
    check_cap,
    parts_increasing,
)

DEFAULT_VERTEX_CAP = 5000

SEARCH_CLASSES = ("bollobas", "skew", "strong", "weak")


def lattice_points(d: int, s: int) -> list[tuple[int, ...]]:
    """Every interval vertex of [s] into d parts, once, as its running part
    sizes (P_1, ..., P_{d-1}): a point of L(d-1, s), in lexicographic order.

    Stars and bars: d - 1 bars among s + d - 1 slots, in lexicographic
    order; P_a counts the stars before bar a, at position b_a: b_a - a."""
    offsets = range(d - 1)
    return [
        tuple(map(sub, bars, offsets))
        for bars in itertools.combinations(range(s + d - 1), d - 1)
    ]


def _layout(elements: tuple[int, ...], point: tuple[int, ...]) -> tuple[frozenset[int], ...]:
    """The parts of the increasing-parts d-partition of the elements with
    running part sizes ``point``, cut at (0, *point, len(elements))."""
    bounds = (0, *point, len(elements))
    return tuple(frozenset(elements[a:b]) for a, b in itertools.pairwise(bounds))


def _check_cell(d: int, s: int) -> None:
    # the argument check of every search cell, run before any count
    if d < 1 or s < 0:
        raise ValueError("need d >= 1 and s >= 0")


def _interval_points(d: int, s: int, cap: int) -> list[tuple[int, ...]]:
    # the interval vertices' points, refused past the cap before any is listed
    _check_cell(d, s)
    check_cap(comb(s + d - 1, d - 1), cap, "{} interval vertices")
    return lattice_points(d, s)


def interval_vertices(d: int, s: int, cap: int = DEFAULT_VERTEX_CAP) -> list[DPartition]:
    """The full increasing-parts d-partitions of [s], one per composition of
    s, in lexicographic composition order."""
    elements = tuple(range(1, s + 1))
    layouts = (_layout(elements, point) for point in _interval_points(d, s, cap))
    return list(DPartition.many(tuple(itertools.chain.from_iterable(layouts)), d))


def _general_vertices(d: int, s: int, cap: int) -> list[DPartition]:
    # increasing-parts partitions with support inside [s]: a support subset
    # laid out from each point of its size
    # sum_t C(s, t) C(t + d - 1, d - 1) by Vandermonde: the sum over j < d of
    # C(d - 1, j) C(s, j) 2^(s - j), at most d terms
    _check_cell(d, s)
    terms = range(min(d, s + 1))
    count = sum(comb(d - 1, j) * comb(s, j) << (s - j) for j in terms)
    check_cap(count, cap, "{} general vertices")
    layouts = (
        _layout(subset, point)
        for t in range(s + 1)
        for subset in itertools.combinations(range(1, s + 1), t)
        for point in lattice_points(d, t)
    )
    return list(DPartition.many(tuple(itertools.chain.from_iterable(layouts)), d))


class SearchOutcome(NamedTuple):
    value: int
    witness: Family
    mode: str


def _greedy_colour_bound(cand: int, adj: list[int]) -> list[int]:
    # first-fit colour classes of the candidate set, as masks, built one
    # class at a time (BBMC): each takes, in ascending order, every
    # uncoloured vertex with no neighbour already in it.  Each class is an
    # independent set, so their number bounds any clique among the candidates
    classes = []
    rest = cand
    while rest:
        before = rest
        q = rest
        while q:
            low = q & -q
            rest ^= low
            q &= ~(adj[low.bit_length() - 1] | low)
        classes.append(before ^ rest)
    return classes


def maximum_clique(adj: list[int], n: int, supports: Optional[list[int]] = None) -> list[int]:
    """Lexicographically least maximum clique, as ascending vertex indices.

    When ``supports`` is given, only cliques whose accumulated support covers
    the union of all the supports count; a feasible clique must exist.  One
    branch-and-bound pass branches in ascending index order, so cliques are
    met in lexicographic order, and records a feasible clique only when it
    beats the best so far.  The first maximum clique met, the lex-least one, is
    thus the last recorded; the colour-bound prunes never cut it, as they
    cut only subtrees that cannot beat the best so far.  The candidates are
    recoloured after every sibling.
    """
    if supports is None:
        supports = [0] * n
    required = reduce(or_, supports, 0)
    best = -1
    clique: Optional[tuple[int, ...]] = None

    def extend(path: tuple[int, ...], cand: int, covered: int) -> None:
        nonlocal best, clique
        size = len(path)
        if size > best and covered & required == required:
            best = size
            clique = path
        if not cand or size + len(_greedy_colour_bound(cand, adj)) <= best:
            return
        rest = cand
        while rest:
            low = rest & -rest
            rest ^= low
            cand ^= low
            v = low.bit_length() - 1
            extend(path + (v,), cand & adj[v], covered | supports[v])
            if size + len(_greedy_colour_bound(cand, adj)) <= best:
                return

    try:
        extend((), (1 << n) - 1, 0)
    finally:
        del extend  # its closure cell holds it: a cycle only the cyclic collector frees
    if clique is None:
        raise VerificationError("no feasible clique exists")
    return list(clique)


def _verify_witness(witness: Family, name: str, s: int, expected: int) -> None:
    # independent of the generators: re-check shape, then the rows for the
    # lexicographically first pair failing the class
    if witness.m != expected:
        raise VerificationError(f"witness has {witness.m} members, claimed {expected}")
    if witness.support != frozenset(range(1, s + 1)):
        raise VerificationError("witness support does not cover [s]")
    if not all(parts_increasing(member) for member in witness.members):
        raise VerificationError("witness member without increasing parts")
    first = first_violation(relation_rows(witness.members, witness.d, name), witness.m)
    if first is not None:
        i, j = first
        raise VerificationError(f"witness pair ({i}, {j}) fails pair_{name}")


def n_bollobas(
    d: int, s: int, mode: str = "full-only", cap: int = DEFAULT_VERTEX_CAP
) -> SearchOutcome:
    """Exact maximum size of a bollobas system of increasing-parts
    d-partitions with support [s].

    In full-only mode a verified chain partition with as many chains as the
    middle rank has members pins the value, and the witness is the lowest
    antichain meeting every chain, read off the chains with no graph; only
    its points are laid out as d-partitions.  In general mode one
    plain clique pass proves the maximum itself."""
    if mode == "full-only":
        # the lattice module loads only when a certificate is wanted
        from . import lattice

        points = _interval_points(d, s, cap)
        chains = lattice.chain_partition(points, s)
        lattice.verify_chains(chains, points)
        middle = lattice.middle_rank(points, s)
        if len(chains) != len(middle):
            raise VerificationError(
                f"cell ({d},{s}): {len(chains)} chains, "
                f"but the middle rank has {len(middle)} members"
            )
        elements = tuple(range(1, s + 1))
        members = [
            DPartition(_layout(elements, points[i]))
            for i in lattice.lowest_antichain(points, chains)
        ]
    elif mode == "general":
        parts = _general_vertices(d, s, cap)
        # parts are disjoint, so the sum of their masks is the support; each
        # element of [s] has a singleton vertex, so the supports cover [s]
        supports = [sum(p.masks) for p in parts]
        clique = maximum_clique(list(relation_rows(parts, d, "bollobas")), len(parts), supports)
        members = [parts[i] for i in clique]
    else:
        raise ValueError(f"unknown mode {mode!r}")
    witness = Family(GroundSet(s), tuple(members), d)
    _verify_witness(witness, "bollobas", s, len(members))
    if mode == "general":
        # the clique was read off relation rows: the scalar reference re-checks it
        for i, j in itertools.combinations(range(witness.m), 2):
            if not pair_bollobas(witness.members[i], witness.members[j]):
                raise VerificationError(f"witness pair ({i}, {j}) fails pair_bollobas")
    return SearchOutcome(len(members), witness, mode)


def _all_vertices_reversed(d: int, s: int, cap: int, name: str) -> SearchOutcome:
    # every interval vertex in decreasing lexicographic composition order,
    # verified as the one class the caller names; listed before the ground
    # set is built, so a bad d or s meets the interval argument check first
    vertices = interval_vertices(d, s, cap)
    witness = Family(GroundSet(s), tuple(vertices[::-1]), d)
    value = comb(s + d - 1, d - 1)
    _verify_witness(witness, name, s, value)
    return SearchOutcome(value, witness, "full-only")


def n_skew(d: int, s: int, cap: int = DEFAULT_VERTEX_CAP) -> SearchOutcome:
    """Exact skew maximum: every interval vertex, listed in decreasing
    lexicographic composition order.  The value is the vertex count (members
    of any candidate family are distinct vertices after filling, so nothing
    larger exists); a verification failure here is fatal, not a user error."""
    return _all_vertices_reversed(d, s, cap, "skew")


def n_strong(d: int, s: int, cap: int = DEFAULT_VERTEX_CAP) -> SearchOutcome:
    """Exact strong maximum, always 1: every pair of distinct interval
    vertices is checked to fail the strong relation, so no two-member
    family survives and any single vertex is a witness.  The check always
    passes: a strong pair needs x in parts u1 of p and v2 of q, and y in parts
    v1 of q and u2 of p, with u1 < u2 and v1 < v2, and increasing parts then
    give x < y in p (u1 < u2) and y < x in q (v1 < v2).  The pairs are read
    off the bounds (0, *point, s): O(d s) ORs, then O(d^2) ANDs per vertex.
    Only the witness, composition (0, ..., 0, s), is laid out."""
    points = _interval_points(d, s, cap)
    bounds = [(0, *point, s) for point in points]
    for i, row in enumerate(interval_relation_rows(bounds, d)):
        if row:
            j = (row & -row).bit_length() - 1
            raise VerificationError(f"interval vertices {i} and {j} form a strong pair")
    witness = Family(GroundSet(s), (DPartition(_layout(tuple(range(1, s + 1)), points[0])),), d)
    _verify_witness(witness, "strong", s, 1)
    return SearchOutcome(1, witness, "full-only")


def n_weak(d: int, s: int, cap: int = DEFAULT_VERTEX_CAP) -> SearchOutcome:
    """Exact weak maximum: equals the skew value, with the skew witness (a
    skew system is weak).  No weak family can exceed the vertex count since
    filled members are distinct vertices.  The witness is checked weak
    only: skew implies weak, but the answer claims no more than weak."""
    return _all_vertices_reversed(d, s, cap, "weak")


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


class TableCell(NamedTuple):
    d: int
    s: int
    value: Optional[int]
    witness: Optional[Family]
    skipped: bool = False
    reason: Optional[str] = None


def n_table(
    d_values: Sequence[int],
    s_values: Sequence[int],
    system_class: str = "bollobas",
    cap: int = DEFAULT_VERTEX_CAP,
) -> list[TableCell]:
    """One searched cell per (d, s); cells beyond the cap are marked skipped
    with the reason, never fabricated.  A bollobas value is the size of the
    middle rank of L(d-1, s), certified by ``n_bollobas``; the cells are also
    sanity-bounded: floor(s/2)+1 <= value (d >= 3), value = 1 (d = 2), and
    always value <= C(s+d-1, d-1)."""
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
