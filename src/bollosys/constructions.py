"""Generators for the tight families, plus the counterexample certificate.

No generator is trusted: every output is re-verified as the class it claims,
on that class's relation rows, and its claimed sum value recomputed before it
is handed back.  Only the conj1 certificate classifies fully, for its flags.  Enumeration
caps guard the factorial and exponential generators; exceeding a cap is an
error, never a truncation, because a partial construction would silently
break a tightness claim.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb, factorial
from typing import Iterator, NamedTuple, Optional, Sequence

from .classify import ClassFlags, classify, first_violation, relation_rows, skew_witness_rows
from .core import (
    DPartition,
    Family,
    GroundSet,
    InvariantError,
    VerificationError,
    check_cap,
)
from .search import _layout, interval_vertices
from .weights import inverse_multinomial_sum, multinomial

DEFAULT_MEMBER_CAP = 10**6
DEFAULT_WITNESS_PAIR_CAP = 20_000
_EXPANSION_TEXT = "type_expansion would produce {} members"


def _verify_class(family: Family, class_name: str, what: str) -> None:
    rows = relation_rows(family.members, family.d, class_name)
    if first_violation(rows, family.m) is not None:
        raise VerificationError(f"{what} failed re-classification as {class_name}")


def all_full_partitions(universe: Sequence[int], d: int) -> Iterator[DPartition]:
    """Every full d-partition of the universe (d^|universe| of them)."""
    elems = sorted(universe)
    for assignment in itertools.product(range(d), repeat=len(elems)):
        parts: list[list[int]] = [[] for _ in range(d)]
        for x, r in zip(elems, assignment):
            parts[r].append(x)
        yield DPartition(tuple(frozenset(p) for p in parts))


def partitions_with_sizes(
    elems: tuple[int, ...], sizes: Sequence[int]
) -> Iterator[tuple[frozenset[int], ...]]:
    """All ways to split elems into parts of the given sizes, in the
    deterministic order induced by lexicographic combinations."""
    if not sizes:
        yield ()
        return
    first, rest = sizes[0], sizes[1:]
    for chosen in itertools.combinations(elems, first):
        chosen_set = set(chosen)
        remaining = tuple(x for x in elems if x not in chosen_set)
        for tail in partitions_with_sizes(remaining, rest):
            yield (frozenset(chosen),) + tail


def lex_full_family(n: int, d: int, cap: int = DEFAULT_MEMBER_CAP) -> Family:
    """All d^n full d-partitions of [n]: the type expansion of the interval
    vertices in decreasing composition order, so later members have
    lex-smaller size vectors, and each size vector's members come in the
    order of their sorted part tuples.  The result is a skew system whose
    blocked sum attains the product bound for every block partition of
    [n]."""
    if n < 1 or d < 2:
        raise InvariantError("need n >= 1 and d >= 2")
    check_cap(d**n, cap, f"lex_full_family(n={n}, d={d}) would produce {{}} members")
    types = Family(GroundSet(n), tuple(interval_vertices(d, n, cap)[::-1]), d)
    family = type_expansion(types, cap)
    _verify_class(family, "skew", "lex_full_family")
    return family


def _chain_points(s: int, cap: int) -> list[tuple[int, int]]:
    # the running part sizes of each chain member l = 1, ..., floor(s/2)+1,
    # refused past the cap before any is listed
    if s < 1:
        raise InvariantError("need s >= 1")
    check_cap(s // 2 + 1, cap, f"chain_family_d3(s={s}) would produce {{}} members")
    return [(l - 1, s - l + 1) for l in range(1, s // 2 + 2)]


def chain_family_d3(s: int, cap: int = DEFAULT_MEMBER_CAP) -> Family:
    """The floor(s/2)+1 full 3-partitions of [s] with parts
    ([1, l-1], [l, s-l+1], [s-l+2, s]); a bollobas system with increasing
    parts, one member per l, laid out like every interval vertex."""
    points = _chain_points(s, cap)
    elements = tuple(range(1, s + 1))
    parts = itertools.chain.from_iterable(_layout(elements, point) for point in points)
    family = Family(GroundSet(s), DPartition.many(tuple(parts), 3), 3)
    _verify_class(family, "bollobas", "chain_family_d3")
    return family


def type_expansion(family: Family, cap: int = DEFAULT_MEMBER_CAP) -> Family:
    """Replace every member by all full d-partitions of the support sharing
    its size vector.  Requires full members with pairwise distinct size
    vectors; the output's inverse-multinomial sum equals the input member
    count, one unit per type."""
    support = family.support
    vectors = []
    for idx, member in enumerate(family.members):
        if member.support != support:
            raise InvariantError(f"member {idx} is not full over the family support")
        vectors.append(member.size_vector)
    if len(set(vectors)) != len(vectors):
        raise InvariantError("members must have pairwise distinct size vectors")
    s = len(support)
    check_cap(sum(multinomial(s, v) for v in vectors), cap, _EXPANSION_TEXT)
    elems = tuple(sorted(support))
    layouts = itertools.chain.from_iterable(
        partitions_with_sizes(elems, vector) for vector in vectors
    )
    members = DPartition.many(tuple(itertools.chain.from_iterable(layouts)), family.d)
    out = Family(family.ground, members, family.d)
    if inverse_multinomial_sum(out) != family.m:
        raise VerificationError("type expansion sum does not equal the type count")
    return out


def expanded_chain_family(s: int, cap: int = DEFAULT_MEMBER_CAP) -> Family:
    """The type expansion of ``chain_family_d3(s)``, refused before the chain
    is built, from the size vectors (a, b - a, s - b) of the chain's points.
    The chain itself keeps the default cap."""
    points = _chain_points(s, DEFAULT_MEMBER_CAP)
    check_cap(sum(multinomial(s, (a, b - a)) for a, b in points), cap, _EXPANSION_TEXT)
    return type_expansion(chain_family_d3(s), cap)


def permutation_family(n: int, cap: int = DEFAULT_MEMBER_CAP) -> Family:
    """All n! full n-partitions of [n] with singleton parts, in lexicographic
    order; a strong system with inverse-multinomial sum exactly 1."""
    if n < 1:
        raise InvariantError("need n >= 1")
    check_cap(factorial(n), cap, f"permutation_family(n={n}) would produce {{}} members")
    singletons = [frozenset((x,)) for x in range(1, n + 1)]
    parts = itertools.chain.from_iterable(itertools.permutations(singletons))
    family = Family(GroundSet(n), DPartition.many(tuple(parts), n), n)
    _verify_class(family, "strong", "permutation_family")
    if inverse_multinomial_sum(family) != 1:
        raise VerificationError("permutation family sum is not 1")
    return family


def complement_pair_family(n: int, k: int, d: int, cap: int = DEFAULT_MEMBER_CAP) -> Family:
    """One member (F, [n] set-minus F, empty, ..., empty) per k-subset F of
    [n]; a symmetric system with inverse-multinomial sum exactly 1."""
    if n < 1 or not 0 <= k <= n or d < 2:
        raise InvariantError("need n >= 1, 0 <= k <= n and d >= 2")
    check_cap(comb(n, k), cap, f"complement_pair_family(n={n}, k={k}) would produce {{}} members")
    universe = frozenset(range(1, n + 1))
    empties = (frozenset(),) * (d - 2)
    firsts = map(frozenset, itertools.combinations(range(1, n + 1), k))
    parts = itertools.chain.from_iterable((first, universe - first, *empties) for first in firsts)
    family = Family(GroundSet(n), DPartition.many(tuple(parts), d), d)
    _verify_class(family, "symmetric", "complement_pair_family")
    if inverse_multinomial_sum(family) != 1:
        raise VerificationError("complement pair family sum is not 1")
    return family


def matchbox_weak_family(a: Sequence[int], cap: int = DEFAULT_MEMBER_CAP) -> Family:
    """The weak system over [sum(a) - 1] built from d pockets of sizes a_r.

    Model a draw process: step t takes a match from pocket r with probability
    p_r, stopping the moment some pocket runs out.  A member records one end
    state: part r holds the steps that drew from pocket r, so exactly one
    pocket u is fully drawn (|A(u)| = a_u, with the top step the one that
    emptied it) and every other pocket contributes k_r <= a_r - 1 draws.
    These end states partition the sample space, which is why the product
    weight sum is exactly 1 for every weight vector in the open simplex, and
    part sizes never exceed the pocket sizes by construction.
    """
    a = list(a)
    d = len(a)
    if d < 2 or any(x < 1 for x in a):
        raise InvariantError("need at least two pocket sizes, all >= 1")
    n = sum(a) - 1
    # per end state: lay out the draws before the last step, then add the last
    # step (pocket u's final match, the largest element) to part u
    ends = [
        (u, (*residues[:u], a[u] - 1, *residues[u:]))
        for u in range(d)
        for residues in itertools.product(*(range(a[r]) for r in range(d) if r != u))
    ]
    total = sum(multinomial(sum(draws), draws) for _, draws in ends)
    check_cap(total, cap, f"matchbox_weak_family(a={tuple(a)}) would produce {{}} members")
    flat: list[frozenset[int]] = []
    for u, draws in ends:
        top = sum(draws) + 1
        for parts in partitions_with_sizes(tuple(range(1, top)), draws):
            flat += (*parts[:u], parts[u] | {top}, *parts[u + 1 :])
    family = Family(GroundSet(n), DPartition.many(tuple(flat), d), d)
    _verify_class(family, "weak", "matchbox_weak_family")
    for member in family.members:
        if any(size > bound for size, bound in zip(member.size_vector, a)):
            raise VerificationError("matchbox member exceeds its pocket size")
    return family


class PairWitness(NamedTuple):
    """Both cross-intersections certifying one unordered member pair: part
    indices are 0-based, forward is (i, j), backward is (j, i)."""

    i: int
    j: int
    forward: tuple[int, int, int]
    backward: tuple[int, int, int]


class Certificate(NamedTuple):
    """A machine-checkable refutation bundle: the family, its classification,
    the exact sum against the conjectured bound, and (for small families)
    one intersection witness per member pair.  Checking it means re-running
    classification and the sum on the bundled family."""

    construction: str
    parameters: tuple[tuple[str, int], ...]
    family: Family
    flags: ClassFlags
    sum_value: Fraction
    conjectured_bound: Fraction
    refutes: bool
    pairs_checked: int
    pair_witnesses: Optional[tuple[PairWitness, ...]]


def counterexample_conj1(s: int, cap: int = DEFAULT_MEMBER_CAP) -> Certificate:
    """Certificate that the sum-at-most-1 conjecture fails for 3-partitions.

    The family is the type expansion of the chain family on [s]; it is
    re-verified bollobas and its inverse-multinomial sum is exactly
    floor(s/2)+1 > 1.  Per-pair witnesses are bundled when the pair count is
    within ``DEFAULT_WITNESS_PAIR_CAP``, otherwise only the verified flags
    and the pair count are recorded.
    """
    if s < 2:
        raise InvariantError("need s >= 2; smaller supports cannot exceed the bound")
    family = expanded_chain_family(s, cap)
    flags = classify(family)  # the certificate records all five flags
    if not flags.bollobas:
        raise VerificationError("counterexample family failed re-classification as bollobas")
    value = inverse_multinomial_sum(family)
    expected = Fraction(s // 2 + 1)
    if value != expected:
        raise VerificationError(f"sum is {value}, expected {expected}")
    pairs = family.m * (family.m - 1) // 2
    witnesses: Optional[tuple[PairWitness, ...]] = None
    if pairs <= DEFAULT_WITNESS_PAIR_CAP:
        rows = skew_witness_rows(family.members, family.d)
        columns = list(zip(*rows))  # columns[i][j]: the witness of (j, i)
        collected: list[PairWitness] = []
        for i in range(family.m):
            js, fwds, bwds = range(i + 1, family.m), rows[i][i + 1 :], columns[i][i + 1 :]
            if None in fwds or None in bwds:
                j = next(j for j, f, b in zip(js, fwds, bwds) if f is None or b is None)
                raise VerificationError(f"pair ({i}, {j}) lacks a cross-intersection")
            # each PairWitness made in C, as its _make does
            fields = zip(itertools.repeat(i), js, fwds, bwds)
            collected += map(tuple.__new__, itertools.repeat(PairWitness), fields)
        witnesses = tuple(collected)
    return Certificate(
        construction="conj1-counterexample",
        parameters=(("s", s),),
        family=family,
        flags=flags,
        sum_value=value,
        conjectured_bound=Fraction(1),
        refutes=value > 1,
        pairs_checked=pairs,
        pair_witnesses=witnesses,
    )
