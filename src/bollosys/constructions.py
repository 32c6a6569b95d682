"""Generators for the tight families, plus the counterexample certificate.

No generator is trusted: every output is re-classified through the classifier
and its claimed sum value recomputed before it is handed back.  Enumeration
caps guard the factorial and exponential generators; exceeding a cap is an
error, never a truncation, because a partial construction would silently
break a tightness claim.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from typing import Iterator, Optional, Sequence

from .classify import ClassFlags, classify, skew_witness
from .core import (
    CapExceeded,
    DPartition,
    Family,
    GroundSet,
    InvariantError,
    VerificationError,
)
from .weights import inverse_multinomial_sum, multinomial

DEFAULT_MEMBER_CAP = 10**6
DEFAULT_WITNESS_PAIR_CAP = 20_000


@dataclass(frozen=True)
class ConstructionSpec:
    name: str
    parameters: tuple[tuple[str, int], ...]

    @classmethod
    def of(cls, name: str, **parameters: int) -> ConstructionSpec:
        return cls(name, tuple(sorted(parameters.items())))


def _check_cap(count: int, cap: int, what: str) -> None:
    if count > cap:
        raise CapExceeded(f"{what} would produce {count} members, cap is {cap}")


def _interval(lo: int, hi: int) -> frozenset[int]:
    return frozenset(range(lo, hi + 1))


def _verify_class(family: Family, class_name: str, what: str) -> ClassFlags:
    flags = classify(family)
    if not getattr(flags, class_name):
        raise VerificationError(f"{what} failed re-classification as {class_name}")
    return flags


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
    """All d^n full d-partitions of [n], later members having lex-smaller or
    equal size vectors; ties broken by the sorted-part-tuple order.  The
    result is a skew system whose blocked sum attains the product bound for
    every block partition of [n]."""
    if n < 1 or d < 2:
        raise InvariantError("need n >= 1 and d >= 2")
    _check_cap(d**n, cap, f"lex_full_family(n={n}, d={d})")
    members = sorted(
        all_full_partitions(range(1, n + 1), d),
        key=lambda m: (tuple(-c for c in m.size_vector), m.sorted_parts()),
    )
    family = Family(GroundSet(n), tuple(members), d)
    _verify_class(family, "skew", "lex_full_family")
    return family


def chain_family_d3(s: int, cap: int = DEFAULT_MEMBER_CAP) -> Family:
    """The floor(s/2)+1 full 3-partitions of [s] with parts
    ([1, l-1], [l, s-l+1], [s-l+2, s]); a bollobas system with increasing
    parts, one member per l."""
    if s < 1:
        raise InvariantError("need s >= 1")
    _check_cap(s // 2 + 1, cap, f"chain_family_d3(s={s})")
    members = tuple(
        DPartition((_interval(1, l - 1), _interval(l, s - l + 1), _interval(s - l + 2, s)))
        for l in range(1, s // 2 + 2)
    )
    family = Family(GroundSet(s), members, 3)
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
    total = sum(multinomial(s, v) for v in vectors)
    _check_cap(total, cap, "type_expansion")
    elems = tuple(sorted(support))
    members: list[DPartition] = []
    for vector in vectors:
        for parts in partitions_with_sizes(elems, vector):
            members.append(DPartition(parts))
    out = Family(family.ground, tuple(members), family.d)
    if inverse_multinomial_sum(out) != family.m:
        raise VerificationError("type expansion sum does not equal the type count")
    return out


def permutation_family(n: int, cap: int = DEFAULT_MEMBER_CAP) -> Family:
    """All n! full n-partitions of [n] with singleton parts, in lexicographic
    order; a strong system with inverse-multinomial sum exactly 1."""
    if n < 1:
        raise InvariantError("need n >= 1")
    _check_cap(factorial(n), cap, f"permutation_family(n={n})")
    members = tuple(
        DPartition(tuple(frozenset((x,)) for x in perm))
        for perm in itertools.permutations(range(1, n + 1))
    )
    family = Family(GroundSet(n), members, n)
    _verify_class(family, "strong", "permutation_family")
    if inverse_multinomial_sum(family) != 1:
        raise VerificationError("permutation family sum is not 1")
    return family


def complement_pair_family(n: int, k: int, d: int, cap: int = DEFAULT_MEMBER_CAP) -> Family:
    """One member (F, [n] set-minus F, empty, ..., empty) per k-subset F of
    [n]; a symmetric system with inverse-multinomial sum exactly 1."""
    if n < 1 or not 0 <= k <= n or d < 2:
        raise InvariantError("need n >= 1, 0 <= k <= n and d >= 2")
    _check_cap(comb(n, k), cap, f"complement_pair_family(n={n}, k={k})")
    universe = frozenset(range(1, n + 1))
    empties = (frozenset(),) * (d - 2)
    members = tuple(
        DPartition((frozenset(combo), universe - frozenset(combo)) + empties)
        for combo in itertools.combinations(range(1, n + 1), k)
    )
    family = Family(GroundSet(n), members, d)
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
    blocks: list[tuple[int, tuple[int, ...]]] = []
    total = 0
    for u in range(d):
        others = [range(a[r]) for r in range(d) if r != u]
        for residues in itertools.product(*others):
            profile = list(residues[:u]) + [a[u]] + list(residues[u:])
            # last step is pocket u's final match; arrange the rest freely
            total += multinomial(sum(profile) - 1, profile[:u] + [a[u] - 1] + profile[u + 1 :])
            blocks.append((u, tuple(profile)))
    _check_cap(total, cap, f"matchbox_weak_family(a={tuple(a)})")
    members: list[DPartition] = []
    for u, profile in blocks:
        top = sum(profile)
        elems = tuple(range(1, top + 1))
        for parts in partitions_with_sizes(elems, profile):
            if top not in parts[u]:
                continue
            members.append(DPartition(parts))
    family = Family(GroundSet(n), tuple(members), d)
    _verify_class(family, "weak", "matchbox_weak_family")
    for member in family.members:
        if any(size > bound for size, bound in zip(member.size_vector, a)):
            raise VerificationError("matchbox member exceeds its pocket size")
    return family


@dataclass(frozen=True)
class PairWitness:
    """Both cross-intersections certifying one unordered member pair: part
    indices are 0-based, forward is (i, j), backward is (j, i)."""

    i: int
    j: int
    forward: tuple[int, int, int]
    backward: tuple[int, int, int]


@dataclass(frozen=True)
class Certificate:
    """A machine-checkable refutation bundle: the family, its classification,
    the exact sum against the conjectured bound, and (for small families)
    one intersection witness per member pair.  Checking it means re-running
    classification and the sum on the bundled family."""

    construction: ConstructionSpec
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
    family = type_expansion(chain_family_d3(s), cap=cap)
    flags = _verify_class(family, "bollobas", "counterexample family")
    value = inverse_multinomial_sum(family)
    expected = Fraction(s // 2 + 1)
    if value != expected:
        raise VerificationError(f"sum is {value}, expected {expected}")
    pairs = family.m * (family.m - 1) // 2
    witnesses: Optional[tuple[PairWitness, ...]] = None
    if pairs <= DEFAULT_WITNESS_PAIR_CAP:
        collected: list[PairWitness] = []
        for i in range(family.m):
            for j in range(i + 1, family.m):
                fwd = skew_witness(family.members[i], family.members[j])
                bwd = skew_witness(family.members[j], family.members[i])
                if fwd is None or bwd is None:
                    raise VerificationError(f"pair ({i}, {j}) lacks a cross-intersection")
                collected.append(PairWitness(i, j, fwd, bwd))
        witnesses = tuple(collected)
    return Certificate(
        construction=ConstructionSpec.of("conj1-counterexample", s=s),
        family=family,
        flags=flags,
        sum_value=value,
        conjectured_bound=Fraction(1),
        refutes=value > 1,
        pairs_checked=pairs,
        pair_witnesses=witnesses,
    )
