"""Ground sets, d-partitions, families, and the ordering conventions they obey.

Elements are 1-based integers.  A ground set [n] = {1, ..., n} may carry an
ordered partition into blocks; when no blocks are given, the whole of [n] is a
single block.  A d-partition is an ordered tuple of pairwise disjoint subsets
of [n] (parts may be empty); it is *full* over a universe when the parts union
to that universe.  A family is an ordered, duplicate-free list of d-partitions
sharing one ground set.

All values are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence


class InvariantError(ValueError):
    """A structural invariant of the data model is violated."""


class CapExceeded(RuntimeError):
    """An enumeration or search would exceed its configured cap."""


class VerificationError(RuntimeError):
    """Independent re-verification of a claimed result failed.

    Raised when a generator's output fails re-classification or a search
    witness does not check out; always indicates an internal bug (or a false
    closed-form value), never bad user input.
    """


def _disjoint_union(sets: tuple[frozenset, ...], what: str, disjoint: str) -> frozenset[int]:
    """The union of sets checked to hold integers >= 1 and be pairwise disjoint.

    Disjoint sets of plain ints pass on the union alone.  Anything else takes
    the per-set scan, which names the first bad element of the first set that
    holds one: in the union, 1.0 in one set would merge with 1 in another."""
    union = frozenset().union(*sets)
    plain = sum(map(len, sets)) == len(union) and set(map(type, union)) <= {int}
    if not plain or (union and min(union) < 1):
        for elements in sets:
            for x in elements:
                if not isinstance(x, int) or isinstance(x, bool) or x < 1:
                    raise InvariantError(f"{what}: elements must be integers >= 1, got {x!r}")
        if sum(map(len, sets)) != len(union):
            raise InvariantError(disjoint)
    return union


@dataclass(frozen=True)
class GroundSet:
    """The set [n] together with an ordered partition into blocks X_1..X_e."""

    n: int
    blocks: tuple[frozenset[int], ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or self.n < 0:
            raise InvariantError("ground set size n must be a non-negative integer")
        blocks = tuple(map(frozenset, self.blocks))
        object.__setattr__(self, "blocks", blocks or (frozenset(range(1, self.n + 1)),))
        if blocks:  # the default block [n] needs no check
            union = _disjoint_union(blocks, "block", "blocks must be pairwise disjoint")
            # n distinct integers >= 1, none above n, are exactly 1..n
            if len(union) != self.n or (union and max(union) > self.n):
                raise InvariantError("blocks must union to {1..n}")

    @property
    def e(self) -> int:
        return len(self.blocks)


@dataclass(frozen=True)
class DPartition:
    """One member (A(1), ..., A(d)): pairwise disjoint subsets, any may be empty."""

    parts: tuple[frozenset[int], ...]
    support: frozenset[int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        parts = tuple(map(frozenset, self.parts))
        object.__setattr__(self, "parts", parts)
        if len(parts) < 1:
            raise InvariantError("a d-partition needs at least one part")
        union = _disjoint_union(parts, "part", "parts must be pairwise disjoint")
        object.__setattr__(self, "support", union)

    @property
    def d(self) -> int:
        return len(self.parts)

    @cached_property
    def masks(self) -> tuple[int, ...]:
        return tuple(sum(1 << (x - 1) for x in p) for p in self.parts)

    @property
    def size_vector(self) -> tuple[int, ...]:
        return tuple(len(p) for p in self.parts)

    def sorted_parts(self) -> tuple[tuple[int, ...], ...]:
        """Canonical presentation: each part as a sorted tuple."""
        return tuple(tuple(sorted(p)) for p in self.parts)


@dataclass(frozen=True)
class Family:
    """An ordered list of d-partitions over one ground set.

    ``d`` may be given explicitly (mandatory for an empty family) and is
    otherwise inferred from the first member.  Duplicate members are rejected:
    a repeated member would violate every system class, so it is always a
    construction error.
    """

    ground: GroundSet
    members: tuple[DPartition, ...]
    d: int = 0

    def __post_init__(self) -> None:
        members = tuple(self.members)
        object.__setattr__(self, "members", members)
        d = self.d
        if d == 0:
            if not members:
                raise InvariantError("an empty family needs an explicit d")
            d = members[0].d
            object.__setattr__(self, "d", d)
        if d < 1:
            raise InvariantError("d must be at least 1")
        n = self.ground.n
        for idx, member in enumerate(members):
            if member.d != d:
                raise InvariantError(f"member {idx} has {member.d} parts, expected d={d}")
            if member.support and max(member.support) > n:
                raise InvariantError(f"member {idx} uses elements outside [n]")
        if len(set(members)) != len(members):
            raise InvariantError("duplicate members are not allowed")

    @property
    def m(self) -> int:
        return len(self.members)

    @cached_property
    def support(self) -> frozenset[int]:
        return frozenset().union(*(member.support for member in self.members))

    @cached_property
    def block_supports(self) -> tuple[frozenset[int], ...]:
        """S_k = S intersected with block X_k, in block order."""
        return tuple(self.support & block for block in self.ground.blocks)

    @property
    def block_support_sizes(self) -> tuple[int, ...]:
        return tuple(len(sk) for sk in self.block_supports)

    @property
    def support_size(self) -> int:
        return len(self.support)


def set_less(f1: Iterable[int], f2: Iterable[int]) -> bool:
    """Whole-set order: every element of f1 precedes every element of f2.

    Convention: the empty set compares below and above everything, so both
    set_less(set(), F) and set_less(F, set()) are true.
    """
    a = f1 if isinstance(f1, (set, frozenset)) else set(f1)
    b = f2 if isinstance(f2, (set, frozenset)) else set(f2)
    if not a or not b:
        return True
    return max(a) < min(b)


def sets_increasing(parts: Sequence[Iterable[int]]) -> bool:
    """set_less over every ordered pair of the sequence, not just consecutive ones.

    Because empty sets satisfy both directions, this reduces to the nonempty
    members occupying strictly increasing element ranges.
    """
    prev_max = 0
    for part in parts:
        part = set(part)
        if not part:
            continue
        if min(part) <= prev_max:
            return False
        prev_max = max(part)
    return True


def parts_increasing(p: DPartition) -> bool:
    return sets_increasing(p.parts)


def lex_leq(a: Sequence[int], b: Sequence[int]) -> bool:
    """Left-to-right comparison; true when identical or a is smaller at the
    first differing index."""
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    return tuple(a) <= tuple(b)


def fill_to_full(family: Family) -> Family:
    """Extend every member to a full d-partition of the family support.

    Every member must already have increasing parts.  Each missing element x
    is inserted, in ascending order, into the part with the largest index
    that contains an element below x (the first part when none does); that
    placement keeps the parts increasing.  Two distinct members can only
    collide after filling if they had no cross-intersections at all, i.e. if
    the input was not even a weak system; collisions are therefore rejected.
    """
    support = family.support
    filled: list[DPartition] = []
    for idx, member in enumerate(family.members):
        if not parts_increasing(member):
            raise InvariantError(f"member {idx} does not have increasing parts")
        parts = [set(part) for part in member.parts]
        for x in sorted(support - member.support):
            target = 0
            for r, part in enumerate(parts):
                if part and min(part) < x:
                    target = r
            parts[target].add(x)
        new = DPartition(tuple(frozenset(p) for p in parts))
        if not parts_increasing(new):
            raise VerificationError("filling destroyed increasing parts")
        filled.append(new)
    if len(set(filled)) != len(filled):
        raise InvariantError(
            "members collide after filling; the input family is not a weak system"
        )
    return Family(family.ground, tuple(filled), family.d)


def with_blocks(family: Family, blocks: Sequence[Iterable[int]]) -> Family:
    """The same members over the same [n], re-grounded with the given blocks."""
    ground = GroundSet(family.ground.n, tuple(frozenset(b) for b in blocks))
    return Family(ground, family.members, family.d)
