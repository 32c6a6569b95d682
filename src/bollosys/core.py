"""Ground sets, d-partitions, families, and the ordering conventions they obey.

Elements are 1-based integers.  A ground set [n] = {1, ..., n} may carry an
ordered partition into blocks; when no blocks are given, the whole of [n] is a
single block.  A d-partition is an ordered tuple of pairwise disjoint subsets
of [n] (parts may be empty); it is *full* over a universe when the parts union
to that universe.  A family is an ordered, duplicate-free list of d-partitions
sharing one ground set.

All values are immutable after construction and safe to share across threads.
Each sets its fields once, in ``__init__``; after that, assigning or deleting
an attribute raises AttributeError.  Equality, hashing and the repr read the
fields a value names, and two values of different types never compare equal.

Members made in bulk (``DPartition.many``) share their sets: equal parts are
one frozenset across the family, and so are equal supports.  The exact-int
check reads the input before anything is shared, since {1}, {True} and {1.0}
are one dict key.  Compare parts by value; their identity means nothing.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain, starmap
from operator import attrgetter
from typing import Iterable, Sequence


class InvariantError(ValueError):
    """A structural invariant of the data model is violated."""


class CapExceeded(RuntimeError):
    """An enumeration or search would exceed its configured cap."""


def _count_text(count: int) -> str:
    """A count for a cap message: its digits, or "at least 2^k" when it has
    more digits than the interpreter converts to a string."""
    try:
        return str(count)
    except ValueError:
        return f"at least 2^{count.bit_length() - 1}"


def check_cap(count: int, cap: int, text: str) -> int:
    """The count, refused above the cap: ``text`` names the work, with ``{}``
    where the count goes."""
    if count > cap:
        raise CapExceeded(f"{text.format(_count_text(count))}, cap is {cap}")
    return count


class VerificationError(RuntimeError):
    """Independent re-verification of a claimed result failed.

    Raised when a generator's output fails re-classification or a search
    witness does not check out; always indicates an internal bug (or a false
    closed-form value), never bad user input.
    """


def _disjoint_union(sets: tuple[frozenset, ...], what: str, disjoint: str) -> frozenset[int]:
    """The union of sets checked to hold integers >= 1 and be pairwise disjoint.

    The scan runs set by set, before the union is compared, so it names the
    first bad element of the first set that holds one: in the union, 1.0 in
    one set would merge with 1 in another."""
    for elements in sets:
        for x in elements:
            if not isinstance(x, int) or isinstance(x, bool) or x < 1:
                raise InvariantError(f"{what}: elements must be integers >= 1, got {x!r}")
    union = frozenset().union(*sets)
    if sum(map(len, sets)) != len(union):
        raise InvariantError(disjoint)
    return union


class _Shared(dict):
    """One frozenset per distinct set: ``shared[key]`` is the first frozenset
    looked up equal to ``frozenset(key)``, for a frozenset or a tuple key."""

    def __missing__(self, key: Iterable[int]) -> frozenset[int]:
        elements = frozenset(key)  # a frozenset key is returned as it is
        self[key] = shared = self.setdefault(elements, elements)
        return shared


class _Value:
    """A value whose fields are set once, by ``object.__setattr__`` in its
    ``__init__``.  ``_fields`` names the fields that equality, hashing and the
    repr read, in order."""

    __slots__ = ()
    _fields: tuple[str, ...]

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class GroundSet(_Value):
    """The set [n] together with an ordered partition into blocks X_1..X_e."""

    _fields = ("n", "blocks")
    n: int
    blocks: tuple[frozenset[int], ...]

    def __init__(self, n: int, blocks: Iterable[Iterable[int]] = ()) -> None:
        if not isinstance(n, int) or n < 0:
            raise InvariantError("ground set size n must be a non-negative integer")
        blocks = tuple(map(frozenset, blocks))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "blocks", blocks or (frozenset(range(1, n + 1)),))
        if blocks:  # the default block [n] needs no check
            union = _disjoint_union(blocks, "block", "blocks must be pairwise disjoint")
            # n distinct integers >= 1, none above n, are exactly 1..n
            if len(union) != n or (union and max(union) > n):
                raise InvariantError("blocks must union to {1..n}")

    @property
    def e(self) -> int:
        return len(self.blocks)


class DPartition(_Value):
    """One member (A(1), ..., A(d)): pairwise disjoint subsets, any may be empty.
    Equality and hashing read the parts alone."""

    _fields = ("parts",)
    parts: tuple[frozenset[int], ...]
    support: frozenset[int]

    def __init__(self, parts: Iterable[Iterable[int]]) -> None:
        parts = tuple(map(frozenset, parts))
        object.__setattr__(self, "parts", parts)
        if len(parts) < 1:
            raise InvariantError("a d-partition needs at least one part")
        union = _disjoint_union(parts, "part", "parts must be pairwise disjoint")
        object.__setattr__(self, "support", union)

    @classmethod
    def many(cls, parts: Sequence[Iterable[int]], d: int) -> tuple[DPartition, ...]:
        """``tuple(map(DPartition, groups))`` for the groups of d >= 1
        consecutive parts, each a frozenset or a list, checked for all
        members at once.  Every element is first checked to be an exact int,
        with multiplicity: in a shared set True or 1.0 would merge with an
        equal 1.  Equal parts then share one frozenset, and equal supports
        one too, so a part's identity means nothing.  On a fault the members
        are made one at a time and the first at fault is named; a part that
        lists an element twice, which the constructor would merge, is refused."""
        if set(map(type, chain.from_iterable(parts))) <= {int}:
            shared = _Shared()
            # a frozenset is its own key, a list the tuple of its elements
            sets = (
                shared.setdefault(p, p) if p.__class__ is frozenset else shared[tuple(p)]
                for p in parts
            )
            groups = tuple(zip(*[sets] * d))
            supports = list(map(shared.__getitem__, starmap(frozenset.union, groups)))
            if (
                sum(map(len, parts)) == sum(map(len, supports))
                and min(chain.from_iterable(set(supports)), default=1) >= 1
            ):
                # each member is filled before the next is made: one made
                # before the first is filled would hold a dict, not the
                # shared key table
                members = []
                for group, support in zip(groups, supports):
                    member = object.__new__(cls)
                    object.__setattr__(member, "parts", group)
                    object.__setattr__(member, "support", support)
                    members.append(member)
                return tuple(members)
        members = []
        for group in zip(*[iter(parts)] * d):
            if list(map(len, group)) != list(map(len, map(frozenset, group))):
                raise InvariantError("a part must not list an element twice")
            members.append(cls(group))
        return tuple(members)

    @property
    def d(self) -> int:
        return len(self.parts)

    @cached_property
    def masks(self) -> tuple[int, ...]:
        return tuple(sum(1 << (x - 1) for x in p) for p in self.parts)

    @property
    def size_vector(self) -> tuple[int, ...]:
        return tuple(len(p) for p in self.parts)


class Family(_Value):
    """An ordered list of d-partitions over one ground set.

    ``d`` may be given explicitly (mandatory for an empty family) and is
    otherwise inferred from the first member.  Duplicate members are rejected:
    a repeated member would violate every system class, so it is always a
    construction error.
    """

    _fields = ("ground", "members", "d")
    ground: GroundSet
    members: tuple[DPartition, ...]
    d: int
    support: frozenset[int]

    def __init__(self, ground: GroundSet, members: Iterable[DPartition], d: int = 0) -> None:
        members = tuple(members)
        object.__setattr__(self, "ground", ground)
        object.__setattr__(self, "members", members)
        if d == 0:
            if not members:
                raise InvariantError("an empty family needs an explicit d")
            d = members[0].d
        object.__setattr__(self, "d", d)
        if d < 1:
            raise InvariantError("d must be at least 1")
        n = ground.n
        # members made in bulk share their supports: each distinct one is read once
        support = frozenset().union(*set(map(attrgetter("support"), members)))
        object.__setattr__(self, "support", support)
        parts = tuple(map(attrgetter("parts"), members))
        if (
            set(map(len, parts)) <= {d}
            and max(support, default=0) <= n
            and len(set(parts)) == len(parts)
        ):
            return
        # a fault: the walk names the first member at fault
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
