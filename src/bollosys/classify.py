"""Pair predicates and whole-family classification for the five system classes.

The classes are nested: symmetric => strong => bollobas => skew => weak.
Skew is the one order-sensitive class; it quantifies over member pairs in the
family's listed order, so reversing a family may change its skew flag and
nothing else.

The scalar ``pair_*`` predicates are the definitions, and the reference the
bitset rows of :func:`relation_rows` are tested against.  A predicate reads
only which parts of the two members meet, so the tests check every predicate
against the definitions on every meet matrix for d <= 4, which covers every
pair of d-partitions for d <= 4.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, combinations
from operator import or_
from typing import Iterator, Sequence

from .core import DPartition, Family

CLASS_NAMES = ("weak", "skew", "bollobas", "strong", "symmetric")


@dataclass(frozen=True)
class ClassFlags:
    weak: bool
    skew: bool
    bollobas: bool
    strong: bool
    symmetric: bool

    def as_dict(self) -> dict[str, bool]:
        return {name: getattr(self, name) for name in CLASS_NAMES}

    def chain_consistent(self) -> bool:
        """symmetric => strong => bollobas => skew => weak."""
        chain = (self.symmetric, self.strong, self.bollobas, self.skew, self.weak)
        return all(not a or b for a, b in zip(chain, chain[1:]))


def _require_same_d(p: DPartition, q: DPartition) -> int:
    if p.d != q.d:
        raise ValueError(f"d mismatch: {p.d} vs {q.d}")
    return p.d


def _forward(pm: tuple[int, ...], qm: tuple[int, ...], d: int) -> bool:
    # exists p < q with parts P(p) and Q(q) intersecting
    for p in range(d - 1):
        a = pm[p]
        if not a:
            continue
        for q in range(p + 1, d):
            if a & qm[q]:
                return True
    return False


def _crossings(pm: tuple[int, ...], qm: tuple[int, ...], d: int) -> list[tuple[int, int]]:
    # the part index pairs (a, b), a < b, with part a of p meeting part b of q,
    # in lexicographic order
    return [(a, b) for a, b in combinations(range(d), 2) if pm[a] & qm[b]]


def pair_skew(p: DPartition, q: DPartition) -> bool:
    """Ordered predicate: some earlier part of p meets a later part of q."""
    d = _require_same_d(p, q)
    return _forward(p.masks, q.masks, d)


def pair_weak(p: DPartition, q: DPartition) -> bool:
    d = _require_same_d(p, q)
    return _forward(p.masks, q.masks, d) or _forward(q.masks, p.masks, d)


def pair_bollobas(p: DPartition, q: DPartition) -> bool:
    d = _require_same_d(p, q)
    return _forward(p.masks, q.masks, d) and _forward(q.masks, p.masks, d)


def pair_strong(p: DPartition, q: DPartition) -> bool:
    """Crossing witnesses u1 < u2, v1 < v2 with part u1 of p meeting part
    v2 > u1 of q and part v1 of q meeting part u2 > v1 of p."""
    d = _require_same_d(p, q)
    back = _crossings(q.masks, p.masks, d)
    return any(
        u1 < u2 and v1 < v2
        for u1, v2 in _crossings(p.masks, q.masks, d)
        for v1, u2 in back
    )


def pair_symmetric(p: DPartition, q: DPartition) -> bool:
    """One index pair a < b with part a of each member meeting part b of the
    other."""
    d = _require_same_d(p, q)
    return not set(_crossings(p.masks, q.masks, d)).isdisjoint(_crossings(q.masks, p.masks, d))


def skew_witness(p: DPartition, q: DPartition) -> tuple[int, int, int] | None:
    """First (part_p, part_q, element) with part_p < part_q and the parts
    meeting, 0-based part indices; None when pair_skew(p, q) fails."""
    d = _require_same_d(p, q)
    crossings = _crossings(p.masks, q.masks, d)
    if not crossings:
        return None
    a, b = crossings[0]
    hit = p.masks[a] & q.masks[b]
    return (a, b, (hit & -hit).bit_length())


def _element_index(members: Sequence[DPartition], d: int) -> dict[int, list[int]]:
    """``at[x][r]``: the bitset of the members that put element x in part r."""
    at: dict[int, list[int]] = {}
    for i, member in enumerate(members):
        for r, part in enumerate(member.parts):
            for x in part:
                at.setdefault(x, [0] * d)[r] |= 1 << i
    return at


def skew_witness_rows(
    members: Sequence[DPartition], d: int
) -> list[dict[int, tuple[int, int, int]]]:
    """Per member i, ``skew_witness(members[i], members[j])`` keyed by j, for
    every j != i that has one.

    One pass per member walks its parts a ascending, then b > a ascending,
    then the elements x of part a ascending; each j not yet reached takes the
    first (a, b, x) with x in part b of member j.  That is skew_witness's own
    scan order, so every triple is the one it returns.
    """
    at = _element_index(members, d)
    everyone = (1 << len(members)) - 1
    rows = []
    for i, member in enumerate(members):
        todo = everyone ^ (1 << i)
        row: dict[int, tuple[int, int, int]] = {}
        for a, part in enumerate(member.parts):
            elements = sorted(part)
            for b in range(a + 1, d):
                for x in elements:
                    new = at[x][b] & todo
                    todo ^= new
                    while new:
                        low = new & -new
                        new ^= low
                        row[low.bit_length() - 1] = (a, b, x)
        rows.append(row)
    return rows


def relation_rows(members: Sequence[DPartition], d: int, name: str) -> Iterator[int]:
    """Lazily, per member i in order, the bitset of the j with
    ``pair_<name>(members[i], members[j])``; skew is ordered with i first.

    The index ``at[x][r]`` holds the members that put element x in part r, so
    a row over all j at once costs O(s) big-int operations for weak, skew and
    bollobas and O(s^2 d) for strong and symmetric, s the member's support
    size.  The lexicographically first pair failing the class is the least i
    whose row misses some j > i, paired with the least such j.
    """
    if name not in CLASS_NAMES:
        raise ValueError(f"unknown class {name!r}")
    at = _element_index(members, d)
    # below[x][t]: the members that put x in a part r < t.  A member holds x
    # in one part at most, so below[x][d] ^ below[x][t + 1] is those with r > t
    below = {x: list(accumulate(row, or_, initial=0)) for x, row in at.items()}
    for member in members:
        labelled = [(x, r) for r, part in enumerate(member.parts) for x in part]
        if name in ("weak", "skew", "bollobas"):
            fwd = bwd = 0
            for x, r in labelled:
                fwd |= below[x][d] ^ below[x][r + 1]
                bwd |= below[x][r]
            yield {"weak": fwd | bwd, "skew": fwd, "bollobas": fwd & bwd}[name]
            continue
        row = 0
        for x, rx in labelled:
            for y, ry in labelled:
                if rx >= ry:
                    continue
                if name == "symmetric":
                    row |= at[x][ry] & at[y][rx]
                else:
                    for v in range(rx + 1, d):
                        row |= at[x][v] & below[y][min(v, ry)]
        yield row


def classify_with_witnesses(
    family: Family,
) -> tuple[ClassFlags, dict[str, tuple[int, int]]]:
    """All five flags plus, per failed class, the first violating member pair.

    Pair indices are 0-based positions in the family's listed order; each is
    the lexicographically first pair failing its class, listed in the order a
    lexicographic pair scan meets them.
    """
    m = family.m
    violations: dict[str, tuple[int, int]] = {}
    for name in CLASS_NAMES:
        # the last row has no j > i to miss, so it is never built
        for i, row in zip(range(m - 1), relation_rows(family.members, family.d, name)):
            missing = ~row & ((1 << m) - (2 << i))  # the j > i outside row i
            if missing:
                violations[name] = (i, (missing & -missing).bit_length() - 1)
                break
    flags = ClassFlags(**{name: name not in violations for name in CLASS_NAMES})
    return flags, dict(sorted(violations.items(), key=lambda item: item[1]))


def classify(family: Family) -> ClassFlags:
    flags, _ = classify_with_witnesses(family)
    return flags
