"""Pair predicates and whole-family classification for the five system classes.

The classes are nested: symmetric => strong => bollobas => skew => weak.
Skew is the one order-sensitive class; it quantifies over member pairs in the
family's listed order, so reversing a family may change its skew flag and
nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
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


def _symmetric(pm: tuple[int, ...], qm: tuple[int, ...], d: int) -> bool:
    # one index pair p < q intersecting in both directions
    for p in range(d - 1):
        a, b = pm[p], qm[p]
        if not a and not b:
            continue
        for q in range(p + 1, d):
            if a & qm[q] and b & pm[q]:
                return True
    return False


def _strong(pm: tuple[int, ...], qm: tuple[int, ...], d: int) -> bool:
    # A crossing witness: an upper intersection (p, q) with p < q and P(p)
    # meeting Q(q), plus a lower one (p2, q2) with q2 < p2 and P(p2) meeting
    # Q(q2), arranged so that p < p2 and q2 < q.  Equivalently, witnesses
    # u1 < u2, v1 < v2 to P(u1) meeting Q(v2) and P(u2) meeting Q(v1) that
    # also satisfy u1 < v2 and v1 < u2; without that crossing requirement the
    # predicate would not imply the bollobas one and the class chain would
    # break (e.g. ({1,2},{3},{}) against ({1},{3},{2})).
    inf = d + 1
    lowmin = [inf] * d  # per row p2: least q2 < p2 with an intersection
    for p2 in range(1, d):
        a = pm[p2]
        if not a:
            continue
        for q2 in range(p2):
            if a & qm[q2]:
                lowmin[p2] = q2
                break
    # minq_above[p] = least lower-witness column over rows strictly after p
    suffix = inf
    minq_above = [inf] * d
    for p in range(d - 1, -1, -1):
        minq_above[p] = suffix
        suffix = min(suffix, lowmin[p])
    for p in range(d - 1):
        a = pm[p]
        if not a:
            continue
        threshold = minq_above[p]
        if threshold >= d:
            continue
        for q in range(d - 1, p, -1):  # largest upper-witness column first
            if a & qm[q]:
                if threshold < q:
                    return True
                break
    return False


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
    d = _require_same_d(p, q)
    return _strong(p.masks, q.masks, d)


def pair_symmetric(p: DPartition, q: DPartition) -> bool:
    d = _require_same_d(p, q)
    return _symmetric(p.masks, q.masks, d)


def skew_witness(p: DPartition, q: DPartition) -> tuple[int, int, int] | None:
    """First (part_p, part_q, element) with part_p < part_q and the parts
    meeting, 0-based part indices; None when pair_skew(p, q) fails."""
    d = _require_same_d(p, q)
    pm, qm = p.masks, q.masks
    for a in range(d - 1):
        if not pm[a]:
            continue
        for b in range(a + 1, d):
            hit = pm[a] & qm[b]
            if hit:
                return (a, b, (hit & -hit).bit_length())
    return None


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
        for i, row in enumerate(relation_rows(family.members, family.d, name)):
            missing = ~row & ((1 << m) - (2 << i))  # the j > i outside row i
            if missing:
                violations[name] = (i, (missing & -missing).bit_length() - 1)
                break
    flags = ClassFlags(**{name: name not in violations for name in CLASS_NAMES})
    return flags, dict(sorted(violations.items(), key=lambda item: item[1]))


def classify(family: Family) -> ClassFlags:
    flags, _ = classify_with_witnesses(family)
    return flags
