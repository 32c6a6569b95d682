"""Pair predicates and whole-family classification for the five system classes.

The classes are nested: symmetric => strong => bollobas => skew => weak.
Skew is the one order-sensitive class; it quantifies over member pairs in the
family's listed order, so reversing a family may change its skew flag and
nothing else.

The scalar ``pair_*`` predicates are the definitions and the reference: each
reads which parts of the two members meet off the pair's crossing list.  The
fast paths read one incidence index, ``at[x][r]``, the bitset of the members
that put element x in part r, in three ways:

* weak, skew and bollobas rows (:func:`relation_rows`) are formulas over
  p's forward and backward sets, the members with a part b meeting a part
  a < b (a > b) of p: each is an OR, over p's elements, of the index's
  running union across the later (earlier) parts;
* strong and symmetric rows read one meet table per member, the bitsets of
  the members whose part b meets its part a, built only for these two;
* the certificate witnesses (:func:`skew_witness_rows`) sweep the index,
  spread to byte lanes, cell by cell: each lane takes the first triple's label.

Every verdict reads its rows through :func:`first_violation`, the one rule
for the first pair failing a class.  :func:`interval_relation_rows` reads
strong rows off meet tables built from interval bounds alone.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from itertools import accumulate, chain, combinations, compress, pairwise, repeat
from operator import and_, or_
from struct import Struct
from typing import Iterable, Iterator, NamedTuple, Sequence

from .core import DPartition, Family

CLASS_NAMES = ("weak", "skew", "bollobas", "strong", "symmetric")
# the classes whose rows are formulas over the forward and backward unions
_ONE_SIDED = ("weak", "skew", "bollobas")


class ClassFlags(NamedTuple):
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


def _crossings(pm: tuple[int, ...], qm: tuple[int, ...], d: int) -> list[tuple[int, int]]:
    # the part index pairs (a, b), a < b, with part a of p meeting part b of q,
    # in lexicographic order
    return [(a, b) for a, b in combinations(range(d), 2) if pm[a] & qm[b]]


def pair_skew(p: DPartition, q: DPartition) -> bool:
    """Ordered predicate: some earlier part of p meets a later part of q."""
    d = _require_same_d(p, q)
    return bool(_crossings(p.masks, q.masks, d))


def pair_weak(p: DPartition, q: DPartition) -> bool:
    d = _require_same_d(p, q)
    return bool(_crossings(p.masks, q.masks, d) or _crossings(q.masks, p.masks, d))


def pair_bollobas(p: DPartition, q: DPartition) -> bool:
    d = _require_same_d(p, q)
    return bool(_crossings(p.masks, q.masks, d) and _crossings(q.masks, p.masks, d))


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


def _or_cells(row: list[int], other: list[int]) -> list[int]:
    return list(map(or_, row, other))


def _incidence(members: Sequence[DPartition], d: int) -> dict[int, list[int]]:
    """``at[x][r]``: the bitset of the members that put element x in part r.
    Bits are set in one byte array per cell and each int made once, as
    ``at[x][r] |= 1 << i`` would copy an m-bit int per incidence."""
    size = (len(members) + 7) // 8
    support = set().union(*(member.support for member in members))
    cells = {x: [bytearray(size) for _ in range(d)] for x in support}
    for i, member in enumerate(members):
        byte, bit = i >> 3, 1 << (i & 7)
        for r, part in compress(enumerate(member.parts), member.parts):
            for x in part:
                cells[x][r][byte] |= bit
    return {x: [int.from_bytes(cell, "little") for cell in row] for x, row in cells.items()}


def _meet_table(at: dict[int, list[int]], member: DPartition) -> dict[int, list[int]]:
    """``meet[a][b]`` over the member's non-empty parts a: the bitset of the
    members whose part b meets part a."""
    parts = compress(enumerate(member.parts), member.parts)
    return {a: reduce(_or_cells, map(at.__getitem__, part)) for a, part in parts}


def _interval_meet_tables(
    bounds: Sequence[tuple[int, ...]], d: int
) -> Iterator[dict[int, list[int]]]:
    """The meet tables of the interval vertices given by their bounds
    B = (0, P_1, ..., P_{d-1}, s), part a being (B_a, B_{a+1}]: part b of q meets
    non-empty part a of p when it starts at or below B_{a+1}(p) and ends above B_a(p)."""
    size = bounds[0][-1] + 1 if bounds else 0
    # starts[b][x], ends[b][x]: the members whose non-empty part b starts, ends at x
    starts, ends = [[0] * size for _ in range(d)], [[0] * size for _ in range(d)]
    for i, bound in enumerate(bounds):
        for b, (low, high) in enumerate(pairwise(bound)):
            if low < high:
                starts[b][low + 1] |= 1 << i
                ends[b][high] |= 1 << i
    upto = [list(accumulate(row, or_)) for row in starts]  # starts at or below x
    onward = [list(accumulate(row[::-1], or_))[::-1] for row in ends]  # ends at or above x
    for bound in bounds:
        yield {
            a: [up[high] & on[low + 1] for up, on in zip(upto, onward)]
            for a, (low, high) in enumerate(pairwise(bound))
            if low < high
        }


def _sides(members: Sequence[DPartition], at: dict[int, list[int]]) -> Iterator[tuple[int, int]]:
    """Per member p in order, ``(fwd, bwd)``: the members with some part b
    meeting a part a of p, b > a (b < a), the OR of ``above[x][r]``
    (``below[x][r]``) over p's elements x in part r."""
    # above[x][r], below[x][r]: the OR of at[x][b] over b > r, over b < r
    above, below = {}, {}
    for x, cells in at.items():
        above[x] = list(accumulate(reversed(cells), or_, initial=0))[-2::-1]
        below[x] = list(accumulate(cells[:-1], or_, initial=0))
    for member in members:
        fwd = bwd = 0
        for r, part in enumerate(member.parts):
            for x in part:
                fwd |= above[x][r]
                bwd |= below[x][r]
        yield fwd, bwd


def _side_row(name: str, fwd: int, bwd: int) -> int:
    return {"weak": fwd | bwd, "skew": fwd, "bollobas": fwd & bwd}[name]


def _table_row(name: str, meet: dict[int, list[int]], d: int) -> int:
    # strong and symmetric; no formula reads a diagonal cell meet[a][a], the
    # only cells holding p
    if name == "symmetric":
        return reduce(or_, (meet[a][b] & meet[b][a] for a, b in combinations(meet, 2)), 0)
    # u1 descending; later[t]: the j in some cell (u2, v1), u2 > u1, v1 < min(t, u2)
    row, later = 0, [0] * d
    for a in reversed(meet):
        row = reduce(or_, map(and_, meet[a][a + 1 :], later[a + 1 :]), row)
        prefix = list(accumulate(meet[a][:a], or_, initial=0))
        later = list(map(or_, later, prefix + prefix[-1:] * (d - a - 1)))
    return row


def skew_witness_rows(
    members: Sequence[DPartition], d: int
) -> list[list[tuple[int, int, int] | None]]:
    """``rows[i][j]``: ``skew_witness(members[i], members[j])``, or None.
    Member i's sweep over (a, b, x), b > a and x ascending in part a, labels
    each unlabelled lane of ``at[x][b]`` with the triple's number: one AND per
    cell, one XOR and one OR per triple, one ``to_bytes`` and ``map`` per member.
    The index is spread to one lane per member, wide enough for m labels, as
    each triple labels a lane not labelled before: one byte for conj1."""
    m, size = len(members), (len(members) + 7) // 8
    width, code = next((w, c) for w, c in zip((1, 2, 4, 8), "BHIQ") if m < 1 << 8 * w)
    chunks = [b""]  # chunks[v]: the byte v as 8 lanes, bit t in lane t
    for _ in range(8):
        chunks = [chunk + bit.to_bytes(width, "little") for bit in (0, 1) for chunk in chunks]
    at = {
        x: [int.from_bytes(b"".join(map(chunks.__getitem__, cell.to_bytes(size, "little"))),
                           "little") for cell in row]
        for x, row in _incidence(members, d).items()
    }
    unlabelled = int.from_bytes((1).to_bytes(width, "little") * m, "little")
    unpack = Struct(f"<{m}{code}").unpack
    rows = []
    for member in members:
        todo, labels, triples = unlabelled, 0, [None]
        for a, part in compress(enumerate(member.parts), member.parts):
            cells = [(x, at[x]) for x in sorted(part)]
            for b in range(a + 1, d):
                for x, lanes in cells:
                    new = lanes[b] & todo
                    if new:
                        todo ^= new
                        labels |= new * len(triples)
                        triples.append((a, b, x))
        rows.append(list(map(triples.__getitem__, unpack(labels.to_bytes(m * width, "little")))))
    return rows


def first_violation(rows: Iterable[int], m: int) -> tuple[int, int] | None:
    """The lexicographically first pair (i, j), i < j < m, that these member
    rows miss: the least i whose row lacks some j > i, with the least such
    j; None when there is none.  Rows are read lazily, the last one never."""
    for i, row in zip(range(m - 1), rows):
        missing = ~row & ((1 << m) - (2 << i))
        if missing:
            return i, (missing & -missing).bit_length() - 1
    return None


def relation_rows(members: Sequence[DPartition], d: int, name: str) -> Iterator[int]:
    """Lazily, per member i in order, the bitset of the j with
    ``pair_<name>(members[i], members[j])``; skew is ordered with i first.

    All five read one incidence index.  A weak, skew or bollobas row costs
    O(s) big-int ORs, s the member's support size; a strong or symmetric row
    is read off the member's meet table, which costs O(s d), and then O(k d)
    for its k non-empty parts (symmetric O(k^2)).  ``first_violation`` reads
    the verdict off these rows for one class, stopping at its first failing
    member.
    """
    if name not in CLASS_NAMES:
        raise ValueError(f"unknown class {name!r}")
    at = _incidence(members, d)
    if name in _ONE_SIDED:
        yield from (_side_row(name, fwd, bwd) for fwd, bwd in _sides(members, at))
    else:
        yield from (_table_row(name, _meet_table(at, member), d) for member in members)


def interval_relation_rows(bounds: Sequence[tuple[int, ...]], d: int) -> Iterator[int]:
    """Strong ``relation_rows`` over the interval vertices with these bounds,
    none laid out (``_interval_meet_tables``): O(d s) ORs, then O(d^2) ANDs
    per vertex."""
    yield from (_table_row("strong", meet, d) for meet in _interval_meet_tables(bounds, d))


def classify_with_witnesses(
    family: Family,
) -> tuple[ClassFlags, dict[str, tuple[int, int]]]:
    """All five flags plus, per failed class, the first violating member pair.

    Pair indices are 0-based positions in the family's listed order; each is
    the lexicographically first pair failing its class, listed in the order a
    lexicographic pair scan meets them.  The classes are nested pair by pair,
    so each is read from the member where the next stronger one failed, its
    earlier rows holding: symmetric first, stopping at the first class that
    holds.  A member's meet table is built once, on first need.
    """
    members, d, m = family.members, family.d, family.m
    at = _incidence(members, d)
    meet = lru_cache(maxsize=1)(lambda i: _meet_table(at, members[i]))
    violations: dict[str, tuple[int, int]] = {}
    start = 0
    for name in reversed(CLASS_NAMES):
        if name in _ONE_SIDED:
            rows = (_side_row(name, fwd, bwd) for fwd, bwd in _sides(members[start:], at))
        else:
            rows = (_table_row(name, meet(i), d) for i in range(start, m))
        first = first_violation(chain(repeat(-1, start), rows), m)
        if first is None:
            break
        violations[name] = first
        start = first[0]
    flags = ClassFlags(**{name: name not in violations for name in CLASS_NAMES})
    order = sorted(violations.items(), key=lambda item: (item[1], CLASS_NAMES.index(item[0])))
    return flags, dict(order)


def classify(family: Family) -> ClassFlags:
    flags, _ = classify_with_witnesses(family)
    return flags
