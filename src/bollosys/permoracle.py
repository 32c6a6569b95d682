"""Brute-force double-counting oracle over block-preserving permutations.

The oracle visits every element of the group of permutations of the family
support that fix every block support setwise, and counts the members whose
per-block part images are in increasing order.  That count must equal the
factorial-weighted inverse-multinomial sum, which is what the fast exact
formulas in :mod:`bollosys.weights` rely on.  The count shares no code with
those formulas.

The count runs on bitset rows: ``at[x][r]`` is the set of members that put
element x in part r, so one pass over an order of a block support marks every
member whose parts arrive out of order at once.  :func:`i_sigma` is the
scalar, one-permutation-at-a-time definition the rows are tested against.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import reduce
from math import factorial, prod
from operator import and_, or_
from typing import Iterator, Mapping

from .core import CapExceeded, Family, InvariantError, sets_increasing
from .weights import blocked_inverse_sum

DEFAULT_PERMUTATION_CAP = factorial(10)


@dataclass(frozen=True)
class BlockPermutation:
    """A bijection on the family support mapping each block support onto itself."""

    pairs: tuple[tuple[int, int], ...]

    @classmethod
    def from_mapping(
        cls,
        mapping: Mapping[int, int],
        block_supports: tuple[frozenset[int], ...],
    ) -> BlockPermutation:
        for sk in block_supports:
            if {mapping[x] for x in sk} != sk:
                raise InvariantError("permutation must keep each block support invariant")
        if len(set(mapping.values())) != len(mapping):
            raise InvariantError("mapping is not a bijection")
        return cls(tuple(sorted(mapping.items())))

    @property
    def mapping(self) -> dict[int, int]:
        return dict(self.pairs)


def _check_group_cap(family: Family, cap: int) -> int:
    """The order prod_k s_k! of the block-preserving group, refused above cap."""
    total = prod(factorial(size) for size in family.block_support_sizes)
    if total > cap:
        raise CapExceeded(f"permutation group has {total} elements, cap is {cap}")
    return total


def block_permutations(
    family: Family, cap: int = DEFAULT_PERMUTATION_CAP
) -> Iterator[BlockPermutation]:
    """All permutations of S fixing each S_k setwise, each exactly once."""
    supports = family.block_supports
    _check_group_cap(family, cap)
    ordered = [sorted(sk) for sk in supports]
    for images in itertools.product(*(itertools.permutations(b) for b in ordered)):
        mapping: dict[int, int] = {}
        for origin, image in zip(ordered, images):
            mapping.update(zip(origin, image))
        yield BlockPermutation.from_mapping(mapping, supports)


def i_sigma(family: Family, sigma: BlockPermutation) -> frozenset[int]:
    """0-based indices of members whose per-block part images are increasing.

    For member i and every block k, the images of the parts' intersections
    with that block must satisfy the whole-set order pairwise over all part
    index pairs (empty images are compatible with everything).
    """
    table = sigma.mapping
    good: list[int] = []
    for idx, member in enumerate(family.members):
        ok = True
        for block in family.ground.blocks:
            images = [
                {table[x] for x in part & block} for part in member.parts
            ]
            if not sets_increasing(images):
                ok = False
                break
        if ok:
            good.append(idx)
    return frozenset(good)


def good_masks(family: Family, k: int) -> Iterator[int]:
    """Per permutation of block support S_k, the bitset of members (bit i for
    member i) whose parts inside block k have increasing images.

    The orders are ``itertools.permutations(sorted(S_k))``.  The t-th entry of
    an order is the element whose image is the t-th smallest element of S_k,
    so an order lists sigma_k^-1 and each sigma_k of the block's group comes
    exactly once.  A member fails when an element of its part r arrives after
    one of its elements in a part above r; empty parts never fail.
    """
    d = family.d
    support = family.block_supports[k]
    at = {x: [0] * d for x in support}
    for i, member in enumerate(family.members):
        for r, part in enumerate(member.parts):
            for x in part & support:
                at[x][r] |= 1 << i
    # per element: (members with x in part r, r + 1) for each r < d - 1, to
    # test against seen_ge[r + 1]; and ge[t], the members with x in a part >= t
    checks = {
        x: [(bits, r + 1) for r, bits in enumerate(row[:-1]) if bits]
        for x, row in at.items()
    }
    ge = {x: list(itertools.accumulate(row[::-1], or_))[::-1] for x, row in at.items()}
    full = (1 << family.m) - 1
    for order in itertools.permutations(sorted(support)):
        seen_ge = [0] * d  # members with an earlier element in a part >= t
        bad = 0
        for x in order:
            for bits, above in checks[x]:
                bad |= bits & seen_ge[above]
            seen_ge = list(map(or_, seen_ge, ge[x]))
        yield full & ~bad


@dataclass(frozen=True)
class DoubleCountResult:
    lhs: int
    rhs: int

    @property
    def equal(self) -> bool:
        return self.lhs == self.rhs


def double_count_identity(
    family: Family, cap: int = DEFAULT_PERMUTATION_CAP
) -> DoubleCountResult:
    """Both sides of the incidence count over (member, permutation) pairs.

    lhs: prod_k s_k! times :func:`bollosys.weights.blocked_inverse_sum`
    (always an integer).  rhs: sum over the permutation group of the number
    of members counted by :func:`i_sigma`, taken over every group element as
    the AND of one :func:`good_masks` entry per block.  The two must agree
    for every family; disagreement means a bug in the weighted-sum formulas.
    """
    group_order = _check_group_cap(family, cap)
    lhs = group_order * blocked_inverse_sum(family)
    if lhs.denominator != 1:
        raise AssertionError(f"lhs is not an integer: {lhs}")
    # the largest block streams; the combinations of the others are stored
    sizes = family.block_support_sizes
    largest = max(range(len(sizes)), key=sizes.__getitem__)
    others = [list(good_masks(family, k)) for k in range(len(sizes)) if k != largest]
    full = (1 << family.m) - 1
    rest = [reduce(and_, combo, full) for combo in itertools.product(*others)]
    rhs = sum(
        (mask & common).bit_count()
        for mask in good_masks(family, largest)
        for common in rest
    )
    return DoubleCountResult(lhs=int(lhs), rhs=rhs)
