"""Brute-force double-counting oracle over block-preserving permutations.

The oracle visits every element of the group of permutations of the family
support that fix every block support setwise, and counts the members whose
per-block part images are in increasing order.  That count must equal the
factorial-weighted inverse-multinomial sum, which is what the fast exact
formulas in :mod:`bollosys.weights` rely on.  The count shares no code with
those formulas.

The count runs on bitsets read off one incidence index of
:mod:`bollosys.classify`, built once per run: ``at[x][r]`` is the set of
members that put element x in part r.  :func:`good_masks` ORs pair masks
once per half of an order and once per tail set.  :func:`i_sigma` is the
scalar definition the masks are tested against, on a mapping element -> image.
"""

from __future__ import annotations

import itertools
from functools import reduce
from math import factorial, prod
from operator import and_, or_
from typing import Iterator, NamedTuple

from .classify import _incidence
from .core import Family, check_cap, sets_increasing
from .weights import blocked_inverse_sum

DEFAULT_PERMUTATION_CAP = factorial(10)


def _check_group_cap(family: Family, cap: int) -> int:
    """The order prod_k s_k! of the block-preserving group, refused above cap."""
    total = prod(factorial(size) for size in family.block_support_sizes)
    return check_cap(total, cap, "permutation group has {} elements")


def block_permutations(
    family: Family, cap: int = DEFAULT_PERMUTATION_CAP
) -> Iterator[dict[int, int]]:
    """All permutations of S fixing each S_k setwise, each exactly once, as
    mappings element -> image."""
    _check_group_cap(family, cap)
    ordered = [sorted(sk) for sk in family.block_supports]
    for images in itertools.product(*(itertools.permutations(b) for b in ordered)):
        mapping: dict[int, int] = {}
        for origin, image in zip(ordered, images):
            mapping.update(zip(origin, image))
        yield mapping


def i_sigma(family: Family, sigma: dict[int, int]) -> frozenset[int]:
    """0-based indices of members whose per-block part images are increasing.

    For member i and every block k, the images of the parts' intersections
    with that block must satisfy the whole-set order pairwise over all part
    index pairs (empty images are compatible with everything).
    """
    good: list[int] = []
    for idx, member in enumerate(family.members):
        ok = True
        for block in family.ground.blocks:
            images = [
                {sigma[x] for x in part & block} for part in member.parts
            ]
            if not sets_increasing(images):
                ok = False
                break
        if ok:
            good.append(idx)
    return frozenset(good)


def good_masks(family: Family, k: int, at: dict[int, list[int]]) -> Iterator[int]:
    """Per permutation of block support S_k, the bitset of members (bit i for
    member i) whose parts inside block k have increasing images.

    An order lists sigma_k^-1 (its t-th entry is the element whose image is
    the t-th smallest of S_k): a head of |S_k| // 2 elements, then a tail.
    It fails where its head, its tail or a pair across them fails, so each
    sigma_k comes once, grouped by tail set.  ``at`` is the incidence index
    ``_incidence(family.members, family.d)``.
    """
    support = sorted(family.block_supports[k])
    # above[y, x]: members with x in a part below y's; they fail if y precedes x
    rank_pairs = list(itertools.combinations(range(family.d), 2))
    above = {(y, x): reduce(or_, [at[x][r] & at[y][t] for r, t in rank_pairs], 0)
             for y in support for x in support}
    full = (1 << family.m) - 1  # bad is in full: full ^ bad drops it

    def fails(part):  # per order of part: the members a pair in it fails
        orders = itertools.permutations(part)
        return [reduce(or_, map(above.get, itertools.combinations(o, 2)), 0) for o in orders]

    for tail in itertools.combinations(support, len(support) - len(support) // 2):
        head = [x for x in support if x not in tail]
        cross = reduce(or_, map(above.get, itertools.product(head, tail)), 0)
        tails = [cross | bad for bad in fails(tail)]
        for bad in fails(head):
            for t in tails:
                yield full ^ (bad | t)


class DoubleCountResult(NamedTuple):
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
    the AND of one :func:`good_masks` entry per block, all read off one
    incidence index.  The two must agree for every family; disagreement
    means a bug in the weighted-sum formulas.
    """
    group_order = _check_group_cap(family, cap)
    lhs = group_order * blocked_inverse_sum(family)
    if lhs.denominator != 1:
        raise AssertionError(f"lhs is not an integer: {lhs}")
    # the largest block streams; the combinations of the others are stored
    sizes = family.block_support_sizes
    largest = max(range(len(sizes)), key=sizes.__getitem__)
    at = _incidence(family.members, family.d)
    others = [list(good_masks(family, k, at)) for k in range(len(sizes)) if k != largest]
    full = (1 << family.m) - 1
    rest = [reduce(and_, combo, full) for combo in itertools.product(*others)]
    masks = good_masks(family, largest, at)
    if rest == [full]:  # no other block has two elements: nothing to AND
        rhs = sum(map(int.bit_count, masks))
    else:
        rhs = sum((mask & common).bit_count() for mask in masks for common in rest)
    return DoubleCountResult(lhs=int(lhs), rhs=rhs)
