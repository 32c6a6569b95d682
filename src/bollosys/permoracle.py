"""Brute-force double-counting oracle over block-preserving permutations.

This is deliberately the slow path.  It enumerates the whole group of
permutations of the family support that fix every block support setwise and
recounts, permutation by permutation, how many members have all their
per-block part images in increasing order.  That count must equal the
factorial-weighted inverse-multinomial sum, which is what the fast exact
formulas in :mod:`bollosys.weights` rely on.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import factorial, prod
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

    def apply(self, elements: frozenset[int]) -> frozenset[int]:
        table = self.mapping
        return frozenset(table[x] for x in elements)


def block_permutations(
    family: Family, cap: int = DEFAULT_PERMUTATION_CAP
) -> Iterator[BlockPermutation]:
    """All permutations of S fixing each S_k setwise, each exactly once."""
    supports = family.block_supports
    total = 1
    for sk in supports:
        total *= factorial(len(sk))
    if total > cap:
        raise CapExceeded(f"permutation group has {total} elements, cap is {cap}")
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
    of members counted by :func:`i_sigma`.  The two must agree for
    every family; disagreement means a bug in the weighted-sum formulas.
    """
    group_order = prod(factorial(sk) for sk in family.block_support_sizes)
    lhs = group_order * blocked_inverse_sum(family)
    if lhs.denominator != 1:
        raise AssertionError(f"lhs is not an integer: {lhs}")
    rhs = 0
    for sigma in block_permutations(family, cap=cap):
        rhs += len(i_sigma(family, sigma))
    return DoubleCountResult(lhs=int(lhs), rhs=rhs)
