import random

import pytest

from bollosys import (
    CapExceeded,
    DPartition,
    Family,
    GroundSet,
    block_permutations,
    double_count_identity,
    i_sigma,
    permoracle,
)
from bollosys.classify import _incidence
from bollosys.constructions import (
    chain_family_d3,
    complement_pair_family,
    lex_full_family,
    matchbox_weak_family,
    permutation_family,
    type_expansion,
)


def dp(*parts):
    return DPartition(tuple(frozenset(p) for p in parts))


def fam(n, *members, d=0, blocks=()):
    ground = GroundSet(n, tuple(frozenset(b) for b in blocks))
    return Family(ground, tuple(members), d)


class TestBlockPermutations:
    def test_single_block_counts(self):
        family = fam(2, dp({1}, {2}))
        assert len(list(block_permutations(family))) == 2

    def test_two_blocks_factor_the_group(self):
        family = fam(3, dp({1, 2}, {3}), blocks=({1, 2}, {3}))
        perms = list(block_permutations(family))
        assert len(perms) == 2  # 2! * 1!
        for mapping in perms:
            assert sorted(mapping) == sorted(mapping.values()) == [1, 2, 3]
            for support in family.block_supports:
                assert {mapping[x] for x in support} == support

    def test_empty_support_gives_identity(self):
        family = fam(2, d=2)
        perms = list(block_permutations(family))
        assert len(perms) == 1
        assert perms[0] == {}

    def test_cap(self):
        family = fam(4, dp({1, 2, 3, 4}, set()))
        with pytest.raises(CapExceeded):
            list(block_permutations(family, cap=5))


class TestISigma:
    def test_identity_counts_increasing_member(self):
        family = fam(2, dp({1}, {2}))
        perms = list(block_permutations(family))
        identity = next(p for p in perms if p == {1: 1, 2: 2})
        swap = next(p for p in perms if p == {1: 2, 2: 1})
        assert i_sigma(family, identity) == {0}
        assert i_sigma(family, swap) == frozenset()

    def test_all_empty_member_vacuous(self):
        family = fam(2, dp(set(), set()), dp({1}, {2}))
        for sigma in block_permutations(family):
            assert 0 in i_sigma(family, sigma)


class TestDoubleCountIdentity:
    def test_single_pair_member(self):
        result = double_count_identity(fam(2, dp({1}, {2})))
        assert result.lhs == result.rhs == 1

    def test_intro_example(self):
        family = fam(2, dp({1}, set(), {2}), dp(set(), {1, 2}, set()))
        result = double_count_identity(family)
        assert result.lhs == result.rhs == 3

    def test_empty_family(self):
        result = double_count_identity(fam(2, d=2))
        assert result.lhs == result.rhs == 0

    def test_blocked_family(self):
        family = fam(
            4, dp({1, 3}, {2, 4}), dp({2}, {1, 3}), blocks=({1, 2}, {3, 4})
        )
        result = double_count_identity(family)
        assert result.equal

    def test_reads_the_engine_incidence_index(self, monkeypatch):
        # the oracle keeps no index of its own: one classify index per run,
        # read for every block
        calls = []

        def counted(members, d):
            calls.append(len(members))
            return _incidence(members, d)

        monkeypatch.setattr(permoracle, "_incidence", counted)
        family = fam(
            4, dp({1, 3}, {2, 4}), dp({2}, {1, 3}), blocks=({1, 2}, {3, 4})
        )
        assert double_count_identity(family).equal
        assert calls == [2]

    @pytest.mark.parametrize(
        "family",
        [
            lex_full_family(2, 2),
            lex_full_family(2, 3),
            chain_family_d3(4),
            type_expansion(chain_family_d3(3)),
            permutation_family(3),
            complement_pair_family(4, 2, 2),
            matchbox_weak_family([1, 2]),
            matchbox_weak_family([2, 2]),
        ],
        ids=["lex22", "lex23", "chain4", "expanded3", "perm3", "compl42", "mb12", "mb22"],
    )
    def test_construction_outputs(self, family):
        assert double_count_identity(family).equal


def random_family(rng: random.Random) -> Family:
    n = rng.randint(1, 6)
    d = rng.randint(2, 4)
    e = rng.randint(1, 2)
    elements = list(range(1, n + 1))
    if e == 2 and n >= 2:
        cut = rng.randint(1, n - 1)
        rng.shuffle(elements)
        blocks = (frozenset(elements[:cut]), frozenset(elements[cut:]))
    else:
        blocks = ()
    members = set()
    for _ in range(rng.randint(1, 5)):
        parts = [set() for _ in range(d)]
        for x in range(1, n + 1):
            where = rng.randint(0, d)  # d means absent
            if where < d:
                parts[where].add(x)
        members.add(DPartition(tuple(frozenset(p) for p in parts)))
    ground = GroundSet(n, blocks)
    return Family(ground, tuple(members), d)


def test_identity_on_randomized_families():
    rng = random.Random(20240817)
    for _ in range(60):
        family = random_family(rng)
        result = double_count_identity(family)
        assert result.equal, family
