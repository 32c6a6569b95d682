import random
import time
import tracemalloc
from collections import Counter
from itertools import accumulate, islice, permutations
from math import factorial
from operator import or_

import pytest
from hypothesis import example, given, settings, strategies as st

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
from bollosys.permoracle import good_masks


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


def per_order_masks(family, k, at):
    """The reference for :func:`good_masks`: each order of S_k walked from its
    first element, marking a member when an element of its part r arrives
    after one of its elements in a part above r."""
    d = family.d
    support = family.block_supports[k]
    # per element: (members with x in part r, r + 1) for each r < d - 1, to
    # test against seen_ge[r + 1]; and ge[t], the members with x in a part >= t
    checks = {x: [(bits, r + 1) for r, bits in enumerate(at[x][:-1]) if bits] for x in support}
    ge = {x: list(accumulate(at[x][::-1], or_))[::-1] for x in support}
    full = (1 << family.m) - 1
    for order in permutations(sorted(support)):
        seen_ge = [0] * d  # members with an earlier element in a part >= t
        bad = 0
        for x in order:
            for bits, above in checks[x]:
                bad |= bits & seen_ge[above]
            seen_ge = list(map(or_, seen_ge, ge[x]))
        yield full & ~bad


def placed(where, d):
    """The member putting element x in part where[x - 1]; d leaves x out."""
    return dp(*({x for x, r in enumerate(where, 1) if r == part} for part in range(d)))


def seeded_family(seed, n, d, m, blocks=()):
    rng = random.Random(seed)
    members = set()
    while len(members) < m:
        members.add(placed([rng.randint(0, d) for _ in range(n)], d))
    return fam(n, *sorted(members, key=repr), d=d, blocks=blocks)


@st.composite
def block_families(draw):
    """Up to 8 elements in one or two blocks, d = 1..4 and up to 12 members,
    each of which may leave out any element and leave any part empty."""
    n = draw(st.integers(0, 8))
    d = draw(st.integers(1, 4))
    members = set()
    for _ in range(draw(st.integers(0, 12))):
        members.add(placed(draw(st.lists(st.integers(0, d), min_size=n, max_size=n)), d))
    blocks = ()
    if n >= 2 and draw(st.booleans()):
        elements = draw(st.permutations(range(1, n + 1)))
        cut = draw(st.integers(1, n - 1))
        blocks = (elements[:cut], elements[cut:])
    return fam(n, *sorted(members, key=repr), d=d, blocks=blocks)


@settings(max_examples=150, deadline=None)
@given(block_families())
@example(fam(3, d=2))  # |S_k| = 0
@example(fam(3, dp(set(), {2}, set())))  # |S_k| = 1
@example(fam(2, dp({1}, {2}), dp({2}, {1}), dp(set(), {1, 2})))  # |S_k| = 2
@example(fam(4, dp({1, 3}, {2, 4}), dp({2}, {1, 3}), blocks=({1, 2}, {3, 4})))  # 2 and 2
@example(seeded_family(1, 8, 4, 12))  # |S_k| = 8
@example(seeded_family(2, 8, 3, 12, blocks=(set(range(1, 8)), {8})))  # 7 and 1
def test_good_masks_match_the_per_order_walk(family):
    at = _incidence(family.members, family.d)
    for k, support in enumerate(family.block_supports):
        masks = list(good_masks(family, k, at))
        assert len(masks) == factorial(len(support))
        assert Counter(masks) == Counter(per_order_masks(family, k, at))


def test_good_masks_stream():
    # a block of 10 elements has 10! orders; the first mask comes from the
    # first tail set alone, so no table of every order is built
    low, high = set(range(1, 6)), set(range(6, 11))
    family = fam(10, dp(low, high), dp(high, low), dp(set(), low | high))
    at = _incidence(family.members, family.d)
    tracemalloc.start()
    try:
        start = time.perf_counter()
        first = list(islice(good_masks(family, 0, at), 1))
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(first) == 1 and 0 <= first[0] < 1 << family.m
    assert peak < 1 << 20, peak
    assert elapsed < 1.0, elapsed


@pytest.mark.parametrize("family", [
    seeded_family(3, 5, 3, 10),  # one block: each mask is counted as it is
    seeded_family(4, 5, 2, 8, blocks=({1, 2, 3, 4}, {5})),  # the other block has one order
    seeded_family(5, 5, 3, 10, blocks=({1, 2}, {3, 4, 5})),  # each mask ANDed with the rest
    fam(3, d=2),
], ids=["one-block", "4+1", "2+3", "empty"])
def test_rhs_is_the_brute_force_count(family):
    brute = sum(len(i_sigma(family, sigma)) for sigma in block_permutations(family))
    assert double_count_identity(family).rhs == brute
