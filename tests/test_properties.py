"""Property suites: invariants that must hold on arbitrary inputs, not just
the curated examples."""

from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import comb, prod

import pytest
from hypothesis import given, settings, strategies as st

from bollosys import (
    DPartition,
    Family,
    GroundSet,
    HypothesisError,
    check_theorem,
    classify,
    double_count_identity,
    fill_to_full,
    inverse_multinomial_sum,
    lex_full_family,
    multinomial,
    parts_increasing,
    set_less,
    tuza_product_sum,
    with_blocks,
)
from bollosys.classify import (
    CLASS_NAMES,
    classify_with_witnesses,
    pair_bollobas,
    pair_skew,
    pair_strong,
    pair_symmetric,
    pair_weak,
    relation_rows,
)
from bollosys.constructions import all_full_partitions
from bollosys.familyjson import family_from_obj, family_to_obj
from bollosys.permoracle import block_permutations, good_masks, i_sigma
from bollosys.search import compositions
from bollosys.weights import blocked_inverse_sum


def dp(*parts):
    return DPartition(tuple(frozenset(p) for p in parts))


@st.composite
def random_blocks(draw, n):
    if n == 0 or not draw(st.booleans()):
        return ()
    cut = draw(st.integers(1, max(1, n - 1))) if n > 1 else 1
    elements = draw(st.permutations(list(range(1, n + 1))))
    if n == 1:
        return ()
    return (frozenset(elements[:cut]), frozenset(elements[cut:]))


@st.composite
def families(draw, max_n=5, max_d=4, max_m=4, min_d=2):
    n = draw(st.integers(1, max_n))
    d = draw(st.integers(min_d, max_d))
    count = draw(st.integers(1, max_m))
    members = []
    seen = set()
    for _ in range(count):
        assignment = draw(st.lists(st.integers(0, d), min_size=n, max_size=n))
        parts = [set() for _ in range(d)]
        for x, r in zip(range(1, n + 1), assignment):
            if r < d:
                parts[r].add(x)
        member = DPartition(tuple(frozenset(p) for p in parts))
        if member not in seen:
            seen.add(member)
            members.append(member)
    blocks = draw(random_blocks(n))
    return Family(GroundSet(n, blocks), tuple(members), d)


@st.composite
def increasing_families(draw, max_n=6, max_d=4, max_m=4):
    n = draw(st.integers(1, max_n))
    d = draw(st.integers(2, max_d))
    count = draw(st.integers(1, max_m))
    members = []
    seen = set()
    all_comps = {}
    for _ in range(count):
        support = tuple(
            sorted(draw(st.sets(st.integers(1, n), max_size=n)))
        )
        t = len(support)
        comps = all_comps.setdefault((t, d), list(compositions(t, d)))
        comp = draw(st.sampled_from(comps))
        parts = []
        taken = 0
        for size in comp:
            parts.append(frozenset(support[taken : taken + size]))
            taken += size
        member = DPartition(tuple(parts))
        if member not in seen:
            seen.add(member)
            members.append(member)
    return Family(GroundSet(n), tuple(members), d)


@settings(max_examples=200, deadline=None)
@given(families())
def test_implication_chain(family):
    flags = classify(family)
    assert flags.chain_consistent()


@settings(max_examples=200, deadline=None)
@given(families())
def test_reversal_changes_only_skew(family):
    reversed_family = Family(family.ground, tuple(reversed(family.members)), family.d)
    a, b = classify(family), classify(reversed_family)
    for name in ("weak", "bollobas", "strong", "symmetric"):
        assert getattr(a, name) == getattr(b, name)


@settings(max_examples=200, deadline=None)
@given(increasing_families())
def test_fill_preserves_classes_and_shape(family):
    flags = classify(family)
    if not flags.weak:
        return  # filling may legitimately collide for non-weak inputs
    filled = fill_to_full(family)
    assert filled.m == family.m
    assert all(parts_increasing(member) for member in filled.members)
    assert all(member.support == family.support for member in filled.members)
    filled_flags = classify(filled)
    for name in CLASS_NAMES:
        if getattr(flags, name):
            assert getattr(filled_flags, name), name


PAIR_PREDICATES = {
    "weak": pair_weak,
    "skew": pair_skew,
    "bollobas": pair_bollobas,
    "strong": pair_strong,
    "symmetric": pair_symmetric,
}


def lexicographic_scan(family):
    """Flags and first violations by the plain scan over pairs i < j."""
    alive = dict.fromkeys(CLASS_NAMES, True)
    violations = {}
    for i, j in combinations(range(family.m), 2):
        for name in CLASS_NAMES:
            if alive[name] and not PAIR_PREDICATES[name](family.members[i], family.members[j]):
                alive[name] = False
                violations[name] = (i, j)
    return alive, violations


@settings(max_examples=300, deadline=None)
@given(families(max_n=7, max_d=5, max_m=8, min_d=1), st.data())
def test_relation_rows_match_pair_predicates(family, data):
    members = data.draw(st.permutations(family.members))
    family = Family(family.ground, tuple(members), family.d)
    for name in CLASS_NAMES:
        rows = list(relation_rows(members, family.d, name))
        assert len(rows) == len(members)
        for i, p in enumerate(members):
            for j, q in enumerate(members):
                expected = i != j and PAIR_PREDICATES[name](p, q)
                assert bool(rows[i] >> j & 1) == expected, (name, i, j)
    flags, violations = classify_with_witnesses(family)
    alive, first = lexicographic_scan(family)
    assert flags.as_dict() == alive
    assert list(violations.items()) == list(first.items())


@settings(max_examples=100, deadline=None)
@given(families(max_n=4, max_d=3, max_m=3))
def test_double_count_identity_randomized(family):
    result = double_count_identity(family)
    assert result.equal


def members_of(mask):
    return frozenset(i for i in range(mask.bit_length()) if mask >> i & 1)


@settings(max_examples=300, deadline=None)
@given(families(max_n=6, max_d=4, max_m=6, min_d=1))
def test_bitset_oracle_matches_i_sigma(family):
    per_sigma = [i_sigma(family, sigma) for sigma in block_permutations(family)]
    assert double_count_identity(family).rhs == sum(map(len, per_sigma))
    if family.ground.e == 1:
        per_order = [members_of(mask) for mask in good_masks(family, 0)]
        assert Counter(per_order) == Counter(per_sigma)


@settings(max_examples=100, deadline=None)
@given(families())
def test_blocked_sum_reduces_when_single_block(family):
    single = Family(GroundSet(family.ground.n), family.members, family.d)
    assert blocked_inverse_sum(single) == inverse_multinomial_sum(single)


@settings(max_examples=100, deadline=None)
@given(families(max_d=3), st.integers(1, 5), st.integers(1, 5))
def test_tuza_bound_on_weak_families(family, x, y):
    if not classify(family).weak:
        return
    d = family.d
    weights = [Fraction(x, x + y + (d - 2)), Fraction(y, x + y + (d - 2))]
    weights += [Fraction(1, x + y + (d - 2))] * (d - 2)
    assert sum(weights) == 1
    assert tuza_product_sum(family, weights) <= 1


@settings(max_examples=200, deadline=None)
@given(st.sets(st.integers(1, 50), min_size=1), st.sets(st.integers(1, 50), min_size=1),
       st.sets(st.integers(1, 50), min_size=1))
def test_set_less_transitive_on_nonempty(a, b, c):
    if set_less(a, b) and set_less(b, c):
        assert set_less(a, c)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 8), st.lists(st.integers(0, 4), min_size=1, max_size=4))
def test_multinomial_permutation_invariant(extra, sizes):
    n = sum(sizes) + extra
    reference = multinomial(n, sizes)
    assert multinomial(n, list(reversed(sizes))) == reference
    assert reference >= 1


def test_full_increasing_partitions_are_interval_partitions():
    # brute force over every full d-partition of [s]
    for d, s in ((2, 8), (3, 6)):
        universe = list(range(1, s + 1))
        increasing = [
            p for p in all_full_partitions(universe, d) if parts_increasing(p)
        ]
        assert len(increasing) == len(list(compositions(s, d)))
        for p in increasing:
            for part in p.parts:
                if part:
                    assert max(part) - min(part) + 1 == len(part)


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 4), st.integers(2, 3), st.data())
def test_lex_family_blocked_sum_attains_bound_for_any_blocks(n, d, data):
    family = lex_full_family(n, d)
    blocks = data.draw(random_blocks(n))
    if blocks:
        family = with_blocks(family, blocks)
    sizes = [len(b) for b in family.ground.blocks]
    from bollosys.weights import class_bound

    assert blocked_inverse_sum(family) == class_bound("skew", d, sizes)


@settings(max_examples=100, deadline=None)
@given(families())
def test_family_json_round_trip(family):
    assert family_from_obj(family_to_obj(family)) == family


@st.composite
def uniform_profile_pair_families(draw, max_n=6, max_m=4):
    # one (|A(1) & X_k|, |A(2) & X_k|) per block, shared by every member
    n = draw(st.integers(1, max_n))
    ground = GroundSet(n, draw(random_blocks(n)))
    sizes = []
    for block in ground.blocks:
        a1 = draw(st.integers(0, len(block)))
        sizes.append((a1, draw(st.integers(0, len(block) - a1))))
    members = []
    for _ in range(draw(st.integers(1, max_m))):
        first, second = set(), set()
        for block, (a1, a2) in zip(ground.blocks, sizes):
            order = draw(st.permutations(sorted(block)))
            first.update(order[:a1])
            second.update(order[a1 : a1 + a2])
        members.append(DPartition((frozenset(first), frozenset(second))))
    return Family(ground, tuple(dict.fromkeys(members)), 2)


@settings(max_examples=200, deadline=None)
@given(st.one_of(families(max_n=6, max_d=2), uniform_profile_pair_families()))
def test_thm15_bound_reads_the_block_size_profile(family):
    profiles = {
        tuple((len(a & block), len(b & block)) for block in family.ground.blocks)
        for a, b in (member.parts for member in family.members)
    }
    if len(profiles) > 1:
        with pytest.raises(HypothesisError, match="profile"):
            check_theorem(family, "thm-1.5", force=True)
        return
    (profile,) = profiles
    report = check_theorem(family, "thm-1.5", force=True)
    assert report.lhs == family.m
    assert report.rhs == prod(comb(a1 + a2, a1) for a1, a2 in profile)
    assert report.hypothesis_failed == (not classify(family).skew)
