from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from test_properties import families

from bollosys import (
    CapExceeded,
    DPartition,
    Family,
    GroundSet,
    HypothesisError,
    VerificationError,
    blocked_inverse_sum,
    check_theorem,
    class_bound,
    inverse_multinomial_sum,
    multinomial,
    tuza_product_sum,
)
from bollosys import lattice, search
from bollosys.constructions import (
    all_full_partitions,
    chain_family_d3,
    complement_pair_family,
    matchbox_weak_family,
    permutation_family,
    type_expansion,
)


def dp(*parts):
    return DPartition(tuple(frozenset(p) for p in parts))


def fam(n, *members, d=0, blocks=()):
    ground = GroundSet(n, tuple(frozenset(b) for b in blocks))
    return Family(ground, tuple(members), d)


INTRO_EXAMPLE = fam(2, dp({1}, set(), {2}), dp(set(), {1, 2}, set()))


class TestMultinomial:
    def test_values(self):
        assert multinomial(4, [1, 1, 2]) == 12
        assert multinomial(3, [1, 1, 1]) == 6
        assert multinomial(5, [2, 1]) == 30

    def test_leftover_factor(self):
        # 5!/(2!1!2!) counts the unassigned remainder too
        assert multinomial(5, [2, 1]) == 30

    def test_oversized_rejected(self):
        with pytest.raises(ValueError, match="exceeding"):
            multinomial(2, [2, 1])

    def test_permutation_invariance(self):
        assert multinomial(7, [3, 1, 2]) == multinomial(7, [2, 3, 1])


class TestInverseMultinomialSum:
    def test_intro_example(self):
        assert inverse_multinomial_sum(INTRO_EXAMPLE) == Fraction(3, 2)

    def test_permutation_family(self):
        assert inverse_multinomial_sum(permutation_family(3)) == 1

    def test_empty_family(self):
        assert inverse_multinomial_sum(fam(2, d=2)) == 0


class TestBlockedInverseSum:
    def test_single_block_reduces_to_plain(self):
        for family in (INTRO_EXAMPLE, chain_family_d3(4), permutation_family(3)):
            assert blocked_inverse_sum(family) == inverse_multinomial_sum(family)

    def test_all_full_pairs_two_blocks(self):
        members = tuple(all_full_partitions((1, 2), 2))
        family = fam(2, *members, blocks=({1}, {2}))
        assert blocked_inverse_sum(family) == 4

    def test_intro_example_with_blocks(self):
        family = fam(2, *INTRO_EXAMPLE.members, blocks=({1}, {2}))
        assert blocked_inverse_sum(family) == 2


class TestTuzaProductSum:
    def test_single_member(self):
        family = fam(1, dp({1}, set()))
        assert tuza_product_sum(family, [Fraction(1, 2), Fraction(1, 2)]) == Fraction(1, 2)

    def test_matchbox_identity_small(self):
        family = matchbox_weak_family([1, 1])
        assert tuza_product_sum(family, [Fraction(1, 3), Fraction(2, 3)]) == 1

    def test_matchbox_identity_asymmetric(self):
        family = matchbox_weak_family([1, 2])
        for p in ([Fraction(1, 2)] * 2, [Fraction(1, 3), Fraction(2, 3)],
                  [Fraction(2, 5), Fraction(3, 5)]):
            assert tuza_product_sum(family, p) == 1

    def test_rejects_bad_weights(self):
        family = fam(1, dp({1}, set()))
        with pytest.raises(ValueError, match="simplex"):
            tuza_product_sum(family, [Fraction(1, 2), Fraction(1, 3)])
        with pytest.raises(ValueError, match="simplex"):
            tuza_product_sum(family, [Fraction(3, 2), Fraction(-1, 2)])

    def test_rejects_wrong_arity(self):
        with pytest.raises(ValueError, match="weights"):
            tuza_product_sum(INTRO_EXAMPLE, [Fraction(1, 2), Fraction(1, 2)])


class TestClassBound:
    def test_skew_single_block(self):
        assert class_bound("skew", 3, [2]) == 6

    def test_strong_two_blocks(self):
        assert class_bound("strong", 2, [3, 5]) == 4

    def test_unsupported_combinations(self):
        with pytest.raises(ValueError):
            class_bound("bollobas-d3", 3, [7])
        with pytest.raises(ValueError):
            class_bound("bollobas-d3", 4, [7])
        with pytest.raises(ValueError):
            class_bound("bollobas-d3", 3, [3, 4])
        with pytest.raises(ValueError):
            class_bound("bollobas", 4, [7])


class TestCheckTheorem:
    def test_permutation_family_tight_at_one(self):
        report = check_theorem(permutation_family(3), "thm-1.10")
        assert report.lhs == report.rhs == 1
        assert report.holds and report.tight

    def test_expanded_chain_tight_for_d3_bound(self):
        family = type_expansion(chain_family_d3(4))
        report = check_theorem(family, "thm-1.8")
        assert report.lhs == report.rhs == 3
        assert report.tight

    def test_wrong_d_always_raises(self):
        with pytest.raises(HypothesisError, match="d=2"):
            check_theorem(INTRO_EXAMPLE, "thm-1.1")

    def test_conjecture_check_reports_violation(self):
        report = check_theorem(INTRO_EXAMPLE, "conj-1")
        assert report.lhs == Fraction(3, 2)
        assert report.rhs == 1
        assert not report.holds

    def test_hypothesis_failure_without_force(self):
        not_weak = fam(2, dp({1}, set()), dp({2}, set()))
        with pytest.raises(HypothesisError, match="weak"):
            check_theorem(not_weak, "thm-1.12")

    def test_force_marks_report(self):
        not_weak = fam(2, dp({1}, set()), dp({2}, set()))
        report = check_theorem(not_weak, "thm-1.12", force=True)
        assert report.hypothesis_failed

    def test_unknown_id(self):
        with pytest.raises(ValueError, match="unknown theorem"):
            check_theorem(INTRO_EXAMPLE, "thm-9.9")

    def test_weights_rejected_outside_tuza(self):
        with pytest.raises(ValueError, match="product weights"):
            check_theorem(permutation_family(3), "thm-1.10", p=[Fraction(1, 3)] * 3)

    def test_blocked_skew_bound(self):
        family = fam(2, *INTRO_EXAMPLE.members, blocks=({1}, {2}))
        report = check_theorem(family, "thm-1.7")
        assert report.lhs == 2
        assert report.rhs == class_bound("skew", 3, [1, 1]) == 9
        assert report.holds

    def test_two_block_strong_bound(self):
        members = permutation_family(3).members
        family = fam(3, *members, blocks=({1, 2}, {3}))
        report = check_theorem(family, "thm-5.1")
        assert report.holds

    def test_search_backed_bound_is_tight_on_expansion(self):
        family = type_expansion(chain_family_d3(3))
        report = check_theorem(family, "thm-4.1")
        assert report.lhs == report.rhs == 2

    def test_search_bound_without_clique_search(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("thm-4.1 ran a clique search")

        monkeypatch.setattr(search, "maximum_clique", refuse)
        assert check_theorem(type_expansion(chain_family_d3(3)), "thm-4.1").rhs == 2
        vertices = search.interval_vertices(4, 6)
        middle = [vertices[i] for i in lattice.middle_rank(search.lattice_points(4, 6), 6)]
        report = check_theorem(Family(GroundSet(6), tuple(middle), 4), "thm-4.1")
        assert report.lhs < report.rhs == len(middle) == 8

    def test_search_bound_refuses_a_chain_count_off_the_middle_rank(self, monkeypatch):
        chains = lattice.chain_partition
        monkeypatch.setattr(lattice, "chain_partition", lambda points, s: chains(points, s) + [[]])

        def refuse(*args, **kwargs):
            raise AssertionError("thm-4.1 sought a witness past a refused certificate")

        monkeypatch.setattr(lattice, "lowest_antichain", refuse)
        with pytest.raises(VerificationError, match="middle rank"):
            check_theorem(type_expansion(chain_family_d3(4)), "thm-4.1")

    def test_search_bound_cap_refusal(self):
        family = fam(40, dp(range(1, 41), (), (), ()))
        with pytest.raises(CapExceeded) as refused:
            check_theorem(family, "thm-4.1")
        with pytest.raises(CapExceeded) as searched:
            search.interval_vertices(4, 40)
        assert str(refused.value) == str(searched.value)

    def test_tuza_check_with_explicit_weights(self):
        family = matchbox_weak_family([1, 2])
        report = check_theorem(family, "thm-1.12", p=[Fraction(1, 4), Fraction(3, 4)])
        assert report.tight


class TestUniformCardinalityCheck:
    def test_complement_triple_is_tight(self):
        family = complement_pair_family(3, 1, 2)
        report = check_theorem(family, "thm-1.5")
        assert report.lhs == 3 == report.rhs
        assert report.tight

    def test_single_member(self):
        report = check_theorem(fam(3, dp({1}, {2})), "thm-1.5")
        assert report.holds

    def test_two_block_product_family_attains_bound(self):
        members = (
            dp({1, 3}, {2, 4}),
            dp({1, 4}, {2, 3}),
            dp({2, 3}, {1, 4}),
            dp({2, 4}, {1, 3}),
        )
        family = fam(4, *members, blocks=({1, 2}, {3, 4}))
        report = check_theorem(family, "thm-1.5")
        assert report.lhs == 4 == report.rhs
        assert report.tight

    def test_non_uniform_rejected(self):
        family = fam(3, dp({1}, {2}), dp({1, 2}, {3}))
        with pytest.raises(HypothesisError, match="profile"):
            check_theorem(family, "thm-1.5")

    def test_wrong_d_rejected(self):
        with pytest.raises(HypothesisError, match="d=2"):
            check_theorem(INTRO_EXAMPLE, "thm-1.5")


def reference_plain(family):
    return sum(
        (Fraction(1, multinomial(sum(m.size_vector), m.size_vector)) for m in family.members),
        Fraction(0),
    )


def reference_blocked(family):
    total = Fraction(0)
    for member in family.members:
        term = Fraction(1)
        for block in family.ground.blocks:
            row = [len(part & block) for part in member.parts]
            term *= Fraction(1, multinomial(sum(row), row))
        total += term
    return total


def reference_product(family, p):
    total = Fraction(0)
    for member in family.members:
        term = Fraction(1)
        for w, size in zip(p, member.size_vector):
            term *= w**size
        total += term
    return total


@st.composite
def sum_cases(draw):
    """A family with d >= 1 and empty parts, over random blocks of [n] (any
    number, any elements), possibly with no members; and a positive p
    summing to 1 with mixed denominators."""
    family = draw(families(max_n=7, max_d=4, max_m=8, min_d=1))
    n, d = family.ground.n, family.d
    ground = family.ground
    if draw(st.booleans()):
        labels = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
        ground = GroundSet(n, tuple(
            frozenset(x for x, k in enumerate(labels, 1) if k == label)
            for label in sorted(set(labels))
        ))
    members = family.members[: draw(st.integers(0, family.m))]
    raw = draw(st.lists(
        st.fractions(min_value=Fraction(1, 12), max_value=5, max_denominator=12),
        min_size=d, max_size=d,
    ))
    return Family(ground, members, d), [w / sum(raw) for w in raw]


@settings(max_examples=300, deadline=None)
@given(sum_cases())
def test_sums_match_per_member_reference(case):
    family, p = case
    assert sum(p) == 1
    for value, expected in (
        (inverse_multinomial_sum(family), reference_plain(family)),
        (blocked_inverse_sum(family), reference_blocked(family)),
        (tuza_product_sum(family, p), reference_product(family, p)),
    ):
        assert type(value) is Fraction
        assert value == expected


@st.composite
def part_lists(draw):
    """Members as lists of d part lists over [n], from a few draws so that
    equal parts recur, with empty parts, possibly an all-empty member and
    possibly none; random blocks of [n]; and a positive p summing to 1."""
    n, d = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    members = set()
    for _ in range(draw(st.integers(0, 8))):
        # part d stands for "not placed"
        labels = draw(st.lists(st.integers(0, d), min_size=n, max_size=n))
        members.add(tuple(tuple(x for x in range(1, n + 1) if labels[x - 1] == r)
                          for r in range(d)))
    if draw(st.booleans()):
        members.add(((),) * d)
    labels = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    blocks = [[x for x in range(1, n + 1) if labels[x - 1] == k] for k in sorted(set(labels))]
    raw = draw(st.lists(st.integers(1, 9), min_size=d, max_size=d))
    return n, d, blocks, sorted(members), [Fraction(w, sum(raw)) for w in raw]


@settings(max_examples=300, deadline=None)
@given(part_lists())
def test_sums_do_not_depend_on_shared_parts(case):
    n, d, blocks, members, p = case
    ground = GroundSet(n, blocks)
    # member by member from fresh lists, equal parts are distinct sets
    unshared = Family(ground, [DPartition([list(x) for x in parts]) for parts in members], d)
    # in bulk, equal parts are one set
    flat = [list(x) for parts in members for x in parts]
    shared = Family(ground, DPartition.many(flat, d), d)
    assert shared == unshared
    parts = [x for member in shared.members for x in member.parts]
    assert len(set(map(id, parts))) == len(set(parts))
    for family in (unshared, shared):
        assert blocked_inverse_sum(family) == reference_blocked(family)
        assert inverse_multinomial_sum(family) == reference_plain(family)
        assert tuza_product_sum(family, p) == reference_product(family, p)



def test_product_sum_when_the_lcm_exceeds_every_denominator():
    # denominators 4, 10, 4, 5: their lcm is 20
    p = [Fraction(1, 4), Fraction(1, 10), Fraction(1, 4), Fraction(2, 5)]
    family = fam(3, *all_full_partitions((1, 2, 3), 4))
    assert tuza_product_sum(family, p) == reference_product(family, p) == 1


SIMPLEX = "p is not in the open simplex (positive entries summing to 1)"


@settings(max_examples=100, deadline=None)
@given(sum_cases(), st.sampled_from(["longer", "shorter", "zero", "negative", "sum"]))
def test_product_sum_rejects_bad_p_with_the_same_messages(case, kind):
    family, p = case
    d = family.d
    bad = list(p)
    if kind == "longer":
        bad.append(Fraction(0))
        message = f"expected {d} weights, got {d + 1}"
    elif kind == "shorter":
        bad.pop()
        message = f"expected {d} weights, got {d - 1}"
    elif kind == "sum":
        bad[0] *= 2
        message = SIMPLEX
    else:  # a zero or negative entry; for d > 1 the last one keeps the total at 1
        new = Fraction(0) if kind == "zero" else Fraction(-1, 3)
        bad[-1] += bad[0] - new
        bad[0] = new
        message = SIMPLEX
    with pytest.raises(ValueError) as info:
        tuza_product_sum(family, bad)
    assert str(info.value) == message
