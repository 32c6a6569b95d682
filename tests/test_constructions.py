from fractions import Fraction

import pytest

from bollosys import (
    CapExceeded,
    DPartition,
    Family,
    GroundSet,
    InvariantError,
    chain_family_d3,
    classify,
    complement_pair_family,
    counterexample_conj1,
    inverse_multinomial_sum,
    lex_full_family,
    lex_leq,
    matchbox_weak_family,
    parts_increasing,
    permutation_family,
    tuza_product_sum,
    type_expansion,
    with_blocks,
)
from bollosys.constructions import DEFAULT_WITNESS_PAIR_CAP
from bollosys.weights import blocked_inverse_sum, class_bound


def dp(*parts):
    return DPartition(tuple(frozenset(p) for p in parts))


class TestLexFullFamily:
    def test_smallest(self):
        family = lex_full_family(1, 2)
        assert family.members == (dp({1}, set()), dp(set(), {1}))
        assert classify(family).skew
        assert inverse_multinomial_sum(family) == 2

    def test_counts_and_sum(self):
        family = lex_full_family(2, 2)
        assert family.m == 4
        assert inverse_multinomial_sum(family) == 3

    def test_d3_sum_is_bound(self):
        family = lex_full_family(2, 3)
        assert family.m == 9
        assert inverse_multinomial_sum(family) == 6 == class_bound("skew", 3, [2])

    def test_size_vectors_weakly_lex_decreasing(self):
        family = lex_full_family(3, 3)
        vectors = [m.size_vector for m in family.members]
        for earlier, later in zip(vectors, vectors[1:]):
            assert lex_leq(later, earlier)

    def test_blocked_sum_attains_product_bound(self):
        family = lex_full_family(3, 2)
        for blocks in ([{1}, {2, 3}], [{1, 2}, {3}], [{2}, {1, 3}]):
            regrounded = with_blocks(family, blocks)
            sizes = [len(b) for b in blocks]
            assert blocked_inverse_sum(regrounded) == class_bound("skew", 2, sizes)

    def test_cap(self):
        with pytest.raises(CapExceeded):
            lex_full_family(10, 3, cap=100)


class TestChainFamily:
    def test_s2(self):
        family = chain_family_d3(2)
        assert family.members == (dp(set(), {1, 2}, set()), dp({1}, set(), {2}))

    def test_s4_middle_member(self):
        family = chain_family_d3(4)
        assert family.m == 3
        assert dp({1}, {2, 3}, {4}) in family.members

    def test_s1_single_member(self):
        family = chain_family_d3(1)
        assert family.members == (dp(set(), {1}, set()),)

    def test_classifies_bollobas_with_increasing_parts(self):
        for s in (2, 3, 5, 8):
            family = chain_family_d3(s)
            assert classify(family).bollobas
            assert all(parts_increasing(m) for m in family.members)


class TestTypeExpansion:
    def test_minimal_counterexample(self):
        family = type_expansion(chain_family_d3(2))
        assert family.members == (
            dp(set(), {1, 2}, set()),
            dp({1}, set(), {2}),
            dp({2}, set(), {1}),
        )
        assert inverse_multinomial_sum(family) == 2
        assert classify(family).bollobas

    def test_single_full_member(self):
        base = Family(GroundSet(2), (dp({1}, {2}),), 2)
        out = type_expansion(base)
        assert out.m == 2
        assert inverse_multinomial_sum(out) == 1

    def test_sum_counts_types(self):
        family = type_expansion(chain_family_d3(4))
        assert inverse_multinomial_sum(family) == 3
        assert classify(family).bollobas

    def test_rejects_non_full_members(self):
        base = Family(GroundSet(3), (dp({1}, {2}), dp({2, 3}, {1})), 2)
        with pytest.raises(InvariantError, match="full"):
            type_expansion(base)

    def test_rejects_duplicate_types(self):
        base = Family(GroundSet(2), (dp({1}, {2}), dp({2}, {1})), 2)
        with pytest.raises(InvariantError, match="distinct size vectors"):
            type_expansion(base)


class TestPermutationFamily:
    def test_n2(self):
        family = permutation_family(2)
        assert family.members == (dp({1}, {2}), dp({2}, {1}))
        assert classify(family).strong
        assert inverse_multinomial_sum(family) == 1

    def test_n3(self):
        family = permutation_family(3)
        assert family.m == 6
        assert classify(family).strong
        assert inverse_multinomial_sum(family) == 1

    def test_n1_vacuous(self):
        family = permutation_family(1)
        assert family.members == (dp({1}),)
        assert all(classify(family).as_dict().values())

    def test_cap(self):
        with pytest.raises(CapExceeded):
            permutation_family(8, cap=1000)


class TestComplementPairFamily:
    def test_n3_k1(self):
        family = complement_pair_family(3, 1, 2)
        assert family.m == 3
        assert classify(family).symmetric
        assert inverse_multinomial_sum(family) == 1

    def test_d3_padding(self):
        family = complement_pair_family(2, 1, 3)
        assert family.members == (dp({1}, {2}, set()), dp({2}, {1}, set()))
        assert classify(family).symmetric

    def test_k0_single_member(self):
        family = complement_pair_family(1, 0, 2)
        assert family.members == (dp(set(), {1}),)

    def test_bad_parameters(self):
        with pytest.raises(InvariantError):
            complement_pair_family(3, 4, 2)


class TestMatchboxFamily:
    def test_smallest(self):
        family = matchbox_weak_family([1, 1])
        assert family.members == (dp({1}, set()), dp(set(), {1}))

    def test_a12_members(self):
        family = matchbox_weak_family([1, 2])
        assert family.members == (dp({1}, set()), dp({2}, {1}), dp(set(), {1, 2}))
        assert classify(family).weak

    def test_size_caps_respected(self):
        for a in ([1, 2], [2, 2], [1, 1, 1], [1, 2, 3]):
            family = matchbox_weak_family(a)
            assert classify(family).weak
            for member in family.members:
                assert all(s <= cap for s, cap in zip(member.size_vector, a))

    def test_weight_identity_at_three_points(self):
        family = matchbox_weak_family([2, 2])
        samples = (
            [Fraction(1, 2), Fraction(1, 2)],
            [Fraction(1, 3), Fraction(2, 3)],
            [Fraction(2, 5), Fraction(3, 5)],
        )
        for p in samples:
            assert tuza_product_sum(family, p) == 1

    def test_weight_identity_d3(self):
        family = matchbox_weak_family([1, 2, 3])
        samples = (
            [Fraction(1, 3)] * 3,
            [Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)],
            [Fraction(1, 6), Fraction(1, 3), Fraction(1, 2)],
        )
        for p in samples:
            assert tuza_product_sum(family, p) == 1

    def test_bad_pockets(self):
        with pytest.raises(InvariantError):
            matchbox_weak_family([3])
        with pytest.raises(InvariantError):
            matchbox_weak_family([1, 0])


class TestCounterexampleCertificate:
    def test_minimal(self):
        cert = counterexample_conj1(2)
        assert cert.family.m == 3
        assert cert.sum_value == 2 > cert.conjectured_bound
        assert cert.refutes
        assert cert.flags.bollobas
        assert cert.pair_witnesses is not None
        assert len(cert.pair_witnesses) == cert.pairs_checked == 3

    def test_s4_value(self):
        cert = counterexample_conj1(4)
        assert cert.sum_value == 3

    def test_witnesses_name_real_intersections(self):
        cert = counterexample_conj1(3)
        members = cert.family.members
        for w in cert.pair_witnesses:
            p, q, x = w.forward
            assert p < q and x in members[w.i].parts[p] and x in members[w.j].parts[q]
            p, q, x = w.backward
            assert p < q and x in members[w.j].parts[p] and x in members[w.i].parts[q]

    def test_witness_cap_omits_but_still_verifies(self):
        cert = counterexample_conj1(7)
        assert cert.pairs_checked == 77_028 > DEFAULT_WITNESS_PAIR_CAP
        assert cert.pair_witnesses is None
        assert cert.flags.bollobas and cert.refutes

    def test_s1_rejected(self):
        with pytest.raises(InvariantError):
            counterexample_conj1(1)
