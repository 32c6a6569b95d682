import itertools
import re
from fractions import Fraction

import pytest

from bollosys import (
    CapExceeded,
    DPartition,
    Family,
    GroundSet,
    InvariantError,
    VerificationError,
    chain_family_d3,
    classify,
    complement_pair_family,
    counterexample_conj1,
    inverse_multinomial_sum,
    lex_full_family,
    matchbox_weak_family,
    parts_increasing,
    permutation_family,
    tuza_product_sum,
    type_expansion,
    with_blocks,
)
from bollosys import constructions
from bollosys.classify import skew_witness
from bollosys.constructions import (
    DEFAULT_WITNESS_PAIR_CAP,
    all_full_partitions,
    partitions_with_sizes,
)
from bollosys.lattice import middle_rank
from bollosys.search import lattice_points
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
            assert tuple(later) <= tuple(earlier)

    def test_blocked_sum_attains_product_bound(self):
        family = lex_full_family(3, 2)
        for blocks in ([{1}, {2, 3}], [{1, 2}, {3}], [{2}, {1, 3}]):
            regrounded = with_blocks(family, blocks)
            sizes = [len(b) for b in blocks]
            assert blocked_inverse_sum(regrounded) == class_bound("skew", 2, sizes)

    def test_cap(self):
        with pytest.raises(CapExceeded):
            lex_full_family(10, 3, cap=100)

    def test_member_order_matches_sorted_definition(self):
        # reference: every full d-partition, sorted by decreasing size vector
        # and then by the tuple of sorted parts
        for n, d in itertools.product(range(1, 5), range(2, 4)):
            expected = sorted(
                all_full_partitions(range(1, n + 1), d),
                key=lambda m: (
                    tuple(-c for c in m.size_vector),
                    tuple(tuple(sorted(part)) for part in m.parts),
                ),
            )
            assert list(lex_full_family(n, d).members) == expected


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

    @pytest.mark.parametrize("s", range(1, 41))
    def test_is_the_middle_rank(self, s):
        # member l has prefix sums (l-1, s-l+1), of rank s: the chain is the
        # middle rank of L(2, s), in composition order
        points = lattice_points(3, s)
        expected = [(a, b - a, s - b) for a, b in (points[i] for i in middle_rank(points, s))]
        assert [member.size_vector for member in chain_family_d3(s).members] == expected


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

    @pytest.mark.parametrize("a", [(1, 1), (2, 3), (3, 3), (1, 2, 3), (2, 2, 2), (1, 1, 1, 1)])
    def test_member_order_matches_enumerate_and_filter(self, a):
        # reference: every split of [top] with the end state's part sizes, in
        # partitions_with_sizes order, kept when part u holds the top step
        d = len(a)
        expected = []
        for u in range(d):
            others = [range(a[r]) for r in range(d) if r != u]
            for residues in itertools.product(*others):
                profile = (*residues[:u], a[u], *residues[u:])
                top = sum(profile)
                for parts in partitions_with_sizes(tuple(range(1, top + 1)), profile):
                    if top in parts[u]:
                        expected.append(DPartition(parts))
        assert matchbox_weak_family(a).members == tuple(expected)

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
        assert cert.pairs_checked == 3
        assert len(cert.pair_witnesses) == 8 * cert.pairs_checked

    def test_s4_value(self):
        cert = counterexample_conj1(4)
        assert cert.sum_value == 3

    def test_witnesses_name_real_intersections(self):
        cert = counterexample_conj1(3)
        members = cert.family.members
        ints = cert.pair_witnesses
        for k in range(0, len(ints), 8):
            i, j = ints[k : k + 2]
            p, q, x = ints[k + 2 : k + 5]
            assert p < q and x in members[i].parts[p] and x in members[j].parts[q]
            p, q, x = ints[k + 5 : k + 8]
            assert p < q and x in members[j].parts[p] and x in members[i].parts[q]

    @pytest.mark.parametrize("s", [2, 3, 4, 5, 6])
    def test_witnesses_equal_the_scalar_pair_loop(self, s):
        cert = counterexample_conj1(s)
        members = cert.family.members
        ints = cert.pair_witnesses
        pairs = list(itertools.combinations(range(len(members)), 2))
        assert len(ints) == 8 * len(pairs) == 8 * cert.pairs_checked
        for k, (i, j) in enumerate(pairs):
            expected = (i, j, *skew_witness(members[i], members[j]),
                        *skew_witness(members[j], members[i]))
            assert ints[8 * k : 8 * k + 8] == expected
        assert set(map(type, ints)) == {int}

    @pytest.mark.parametrize("blanks, pair", [
        ([(1, 4)], (1, 4)),  # a forward witness
        ([(4, 1)], (1, 4)),  # a backward witness
        ([(2, 3), (5, 1)], (1, 5)),  # a backward miss before a later forward one
        ([(1, 5), (4, 1)], (1, 4)),  # a forward miss after an earlier backward one
    ])
    def test_missing_witness_names_the_least_pair(self, monkeypatch, blanks, pair):
        # the sweep finds a witness for every pair of a bollobas family, so
        # the refusal is reached only through a sweep with entries blanked
        sweep = constructions.skew_witness_rows

        def blanked(members, d):
            rows = sweep(members, d)
            for i, j in blanks:
                rows[i][j] = None
            return rows

        monkeypatch.setattr(constructions, "skew_witness_rows", blanked)
        text = f"pair {pair} lacks a cross-intersection"
        with pytest.raises(VerificationError, match=re.escape(text)):
            counterexample_conj1(3)

    def test_witness_cap_omits_but_still_verifies(self):
        cert = counterexample_conj1(7)
        assert cert.pairs_checked == 77_028 > DEFAULT_WITNESS_PAIR_CAP
        assert cert.pair_witnesses is None
        assert cert.flags.bollobas and cert.refutes

    def test_s1_rejected(self):
        with pytest.raises(InvariantError):
            counterexample_conj1(1)
