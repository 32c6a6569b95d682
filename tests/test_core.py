import pytest

from bollosys import (
    DPartition,
    Family,
    GroundSet,
    InvariantError,
    fill_to_full,
    lex_leq,
    parts_increasing,
    set_less,
    size_profile,
    with_blocks,
)


def dp(*parts):
    return DPartition(tuple(frozenset(p) for p in parts))


def fam(n, *members, d=0, blocks=()):
    ground = GroundSet(n, tuple(frozenset(b) for b in blocks))
    return Family(ground, tuple(members), d)


class TestGroundSet:
    def test_default_single_block(self):
        g = GroundSet(4)
        assert g.e == 1
        assert g.blocks == (frozenset({1, 2, 3, 4}),)

    def test_explicit_blocks(self):
        g = GroundSet(5, (frozenset({1, 2, 3}), frozenset({4, 5})))
        assert g.e == 2

    def test_overlapping_blocks_rejected(self):
        with pytest.raises(InvariantError, match="disjoint"):
            GroundSet(3, (frozenset({1, 2}), frozenset({2, 3})))

    def test_incomplete_blocks_rejected(self):
        with pytest.raises(InvariantError, match="union"):
            GroundSet(3, (frozenset({1, 2}),))


class TestDPartition:
    def test_disjointness_enforced(self):
        with pytest.raises(InvariantError, match="disjoint"):
            dp({1, 2}, {2})

    def test_bad_elements_rejected(self):
        with pytest.raises(InvariantError):
            dp({0}, {1})

    def test_support_and_sizes(self):
        p = dp({1, 3}, set(), {2})
        assert p.support == {1, 2, 3}
        assert p.size_vector == (2, 0, 1)
        assert p.d == 3


class TestFamily:
    def test_support_example(self):
        f = fam(2, dp({1}, set(), {2}), dp(set(), {1, 2}, set()))
        assert f.support == {1, 2}
        assert f.support_size == 2

    def test_empty_family_support(self):
        f = fam(3, d=2)
        assert f.support == frozenset()
        assert f.m == 0

    def test_block_supports(self):
        f = fam(5, dp({2}, {5}), blocks=({1, 2, 3}, {4, 5}))
        assert f.support == {2, 5}
        assert f.block_support_sizes == (1, 1)

    def test_duplicates_rejected(self):
        with pytest.raises(InvariantError, match="duplicate"):
            fam(2, dp({1}, {2}), dp({1}, {2}))

    def test_d_mismatch_rejected(self):
        with pytest.raises(InvariantError, match="parts"):
            fam(2, dp({1}, {2}), dp({1}, {2}, set()))

    def test_out_of_range_member_rejected(self):
        with pytest.raises(InvariantError, match="outside"):
            fam(2, dp({3}, set()))

    def test_empty_family_needs_d(self):
        with pytest.raises(InvariantError, match="explicit d"):
            fam(2)


class TestSetLess:
    def test_basic(self):
        assert set_less({1, 2}, {3})
        assert not set_less({1, 3}, {2, 4})

    def test_empty_conventions(self):
        assert set_less(set(), {1})
        assert set_less({1}, set())
        assert set_less(set(), set())

    def test_transitive_on_nonempty(self):
        triples = [({1}, {2}, {3}), ({1, 2}, {3}, {4, 5})]
        for a, b, c in triples:
            assert set_less(a, b) and set_less(b, c)
            assert set_less(a, c)


class TestPartsIncreasing:
    def test_spec_examples(self):
        assert parts_increasing(dp({1}, set(), {2}))
        assert parts_increasing(dp({1, 2}, set(), set()))
        assert not parts_increasing(dp({2}, {1}, set()))

    def test_pairwise_not_just_consecutive(self):
        # empty middle part satisfies both neighbours, but parts 1 and 3 clash
        assert not parts_increasing(dp({2}, set(), {1}))


class TestLexLeq:
    def test_identical(self):
        assert lex_leq((1, 0, 1), (1, 0, 1))

    def test_first_difference(self):
        assert lex_leq((0, 2, 0), (1, 0, 1))
        assert not lex_leq((2, 0), (1, 1))

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            lex_leq((1,), (1, 2))


class TestSizeProfile:
    def test_single_block(self):
        p = size_profile(dp({1}, {2}), GroundSet(2))
        assert p.table == ((1, 1),)

    def test_two_blocks(self):
        g = GroundSet(2, (frozenset({1}), frozenset({2})))
        p = size_profile(dp({1}, {2}), g)
        assert p.table == ((1, 0), (0, 1))

    def test_spec_member(self):
        p = size_profile(dp(set(), {1, 2}, set()), GroundSet(2))
        assert p.table == ((0, 2, 0),)

    def test_full_partition_row_sums_match_blocks(self):
        g = GroundSet(4, (frozenset({1, 2}), frozenset({3, 4})))
        p = size_profile(dp({1, 3}, {2, 4}), g)
        assert p.row_sums() == (2, 2)


class TestFillToFull:
    def test_spec_example_gap(self):
        f = fam(3, dp({1}, set(), {3}), dp(set(), {1, 2, 3}, set()))
        out = fill_to_full(f)
        assert out.members[0] == dp({1, 2}, set(), {3})

    def test_already_full_unchanged(self):
        f = fam(2, dp({1}, {2}), dp({1, 2}, set()))
        assert fill_to_full(f) == f

    def test_placement_rule_walkthrough(self):
        f = fam(3, dp(set(), {2}, set()), dp({1}, set(), {3}))
        out = fill_to_full(f)
        assert out.members[0] == dp({1}, {2, 3}, set())

    def test_rejects_non_increasing_member(self):
        f = fam(2, dp({2}, {1}))
        with pytest.raises(InvariantError, match="increasing"):
            fill_to_full(f)

    def test_collision_signals_non_weak_input(self):
        # disjoint parts with no cross-intersections: both fill to the same member
        f = fam(2, dp({1}, set()), dp({2}, set()))
        with pytest.raises(InvariantError, match="collide"):
            fill_to_full(f)

    def test_preserves_increasing_and_member_count(self):
        f = fam(4, dp({1}, set(), {4}), dp(set(), {2}, {4}), dp({1, 2}, {3}, set()))
        out = fill_to_full(f)
        assert out.m == f.m
        assert all(parts_increasing(member) for member in out.members)
        assert all(member.support == f.support for member in out.members)


def test_with_blocks_regrounds():
    f = fam(3, dp({1}, {2, 3}))
    g = with_blocks(f, [{1, 3}, {2}])
    assert g.ground.e == 2
    assert g.members == f.members


ELEMENT = "part: elements must be integers >= 1, got {}"


class TestValidationMessages:
    """The exact error text, including which element it names."""

    @pytest.mark.parametrize("parts, message", [
        (({True}, set()), ELEMENT.format("True")),
        (({1.0}, set()), ELEMENT.format("1.0")),
        (({0}, {1}), ELEMENT.format("0")),
        (({1}, {-2}), ELEMENT.format("-2")),
        # equal to 1 in the other part: the union alone would keep only 1
        (({1}, {1.0}), ELEMENT.format("1.0")),
        (({1}, {True}), ELEMENT.format("True")),
        (({1, 2}, {2}), "parts must be pairwise disjoint"),
    ])
    def test_dpartition(self, parts, message):
        with pytest.raises(InvariantError) as info:
            dp(*parts)
        assert str(info.value) == message

    def test_family_element_above_n(self):
        with pytest.raises(InvariantError) as info:
            fam(2, dp({1}, {2}), dp({3}, set()))
        assert str(info.value) == "member 1 uses elements outside [n]"

    @pytest.mark.parametrize("n, blocks, message", [
        (2, ({0}, {1, 2}), "block: elements must be integers >= 1, got 0"),
        (2, ({1}, {1.0, 2}), "block: elements must be integers >= 1, got 1.0"),
        (3, ({1, 2}, {2, 3}), "blocks must be pairwise disjoint"),
        (3, ({1, 2},), "blocks must union to {1..n}"),
        (2, ({1}, {3}), "blocks must union to {1..n}"),
    ])
    def test_ground_set(self, n, blocks, message):
        with pytest.raises(InvariantError) as info:
            GroundSet(n, tuple(frozenset(b) for b in blocks))
        assert str(info.value) == message
