from fractions import Fraction
from itertools import chain

import pytest
from hypothesis import given, settings, strategies as st

from bollosys import (
    DPartition,
    Family,
    GroundSet,
    InvariantError,
    fill_to_full,
    parts_increasing,
    set_less,
    with_blocks,
)
from bollosys.weights import blocked_inverse_sum, inverse_multinomial_sum, tuza_product_sum


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
TWICE = "a part must not list an element twice"


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


def fault(build):
    """The exception ``build()`` raises, as its type and text; None if none."""
    try:
        build()
    except Exception as exc:  # the type and text are what is compared
        return type(exc), str(exc)
    return None


def walk(members, n, d):
    """The per-member Family check, as a reference: the first member with the
    wrong part count or an element above n, in order, then duplicates."""
    for idx, member in enumerate(members):
        if member.d != d:
            raise InvariantError(f"member {idx} has {member.d} parts, expected d={d}")
        if member.support and max(member.support) > n:
            raise InvariantError(f"member {idx} uses elements outside [n]")
    if len(set(members)) != len(members):
        raise InvariantError("duplicate members are not allowed")


def one_at_a_time(groups):
    """The members made one at a time, as a reference: a part that lists an
    element twice is refused, then the constructor checks the member."""
    members = []
    for group in groups:
        if any(len(set(part)) != len(part) for part in group):
            raise InvariantError(TWICE)
        members.append(DPartition(group))
    return members


def flat(*members):
    return tuple(frozenset(part) for part in chain.from_iterable(members))


# elements that are not plain ints >= 1, several equal to 1 or to each other
BAD_ELEMENTS = [True, False, 1.0, 2.0, 0, -1, "1", None, 2.5, -(10**20)]


@st.composite
def flat_families(draw):
    """(n, d, parts): the parts of m members of d parts each over [n], one
    after another, with up to three faults put in."""
    n = draw(st.integers(1, 6))
    d = draw(st.integers(1, 4))
    members = [
        [set() for _ in range(d)] for _ in range(draw(st.integers(0, 6)))
    ]
    for member in members:
        for x in range(1, n + 1):
            r = draw(st.integers(0, d))
            if r < d:
                member[r].add(x)
    for _ in range(draw(st.integers(0, 3)) if members else 0):
        member = draw(st.sampled_from(members))
        part = draw(st.sampled_from(member))
        kind = draw(st.sampled_from(["element", "above n", "shared", "repeat"]))
        if kind == "element":
            part.add(draw(st.sampled_from(BAD_ELEMENTS)))
        elif kind == "above n":
            part.add(draw(st.integers(n + 1, n + 3)))
        elif kind == "shared":
            part.add(draw(st.integers(1, n)))  # may meet another part
        else:
            members.append([set(p) for p in member])
    return n, d, flat(*members)


class TestBulkPath:
    """``DPartition.many`` and the whole-family checks in ``Family`` against
    the per-member constructor and the per-member walk."""

    @settings(max_examples=400, deadline=None)
    @given(flat_families(), st.data())
    def test_many_matches_the_per_member_constructor(self, case, data):
        n, d, parts = case
        if data.draw(st.booleans()):  # the loader's input: lists, in any order
            parts = [data.draw(st.permutations(sorted(p, key=repr))) for p in parts]
            if any(parts) and data.draw(st.booleans()):  # an element listed again
                part = data.draw(st.sampled_from([p for p in parts if p]))
                part.append(data.draw(st.sampled_from([part[0], True, 1.0])))
        groups = list(zip(*[iter(parts)] * d))
        assert fault(lambda: DPartition.many(parts, d)) == fault(
            lambda: one_at_a_time(groups))
        if fault(lambda: one_at_a_time(groups)):
            return
        members, reference = DPartition.many(parts, d), tuple(map(DPartition, groups))
        assert members == reference
        assert [m.parts for m in members] == [m.parts for m in reference]
        assert [m.support for m in members] == [m.support for m in reference]
        assert all(type(m) is DPartition for m in members)
        # equal parts are one object, and so are equal supports
        shared = [p for m in members for p in m.parts]
        assert len(set(map(id, shared))) == len(set(shared))
        supports = [m.support for m in members]
        assert len(set(map(id, supports))) == len(set(supports))
        halves = (frozenset(range(1, n // 2 + 1)), frozenset(range(n // 2 + 1, n + 1)))
        ground = GroundSet(n, halves if n > 1 else ())
        assert fault(lambda: Family(ground, members, d)) == fault(
            lambda: walk(reference, n, d))
        if members and not fault(lambda: walk(reference, n, d)):
            family, old = Family(ground, members, d), Family(ground, reference, d)
            p = [Fraction(k, d * (d + 1) // 2) for k in range(1, d + 1)]
            assert inverse_multinomial_sum(family) == inverse_multinomial_sum(old)
            assert blocked_inverse_sum(family) == blocked_inverse_sum(old)
            assert tuza_product_sum(family, p) == tuza_product_sum(old, p)

    def test_equal_parts_and_supports_are_shared(self):
        members = DPartition.many([[1, 2], [3], [2, 1], [3], [3], [2, 1], [1], [2]], 2)
        a, b, c, e = members
        assert a.parts[0] is b.parts[0] is c.parts[1] and a.parts[1] is b.parts[1] is c.parts[0]
        assert a.support is b.support is c.support and e.support is not a.support
        assert a.parts[0] == frozenset({1, 2}) and a.support == frozenset({1, 2, 3})
        given = frozenset({5})
        (member,) = DPartition.many((given, frozenset()), 2)
        assert member.parts[0] is given  # a frozenset is shared as it is

    @pytest.mark.parametrize("members, message", [
        # True in one member, an equal 1 in another: a union of all would keep 1
        ((({True}, {2}), ({1}, {2})), ELEMENT.format("True")),
        ((({1}, {2}), ({True}, {3})), ELEMENT.format("True")),
        # 1.0 and 1 in two parts of one member
        ((({2}, set()), ({1}, {1.0})), ELEMENT.format("1.0")),
        ((({1}, {2}), ({2}, {2})), "parts must be pairwise disjoint"),
        ((({1}, {2}), ({0}, set())), ELEMENT.format("0")),
    ])
    def test_many_faults_are_worded_by_the_constructor(self, members, message):
        assert fault(lambda: DPartition.many(flat(*members), 2)) == (InvariantError, message)
        as_lists = [list(part) for part in flat(*members)]
        assert fault(lambda: DPartition.many(as_lists, 2)) == (InvariantError, message)

    @pytest.mark.parametrize("parts, message", [
        # a list may repeat an element, which a set would merge
        (([1], [2], [2, 2], []), TWICE),
        (([1], [2], [1, True], []), TWICE),
        (([1], [2], [2], [1.0, 1]), TWICE),
        # the first member at fault is named, whatever its fault
        (([True], [2], [2, 2], []), ELEMENT.format("True")),
        (([1, 1], [2], [True], []), TWICE),
        (([1], [1], [2, 2], []), "parts must be pairwise disjoint"),
    ])
    def test_many_refuses_an_element_listed_twice(self, parts, message):
        assert fault(lambda: DPartition.many(parts, 2)) == (InvariantError, message)

    @pytest.mark.parametrize("members, message", [
        # an element above n only in the last member
        ((({1}, {2}), ({2}, {1}), ({3}, set())), "member 2 uses elements outside [n]"),
        # a repeat of member 0 at the end
        ((({1}, {2}), ({2}, {1}), ({1}, {2})), "duplicate members are not allowed"),
    ])
    def test_loaded_family_faults(self, members, message):
        loaded = DPartition.many(flat(*members), 2)
        assert fault(lambda: Family(GroundSet(2), loaded, 2)) == (InvariantError, message)

    @pytest.mark.parametrize("members, message", [
        # a d mismatch at member 3 and an element above n at member 1
        ((((1,), (2,)), ((1,), (5,)), ((2,), (1,)), ((1,), (), ()), ((3,), (4,))),
         "member 1 uses elements outside [n]"),
        # the same faults the other way round
        ((((1,), (2,)), ((1,), (2,), ()), ((2,), (1,)), ((1,), (5,))),
         "member 1 has 3 parts, expected d=2"),
        # a duplicate and an element out of range
        ((((1,), (2,)), ((2,), (1,)), ((1,), (2,)), ((6,), ())),
         "member 3 uses elements outside [n]"),
        ((((7,), ()), ((1,), (2,)), ((1,), (2,))), "member 0 uses elements outside [n]"),
    ])
    def test_family_names_the_member_the_walk_names(self, members, message):
        members = tuple(dp(*parts) for parts in members)
        assert fault(lambda: walk(members, 4, 2)) == (InvariantError, message)
        assert fault(lambda: Family(GroundSet(4), members, 2)) == (InvariantError, message)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_family_matches_the_walk(self, data):
        n = data.draw(st.integers(0, 4))
        d = data.draw(st.integers(1, 3))
        part_lists = st.lists(st.sets(st.integers(1, n + 1), max_size=2),
                              min_size=max(1, d - 1), max_size=d + 1)
        members = [
            dp(*parts) for parts in data.draw(st.lists(part_lists, max_size=6))
            if not fault(lambda: dp(*parts))  # overlapping parts make no member
        ]
        if members and data.draw(st.booleans()):
            members.append(data.draw(st.sampled_from(members)))
        members = tuple(members)
        assert fault(lambda: Family(GroundSet(n), members, d)) == fault(
            lambda: walk(members, n, d))
