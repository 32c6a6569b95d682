import importlib
import itertools
import random

import pytest

from bollosys import (
    DPartition,
    Family,
    GroundSet,
    classify,
    classify_with_witnesses,
    interval_vertices,
    pair_bollobas,
    pair_skew,
    pair_strong,
    pair_symmetric,
    pair_weak,
)
from bollosys.classify import (
    CLASS_NAMES,
    _incidence,
    _interval_meet_tables,
    _meet_table,
    first_violation,
    interval_relation_rows,
    relation_rows,
    skew_witness,
    skew_witness_rows,
)
from bollosys.constructions import (
    complement_pair_family,
    expanded_chain_family,
    lex_full_family,
)
from bollosys.weights import check_theorem

# the package exports the function classify under the module's name
classify_module = importlib.import_module("bollosys.classify")


def dp(*parts):
    return DPartition(tuple(frozenset(p) for p in parts))


# the two-member running example: a bollobas but not strong system on [2]
P1 = dp({1}, set(), {2})
P2 = dp(set(), {1, 2}, set())


class TestPairPredicates:
    def test_skew(self):
        assert pair_skew(P1, P2)
        assert not pair_skew(dp(set(), {1}), dp({1}, set()))
        assert not pair_skew(dp({1}, set()), dp({2}, set()))

    def test_weak(self):
        assert pair_weak(P1, P2)
        assert not pair_weak(dp({1}, set()), dp({2}, set()))
        assert pair_weak(dp(set(), {1}), dp({1}, set()))

    def test_bollobas(self):
        assert pair_bollobas(P1, P2)
        assert pair_bollobas(dp({1}, {2}), dp({2}, {1}))
        assert not pair_bollobas(dp(set(), {1}), dp({1}, set()))

    def test_strong(self):
        assert not pair_strong(P1, P2)
        assert pair_strong(dp({1}, {2}), dp({2}, {1}))
        assert not pair_strong(dp({1}, set()), dp({2}, set()))

    def test_symmetric(self):
        assert pair_symmetric(dp({1}, {2}), dp({2}, {1}))
        assert not pair_symmetric(P1, P2)
        assert not pair_symmetric(dp({1}, set()), dp({1}, set()))

    def test_d_mismatch(self):
        with pytest.raises(ValueError, match="d mismatch"):
            pair_skew(dp({1}, set()), dp({1}, set(), set()))

    def test_symmetry_of_unordered_predicates(self):
        pairs = [(P1, P2), (dp({1}, {2}), dp({2}, {1})), (dp({1, 2}, {3}), dp({3}, {1}))]
        for a, b in pairs:
            assert pair_weak(a, b) == pair_weak(b, a)
            assert pair_bollobas(a, b) == pair_bollobas(b, a)
            assert pair_strong(a, b) == pair_strong(b, a)
            assert pair_symmetric(a, b) == pair_symmetric(b, a)


def all_3partitions_of_3():
    out = []
    for assignment in itertools.product(range(4), repeat=3):
        parts = [set(), set(), set()]
        for x, r in zip((1, 2, 3), assignment):
            if r < 3:
                parts[r].add(x)
        out.append(dp(*parts))
    return out


def test_pair_implications_exhaustive_d3():
    universe = all_3partitions_of_3()
    for a, b in itertools.combinations(universe, 2):
        if pair_symmetric(a, b):
            assert pair_strong(a, b)
        if pair_strong(a, b):
            assert pair_bollobas(a, b)
        if pair_bollobas(a, b):
            assert pair_skew(a, b) and pair_skew(b, a)
        if pair_skew(a, b):
            assert pair_weak(a, b)


class TestClassify:
    def test_running_example(self):
        f = Family(GroundSet(2), (P1, P2), 3)
        flags = classify(f)
        assert flags.as_dict() == {
            "weak": True,
            "skew": True,
            "bollobas": True,
            "strong": False,
            "symmetric": False,
        }

    def test_single_member_vacuous(self):
        f = Family(GroundSet(2), (P1,), 3)
        assert all(classify(f).as_dict().values())

    def test_empty_family_vacuous(self):
        f = Family(GroundSet(2), (), 3)
        assert all(classify(f).as_dict().values())

    def test_skew_depends_on_listed_order(self):
        a, b = dp(set(), {1}), dp({1}, set())
        ordered = Family(GroundSet(1), (b, a), 2)
        reversed_ = Family(GroundSet(1), (a, b), 2)
        assert classify(ordered).skew
        assert not classify(reversed_).skew
        for name in ("weak", "bollobas", "strong", "symmetric"):
            assert getattr(classify(ordered), name) == getattr(classify(reversed_), name)

    def test_witnesses_point_at_first_violation(self):
        f = Family(GroundSet(2), (P1, P2), 3)
        _, violations = classify_with_witnesses(f)
        assert violations["strong"] == (0, 1)
        assert violations["symmetric"] == (0, 1)
        assert "weak" not in violations

    def test_chain_consistency(self):
        f = Family(GroundSet(2), (P1, P2), 3)
        assert classify(f).chain_consistent()


def test_skew_witness_reports_real_intersection():
    w = skew_witness(P1, P2)
    assert w == (0, 1, 1)  # part 0 of P1 meets part 1 of P2 at element 1
    assert skew_witness(dp(set(), {1}), dp({1}, set())) is None


# The README's definitions, read off a meet matrix: meet holds (a, b) when
# part a of the first member meets part b of the second.
def _def_skew(meet, d):
    return any((a, b) in meet for a in range(d) for b in range(a + 1, d))


def _def_strong(meet, d):
    for u1 in range(d):
        for u2 in range(u1 + 1, d):
            for v1 in range(d):
                for v2 in range(v1 + 1, d):
                    if u1 < v2 and v1 < u2 and (u1, v2) in meet and (u2, v1) in meet:
                        return True
    return False


def _def_symmetric(meet, d):
    return any(
        (a, b) in meet and (b, a) in meet for a in range(d) for b in range(a + 1, d)
    )


def _definitions(meet, d):
    back = {(b, a) for a, b in meet}
    skew, skew_back = _def_skew(meet, d), _def_skew(back, d)
    return {
        "weak": skew or skew_back,
        "skew": skew,
        "bollobas": skew and skew_back,
        "strong": _def_strong(meet, d),
        "symmetric": _def_symmetric(meet, d),
    }


def _meet_matrix_pairs(d):
    """Every meet matrix of d x d cells as a pair (p, q) with its cell set:
    one element per meeting cell (a, b), in part a of p and part b of q."""
    cells = list(itertools.product(range(d), repeat=2))
    for chosen in range(1 << len(cells)):
        meet = [cell for bit, cell in enumerate(cells) if chosen >> bit & 1]
        p, q = [set() for _ in range(d)], [set() for _ in range(d)]
        for x, (a, b) in enumerate(meet, 1):
            p[a].add(x)
            q[b].add(x)
        yield dp(*p), dp(*q), frozenset(meet)


PREDICATES = {
    "weak": pair_weak,
    "skew": pair_skew,
    "bollobas": pair_bollobas,
    "strong": pair_strong,
    "symmetric": pair_symmetric,
}


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_predicates_match_definitions_on_every_meet_matrix(d):
    # a predicate reads only which cells meet, so for d <= 4 this covers
    # every pair of d-partitions
    wrong = []
    for p, q, meet in _meet_matrix_pairs(d):
        expected = _definitions(meet, d)
        got = {name: pred(p, q) for name, pred in PREDICATES.items()}
        back = {name: pred(q, p) for name, pred in PREDICATES.items()}
        crossing = [(a, b) for a in range(d) for b in range(a + 1, d) if (a, b) in meet]
        if crossing:
            a, b = crossing[0]
            witness = (a, b, min(p.parts[a] & q.parts[b]))
        else:
            witness = None
        chain = (
            # symmetric => strong => bollobas => skew both ways => weak
            (not got["symmetric"] or got["strong"])
            and (not got["strong"] or got["bollobas"])
            and (not got["bollobas"] or (got["skew"] and back["skew"]))
            and (not got["skew"] or got["weak"])
        )
        unordered = all(
            got[name] == back[name] for name in ("weak", "bollobas", "strong", "symmetric")
        )
        if got != expected or skew_witness(p, q) != witness or not chain or not unordered:
            wrong.append(sorted(meet))
    assert wrong == []


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_relation_rows_match_predicates_on_every_meet_matrix(d):
    # d = 4 checks the strong sweep and the symmetric pairing only: all five
    # classes there would cost several times as much
    names = CLASS_NAMES if d <= 3 else ("strong", "symmetric")
    for p, q, _ in _meet_matrix_pairs(d):
        for name in names:
            pred = PREDICATES[name]
            rows = list(relation_rows((p, q), d, name))
            assert rows == [pred(p, q) << 1, int(pred(q, p))], (name, p, q)
        if d > 3:
            continue
        fwd, bwd = skew_witness(p, q), skew_witness(q, p)
        assert skew_witness_rows((p, q), d) == [[None, fwd], [bwd, None]], (p, q)
        if p != q:  # a family holds distinct members
            family = Family(GroundSet(max(p.support | q.support)), (p, q), d)
            holds = {name: pred(p, q) for name, pred in PREDICATES.items()}
            flags, violations = classify_with_witnesses(family)
            assert flags.as_dict() == holds, (p, q)
            failed = [(name, (0, 1)) for name, ok in holds.items() if not ok]
            assert list(violations.items()) == failed, (p, q)


def test_skew_witness_rows_past_one_byte_lane():
    # member 0 labels 300 lanes through 300 cells (0, 1, x), more labels
    # than one byte holds, so the lanes are two bytes wide
    members = [dp(range(1, 301), ())] + [dp((), {j}) for j in range(1, 301)]
    rows = skew_witness_rows(members, 2)
    assert rows[0] == [None] + [(0, 1, j) for j in range(1, 301)]
    assert rows[1:] == [[None] * 301] * 300


def _meet_tables(members, d):
    """Every member's meet table, in order, off the incidence index."""
    at = _incidence(members, d)
    return [_meet_table(at, member) for member in members]


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_interval_tables_match_the_laid_out_tables(d):
    # every cell with s <= 7, diagonal cells included, and the strong rows,
    # the only ones interval rows read, in composition order and in a
    # shuffled member order
    rng = random.Random(d)
    for s in range(8):
        vertices = interval_vertices(d, s)
        bounds = [(0, *itertools.accumulate(v.size_vector)) for v in vertices]
        assert list(_interval_meet_tables(bounds, d)) == _meet_tables(vertices, d), s
        order = rng.sample(range(len(bounds)), len(bounds))
        assert list(interval_relation_rows(bounds, d)) == list(
            relation_rows(vertices, d, "strong")
        ), s
        assert list(interval_relation_rows([bounds[i] for i in order], d)) == list(
            relation_rows([vertices[i] for i in order], d, "strong")
        ), s


def _count_meet_tables(monkeypatch):
    # a list that gains the member of every meet table built from here on
    built = []
    meet_table = classify_module._meet_table

    def counting(at, member):
        built.append(member)
        return meet_table(at, member)

    monkeypatch.setattr(classify_module, "_meet_table", counting)
    return built


def test_classification_stops_building_meet_tables(monkeypatch):
    # the conj1 family at s = 6 is bollobas but not strong: no meet table is
    # built past the row where strong and symmetric have both failed
    family = expanded_chain_family(6)
    built = _count_meet_tables(monkeypatch)
    flags, violations = classify_with_witnesses(family)
    assert flags.bollobas and not flags.strong
    last = max(violations["strong"][0], violations["symmetric"][0])
    assert len(built) == last + 1 < family.m - 1


@pytest.mark.parametrize("name", CLASS_NAMES)
def test_meet_tables_only_for_strong_and_symmetric(monkeypatch, name):
    # one per member for a strong or symmetric row, none for the one-sided
    # rows or the certificate witnesses
    family = expanded_chain_family(6)
    built = _count_meet_tables(monkeypatch)
    assert len(list(relation_rows(family.members, family.d, name))) == family.m
    expected = family.m if name in ("strong", "symmetric") else 0
    assert len(built) == expected
    built.clear()
    skew_witness_rows(family.members, family.d)
    assert built == []


def test_symmetric_classification_reads_no_strong_row(monkeypatch):
    # the complement-pair family is symmetric, so every weaker class holds
    # wherever symmetric does: only symmetric rows are read, one per member
    # but the last
    family = complement_pair_family(6, 3, 3)
    read = []
    table_row = classify_module._table_row

    def recording(name, meet, d):
        read.append(name)
        return table_row(name, meet, d)

    monkeypatch.setattr(classify_module, "_table_row", recording)
    flags, violations = classify_with_witnesses(family)
    assert all(flags.as_dict().values()) and violations == {}
    assert read == ["symmetric"] * (family.m - 1)


def test_one_sided_verdicts_build_no_meet_table(monkeypatch):
    # a skew hypothesis and a skew construction read only skew rows
    family = lex_full_family(3, 3)
    built = _count_meet_tables(monkeypatch)
    assert check_theorem(family, "thm-1.7").holds
    assert built == []
    lex_full_family(3, 3)
    assert built == []


def test_first_violation_reads_rows_lazily():
    # the rows of three members: row 0 misses 2, row 1 is never read, nor
    # the last row, which has no later member to miss
    read = []

    def rows():
        for row in (0b010, 0b100, 0):
            read.append(row)
            yield row

    assert first_violation(rows(), 3) == (0, 2)
    assert read == [0b010]
    assert first_violation(iter([0b110, 0b100, 0]), 3) is None
    assert first_violation(iter([]), 0) is None

