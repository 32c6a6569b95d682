import itertools
import random
from math import comb

import pytest

from bollosys import (
    CapExceeded,
    VerificationError,
    classify,
    compositions,
    interval_vertices,
    n_bollobas,
    n_skew,
    n_strong,
    n_table,
    n_weak,
    pair_bollobas,
    parts_increasing,
    search_class,
)
from bollosys.search import _general_vertices, maximum_clique


class TestIntervalVertices:
    def test_d2_s2(self):
        verts = interval_vertices(2, 2)
        assert [v.size_vector for v in verts] == [(0, 2), (1, 1), (2, 0)]
        assert verts[1].parts == (frozenset({1}), frozenset({2}))

    def test_counts(self):
        assert len(interval_vertices(3, 1)) == 3
        assert len(interval_vertices(3, 4)) == 15

    def test_partitions_are_full_and_increasing(self):
        for p in interval_vertices(3, 5):
            assert p.support == frozenset(range(1, 6))
            assert parts_increasing(p)

    def test_cap(self):
        with pytest.raises(CapExceeded):
            interval_vertices(4, 12, cap=100)

    def test_lex_order(self):
        comps = list(compositions(2, 3))
        assert comps == sorted(comps)

    @pytest.mark.parametrize("d", range(1, 6))
    def test_listed_in_composition_order_and_reversed_by_skew(self, d):
        for s in range(7):
            sizes = [p.size_vector for p in interval_vertices(d, s)]
            assert sizes == list(compositions(s, d))
            witness = n_skew(d, s).witness
            assert [p.size_vector for p in witness.members] == sizes[::-1]


class TestMaximumClique:
    def test_triangle_plus_pendant(self):
        # vertices 0-1-2 triangle, 3 attached to 2 only
        adj = [0b0110, 0b0101, 0b1011, 0b0100]
        assert maximum_clique(adj, 4) == [0, 1, 2]

    def test_lex_least_among_ties(self):
        # two disjoint edges: (0,3) and (1,2); lex-least maximum is [0, 3]
        adj = [0b1000, 0b0100, 0b0010, 0b0001]
        assert maximum_clique(adj, 4) == [0, 3]

    def test_empty_graph(self):
        assert maximum_clique([0, 0, 0], 3) == [0]
        assert maximum_clique([], 0) == []

    def test_support_constraint_changes_answer(self):
        # edge (0,1) is the biggest clique but misses the support bit;
        # vertex 2 alone covers it
        adj = [0b010, 0b001, 0b000]
        supports = [0b01, 0b01, 0b11]
        assert maximum_clique(adj, 3, supports, 0b11) == [2]
        # edge (2,3) misses the support bit; of the feasible ties [0] and
        # [1], the lex-least wins
        assert maximum_clique([0, 0, 0b1000, 0b0100], 4, [1, 1, 0, 0], 1) == [0]

    def test_against_brute_force_on_random_graphs(self):
        # independent oracle: enumerate every subset
        rng = random.Random(77)
        for _ in range(40):
            n = rng.randint(1, 11)
            adj = [0] * n
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.random() < rng.choice((0.3, 0.6, 0.8)):
                        adj[i] |= 1 << j
                        adj[j] |= 1 << i
            best = None
            for size in range(n, 0, -1):
                for combo in itertools.combinations(range(n), size):
                    if all(adj[a] >> b & 1 for a, b in itertools.combinations(combo, 2)):
                        best = list(combo)
                        break
                if best is not None:
                    break
            assert maximum_clique(adj, n) == best

    def test_support_constrained_against_brute_force(self):
        rng = random.Random(78)
        for _ in range(30):
            n = rng.randint(2, 9)
            bits = rng.randint(1, 4)
            adj = [0] * n
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.random() < 0.6:
                        adj[i] |= 1 << j
                        adj[j] |= 1 << i
            supports = [rng.randrange(1 << bits) for _ in range(n)]
            required = (1 << bits) - 1
            best = None
            for size in range(n, 0, -1):
                for combo in itertools.combinations(range(n), size):
                    covered = 0
                    for v in combo:
                        covered |= supports[v]
                    if covered & required != required:
                        continue
                    if all(adj[a] >> b & 1 for a, b in itertools.combinations(combo, 2)):
                        best = list(combo)
                        break
                if best is not None:
                    break
            if best is None:
                with pytest.raises(VerificationError):
                    maximum_clique(adj, n, supports, required)
            else:
                assert maximum_clique(adj, n, supports, required) == best


class TestNBollobas:
    def test_d2_always_one(self):
        for s in range(1, 11):
            assert n_bollobas(2, s).value == 1

    def test_d3_closed_form(self):
        for s in range(1, 11):
            assert n_bollobas(3, s).value == s // 2 + 1

    def test_d3_s6_witness_verified(self):
        outcome = n_bollobas(3, 6)
        assert outcome.value == 4
        assert outcome.witness.m == 4
        assert classify(outcome.witness).bollobas

    def test_s0(self):
        assert n_bollobas(3, 0).value == 1

    def test_general_mode_agrees(self):
        for d in (2, 3):
            for s in range(1, 5):
                assert (
                    n_bollobas(d, s, mode="general").value
                    == n_bollobas(d, s, mode="full-only").value
                )

    def test_d4_exceeds_d3_somewhere(self):
        # the open-problem row: strictly better than the d=3 value at s=4
        assert n_bollobas(4, 4).value > n_bollobas(3, 4).value

    def test_cap(self):
        with pytest.raises(CapExceeded):
            n_bollobas(5, 10, cap=50)


def _brute_force_witness(d, s, mode):
    # independent of the search and its bitset rows: scalar predicate,
    # every combination of each size, the largest clique size found first,
    # then the first combination covering [s] from that size down
    if mode == "full-only":
        vertices = interval_vertices(d, s)
    else:
        vertices = _general_vertices(d, s, cap=100_000)
    n = len(vertices)
    related = [[pair_bollobas(a, b) for b in vertices] for a in vertices]
    ground = frozenset(range(1, s + 1))

    def cliques(size):
        for combo in itertools.combinations(range(n), size):
            if all(related[a][b] for a, b in itertools.combinations(combo, 2)):
                yield combo

    top = 1
    while next(cliques(top + 1), None) is not None:
        top += 1
    for size in range(top, 0, -1):
        for combo in cliques(size):
            if frozenset().union(*(vertices[i].support for i in combo)) == ground:
                return [vertices[i] for i in combo]
    return None


# witness compositions of benchmark cells, pinned so a faster search cannot
# silently pick a different maximum clique
PINNED_COMPOSITIONS = {
    (4, 10): [
        (0, 4, 6, 0), (0, 5, 4, 1), (0, 6, 2, 2), (0, 7, 0, 3), (1, 2, 7, 0), (1, 3, 5, 1),
        (1, 4, 3, 2), (1, 5, 1, 3), (2, 0, 8, 0), (2, 1, 6, 1), (2, 2, 4, 2), (2, 3, 2, 3),
        (2, 4, 0, 4), (3, 0, 5, 2), (3, 1, 3, 3), (3, 2, 1, 4), (4, 0, 2, 4), (4, 1, 0, 5),
    ],
    (5, 6): [
        (0, 0, 6, 0, 0), (0, 1, 4, 1, 0), (0, 2, 2, 2, 0), (0, 2, 3, 0, 1), (0, 3, 0, 3, 0),
        (0, 3, 1, 1, 1), (0, 4, 0, 0, 2), (1, 0, 3, 2, 0), (1, 0, 4, 0, 1), (1, 1, 1, 3, 0),
        (1, 1, 2, 1, 1), (1, 2, 0, 2, 1), (1, 2, 1, 0, 2), (2, 0, 0, 4, 0), (2, 0, 1, 2, 1),
        (2, 0, 2, 0, 2), (2, 1, 0, 1, 2), (3, 0, 0, 0, 3),
    ],
    (6, 5): [
        (0, 0, 2, 3, 0, 0), (0, 0, 3, 1, 1, 0), (0, 0, 4, 0, 0, 1), (0, 1, 0, 4, 0, 0),
        (0, 1, 1, 2, 1, 0), (0, 1, 2, 0, 2, 0), (0, 1, 2, 1, 0, 1), (0, 2, 0, 1, 2, 0),
        (0, 2, 0, 2, 0, 1), (0, 2, 1, 0, 1, 1), (0, 3, 0, 0, 0, 2), (1, 0, 0, 3, 1, 0),
        (1, 0, 1, 1, 2, 0), (1, 0, 1, 2, 0, 1), (1, 0, 2, 0, 1, 1), (1, 1, 0, 0, 3, 0),
        (1, 1, 0, 1, 1, 1), (1, 1, 1, 0, 0, 2), (2, 0, 0, 0, 2, 1), (2, 0, 0, 1, 0, 2),
    ],
}


class TestLexLeastWitness:
    @pytest.mark.parametrize(
        "d,s,mode",
        [
            (3, 4, "full-only"),
            (3, 6, "full-only"),
            (4, 3, "full-only"),
            (6, 2, "full-only"),
            (3, 3, "general"),
            (4, 3, "general"),
        ],
    )
    def test_matches_brute_force(self, d, s, mode):
        members = list(n_bollobas(d, s, mode=mode).witness.members)
        assert members == _brute_force_witness(d, s, mode)

    @pytest.mark.parametrize("d,s", sorted(PINNED_COMPOSITIONS))
    def test_pinned_full_only(self, d, s):
        witness = n_bollobas(d, s).witness
        comps = [tuple(len(part) for part in member.parts) for member in witness.members]
        assert comps == PINNED_COMPOSITIONS[(d, s)]

    def test_pinned_general_d3_s5(self):
        witness = n_bollobas(3, 5, mode="general").witness
        parts = [tuple(tuple(sorted(part)) for part in member.parts) for member in witness.members]
        assert parts == [((), (1, 4), ()), ((1,), (2, 3), (4,)), ((1, 2), (), (3, 4, 5))]


class TestNSkewWeak:
    def test_values(self):
        assert n_skew(2, 2).value == 3
        assert n_skew(3, 2).value == 6
        assert n_skew(2, 0).value == 1

    def test_witness_lex_decreasing_and_skew(self):
        outcome = n_skew(3, 3)
        comps = [tuple(len(p) for p in member.parts) for member in outcome.witness.members]
        assert comps == sorted(comps, reverse=True)
        assert classify(outcome.witness).skew

    def test_weak_matches_skew(self):
        for d in (2, 3, 4):
            for s in range(0, 5):
                assert n_weak(d, s).value == n_skew(d, s).value == comb(s + d - 1, d - 1)


class TestNStrong:
    def test_always_one(self):
        assert n_strong(3, 3).value == 1
        assert n_strong(2, 1).value == 1
        assert n_strong(5, 6).value == 1

    def test_witness_is_single_increasing_member(self):
        outcome = n_strong(4, 4)
        assert outcome.witness.m == 1
        assert parts_increasing(outcome.witness.members[0])


class TestTable:
    def test_d3_row(self):
        cells = n_table([3], list(range(1, 11)))
        assert [c.value for c in cells] == [1, 2, 2, 3, 3, 4, 4, 5, 5, 6]

    def test_d2_row(self):
        cells = n_table([2], list(range(1, 11)))
        assert all(c.value == 1 for c in cells)

    def test_open_rows_within_bounds(self):
        cells = n_table([4, 5], list(range(1, 7)))
        for c in cells:
            assert not c.skipped
            assert c.s // 2 + 1 <= c.value <= comb(c.s + c.d - 1, c.d - 1)
            assert classify(c.witness).bollobas
            assert c.witness.m == c.value

    def test_monotone_in_d_and_s(self):
        values = {(c.d, c.s): c.value for c in n_table([2, 3, 4], list(range(1, 6)))}
        for (d, s), v in values.items():
            if (d + 1, s) in values:
                assert values[(d + 1, s)] >= v
            if (d, s + 1) in values:
                assert values[(d, s + 1)] >= v

    def test_cap_marks_skipped(self):
        cells = n_table([5], [1, 12], cap=60)
        assert not cells[0].skipped
        assert cells[1].skipped and cells[1].value is None
        assert "cap" in cells[1].reason


def _skew_orderable(indices, skew_fwd) -> bool:
    # a listed order making every earlier/later pair skew exists iff the
    # forced-precedence digraph (from pairs skew in only one direction) is
    # acyclic; pairs skew in neither direction rule the set out entirely
    must_precede = {i: set() for i in indices}
    for pos, i in enumerate(indices):
        for j in indices[pos + 1 :]:
            fwd, bwd = skew_fwd[i][j], skew_fwd[j][i]
            if not fwd and not bwd:
                return False
            if fwd and not bwd:
                must_precede[i].add(j)  # i before j
            elif bwd and not fwd:
                must_precede[j].add(i)
    seen, done = set(), set()

    def cyclic(v):
        seen.add(v)
        for w in must_precede[v]:
            if w in done:
                continue
            if w in seen or cyclic(w):
                return True
        seen.discard(v)
        done.add(v)
        return False

    return not any(cyclic(v) for v in indices if v not in done)


class TestExhaustiveCrossValidation:
    """Definitive oracle on tiny instances: enumerate every family of
    increasing-parts partitions with support exactly [s], with no fullness
    reduction, and take true maxima per class."""

    @pytest.mark.parametrize("d,s", [(2, 2), (3, 2), (2, 3)])
    def test_all_four_values(self, d, s):
        from bollosys import pair_bollobas, pair_skew, pair_strong, pair_weak
        from bollosys.search import _general_vertices

        vertices = _general_vertices(d, s, cap=100_000)
        n = len(vertices)
        full_support = (1 << s) - 1
        sup = []
        for v in vertices:
            mask = 0
            for pm in v.masks:
                mask |= pm
            sup.append(mask)
        skew_fwd = [[pair_skew(a, b) for b in vertices] for a in vertices]
        weak_ok = [[pair_weak(a, b) for b in vertices] for a in vertices]
        boll_ok = [[pair_bollobas(a, b) for b in vertices] for a in vertices]
        strong_ok = [[pair_strong(a, b) for b in vertices] for a in vertices]
        best = {"weak": 0, "skew": 0, "bollobas": 0, "strong": 0}
        for mask in range(1, 1 << n):
            covered = 0
            indices = []
            m = mask
            while m:
                low = m & -m
                m ^= low
                i = low.bit_length() - 1
                covered |= sup[i]
                indices.append(i)
            if covered != full_support:
                continue
            size = len(indices)
            weak = boll = strong = True
            for pos, a in enumerate(indices):
                for b in indices[pos + 1 :]:
                    weak = weak and weak_ok[a][b]
                    boll = boll and boll_ok[a][b]
                    strong = strong and strong_ok[a][b]
                if not weak:
                    break
            if not weak:
                continue
            best["weak"] = max(best["weak"], size)
            if boll:
                best["bollobas"] = max(best["bollobas"], size)
            if strong:
                best["strong"] = max(best["strong"], size)
            if size > best["skew"] and _skew_orderable(indices, skew_fwd):
                best["skew"] = size
        assert best["skew"] == n_skew(d, s).value
        assert best["weak"] == n_weak(d, s).value
        assert best["strong"] == n_strong(d, s).value
        assert best["bollobas"] == n_bollobas(d, s).value


class TestSearchClassDispatch:
    def test_all_classes(self):
        assert search_class("bollobas", 3, 4).value == 3
        assert search_class("skew", 3, 4).value == 15
        assert search_class("weak", 3, 4).value == 15
        assert search_class("strong", 3, 4).value == 1

    def test_unknown_class(self):
        with pytest.raises(ValueError, match="unknown search class"):
            search_class("mystery", 2, 2)

    def test_general_mode_only_for_bollobas(self):
        with pytest.raises(ValueError, match="general mode"):
            search_class("skew", 2, 2, mode="general")
