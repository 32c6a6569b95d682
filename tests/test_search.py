import functools
import importlib
import itertools
import operator
import random
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from bollosys import lattice as lattice_module
from bollosys import search as search_module
from bollosys import (
    CapExceeded,
    Family,
    GroundSet,
    VerificationError,
    classify,
    interval_vertices,
    n_bollobas,
    n_skew,
    n_strong,
    n_table,
    n_weak,
    pair_bollobas,
    pair_skew,
    pair_strong,
    pair_weak,
    parts_increasing,
    search_class,
)
from bollosys.classify import relation_rows
from bollosys.lattice import (
    chain_partition,
    lowest_antichain,
    middle_rank,
    verify_chains,
)
from bollosys.core import DPartition
from bollosys.search import (
    _general_vertices,
    _greedy_colour_bound,
    lattice_points,
    maximum_clique,
)


def _recursive_compositions(s, d):
    # reference: first part ascending, then the compositions of the rest
    if d == 1:
        yield (s,)
        return
    for first in range(s + 1):
        for rest in _recursive_compositions(s - first, d - 1):
            yield (first,) + rest


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
        points = lattice_points(3, 2)
        assert points == sorted(points)

    @pytest.mark.parametrize("d", range(1, 7))
    def test_compositions_match_the_recursive_reference(self, d):
        # the points are the prefix sums of the compositions, in their order
        for s in range(9):
            expected = [tuple(itertools.accumulate(c[:-1])) for c in _recursive_compositions(s, d)]
            assert lattice_points(d, s) == expected

    def test_compositions_past_the_recursion_limit(self):
        assert lattice_points(5000, 0) == [(0,) * 4999]

    @pytest.mark.parametrize("d", range(1, 6))
    def test_listed_in_composition_order_and_reversed_by_skew(self, d):
        for s in range(7):
            sizes = [p.size_vector for p in interval_vertices(d, s)]
            assert sizes == list(_recursive_compositions(s, d))
            witness = n_skew(d, s).witness
            assert [p.size_vector for p in witness.members] == sizes[::-1]


def _first_fit_classes(cand, adj):
    # reference: each candidate in ascending order joins the first colour
    # class holding none of its neighbours, else opens a new one
    classes = []
    rest = cand
    while rest:
        low = rest & -rest
        rest ^= low
        v = low.bit_length() - 1
        for idx, members in enumerate(classes):
            if not members & adj[v]:
                classes[idx] = members | low
                break
        else:
            classes.append(low)
    return classes


@st.composite
def graphs_with_candidates(draw):
    # symmetric adjacency rows without loops, and a candidate subset
    n = draw(st.integers(0, 70))
    density = draw(st.sampled_from((0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0)))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    adj = [0] * n
    for i, j in itertools.combinations(range(n), 2):
        if rng.random() < density:
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    cand = draw(st.sampled_from((0, (1 << n) - 1, rng.getrandbits(n) if n else 0)))
    return cand, adj


class _RowsReadOnce(list):
    # adjacency rows allowing one read per candidate: a bound that reads
    # more fails here instead of looping on a vertex it never removes
    def __init__(self, rows, cand):
        super().__init__(rows)
        self.reads_left = cand.bit_count()

    def __getitem__(self, index):
        self.reads_left -= 1
        assert self.reads_left >= 0, "a candidate row was read twice"
        return super().__getitem__(index)


class TestColourBound:
    @settings(max_examples=400, deadline=None)
    @given(graphs_with_candidates())
    def test_matches_per_vertex_first_fit(self, graph):
        cand, adj = graph
        rows = _RowsReadOnce(adj, cand)
        classes = _greedy_colour_bound(cand, rows)
        assert rows.reads_left == 0
        assert classes == _first_fit_classes(cand, adj)
        # the masks partition the candidates into independent sets
        assert sum(classes) == functools.reduce(operator.or_, classes, 0) == cand
        for members in classes:
            assert members
            rest = members
            while rest:
                low = rest & -rest
                rest ^= low
                assert not adj[low.bit_length() - 1] & members

    @pytest.mark.parametrize("n", [0, 1, 2, 7, 70])
    def test_edgeless_complete_and_empty_candidates(self, n):
        full = (1 << n) - 1
        edgeless = [0] * n
        complete = [full ^ (1 << v) for v in range(n)]
        for cand, adj, classes in [
            (full, edgeless, min(n, 1)),
            (full, complete, n),
            (0, complete, 0),
            (0, edgeless, 0),
        ]:
            assert len(_greedy_colour_bound(cand, _RowsReadOnce(adj, cand))) == classes


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
        assert maximum_clique(adj, 3, supports) == [2]
        # edge (2,3) misses the support bit; of the feasible ties [0] and
        # [1], the lex-least wins
        assert maximum_clique([0, 0, 0b1000, 0b0100], 4, [1, 1, 0, 0]) == [0]

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
            # a clique must cover the union of all supports
            required = functools.reduce(operator.or_, supports, 0)
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
                    maximum_clique(adj, n, supports)
            else:
                assert maximum_clique(adj, n, supports) == best


def _count_bound_calls(monkeypatch):
    # wraps the colour bound; the returned function reads the calls so far
    calls = [0]
    bound = search_module._greedy_colour_bound

    def counting(cand, adj):
        calls[0] += 1
        return bound(cand, adj)

    monkeypatch.setattr(search_module, "_greedy_colour_bound", counting)
    return lambda: calls[0]


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

    @pytest.mark.parametrize("d,s,value", [(5, 8, 33), (4, 12, 25), (5, 9, 43)])
    def test_open_cells(self, d, s, value):
        # n_bollobas re-verifies the witness pair by pair with pair_bollobas
        outcome = n_bollobas(d, s)
        assert outcome.value == outcome.witness.m == value

    @pytest.mark.parametrize(
        "d,s,mode,calls",
        [
            (4, 10, "full-only", 1421),
            (5, 6, "full-only", 1102),
            (6, 5, "full-only", 1498),
            (3, 5, "general", 61),
            (2, 6, "general", 251),
            (3, 6, "general", 134),
            (4, 4, "general", 141),
            (4, 5, "general", 1605),
            (5, 4, "general", 448),
            (6, 4, "general", 1665),
        ],
    )
    def test_colour_bound_call_counts(self, monkeypatch, d, s, mode, calls):
        # the number of bound evaluations pins the plain pass's search tree:
        # a bound that prunes differently changes it even when the witness
        # stays the same.  Full-only n_bollobas runs no clique pass, so the
        # plain pass is pinned on its own over the full-only adjacency;
        # general mode runs it through n_bollobas
        count = _count_bound_calls(monkeypatch)
        if mode == "general":
            n_bollobas(d, s, mode=mode)
        else:
            vertices = interval_vertices(d, s)
            maximum_clique(list(relation_rows(vertices, d, "bollobas")), len(vertices))
        assert count() == calls



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


# witnesses of larger cells, one composition per word (every part is at most
# 9), in witness order; taken from the search before the chain bound, so the
# bound cannot silently pick a different maximum clique
PINNED_LARGE_COMPOSITIONS = {
    (6, 9): (
        "004500 005310 006120 006201 007011 012600 013410 014220 014301 015030 015111 "
        "016002 020700 021510 022320 022401 023130 023211 024021 024102 030420 030501 "
        "031230 031311 032040 032121 032202 033012 040140 040221 040302 041031 041112 "
        "042003 050022 050103 100800 102510 103320 103401 104130 104211 105021 105102 "
        "110610 111420 111501 112230 112311 113040 113121 113202 114012 120330 120411 "
        "121140 121221 121302 122031 122112 123003 130050 130131 130212 131022 131103 "
        "140013 200520 200601 201330 201411 202140 202221 202302 203031 203112 204003 "
        "210240 210321 210402 211050 211131 211212 212022 212103 220041 220122 220203 "
        "221013 230004 300060 300231 300312 301041 301122 301203 302013 310032 310113 "
        "311004 400023 400104"
    ),
    (8, 6): (
        "00024000 00032100 00040200 00041010 00050001 00105000 00113100 00121200 00122010 "
        "00130110 00131001 00202200 00203010 00210300 00211110 00212001 00220020 00220101 "
        "00300210 00301020 00301101 00310011 00400002 01004100 01012200 01013010 01020300 "
        "01021110 01022001 01030020 01030101 01101300 01102110 01103001 01110210 01111020 "
        "01111101 01120011 01200120 01200201 01201011 01210002 02000400 02001210 02002020 "
        "02002101 02010120 02010201 02011011 02020002 02100030 02100111 02101002 03000021 "
        "03000102 10003200 10004010 10011300 10012110 10013001 10020210 10021020 10021101 "
        "10030011 10100400 10101210 10102020 10102101 10110120 10110201 10111011 10120002 "
        "10200030 10200111 10201002 11000310 11001120 11001201 11002011 11010030 11010111 "
        "11011002 11100021 11100102 12000012 20000220 20000301 20001030 20001111 20002002 "
        "20010021 20010102 20100012 21000003"
    ),
    (7, 8): (
        "0008000 0016100 0024200 0025010 0032300 0033110 0034001 0040400 0041210 0042020 "
        "0042101 0050120 0050201 0051011 0060002 0105200 0106010 0113300 0114110 0115001 "
        "0121400 0122210 0123020 0123101 0130310 0131120 0131201 0132011 0140030 0140111 "
        "0141002 0202400 0203210 0204020 0204101 0210500 0211310 0212120 0212201 0213011 "
        "0220220 0220301 0221030 0221111 0222002 0230021 0230102 0300410 0301220 0301301 "
        "0302030 0302111 0303002 0310130 0310211 0311021 0311102 0320012 0400040 0400121 "
        "0400202 0401012 0410003 1004300 1005110 1006001 1012400 1013210 1014020 1014101 "
        "1020500 1021310 1022120 1022201 1023011 1030220 1030301 1031030 1031111 1032002 "
        "1040021 1040102 1101500 1102310 1103120 1103201 1104011 1110410 1111220 1111301 "
        "1112030 1112111 1113002 1120130 1120211 1121021 1121102 1130012 1200320 1200401 "
        "1201130 1201211 1202021 1202102 1210040 1210121 1210202 1211012 1220003 1300031 "
        "1300112 1301003 2000600 2001410 2002220 2002301 2003030 2003111 2004002 2010320 "
        "2010401 2011130 2011211 2012021 2012102 2020040 2020121 2020202 2021012 2030003 "
        "2100230 2100311 2101040 2101121 2101202 2102012 2110031 2110112 2111003 2200022 "
        "2200103 3000050 3000221 3000302 3001031 3001112 3002003 3010022 3010103 3100013 "
        "4000004"
    ),
    (9, 6): (
        "000060000 000141000 000222000 000230100 000303000 000311100 000320010 000400200 "
        "000401010 000410001 001032000 001040100 001113000 001121100 001130010 001202100 "
        "001210200 001211010 001220001 001300110 001301001 002004000 002012100 002020200 "
        "002021010 002030001 002101200 002102010 002110110 002111001 002200020 002200101 "
        "003000300 003001110 003002001 003010020 003010101 003100011 004000002 010023000 "
        "010031100 010040010 010104000 010112100 010120200 010121010 010130001 010201200 "
        "010202010 010210110 010211001 010300020 010300101 011003100 011011200 011012010 "
        "011020110 011021001 011100300 011101110 011102001 011110020 011110101 011200011 "
        "012000210 012001020 012001101 012010011 012100002 020002200 020003010 020010300 "
        "020011110 020012001 020020020 020020101 020100210 020101020 020101101 020110011 "
        "020200002 021000120 021000201 021001011 021010002 030000030 030000111 030001002 "
        "100005000 100022100 100030200 100031010 100040001 100103100 100111200 100112010 "
        "100120110 100121001 100200300 100201110 100202001 100210020 100210101 100300011 "
        "101002200 101003010 101010300 101011110 101012001 101020020 101020101 101100210 "
        "101101020 101101101 101110011 101200002 102000120 102000201 102001011 102010002 "
        "110001300 110002110 110003001 110010210 110011020 110011101 110020011 110100120 "
        "110100201 110101011 110110002 111000030 111000111 111001002 120000021 120000102 "
        "200000400 200001210 200002020 200002101 200010120 200010201 200011011 200020002 "
        "200100030 200100111 200101002 201000021 201000102 210000012 300000003"
    ),
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

    @pytest.mark.parametrize("d,s,value", [(6, 9, 102), (8, 6, 94), (7, 8, 151), (9, 6, 151)])
    def test_pinned_large_cells(self, d, s, value):
        outcome = n_bollobas(d, s)
        members = outcome.witness.members
        comps = ["".join(str(len(part)) for part in member.parts) for member in members]
        assert outcome.value == value
        assert comps == PINNED_LARGE_COMPOSITIONS[(d, s)].split()

    def test_pinned_general_d3_s5(self):
        witness = n_bollobas(3, 5, mode="general").witness
        parts = [tuple(tuple(sorted(part)) for part in member.parts) for member in witness.members]
        assert parts == [((), (1, 4), ()), ((1,), (2, 3), (4,)), ((1, 2), (), (3, 4, 5))]


def _gaussian_binomial(n, k):
    # coefficients of [n choose k]_q, by [m, j] = [m-1, j-1] + q^j [m-1, j],
    # padded to degree k(n-k); a reference for the rank sizes of L(k, n-k)
    width = k * (n - k) + 1
    row = [[1] + [0] * (width - 1)] + [[0] * width for _ in range(k)]
    for _ in range(n):
        row = [row[0]] + [
            [row[j - 1][i] + (row[j][i - j] if i >= j else 0) for i in range(width)]
            for j in range(1, k + 1)
        ]
    return row[k]


def _cells(max_vertices, max_s=12):
    # every (d, s) with d = 1..9, s <= max_s and at most max_vertices vertices
    return [
        (d, s)
        for d in range(1, 10)
        for s in range(max_s + 1)
        if comb(s + d - 1, d - 1) <= max_vertices
    ]


def _split_first(chains):
    # one more chain: the first chain of length 2 or more, cut after its
    # first member
    k = next(k for k, chain in enumerate(chains) if len(chain) > 1)
    return chains[:k] + [chains[k][:1], chains[k][1:]] + chains[k + 1 :]


def _split_first_chain(monkeypatch):
    # one more chain than the middle rank has members
    chains = lattice_module.chain_partition

    def split(points, s):
        return _split_first(chains(points, s))

    monkeypatch.setattr(lattice_module, "chain_partition", split)


def _count_dpartitions(monkeypatch):
    # a list that gains one entry per DPartition constructed from here on;
    # building the interval vertex list is refused outright
    def refuse(*args, **kwargs):
        raise AssertionError("full-only bollobas built the vertex list")

    monkeypatch.setattr(search_module, "interval_vertices", refuse)
    built = []
    init = DPartition.__init__

    def counting(self, parts):
        built.append(self)
        init(self, parts)

    monkeypatch.setattr(DPartition, "__init__", counting)
    return built


def _swapped(points, i, j):
    # the points with entries i and j exchanged
    out = list(points)
    out[i], out[j] = out[j], out[i]
    return out


@st.composite
def posets(draw):
    # distinct points of N^k, k <= 4, in lexicographic order, so that
    # componentwise order implies index order as in L(d-1, s)
    k = draw(st.integers(1, 4))
    points = draw(st.sets(st.tuples(*[st.integers(0, 3)] * k), min_size=1, max_size=9))
    return sorted(points)


def _below(p, q):
    return all(map(operator.le, p, q))


def _minimum_chain_partition(points):
    # reference: match each point to one above it by augmenting paths, as
    # many as possible, and follow the matches upward; n minus the matching
    # size is the width (Dilworth, via Fulkerson 1956)
    n = len(points)
    above = [[j for j in range(i + 1, n) if _below(points[i], points[j])] for i in range(n)]
    owner = {}

    def augment(i, seen):
        for j in above[i]:
            if j not in seen:
                seen.add(j)
                if j not in owner or augment(owner[j], seen):
                    owner[j] = i
                    return True
        return False

    for i in range(n):
        augment(i, set())
    up = {i: j for j, i in owner.items()}
    chains = []
    for i in range(n):
        if i not in owner:
            chains.append([i])
            while chains[-1][-1] in up:
                chains[-1].append(up[chains[-1][-1]])
    return chains


def _lex_least_maximum_antichain(points):
    # reference: every index subset, largest first, each size in
    # lexicographic order
    for size in range(len(points), 0, -1):
        for combo in itertools.combinations(range(len(points)), size):
            pairs = itertools.combinations((points[i] for i in combo), 2)
            if not any(_below(p, q) or _below(q, p) for p, q in pairs):
                return list(combo)


class TestWidthCertificate:
    @pytest.mark.parametrize("d", range(1, 6))
    def test_skew_iff_some_prefix_sum_is_larger(self, d):
        # the lemma, on every ordered pair of distinct interval vertices with
        # s <= 7: p is skew to q iff P_a(p) > P_a(q) for some a, so a pair is
        # bollobas iff its prefix sums are incomparable
        for s in range(8):
            vertices = interval_vertices(d, s)
            points = lattice_points(d, s)
            for (p, pp), (q, qp) in itertools.permutations(zip(vertices, points), 2):
                skew = any(a > b for a, b in zip(pp, qp))
                assert pair_skew(p, q) == skew
                assert pair_bollobas(p, q) == (skew and any(b > a for a, b in zip(pp, qp)))

    def test_points_are_the_prefix_sums_of_the_vertices(self):
        for d, s in _cells(500):
            sizes = [v.size_vector for v in interval_vertices(d, s)]
            assert lattice_points(d, s) == [
                tuple(sum(c[:a]) for a in range(1, d)) for c in sizes
            ]

    @pytest.mark.parametrize("d", range(1, 8))
    def test_rank_sizes_are_gaussian_binomial_coefficients(self, d):
        for s in range(9):
            if comb(s + d - 1, d - 1) > 2000:
                break
            points = lattice_points(d, s)
            coefficients = _gaussian_binomial(s + d - 1, d - 1)
            sizes = [0] * len(coefficients)
            for point in points:
                sizes[sum(point)] += 1
            assert sizes == coefficients
            middle = middle_rank(points, s)
            assert len(middle) == coefficients[(d - 1) * s // 2] == max(coefficients)
            assert all(sum(points[i]) == (d - 1) * s // 2 for i in middle)

    def test_chain_partitions_reverified(self):
        # disjoint, covering, one chain per middle-rank vertex, and no pair
        # inside a chain is bollobas: no bollobas family beats the middle rank
        for d, s in _cells(1000):
            vertices = interval_vertices(d, s)
            points = lattice_points(d, s)
            chains = chain_partition(points, s)
            members = [i for chain in chains for i in chain]
            assert sorted(members) == list(range(len(vertices)))
            assert len(chains) == len(middle_rank(points, s))
            for chain in chains:
                for i, j in itertools.combinations(chain, 2):
                    assert all(a <= b for a, b in zip(points[i], points[j]))
                    assert not pair_bollobas(vertices[i], vertices[j])
            verify_chains(chains, points)

    def test_neighbours_by_rank_arithmetic_equal_the_tuple_lookup(self):
        # the index steps of the neighbours toward the middle rank against
        # the neighbour point tuples, each looked up by value
        for d in range(2, 8):
            for s in range(11):
                points = lattice_points(d, s)
                index = {point: i for i, point in enumerate(points)}
                mid = (d - 1) * s // 2
                expected = []
                for point in points:
                    step = (sum(point) < mid) - (sum(point) > mid)
                    bounds = (*point[1:], s) if step > 0 else (0, *point[:-1])
                    expected.append([
                        index[point[:a] + (v + step,) + point[a + 1 :]]
                        for a, (v, bound) in enumerate(zip(point, bounds))
                        if step and v != bound
                    ])
                sums = list(map(sum, points))
                assert lattice_module._toward_middle(points, sums, s) == expected, (d, s)

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda chains, points: (chains[1:], points),  # a chain lost: vertices uncovered
            lambda chains, points: (chains + [chains[0][:1]], points),  # a vertex in two chains
            lambda chains, points: ([chains[0][::-1]] + chains[1:], points),  # one listed downward
            lambda chains, points: ([chains[0] + chains[1]] + chains[2:], points),  # chains merged
            # the chains intact, but the first two members of a chain trade
            # points, so the link between them now falls
            lambda chains, points: (chains, _swapped(points, *chains[0][:2])),
        ],
    )
    def test_chain_check_rejects_a_broken_partition(self, mutate):
        d, s = 4, 6
        points = lattice_points(d, s)
        chains = chain_partition(points, s)
        assert len(chains[0]) > 1
        verify_chains(chains, points)
        with pytest.raises(VerificationError):
            verify_chains(*mutate(chains, points))

    def test_certified_width_is_the_searched_value(self):
        for d, s in _cells(300, max_s=8):
            width = len(middle_rank(lattice_points(d, s), s))
            assert n_bollobas(d, s).value == width

    def test_certified_width_cap(self):
        with pytest.raises(CapExceeded, match="interval vertices"):
            n_bollobas(4, 40)

    def test_lowest_antichain_is_the_plain_witness(self):
        # every cell with at most 500 vertices, 84 in all
        cells = _cells(500)
        assert len(cells) == 84
        for d, s in cells:
            vertices = interval_vertices(d, s)
            plain = maximum_clique(list(relation_rows(vertices, d, "bollobas")), len(vertices))
            points = lattice_points(d, s)
            assert lowest_antichain(points, chain_partition(points, s)) == plain
            members = n_bollobas(d, s).witness.members
            assert list(members) == [vertices[i] for i in plain]

    def test_full_only_lays_out_only_the_witness(self, monkeypatch):
        # on the 84 cells above, no interval vertex list is built and one
        # d-partition is constructed per witness member
        built = _count_dpartitions(monkeypatch)
        for d, s in _cells(500):
            built.clear()
            outcome = n_bollobas(d, s)
            assert len(built) == outcome.value == outcome.witness.m, (d, s)

    def test_the_largest_d2_cell_lays_out_one_member(self, monkeypatch):
        # (2, 4999), the last d = 2 cell inside the default cap: 5,000
        # compositions, width 1, and only the first composition, (0, 4999),
        # is laid out
        built = _count_dpartitions(monkeypatch)
        outcome = n_bollobas(2, 4999)
        assert outcome.value == 1 and len(built) == 1
        assert outcome.witness.members == (DPartition((frozenset(), frozenset(range(1, 5000)))),)

    @settings(max_examples=300, deadline=None)
    @given(posets(), st.data())
    def test_lowest_antichain_meets_brute_force(self, points, data):
        # a minimum chain partition of a finite poset in N^k, with its
        # chains in any order, gives the lex-least maximum antichain
        chains = data.draw(st.permutations(_minimum_chain_partition(points)))
        assert lowest_antichain(points, chains) == _lex_least_maximum_antichain(points)

    @pytest.mark.parametrize("d,s", [(3, 6), (4, 10), (5, 6)])
    def test_one_targeted_pass_when_certified(self, monkeypatch, d, s):
        # one propagation, over as many chains as the certified width
        widths = []
        lowest = lattice_module.lowest_antichain

        def recording(points, chains):
            widths.append(len(chains))
            return lowest(points, chains)

        monkeypatch.setattr(lattice_module, "lowest_antichain", recording)
        outcome = n_bollobas(d, s)
        assert widths == [outcome.value]

    @pytest.mark.parametrize("d,s", [(3, 6), (4, 10), (5, 6)])
    def test_more_chains_than_the_middle_rank_is_refused(self, monkeypatch, d, s):
        _split_first_chain(monkeypatch)

        def refuse(*args):
            raise AssertionError("a witness was sought past a refused certificate")

        monkeypatch.setattr(lattice_module, "lowest_antichain", refuse)
        with pytest.raises(VerificationError, match="middle rank"):
            n_bollobas(d, s)

    @pytest.mark.parametrize("d,s", [(3, 6), (4, 10), (5, 6)])
    def test_a_target_no_clique_reaches_is_refused(self, d, s):
        # one chain split in two: no antichain meets all width + 1 chains,
        # so some pointer runs off its chain
        points = lattice_points(d, s)
        chains = _split_first(chain_partition(points, s))
        with pytest.raises(VerificationError, match=f"all {len(chains)} chains"):
            lowest_antichain(points, chains)

    @pytest.mark.parametrize(
        "d,s,width",
        [
            (3, 98, 50),
            (4, 28, 113),
            (4, 29, 120),
            (5, 15, 150),
            (5, 16, 177),
            (6, 11, 190),
            (7, 8, 151),
            (8, 7, 169),
            (9, 6, 151),
        ],
    )
    def test_large_cells_inside_the_cap_are_certified(self, d, s, width):
        # the largest s inside the default vertex cap for each d = 3..9, and
        # (4, 28) and (5, 15): the chains match the middle rank, whose size
        # is the middle coefficient of the Gaussian binomial [s+d-1, d-1]_q
        points = lattice_points(d, s)
        assert len(points) <= search_module.DEFAULT_VERTEX_CAP
        chains = chain_partition(points, s)
        verify_chains(chains, points)
        assert len(chains) == len(middle_rank(points, s)) == width
        assert width == _gaussian_binomial(s + d - 1, d - 1)[(d - 1) * s // 2]

    def test_past_the_cap_cell_is_certified_and_verified(self, monkeypatch):
        # (4, 60) has C(63, 3) = 39,711 compositions, past the default cap;
        # its width is the middle coefficient of the Gaussian binomial
        # [63, 3]_q, and its witness is checked once, as bollobas
        calls = []
        verify = search_module._verify_witness

        def recording(witness, name, s, expected):
            calls.append((witness.m, name, expected))
            verify(witness, name, s, expected)

        monkeypatch.setattr(search_module, "_verify_witness", recording)
        outcome = n_bollobas(4, 60, cap=40_000)
        assert outcome.value == _gaussian_binomial(63, 3)[90] == 481
        assert calls == [(481, "bollobas", 481)]

    @pytest.mark.parametrize("d,s", [(2, 50), (5, 1), (3, 0), (4, 10), (6, 5)])
    def test_width_one_builds_no_adjacency(self, monkeypatch, d, s):
        # no full-only cell runs a clique pass, and rows are built over the
        # witness members alone, for its check; at width 1 the witness is
        # the first vertex
        def refuse(*args, **kwargs):
            raise AssertionError("a full-only cell searched")

        handed = []
        rows = search_module.relation_rows

        def recording(members, d, name):
            handed.append((tuple(members), name))
            return rows(members, d, name)

        monkeypatch.setattr(search_module, "relation_rows", recording)
        monkeypatch.setattr(search_module, "maximum_clique", refuse)
        outcome = n_bollobas(d, s)
        assert outcome.value == len(middle_rank(lattice_points(d, s), s))
        assert handed == [(outcome.witness.members, "bollobas")]
        if outcome.value == 1:
            assert outcome.witness.members == (interval_vertices(d, s)[0],)

    def test_width_one_witness_is_the_plain_witness(self):
        # the width-1 cells past those of the test above (s <= 12): d = 1 up
        # to s = 200, d = 2 up to s = 40 and three larger cells
        cells = [(1, s) for s in range(13, 201)]
        cells += [(2, s) for s in [*range(13, 41), 100, 150, 200]]
        for d, s in cells:
            vertices = interval_vertices(d, s)
            plain = maximum_clique(list(relation_rows(vertices, d, "bollobas")), len(vertices))
            assert plain == [0]
            assert n_bollobas(d, s).witness.members == (vertices[0],)

    @pytest.mark.parametrize("d,s", [(1, 5), (2, 6), (3, 6), (4, 10), (5, 6)])
    def test_full_only_lists_the_points_once(self, monkeypatch, d, s):
        # the chains, their check, the middle rank, the antichain and the
        # witness layout all read one list
        calls = []
        points = search_module.lattice_points

        def counting(*args):
            calls.append(args)
            return points(*args)

        monkeypatch.setattr(search_module, "lattice_points", counting)
        n_bollobas(d, s)
        assert calls == [(d, s)]

    def test_general_mode_never_builds_the_chain_partition(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("general mode built the chain partition")

        # general vertices are laid out from points too, so only the chain
        # partition and the antichain are refused
        monkeypatch.setattr(lattice_module, "chain_partition", refuse)
        monkeypatch.setattr(lattice_module, "lowest_antichain", refuse)
        passes = []
        clique = search_module.maximum_clique

        def counting(adj, n, supports=None):
            passes.append(supports is not None)
            return clique(adj, n, supports)

        monkeypatch.setattr(search_module, "maximum_clique", counting)
        for d, s in [(2, 3), (3, 4), (3, 5)]:
            n_bollobas(d, s, mode="general")
        assert passes == [True] * 3


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

    @pytest.mark.parametrize("searched, related", [(n_weak, pair_weak), (n_skew, pair_skew)])
    def test_witness_verified_once_with_the_class_predicate(self, monkeypatch, searched, related):
        # one check per answer, as the class the predicate defines
        calls = []
        verify = search_module._verify_witness

        def recording(witness, name, s, expected):
            calls.append(name)
            verify(witness, name, s, expected)

        monkeypatch.setattr(search_module, "_verify_witness", recording)
        outcome = searched(4, 5)
        assert [f"pair_{name}" for name in calls] == [related.__name__]
        assert outcome.witness == n_skew(4, 5).witness


class TestNStrong:
    def test_always_one(self):
        assert n_strong(3, 3).value == 1
        assert n_strong(2, 1).value == 1
        assert n_strong(5, 6).value == 1

    def test_witness_is_single_increasing_member(self):
        outcome = n_strong(4, 4)
        assert outcome.witness.m == 1
        assert parts_increasing(outcome.witness.members[0])

    @pytest.mark.parametrize("d,s", [(1, 0), (2, 50), (3, 6), (4, 10), (5, 4)])
    def test_lays_out_only_the_witness(self, monkeypatch, d, s):
        # every pair is read off the bounds: the one vertex laid out is the
        # witness, and rows over laid-out members are built for it alone
        built = _count_dpartitions(monkeypatch)
        handed = []
        rows = search_module.relation_rows

        def recording(members, d, name):
            handed.append(tuple(members))
            return rows(members, d, name)

        monkeypatch.setattr(search_module, "relation_rows", recording)
        outcome = n_strong(d, s)
        assert built == list(outcome.witness.members)
        assert handed == [outcome.witness.members]
        assert [len(part) for part in built[0].parts] == [0] * (d - 1) + [s]

    def test_planted_strong_pair_is_fatal(self, monkeypatch):
        rows = search_module.interval_relation_rows

        def planted(bounds, d):
            for i, row in enumerate(rows(bounds, d)):
                yield row | (1 << 7 if i == 3 else 0)

        monkeypatch.setattr(search_module, "interval_relation_rows", planted)
        message = "^interval vertices 3 and 7 form a strong pair$"
        with pytest.raises(VerificationError, match=message):
            n_strong(3, 4)

    def test_largest_d2_cell_inside_the_cap(self):
        # 5,000 vertices, none laid out but the witness: well under a second
        outcome = n_strong(2, 4999)
        assert outcome.value == 1
        assert [sorted(part) for part in outcome.witness.members[0].parts] == [
            [], list(range(1, 5000))
        ]


_PAIR_PREDICATES = {
    "weak": pair_weak,
    "skew": pair_skew,
    "bollobas": pair_bollobas,
    "strong": pair_strong,
}


def _scalar_first_failure(members, name):
    # the scalar reference: every pair in listed order, the first failure named
    related = _PAIR_PREDICATES[name]
    for i, j in itertools.combinations(range(len(members)), 2):
        if not related(members[i], members[j]):
            return f"witness pair ({i}, {j}) fails pair_{name}"
    return None


@functools.cache
def _witness_candidates(d, s):
    # the interval vertices, and every increasing-parts vertex with support
    # inside [s] (8,472 at (5, 7), past the default cap)
    return interval_vertices(d, s), _general_vertices(d, s, 10_000)


class TestWitnessCheck:
    @pytest.mark.parametrize("name", sorted(_PAIR_PREDICATES))
    def test_engine_check_matches_the_scalar_loop(self, name):
        # shuffled sub-families of the interval vertices, and of all vertices
        # with support inside [s] joined by one interval vertex, so that the
        # support is [s] and only the pair check can fail: the engine check
        # raises exactly when the scalar loop finds a failing pair, and with
        # the same text
        rng = random.Random(f"witness check {name}")
        outcomes = []
        for d in range(1, 6):
            for s in range(8):
                full, general = _witness_candidates(d, s)
                for _ in range(6):
                    interval = rng.sample(full, rng.randint(1, min(len(full), 12)))
                    anchor = rng.choice(full)
                    others = [v for v in rng.sample(general, min(len(general), 10)) if v != anchor]
                    mixed = [anchor, *others[: rng.randint(0, len(others))]]
                    for members in (interval, rng.sample(mixed, len(mixed))):
                        family = Family(GroundSet(s), tuple(members), d)
                        expected = _scalar_first_failure(members, name)
                        try:
                            search_module._verify_witness(family, name, s, len(members))
                        except VerificationError as exc:
                            assert str(exc) == expected
                        else:
                            assert expected is None
                        outcomes.append(expected is None)
        # both sides of the check are exercised for every class
        assert True in outcomes and False in outcomes

    def test_only_general_mode_calls_the_scalar_predicates(self, monkeypatch):
        # full-only answers are checked by relation rows alone; a general
        # clique, read off those rows, by one pair_bollobas call per pair
        calls = []
        classify_module = importlib.import_module("bollosys.classify")
        for name, predicate in _PAIR_PREDICATES.items():
            def counting(p, q, name=name, predicate=predicate):
                calls.append(name)
                return predicate(p, q)

            for module in (classify_module, search_module):
                if hasattr(module, f"pair_{name}"):
                    monkeypatch.setattr(module, f"pair_{name}", counting)
        for system_class in search_module.SEARCH_CLASSES:
            search_class(system_class, 3, 5)
        assert calls == []
        outcome = search_class("bollobas", 3, 5, mode="general")
        assert calls == ["bollobas"] * comb(outcome.value, 2)


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

    def test_bollobas_cell_must_be_its_middle_rank(self, monkeypatch):
        # a middle rank one short: the chain count no longer matches it, and
        # the certificate refuses the cell
        ranks = lattice_module.middle_rank
        monkeypatch.setattr(lattice_module, "middle_rank", lambda points, s: ranks(points, s)[1:])
        with pytest.raises(VerificationError, match="middle rank"):
            n_table([4], [4])

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


def test_general_vertex_count_is_the_direct_sum():
    # the cap check counts general vertices by Vandermonde's identity: it
    # equals the direct sum over support sizes, and on small cells the
    # number of vertices listed
    for d in range(1, 7):
        for s in range(30):
            direct = sum(comb(s, t) * comb(t + d - 1, d - 1) for t in range(s + 1))
            with pytest.raises(CapExceeded) as refused:
                _general_vertices(d, s, 0)
            assert str(refused.value) == f"{direct} general vertices, cap is 0"
            if direct <= 500:
                assert len(_general_vertices(d, s, direct)) == direct, (d, s)
