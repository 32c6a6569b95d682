"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every assertion is exact integer or rational equality; the only tolerances
are the per-criterion wall-clock budgets, which are asserted too.
"""

import json
import random
from contextlib import contextmanager
from decimal import Decimal
from fractions import Fraction
from math import comb
from time import perf_counter

import pytest

from bollosys import (
    DPartition,
    Family,
    GroundSet,
    chain_family_d3,
    classify,
    complement_pair_family,
    double_count_identity,
    fill_to_full,
    inverse_multinomial_sum,
    lex_full_family,
    matchbox_weak_family,
    n_bollobas,
    n_skew,
    n_strong,
    n_table,
    n_weak,
    parts_increasing,
    permutation_family,
    tuza_product_sum,
    type_expansion,
    with_blocks,
)
from bollosys.classify import CLASS_NAMES
from bollosys.cli import run
from bollosys.familyjson import family_from_obj
from bollosys.weights import THEOREMS, blocked_inverse_sum, check_theorem, class_bound


def _report(line: str) -> None:
    from conftest import ACCEPTANCE_LINES

    ACCEPTANCE_LINES.append(line)
    print(line)


@contextmanager
def criterion(name: str, limit_seconds: float):
    start = perf_counter()
    try:
        yield
    except BaseException:
        _report(f"[acceptance] {name}: FAIL")
        raise
    elapsed = perf_counter() - start
    ok = elapsed < limit_seconds
    _report(
        f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} "
        f"({elapsed:.2f}s, budget {limit_seconds:g}s)"
    )
    assert ok, f"{name} exceeded its runtime budget: {elapsed:.2f}s"


def test_criterion_01_conjecture_refutation():
    with criterion("01 conj1 certificates s=2..8", 60):
        for s in range(2, 9):
            result = run(["certify", "conj1", "--s", str(s)])
            assert result.status == "ok"
            payload = result.payload
            expected = Fraction(s // 2 + 1)
            assert payload["classification"]["bollobas"] is True
            assert Fraction(payload["sum"]) == expected > 1
            assert payload["refutes"] is True
            family = family_from_obj(payload["family"])
            assert classify(family).bollobas
            assert inverse_multinomial_sum(family) == expected


def test_criterion_02_bollobas_closed_forms():
    with criterion("02 N_B closed forms d=2,3 s=1..10", 30):
        for s in range(1, 11):
            for d, expected in ((2, 1), (3, s // 2 + 1)):
                outcome = n_bollobas(d, s)
                assert outcome.value == expected
                witness = outcome.witness
                assert witness.m == expected
                assert classify(witness).bollobas
                assert witness.support == frozenset(range(1, s + 1))
                assert all(parts_increasing(member) for member in witness.members)


def test_criterion_03_skew_weak_extremal_values():
    with criterion("03 N_skew = N_weak = C(s+d-1,d-1)", 10):
        for d in (2, 3, 4):
            for s in range(1, 7):
                expected = comb(s + d - 1, d - 1)
                skew = n_skew(d, s)
                weak = n_weak(d, s)
                assert skew.value == weak.value == expected
                vectors = [m.size_vector for m in skew.witness.members]
                assert vectors == sorted(vectors, reverse=True)
                assert len(vectors) == expected
                flags = classify(skew.witness)
                assert flags.skew and flags.weak


def test_criterion_04_strong_singleton():
    with criterion("04 N_strong = 1 with exhaustive pair check", 10):
        for d in range(2, 6):
            for s in range(1, 9):
                outcome = n_strong(d, s)  # raises if any vertex pair is strong
                assert outcome.value == 1
                assert outcome.witness.m == 1
                assert classify(outcome.witness).strong


def test_criterion_05_blocked_skew_tightness():
    with criterion("05 lex family attains the blocked product bound", 30):
        rng = random.Random(5)
        for n, d in ((3, 2), (3, 3), (4, 2)):
            family = lex_full_family(n, d)
            for _ in range(3):
                cut = rng.randint(1, n - 1)
                elements = list(range(1, n + 1))
                rng.shuffle(elements)
                blocks = (frozenset(elements[:cut]), frozenset(elements[cut:]))
                regrounded = with_blocks(family, blocks)
                sizes = [len(b) for b in blocks]
                assert blocked_inverse_sum(regrounded) == class_bound("skew", d, sizes)


def test_criterion_06_permutation_tightness():
    with criterion("06 permutation families strong with sum 1", 30):
        for n in range(2, 7):
            family = permutation_family(n)
            assert classify(family).strong
            assert inverse_multinomial_sum(family) == 1


def test_criterion_07_symmetric_tightness():
    with criterion("07 complement families symmetric with sum 1", 10):
        for n in range(1, 7):
            for k in range(0, n + 1):
                for d in (2, 3):
                    family = complement_pair_family(n, k, d)
                    assert classify(family).symmetric
                    assert inverse_multinomial_sum(family) == 1


MATCHBOX_WEIGHTS = {
    2: (
        (Fraction(1, 2), Fraction(1, 2)),
        (Fraction(1, 3), Fraction(2, 3)),
        (Fraction(2, 5), Fraction(3, 5)),
    ),
    3: (
        (Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)),
        (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)),
        (Fraction(1, 6), Fraction(1, 3), Fraction(1, 2)),
    ),
}


def test_criterion_08_matchbox_identity():
    with criterion("08 matchbox weight identity", 30):
        for a in ((1, 1), (1, 2), (2, 2), (1, 1, 1), (1, 2, 3)):
            family = matchbox_weak_family(a)
            assert classify(family).weak
            for member in family.members:
                assert all(s <= cap for s, cap in zip(member.size_vector, a))
            # the weight sum is a polynomial of degree sum(a)-1 per instance;
            # sampling is evidence, not proof
            for p in MATCHBOX_WEIGHTS[len(a)]:
                assert tuza_product_sum(family, p) == 1


def _random_family(rng: random.Random, max_n=6, max_d=4, max_e=2, max_m=5) -> Family:
    n = rng.randint(1, max_n)
    d = rng.randint(2, max_d)
    e = rng.randint(1, max_e)
    if e == 2 and n >= 2:
        cut = rng.randint(1, n - 1)
        elements = list(range(1, n + 1))
        rng.shuffle(elements)
        blocks = (frozenset(elements[:cut]), frozenset(elements[cut:]))
    else:
        blocks = ()
    members = []
    seen = set()
    for _ in range(rng.randint(1, max_m)):
        parts = [set() for _ in range(d)]
        for x in range(1, n + 1):
            r = rng.randint(0, d)
            if r < d:
                parts[r].add(x)
        member = DPartition(tuple(frozenset(p) for p in parts))
        if member not in seen:
            seen.add(member)
            members.append(member)
    return Family(GroundSet(n, blocks), tuple(members), d)


SMALL_CONSTRUCTIONS = [
    lambda: lex_full_family(2, 2),
    lambda: lex_full_family(2, 3),
    lambda: lex_full_family(3, 2),
    lambda: chain_family_d3(4),
    lambda: chain_family_d3(5),
    lambda: type_expansion(chain_family_d3(4)),
    lambda: permutation_family(3),
    lambda: permutation_family(4),
    lambda: complement_pair_family(4, 2, 2),
    lambda: complement_pair_family(5, 2, 3),
    lambda: matchbox_weak_family((1, 2)),
    lambda: matchbox_weak_family((2, 2)),
    lambda: matchbox_weak_family((1, 1, 1)),
]


def test_criterion_09_double_count_oracle():
    with criterion("09 double-counting identity", 300):
        rng = random.Random(9)
        for _ in range(200):
            family = _random_family(rng)
            result = double_count_identity(family)
            assert result.equal  # lhs integrality is asserted inside
        for build in SMALL_CONSTRUCTIONS:
            assert double_count_identity(build()).equal


def _subfamily(rng: random.Random, family: Family) -> Family:
    count = rng.randint(1, family.m)
    indices = sorted(rng.sample(range(family.m), count))
    return Family(family.ground, tuple(family.members[i] for i in indices), family.d)


def _with_random_blocks(rng: random.Random, family: Family, force_e2=False) -> Family:
    n = family.ground.n
    if n < 2 or (not force_e2 and rng.random() < 0.5):
        return family
    cut = rng.randint(1, n - 1)
    elements = list(range(1, n + 1))
    rng.shuffle(elements)
    return with_blocks(family, ({*elements[:cut]}, {*elements[cut:]}))


def _in_class_candidates(rng: random.Random, theorem_id: str):
    """Endless stream of candidate families for one theorem's hypothesis.

    Every candidate is still re-verified through the classifier before the
    inequality is checked; the generators only bias the draw toward the
    needed class (subfamilies of class members stay in the class)."""
    spec = THEOREMS[theorem_id]
    while True:
        roll = rng.random()
        if spec.d_required == 2:
            if spec.uniform_profile or roll < 0.5:
                n = rng.randint(2, 5)
                base = complement_pair_family(n, rng.randint(0, n), 2)
                yield _subfamily(rng, base)
            elif roll < 0.75:
                base = lex_full_family(rng.randint(1, 3), 2)
                yield _subfamily(rng, base)
            else:
                yield _random_family(rng, max_d=2, max_e=1)
            continue
        if spec.hypothesis_class in ("strong", "symmetric"):
            if roll < 0.45:
                base = permutation_family(rng.randint(2, 4))
            else:
                n = rng.randint(2, 5)
                base = complement_pair_family(n, rng.randint(0, n), rng.choice((2, 3)))
            candidate = _subfamily(rng, base)
        elif spec.hypothesis_class == "bollobas":
            if theorem_id == "thm-1.8" or roll < 0.5:
                candidate = _subfamily(rng, type_expansion(chain_family_d3(rng.randint(2, 5))))
            else:
                n = rng.randint(2, 5)
                candidate = _subfamily(rng, complement_pair_family(n, rng.randint(0, n), 2))
        elif spec.hypothesis_class == "skew":
            if roll < 0.6:
                candidate = _subfamily(rng, lex_full_family(rng.randint(1, 3), rng.choice((2, 3))))
            else:
                candidate = _random_family(rng, max_n=5, max_e=1)
        else:  # weak
            if roll < 0.5:
                a = tuple(rng.randint(1, 2) for _ in range(rng.choice((2, 3))))
                candidate = _subfamily(rng, matchbox_weak_family(a))
            else:
                candidate = _random_family(rng, max_n=5, max_e=1)
        yield _with_random_blocks(rng, candidate, force_e2=spec.e_required == 2)


def _structurally_applicable(spec, family: Family) -> bool:
    if spec.d_required is not None and family.d != spec.d_required:
        return False
    if spec.e_required is not None and family.ground.e != spec.e_required:
        return False
    if theorem_needs_small_support(spec.theorem_id) and family.support_size > 5:
        return False
    return True


def theorem_needs_small_support(theorem_id: str) -> bool:
    return theorem_id == "thm-4.1"  # its bound certifies N_B(d, s) per family


def test_criterion_10_property_suites():
    with criterion("10 property suites", 300):
        rng = random.Random(10)

        # implication chain on 200 random families
        for _ in range(200):
            assert classify(_random_family(rng)).chain_consistent()

        # fill preservation on 200 random increasing-parts families
        checked = 0
        while checked < 200:
            family = _random_increasing_family(rng)
            flags = classify(family)
            if not flags.weak:
                continue
            filled = fill_to_full(family)
            filled_flags = classify(filled)
            for name in CLASS_NAMES:
                if getattr(flags, name):
                    assert getattr(filled_flags, name)
            assert all(parts_increasing(m) for m in filled.members)
            checked += 1

        # the fullness reduction loses nothing on small instances
        for d in (2, 3):
            for s in range(1, 5):
                assert (
                    n_bollobas(d, s, mode="full-only").value
                    == n_bollobas(d, s, mode="general").value
                )

        # 200 verified in-class families per theorem: inequality must hold
        for theorem_id, spec in THEOREMS.items():
            if theorem_id == "conj-1":
                continue  # refuted; criterion 01 covers it
            stream = _in_class_candidates(rng, theorem_id)
            accepted = 0
            attempts = 0
            while accepted < 200:
                attempts += 1
                assert attempts < 40_000, f"cannot populate {theorem_id}"
                family = next(stream)
                if not _structurally_applicable(spec, family):
                    continue
                if spec.uniform_profile and len(
                    {m.size_vector for m in family.members}
                ) > 1:
                    continue
                if spec.hypothesis_class and not getattr(classify(family), spec.hypothesis_class):
                    continue
                report = check_theorem(family, theorem_id)
                assert report.holds, (theorem_id, family)
                accepted += 1


def _random_increasing_family(rng: random.Random, max_n=6, max_d=4, max_m=4) -> Family:
    n = rng.randint(1, max_n)
    d = rng.randint(2, max_d)
    members = []
    seen = set()
    for _ in range(rng.randint(1, max_m)):
        support = sorted(rng.sample(range(1, n + 1), rng.randint(0, n)))
        cuts = sorted(rng.randint(0, len(support)) for _ in range(d - 1))
        bounds = [0] + cuts + [len(support)]
        parts = tuple(
            frozenset(support[bounds[i] : bounds[i + 1]]) for i in range(d)
        )
        member = DPartition(parts)
        if member not in seen:
            seen.add(member)
            members.append(member)
    return Family(GroundSet(n), tuple(members), d)


def test_criterion_11_open_table():
    with criterion("11 open table d=4..5 s=1..6", 120):
        cells = n_table([4, 5], list(range(1, 7)))
        assert len(cells) == 12
        for cell in cells:
            assert not cell.skipped
            assert cell.s // 2 + 1 <= cell.value <= comb(cell.s + cell.d - 1, cell.d - 1)
            witness = cell.witness
            assert witness.m == cell.value
            assert classify(witness).bollobas
            assert witness.support == frozenset(range(1, cell.s + 1))
            assert all(parts_increasing(member) for member in witness.members)


def test_criterion_12_large_supports_and_many_parts(tmp_path):
    # a pair of 7,500-element parts, and 300 parts each holding one element
    with criterion("12 halves of [15000] classified and checked; d=300 searches", 10):
        lower, upper = list(range(1, 7501)), list(range(7501, 15001))
        path = tmp_path / "halves.json"
        members = [[lower, upper], [upper, lower]]
        path.write_text(json.dumps({"n": 15000, "d": 2, "members": members}))
        result = run(["classify", str(path)])
        assert result.status == "ok"
        assert all(result.payload[name] for name in CLASS_NAMES)
        report = run(["check", str(path), "--theorem", "thm-1.1"])
        assert report.status == "ok"
        # 2 / C(15000, 7500) in lowest terms; past the 4,300-digit limit of
        # int-to-string conversion, so the denominator goes through Decimal
        assert report.payload["lhs"] == "1/" + str(Decimal(comb(15000, 7500) // 2))
        for name in ("strong", "bollobas"):
            outcome = run(["search", "--class", name, "--d", "300", "--s", "1"])
            assert outcome.status == "ok" and outcome.payload["value"] == 1


def test_criterion_13_certified_open_cells():
    # N_B(d, s) is the width of L(d-1, s): each value is pinned by a verified
    # chain partition, and n_bollobas re-verifies its clique of that size
    with criterion("13 N_B (5,10)=55, (6,8)=73, (7,7)=94 certified", 20):
        for d, s, expected in ((5, 10, 55), (6, 8, 73), (7, 7, 94)):
            outcome = n_bollobas(d, s)
            assert outcome.value == outcome.witness.m == expected
            assert classify(outcome.witness).bollobas
