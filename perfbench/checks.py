"""Output checkers that share no code with the commands they check.

Each factory takes what the benchmark itself knows about a command (its
parameters or the family it generated) and returns a function that raises
``CheckFailed`` unless the command's JSON output is exactly right.  The
checkers never import the package: pair predicates, multinomials and sums
are recomputed here from their definitions, on plain sets and ``math.comb``.
Expected values that cost real time are computed once per checker.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cache
from math import comb, factorial, prod

WITNESS_PAIR_CAP = 20_000  # certify bundles pair witnesses up to this many pairs
CLASS_NAMES = ("weak", "skew", "bollobas", "strong", "symmetric")

# N_B(d, s) for d >= 4.  (4,10), (5,8), (5,9), (6,7) and (7,6) are the
# ROADMAP baseline values; (6,5) and the d = 4, 5 rows for s <= 7 were
# recorded from the seed commit's output.  Every reported witness is still
# re-verified below, so a recorded value can only be wrong if the search
# missed a larger clique.
KNOWN_NB = {
    **{(4, s): v for s, v in enumerate((1, 2, 3, 5, 6, 8, 10), start=1)},
    **{(5, s): v for s, v in enumerate((1, 3, 5, 8, 12, 18, 24), start=1)},
    (6, 5): 20, (4, 10): 18, (5, 8): 33, (5, 9): 43, (6, 7): 49, (7, 6): 58,
}


class CheckFailed(Exception):
    """A command's output is not exactly the right answer."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def frac_str(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def multinomial(sizes) -> int:
    total, out = 0, 1
    for a in sizes:
        total += a
        out *= comb(total, a)
    return out


def _parts(member) -> list[set[int]]:
    return [set(part) for part in member]


# Pair predicates from their definitions; p and q are lists of sets.
def _forward(p, q) -> bool:
    return any(p[a] & q[b] for a in range(len(p)) for b in range(a + 1, len(q)))


def _strong(p, q) -> bool:
    # u1 < u2, v1 < v2 with P(u1) meeting Q(v2), P(u2) meeting Q(v1),
    # u1 < v2 and v1 < u2
    d = len(p)
    return any(
        p[u1] & q[v2] and p[u2] & q[v1]
        for u1, u2 in itertools.combinations(range(d), 2)
        for v1, v2 in itertools.combinations(range(d), 2)
        if u1 < v2 and v1 < u2
    )


PAIR = {
    "weak": lambda p, q: _forward(p, q) or _forward(q, p),
    "skew": _forward,
    "bollobas": lambda p, q: _forward(p, q) and _forward(q, p),
    "strong": _strong,
    "symmetric": lambda p, q: any(
        p[a] & q[b] and q[a] & p[b] for a, b in itertools.combinations(range(len(p)), 2)
    ),
}


def _chain_consistent(flags: dict) -> None:
    chain = [flags[name] for name in reversed(CLASS_NAMES)]
    expect(all(not a or b for a, b in zip(chain, chain[1:])), f"flags break the chain: {flags}")


def _check_witness(obj: dict, d: int, s: int, value: int, system_class: str) -> None:
    """A searched witness: ``value`` distinct increasing-parts d-partitions of
    [s], jointly covering [s], pairwise in the class."""
    expect(obj["n"] == s and obj["d"] == d and "blocks" not in obj, "witness ground set")
    members = [_parts(member) for member in obj["members"]]
    expect(len(members) == value, f"witness has {len(members)} members, value {value}")
    expect(len({tuple(map(frozenset, m)) for m in members}) == value, "duplicate members")
    covered: set[int] = set()
    for member in members:
        expect(len(member) == d, "member with the wrong number of parts")
        elements = [x for part in member for x in sorted(part)]
        expect(len(set(elements)) == len(elements), "parts overlap")
        expect(elements == sorted(elements), "parts are not increasing")
        expect(all(1 <= x <= s for x in elements), "element outside [s]")
        covered |= set(elements)
    expect(covered == set(range(1, s + 1)), "witness does not cover [s]")
    pair = PAIR[system_class]
    for i, j in itertools.combinations(range(value), 2):
        expect(pair(members[i], members[j]), f"witness pair ({i}, {j}) is not {system_class}")


def known_value(system_class: str, d: int, s: int) -> int:
    if system_class == "strong":
        return 1
    if d == 2:
        return 1
    if d == 3:
        return s // 2 + 1
    return KNOWN_NB[(d, s)]


def search(d: int, s: int, system_class: str, mode: str):
    expected = known_value(system_class, d, s)

    def check(obj: dict) -> None:
        expect(
            (obj["class"], obj["mode"], obj["exhaustive"], obj["d"], obj["s"])
            == (system_class, mode, True, d, s),
            "search header",
        )
        expect(obj["value"] == expected, f"N({d},{s}) = {obj['value']}, known {expected}")
        _check_witness(obj["witness"], d, s, expected, system_class)

    return check


def _range(text: str) -> list[int]:
    lo, hi = text.split("..")
    return list(range(int(lo), int(hi) + 1))


def table(d_text: str, s_text: str):
    d_values, s_values = _range(d_text), _range(s_text)

    def check(obj: dict) -> None:
        expect(obj["class"] == "bollobas", "table class")
        expect(obj["d_values"] == d_values and obj["s_values"] == s_values, "table grid")
        grid = list(itertools.product(d_values, s_values))
        expect(len(obj["cells"]) == len(grid), "table cell count")
        for (d, s), cell in zip(grid, obj["cells"]):
            expect((cell["d"], cell["s"]) == (d, s), "table cell order")
            expect(not cell.get("skipped"), f"cell ({d},{s}) skipped")
            value = cell["value"]
            if d >= 3:
                expect(s // 2 + 1 <= value <= comb(s + d - 1, d - 1), f"cell ({d},{s}) bounds")
            expect(value == known_value("bollobas", d, s), f"cell ({d},{s}) = {value}")
            _check_witness(cell["witness"], d, s, value, "bollobas")

    return check


def certify(s: int):
    types = [(l - 1, s - 2 * l + 2, l - 1) for l in range(1, s // 2 + 2)]
    m = sum(multinomial(t) for t in types)
    pairs = m * (m - 1) // 2

    def check(obj: dict) -> None:
        expect(obj["sum"] == f"{s // 2 + 1}/1", f"sum {obj['sum']}")
        expect(obj["conjectured_bound"] == "1/1" and obj["refutes"] is True, "refutes")
        expect(obj["classification"]["bollobas"] is True, "bollobas flag")
        _chain_consistent(obj["classification"])
        family = obj["family"]
        expect(family["n"] == s and family["d"] == 3 and "blocks" not in family, "ground set")
        members = [_parts(member) for member in family["members"]]
        expect(len(members) == m, f"{len(members)} members, expected {m}")
        # distinct full members of the chain types, as many as the types
        # hold: every type appears complete, so the sum is the type count
        seen = set()
        for member in members:
            expect(set().union(*member) == set(range(1, s + 1)), "member not full")
            expect(tuple(len(part) for part in member) in types, "member of a foreign type")
            seen.add(tuple(map(frozenset, member)))
        expect(len(seen) == m, "duplicate members")
        expect(obj["pairs_checked"] == pairs, "pairs_checked")
        witnesses = obj["pair_witnesses"]
        if pairs > WITNESS_PAIR_CAP:
            expect(witnesses is None and "pair_witnesses_omitted" in obj, "witnesses present")
            return
        expect(witnesses is not None and len(witnesses) == pairs, "witness count")
        for (i, j), w in zip(itertools.combinations(range(m), 2), witnesses):
            expect(w["members"] == [i, j], "witness order")
            for (a, b, x), (p, q) in ((w["forward"], (i, j)), (w["backward"], (j, i))):
                expect(a < b and x in members[p][a] and x in members[q][b], f"witness {i},{j}")

    return check


def permutation(n: int):
    @cache
    def expected() -> dict:
        members = [[[x] for x in perm] for perm in itertools.permutations(range(1, n + 1))]
        return {"n": n, "d": n, "members": members}

    def check(obj: dict) -> None:
        expect(obj == expected(), "permutation family differs")

    return check


def complement_pair(n: int, k: int, d: int):
    @cache
    def expected() -> dict:
        members = [
            [list(first), [x for x in range(1, n + 1) if x not in first]] + [[]] * (d - 2)
            for first in itertools.combinations(range(1, n + 1), k)
        ]
        return {"n": n, "d": d, "members": members}

    def check(obj: dict) -> None:
        expect(obj == expected(), "complement-pair family differs")

    return check


def classify(family: dict):
    """The generator makes this family weak (see workloads.random_family);
    the other classes are decided here by a lexicographic pair scan."""

    @cache
    def expected() -> dict:
        members = [_parts(member) for member in family["members"]]
        alive = {name: True for name in CLASS_NAMES if name != "weak"}
        violations = {}
        for i, j in itertools.combinations(range(len(members)), 2):
            for name in [name for name, ok in alive.items() if ok]:
                if not PAIR[name](members[i], members[j]):
                    alive[name] = False
                    violations[name] = [i, j]
            if not any(alive.values()):
                break
        out = {"weak": True, **alive, "m": len(members)}
        if violations:
            out["witness_violations"] = violations
        return out

    def check(obj: dict) -> None:
        _chain_consistent(obj)
        truth = expected()
        for name in CLASS_NAMES:
            expect(obj[name] is truth[name], f"{name} flag")
        expect(obj == truth, "first violations differ")

    return check


def _block_rows(family: dict):
    """Per member, its per-block rows of part sizes, and the block support sizes."""
    n = family["n"]
    blocks = [set(block) for block in family.get("blocks", [range(1, n + 1)])]
    support = {x for member in family["members"] for part in member for x in part}
    sizes = [len(block & support) for block in blocks]
    rows = [
        [[len(block.intersection(part)) for part in member] for block in blocks]
        for member in family["members"]
    ]
    return rows, sizes


def lemma_check(family: dict):
    @cache
    def expected() -> dict:
        rows, sizes = _block_rows(family)
        blocked = sum(
            (Fraction(1, prod(multinomial(row) for row in member)) for member in rows),
            Fraction(0),
        )
        lhs = prod(factorial(s) for s in sizes) * blocked
        expect(lhs.denominator == 1, "lhs is not an integer")
        return {"lhs": int(lhs), "rhs": int(lhs), "equal": True}

    def check(obj: dict) -> None:
        expect(obj == expected(), f"lemma-check {obj} != {expected()}")

    return check


def _sum_check(kind: str, terms, extra=None):
    @cache
    def expected() -> dict:
        total = sum(terms(), Fraction(0))
        return {"kind": kind, **(extra or {}), "sum": frac_str(total)}

    def check(obj: dict) -> None:
        expect(obj == expected(), f"{kind} sum differs")

    return check


def sum_plain(family: dict):
    return _sum_check("inverse-multinomial", lambda: (
        Fraction(1, multinomial([len(part) for part in member])) for member in family["members"]
    ))


def sum_blocked(family: dict):
    return _sum_check("blocked-inverse-multinomial", lambda: (
        Fraction(1, prod(multinomial(row) for row in member))
        for member in _block_rows(family)[0]
    ))


def sum_product(family: dict, p_text: str):
    p = [Fraction(x) for x in p_text.split(",")]
    return _sum_check(
        "product-weight",
        lambda: (
            prod((w ** len(part) for w, part in zip(p, member)), start=Fraction(1))
            for member in family["members"]
        ),
        {"p": [frac_str(w) for w in p]},
    )
