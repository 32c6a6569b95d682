"""Seeded inputs and command lists for the four benchmark workloads.

Every input the program sees is a family JSON file written here from
``random.Random`` seeded by the workload name and ``--seed``; the program
receives nothing else.  Each command carries the checker for its output,
built from the generator's own data, so no check reads back what the
program computed to decide what is right.

Workloads, and the layer each one is built to load:

* ``verify``   classify.  conj1 certificates (s=6 runs the per-pair
  witness loop, s=7 skips it), the permutation family (keeps the strong scan
  alive), the d=6 complement-pair family (keeps the strong and symmetric
  scans alive) and a random family of non-full members that stays weak, so
  ``classify`` scans every pair.  Also the JSON write path.
* ``search``   search.  Clique searches with known N_B values, a table of
  small cells, one ``--mode general`` cell and one strong-class cell.  The
  seed does not change these inputs.
* ``oracle``   permoracle.  ``lemma-check`` on the conj1 s=6 family, a
  single-block random family and a two-block random family.
* ``sums``     core, weights, familyjson load.  Exact sums over random
  blocked families with thousands of members; nothing is classified.

Sizes are passed as arguments so the self-test can run the same workloads
at tiny sizes.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks


@dataclass(frozen=True)
class Command:
    kind: str  # the CLI command type, e.g. "certify"
    argv: tuple[str, ...]
    check: Callable[[dict], None]


def random_family(
    rng: random.Random,
    n: int,
    d: int,
    m: int,
    keep: int,
    omit: float,
    blocks: list[list[int]] | None = None,
) -> dict:
    """m members over [n] as a family JSON object.

    Elements 1..keep are always placed, and the members' restrictions to
    them are distinct full d-partitions: the members are therefore
    distinct, and any two cross-intersect in some direction, so the family
    is weak.  Each later element is left out with probability ``omit``.
    Every element of [n] ends up used, so the family support is all of [n].
    """
    codes = rng.sample(range(d**keep), m)
    members = []
    for code in codes:
        parts: list[list[int]] = [[] for _ in range(d)]
        for x in range(1, keep + 1):
            code, r = divmod(code, d)
            parts[r].append(x)
        for x in range(keep + 1, n + 1):
            if rng.random() >= omit:
                parts[rng.randrange(d)].append(x)
        members.append(parts)
    used = {x for member in members for part in member for x in part}
    for x in range(1, n + 1):
        if x not in used:
            members[0][0].append(x)
    for member in members:
        for part in member:
            part.sort()
    obj: dict = {"n": n, "d": d, "members": members}
    if blocks is not None:
        obj["blocks"] = blocks
    return obj


def conj1_family(s: int) -> dict:
    """The conj1 counterexample family for ``s``, built from its definition:
    every full 3-partition of [s] with size vector (l-1, s-2l+2, l-1)."""
    ground = range(1, s + 1)
    members = []
    for l in range(1, s // 2 + 2):
        for first in itertools.combinations(ground, l - 1):
            rest = [x for x in ground if x not in first]
            for last in itertools.combinations(rest, l - 1):
                middle = [x for x in rest if x not in last]
                members.append([list(first), middle, list(last)])
    return {"n": s, "d": 3, "members": members}


def _write(path: Path, obj: dict) -> str:
    path.write_text(json.dumps(obj))
    return str(path)


def _blocks(sizes: list[int]) -> list[list[int]]:
    out, start = [], 1
    for size in sizes:
        out.append(list(range(start, start + size)))
        start += size
    return out


def verify(work: Path, rng: random.Random, certify_s=(6, 7), perm_n=5,
           complement=(10, 5, 6), classify_m=400) -> list[Command]:
    family = random_family(rng, n=10, d=4, m=classify_m, keep=5, omit=0.3)
    path = _write(work / "classify.json", family)
    commands = [
        Command("certify", ("certify", "conj1", "--s", str(s)), checks.certify(s))
        for s in certify_s
    ]
    commands.append(Command(
        "construct", ("construct", "permutation", "--params", f"n={perm_n}"),
        checks.permutation(perm_n),
    ))
    n, k, d = complement
    commands.append(Command(
        "construct", ("construct", "complement-pair", "--params", f"n={n},k={k},d={d}"),
        checks.complement_pair(n, k, d),
    ))
    commands.append(Command("classify", ("classify", path), checks.classify(family)))
    return commands


def search(work: Path, rng: random.Random, cells=((4, 10), (5, 6), (6, 5)),
           table=("3..5", "1..6"), general=(3, 5), strong=(4, 10)) -> list[Command]:
    commands = [
        Command("search", ("search", "--class", "bollobas", "--d", str(d), "--s", str(s)),
                checks.search(d, s, "bollobas", "full-only"))
        for d, s in cells
    ]
    commands.append(Command(
        "table", ("table", "--class", "bollobas", "--d", table[0], "--s", table[1]),
        checks.table(table[0], table[1]),
    ))
    d, s = general
    commands.append(Command(
        "search",
        ("search", "--class", "bollobas", "--d", str(d), "--s", str(s), "--mode", "general"),
        checks.search(d, s, "bollobas", "general"),
    ))
    d, s = strong
    commands.append(Command(
        "search", ("search", "--class", "strong", "--d", str(d), "--s", str(s)),
        checks.search(d, s, "strong", "full-only"),
    ))
    return commands


def oracle(work: Path, rng: random.Random, conj1_s=6, single=(6, 80),
           blocked=((4, 4), 60)) -> list[Command]:
    n, m = single
    sizes, blocked_m = blocked
    families = {
        "conj1": conj1_family(conj1_s),
        "single": random_family(rng, n=n, d=3, m=m, keep=5, omit=0.3),
        "blocked": random_family(rng, n=sum(sizes), d=3, m=blocked_m, keep=5,
                                 omit=0.3, blocks=_blocks(list(sizes))),
    }
    return [
        Command("lemma-check", ("lemma-check", _write(work / f"{name}.json", family)),
                checks.lemma_check(family))
        for name, family in families.items()
    ]


def sums(work: Path, rng: random.Random, m=3000) -> list[Command]:
    families = {
        "sum3": random_family(rng, n=12, d=4, m=m, keep=6, omit=0.25,
                              blocks=_blocks([4, 4, 4])),
        "sum2": random_family(rng, n=12, d=3, m=m, keep=8, omit=0.25,
                              blocks=_blocks([6, 6])),
    }
    commands = []
    for name, family in families.items():
        path = _write(work / f"{name}.json", family)
        weights = [rng.randint(1, 9) for _ in range(family["d"])]
        p = ",".join(f"{w}/{sum(weights)}" for w in weights)
        commands += [
            Command("sum", ("sum", path), checks.sum_plain(family)),
            Command("sum", ("sum", "--blocks", path), checks.sum_blocked(family)),
            Command("sum", ("sum", "--p", p, path), checks.sum_product(family, p)),
        ]
    return commands


WORKLOADS: dict[str, Callable[..., list[Command]]] = {
    "verify": verify,
    "search": search,
    "oracle": oracle,
    "sums": sums,
}


def make(name: str, work: Path, seed: int, **sizes) -> list[Command]:
    """Write the workload's input files under ``work`` and return its commands."""
    return WORKLOADS[name](work, random.Random(f"{name}:{seed}"), **sizes)
