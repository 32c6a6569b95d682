"""The golden answer corpus: command lines mapped to their exit code and the
sha256 of their rendered output.

Every command runs in-process through ``cli.run`` and ``cli.render``.  Family
files are written from a fixed seed to a temporary directory, and that
directory is replaced by ``FILES`` in each command line and in its output
before hashing.  A usage error is recorded by its exit code, 2, alone, since
argparse's text differs between Python versions.  The commands of
``out_commands`` run through ``cli.main`` with ``--out``; each records its exit
code and the digests of standard output and of the file written, or None for
a file that could not be written.

    PYTHONPATH=src python tests/golden_corpus.py          # check the corpus
    PYTHONPATH=src python tests/golden_corpus.py --write  # regenerate it

A change that alters an answer on purpose regenerates the corpus and names
every changed command.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
import tempfile
from pathlib import Path

from bollosys import cli
from bollosys.weights import THEOREMS

CORPUS = Path(__file__).with_suffix(".json")
PLACEHOLDER = "FILES"
SEED = 20261020
RANDOM_FAMILIES = 30

# hand-written families, each run through every file command
FIXED_FAMILIES = {
    "intro": '{"n": 2, "d": 3, "members": [[[1], [], [2]], [[], [1, 2], []]]}',
    "blocked": '{"n": 4, "d": 2, "blocks": [[1, 2], [3, 4]], '
               '"members": [[[1, 3], [2, 4]], [[2], [1, 3]]]}',
    "empty": '{"n": 3, "d": 2, "members": []}',
    "uniform": '{"n": 4, "d": 2, '
               '"members": [[[1, 2], [3, 4]], [[3, 4], [1, 2]], [[1, 3], [2, 4]]]}',
    # 12! permutations, past the oracle's cap
    "big": '{"n": 12, "d": 2, "members": [[[1, 2, 3, 4, 5, 6], [7, 8, 9, 10, 11, 12]]]}',
}
# one file per kind of invalid input
INVALID_FILES = {
    "overlap": '{"n": 2, "d": 2, "members": [[[1], [1]]]}',
    "short": '{"n": 2, "d": 3, "members": [[[1], [2]]]}',
    "outside": '{"n": 2, "d": 2, "members": [[[1], [3]]]}',
    "duplicate": '{"n": 2, "d": 2, "members": [[[1], [2]], [[1], [2]]]}',
    "badblocks": '{"n": 3, "d": 2, "blocks": [[1], [1, 2, 3]], "members": []}',
    "notjson": '{"n": 2,',
    "notobject": "[1, 2]",
}


def _random_family(rng: random.Random) -> dict:
    n = rng.randint(1, 5)
    d = rng.randint(1, 4)
    obj: dict = {"n": n, "d": d}
    if n >= 2 and rng.random() < 0.4:
        elements = list(range(1, n + 1))
        rng.shuffle(elements)
        cut = rng.randint(1, n - 1)
        obj["blocks"] = [sorted(elements[:cut]), sorted(elements[cut:])]
    members = set()
    for _ in range(rng.randint(0, 6)):
        parts: list[list[int]] = [[] for _ in range(d)]
        for x in range(1, n + 1):
            where = rng.randint(0, d)  # d leaves x out
            if where < d:
                parts[where].append(x)
        members.add(tuple(map(tuple, parts)))
    obj["members"] = [[list(part) for part in member] for member in sorted(members)]
    return obj


def write_files(directory: Path) -> list[str]:
    """Write every family file into the directory; the names of the valid
    ones, in order."""
    rng = random.Random(SEED)
    texts = {f"r{k}": json.dumps(_random_family(rng)) for k in range(RANDOM_FAMILIES)}
    texts.update(FIXED_FAMILIES)
    for name, text in {**texts, **INVALID_FILES}.items():
        (directory / f"{name}.json").write_text(text)
    return list(texts)


def _file_commands(names: list[str]) -> list[list[str]]:
    commands = []
    for name in names:
        path = f"{PLACEHOLDER}/{name}.json"
        commands += [
            ["classify", path],
            ["sum", path],
            ["sum", "--blocks", path],
            ["sum", "--p", "1/2,1/2", path],
            ["sum", "--p", "1/4,1/4,1/2", path],
            ["lemma-check", path],
        ]
        for theorem in THEOREMS:
            commands += [
                ["check", path, "--theorem", theorem],
                ["check", path, "--theorem", theorem, "--force"],
            ]
    return commands


def commands(names: list[str]) -> list[list[str]]:
    """Every command line of the corpus, with files named under the placeholder."""
    span = range(-1, 8)
    out: list[list[str]] = []
    for system_class in ("weak", "skew", "bollobas", "strong"):
        out += [
            ["search", "--class", system_class, "--d", str(d), "--s", str(s)]
            for d in range(-1, 6) for s in span
        ]
        out.append(["table", "--class", system_class, "--d", "1..5", "--s", "0..7"])
    # tables past s = 7; skew and weak write every vertex, so they stop at d = 4
    out += [
        ["table", "--class", system_class, "--d", d_range, "--s", "8..12"]
        for system_class, d_range in (
            ("weak", "1..4"), ("skew", "1..4"), ("bollobas", "1..6"), ("strong", "1..6")
        )
    ]
    out += [
        ["search", "--class", "bollobas", "--d", str(d), "--s", str(s), "--mode", "general"]
        for d in range(-1, 5) for s in range(-1, 5)
    ]
    out += [
        ["search", "--class", "bollobas", "--d", str(d), "--s", str(s), "--mode", "general"]
        for d in range(-1, 4) for s in (5, 6)
    ]
    out += [["certify", "conj1", "--s", str(s)] for s in range(0, 9)]
    out.append(["list-theorems"])
    out += [
        ["construct", "lex-full", "--params", f"n={n},d={d}"]
        for n in range(0, 4) for d in range(0, 4)
    ]
    out += [["construct", "chain-d3", "--params", f"s={s}"] for s in range(-1, 7)]
    out += [["construct", "expanded-chain", "--params", f"s={s}"] for s in range(-1, 6)]
    out += [["construct", "permutation", "--params", f"n={n}"] for n in range(-1, 6)]
    out += [
        ["construct", "complement-pair", "--params", f"n={n},k={k},d={d}"]
        for n in range(0, 5) for k in range(0, 4) for d in (1, 2, 3)
    ]
    out += [
        ["construct", "matchbox", "--params", params]
        for params in ("a1=1", "a1=1,a2=2", "a1=2,a2=2", "a1=1,a2=1,a3=1", "a1=0,a2=3", "a1=-1")
    ]
    out += _file_commands(names)
    out += [
        # parameters, ranges and flags, most of them refused (exit 3)
        ["construct", "chain-d3"],
        ["construct", "chain-d3", "--params", "s=3,bogus=1"],
        ["construct", "chain-d3", "--params", "s"],
        ["construct", "chain-d3", "--params", "s=x"],
        ["construct", "chain-d3", "--params", "s=1,s=2"],
        ["construct", "matchbox", "--params", "b1=2"],
        ["search", "--class", "bollobas", "--d", "3", "--s", "4", "--cap", "-1"],
        ["search", "--class", "skew", "--d", "3", "--s", "4", "--mode", "general"],
        ["table", "--d", "3..1", "--s", "2"],
        ["table", "--d", "3", "--s", "x"],
        ["table", "--d", "2,3,5", "--s", "1..3"],
        ["table", "--d", "3", "--s", "1..1000000000000"],
        ["table", "--d", "1..100000000000000000000", "--s", "1"],
        ["table", "--d", "1..1001", "--s", "0..99"],
        ["sum", "--p", "1/2,x", f"{PLACEHOLDER}/intro.json"],
        ["sum", "--p", "1/2,1/0", f"{PLACEHOLDER}/intro.json"],
        ["sum", "--decimal", "6", f"{PLACEHOLDER}/intro.json"],
        ["sum", "--decimal", "-1", f"{PLACEHOLDER}/intro.json"],
        ["sum", "--decimal", "100000001", f"{PLACEHOLDER}/intro.json"],
        ["check", f"{PLACEHOLDER}/intro.json", "--theorem", "conj-1", "--decimal", "3"],
        ["check", f"{PLACEHOLDER}/intro.json", "--theorem", "thm-0.0"],
        ["check", f"{PLACEHOLDER}/intro.json", "--theorem", "conj-1", "--p", "1/2,1/2"],
        ["check", f"{PLACEHOLDER}/intro.json", "--theorem", "thm-1.12", "--p", "1/3,1/3,1/3"],
        # cap refusals (exit 4), and table cells skipped past the cap
        ["search", "--class", "bollobas", "--d", "5", "--s", "9", "--cap", "10"],
        ["search", "--class", "skew", "--d", "4", "--s", "6", "--cap", "0"],
        ["search", "--class", "bollobas", "--d", "3", "--s", "5", "--mode", "general", "--cap", "5"],
        ["search", "--class", "bollobas", "--d", "3", "--s", "20000", "--mode", "general"],
        ["search", "--class", "strong", "--d", "10000", "--s", "10000"],
        ["table", "--d", "3,10000", "--s", "10000"],
        ["table", "--d", "2..4", "--s", "0..6", "--cap", "10"],
        ["certify", "conj1", "--s", "6", "--cap", "5"],
        ["construct", "chain-d3", "--params", "s=4", "--cap", "0"],
        ["construct", "permutation", "--params", "n=2000"],
        ["construct", "lex-full", "--params", "n=10000,d=3"],
        ["lemma-check", f"{PLACEHOLDER}/blocked.json", "--cap", "3"],
        ["lemma-check", f"{PLACEHOLDER}/blocked.json", "--cap", "4"],
    ]
    out += [
        [command, f"{PLACEHOLDER}/{name}.json"]
        for command in ("classify", "sum", "lemma-check")
        for name in [*INVALID_FILES, "missing"]
    ]
    # usage errors (exit 2)
    out += [
        [],
        ["frobnicate"],
        ["classify"],
        ["check", f"{PLACEHOLDER}/intro.json"],
        ["sum", "--blocks", "--p", "1/2,1/2", f"{PLACEHOLDER}/intro.json"],
        ["search", "--class", "pair", "--d", "3", "--s", "4"],
        ["search", "--class", "bollobas", "--d", "x", "--s", "4"],
        ["search", "--class", "bollobas", "--d", "3", "--s", "4", "--mode", "fast"],
        ["search", "--class", "bollobas", "--d", "3"],
        ["table", "--s", "1..4"],
        ["certify", "conj2", "--s", "3"],
        ["construct", "nonesuch"],
        ["list-theorems", "--cap", "3"],
        ["sum", f"{PLACEHOLDER}/intro.json", "--cap", "3"],
    ]
    return out


OUT_FILE = f"{PLACEHOLDER}/out.json"


def out_commands() -> list[list[str]]:
    """Commands that also write their JSON to a file: answers, refusals, and
    targets that cannot be written (exit 3)."""
    written = [
        ["classify", f"{PLACEHOLDER}/intro.json"],
        ["sum", "--blocks", f"{PLACEHOLDER}/blocked.json"],
        ["check", f"{PLACEHOLDER}/uniform.json", "--theorem", "thm-1.5", "--pretty"],
        ["search", "--class", "bollobas", "--d", "3", "--s", "4"],
        ["table", "--class", "strong", "--d", "2..3", "--s", "0..3", "--pretty"],
        ["certify", "conj1", "--s", "4"],
        ["construct", "permutation", "--params", "n=3"],
        ["lemma-check", f"{PLACEHOLDER}/blocked.json"],
        ["list-theorems"],
        ["classify", f"{PLACEHOLDER}/overlap.json"],
        ["search", "--class", "skew", "--d", "4", "--s", "6", "--cap", "0"],
    ]
    return [[*argv, "--out", OUT_FILE] for argv in written] + [
        ["list-theorems", "--out", PLACEHOLDER],
        ["certify", "conj1", "--s", "3", "--out", f"{PLACEHOLDER}/missing/out.json"],
    ]


def answer_out(argv: list[str], directory: Path) -> tuple[int, str, str | None]:
    """The exit code of ``cli.main`` and the digests of its standard output
    and of the file it wrote."""
    real = str(directory)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        try:
            cli.main([arg.replace(PLACEHOLDER, real) for arg in argv])
        except SystemExit as exc:
            code = exc.code
    written = Path(OUT_FILE.replace(PLACEHOLDER, real))
    digest = _digest(written.read_text().replace(real, PLACEHOLDER)) if written.is_file() else None
    written.unlink(missing_ok=True)
    return code, _digest(stdout.getvalue().replace(real, PLACEHOLDER)), digest


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def answer(argv: list[str], directory: Path) -> tuple[int, str | None]:
    """The exit code and the digest of the rendered output; no digest for a
    usage error."""
    real = str(directory)
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            result = cli.run([arg.replace(PLACEHOLDER, real) for arg in argv])
    except SystemExit as exc:
        return exc.code, None
    return result.exit_code, _digest(cli.render(result).replace(real, PLACEHOLDER))


def build(directory: Path) -> dict[str, list]:
    """The corpus for the files written into this directory."""
    names = write_files(directory)
    corpus = {" ".join(argv): list(answer(argv, directory)) for argv in commands(names)}
    corpus.update((" ".join(argv), list(answer_out(argv, directory))) for argv in out_commands())
    return corpus


def mismatches(directory: Path) -> list[str]:
    """One line per command whose answer differs from the committed corpus."""
    expected = json.loads(CORPUS.read_text())
    actual = build(directory)
    lines = []
    for command in expected.keys() | actual.keys():
        want, got = expected.get(command), actual.get(command)
        if want == got:
            continue
        if want is None or got is None:
            lines.append(f"{command!r}: {'not in the corpus' if want is None else 'no longer run'}")
        else:
            lines.append(
                f"{command!r}: exit {got[0]}, corpus exit {want[0]}"
                + ("" if got[0] != want[0] else ", output differs")
            )
    return sorted(lines)


def _dump(corpus: dict[str, list]) -> str:
    # one command per line, so a regenerated corpus diffs line by line
    rows = [f"{json.dumps(key)}: {json.dumps(value)}" for key, value in corpus.items()]
    return "{\n" + ",\n".join(rows) + "\n}\n"


def main(argv: list[str]) -> int:
    with tempfile.TemporaryDirectory() as directory:
        if argv == ["--write"]:
            corpus = build(Path(directory))
            CORPUS.write_text(_dump(corpus))
            print(f"wrote {len(corpus)} commands to {CORPUS}")
            return 0
        if argv:
            print(__doc__, file=sys.stderr)
            return 2
        lines = mismatches(Path(directory))
    print("\n".join(lines) or f"all {len(json.loads(CORPUS.read_text()))} commands match")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
