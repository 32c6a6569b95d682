import gc
import hashlib
import json
import math
import os
import random
import subprocess
import sys
import tracemalloc
from decimal import Decimal, localcontext
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from bollosys import Family, GroundSet, DPartition
from bollosys import cli, constructions
from bollosys.cli import CommandResult, render, run
from bollosys.familyjson import (
    RecordTable,
    certificate_to_obj,
    family_from_obj,
    family_to_obj,
    frac_str,
    load_family,
    parse_frac,
)
from bollosys.constructions import lex_full_family, matchbox_weak_family
from bollosys.core import InvariantError, VerificationError
from fractions import Fraction


SRC = Path(__file__).resolve().parents[1] / "src"


def dp(*parts):
    return DPartition(tuple(frozenset(p) for p in parts))


INTRO = {
    "n": 2,
    "d": 3,
    "members": [[[1], [], [2]], [[], [1, 2], []]],
}


NESTED_FAMILIES = [
    ({"n": 2, "d": 1, "members": [[[[1]]]]}, "list of integers"),
    ({"n": 2, "d": 1, "blocks": [[[1]], [2]], "members": [[[1, 2]]]}, "blocks"),
]

LOAD_ERRORS = [
    ({"n": 2, "d": 2, "members": [[[True], []]]},
     "part: elements must be integers >= 1, got True"),
    ({"n": 2, "d": 2, "members": [[[1.0], []]]},
     "part: elements must be integers >= 1, got 1.0"),
    ({"n": 2, "d": 2, "members": [[[0], [1]]]},
     "part: elements must be integers >= 1, got 0"),
    ({"n": 2, "d": 2, "members": [[[1], [-2]]]},
     "part: elements must be integers >= 1, got -2"),
    ({"n": 2, "d": 2, "members": [[[1], [1.0]]]},
     "part: elements must be integers >= 1, got 1.0"),
    ({"n": 2, "d": 2, "members": [[[2], []], [[1], [1]]]},
     "parts must be pairwise disjoint"),
    ({"n": 2, "d": 2, "members": [[[1], [2]], [[3], []]]},
     "member 1 uses elements outside [n]"),
    ({"n": 2, "d": 1, "blocks": [[1], [1.0, 2]], "members": [[[1]]]},
     "block: elements must be integers >= 1, got 1.0"),
    ({"n": 2, "d": 0, "members": []}, "d must be at least 1"),
    ({"n": 2, "d": 0, "members": [[]]}, "d must be at least 1"),
    ({"n": 2, "d": 0, "members": [[[1]]]}, "d must be at least 1"),
    ({"n": 2, "d": -1, "members": [[[1]]]}, "d must be at least 1"),
    ({"n": 2, "d": 2, "blocks": [], "members": [[[1], [2]]]}, "blocks must union to {1..n}"),
]


@pytest.fixture
def intro_file(tmp_path):
    path = tmp_path / "intro.json"
    path.write_text(json.dumps(INTRO))
    return str(path)


class TestFamilyJson:
    def test_round_trip(self):
        for family in (
            lex_full_family(2, 3),
            matchbox_weak_family([1, 2]),
            Family(GroundSet(3, (frozenset({1, 3}), frozenset({2}))), (dp({1}, {2}),), 2),
        ):
            assert family_from_obj(family_to_obj(family)) == family

    def test_blocks_default_omitted(self):
        obj = family_to_obj(lex_full_family(2, 2))
        assert "blocks" not in obj

    def test_missing_key_cited(self):
        with pytest.raises(InvariantError, match="'members'"):
            family_from_obj({"n": 2, "d": 2})

    @pytest.mark.parametrize("members, message", [
        # 1 in one member, an equal true or 1.0 in a later one
        ([[[1], [2]], [[True], [2]]], "part: elements must be integers >= 1, got True"),
        ([[[1], [2]], [[2], [True]]], "part: elements must be integers >= 1, got True"),
        ([[[1], [2]], [[1.0], [2]]], "part: elements must be integers >= 1, got 1.0"),
        ([[[1, 2], []], [[2, True], [3]]], "part: elements must be integers >= 1, got True"),
        ([[[1], [2]], [[2], [1]], [[2, 1.0], []]], "part: elements must be integers >= 1, got 1.0"),
        # a part that lists an element twice
        ([[[1], [2]], [[1, 1], [2]]], "member 1: a part must not list an element twice"),
        ([[[1, 1.0], [2]]], "member 0: a part must not list an element twice"),
        ([[[1], [2]], [[2, 2], []], [[True], []]], "member 1: a part must not list an element twice"),
        ([[[True], []], [[2, 2], []]], "part: elements must be integers >= 1, got True"),
        ([[[1], [2]], [[2], [1, 2]]], "parts must be pairwise disjoint"),
        ([[[1], [2]], [[[1]], [2]]], "member 1: each part must be a list of integers"),
    ])
    def test_shared_parts_keep_the_member_texts(self, tmp_path, members, message):
        path = tmp_path / "family.json"
        path.write_text(json.dumps({"n": 3, "d": 2, "members": members}))
        with pytest.raises(InvariantError) as info:
            load_family(path)
        assert str(info.value) == message

    def test_loaded_family_shares_equal_parts(self, tmp_path):
        path = tmp_path / "family.json"
        path.write_text(json.dumps({"n": 3, "d": 2, "members": [
            [[1, 2], [3]], [[3], [2, 1]], [[2, 1], []]]}))
        a, b, c = load_family(path).members
        assert a.parts[0] is b.parts[1] is c.parts[0] and a.parts[1] is b.parts[0]
        assert a.support is b.support and a.support == {1, 2, 3}

    def test_loaded_family_memory(self, tmp_path):
        """A seeded 3,000-member family over blocks 4+4+4 keeps under 2.5 MiB
        once loaded; a frozenset per part and per support kept 5.8 MiB."""
        rng = random.Random(1)
        n, d, keep = 12, 4, 6
        members = []
        for code in rng.sample(range(d**keep), 3000):  # distinct on 1..keep
            parts = [[] for _ in range(d)]
            for x in range(1, n + 1):
                if x <= keep:
                    code, r = divmod(code, d)
                    parts[r].append(x)
                elif rng.random() >= 0.25:
                    parts[rng.randrange(d)].append(x)
            members.append(parts)
        blocks = [[1, 2, 3, 4], [5, 6, 7, 8], [9, 10, 11, 12]]
        path = tmp_path / "family.json"
        path.write_text(json.dumps({"n": n, "d": d, "blocks": blocks, "members": members}))
        del members
        load_family(path)  # first-use allocations are not the family's
        gc.collect()
        tracemalloc.start()
        try:
            family = load_family(path)
            kept, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert family.m == 3000
        assert kept < 2.5 * 2**20, f"{kept / 2**20:.2f} MiB kept"

    def test_overlapping_parts_cited(self):
        bad = {"n": 2, "d": 2, "members": [[[1, 2], [2]]]}
        with pytest.raises(InvariantError, match="disjoint"):
            family_from_obj(bad)

    def test_wrong_part_count_cited(self):
        bad = {"n": 2, "d": 3, "members": [[[1], [2]]]}
        with pytest.raises(InvariantError, match="exactly d=3"):
            family_from_obj(bad)

    def test_frac_round_trip(self):
        assert frac_str(Fraction(3, 2)) == "3/2"
        assert frac_str(2) == "2/1"
        assert parse_frac("3/2") == Fraction(3, 2)
        assert parse_frac("4") == 4

    def test_frac_exponent_limit(self):
        assert parse_frac("1/2") == Fraction(1, 2)
        assert parse_frac("0.25") == Fraction(1, 4)
        assert parse_frac("1e-3") == Fraction(1, 1000)
        assert parse_frac("1E-4300") == Fraction(1, 10**4300)
        assert parse_frac("1e+4300") == 10**4300
        for text in ("1e-4301", "1e4301", " 7E-5000 "):
            with pytest.raises(InvariantError, match=f"exponent of '{text}' exceeds 4300"):
                parse_frac(text)
        # text that is no rational keeps its refusal, however long the exponent
        for text in ("abce9999", "1/2e5000", "1e5000e1", "1.2.3e5000"):
            with pytest.raises(InvariantError, match="not a rational"):
                parse_frac(text)


class TestCliCommands:
    def test_classify(self, intro_file):
        result = run(["classify", intro_file])
        assert result.status == "ok" and result.exit_code == 0
        assert result.payload["bollobas"] is True
        assert result.payload["strong"] is False
        assert result.payload["witness_violations"]["strong"] == [0, 1]

    def test_sum_plain_blocked_and_weights(self, intro_file):
        assert run(["sum", intro_file]).payload["sum"] == "3/2"
        blocked = run(["sum", intro_file, "--blocks"]).payload
        assert blocked["sum"] == "3/2"  # single default block
        weighted = run(["sum", intro_file, "--p", "1/4,1/4,1/2"]).payload
        assert weighted["kind"] == "product-weight"

    def test_sum_decimal_rendering(self, intro_file):
        payload = run(["sum", intro_file, "--decimal", "4"]).payload
        assert payload["sum"] == "3/2"
        assert payload["sum_decimal"] == "1.5000"

    def test_check_decimal_rendering(self, intro_file):
        payload = run(["check", intro_file, "--theorem", "conj-1", "--decimal", "2"]).payload
        assert payload["lhs_decimal"] == "1.50"
        assert payload["rhs_decimal"] == "1.00"

    def test_construct_missing_param_is_invalid_input(self):
        result = run(["construct", "lex-full", "--params", "n=2"])
        assert result.status == "invalid_input"
        assert "parameter 'd'" in result.payload["error"]

    def test_check_ok_violation_is_still_ok_status(self, intro_file):
        result = run(["check", intro_file, "--theorem", "conj-1"])
        assert result.status == "ok"
        assert result.payload["holds"] is False
        assert result.payload["lhs"] == "3/2"

    def test_check_wrong_d_is_hypothesis_failure(self, intro_file):
        result = run(["check", intro_file, "--theorem", "thm-1.1"])
        assert result.status == "hypothesis_failed" and result.exit_code == 1

    def test_check_force_marks_report(self, tmp_path):
        path = tmp_path / "notweak.json"
        path.write_text(json.dumps({"n": 2, "d": 2, "members": [[[1], []], [[2], []]]}))
        strict = run(["check", str(path), "--theorem", "thm-1.12"])
        assert strict.status == "hypothesis_failed"
        forced = run(["check", str(path), "--theorem", "thm-1.12", "--force"])
        assert forced.status == "hypothesis_failed"
        assert forced.payload["hypothesis_failed"] is True
        assert "lhs" in forced.payload

    def test_construct_output_is_family_schema(self, tmp_path):
        result = run(["construct", "chain-d3", "--params", "s=4"])
        assert result.status == "ok"
        family = family_from_obj(result.payload)
        assert family.m == 3
        out = tmp_path / "family.json"
        out.write_text(render(result))
        assert load_family(out).m == 3

    def test_construct_matchbox_params(self):
        result = run(["construct", "matchbox", "--params", "a1=1,a2=2"])
        assert result.status == "ok"
        assert len(result.payload["members"]) == 3

    def test_construct_unused_params_rejected(self):
        result = run(["construct", "chain-d3", "--params", "s=4,bogus=1"])
        assert result.status == "invalid_input" and result.exit_code == 3

    def test_construct_repeated_param_rejected(self):
        result = run(["construct", "permutation", "--params", "n=3, n=2"])
        assert result.status == "invalid_input" and result.exit_code == 3
        assert result.payload == {"error": "parameter 'n' is given more than once"}

    def test_search(self):
        result = run(["search", "--class", "bollobas", "--d", "3", "--s", "7"])
        assert result.payload["value"] == 4
        assert result.payload["exhaustive"] is True
        witness = family_from_obj(result.payload["witness"])
        assert witness.m == 4

    def test_search_cap_exit(self):
        result = run(["search", "--class", "bollobas", "--d", "5", "--s", "9", "--cap", "10"])
        assert result.status == "cap_exceeded" and result.exit_code == 4

    def test_search_cap_zero_is_a_cap(self):
        result = run(["search", "--class", "bollobas", "--d", "4", "--s", "6", "--cap", "0"])
        assert result.status == "cap_exceeded" and result.exit_code == 4

    def test_negative_cap_invalid_input(self):
        result = run(["search", "--class", "bollobas", "--d", "4", "--s", "6", "--cap", "-1"])
        assert result.status == "invalid_input" and result.exit_code == 3
        assert "non-negative" in result.payload["error"]

    def test_construct_chain_cap(self):
        result = run(["construct", "chain-d3", "--params", "s=4", "--cap", "0"])
        assert result.status == "cap_exceeded" and result.exit_code == 4
        assert "3 members, cap is 0" in result.payload["error"]
        assert run(["construct", "chain-d3", "--params", "s=4", "--cap", "3"]).exit_code == 0

    @pytest.mark.parametrize("argv", [
        ["classify", "FAMILY"],
        ["sum", "FAMILY"],
        ["check", "FAMILY", "--theorem", "conj-1"],
        ["list-theorems"],
    ])
    def test_cap_rejected_where_not_honoured(self, intro_file, argv):
        argv = [intro_file if a == "FAMILY" else a for a in argv]
        assert run(argv).exit_code == 0
        with pytest.raises(SystemExit) as info:
            run(argv + ["--cap", "5"])
        assert info.value.code == 2

    def test_sum_blocks_and_weights_are_exclusive(self, intro_file):
        # each flag picks one sum, so asking for both is a usage error
        assert run(["sum", intro_file, "--blocks"]).exit_code == 0
        assert run(["sum", intro_file, "--p", "1/4,1/4,1/2"]).exit_code == 0
        with pytest.raises(SystemExit) as info:
            run(["sum", intro_file, "--blocks", "--p", "1/4,1/4,1/2"])
        assert info.value.code == 2

    def test_lemma_check_cap(self, tmp_path):
        # one block with a support of 4 elements: 4! = 24 permutations
        path = tmp_path / "s4.json"
        path.write_text(json.dumps(
            {"n": 4, "d": 2, "members": [[[1, 2], [3, 4]], [[4], [1, 3]], [[2], []]]}
        ))
        plain = run(["lemma-check", str(path)])
        assert plain.exit_code == 0 and plain.payload["equal"] is True
        refused = run(["lemma-check", str(path), "--cap", "23"])
        assert refused.status == "cap_exceeded" and refused.exit_code == 4
        assert refused.payload == {"error": "permutation group has 24 elements, cap is 23"}
        capped = run(["lemma-check", str(path), "--cap", "24"])
        assert capped.exit_code == 0
        assert capped.payload == plain.payload

    def test_lemma_check_on_the_s8_expanded_chain(self, tmp_path):
        # conj1 at s = 8: one block of 8 elements, so 8! = 40320 orders
        path = tmp_path / "s8.json"
        path.write_text(render(run(["construct", "expanded-chain", "--params", "s=8"])))
        result = run(["lemma-check", str(path)])
        assert result.exit_code == 0
        assert result.payload == {"lhs": 201600, "rhs": 201600, "equal": True}

    def test_search_general_mode_restricted_to_bollobas(self):
        result = run(["search", "--class", "skew", "--d", "2", "--s", "2",
                      "--mode", "general"])
        assert result.status == "invalid_input"

    def test_outputs_deterministic(self):
        first = run(["search", "--class", "bollobas", "--d", "4", "--s", "5"])
        second = run(["search", "--class", "bollobas", "--d", "4", "--s", "5"])
        assert first.payload == second.payload
        c1 = run(["certify", "conj1", "--s", "3"]).payload
        c2 = run(["certify", "conj1", "--s", "3"]).payload
        assert c1 == c2
        # the witness tables are two tables, equal by value
        assert c1["pair_witnesses"] is not c2["pair_witnesses"]
        assert c1["pair_witnesses"] == c2["pair_witnesses"]

    def test_table(self):
        result = run(["table", "--class", "bollobas", "--d", "3", "--s", "1..4"])
        values = [cell["value"] for cell in result.payload["cells"]]
        assert values == [1, 2, 2, 3]
        assert result.pretty.startswith("d\\s")

    @pytest.mark.parametrize("flag, other", [("--d", "--s"), ("--s", "--d")])
    def test_table_reversed_range_invalid_input(self, flag, other):
        result = run(["table", "--class", "bollobas", flag, "3..1", other, "2"])
        assert result.status == "invalid_input" and result.exit_code == 3
        assert "'3..1'" in result.payload["error"]

    @pytest.mark.parametrize("d, s, count", [
        ("3", "1..1000000000000", 10**12),
        ("1..100000000000000000000", "1", 10**20),
        ("1..1001", "0..99", 100_100),
        ("1..100001", "5", 100_001),
    ])
    def test_table_grid_limit(self, d, s, count):
        # refused from the bounds alone, before any value is listed
        result = run(["table", "--d", d, "--s", s])
        assert result.status == "invalid_input" and result.exit_code == 3
        assert result.payload == {
            "error": f"table needs at most {cli.MAX_TABLE_CELLS} cells, got {count}"
        }

    def test_search_many_parts_no_recursion_limit(self):
        # one vertex, the composition (0, ..., 0), far past the default
        # recursion limit in part count
        result = run(["search", "--class", "bollobas", "--d", "1500", "--s", "0"])
        assert result.exit_code == 0
        assert result.payload["value"] == 1
        assert len(result.payload["witness"]["members"]) == 1

    def test_table_many_parts_no_recursion_limit(self):
        result = run(["table", "--class", "bollobas", "--d", "1500", "--s", "0..0"])
        assert result.exit_code == 0
        (cell,) = result.payload["cells"]
        assert (cell["d"], cell["s"], cell["value"]) == (1500, 0, 1)
        assert len(cell["witness"]["members"]) == 1

    def test_certify(self):
        result = run(["certify", "conj1", "--s", "2"])
        assert result.status == "ok"
        payload = result.payload
        assert payload["sum"] == "2/1"
        assert payload["refutes"] is True
        assert payload["classification"]["bollobas"] is True
        family = family_from_obj(payload["family"])
        assert family.m == 3

    def test_lemma_check(self, intro_file):
        result = run(["lemma-check", intro_file])
        assert result.payload == {"lhs": 3, "rhs": 3, "equal": True}

    def test_list_theorems(self):
        result = run(["list-theorems"])
        ids = {t["id"] for t in result.payload["theorems"]}
        assert {"thm-1.1", "thm-1.7", "thm-1.10", "thm-1.12", "thm-weak-blocked",
                "thm-5.1", "conj-1"} <= ids
        described = {t["id"]: t["description"] for t in result.payload["theorems"]}
        assert described["thm-4.1"].endswith(
            "extremal family size over increasing-parts partitions of the support, "
            "certified by a chain partition."
        )

    def test_malformed_family_exit_3(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": 2, "d": 2, "members": [[[1, 2], [2]]]}))
        result = run(["classify", str(path)])
        assert result.status == "invalid_input" and result.exit_code == 3
        assert "disjoint" in result.payload["error"]

    @pytest.mark.parametrize("obj, cited", NESTED_FAMILIES)
    def test_nested_family_json_exit_3(self, tmp_path, obj, cited):
        path = tmp_path / "nested.json"
        path.write_text(json.dumps(obj))
        result = run(["classify", str(path)])
        assert result.status == "invalid_input" and result.exit_code == 3
        assert cited in result.payload["error"]

    @pytest.mark.parametrize("argv", [
        ["classify"], ["sum"], ["sum", "--blocks"], ["check", "--theorem", "thm-1.1"],
        ["lemma-check"],
    ], ids=" ".join)
    def test_empty_block_list_refused(self, tmp_path, argv):
        # an empty block list covers nothing, unless [n] is itself empty;
        # omitted and null blocks stand for the one block [n]
        path = tmp_path / "family.json"
        members = [[[1], [2]]]
        for blocks, n, code in (([], 2, 3), ([], 0, 0), (None, 2, 0)):
            obj = {"n": n, "d": 2, "blocks": blocks, "members": members if n else []}
            path.write_text(json.dumps(obj))
            result = run([argv[0], str(path), *argv[1:]])
            assert result.exit_code == code, (blocks, n, result.payload)
            if code:
                assert result.payload == {"error": "blocks must union to {1..n}"}

    @pytest.mark.parametrize("obj, message", LOAD_ERRORS)
    def test_sum_load_error_text(self, tmp_path, obj, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj))
        result = run(["sum", str(path)])
        assert result.status == "invalid_input" and result.exit_code == 3
        assert result.payload == {"error": message}

    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as info:
            run(["frobnicate"])
        assert info.value.code == 2

    def test_out_to_a_directory_is_invalid_input(self, tmp_path, capsys):
        from bollosys.cli import main

        with pytest.raises(SystemExit) as info:
            main(["list-theorems", "--out", str(tmp_path)])
        assert info.value.code == 3
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert payload["status"] == "invalid_input"
        assert payload["error"].startswith(f"cannot write output file {str(tmp_path)!r}: ")
        assert "theorems" not in payload and captured.err == ""

    def test_unknown_theorem_invalid_input(self, intro_file):
        result = run(["check", intro_file, "--theorem", "thm-0.0"])
        assert result.status == "invalid_input"

    def test_out_and_pretty_flags_round_trip(self, tmp_path, capsys):
        from bollosys.cli import main

        out = tmp_path / "result.json"
        family = str(_write_intro(tmp_path))
        with pytest.raises(SystemExit) as info:
            main(["classify", "--out", str(out), "--pretty", family])
        assert info.value.code == 0
        captured = capsys.readouterr()
        expected = render(run(["classify", family])) + "\n"
        assert out.read_text() == captured.out == expected
        assert json.loads(expected)["bollobas"] is True
        assert "bollobas=yes" in captured.err


@pytest.mark.parametrize("argv, code, message", [
    (["construct", "chain-d3", "--params", "s=8", "--cap", "4"],
     4, "chain_family_d3(s=8) would produce 5 members, cap is 4"),
    (["construct", "expanded-chain", "--params", "s=6", "--cap", "140"],
     4, "type_expansion would produce 141 members, cap is 140"),
    (["certify", "conj1", "--s", "6", "--cap", "140"],
     4, "type_expansion would produce 141 members, cap is 140"),
    # the chain keeps its default cap, checked first
    (["construct", "expanded-chain", "--params", "s=2000000", "--cap", "5"],
     4, "chain_family_d3(s=2000000) would produce 1000001 members, cap is 1000000"),
    (["construct", "matchbox", "--params", "a1=2,a2=2", "--cap", "5"],
     4, "matchbox_weak_family(a=(2, 2)) would produce 6 members, cap is 5"),
    (["search", "--class", "bollobas", "--d", "3", "--s", "5", "--mode", "general",
      "--cap", "10"],
     4, "272 general vertices, cap is 10"),
    (["construct", "lex-full", "--params", "n=3,d=2", "--cap", "7"],
     4, "lex_full_family(n=3, d=2) would produce 8 members, cap is 7"),
    (["construct", "complement-pair", "--params", "n=4,k=2,d=2", "--cap", "5"],
     4, "complement_pair_family(n=4, k=2) would produce 6 members, cap is 5"),
    # counted as a sum of d terms, refused before any product is formed
    (["search", "--class", "bollobas", "--d", "3", "--s", "20000", "--mode", "general"],
     4, "at least 2^20025 general vertices, cap is 5000"),
    # general mode runs the interval cells' argument check before its count
    (["search", "--class", "bollobas", "--d", "0", "--s", "3", "--mode", "general"],
     3, "need d >= 1 and s >= 0"),
    (["search", "--class", "bollobas", "--d", "3", "--s", "-1", "--mode", "general"],
     3, "need d >= 1 and s >= 0"),
], ids=["chain-d3", "expanded-chain", "certify", "long-chain", "matchbox", "general",
        "lex-full", "complement-pair", "general-huge", "general-d0", "general-s-1"])
def test_cap_refusal_text(argv, code, message):
    # exit 4 for a count past the cap, exit 3 for an argument refused first
    result = run(argv)
    assert result.exit_code == code
    assert result.payload == {"error": message}


@pytest.mark.parametrize("name", ["bollobas", "skew", "strong", "weak"])
@pytest.mark.parametrize("argv, code, message", [
    (["--d", "0", "--s", "3"], 3, "need d >= 1 and s >= 0"),
    (["--d", "3", "--s", "-1"], 3, "need d >= 1 and s >= 0"),
    (["--d", "3", "--s", "4", "--cap", "14"], 4, "15 interval vertices, cap is 14"),
    (["--d", "10000", "--s", "10000"], 4, "at least 2^19991 interval vertices, cap is 5000"),
], ids=["d0", "s-1", "cap", "top-bit"])
def test_interval_cell_refusal_text(name, argv, code, message):
    # every interval search shares one argument check and one cap check,
    # made before anything is listed
    result = run(["search", "--class", name, *argv])
    assert result.exit_code == code
    assert result.payload == {"error": message}


class TestExpandedChainRefusedFirst:
    """The expanded chain is counted from its size vectors and refused before
    the chain family is built or classified."""

    @pytest.mark.parametrize("argv", [
        ["certify", "conj1", "--s", "1200"],
        ["construct", "expanded-chain", "--params", "s=1200"],
    ], ids=["certify", "construct"])
    def test_refused_without_building_the_chain(self, monkeypatch, argv):
        def unbuilt(*args, **kwargs):
            raise AssertionError("chain_family_d3 was called")

        monkeypatch.setattr(constructions, "chain_family_d3", unbuilt)
        s = 1200
        count = sum(math.comb(s, l - 1) * math.comb(s - l + 1, l - 1)
                    for l in range(1, s // 2 + 2))
        result = run(argv)
        assert result.status == "cap_exceeded" and result.exit_code == 4
        assert result.payload == {
            "error": f"type_expansion would produce {count} members, cap is 1000000"
        }

    @pytest.mark.parametrize("s", ["0", "-3"])
    def test_small_s_is_invalid_input_before_the_cap(self, s):
        result = run(["construct", "expanded-chain", "--params", f"s={s}", "--cap", "0"])
        assert result.status == "invalid_input" and result.exit_code == 3
        assert result.payload == {"error": "need s >= 1"}

    def test_same_family_as_the_composition(self):
        for s in range(1, 7):
            assert constructions.expanded_chain_family(s) == constructions.type_expansion(
                constructions.chain_family_d3(s)
            )


def test_closed_stdout_is_not_a_traceback():
    # the reader is gone before the command starts: the write fails with EPIPE
    read_end, write_end = os.pipe()
    os.close(read_end)
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    try:
        done = subprocess.run(
            [sys.executable, "-m", "bollosys", "list-theorems"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60,
        )
    finally:
        os.close(write_end)
    assert done.returncode == 0
    assert done.stderr == b""


_LATTICE_LOADS = """
import json, sys
from bollosys.cli import run

loaded = []
for argv in json.loads(sys.argv[1]):
    assert run(argv).exit_code == 0, argv
    loaded.append("bollosys.lattice" in sys.modules)
print(loaded)
"""


def test_only_a_certified_value_loads_the_lattice(intro_file):
    # in order: sum, classify and a strong search certify no value and leave
    # the lattice module unloaded; a bollobas search loads it
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    commands = [
        ["sum", intro_file],
        ["classify", intro_file],
        ["search", "--class", "strong", "--d", "3", "--s", "4"],
        ["search", "--class", "bollobas", "--d", "3", "--s", "4"],
    ]
    done = subprocess.run(
        [sys.executable, "-c", _LATTICE_LOADS, json.dumps(commands)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[False, False, False, True]\n"


@pytest.mark.parametrize("argv", [
    ["sum", "INTRO", "--p", "1e-70000000,1"],
    ["check", "INTRO", "--theorem", "thm-1.12", "--p", "1e-70000000,1"],
], ids=["sum", "check"])
def test_weight_exponent_refused_before_it_is_expanded(intro_file, argv):
    # Fraction would build 10**70000000 before the simplex check; the run is
    # a child with a time limit, so a regression fails instead of stalling
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "bollosys", *(intro_file if a == "INTRO" else a for a in argv)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, timeout=30,
    )
    assert done.returncode == 3, done.stderr
    assert json.loads(done.stdout) == {
        "status": "invalid_input",
        "error": "exponent of '1e-70000000' exceeds 4300 in magnitude",
    }


def _halves_file(tmp_path, n):
    # one full 2-partition of [n] into its lower and upper halves
    path = tmp_path / f"halves{n}.json"
    half = n // 2
    path.write_text(json.dumps(
        {"n": n, "d": 2, "members": [[list(range(1, half + 1)), list(range(half + 1, n + 1))]]}
    ))
    return str(path)


class TestCountsPastTheDigitLimit:
    """Integers with more than 4,300 digits, which ``str`` refuses to write by
    default.  A cap count is cited as "at least 2^k", k the index of its top
    bit; an exact value is written in full."""

    @pytest.mark.parametrize("argv, count, message", [
        (["construct", "permutation", "--params", "n=2000"], math.factorial(2000),
         "permutation_family(n=2000) would produce at least 2^19052 members, cap is 1000000"),
        (["construct", "lex-full", "--params", "n=10000,d=3"], 3**10000,
         "lex_full_family(n=10000, d=3) would produce at least 2^15849 members, cap is 1000000"),
        (["construct", "complement-pair", "--params", "n=20000,k=10000,d=2"],
         math.comb(20000, 10000),
         "complement_pair_family(n=20000, k=10000) would produce at least 2^19992 members, "
         "cap is 1000000"),
        (["search", "--class", "bollobas", "--d", "10000", "--s", "10000"],
         math.comb(19999, 9999),
         "at least 2^19991 interval vertices, cap is 5000"),
        (["lemma-check", "HALVES1700"], math.factorial(1700),
         "permutation group has at least 2^15797 elements, cap is 3628800"),
    ], ids=["permutation", "lex-full", "complement-pair", "search", "lemma-check"])
    def test_cap_count_cited_by_its_top_bit(self, tmp_path, argv, count, message):
        assert f"at least 2^{count.bit_length() - 1} " in message
        argv = [_halves_file(tmp_path, 1700) if a == "HALVES1700" else a for a in argv]
        result = run(argv)
        assert result.status == "cap_exceeded" and result.exit_code == 4
        assert result.payload == {"error": message}

    def test_table_skips_both_cells(self):
        result = run(["table", "--d", "3,10000", "--s", "10000"])
        assert result.exit_code == 0
        assert result.payload["cells"] == [
            {"d": 3, "s": 10000, "value": None, "skipped": True,
             "reason": "50015001 interval vertices, cap is 5000"},
            {"d": 10000, "s": 10000, "value": None, "skipped": True,
             "reason": "at least 2^19991 interval vertices, cap is 5000"},
        ]

    def test_exact_sum_and_check(self, tmp_path):
        family = _halves_file(tmp_path, 15000)
        exact = "1/" + str(Decimal(math.comb(15000, 7500)))
        assert len(exact) == 2 + 4514
        result = run(["sum", family])
        assert result.exit_code == 0
        assert result.payload == {"kind": "inverse-multinomial", "sum": exact}
        report = run(["check", family, "--theorem", "thm-1.1"])
        assert report.exit_code == 0
        assert report.payload["lhs"] == exact and report.payload["holds"] is True

    def test_decimal_digits(self, tmp_path):
        result = run(["sum", _halves_file(tmp_path, 15000), "--decimal", "5000"])
        assert result.exit_code == 0
        with localcontext() as context:
            context.prec = 1000
            value = Decimal(1) / Decimal(math.comb(15000, 7500))
            expected = format(value.quantize(Decimal(10) ** -5000), "f")
        assert result.payload["sum_decimal"] == expected


def _write_intro(tmp_path):
    path = tmp_path / "intro2.json"
    path.write_text(json.dumps(INTRO))
    return path


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.floats() | st.integers() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
NOT_INT = JSON_VALUES.filter(lambda v: type(v) is not int)
NOT_LIST = JSON_VALUES.filter(lambda v: not isinstance(v, list))


@st.composite
def family_objs(draw):
    """A valid family object: n in 2..5, d in 1..3, one or two blocks."""
    n = draw(st.integers(2, 5))
    d = draw(st.integers(1, 3))
    assignments = draw(st.lists(
        st.lists(st.integers(0, d), min_size=n, max_size=n),
        min_size=1, max_size=3, unique_by=tuple,
    ))
    members = [
        [[x for x, r in enumerate(a, 1) if r == part] for part in range(d)]
        for a in assignments
    ]
    obj = {"n": n, "d": d, "members": members}
    if draw(st.booleans()):
        cut = draw(st.integers(1, n - 1))
        obj["blocks"] = [list(range(1, cut + 1)), list(range(cut + 1, n + 1))]
    return obj


def _corrupt(obj, data):
    """Break one rule of the family schema in place."""
    n, d, members = obj["n"], obj["d"], obj["members"]
    member = data.draw(st.sampled_from(members))
    part = data.draw(st.sampled_from(member))
    blocks = obj.setdefault("blocks", [list(range(1, n + 1))])
    block = data.draw(st.sampled_from(blocks))
    kind = data.draw(st.sampled_from([
        "missing key", "n type", "d type", "members type", "member type",
        "part type", "element type", "blocks type", "block type", "block element type",
        "element out of range", "block element out of range", "d mismatch",
        "element twice in a part", "element in two parts", "member twice",
        "element twice in a block", "element in two blocks", "blocks miss an element",
    ]))
    out_of_range = data.draw(st.integers(-3, 0) | st.integers(n + 1, 10**20))
    if kind == "missing key":
        del obj[data.draw(st.sampled_from(["n", "d", "members"]))]
    elif kind in ("n type", "d type"):
        obj[kind[0]] = data.draw(NOT_INT)
    elif kind == "members type":
        obj["members"] = data.draw(NOT_LIST)
    elif kind == "member type":
        members[members.index(member)] = data.draw(NOT_LIST)
    elif kind == "part type":
        member[member.index(part)] = data.draw(NOT_LIST)
    elif kind == "element type":
        part.append(data.draw(NOT_INT))
    elif kind == "blocks type":
        obj["blocks"] = data.draw(NOT_LIST.filter(lambda v: v is not None))
    elif kind == "block type":
        blocks[blocks.index(block)] = data.draw(NOT_LIST)
    elif kind == "block element type":
        block.append(data.draw(NOT_INT))
    elif kind == "element out of range":
        part.append(out_of_range)
    elif kind == "block element out of range":
        block.append(out_of_range)
    elif kind == "d mismatch":
        obj["d"] = data.draw(st.integers(-2, 0) | st.integers(d + 1, d + 3))
    elif kind == "element twice in a part":
        part.extend([1, 1])
    elif kind == "element in two parts":
        member[0].append(1)
        member[-1].append(1)  # the same part when d = 1: listed twice
    elif kind == "member twice":
        members.append(json.loads(json.dumps(member)))
    elif kind == "element twice in a block":
        block.extend([n, n])
    elif kind == "element in two blocks":
        blocks.append([1])
    elif kind == "blocks miss an element":
        x = data.draw(st.integers(1, n))
        for b in blocks:
            if x in b:
                b.remove(x)
    return kind


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(family_objs(), st.data(), st.sampled_from(["classify", "sum", "lemma-check"]))
def test_malformed_family_json_never_a_traceback(tmp_path, obj, data, command):
    path = tmp_path / "family.json"
    path.write_text(json.dumps(obj))
    assert run([command, str(path)]).exit_code == 0
    kind = _corrupt(obj, data)
    path.write_text(json.dumps(obj))
    result = run([command, str(path)])
    assert result.status == "invalid_input" and result.exit_code == 3, (kind, obj)
    assert result.payload["error"]
    assert render(result) == dumped(result)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.one_of(
    JSON_VALUES.filter(lambda v: not isinstance(v, dict)).map(json.dumps),
    st.text(max_size=20),
    st.integers(1, 10**5).map(lambda depth: "[" * depth + "]" * depth),
))
def test_non_family_file_never_a_traceback(tmp_path, text):
    path = tmp_path / "garbage.json"
    path.write_bytes(text.encode("utf-8", "surrogatepass"))
    result = run(["classify", str(path)])
    assert result.status == "invalid_input" and result.exit_code == 3
    assert render(result) == dumped(result)


def _table_records(obj):
    # json.dumps's default: a record table stands for its list of records
    if type(obj) is RecordTable:
        return obj.records()
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def dumped(result):
    """The reference for ``render``: the body through ``json.dumps(indent=2)``,
    each record table expanded to its records."""
    body = result.payload
    if result.status != "ok":
        body = {"status": result.status, **body}
    return json.dumps(body, indent=2, default=_table_records)


# keys and strings mix ASCII with what json escapes: quotes, backslashes,
# control characters, non-ASCII, astral and lone surrogate code points
TEXT = st.text(
    st.characters(exclude_categories=())
    | st.sampled_from(["\x00", "\x1f", "\x7f", '"', "\\", "/", "\u00e9", "\u2028",
                       "\ud800", "\udfff", "\U0001f600"]),
    max_size=6,
)
BIG_INTS = st.integers(min_value=2**64) | st.integers(max_value=-(2**64))
PAYLOAD_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | BIG_INTS | TEXT,
    lambda inner: st.lists(inner, max_size=5)
    | st.lists(st.integers() | BIG_INTS, max_size=5)  # the all-int fast path
    | st.lists(st.integers() | st.booleans(), max_size=5)
    | st.dictionaries(TEXT, inner, max_size=5),
    max_leaves=40,
)


@settings(max_examples=500, deadline=None)
@given(st.dictionaries(TEXT, PAYLOAD_VALUES, max_size=5),
       st.sampled_from(["ok", "hypothesis_failed", "invalid_input", "cap_exceeded"]))
def test_render_matches_json_dumps(payload, status):
    result = CommandResult(status, payload)
    assert render(result) == dumped(result)


def test_render_deep_nesting_and_empty_containers():
    value = [[], {}, [{}], {"": []}]
    for depth in range(60):
        value = {"next": [value, depth, True], "": {}} if depth % 2 else [value, []]
    result = CommandResult("ok", {"v": value, "empty": {}, "none": []})
    assert render(result) == dumped(result)
    assert render(CommandResult("ok", {})) == "{}"


@pytest.mark.parametrize("value", [1.5, (1, 2), {1, 2}, b"x", Fraction(1, 2), {1: 2}])
def test_render_rejects_types_outside_the_payload_types(value):
    with pytest.raises(TypeError):
        render(CommandResult("ok", {"v": value}))


# Every command and error status of this module, plus the certificates; the
# keys of FAMILY_FILES stand for files holding those family objects.
FAMILY_FILES = {
    "INTRO": INTRO,
    "NOTWEAK": {"n": 2, "d": 2, "members": [[[1], []], [[2], []]]},
    "S4": {"n": 4, "d": 2, "members": [[[1, 2], [3, 4]], [[4], [1, 3]], [[2], []]]},
    **{f"NESTED{k}": obj for k, (obj, _) in enumerate(NESTED_FAMILIES)},
    **{f"LOAD_ERROR{k}": obj for k, (obj, _) in enumerate(LOAD_ERRORS)},
}
SWEEP = [
    ["classify", "INTRO"],
    ["sum", "INTRO"],
    ["sum", "INTRO", "--blocks"],
    ["sum", "INTRO", "--p", "1/4,1/4,1/2"],
    ["sum", "INTRO", "--decimal", "4"],
    ["check", "INTRO", "--theorem", "conj-1"],
    ["check", "INTRO", "--theorem", "conj-1", "--decimal", "2"],
    ["check", "INTRO", "--theorem", "thm-1.1"],
    ["check", "INTRO", "--theorem", "thm-0.0"],
    ["check", "NOTWEAK", "--theorem", "thm-1.12"],
    ["check", "NOTWEAK", "--theorem", "thm-1.12", "--force"],
    ["construct", "lex-full", "--params", "n=2"],
    ["construct", "chain-d3", "--params", "s=4"],
    ["construct", "chain-d3", "--params", "s=4,bogus=1"],
    ["construct", "chain-d3", "--params", "s=4", "--cap", "0"],
    ["construct", "chain-d3", "--params", "s=4", "--cap", "3"],
    ["construct", "matchbox", "--params", "a1=1,a2=2"],
    ["search", "--class", "bollobas", "--d", "3", "--s", "7"],
    ["search", "--class", "bollobas", "--d", "4", "--s", "5"],
    ["search", "--class", "bollobas", "--d", "5", "--s", "9", "--cap", "10"],
    ["search", "--class", "bollobas", "--d", "4", "--s", "6", "--cap", "0"],
    ["search", "--class", "bollobas", "--d", "4", "--s", "6", "--cap", "-1"],
    ["search", "--class", "skew", "--d", "2", "--s", "2", "--mode", "general"],
    ["table", "--class", "bollobas", "--d", "3", "--s", "1..4"],
    ["lemma-check", "INTRO"],
    ["lemma-check", "S4"],
    ["lemma-check", "S4", "--cap", "23"],
    ["lemma-check", "S4", "--cap", "24"],
    ["list-theorems"],
    *[["classify", f"NESTED{k}"] for k in range(len(NESTED_FAMILIES))],
    *[["sum", f"LOAD_ERROR{k}"] for k in range(len(LOAD_ERRORS))],
    *[["certify", "conj1", "--s", str(s)] for s in range(2, 8)],
]


@pytest.mark.parametrize("argv", SWEEP, ids=" ".join)
def test_render_matches_json_dumps_on_real_payloads(tmp_path, argv):
    for name, obj in FAMILY_FILES.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(obj))
    result = run([str(tmp_path / f"{a}.json") if a in FAMILY_FILES else a for a in argv])
    assert render(result) == dumped(result)


# Record tables: one shape of record, kept as keys, lengths and a flat tuple
# of ints.  render writes a table from one template; these pin that path to
# json.dumps of the table's records, and lists of dicts to item by item.
RECORD_KEYS = st.lists(TEXT | st.sampled_from(["%", "%d", "%%s", "100%", '"', "é"]),
                       min_size=1, max_size=4, unique=True)
RECORD_INTS = st.integers() | BIG_INTS


@st.composite
def record_tables(draw, min_records=0):
    keys = draw(RECORD_KEYS)
    lengths = [draw(st.integers(1, 4)) for _ in keys]
    count = draw(st.integers(min_records, 6))
    ints = draw(st.lists(RECORD_INTS, min_size=count * sum(lengths),
                         max_size=count * sum(lengths)))
    return RecordTable(keys, lengths, ints)


@st.composite
def record_lists(draw, min_records=1, min_keys=1):
    table = draw(record_tables(min_records).filter(lambda table: len(table.keys) >= min_keys))
    return table.records()


def _swap_first_two_keys(record):
    first, second, *rest = record.items()
    return dict([second, first, *rest])


# one change each that breaks the shape, applied to one record
NEAR_MISSES = {
    "bool among the ints": lambda r, key: {**r, key: [True, *r[key][1:]]},
    "value of another length": lambda r, key: {**r, key: r[key] + [0]},
    "empty value": lambda r, key: {**r, key: []},
    "keys in another order": lambda r, key: _swap_first_two_keys(r),
    "missing key": lambda r, key: {k: v for k, v in r.items() if k != key},
    "extra key": lambda r, key: {**r, "an extra key": [1]},  # longer than TEXT draws
    "not a dict": lambda r, key: list(r.values()),
    "int value": lambda r, key: {**r, key: 7},
}


def _nest(value, path):
    # wrap the value once per step: a one-item list, or a dict under that key
    for step in path:
        value = [value] if step is None else {step: value}
    return value


@settings(max_examples=200, deadline=None)
@given(record_tables(), st.lists(st.none() | TEXT, max_size=4), st.integers(0, 3))
def test_uniform_records_take_the_template(table, path, depth):
    # one template fill: at most three fragments, whatever the record count
    out = []
    cli._emit(table, depth, out)
    assert len(out) <= 3
    assert "".join(out) == json.dumps(table.records(), indent=2).replace("\n", "\n" + "  " * depth)
    result = CommandResult("ok", {"records": _nest(table, path)})
    assert render(result) == dumped(result)


@pytest.mark.parametrize("lengths, ints", [
    ((2,), (1, True)),
    ((2,), (1, 2.0)),
    ((2, 1), (1, 2, 3, 4)),
    ((2, 0), (1, 2)),
    ((2,), (1, "2")),
    ((True,), (1,)),
], ids=["a bool", "a float", "an int count filling no whole record", "a zero length",
        "a string", "a bool length"])
def test_record_table_refuses_what_it_cannot_write(lengths, ints):
    keys = ("a", "b")[: len(lengths)]
    with pytest.raises(ValueError):
        RecordTable(keys, lengths, ints)


@pytest.mark.parametrize("keys, lengths", [((), ()), (("a",), (1, 1)), ((1,), (1,))],
                         ids=["no keys", "a length too many", "a key that is not a string"])
def test_record_table_refuses_keys_without_one_length_each(keys, lengths):
    with pytest.raises(ValueError):
        RecordTable(keys, lengths, ())


def test_record_table_of_no_records_renders_empty():
    table = RecordTable(("members", "forward"), (2, 3), ())
    assert table.records() == []
    result = CommandResult("ok", {"pair_witnesses": table, "nested": [table, {"t": table}]})
    assert render(result) == dumped(result)
    assert '"pair_witnesses": []' in render(result)


@settings(max_examples=200, deadline=None)
@given(record_lists(min_records=2, min_keys=2), st.sampled_from(sorted(NEAR_MISSES)),
       st.data())
def test_near_uniform_records_fall_back(records, miss, data):
    # a list of dicts, a near miss or not, is written item by item
    at = data.draw(st.integers(0, len(records) - 1))
    key = data.draw(st.sampled_from(list(records[at])))
    records[at] = NEAR_MISSES[miss](records[at], key)
    result = CommandResult("ok", {"records": records, "nested": [[records]]})
    assert render(result) == dumped(result) == json.dumps(result.payload, indent=2)


@pytest.mark.parametrize("records", [
    [{"a": [], "b": [1]}],
    [{"a": [1], "b": []}, {"a": [2], "b": []}],
    [{"a": [1]}, {"a": [2]}, []],
], ids=["one record", "empty in every record", "an empty list among the records"])
def test_records_with_no_ints_in_a_value_fall_back(records):
    result = CommandResult("ok", {"records": records})
    assert render(result) == dumped(result) == json.dumps(result.payload, indent=2)


@pytest.mark.parametrize("s, digest", [
    (6, "d4309744d66b478cffdfc79ab4e27dd65cddaf9b5e295270ad8775444aaa0879"),
    (7, "c976352c8c40d092b32565f8262273af72c10896e65fdeb17381ac630716a43e"),
])
def test_certificate_bytes_are_pinned(s, digest):
    # the bytes the per-pair witness scan wrote, witnesses included at s = 6:
    # a faster witness or classification engine must not change them
    text = render(run(["certify", "conj1", "--s", str(s)]))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_certificate_witnesses_take_the_template(monkeypatch):
    # the s = 6 certificate holds 9,870 witness records; written one value
    # at a time they cost about 40,000 _emit calls, from one template 584
    result = run(["certify", "conj1", "--s", "6"])
    assert len(result.payload["pair_witnesses"].records()) == 9870
    calls = [0]
    emit = cli._emit

    def counting(obj, depth, out):
        calls[0] += 1
        emit(obj, depth, out)

    monkeypatch.setattr(cli, "_emit", counting)
    assert render(result) == dumped(result)
    assert calls[0] < 1000


def test_certificate_witnesses_are_one_int_table():
    # members, forward and backward of every pair, 8 ints a pair in one
    # tuple, in the order of the certificate's pair witnesses
    certificate = constructions.counterexample_conj1(6)
    table = certificate_to_obj(certificate)["pair_witnesses"]
    assert type(table) is RecordTable
    assert (table.keys, table.lengths) == (("members", "forward", "backward"), (2, 3, 3))
    assert len(table.ints) == 8 * 9870
    assert table.records() == [
        {"members": [w.i, w.j], "forward": list(w.forward), "backward": list(w.backward)}
        for w in certificate.pair_witnesses
    ]
    result = CommandResult("ok", certificate_to_obj(certificate))
    assert render(result) == dumped(result)


def _decimal_reference(value, digits):
    # the first --decimal formula: exact, but quadratic in the digit count
    scaled = round(Fraction(value) * 10**digits)
    text = str(Decimal(scaled)).zfill(digits + 1)
    return f"{text[:-digits]}.{text[-digits:]}" if digits else text


@st.composite
def decimal_cases(draw):
    digits = draw(st.integers(0, 60))
    kind = draw(st.sampled_from(["any", "tie", "zero", "large", "wide"]))
    if kind == "tie":
        # exactly halfway between two digit strings, of either parity
        value = Fraction(2 * draw(st.integers(0, 10**6)) + 1, 2 * 10**digits)
    elif kind == "zero":
        value = Fraction(0)
    elif kind == "large":
        value = draw(st.integers(1, 10**40)) + draw(st.fractions(0, 1, max_denominator=10**9))
    elif kind == "wide":
        # a 4,514-digit denominator, the inverse-multinomial sum of [15000]
        value = Fraction(draw(st.integers(1, 10**6)), math.comb(15000, 7500))
        digits = draw(st.integers(4500, 4600))
    else:
        value = draw(st.fractions(max_denominator=10**30))
    return value * draw(st.sampled_from([1, -1])), digits


@settings(max_examples=300, deadline=None)
@given(decimal_cases())
def test_decimal_matches_the_rounded_fraction(case):
    value, digits = case
    assert cli._decimal_str(value, digits) == _decimal_reference(value, digits)


def test_decimal_digits_limit(intro_file):
    assert cli._decimal_str(Fraction(1, 3), cli.MAX_DECIMAL_DIGITS)[-2:] == "33"
    # far past the limit: refused before any scaled value is built
    digits = str(10**100)
    for argv in (["sum", "INTRO", "--decimal", digits],
                 ["check", "INTRO", "--theorem", "conj-1", "--decimal", digits]):
        result = run([intro_file if a == "INTRO" else a for a in argv])
        assert result.status == "invalid_input" and result.exit_code == 3
        assert result.payload == {
            "error": f"--decimal needs at most 10000000 digits, got {digits}"
        }


# Family files the collector tests name by placeholder: a blocked family, a
# member with one overlapping pair of parts (the bulk load's fault replay),
# and a member one part short (the per-member walk in family_from_obj).
COLLECTOR_FILES = {
    "INTRO": INTRO,
    "BLOCKED": {"n": 4, "d": 2, "blocks": [[1, 2], [3, 4]],
                "members": [[[1, 3], [2, 4]], [[2], [1, 3, 4]]]},
    "OVERLAP": {"n": 2, "d": 2, "members": [[[1], [2]], [[1, 2], [2]]]},
    "SHORT": {"n": 2, "d": 3, "members": [[[1], [], [2]], [[1, 2], []]]},
}


@pytest.fixture
def collector_argv(tmp_path):
    names = {}
    for name, obj in COLLECTOR_FILES.items():
        names[name] = str(tmp_path / f"{name.lower()}.json")
        Path(names[name]).write_text(json.dumps(obj))
    return lambda argv: [names.get(a, a) for a in argv]


@pytest.fixture
def restore_collector():
    collecting = gc.isenabled()
    yield
    (gc.enable if collecting else gc.disable)()


class TestCollectorPause:
    """``cli.run`` pauses the cyclic collector and leaves it as it found it."""

    @pytest.mark.parametrize("collecting", [True, False], ids=["enabled", "disabled"])
    def test_state_restored(self, restore_collector, collecting):
        (gc.enable if collecting else gc.disable)()
        assert run(["list-theorems"]).exit_code == 0
        assert gc.isenabled() is collecting

    def test_enabled_after_an_uncaught_exception(self, monkeypatch, restore_collector):
        def broken(args):
            assert not gc.isenabled()
            raise VerificationError("broken handler")

        monkeypatch.setitem(cli._HANDLERS, "list-theorems", broken)
        gc.enable()
        with pytest.raises(VerificationError, match="broken handler"):
            run(["list-theorems"])
        assert gc.isenabled()

    @pytest.mark.parametrize("argv, code", [
        (["sum", "OVERLAP"], 3),
        (["search", "--class", "bollobas", "--d", "4", "--s", "10", "--cap", "1"], 4),
    ], ids=["invalid-input", "cap-exceeded"])
    def test_enabled_after_a_failing_command(self, collector_argv, restore_collector,
                                              argv, code):
        gc.enable()
        assert run(collector_argv(argv)).exit_code == code
        assert gc.isenabled()


@pytest.mark.parametrize("argv, code", [
    (["classify", "INTRO"], 0),
    (["sum", "INTRO"], 0),
    (["sum", "--blocks", "BLOCKED"], 0),
    (["sum", "--p", "1/3,1/3,1/3", "INTRO"], 0),
    (["sum", "--decimal", "5", "INTRO"], 0),
    (["check", "INTRO", "--theorem", "conj-1"], 0),
    (["construct", "lex-full", "--params", "n=3,d=2"], 0),
    (["search", "--class", "bollobas", "--d", "3", "--s", "4"], 0),
    (["search", "--class", "skew", "--d", "3", "--s", "4"], 0),
    (["search", "--class", "strong", "--d", "3", "--s", "4"], 0),
    (["search", "--class", "bollobas", "--d", "3", "--s", "4", "--mode", "general"], 0),
    (["table", "--d", "3..4", "--s", "1..4"], 0),
    (["certify", "conj1", "--s", "3"], 0),  # bundles the per-pair witnesses
    (["certify", "conj1", "--s", "7"], 0),  # past the witness pair cap
    (["lemma-check", "INTRO"], 0),
    (["list-theorems"], 0),
    (["check", "INTRO", "--theorem", "thm-1.1"], 1),
    (["sum", "OVERLAP"], 3),
    (["classify", "SHORT"], 3),
    (["search", "--class", "bollobas", "--d", "4", "--s", "10", "--cap", "1"], 4),
], ids=lambda value: " ".join(value) if isinstance(value, list) else None)
def test_no_command_leaves_cyclic_garbage(collector_argv, restore_collector, argv, code):
    # The first run is not counted: the parser is built once per process,
    # and argparse's help formatters form a few cycles while it is built.
    argv = collector_argv(argv)
    assert run(argv).exit_code == code
    gc.collect()
    gc.disable()
    result = run(argv)
    render(result)
    assert gc.collect() == 0
    assert result.exit_code == code
