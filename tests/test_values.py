"""Value semantics of the package's types: reprs, equality, hashing,
immutability and the records' keyword defaults."""

import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from bollosys import (
    Certificate,
    ClassFlags,
    DPartition,
    DoubleCountResult,
    Family,
    GroundSet,
    InequalityReport,
    SearchOutcome,
    TableCell,
)
from bollosys.cli import CommandResult
from bollosys.familyjson import RecordTable
from bollosys.weights import TheoremSpec

SRC = Path(__file__).resolve().parents[1] / "src"


def dp(*parts):
    return DPartition(tuple(frozenset(p) for p in parts))


def _family():
    return Family(GroundSet(2), (dp({1}, {2}), dp({2}, {1})))


def _values():
    # one instance of every value type, with the names of its fields
    family = _family()
    flags = ClassFlags(True, True, True, False, False)
    return [
        (GroundSet(2), ("n", "blocks")),
        (dp({1}, {2}), ("parts", "support")),
        (family, ("ground", "members", "d", "support")),
        (flags, ("weak", "skew", "bollobas", "strong", "symmetric")),
        (CommandResult("ok", {}), ("status", "payload", "pretty", "out", "show_pretty")),
        (
            Certificate("chain", (("s", 2),), family, flags, Fraction(2), Fraction(1), True, 1, None),
            ("construction", "parameters", "family", "flags", "sum_value",
             "conjectured_bound", "refutes", "pairs_checked", "pair_witnesses"),
        ),
        (DoubleCountResult(2, 2), ("lhs", "rhs")),
        (SearchOutcome(2, family, "full"), ("value", "witness", "mode")),
        (TableCell(2, 2, 2, family), ("d", "s", "value", "witness", "skipped", "reason")),
        (
            InequalityReport("conj-1", Fraction(1), Fraction(1), True, True),
            ("theorem_id", "lhs", "rhs", "holds", "tight", "hypothesis_failed"),
        ),
        (
            TheoremSpec("t", "a theorem", None, lambda f, p=None: Fraction(0), lambda f: Fraction(1)),
            ("theorem_id", "description", "hypothesis_class", "lhs", "rhs",
             "d_required", "e_required", "uniform_profile"),
        ),
        (RecordTable(("members",), (2,), (0, 1)), ("keys", "lengths", "ints")),
    ]


class TestRepr:
    def test_ground_set(self):
        assert repr(GroundSet(3)) == "GroundSet(n=3, blocks=(frozenset({1, 2, 3}),))"
        assert repr(GroundSet(4, ({1, 2}, {3, 4}))) == (
            "GroundSet(n=4, blocks=(frozenset({1, 2}), frozenset({3, 4})))"
        )
        assert repr(GroundSet(0)) == "GroundSet(n=0, blocks=(frozenset(),))"

    def test_dpartition(self):
        assert repr(dp({1}, (), {2, 3})) == (
            "DPartition(parts=(frozenset({1}), frozenset(), frozenset({2, 3})))"
        )

    def test_dpartition_made_in_bulk(self):
        members = DPartition.many((frozenset({1}), frozenset(), frozenset({2}), frozenset({1})), 2)
        assert list(map(repr, members)) == [
            "DPartition(parts=(frozenset({1}), frozenset()))",
            "DPartition(parts=(frozenset({2}), frozenset({1})))",
        ]

    def test_family(self):
        assert repr(Family(GroundSet(2), (dp({1}, {2}),))) == (
            "Family(ground=GroundSet(n=2, blocks=(frozenset({1, 2}),)), "
            "members=(DPartition(parts=(frozenset({1}), frozenset({2}))),), d=2)"
        )
        assert repr(Family(GroundSet(1), (), 3)) == (
            "Family(ground=GroundSet(n=1, blocks=(frozenset({1}),)), members=(), d=3)"
        )


class TestEquality:
    def test_dpartition_ignores_support(self):
        p = dp({1}, {2})
        (q,) = DPartition.many((frozenset({1}), frozenset({2})), 2)
        object.__setattr__(q, "support", frozenset({7}))
        assert p == q
        assert hash(p) == hash(q)
        assert {p: 1}[q] == 1

    def test_dpartition_hash_is_that_of_its_parts(self):
        p = dp({1}, (), {2})
        assert hash(p) == hash((p.parts,))

    def test_family_and_ground_set_compare_their_fields(self):
        family = _family()
        again = Family(GroundSet(2), (dp({1}, {2}), dp({2}, {1})), 2)
        assert family == again
        assert hash(family) == hash(again) == hash((family.ground, family.members, 2))
        assert family != Family(GroundSet(3), family.members)
        assert family != Family(GroundSet(2), family.members[:1])
        assert GroundSet(2) == GroundSet(2, ({1, 2},))
        assert hash(GroundSet(2)) == hash((2, (frozenset({1, 2}),)))
        assert GroundSet(2) != GroundSet(2, ({1}, {2}))

    def test_different_types_compare_unequal(self):
        p = dp({1}, {2})
        family = _family()
        assert p != p.parts
        assert p != (p.parts,)
        assert p != family
        assert GroundSet(2) != (2, (frozenset({1, 2}),))
        assert family != (family.ground, family.members, family.d)
        assert GroundSet(1) != dp({1})


class TestImmutable:
    @pytest.mark.parametrize("index", range(12))
    def test_fields_cannot_be_set_or_deleted(self, index):
        value, fields = _values()[index]
        for name in fields:
            before = getattr(value, name)
            with pytest.raises(AttributeError):
                setattr(value, name, before)
            with pytest.raises(AttributeError):
                delattr(value, name)
            assert getattr(value, name) is before
        with pytest.raises(AttributeError):
            value.extra = 1

    def test_every_type_is_covered(self):
        assert len({type(value) for value, _ in _values()}) == 12


class TestRecordDefaults:
    def test_command_result(self):
        result = CommandResult(status="ok", payload={"a": 1})
        assert (result.pretty, result.out, result.show_pretty) == (None, None, False)
        assert result.exit_code == 0
        assert CommandResult(payload={}, status="cap_exceeded", out="x").out == "x"

    def test_table_cell(self):
        cell = TableCell(d=3, s=2, value=None, witness=None)
        assert (cell.skipped, cell.reason) == (False, None)
        assert TableCell(3, 2, None, None, skipped=True, reason="cap").reason == "cap"

    def test_inequality_report(self):
        report = InequalityReport(theorem_id="t", lhs=Fraction(1), rhs=Fraction(2), holds=True, tight=False)
        assert report.hypothesis_failed is False

    def test_theorem_spec(self):
        spec = TheoremSpec(
            theorem_id="t", description="d", hypothesis_class="weak",
            lhs=lambda f, p=None: Fraction(0), rhs=lambda f: Fraction(1),
        )
        assert (spec.d_required, spec.e_required, spec.uniform_profile) == (None, None, False)
        assert TheoremSpec("t", "d", None, spec.lhs, spec.rhs, d_required=3).d_required == 3

    def test_records_compare_by_value(self):
        assert DoubleCountResult(lhs=3, rhs=3) == DoubleCountResult(3, 3)
        assert DoubleCountResult(3, 3).equal
        assert not DoubleCountResult(3, 4).equal
        flags = ClassFlags(weak=True, skew=True, bollobas=False, strong=False, symmetric=False)
        assert flags == ClassFlags(True, True, False, False, False)
        assert flags.as_dict() == {
            "weak": True, "skew": True, "bollobas": False, "strong": False, "symmetric": False,
        }


def test_import_loads_no_code_generation_and_no_lattice():
    # a fresh interpreter, isolated from the environment; the lattice module
    # loads only when a certificate is wanted
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import bollosys.cli; "
        "print(sorted({'dataclasses', 'inspect', 'bollosys.lattice'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-I", "-B", "-c", code, str(SRC)],
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "[]"
