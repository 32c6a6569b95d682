"""JSON forms for families, reports, outcomes, tables, and certificates.

The family schema is the lingua franca of every CLI command:

    {"n": int, "d": int, "blocks": [[int, ...], ...], "members": [[[int, ...] x d], ...]}

Elements are 1-based; "blocks" may be omitted, meaning the single block [n].
Rationals are serialized losslessly as "numerator/denominator" strings.
Member and pair indices in outputs are 0-based list positions.
"""

from __future__ import annotations

import json
import re
from decimal import Decimal
from fractions import Fraction
from itertools import chain, islice, repeat
from pathlib import Path
from typing import Any, Iterable

from .constructions import Certificate
from .core import DPartition, Family, GroundSet, InvariantError, _Value
from .search import SearchOutcome, TableCell
from .weights import InequalityReport


def frac_str(value: Fraction | int) -> str:
    # Decimal writes every int exactly, past the interpreter's digit limit
    # for int-to-string conversion
    value = Fraction(value)
    return f"{Decimal(value.numerator)}/{Decimal(value.denominator)}"


# the largest decimal exponent a rational may carry: the interpreter's own
# int-string digit limit, which already bounds the digits before it
MAX_EXPONENT = 4300


def parse_frac(text: str) -> Fraction:
    # Fraction expands 10**exponent in full, so a long exponent is refused
    # before any arithmetic; the refusal is kept for text that parses once
    # every exponent digit is zeroed, so a non-number stays "not a rational"
    mantissa, marker, exponent = text.lower().partition("e")
    try:
        if not marker or abs(int(exponent)) <= MAX_EXPONENT:
            return Fraction(text.strip())
        Fraction(mantissa + marker + re.sub(r"\d", "0", exponent))
    except (ValueError, ZeroDivisionError) as exc:
        raise InvariantError(f"not a rational: {text!r}") from exc
    raise InvariantError(f"exponent of {text!r} exceeds {MAX_EXPONENT} in magnitude")


def family_to_obj(family: Family) -> dict[str, Any]:
    obj: dict[str, Any] = {"n": family.ground.n, "d": family.d}
    if family.ground.e > 1:  # a single block is always the default [n]
        obj["blocks"] = [sorted(block) for block in family.ground.blocks]
    obj["members"] = [
        [sorted(part) for part in member.parts] for member in family.members
    ]
    return obj


def _expect(condition: bool, invariant: str) -> None:
    if not condition:
        raise InvariantError(invariant)


def _frozensets(lists: list, invariant: str, what: str) -> tuple[frozenset[int], ...]:
    _expect(all(map(isinstance, lists, repeat(list))), invariant)
    try:
        sets = tuple(map(frozenset, lists))
    except TypeError:  # an unhashable entry: a nested list or object
        raise InvariantError(invariant) from None
    # a repeated entry would otherwise vanish silently into the set
    if list(map(len, sets)) != list(map(len, lists)):
        raise InvariantError(f"{what} must not list an element twice")
    return sets


def family_from_obj(obj: Any) -> Family:
    _expect(isinstance(obj, dict), "family must be a JSON object")
    for key in ("n", "d", "members"):
        _expect(key in obj, f"family object is missing the {key!r} key")
    n, d, members = obj["n"], obj["d"], obj["members"]
    _expect(isinstance(n, int) and not isinstance(n, bool), "n must be an integer")
    _expect(isinstance(d, int) and not isinstance(d, bool), "d must be an integer")
    blocks_obj = obj.get("blocks")
    if blocks_obj is None:
        ground = GroundSet(n)
    else:
        invariant = "blocks must be a list of lists of integers"
        _expect(isinstance(blocks_obj, list), invariant)
        # an empty list is no block at all, not the default block [n]
        _expect(blocks_obj or n <= 0, "blocks must union to {1..n}")
        ground = GroundSet(n, _frozensets(blocks_obj, invariant, "a block"))
    _expect(isinstance(members, list), "members must be a list")
    _expect(d >= 1, "d must be at least 1")
    # All parts of all members at once, the part lists as they are; on a
    # fault (TypeError: an unhashable element), the loop below names the
    # first member at fault.
    try:
        _expect(all(map(isinstance, members, repeat(list))), "")
        _expect(set(map(len, members)) <= {d}, "")
        parts = list(chain.from_iterable(members))
        _expect(all(map(isinstance, parts, repeat(list))), "")
        parsed = DPartition.many(parts, d)
    except (InvariantError, TypeError):
        parsed = []
        for idx, member in enumerate(members):
            _expect(
                isinstance(member, list) and len(member) == d,
                f"member {idx} must be a list of exactly d={d} parts",
            )
            invariant = f"member {idx}: each part must be a list of integers"
            parsed.append(DPartition(_frozensets(member, invariant, f"member {idx}: a part")))
    return Family(ground, parsed, d)


def load_family(path: str | Path) -> Family:
    try:
        with open(path) as handle:
            obj = json.load(handle)
    except OSError as exc:
        raise InvariantError(f"cannot read family file: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # ValueError covers bad JSON and bad UTF-8; RecursionError, nesting
        # deeper than the parser can follow
        raise InvariantError(f"family file is not valid JSON: {exc}") from exc
    return family_from_obj(obj)


def report_to_obj(report: InequalityReport) -> dict[str, Any]:
    return {
        "theorem": report.theorem_id,
        "lhs": frac_str(report.lhs),
        "rhs": frac_str(report.rhs),
        "holds": report.holds,
        "tight": report.tight,
        "hypothesis_failed": report.hypothesis_failed,
    }


def outcome_to_obj(outcome: SearchOutcome, system_class: str) -> dict[str, Any]:
    return {
        "class": system_class,
        "value": outcome.value,
        "mode": outcome.mode,
        "exhaustive": True,
        "witness": family_to_obj(outcome.witness),
    }


def cell_to_obj(cell: TableCell) -> dict[str, Any]:
    obj: dict[str, Any] = {"d": cell.d, "s": cell.s, "value": cell.value}
    if cell.skipped:
        obj["skipped"] = True
        obj["reason"] = cell.reason
    elif cell.witness is not None:
        obj["witness"] = family_to_obj(cell.witness)
    return obj


class RecordTable(_Value):
    """A JSON list of records of one shape, kept flat: each record maps
    ``keys[k]`` to a list of ``lengths[k]`` ints, read in order off ``ints``.
    Every entry is an exact int (a bool would render as one), every length >= 1."""

    _fields = ("keys", "lengths", "ints")

    def __init__(self, keys: Iterable[str], lengths: Iterable[int], ints: Iterable[int]) -> None:
        keys, lengths, ints = tuple(keys), tuple(lengths), tuple(ints)
        if (set(map(type, keys)) != {str} or len(lengths) != len(keys)
                or set(map(type, chain(lengths, ints))) != {int} or min(lengths) < 1):
            raise ValueError("a record table needs str keys, one int length >= 1 each, exact ints")
        if len(ints) % sum(lengths):
            raise ValueError(f"{len(ints)} ints do not fill records of {sum(lengths)}")
        for name, value in zip(self._fields, (keys, lengths, ints)):
            object.__setattr__(self, name, value)

    def records(self) -> list[dict[str, list[int]]]:
        """The list of dicts the table stands for."""
        ints, fields = iter(self.ints), tuple(zip(self.keys, self.lengths))
        count = len(self.ints) // sum(self.lengths)
        return [{key: list(islice(ints, size)) for key, size in fields} for _ in range(count)]


def certificate_to_obj(certificate: Certificate) -> dict[str, Any]:
    """The certificate as a JSON payload.  The pair witnesses, 8 ints per
    pair i < j (i, j, the forward triple, the backward triple; see
    ``Certificate``), are wrapped as they stand in one ``RecordTable`` of
    records ``{"members": [i, j], "forward": [a, b, x], "backward": [a, b, x]}``."""
    obj: dict[str, Any] = {
        "construction": {
            "name": certificate.construction,
            "parameters": dict(certificate.parameters),
        },
        "family": family_to_obj(certificate.family),
        "classification": certificate.flags.as_dict(),
        "sum": frac_str(certificate.sum_value),
        "conjectured_bound": frac_str(certificate.conjectured_bound),
        "refutes": certificate.refutes,
        "pairs_checked": certificate.pairs_checked,
    }
    if certificate.pair_witnesses is None:
        obj["pair_witnesses"] = None
        obj["pair_witnesses_omitted"] = "pair count exceeds the witness cap"
    else:
        obj["pair_witnesses"] = RecordTable(
            ("members", "forward", "backward"), (2, 3, 3), certificate.pair_witnesses
        )
    return obj
