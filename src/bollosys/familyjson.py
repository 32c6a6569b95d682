"""JSON forms for families, reports, outcomes, tables, and certificates.

The family schema is the lingua franca of every CLI command:

    {"n": int, "d": int, "blocks": [[int, ...], ...], "members": [[[int, ...] x d], ...]}

Elements are 1-based; "blocks" may be omitted, meaning the single block [n].
Rationals are serialized losslessly as "numerator/denominator" strings.
Member and pair indices in outputs are 0-based list positions.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import chain, repeat
from pathlib import Path
from typing import Any

from .constructions import Certificate
from .core import DPartition, Family, GroundSet, InvariantError
from .search import SearchOutcome, TableCell
from .weights import InequalityReport


def frac_str(value: Fraction | int) -> str:
    value = Fraction(value)
    return f"{value.numerator}/{value.denominator}"


def parse_frac(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise InvariantError(f"not a rational: {text!r}") from exc


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
        ground = GroundSet(n, _frozensets(blocks_obj, invariant, "a block"))
    _expect(isinstance(members, list), "members must be a list")
    # All parts of all members at once; on a fault, the loop below names the
    # first member at fault.  With d = 0 the regrouping would drop members.
    try:
        _expect(d > 0 and all(map(isinstance, members, repeat(list))), "")
        _expect(set(map(len, members)) <= {d}, "")
        parts = _frozensets(list(chain.from_iterable(members)), "", "")
    except InvariantError:
        parsed = []
        for idx, member in enumerate(members):
            _expect(
                isinstance(member, list) and len(member) == d,
                f"member {idx} must be a list of exactly d={d} parts",
            )
            invariant = f"member {idx}: each part must be a list of integers"
            parsed.append(DPartition(_frozensets(member, invariant, f"member {idx}: a part")))
    else:
        parsed = list(map(DPartition, zip(*[iter(parts)] * d)))
    return Family(ground, tuple(parsed), d)


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


def certificate_to_obj(certificate: Certificate) -> dict[str, Any]:
    obj: dict[str, Any] = {
        "construction": {
            "name": certificate.construction.name,
            "parameters": dict(certificate.construction.parameters),
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
        obj["pair_witnesses"] = [
            {
                "members": [w.i, w.j],
                "forward": list(w.forward),
                "backward": list(w.backward),
            }
            for w in certificate.pair_witnesses
        ]
    return obj
