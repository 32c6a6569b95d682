"""Command-line entry point wiring all modules together.

Commands read the family JSON schema and write JSON to stdout; ``--out``
additionally writes the JSON to a file (one that cannot be written is invalid
input) and ``--pretty`` renders a short human summary (or an aligned table) to
stderr.  Exit codes: 0 ok, 1 hypothesis failed, 2 bad usage, 3 invalid input,
4 cap exceeded.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from decimal import MAX_EMAX, MAX_PREC, Decimal, Inexact, localcontext
from fractions import Fraction
from functools import cache
from json.encoder import encode_basestring_ascii
from typing import Any, NamedTuple, Optional, Sequence

from . import constructions, familyjson, permoracle, search
from .classify import classify_with_witnesses
from .core import CapExceeded, InvariantError
from .weights import (
    THEOREMS,
    HypothesisError,
    blocked_inverse_sum,
    check_theorem,
    inverse_multinomial_sum,
    tuza_product_sum,
)

_EXIT_CODES = {"ok": 0, "hypothesis_failed": 1, "invalid_input": 3, "cap_exceeded": 4}


class CommandResult(NamedTuple):
    status: str
    payload: dict[str, Any]
    pretty: Optional[str] = None
    out: Optional[str] = None
    show_pretty: bool = False

    @property
    def exit_code(self) -> int:
        return _EXIT_CODES[self.status]


def _int_range(text: str) -> Sequence[int]:
    """Accept '4', '1..6', or '2,3,5'; a range needs lo <= hi and is kept
    as a range, nothing listed."""
    if ".." in text:
        lo, hi = map(int, text.split("..", 1))
        if lo > hi:
            raise InvariantError(f"range {text!r} is reversed: {lo} > {hi}")
        return range(lo, hi + 1)
    if "," in text:
        return [int(x) for x in text.split(",")]
    return [int(text)]


def _parse_params(text: Optional[str]) -> dict[str, int]:
    params: dict[str, int] = {}
    if not text:
        return params
    for item in text.split(","):
        if "=" not in item:
            raise InvariantError(f"parameter {item!r} is not of the form name=value")
        key, value = item.split("=", 1)
        try:
            number = int(value)
        except ValueError:
            raise InvariantError(f"parameter {key!r} needs an integer value") from None
        name = key.strip()
        if name in params:
            raise InvariantError(f"parameter {name!r} is given more than once")
        params[name] = number
    return params


def _parse_weights(text: Optional[str]):
    if text is None:
        return None
    return [familyjson.parse_frac(part) for part in text.split(",")]


@cache  # built once per process: parse_args leaves the parser as it was
def _parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--pretty", action="store_true", help="human summary on stderr")
    common.add_argument("--out", metavar="FILE", help="also write the JSON to FILE")
    # only for the commands whose work a cap bounds
    capped = argparse.ArgumentParser(add_help=False, parents=[common])
    capped.add_argument(
        "--cap", type=int, default=None, metavar="N",
        help="override the command's enumeration/search cap",
    )

    parser = argparse.ArgumentParser(
        prog="bollosys",
        description="exact classification, bounds, constructions, search and "
        "certificates for systems of d-partitions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", parents=[common], help="five class flags for a family")
    p.add_argument("family", help="family JSON file")

    p = sub.add_parser("sum", parents=[common], help="exact weighted sums")
    p.add_argument("family")
    kind = p.add_mutually_exclusive_group()
    kind.add_argument("--blocks", action="store_true", help="blocked inverse-multinomial sum")
    kind.add_argument("--p", dest="weights", metavar="r1,r2,...",
                      help="product weight sum at these rationals")
    p.add_argument("--decimal", type=int, metavar="DIGITS",
                   help="also render the exact value to this many decimal digits")

    p = sub.add_parser("check", parents=[common], help="evaluate a registered inequality")
    p.add_argument("family")
    p.add_argument("--theorem", required=True, metavar="ID")
    p.add_argument("--p", dest="weights", metavar="r1,r2,...")
    p.add_argument("--force", action="store_true",
                   help="evaluate despite a failed class hypothesis")
    p.add_argument("--decimal", type=int, metavar="DIGITS",
                   help="also render lhs/rhs to this many decimal digits")

    p = sub.add_parser("construct", parents=[capped], help="generate a named family")
    p.add_argument("name", choices=sorted(_CONSTRUCTORS))
    p.add_argument("--params", metavar="k=v,...", help="integer parameters")

    p = sub.add_parser("search", parents=[capped], help="exact extremal family size")
    p.add_argument("--class", dest="system_class", required=True,
                   choices=search.SEARCH_CLASSES)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--mode", choices=["full-only", "general"], default="full-only")

    p = sub.add_parser("table", parents=[capped], help="extremal values over a grid")
    p.add_argument("--class", dest="system_class", default="bollobas",
                   choices=search.SEARCH_CLASSES)
    p.add_argument("--d", required=True, metavar="RANGE", help="e.g. 3..5 or 4")
    p.add_argument("--s", required=True, metavar="RANGE", help="e.g. 1..10")

    p = sub.add_parser("certify", parents=[capped], help="emit a counterexample certificate")
    p.add_argument("target", choices=["conj1"])
    p.add_argument("--s", type=int, required=True)

    p = sub.add_parser("lemma-check", parents=[capped],
                       help="double-counting identity by brute force")
    p.add_argument("family")

    sub.add_parser("list-theorems", parents=[common], help="registered inequality ids")
    return parser


def _need(params: dict[str, int], key: str) -> int:
    try:
        return params.pop(key)
    except KeyError:
        raise InvariantError(f"missing required parameter {key!r}") from None


def _cap_kwargs(args) -> dict[str, int]:
    """``--cap`` as keyword arguments; without it each callee keeps its default."""
    return {} if args.cap is None else {"cap": args.cap}


def _pocket_sizes(params: dict[str, int]) -> list[int]:
    sizes = []
    while f"a{len(sizes) + 1}" in params:
        sizes.append(params.pop(f"a{len(sizes) + 1}"))
    if not sizes:
        raise InvariantError("matchbox needs pocket sizes a1=..,a2=..,...")
    return sizes


# construct name -> (``constructions`` function, looked up by name when called
# so a wrapped one is the one run, and its required parameters in argument
# order); None reads matchbox's a1, a2, ...
_CONSTRUCTORS: dict[str, tuple[str, Optional[tuple[str, ...]]]] = {
    "lex-full": ("lex_full_family", ("n", "d")),
    "chain-d3": ("chain_family_d3", ("s",)),
    "expanded-chain": ("expanded_chain_family", ("s",)),
    "permutation": ("permutation_family", ("n",)),
    "complement-pair": ("complement_pair_family", ("n", "k", "d")),
    "matchbox": ("matchbox_weak_family", None),
}


def _run_classify(args) -> CommandResult:
    family = familyjson.load_family(args.family)
    flags, violations = classify_with_witnesses(family)
    payload: dict[str, Any] = dict(flags.as_dict())
    payload["m"] = family.m
    if violations:
        payload["witness_violations"] = {
            name: list(pair) for name, pair in violations.items()
        }
    pretty = ", ".join(f"{k}={'yes' if v else 'no'}" for k, v in flags.as_dict().items())
    return CommandResult("ok", payload, pretty)


# --decimal writes at most this many digits, so its text stays near 10 MB
MAX_DECIMAL_DIGITS = 10**7


def _decimal_str(value, digits: int) -> str:
    # presentation only; the exact value always travels as "num/den".  The
    # quotient is taken in Decimal integer arithmetic, linear in the digits
    # where converting a scaled int to Decimal is quadratic, and rounded half
    # to even as round(Fraction) does; an Inexact trap keeps it exact
    if digits < 0:
        raise InvariantError("--decimal needs a non-negative digit count")
    if digits > MAX_DECIMAL_DIGITS:
        raise InvariantError(f"--decimal needs at most {MAX_DECIMAL_DIGITS} digits, got {digits}")
    num, den = Fraction(value).as_integer_ratio()
    with localcontext() as context:
        context.prec, context.Emax = MAX_PREC, MAX_EMAX
        context.traps[Inexact] = True
        quotient, remainder = divmod(Decimal(abs(num)).scaleb(digits), den)
        if 2 * remainder > den or (2 * remainder == den and quotient % 2):
            quotient += 1
    text = (("-" if num < 0 and quotient else "") + str(quotient)).zfill(digits + 1)
    return f"{text[:-digits]}.{text[-digits:]}" if digits else text


def _run_sum(args) -> CommandResult:
    family = familyjson.load_family(args.family)
    weights = _parse_weights(args.weights)
    if weights is not None:
        value = tuza_product_sum(family, weights)
        payload = {
            "kind": "product-weight",
            "p": [familyjson.frac_str(w) for w in weights],
            "sum": familyjson.frac_str(value),
        }
    elif args.blocks:
        value = blocked_inverse_sum(family)
        payload = {"kind": "blocked-inverse-multinomial", "sum": familyjson.frac_str(value)}
    else:
        value = inverse_multinomial_sum(family)
        payload = {"kind": "inverse-multinomial", "sum": familyjson.frac_str(value)}
    if args.decimal is not None:
        payload["sum_decimal"] = _decimal_str(value, args.decimal)
    return CommandResult("ok", payload, f"{payload['kind']}: {payload['sum']}")


def _run_check(args) -> CommandResult:
    family = familyjson.load_family(args.family)
    weights = _parse_weights(args.weights)
    report = check_theorem(family, args.theorem, p=weights, force=args.force)
    payload = familyjson.report_to_obj(report)
    if args.decimal is not None:
        payload["lhs_decimal"] = _decimal_str(report.lhs, args.decimal)
        payload["rhs_decimal"] = _decimal_str(report.rhs, args.decimal)
    status = "hypothesis_failed" if report.hypothesis_failed else "ok"
    pretty = (
        f"{report.theorem_id}: lhs {payload['lhs']} vs rhs {payload['rhs']} -> "
        f"{'holds' if report.holds else 'VIOLATED'}"
        f"{' (tight)' if report.tight else ''}"
    )
    return CommandResult(status, payload, pretty)


def _run_construct(args) -> CommandResult:
    params = _parse_params(args.params)
    builder, names = _CONSTRUCTORS[args.name]
    values = [_pocket_sizes(params)] if names is None else [_need(params, k) for k in names]
    if params:  # refused before the build, which may take minutes
        raise InvariantError(f"unused parameters: {sorted(params)}")
    family = getattr(constructions, builder)(*values, **_cap_kwargs(args))
    payload = familyjson.family_to_obj(family)
    return CommandResult("ok", payload, f"{args.name}: {family.m} members on [{family.ground.n}]")


def _run_search(args) -> CommandResult:
    outcome = search.search_class(
        args.system_class, args.d, args.s, mode=args.mode, **_cap_kwargs(args)
    )
    payload = familyjson.outcome_to_obj(outcome, args.system_class)
    payload.update({"d": args.d, "s": args.s})
    return CommandResult(
        "ok", payload, f"N_{args.system_class}({args.d},{args.s}) = {outcome.value}"
    )


def _format_table(d_values, s_values, cells) -> str:
    by_key = {(c.d, c.s): c for c in cells}
    width = max(
        5, max((len(str(c.value)) for c in cells if c.value is not None), default=4) + 1
    )
    head = "d\\s" + "".join(f"{s:>{width}}" for s in s_values)
    lines = [head]
    for d in d_values:
        row = f"{d:>3}"
        for s in s_values:
            cell = by_key[(d, s)]
            row += f"{'-' if cell.skipped else cell.value:>{width}}"
        lines.append(row)
    return "\n".join(lines)


# table lists at most this many cells; an all-skipped grid of this size
# writes about 100 MB
MAX_TABLE_CELLS = 10**5


def _count(values: Sequence[int]) -> int:
    # len() of a range overflows past sys.maxsize
    return values.stop - values.start if isinstance(values, range) else len(values)


def _run_table(args) -> CommandResult:
    d_values = _int_range(args.d)
    s_values = _int_range(args.s)
    count = _count(d_values) * _count(s_values)
    if count > MAX_TABLE_CELLS:
        raise InvariantError(f"table needs at most {MAX_TABLE_CELLS} cells, got {count}")
    cells = search.n_table(d_values, s_values, args.system_class, **_cap_kwargs(args))
    payload = {
        "class": args.system_class,
        "d_values": list(d_values),
        "s_values": list(s_values),
        "cells": [familyjson.cell_to_obj(c) for c in cells],
    }
    return CommandResult("ok", payload, _format_table(d_values, s_values, cells))


def _run_certify(args) -> CommandResult:
    certificate = constructions.counterexample_conj1(args.s, **_cap_kwargs(args))
    payload = familyjson.certificate_to_obj(certificate)
    pretty = (
        f"sum {payload['sum']} > 1 on {certificate.family.m} members; "
        f"bollobas verified over {certificate.pairs_checked} pairs"
    )
    return CommandResult("ok", payload, pretty)


def _run_lemma_check(args) -> CommandResult:
    family = familyjson.load_family(args.family)
    result = permoracle.double_count_identity(family, **_cap_kwargs(args))
    payload = {"lhs": result.lhs, "rhs": result.rhs, "equal": result.equal}
    return CommandResult("ok", payload, f"lhs {result.lhs} == rhs {result.rhs}: {result.equal}")


def _run_list_theorems(args) -> CommandResult:
    payload = {
        "theorems": [
            {
                "id": spec.theorem_id,
                "hypothesis": spec.hypothesis_class,
                "d": spec.d_required,
                "blocks": spec.e_required,
                "uniform_profile": spec.uniform_profile,
                "description": spec.description,
            }
            for spec in THEOREMS.values()
        ]
    }
    pretty = "\n".join(f"{t['id']:>17}  {t['description']}" for t in payload["theorems"])
    return CommandResult("ok", payload, pretty)


_HANDLERS = {
    "classify": _run_classify,
    "sum": _run_sum,
    "check": _run_check,
    "construct": _run_construct,
    "search": _run_search,
    "table": _run_table,
    "certify": _run_certify,
    "lemma-check": _run_lemma_check,
    "list-theorems": _run_list_theorems,
}


def run(argv: Sequence[str]) -> CommandResult:
    """Parse and dispatch; argparse itself exits with code 2 on bad usage.

    The command runs with the cyclic garbage collector paused, so a family
    load does not pay for rescans of the containers it builds; the collector
    is left enabled or disabled as it was found, however the command ends.
    Reference counting still frees everything the command drops, because the
    package builds no reference cycles: ``test_no_command_leaves_cyclic_garbage``
    in ``tests/test_cli.py`` holds every command to that.
    """
    args = _parser().parse_args(argv)
    collecting = gc.isenabled()
    gc.disable()
    try:
        cap = getattr(args, "cap", None)
        if cap is not None and cap < 0:
            raise InvariantError(f"--cap must be a non-negative integer, got {cap}")
        result = _HANDLERS[args.command](args)
    except HypothesisError as exc:
        result = CommandResult("hypothesis_failed", {"error": str(exc)})
    except CapExceeded as exc:
        result = CommandResult("cap_exceeded", {"error": str(exc)})
    except (InvariantError, ValueError) as exc:
        result = CommandResult("invalid_input", {"error": str(exc)})
    finally:
        if collecting:
            gc.enable()
    return CommandResult(
        result.status, result.payload, result.pretty, args.out, args.pretty
    )


@cache
def _breaks(depth: int) -> tuple[str, str]:
    """The line break before an item at this depth, and the one after a comma."""
    pad = "\n" + "  " * depth
    return pad, "," + pad


def _emit(obj: Any, depth: int, out: list[str]) -> None:
    """Append the bytes of ``json.dumps(obj, indent=2)`` to ``out``, as
    fragments that ``render`` joins once, on the types payloads hold.

    The type tests keep bool (an int subclass) out of the int paths.  Each
    item is followed by a separator, and the one after a container's last
    item is dropped."""
    kind = type(obj)
    if kind is str:
        out.append(encode_basestring_ascii(obj))
    elif kind is int:
        out.append(int.__repr__(obj))
    elif obj is None:
        out.append("null")
    elif kind is bool:
        out.append("true" if obj else "false")
    elif kind is list:
        if not obj:
            out.append("[]")
            return
        pad, sep = _breaks(depth + 1)
        out.append("[" + pad)
        if set(map(type, obj)) == {int}:
            out.append(sep.join(map(int.__repr__, obj)))
        else:
            for item in obj:
                _emit(item, depth + 1, out)
                out.append(sep)
            out.pop()
        out.append(_breaks(depth)[0] + "]")
    elif kind is dict:
        if not obj:
            out.append("{}")
            return
        pad, sep = _breaks(depth + 1)
        out.append("{" + pad)
        for key, value in obj.items():
            out.append(encode_basestring_ascii(key) + ": ")
            _emit(value, depth + 1, out)
            out.append(sep)
        out.pop()
        out.append(_breaks(depth)[0] + "}")
    elif kind is familyjson.RecordTable:
        # one record's text with %d per int, repeated and filled by one %
        (pad, sep), (field, fsep), (item, isep) = map(_breaks, range(depth + 1, depth + 4))
        fields = fsep.join([
            encode_basestring_ascii(key).replace("%", "%%")
            + ": [" + item + isep.join(["%d"] * size) + field + "]"
            for key, size in zip(obj.keys, obj.lengths)
        ])
        count = len(obj.ints) // sum(obj.lengths)
        records = sep.join(["{" + field + fields + pad + "}"] * count) % obj.ints
        out += ("[" + pad, records, _breaks(depth)[0] + "]") if count else ("[]",)
    else:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def render(result: CommandResult) -> str:
    """The payload as ``json.dumps(body, indent=2)`` would write it, with the
    status first when it is not ok."""
    body = dict(result.payload)
    if result.status != "ok":
        body = {"status": result.status, **body}
    out: list[str] = []
    _emit(body, 0, out)
    return "".join(out)


def main(argv: Optional[Sequence[str]] = None) -> None:
    result = run(sys.argv[1:] if argv is None else list(argv))
    text = render(result)
    if result.out:
        try:
            with open(result.out, "w") as handle:
                handle.write(text + "\n")
        except OSError as exc:
            error = f"cannot write output file {result.out!r}: {exc.strerror or exc}"
            result = CommandResult("invalid_input", {"error": error})
            text = render(result)
    try:
        print(text, flush=True)
        if result.show_pretty and result.pretty:
            print(result.pretty, file=sys.stderr)
    except BrokenPipeError:
        # the reader has gone; stdout points at devnull so the flush at exit
        # stays quiet, and the exit code is still the command's own
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(result.exit_code)
