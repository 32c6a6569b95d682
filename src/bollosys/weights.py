"""Exact-rational weighted sums, closed-form bounds, and the theorem checker.

Everything here is an exact integer or Fraction; nothing is ever evaluated in
floating point.  Tightness claims are equalities, and floats would forge or
break them.  Each sum adds integer numerators over the lcm of its distinct
denominators and normalises one Fraction.  The plain and product-weight sums
read the members by size vector, the blocked sum by distinct part and
distinct support.

The checker is a registry keyed by stable string ids.  Each entry states a
hypothesis (a system class and, where relevant, structural requirements on d,
the blocks, or the size profiles), an exact left-hand side, and an exact
right-hand side.  A hypothesis is verified on the relation rows of its one
class before any bound is evaluated; ``force=True`` skips only the class check and marks the
resulting report.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import chain, repeat
from math import comb, factorial, lcm, prod
from operator import attrgetter, mul
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from .classify import first_violation, relation_rows
from .core import Family
from .search import n_bollobas


class HypothesisError(ValueError):
    """The family does not satisfy a theorem's hypothesis."""


def multinomial(n: int, sizes: Sequence[int]) -> int:
    """n! / (a_1! ... a_k! (n - sum a_i)!), exactly."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if any(a < 0 for a in sizes):
        raise ValueError("sizes must be non-negative")
    total = sum(sizes)
    if total > n:
        raise ValueError(f"sizes sum to {total}, exceeding n={n}")
    denom = prod(factorial(a) for a in sizes) * factorial(n - total)
    return factorial(n) // denom


def _exact_sum(numerators: Iterable[int], denominators: Iterable[int]) -> Fraction:
    """The sum of the quotients numerator / denominator, paired in order and
    normalised once: every numerator is taken to the lcm of the denominators."""
    denominators = list(denominators)
    distinct = set(denominators)
    common = lcm(*distinct)
    scale = {den: common // den for den in distinct}
    return Fraction(sum(map(mul, numerators, map(scale.__getitem__, denominators))), common)


def _size_vector_counts(family: Family) -> Counter:
    parts = map(attrgetter("parts"), family.members)
    return Counter(map(tuple, map(map, repeat(len), parts)))


def inverse_multinomial_sum(family: Family) -> Fraction:
    """Sum over members of 1 / multinomial(sum of part sizes; part sizes),
    that is of prod_r a_r! / t! for part sizes a_r summing to t."""
    counts = _size_vector_counts(family)
    return _exact_sum(
        (count * prod(map(factorial, sizes)) for sizes, count in counts.items()),
        map(factorial, map(sum, counts)),
    )


def blocked_inverse_sum(family: Family) -> Fraction:
    """Blocked variant: per member, the product over blocks X_k of the
    inverse multinomial of the member's part sizes inside X_k.  Its parts
    A_r being disjoint, with f(X) = prod_k |X & X_k|! a member of support S
    adds prod_r f(A_r) / f(S); f is taken once per distinct part and once
    per distinct support, one block at a time."""
    parts = tuple(map(attrgetter("parts"), family.members))
    supports = tuple(map(attrgetter("support"), family.members))
    sets = {*chain.from_iterable(parts), *supports}
    # a block holding at most one support element only adds 0! or 1!; the
    # column of ones keeps a row per set when no block is left
    columns = [
        map(factorial, map(len, map(block.intersection, sets)))
        for block in family.block_supports if len(block) > 1
    ]
    f = dict(zip(sets, map(prod, zip(*columns, repeat(1, len(sets))))))
    return _exact_sum(map(prod, map(map, repeat(f.__getitem__), parts)), map(f.__getitem__, supports))


def tuza_product_sum(family: Family, p: Sequence[Fraction | int]) -> Fraction:
    """Sum over members of prod_r p_r^{|A(r)|} for exact positive weights p
    summing to 1; with p_r = q_r / Q over the lcm Q of the denominators, a
    member of total size t adds prod_r q_r^{a_r} / Q^t."""
    weights = [Fraction(x) for x in p]
    if len(weights) != family.d:
        raise ValueError(f"expected {family.d} weights, got {len(weights)}")
    if any(w <= 0 for w in weights) or sum(weights) != 1:
        raise ValueError("p is not in the open simplex (positive entries summing to 1)")
    common = lcm(*(w.denominator for w in weights))
    q = [w.numerator * (common // w.denominator) for w in weights]
    counts = _size_vector_counts(family)
    return _exact_sum(
        (count * prod(map(pow, q, sizes)) for sizes, count in counts.items()),
        map(pow, repeat(common), map(sum, counts)),
    )


def class_bound(system_class: str, d: int, block_sizes: Sequence[int]) -> int:
    """Closed-form extremal bound for the blocked weighted sum of a class.

    skew/weak: prod_k C(s_k + d - 1, d - 1).  strong/symmetric: the same
    product divided by its largest factor (minimum over the dropped block).
    The bollobas bound N_B(d, s) is the size of the middle rank of
    L(d-1, s), certified by a chain partition and reached by the witness
    that ``search.n_bollobas`` reads off the chains.
    """
    sizes = list(block_sizes)
    if d < 1 or any(s < 0 for s in sizes) or not sizes:
        raise ValueError("need d >= 1 and a non-empty list of non-negative sizes")
    factors = [comb(s + d - 1, d - 1) for s in sizes]
    if system_class in ("skew", "weak"):
        return prod(factors)
    if system_class in ("strong", "symmetric"):
        full = prod(factors)
        return min(full // f for f in factors)
    raise ValueError(f"no closed-form bound for class {system_class!r}")


class InequalityReport(NamedTuple):
    theorem_id: str
    lhs: Fraction
    rhs: Fraction
    holds: bool
    tight: bool
    hypothesis_failed: bool = False


def _uniform_profile(family: Family) -> Optional[tuple[tuple[int, ...], ...]]:
    # per part r, its element count in each block, in block order
    blocks = family.block_supports
    profiles = {
        tuple(tuple(len(x & block) for block in blocks) for x in member.parts)
        for member in family.members
    }
    if len(profiles) > 1:
        raise HypothesisError("members do not share one size profile")
    return next(iter(profiles), None)


def _pair_count_bound(family: Family) -> int:
    # a_r, the largest observed part sizes; [0, 0] for an empty family
    a = [max(column) for column in zip(*_size_vector_counts(family))] or [0, 0]
    return comb(a[0] + a[1], a[0])


def _uniform_blocked_bound(family: Family) -> int:
    profile = _uniform_profile(family)
    if profile is None:
        return 1
    return prod(comb(sum(row), row[0]) for row in zip(*profile))


def _search_bound(family: Family) -> int:
    # N_B(d, s) pinned by a chain partition and the witness read off its
    # chains, with no clique search
    return n_bollobas(family.d, family.support_size).value


class TheoremSpec(NamedTuple):
    theorem_id: str
    description: str
    hypothesis_class: Optional[str]
    lhs: Callable[[Family, Optional[Sequence[Fraction]]], Fraction]
    rhs: Callable[[Family], Fraction]
    d_required: Optional[int] = None
    e_required: Optional[int] = None
    uniform_profile: bool = False


def _plain(family: Family, p=None) -> Fraction:
    return inverse_multinomial_sum(family)


def _blocked(family: Family, p=None) -> Fraction:
    return blocked_inverse_sum(family)


def _count(family: Family, p=None) -> Fraction:
    return Fraction(family.m)


def _tuza(family: Family, p=None) -> Fraction:
    if p is None:
        p = [Fraction(1, family.d)] * family.d
    return tuza_product_sum(family, p)


THEOREMS: dict[str, TheoremSpec] = {}


def _register(spec: TheoremSpec) -> None:
    THEOREMS[spec.theorem_id] = spec


_register(
    TheoremSpec(
        "thm-1.1",
        "Pair systems (d=2) in class bollobas: the inverse-binomial sum is at most 1.",
        "bollobas",
        _plain,
        lambda f: Fraction(1),
        d_required=2,
    )
)
_register(
    TheoremSpec(
        "thm-1.2",
        "Pair systems in class bollobas: the member count is at most "
        "C(a1+a2, a1), with a_r the largest observed part sizes.",
        "bollobas",
        _count,
        _pair_count_bound,
        d_required=2,
    )
)
_register(
    TheoremSpec(
        "thm-1.3",
        "Pair systems in class skew: the member count is at most C(a1+a2, a1), "
        "with a_r the largest observed part sizes.",
        "skew",
        _count,
        _pair_count_bound,
        d_required=2,
    )
)
_register(
    TheoremSpec(
        "thm-1.4",
        "Pair systems in class skew on [n]: the inverse-binomial sum is at most n+1.",
        "skew",
        _plain,
        lambda f: Fraction(f.ground.n + 1),
        d_required=2,
    )
)
_register(
    TheoremSpec(
        "thm-1.5",
        "Pair systems in class skew whose members share one per-block size "
        "profile: the member count is at most the product over blocks of "
        "C(a1k+a2k, a1k).",
        "skew",
        _count,
        _uniform_blocked_bound,
        d_required=2,
        uniform_profile=True,
    )
)
_register(
    TheoremSpec(
        "thm-1.7",
        "Skew systems: the blocked inverse-multinomial sum is at most "
        "prod_k C(s_k+d-1, d-1) over the block support sizes.",
        "skew",
        _blocked,
        lambda f: Fraction(class_bound("skew", f.d, f.block_support_sizes)),
    )
)
_register(
    TheoremSpec(
        "thm-1.8",
        "Bollobas systems of 3-partitions: the inverse-multinomial sum is at "
        "most floor(s/2)+1 over the support size s.",
        "bollobas",
        _plain,
        lambda f: Fraction(f.support_size // 2 + 1),
        d_required=3,
    )
)
_register(
    TheoremSpec(
        "thm-1.9",
        "Strong systems: the blocked inverse-multinomial sum is at most "
        "min_l prod_{k != l} C(s_k+d-1, d-1).",
        "strong",
        _blocked,
        lambda f: Fraction(class_bound("strong", f.d, f.block_support_sizes)),
    )
)
_register(
    TheoremSpec(
        "thm-1.10",
        "Strong systems: the inverse-multinomial sum is at most 1.",
        "strong",
        _plain,
        lambda f: Fraction(1),
    )
)
_register(
    TheoremSpec(
        "thm-1.11",
        "Symmetric systems: the inverse-multinomial sum is at most 1.",
        "symmetric",
        _plain,
        lambda f: Fraction(1),
    )
)
_register(
    TheoremSpec(
        "thm-1.12",
        "Weak systems: sum over members of prod_r p_r^{|A(r)|} is at most 1 "
        "for any positive weights p summing to 1 (uniform p by default).",
        "weak",
        _tuza,
        lambda f: Fraction(1),
    )
)
_register(
    TheoremSpec(
        "thm-weak-blocked",
        "Weak systems: the blocked inverse-multinomial sum is at most "
        "prod_k C(s_k+d-1, d-1), same bound as the skew class.",
        "weak",
        _blocked,
        lambda f: Fraction(class_bound("weak", f.d, f.block_support_sizes)),
    )
)
_register(
    TheoremSpec(
        "thm-4.1",
        "Bollobas systems: the inverse-multinomial sum is at most the exact "
        "extremal family size over increasing-parts partitions of the "
        "support, certified by a chain partition.",
        "bollobas",
        _plain,
        _search_bound,
    )
)
_register(
    TheoremSpec(
        "thm-5.1",
        "Strong systems over exactly two blocks: the blocked sum is at most "
        "C(floor(n/2)+d-1, d-1).",
        "strong",
        _blocked,
        lambda f: Fraction(comb(f.ground.n // 2 + f.d - 1, f.d - 1)),
        e_required=2,
    )
)
_register(
    TheoremSpec(
        "conj-1",
        "Conjectured bound, refutable for d >= 3: bollobas systems would have "
        "inverse-multinomial sum at most 1.",
        "bollobas",
        _plain,
        lambda f: Fraction(1),
    )
)


def check_theorem(
    family: Family,
    theorem_id: str,
    p: Optional[Sequence[Fraction | int]] = None,
    force: bool = False,
) -> InequalityReport:
    """Evaluate one registered inequality on the family, exactly.

    Structural requirements (d, block count, profile uniformity) always
    raise; the class hypothesis raises unless ``force`` is set, in which case
    the report is still produced and flagged ``hypothesis_failed``.
    """
    try:
        spec = THEOREMS[theorem_id]
    except KeyError:
        raise ValueError(f"unknown theorem id {theorem_id!r}") from None
    if p is not None and spec.lhs is not _tuza:
        raise ValueError(f"{theorem_id} does not take product weights")
    if spec.d_required is not None and family.d != spec.d_required:
        raise HypothesisError(
            f"{theorem_id} requires d={spec.d_required}, family has d={family.d}"
        )
    if spec.e_required is not None and family.ground.e != spec.e_required:
        raise HypothesisError(
            f"{theorem_id} requires {spec.e_required} blocks, family has {family.ground.e}"
        )
    if spec.uniform_profile:
        _uniform_profile(family)
    hypothesis_failed = False
    if spec.hypothesis_class is not None:
        rows = relation_rows(family.members, family.d, spec.hypothesis_class)
        if first_violation(rows, family.m) is not None:
            if not force:
                raise HypothesisError(
                    f"{theorem_id} requires a {spec.hypothesis_class} system"
                )
            hypothesis_failed = True
    lhs = Fraction(spec.lhs(family, p))
    rhs = Fraction(spec.rhs(family))
    return InequalityReport(theorem_id, lhs, rhs, lhs <= rhs, lhs == rhs, hypothesis_failed)
