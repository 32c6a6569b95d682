"""Exact tools for systems of d-partitions of [n].

The package represents families of d-partitions over blocked ground sets,
classifies them into the five nested system classes (weak, skew, bollobas,
strong, symmetric), evaluates the associated weighted-sum inequalities in
exact rational arithmetic, generates the known tight families, computes exact
extremal family sizes (N_B certified by a chain partition), and emits
machine-checkable counterexample certificates against the sum-at-most-1
conjecture.
"""

from .classify import (
    ClassFlags,
    classify,
    classify_with_witnesses,
    pair_bollobas,
    pair_skew,
    pair_strong,
    pair_symmetric,
    pair_weak,
)
from .constructions import (
    Certificate,
    PairWitness,
    chain_family_d3,
    complement_pair_family,
    counterexample_conj1,
    expanded_chain_family,
    lex_full_family,
    matchbox_weak_family,
    permutation_family,
    type_expansion,
)
from .core import (
    CapExceeded,
    DPartition,
    Family,
    GroundSet,
    InvariantError,
    VerificationError,
    fill_to_full,
    parts_increasing,
    set_less,
    with_blocks,
)
from .permoracle import (
    DoubleCountResult,
    block_permutations,
    double_count_identity,
    i_sigma,
)
from .search import (
    SearchOutcome,
    TableCell,
    interval_vertices,
    n_bollobas,
    n_skew,
    n_strong,
    n_table,
    n_weak,
    search_class,
)
from .weights import (
    HypothesisError,
    InequalityReport,
    THEOREMS,
    blocked_inverse_sum,
    check_theorem,
    class_bound,
    inverse_multinomial_sum,
    multinomial,
    tuza_product_sum,
)

__version__ = "0.1.0"
