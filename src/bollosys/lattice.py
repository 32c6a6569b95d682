"""The lattice L(d-1, s) behind the bollobas search, and its chains.

Each interval vertex is listed once, as its prefix sums P = (c1, c1+c2,
..., c1+...+c_{d-1}) for part sizes c (``search.lattice_points``), and laid
out from that point.  P is a point with 0 <= P_1 <= ... <= P_{d-1} <= s: a
partition that fits in a (d-1) x s box.  A vertex p is skew to q exactly
when P_a(p) > P_a(q) for some a.  (An element x in part a of p and in part
b > a of q has x <= P_a(p) and x > P_{b-1}(q) >= P_a(q); conversely
x = P_a(p) lies in a part a' <= a of p and in a part b > a of q.)  So two
vertices are bollobas exactly when their points are incomparable
componentwise, and N_B(d, s) is the width of L(d-1, s).  That lattice is
Sperner (Stanley, SIAM J. Algebraic Discrete Methods 1980; Proctor, Amer.
Math. Monthly 1982): its width is the size of the middle rank, the points
with sum(P) = floor((d-1)s/2), which is the middle coefficient of the
Gaussian binomial [s+d-1 choose d-1]_q.

The search does not take this on trust.  A partition of the points into
as many chains as the middle rank has members bounds every bollobas family
from above (Dilworth): a chain is totally ordered, so it meets such a family
at most once.  The chains come from matching each rank into its neighbour
toward the middle by augmenting paths, and ``verify_chains`` re-checks them
with code the matcher does not share, on the points every vertex is laid out
from.  The maximum antichains of a finite poset form a distributive lattice
(Dilworth, Proc. Symp. Appl. Math. 10, 1960), so there is a lowest one;
``lowest_antichain`` reads it off the chains, and the search re-verifies it
as a bollobas family by relation rows.  Nothing here recurses, at any vertex
count.
"""

from __future__ import annotations

import itertools
from operator import le
from typing import Optional

from .core import VerificationError


def middle_rank(points: list[tuple[int, ...]], s: int) -> list[int]:
    """Indices of the lattice points (from ``search.lattice_points``) whose
    entries add up to floor((d-1)s/2), ascending: the largest rank of
    L(d-1, s), a bollobas family of size N_B(d, s)."""
    mid = len(points[0]) * s // 2
    return [i for i, point in enumerate(points) if sum(point) == mid]


def _matching(left: list[int], neighbours: list[list[int]]) -> dict[int, int]:
    # maximum matching of the left vertices into their neighbours, as
    # right -> left: a greedy pass, then one augmenting-path search per
    # vertex it left unmatched, on an explicit stack
    owner: dict[int, int] = {}
    for u in left:
        free = next((w for w in neighbours[u] if w not in owner), None)
        if free is not None:
            owner[free] = u
    matched = set(owner.values())
    for root in left:
        if root in matched:
            continue
        seen: set[int] = set()
        stack = [(root, iter(neighbours[root]))]
        via: list[int] = []  # via[k]: the right vertex that led to stack[k + 1]
        while stack:
            w = next((w for w in stack[-1][1] if w not in seen), None)
            if w is None:
                stack.pop()
                if via:
                    via.pop()
                continue
            seen.add(w)
            if w in owner:
                via.append(w)
                stack.append((owner[w], iter(neighbours[owner[w]])))
                continue
            for (u, _), x in zip(reversed(stack), (w, *reversed(via))):
                owner[x] = u
            break
    return owner


def _toward_middle(points: list[tuple[int, ...]], sums: list[int], s: int) -> list[list[int]]:
    # per point (from ``search.lattice_points``, sums[i] = sum(points[i])),
    # the indices of the points one cover step nearer the middle rank, in
    # the order of the entry moved; none on the middle rank.  An entry may
    # rise while it stays below the next entry (or s), and fall while it
    # stays above the previous one (or 0).  The index is the lex rank of the
    # bars b_a = P_a + a among N = s + k slots, k = len(point): raising
    # entry a from v adds C(N - 2 - b_a, k - 1 - a), lowering it subtracts
    # C(N - 1 - b_a, k - 1 - a).  With j = k - 1 - a both read
    # gains[a][w] = C(s - w + j, j), at w = v + 1 and w = v
    k = len(points[0])
    columns = [[1] * (s + 1)]  # columns[j][m] = C(m + j, j), by hockey stick
    for _ in range(k - 1):
        columns.append(list(itertools.accumulate(columns[-1])))
    gains = [column[::-1] for column in reversed(columns)]
    mid = k * s // 2
    neighbours = []
    for i, (point, rank) in enumerate(zip(points, sums)):
        if rank < mid:
            bounds = (*point[1:], s)
            neighbours.append([
                i + gain[v + 1]
                for v, bound, gain in zip(point, bounds, gains)
                if v != bound
            ])
        elif rank > mid:
            bounds = (0, *point[:-1])
            neighbours.append([
                i - gain[v]
                for v, bound, gain in zip(point, bounds, gains)
                if v != bound
            ])
        else:
            neighbours.append([])
    return neighbours


def chain_partition(points: list[tuple[int, ...]], s: int) -> list[list[int]]:
    """A partition of the lattice points (from ``search.lattice_points``)
    into chains of L(d-1, s), as index lists, each listed upward along cover
    edges (one entry raised by 1).

    Each rank is matched into its neighbour rank toward the middle rank
    floor((d-1)s/2); following the matches from every point that no match
    reaches from below gives the chains.  When every matching saturates the
    smaller rank there is one chain per middle-rank point."""
    top = len(points[0]) * s
    mid = top // 2
    sums = list(map(sum, points))
    ranks: list[list[int]] = [[] for _ in range(top + 1)]
    for i, rank in enumerate(sums):
        ranks[rank].append(i)
    neighbours = _toward_middle(points, sums, s)
    above: list[Optional[int]] = [None] * len(points)
    below: list[Optional[int]] = [None] * len(points)
    for r, level in enumerate(ranks):
        if r == mid:
            continue
        for w, u in _matching(level, neighbours).items():
            low, high = (u, w) if r < mid else (w, u)
            above[low] = high
            below[high] = low
    chains = []
    for i in range(len(points)):
        if below[i] is None:
            chain = [i]
            while above[chain[-1]] is not None:
                chain.append(above[chain[-1]])
            chains.append(chain)
    return chains


def lowest_antichain(points: list[tuple[int, ...]], chains: list[list[int]]) -> list[int]:
    """The lowest antichain meeting every chain, as ascending point indices.

    Each chain is listed upward (``chain_partition``, re-checked by
    ``verify_chains``).  One pointer per chain starts at its bottom member.
    While the current members x of chain i and y of chain j satisfy x <= y,
    no antichain meeting every chain can take from chain i a member at or
    below y (it would lie below the member it takes from chain j), so
    pointer i moves past all of those, and chain i is compared anew.  At the
    fixpoint the current members are pairwise incomparable, and every
    antichain meeting every chain lies at or above them, chain by chain.
    Componentwise order implies index order, so the chains ascend in index
    and the sorted members are the lex-least such antichain.  A pointer run
    off its chain proves there is none: a VerificationError."""
    pointer = [0] * len(chains)
    current = [points[chain[0]] for chain in chains]
    queue = list(range(len(chains)))
    while queue:
        i = queue.pop()
        for j in range(len(chains)):
            if j == i:
                continue
            if all(map(le, current[i], current[j])):
                low, high = i, j
            elif all(map(le, current[j], current[i])):
                low, high = j, i
            else:
                continue
            chain, at = chains[low], pointer[low]
            while at < len(chain) and all(map(le, points[chain[at]], current[high])):
                at += 1
            if at == len(chain):
                raise VerificationError(f"no antichain meets all {len(chains)} chains")
            pointer[low], current[low] = at, points[chain[at]]
            if low not in queue:
                queue.append(low)
    return sorted(chain[at] for chain, at in zip(chains, pointer))


def verify_chains(chains: list[list[int]], points: list[tuple[int, ...]]) -> None:
    """Check, independently of the matcher, that the chains partition the
    points (one per interval vertex, which is laid out from it) and that
    each member's point is at most the next one's, componentwise.  A chain
    is then totally ordered, so it holds no bollobas pair and meets any
    bollobas family at most once; raises VerificationError otherwise."""
    if sorted(i for chain in chains for i in chain) != list(range(len(points))):
        raise VerificationError("chains do not partition the interval vertices")
    for chain in chains:
        for i, j in itertools.pairwise(chain):
            if not all(map(le, points[i], points[j])):
                raise VerificationError(f"chain link ({i}, {j}) is not componentwise increasing")
