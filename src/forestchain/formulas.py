"""Chain quantities computed purely from spanning-forest weight sums.

Stationary law, mean first passage times, Kemeny's constant, the Green and
harmonic (hitting) formulas, occupation identities, Cesaro forest limits,
and the stopped-walk distribution over cycle-rooted configurations. Every
operation here has an independent linear-algebra counterpart in
``oracle``; the two routes are kept separate on purpose and compared in the
test and verify suites.

The forest sums arrive as integers over one denominator per chain: one
record per root set R, holding its Green numerators, its hitting
numerators and w(R) (``forests.root_set_sums``), and the one- and two-tree
sums (``forests.two_tree_sums``). Every quantity here is a ratio of such
sums, so each output value is a single Fraction of two of those integers,
with no rescaling, built by ``chains.ratio``: the one place a result value
of either route is built, with one gcd.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterable, NamedTuple

from . import oracle
from .chains import (
    InfeasibleRootSetError,
    Matrix,
    ReducibleChainError,
    TransitionMatrix,
    laplacian,
    ratio,
)
from .forests import (
    DEFAULT_GUARD,
    CycleWeights,
    RootSetSums,
    check_roots,
    positive_forest_exists,
    root_set_sums,
    two_tree_sums,
    w_ec_sums,
)


def _check_state(p: TransitionMatrix, i: int) -> None:
    if not 0 <= i < p.n:
        raise ValueError(f"state {i} out of range")


def _check_pair(p: TransitionMatrix, i: int, j: int) -> None:
    if not (0 <= i < p.n and 0 <= j < p.n):
        raise ValueError(f"states ({i},{j}) out of range")


def _weight(p: TransitionMatrix, roots: frozenset[int],
            guard: int) -> RootSetSums:
    """The integer sums of a checked root set, which must have positive
    weight."""
    got = root_set_sums(p, roots, guard)
    if got.weight == 0:
        raise InfeasibleRootSetError(
            f"root set {sorted(roots)} has zero forest weight")
    return got


def stationary(p: TransitionMatrix, guard: int = DEFAULT_GUARD) -> tuple[Fraction, ...]:
    """pi_j = Sigma_j / Sigma^(1) for an irreducible chain."""
    oracle.require_irreducible(p)
    sums = two_tree_sums(p, guard)
    return tuple(ratio(t, sums.total) for t in sums.trees)


def mean_return_time(p: TransitionMatrix, j: int,
                     guard: int = DEFAULT_GUARD) -> Fraction:
    """m_jj = Sigma^(1) / Sigma_j."""
    oracle.require_irreducible(p)
    _check_state(p, j)
    sums = two_tree_sums(p, guard)
    return ratio(sums.total, sums.trees[j])


def mfpt(p: TransitionMatrix, i: int, j: int,
         guard: int = DEFAULT_GUARD) -> Fraction:
    """m_ij = Sigma_ij / Sigma_j for i != j, both from the tree sums.

    Sigma_j = w({j}), and Sigma_ij is the two-tree sum
    sum_{k != j} w_ik({j, k}), as in ``analyze``. The tree-deletion
    Sigma_ij stays the reference that ``verify``'s treealg suite compares
    the two-tree sums with.
    """
    if i == j:
        raise ValueError("mfpt needs i != j; use mean_return_time for i = j")
    oracle.require_irreducible(p)
    _check_pair(p, i, j)
    sums = two_tree_sums(p, guard)
    return ratio(sums.sigma[i][j], sums.trees[j])


def kemeny(p: TransitionMatrix, guard: int = DEFAULT_GUARD) -> Fraction:
    """K = 1 + Sigma^(2) / Sigma^(1), independent of the start state."""
    oracle.require_irreducible(p)
    sums = two_tree_sums(p, guard)
    return ratio(sums.total + sums.pairs, sums.total)


def green_occupation(p: TransitionMatrix, roots: Iterable[int], i: int, j: int,
                     guard: int = DEFAULT_GUARD) -> Fraction:
    """Expected visits to j before hitting R, from i: w_ij(R ∪ {j}) / w(R)."""
    rs = check_roots(p.n, roots)
    if i in rs or j in rs:
        raise ValueError("green_occupation needs i and j outside the root set")
    _check_state(p, i)
    # j is a root of R ∪ {j}, the root set of the numerator, and is
    # refused as one
    check_roots(p.n, rs | {j})
    got = _weight(p, rs, guard)
    at = got.interior.index
    return ratio(got.green[at(i)][at(j)], got.weight)


def mean_hitting_time(p: TransitionMatrix, roots: Iterable[int], i: int,
                      guard: int = DEFAULT_GUARD) -> Fraction:
    """E_i[T_R] = sum_j w_ij(R ∪ {j}) / w(R) over j outside R."""
    rs = check_roots(p.n, roots)
    if i in rs:
        raise ValueError("mean_hitting_time needs i outside the root set")
    _check_state(p, i)
    got = _weight(p, rs, guard)
    return ratio(sum(got.green[got.interior.index(i)]), got.weight)


def hitting_distribution(p: TransitionMatrix, roots: Iterable[int], i: int,
                         guard: int = DEFAULT_GUARD) -> tuple[Fraction, ...]:
    """P_i(X_{T_R} = j) for j in sorted(R): w_ij(R) / w(R); point mass on R."""
    rs = check_roots(p.n, roots)
    if i in rs:
        return tuple(Fraction(1 if j == i else 0) for j in sorted(rs))
    _check_state(p, i)
    got = _weight(p, rs, guard)
    return tuple(ratio(x, got.weight)
                 for x in got.hit[got.interior.index(i)])


# ---------------------------------------------------------------------------
# Cesaro forest limit

def _class_root_choices(p: TransitionMatrix, guard: int):
    """([(sorted R, R's record)], total of the w(R)): one root per
    recurrent class."""
    choices = []
    total = 0
    for ch in itertools.product(*oracle.recurrent_classes(p).classes):
        got = root_set_sums(p, ch, guard)
        choices.append((sorted(ch), got))
        total += got.weight
    return choices, total


def cesaro_forest(p: TransitionMatrix, i: int, j: int,
                  guard: int = DEFAULT_GUARD) -> Fraction:
    """Limit of the averaged transition probabilities, by the forest law.

    One tree per recurrent class; the limit of (1/N) sum P^k at (i, j) is
    the probability that the random forest puts i in a tree rooted at j.
    Zero for transient j. Works for reducible chains.
    """
    _check_state(p, i)
    _check_state(p, j)
    return cesaro_forest_matrix(p, guard)[i][j]


def cesaro_forest_matrix(p: TransitionMatrix,
                         guard: int = DEFAULT_GUARD) -> Matrix:
    """All Cesaro limits at once; rows are probability vectors."""
    choices, total = _class_root_choices(p, guard)
    out = [[0] * p.n for _ in range(p.n)]
    for roots, got in choices:
        for b in roots:
            out[b][b] += got.weight
        for i, row in zip(got.interior, got.hit):
            for b, x in zip(roots, row):
                out[i][b] += x
    return tuple(tuple(ratio(x, total) for x in row) for row in out)


def chung_occupation(p: TransitionMatrix, i: int, j: int, k: int,
                     guard: int = DEFAULT_GUARD) -> Fraction:
    """(m_ik + m_kj - m_ij 1{i!=j}) / m_jj, the occupation-before-k identity.

    With m_ab = S_ab / W_b and m_jj = Sigma^(1) / W_j, where S_ab is the
    two-tree Sigma_ab and W_b = w({b}), this is
    (S_ik W_j + (S_kj - S_ij) W_k) / (Sigma^(1) W_k); S_jj = 0.
    """
    if i == k or j == k:
        raise ValueError("chung_occupation needs i != k and j != k")
    oracle.require_irreducible(p)
    _check_pair(p, i, k)
    sums = two_tree_sums(p, guard)
    _check_pair(p, k, j)
    s, trees = sums.sigma, sums.trees
    num = s[i][k] * trees[j] + (s[k][j] - s[i][j]) * trees[k]
    return ratio(num, sums.total * trees[k])


def ecrsf_stopped_distribution(
    p: TransitionMatrix, roots: Iterable[int], i: int,
    guard: int = DEFAULT_GUARD,
) -> tuple[tuple[Fraction, ...], Fraction]:
    """Law of the walk stopped at R or at its first self-intersection.

    Returns (vector over sorted(R), P_i(T_R < T_loop)), computed with unit
    cycle weights: P_i(X = j) = w^ec_ij(R) / w^ec(R). With empty R all mass
    is on loop formation and the vector is empty.
    """
    rs = sorted(check_roots(p.n, roots, allow_empty=True))
    _check_state(p, i)
    if i in rs:
        return tuple(Fraction(1 if j == i else 0) for j in rs), Fraction(1)
    total, table = w_ec_sums(p, CycleWeights.constant(1), rs, guard)
    if total == 0:
        raise InfeasibleRootSetError(
            f"total cycle-rooted weight for roots {rs} vanishes")
    dist = tuple(table.get((i, j), Fraction(0)) / total for j in rs)
    return dist, sum(dist, Fraction(0))


# ---------------------------------------------------------------------------
# feasibility report

class FeasibilityReport(NamedTuple):
    """Independent evaluations of the root-set feasibility equivalences."""

    roots: tuple[int, ...]
    weight_positive: bool           # w(R) > 0 from the tree sums
    positive_forest_exists: bool    # some forest has all factors positive
    all_states_reach_roots: bool    # graph search on the support digraph
    det_nonzero: bool               # det L(R) != 0, exact
    unreachable: tuple[int, ...]    # certificate for the graph condition

    @property
    def consistent(self) -> bool:
        return (self.weight_positive == self.positive_forest_exists
                == self.all_states_reach_roots == self.det_nonzero)

    @property
    def feasible(self) -> bool:
        return self.weight_positive


def feasibility(p: TransitionMatrix, roots: Iterable[int],
                guard: int = DEFAULT_GUARD) -> FeasibilityReport:
    """Evaluate the feasibility conditions separately; they must agree."""
    rs = frozenset(roots)
    weight_positive = root_set_sums(p, rs, guard).weight > 0
    exists = positive_forest_exists(p, rs, guard)
    unreachable = oracle.states_not_reaching(p, rs)
    keep = [v for v in range(p.n) if v not in rs]
    lap = laplacian(p)
    det_nonzero = oracle.exact_det([[lap[a][b] for b in keep]
                                    for a in keep]) != 0
    return FeasibilityReport(
        roots=tuple(sorted(rs)),
        weight_positive=weight_positive,
        positive_forest_exists=exists,
        all_states_reach_roots=not unreachable,
        det_nonzero=det_nonzero,
        unreachable=unreachable,
    )


# ---------------------------------------------------------------------------
# aggregate analyses

class ChainAnalysis(NamedTuple):
    """Stationary law, full MFPT matrix (diagonal = return times), Kemeny."""

    pi: tuple[Fraction, ...]
    mfpt: Matrix
    kemeny: Fraction


def analyze(p: TransitionMatrix, guard: int = DEFAULT_GUARD) -> ChainAnalysis:
    """Full tree-formula analysis of an irreducible chain.

    With Sigma_j = w({j}) and Sigma^(1) = sum_l Sigma_l: pi_j =
    Sigma_j / Sigma^(1), m_jj = Sigma^(1) / Sigma_j,
    m_ij = Sigma_ij / Sigma_j with the two-tree Sigma_ij =
    sum_{k != j} w_ik({j, k}), and K = 1 + Sigma^(2) / Sigma^(1).
    """
    oracle.require_irreducible(p)
    n = p.n
    sums = two_tree_sums(p, guard)
    trees, total, sigma = sums.trees, sums.total, sums.sigma
    # outputs are built as tuple([...]): CPython grows a generator's tuple
    # from a guessed size and shrinks it, and each such call strands one
    # freed tuple on a per-size free list; those fill up (about 1 MB more
    # resident memory after 600 n = 7 chains through analyze and absorption)
    pi = tuple([ratio(t, total) for t in trees])
    mfpt = tuple([
        tuple([ratio(total, trees[j]) if i == j
               else ratio(sigma[i][j], trees[j])
               for j in range(n)])
        for i in range(n)])
    return ChainAnalysis(pi, mfpt, ratio(total + sums.pairs, total))


class AbsorptionAnalysis(NamedTuple):
    """Green matrix, hitting distribution and mean hitting times for one R."""

    targets: tuple[int, ...]
    interior: tuple[int, ...]
    green: Matrix
    hit: Matrix
    mean_hit: tuple[Fraction, ...]


def absorption(p: TransitionMatrix, roots: Iterable[int],
               guard: int = DEFAULT_GUARD) -> AbsorptionAnalysis:
    """Tree-formula absorption picture for a feasible root set."""
    rs = check_roots(p.n, roots)
    got = _weight(p, rs, guard)
    w = got.weight
    # G_ij = w_ij(R ∪ {j}) / w(R) and h_ib = w_ib(R) / w(R)
    green = tuple([tuple([ratio(x, w) for x in row]) for row in got.green])
    hit = tuple([tuple([ratio(x, w) for x in row]) for row in got.hit])
    mean_hit = tuple([ratio(sum(row), w) for row in got.green])
    return AbsorptionAnalysis(tuple(sorted(rs)), got.interior, green, hit,
                              mean_hit)


def mfpt_via_modified_chain(p: TransitionMatrix, i: int, j: int,
                            guard: int = DEFAULT_GUARD) -> Fraction:
    """m_ij recomputed on the chain modified to jump j -> i deterministically.

    Replacing row j by the point mass at i creates a chain whose recurrent
    class containing {i, j} carries the identity
    m_ij = (sum of the class's tree sums except at j) / (tree sum at j).
    """
    if i == j:
        raise ValueError("needs i != j")
    oracle.require_irreducible(p)
    _check_state(p, i)
    _check_state(p, j)
    rows = [list(row) for row in p.rows]
    rows[j] = [Fraction(1 if c == i else 0) for c in range(p.n)]
    modified = TransitionMatrix(tuple(tuple(r) for r in rows))
    rc = oracle.recurrent_classes(modified)
    idx = rc.class_of(j)
    if idx is None or i not in rc.classes[idx]:
        raise ReducibleChainError(
            "modified chain does not keep i and j in one recurrent class")
    cls = rc.classes[idx]
    pos = {v: a for a, v in enumerate(cls)}
    sub = TransitionMatrix(tuple(
        tuple(modified.rows[v][u] for u in cls) for v in cls))
    # the tree sums of the sub-chain, not p's two-tree Sigma_ij that mfpt
    # reads, so that the two sides of this identity come from different sums
    trees = two_tree_sums(sub, guard).trees
    tj = trees[pos[j]]
    return ratio(sum(trees) - tj, tj)
