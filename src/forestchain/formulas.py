"""Chain quantities computed purely from spanning-forest weight sums.

Stationary law, mean first passage times, Kemeny's constant, the Green and
harmonic (hitting) formulas, occupation identities, Cesaro forest limits,
and the stopped-walk distribution over cycle-rooted configurations. Every
operation here has an independent linear-algebra counterpart in
``oracle``; the two routes are kept separate on purpose and compared in the
test and verify suites.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from . import oracle
from .chains import (
    InfeasibleRootSetError,
    Matrix,
    ReducibleChainError,
    TransitionMatrix,
)
from .forests import (
    DEFAULT_GUARD,
    CycleWeights,
    enumerate_forests,
    forest_weight,
    sigma_pair,
    sigma_r,
    sigma_sums,
    w_ec_sums,
    w_sum,
    w_target_sum,
)


def stationary(p: TransitionMatrix, guard: int = DEFAULT_GUARD) -> tuple[Fraction, ...]:
    """pi_j = Sigma_j / Sigma^(1) for an irreducible chain."""
    oracle.require_irreducible(p)
    sums = sigma_sums(p, guard)
    return tuple(s / sums.sigma1 for s in sums.sigma_vector)


def mean_return_time(p: TransitionMatrix, j: int,
                     guard: int = DEFAULT_GUARD) -> Fraction:
    """m_jj = Sigma^(1) / Sigma_j."""
    oracle.require_irreducible(p)
    sums = sigma_sums(p, guard)
    if sums.sigma(j) == 0:
        raise InfeasibleRootSetError(f"tree sum at state {j} vanishes")
    return sums.sigma1 / sums.sigma(j)


def mfpt(p: TransitionMatrix, i: int, j: int,
         guard: int = DEFAULT_GUARD) -> Fraction:
    """m_ij = Sigma_ij / Sigma_j for i != j."""
    if i == j:
        raise ValueError("mfpt needs i != j; use mean_return_time for i = j")
    oracle.require_irreducible(p)
    sj = w_sum(p, {j}, guard)
    if sj == 0:
        raise InfeasibleRootSetError(f"tree sum at state {j} vanishes")
    return sigma_pair(p, i, j, "tree-deletion", guard) / sj


def kemeny(p: TransitionMatrix, guard: int = DEFAULT_GUARD) -> Fraction:
    """K = 1 + Sigma^(2) / Sigma^(1), independent of the start state."""
    oracle.require_irreducible(p)
    sums = sigma_sums(p, guard)
    return 1 + sigma_r(p, 2, guard) / sums.sigma1


def green_occupation(p: TransitionMatrix, roots: Iterable[int], i: int, j: int,
                     guard: int = DEFAULT_GUARD) -> Fraction:
    """Expected visits to j before hitting R, from i: w_ij(R ∪ {j}) / w(R)."""
    rs = frozenset(roots)
    if i in rs or j in rs:
        raise ValueError("green_occupation needs i and j outside the root set")
    w = w_sum(p, rs, guard)
    if w == 0:
        raise InfeasibleRootSetError(f"root set {sorted(rs)} has zero forest weight")
    return w_target_sum(p, rs, i, j, guard) / w


def mean_hitting_time(p: TransitionMatrix, roots: Iterable[int], i: int,
                      guard: int = DEFAULT_GUARD) -> Fraction:
    """E_i[T_R] = sum_j w_ij(R ∪ {j}) / w(R) over j outside R."""
    rs = frozenset(roots)
    if i in rs:
        raise ValueError("mean_hitting_time needs i outside the root set")
    w = w_sum(p, rs, guard)
    if w == 0:
        raise InfeasibleRootSetError(f"root set {sorted(rs)} has zero forest weight")
    total = Fraction(0)
    for j in range(p.n):
        if j not in rs:
            total += w_target_sum(p, rs, i, j, guard)
    return total / w


def hitting_distribution(p: TransitionMatrix, roots: Iterable[int], i: int,
                         guard: int = DEFAULT_GUARD) -> tuple[Fraction, ...]:
    """P_i(X_{T_R} = j) for j in sorted(R): w_ij(R) / w(R); point mass on R."""
    rs = sorted(set(roots))
    if not rs:
        raise ValueError("root set must be nonempty")
    if i in rs:
        return tuple(Fraction(1 if j == i else 0) for j in rs)
    w = w_sum(p, rs, guard)
    if w == 0:
        raise InfeasibleRootSetError(f"root set {rs} has zero forest weight")
    return tuple(w_target_sum(p, rs, i, j, guard) / w for j in rs)


# ---------------------------------------------------------------------------
# Cesaro forest limit

def _class_root_choices(p: TransitionMatrix, guard: int):
    rc = oracle.recurrent_classes(p)
    choices = [frozenset(ch) for ch in itertools.product(*rc.classes)]
    total = sum((w_sum(p, ch, guard) for ch in choices), Fraction(0))
    return rc, choices, total


def cesaro_forest(p: TransitionMatrix, i: int, j: int,
                  guard: int = DEFAULT_GUARD) -> Fraction:
    """Limit of the averaged transition probabilities, by the forest law.

    One tree per recurrent class; the limit of (1/N) sum P^k at (i, j) is
    the probability that the random forest puts i in a tree rooted at j.
    Zero for transient j. Works for reducible chains.
    """
    rc, choices, total = _class_root_choices(p, guard)
    if rc.class_of(j) is None:
        return Fraction(0)
    num = Fraction(0)
    for roots in choices:
        if j in roots:
            num += w_target_sum(p, roots, i, j, guard)
    return num / total


def cesaro_forest_matrix(p: TransitionMatrix,
                         guard: int = DEFAULT_GUARD) -> Matrix:
    """All Cesaro limits at once; rows are probability vectors."""
    _rc, choices, total = _class_root_choices(p, guard)
    out = [[Fraction(0)] * p.n for _ in range(p.n)]
    for roots in choices:
        for j in roots:
            for i in range(p.n):
                out[i][j] += w_target_sum(p, roots, i, j, guard)
    return tuple(tuple(x / total for x in row) for row in out)


def chung_occupation(p: TransitionMatrix, i: int, j: int, k: int,
                     guard: int = DEFAULT_GUARD) -> Fraction:
    """(m_ik + m_kj - m_ij 1{i!=j}) / m_jj, the occupation-before-k identity."""
    if i == k or j == k:
        raise ValueError("chung_occupation needs i != k and j != k")
    oracle.require_irreducible(p)
    m_ik = mfpt(p, i, k, guard)
    m_kj = mfpt(p, k, j, guard)
    m_ij = mfpt(p, i, j, guard) if i != j else Fraction(0)
    return (m_ik + m_kj - m_ij) / mean_return_time(p, j, guard)


def ecrsf_stopped_distribution(
    p: TransitionMatrix, roots: Iterable[int], i: int,
    guard: int = DEFAULT_GUARD,
) -> tuple[tuple[Fraction, ...], Fraction]:
    """Law of the walk stopped at R or at its first self-intersection.

    Returns (vector over sorted(R), P_i(T_R < T_loop)), computed with unit
    cycle weights: P_i(X = j) = w^ec_ij(R) / w^ec(R). With empty R all mass
    is on loop formation and the vector is empty.
    """
    rs = sorted(set(roots))
    if not 0 <= i < p.n:
        raise ValueError(f"state {i} out of range")
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

@dataclass(frozen=True)
class FeasibilityReport:
    """Independent evaluations of the root-set feasibility equivalences."""

    roots: tuple[int, ...]
    weight_positive: bool           # w(R) > 0 by enumeration
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
    weight_positive = w_sum(p, rs, guard) > 0
    exists = False
    for f in enumerate_forests(p.n, rs, guard):
        if forest_weight(f, p) > 0:
            exists = True
            break
    unreachable = oracle.states_not_reaching(p, rs)
    keep = [v for v in range(p.n) if v not in rs]
    lap = [[(1 if a == b else 0) - p.rows[a][b] for b in keep] for a in keep]
    det_nonzero = oracle.exact_det(lap) != 0
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

@dataclass(frozen=True)
class ChainAnalysis:
    """Stationary law, full MFPT matrix (diagonal = return times), Kemeny."""

    pi: tuple[Fraction, ...]
    mfpt: Matrix
    kemeny: Fraction


def analyze(p: TransitionMatrix, guard: int = DEFAULT_GUARD) -> ChainAnalysis:
    """Full tree-formula analysis of an irreducible chain."""
    oracle.require_irreducible(p)
    sums = sigma_sums(p, guard)
    pi = tuple(s / sums.sigma1 for s in sums.sigma_vector)
    n = p.n
    mat = [[Fraction(0)] * n for _ in range(n)]
    # the two-tree tables behind Sigma^(2) also give every Sigma_ij
    k = 1 + sigma_r(p, 2, guard) / sums.sigma1
    for j in range(n):
        mat[j][j] = sums.sigma1 / sums.sigma(j)
        for i in range(n):
            if i != j:
                mat[i][j] = sigma_pair(p, i, j, "two-forest", guard) / sums.sigma(j)
    return ChainAnalysis(pi, tuple(tuple(row) for row in mat), k)


@dataclass(frozen=True)
class AbsorptionAnalysis:
    """Green matrix, hitting distribution and mean hitting times for one R."""

    targets: tuple[int, ...]
    interior: tuple[int, ...]
    green: Matrix
    hit: Matrix
    mean_hit: tuple[Fraction, ...]


def absorption(p: TransitionMatrix, roots: Iterable[int],
               guard: int = DEFAULT_GUARD) -> AbsorptionAnalysis:
    """Tree-formula absorption picture for a feasible root set."""
    rs = sorted(set(roots))
    w = w_sum(p, rs, guard)
    if w == 0:
        raise InfeasibleRootSetError(f"root set {rs} has zero forest weight")
    interior = [v for v in range(p.n) if v not in set(rs)]
    green = tuple(
        tuple(w_target_sum(p, rs, i, j, guard) / w for j in interior)
        for i in interior)
    hit = tuple(
        tuple(w_target_sum(p, rs, i, j, guard) / w for j in rs)
        for i in interior)
    mean_hit = tuple(sum(row, Fraction(0)) for row in green)
    return AbsorptionAnalysis(tuple(rs), tuple(interior), green, hit, mean_hit)


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
    sums = sigma_sums(sub, guard)
    sj = sums.sigma(pos[j])
    return (sums.sigma1 - sj) / sj
