"""Exact linear-algebra reference route, independent of forest enumeration.

Determinants are computed by fraction-free Bareiss elimination over integers
after clearing each row's denominator; linear systems are solved by exact
Gauss-Jordan elimination over rationals. On top of those sit the stationary,
first-passage and Green solves, the fundamental matrix, the Cesaro average,
the trace-power series for the tree-sum total, and the undirected counting
identities (Temperley shift, principal-minor sum, complete prism). Graph-side
structure (reachability, recurrent classes, periodicity) also lives here so
that every consumer shares one certified decomposition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

import numpy as np

from .chains import (
    InfeasibleRootSetError,
    Matrix,
    ReducibleChainError,
    TransitionMatrix,
    WeightedDigraph,
    laplacian,
    weighted_laplacian,
)


class SingularMatrixError(ValueError):
    """Exact elimination met a structurally singular system."""


class PeriodicChainError(ValueError):
    """The chain is periodic; the trace-power series does not converge."""


# ---------------------------------------------------------------------------
# determinants and solves

def _int_bareiss(m: list[list[int]]) -> int:
    """Determinant of an integer matrix, fraction-free, in place."""
    n = len(m)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[k][k]
        for i in range(k + 1, n):
            mik = m[i][k]
            row_i = m[i]
            row_k = m[k]
            for j in range(k + 1, n):
                # exact division: Bareiss guarantees divisibility by prev
                row_i[j] = (row_i[j] * pivot - mik * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    return sign * m[-1][-1]


def exact_det(m: Sequence[Sequence[Fraction]]) -> Fraction:
    """Exact determinant of a square rational matrix."""
    n = len(m)
    rows = [[Fraction(x) for x in row] for row in m]
    for row in rows:
        if len(row) != n:
            raise ValueError("matrix is not square")
    if n == 0:
        return Fraction(1)
    mult = 1
    cleared = []
    for row in rows:
        d = lcm(*(x.denominator for x in row))
        mult *= d
        cleared.append([int(x * d) for x in row])
    return Fraction(_int_bareiss(cleared), mult)


def _solve(a: Sequence[Sequence[Fraction]],
           b: Sequence[Sequence[Fraction]]) -> list[list[Fraction]]:
    """Solve A X = B exactly by Gauss-Jordan; raises SingularMatrixError."""
    n = len(a)
    width = len(b[0]) if n else 0
    aug = [list(a[i]) + list(b[i]) for i in range(n)]
    for col in range(n):
        pivot_row = next(
            (r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot_row is None:
            raise SingularMatrixError(f"singular system (column {col})")
        aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
        pivot = aug[col][col]
        aug[col] = [x / pivot for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return [row[n:n + width] for row in aug]


def _identity(n: int) -> list[list[Fraction]]:
    return [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]


def _restricted_laplacian(p: TransitionMatrix, keep: Sequence[int]) -> list[list[Fraction]]:
    return [[(1 if i == j else 0) - p.rows[i][j] for j in keep] for i in keep]


# ---------------------------------------------------------------------------
# graph structure

def _reachable(support: Sequence[Sequence[int]], start: int) -> set[int]:
    seen = {start}
    stack = [start]
    while stack:
        u = stack.pop()
        for v in support[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return seen


def irreducibility_certificate(p: TransitionMatrix) -> tuple[int, int] | None:
    """None when irreducible, else a pair (i, j) with j unreachable from i."""
    support = p.support()
    for i in range(p.n):
        reach = _reachable(support, i)
        for j in range(p.n):
            if j not in reach:
                return (i, j)
    return None


def require_irreducible(p: TransitionMatrix) -> None:
    cert = irreducibility_certificate(p)
    if cert is None:
        return
    bad = states_not_reaching_all(p)
    raise ReducibleChainError(
        f"chain is reducible: state {cert[1]} is unreachable from state {cert[0]}; "
        f"infeasible singleton root sets: {sorted(bad)}",
        certificate=cert, infeasible_singletons=sorted(bad))


def states_not_reaching(p: TransitionMatrix, targets: Iterable[int]) -> tuple[int, ...]:
    """States with no positive-probability path into ``targets``."""
    target_set = set(targets)
    # walk the reversed support graph outward from the targets
    rev: list[list[int]] = [[] for _ in range(p.n)]
    for i, row in enumerate(p.support()):
        for j in row:
            rev[j].append(i)
    seen = set(target_set)
    stack = list(target_set)
    while stack:
        u = stack.pop()
        for v in rev[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return tuple(v for v in range(p.n) if v not in seen)


def states_not_reaching_all(p: TransitionMatrix) -> tuple[int, ...]:
    """States j that some state cannot reach (infeasible singleton root sets)."""
    return tuple(
        j for j in range(p.n) if states_not_reaching(p, {j}))


@dataclass(frozen=True)
class RecurrentClasses:
    """Closed communicating classes and the transient remainder."""

    classes: tuple[tuple[int, ...], ...]
    transient: tuple[int, ...]

    def class_of(self, v: int) -> int | None:
        for idx, cls in enumerate(self.classes):
            if v in cls:
                return idx
        return None


def recurrent_classes(p: TransitionMatrix) -> RecurrentClasses:
    """Recurrent classes = closed strongly connected components."""
    support = p.support()
    reach = [_reachable(support, i) for i in range(p.n)]
    assigned: set[int] = set()
    classes = []
    transient = []
    for i in range(p.n):
        if i in assigned:
            continue
        comp = sorted(j for j in reach[i] if i in reach[j])
        assigned.update(comp)
        closed = all(reach[v] <= set(comp) for v in comp)
        if closed:
            classes.append(tuple(comp))
        else:
            transient.extend(comp)
    classes.sort(key=lambda c: c[0])
    return RecurrentClasses(tuple(classes), tuple(sorted(transient)))


def period(p: TransitionMatrix) -> int:
    """Period of an irreducible chain: gcd of cycle lengths, via BFS levels."""
    require_irreducible(p)
    support = p.support()
    level = [-1] * p.n
    level[0] = 0
    queue = [0]
    g = 0
    while queue:
        nxt = []
        for u in queue:
            for v in support[u]:
                if level[v] < 0:
                    level[v] = level[u] + 1
                    nxt.append(v)
                else:
                    g = gcd(g, level[u] + 1 - level[v])
        queue = nxt
    # every vertex was reached, and at least one non-tree arc closed a cycle
    return abs(g) if g else 1


# ---------------------------------------------------------------------------
# chain solves

def stationary_solve(p: TransitionMatrix) -> tuple[Fraction, ...]:
    """Exact solution of pi P = pi, sum(pi) = 1."""
    require_irreducible(p)
    n = p.n
    lap = laplacian(p)
    a = [[lap[j][i] for j in range(n)] for i in range(n)]  # transpose
    a[n - 1] = [Fraction(1)] * n  # replace one redundant equation
    b = [[Fraction(0)] for _ in range(n - 1)] + [[Fraction(1)]]
    try:
        x = _solve(a, b)
    except SingularMatrixError as e:
        raise ReducibleChainError(f"stationary system singular: {e}") from e
    return tuple(row[0] for row in x)


def green_matrix_solve(p: TransitionMatrix, roots: Iterable[int]) -> Matrix:
    """L(R)^{-1}, rows and columns indexed by sorted(S \\ R)."""
    rs = set(roots)
    keep = [v for v in range(p.n) if v not in rs]
    a = _restricted_laplacian(p, keep)
    try:
        inv = _solve(a, _identity(len(keep)))
    except SingularMatrixError as e:
        raise InfeasibleRootSetError(
            f"root set {sorted(rs)} infeasible: L(R) is singular") from e
    return tuple(tuple(row) for row in inv)


def hitting_solve(p: TransitionMatrix, roots: Iterable[int]) -> Matrix:
    """Hitting matrix rows sorted(S \\ R) by columns sorted(R), exact."""
    rs = sorted(set(roots))
    keep = [v for v in range(p.n) if v not in set(rs)]
    a = _restricted_laplacian(p, keep)
    b = [[p.rows[i][j] for j in rs] for i in keep]
    try:
        x = _solve(a, b)
    except SingularMatrixError as e:
        raise InfeasibleRootSetError(
            f"root set {rs} infeasible: L(R) is singular") from e
    return tuple(tuple(row) for row in x)


def mfpt_solve(p: TransitionMatrix) -> Matrix:
    """All mean first passage times by first-step systems; diagonal = 1/pi_j."""
    require_irreducible(p)
    n = p.n
    pi = stationary_solve(p)
    out = [[Fraction(0)] * n for _ in range(n)]
    for j in range(n):
        keep = [v for v in range(n) if v != j]
        a = _restricted_laplacian(p, keep)
        b = [[Fraction(1)] for _ in keep]
        x = _solve(a, b)
        for row, i in zip(x, keep):
            out[i][j] = row[0]
        out[j][j] = 1 / pi[j]
    return tuple(tuple(row) for row in out)


def fundamental_matrix(p: TransitionMatrix) -> Matrix:
    """Z = (I - P + Pi)^{-1} with Pi the stationary projector."""
    require_irreducible(p)
    pi = stationary_solve(p)
    n = p.n
    a = [[(1 if i == j else 0) - p.rows[i][j] + pi[j] for j in range(n)]
         for i in range(n)]
    z = _solve(a, _identity(n))
    return tuple(tuple(row) for row in z)


def kemeny_trace(p: TransitionMatrix) -> Fraction:
    """Trace of the fundamental matrix."""
    z = fundamental_matrix(p)
    return sum((z[i][i] for i in range(p.n)), Fraction(0))


# ---------------------------------------------------------------------------
# float-side limits

def cesaro_average(p: TransitionMatrix, steps: int) -> np.ndarray:
    """(1/N) * sum_{k=1..N} P^k in double precision."""
    if steps < 1:
        raise ValueError("step count must be >= 1")
    mat = np.array([[float(x) for x in row] for row in p.rows])
    acc = np.zeros_like(mat)
    cur = np.eye(p.n)
    for _ in range(steps):
        cur = cur @ mat
        acc += cur
    return acc / steps


def sigma1_series(p: TransitionMatrix, terms: int) -> float:
    """exp(-sum_{k<=K} (tr P^k - 1)/k), converging to the tree-sum total.

    Requires irreducibility and aperiodicity; for periodic chains the series
    does not converge and the input is refused.
    """
    require_irreducible(p)
    if period(p) != 1:
        raise PeriodicChainError(f"chain is periodic with period {period(p)}")
    if terms < 1:
        raise ValueError("need at least one term")
    mat = np.array([[float(x) for x in row] for row in p.rows])
    cur = np.eye(p.n)
    s = 0.0
    for k in range(1, terms + 1):
        cur = cur @ mat
        s += (np.trace(cur) - 1.0) / k
    return float(math.exp(-s))


# ---------------------------------------------------------------------------
# undirected counting identities

def _check_symmetric_laplacian(m: Sequence[Sequence[Fraction]]) -> list[list[Fraction]]:
    n = len(m)
    rows = [[Fraction(x) for x in row] for row in m]
    for i, row in enumerate(rows):
        if len(row) != n:
            raise ValueError("matrix is not square")
        if sum(row) != 0:
            raise ValueError(f"row {i} does not sum to zero; not a Laplacian")
    for i in range(n):
        for j in range(i + 1, n):
            if rows[i][j] != rows[j][i]:
                raise ValueError(f"asymmetric entries at ({i},{j})")
    return rows


def _drop(m: Sequence[Sequence[Fraction]], row: int, col: int) -> list[list[Fraction]]:
    return [
        [x for jj, x in enumerate(r) if jj != col]
        for ii, r in enumerate(m) if ii != row]


def laplacian_cofactor(m: Sequence[Sequence[Fraction]], i: int, j: int) -> Fraction:
    """(i,j) cofactor (-1)^{i+j} det of the minor; all equal on a Laplacian."""
    sign = -1 if (i + j) % 2 else 1
    return sign * exact_det(_drop(m, i, j))


def undirected_tree_count(g: WeightedDigraph, i: int = 0, j: int = 0) -> Fraction:
    """Weighted spanning tree count of a symmetric graph via one cofactor.

    The value is the same for every minor choice (i, j); the defaults take
    the principal (0,0) minor.
    """
    for (t, h, c) in g.arcs:
        if g.conductance(h, t) != c:
            raise ValueError(f"asymmetric conductances on edge ({t},{h})")
    lap = weighted_laplacian(g)
    return laplacian_cofactor(lap, i, j)


def temperley_check(m: Sequence[Sequence[Fraction]]) -> tuple[Fraction, Fraction]:
    """(cofactor tree count, det(L + J)/n^2); the two must be equal."""
    rows = _check_symmetric_laplacian(m)
    n = len(rows)
    lhs = laplacian_cofactor(rows, 0, n - 1)
    shifted = [[rows[i][j] + 1 for j in range(n)] for i in range(n)]
    rhs = exact_det(shifted) / (n * n)
    return lhs, rhs


def minor_product_check(m: Sequence[Sequence[Fraction]]) -> tuple[Fraction, Fraction]:
    """(cofactor tree count, mean of principal minors); equal on a Laplacian.

    The principal-minor sum equals the product of the nonzero eigenvalues,
    so this checks the eigenvalue identity with determinants only.
    """
    rows = _check_symmetric_laplacian(m)
    n = len(rows)
    lhs = laplacian_cofactor(rows, 0, n - 1)
    minor_sum = sum(
        (exact_det(_drop(rows, i, i)) for i in range(n)), Fraction(0))
    return lhs, minor_sum / n


def complete_prism(n: int, m: int) -> WeightedDigraph:
    """K_n x C_m with unit conductances, vertices (a, b) -> a*m + b."""
    if n < 2 or m < 3:
        raise ValueError("complete prism needs n >= 2 and m >= 3")
    arcs = []

    def undirected(u: int, v: int) -> None:
        arcs.append((u, v, Fraction(1)))
        arcs.append((v, u, Fraction(1)))

    for b in range(m):
        for a1 in range(n):
            for a2 in range(a1 + 1, n):
                undirected(a1 * m + b, a2 * m + b)
    for a in range(n):
        for b in range(m):
            undirected(a * m + b, a * m + (b + 1) % m)
    return WeightedDigraph(n * m, tuple(arcs))


def prism_tree_count(n: int, m: int) -> int:
    """Spanning trees of K_n x C_m by the Chebyshev closed form.

    Evaluates m * n^(n-2) * U_{m-1}(sqrt((n+4)/4))^(2n-2) in floating point
    and rounds, refusing when the relative residual exceeds 1e-6.
    """
    if n < 2 or m < 3:
        raise ValueError("complete prism needs n >= 2 and m >= 3")
    x = math.sqrt((n + 4) / 4)
    u_prev, u = 1.0, 2.0 * x  # U_0, U_1
    if m - 1 == 0:
        u = u_prev
    else:
        for _ in range(m - 2):
            u_prev, u = u, 2.0 * x * u - u_prev
    value = m * n ** (n - 2) * u ** (2 * n - 2)
    nearest = round(value)
    if abs(value - nearest) / max(1.0, abs(value)) >= 1e-6:
        raise ValueError(
            f"Chebyshev evaluation residual too large for (n,m)=({n},{m})")
    return int(nearest)
