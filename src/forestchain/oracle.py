"""Exact linear-algebra reference route, independent of forest enumeration.

Determinants and solves share one fraction-free elimination over integer
rows, whose last pivot is the determinant or the solution's denominator. On
top of it sit the stationary, first-passage and Green solves, the
fundamental matrix, two float checks (the Cesaro average and the trace-power
series for the tree-sum total) and the undirected counting identities
(Temperley shift, principal-minor sum, complete prism). Graph-side
structure (reachability, recurrent classes, periodicity) also lives here so
that every consumer shares one certified decomposition.

The stationary, Green, hitting and fundamental solves take I - P with each
row i scaled by its denominator dens_i (``chains.scaled_rows``), so their
systems are integer from the start: dens_i delta_ij - num_ij on the left
(transposed for pi), and dens_i e_i or num_ib on the right. Each solution
entry is then one Fraction of two integers.

Each system is eliminated once and kept in a small memo: pi and the
fundamental matrix Z once per chain, L(R) once per root set. Kemeny's trace,
Z itself and every mean first passage time read the one Z solve, the last
by m_ij = (z_jj - z_ij) / pi_j. The Green and hitting matrices are the two
halves of one solve of L(R) X = [I | P_R].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Iterable, Sequence

from .chains import (
    InfeasibleRootSetError,
    Matrix,
    ReducibleChainError,
    TransitionMatrix,
    WeightedDigraph,
    check_roots,
    scaled_rows,
    weighted_laplacian,
)


class SingularMatrixError(ValueError):
    """Exact elimination met a structurally singular system."""


class PeriodicChainError(ValueError):
    """The chain is periodic; the trace-power series does not converge."""


# ---------------------------------------------------------------------------
# determinants and solves

def _integer_rows(rows: Sequence[Sequence[Fraction | int]]) -> tuple[list[list[int]], int]:
    """Each row times the lcm of its denominators, and the product of those lcms."""
    scale = 1
    out = []
    for row in rows:
        # a list, not a generator: a generator's argument tuple is resized,
        # and the freed tuples pile up on CPython's per-size free lists
        d = lcm(*[x.denominator for x in row])
        scale *= d
        out.append([x.numerator * (d // x.denominator) for x in row])
    return out, scale


def _eliminate(rows: list[list[int]]) -> int:
    """Fraction-free (Bareiss) elimination of n integer rows, in place.

    Rows may carry right-hand sides after their n coefficients. Updates
    divide exactly by the previous pivot, and a swap negates the row it
    moves down, so the determinant and the solution stay. Without
    right-hand sides only rows below each pivot are updated and the last
    pivot d is the determinant; with them every other row is too, leaving
    d I beside d X. Raises SingularMatrixError on a zero pivot column.
    """
    n = len(rows)
    below_only = all(len(row) == n for row in rows)
    prev = 1
    for k in range(n):
        r = next((r for r in range(k, n) if rows[r][k]), None)
        if r is None:
            raise SingularMatrixError(f"singular system (column {k})")
        if r != k:
            rows[k], rows[r] = rows[r], [-x for x in rows[k]]
        row_k = rows[k]
        pivot = row_k[k]
        for i in range(k + 1 if below_only else 0, n):
            if i != k:
                row_i = rows[i]
                mik = row_i[k]
                rows[i] = [(x * pivot - mik * y) // prev
                           for x, y in zip(row_i, row_k)]
        prev = pivot
    return prev


def exact_det(m: Sequence[Sequence[Fraction]]) -> Fraction:
    """Exact determinant of a square rational matrix."""
    rows = [[Fraction(x) for x in row] for row in m]
    if any(len(row) != len(rows) for row in rows):
        raise ValueError("matrix is not square")
    cleared, scale = _integer_rows(rows)
    try:
        return Fraction(_eliminate(cleared), scale)
    except SingularMatrixError:
        return Fraction(0)


def _solve(a: Sequence[Sequence[Fraction | int]],
           b: Sequence[Sequence[Fraction | int]]) -> tuple[list[list[int]], int]:
    """Solve A X = B exactly as (d X, d), with d X an integer matrix and d
    the elimination's last pivot; raises SingularMatrixError.

    Entries may be Fractions or ints; each row of [A | B] is scaled to
    integers first, which leaves X unchanged.
    """
    n = len(a)
    rows, _ = _integer_rows([[*a[i], *b[i]] for i in range(n)])
    d = _eliminate(rows)
    return [row[n:] for row in rows], d


def _ratios(x: Sequence[Sequence[int]], d: int) -> Matrix:
    """The matrix X of a solve's (d X, d)."""
    return tuple(tuple(Fraction(v, d) for v in row) for row in x)


def _scaled_laplacian(p: TransitionMatrix, keep: Sequence[int]) -> list[list[int]]:
    """I - P on the states ``keep`` with row i times dens_i, so each entry is
    the integer dens_i delta_ij - num_ij."""
    nums, dens = scaled_rows(p)
    return [[(dens[i] if i == j else 0) - nums[i][j] for j in keep]
            for i in keep]


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


# Bound, in chains, on the memo below: the formulas check their chain on every
# call, and chung_occupation alone makes up to five such calls per triple.
_CERTIFICATE_CACHE_SIZE = 64


@lru_cache(maxsize=_CERTIFICATE_CACHE_SIZE)
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

# Bound, in chains, on the memo below: mfpt_solve and fundamental_matrix each
# need pi, and a caller checking a chain asks for pi as well.
_STATIONARY_CACHE_SIZE = 64


@lru_cache(maxsize=_STATIONARY_CACHE_SIZE)
def stationary_solve(p: TransitionMatrix) -> tuple[Fraction, ...]:
    """Exact solution of pi P = pi, sum(pi) = 1.

    With row i of I - P scaled by dens_i, pi (I - P) = 0 holds for
    y_i = pi_i / dens_i, and sum(pi) = 1 becomes sum_i dens_i y_i = 1.
    """
    require_irreducible(p)
    n = p.n
    dens = scaled_rows(p)[1]
    a = [list(col) for col in zip(*_scaled_laplacian(p, range(n)))]
    a[n - 1] = list(dens)  # replace one redundant equation
    b = [[0] for _ in range(n - 1)] + [[1]]
    try:
        y, d = _solve(a, b)
    except SingularMatrixError as e:
        raise ReducibleChainError(f"stationary system singular: {e}") from e
    return tuple(Fraction(row[0] * dens_i, d) for row, dens_i in zip(y, dens))


# Bounds, in chains or root sets, on the two memos below. Each joins calls
# that come one after the other on one key: kemeny_trace and mfpt_solve on
# one chain, green_matrix_solve and hitting_solve on one root set. So one
# entry serves every caller.
_FUNDAMENTAL_CACHE_SIZE = 1
_ROOT_SET_SOLVE_CACHE_SIZE = 1


@lru_cache(maxsize=_ROOT_SET_SOLVE_CACHE_SIZE)
def _root_set_solve(p: TransitionMatrix, roots: frozenset[int]
                    ) -> tuple[tuple[tuple[int, ...], ...], int]:
    """(d [G | H], d) for L(R) [G | H] = [dens I | nums_R]: the Green matrix
    G = L(R)^{-1} and the hitting matrix H = G P_R in one elimination,
    rows sorted(S \\ R), G's columns the same states, H's sorted(R).

    Each right-hand side comes with row i times dens_i, as L(R)'s rows do.
    Raises SingularMatrixError when L(R) is singular.
    """
    keep = [v for v in range(p.n) if v not in roots]
    rs = sorted(roots)
    nums, dens = scaled_rows(p)
    b = [[*[dens[i] if i == j else 0 for j in keep], *[nums[i][j] for j in rs]]
         for i in keep]
    x, d = _solve(_scaled_laplacian(p, keep), b)
    return tuple(map(tuple, x)), d


def green_matrix_solve(p: TransitionMatrix, roots: Iterable[int]) -> Matrix:
    """L(R)^{-1}, rows and columns indexed by sorted(S \\ R)."""
    rs = check_roots(p.n, roots, allow_empty=True)
    try:
        x, d = _root_set_solve(p, rs)
    except SingularMatrixError as e:
        raise InfeasibleRootSetError(
            f"root set {sorted(rs)} infeasible: L(R) is singular") from e
    return _ratios([row[:len(x)] for row in x], d)


def hitting_solve(p: TransitionMatrix, roots: Iterable[int]) -> Matrix:
    """Hitting matrix rows sorted(S \\ R) by columns sorted(R), exact."""
    rs = check_roots(p.n, roots, allow_empty=True)
    try:
        x, d = _root_set_solve(p, rs)
    except SingularMatrixError as e:
        raise InfeasibleRootSetError(
            f"root set {sorted(rs)} infeasible: L(R) is singular") from e
    return _ratios([row[len(x):] for row in x], d)


@lru_cache(maxsize=_FUNDAMENTAL_CACHE_SIZE)
def _fundamental_solve(p: TransitionMatrix
                       ) -> tuple[tuple[tuple[int, ...], ...], int]:
    """(d Z, d) for Z = (I - P + Pi)^{-1}, Pi the stationary projector."""
    require_irreducible(p)
    pi = stationary_solve(p)
    n = p.n
    # row i times dens_i q, with q the common denominator of pi
    dens = scaled_rows(p)[1]
    q = lcm(*[x.denominator for x in pi])
    pis = [x.numerator * (q // x.denominator) for x in pi]
    a = [[c * q + pi_j * d for c, pi_j in zip(row, pis)]
         for row, d in zip(_scaled_laplacian(p, range(n)), dens)]
    b = [[d * q if i == j else 0 for j in range(n)] for i, d in enumerate(dens)]
    z, d = _solve(a, b)
    return tuple(map(tuple, z)), d


def mfpt_solve(p: TransitionMatrix) -> Matrix:
    """All mean first passage times from the fundamental matrix Z:
    m_ij = (z_jj - z_ij) / pi_j for i != j and m_jj = 1 / pi_j (Kemeny and
    Snell, Finite Markov Chains, 1960)."""
    z, d = _fundamental_solve(p)
    pi = stationary_solve(p)
    # with d Z in integers, m_ij = (d z_jj - d z_ij) den_j / (d num_j)
    # for pi_j = num_j / den_j
    return tuple(
        tuple(Fraction(x.denominator, x.numerator) if i == j else
              Fraction((z[j][j] - zij) * x.denominator, d * x.numerator)
              for j, (zij, x) in enumerate(zip(row, pi)))
        for i, row in enumerate(z))


def fundamental_matrix(p: TransitionMatrix) -> Matrix:
    """Z = (I - P + Pi)^{-1} with Pi the stationary projector."""
    return _ratios(*_fundamental_solve(p))


def kemeny_trace(p: TransitionMatrix) -> Fraction:
    """Trace of the fundamental matrix: the integer diagonal of d Z over d."""
    z, d = _fundamental_solve(p)
    return Fraction(sum(row[i] for i, row in enumerate(z)), d)


# ---------------------------------------------------------------------------
# float-side limits

FloatMatrix = tuple[tuple[float, ...], ...]


def _float_product(a: FloatMatrix, b: FloatMatrix) -> FloatMatrix:
    cols = tuple(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in cols)
                 for row in a)


def _float_sum(a: FloatMatrix, b: FloatMatrix) -> FloatMatrix:
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def cesaro_average(p: TransitionMatrix, steps: int) -> FloatMatrix:
    """(1/N) * sum_{k=1..N} P^k in double precision, by doubling the sum S(m)
    along the bits of N: S(2m) = S(m) + P^m S(m), S(2m+1) = S(2m) + P^(2m+1).
    """
    if steps < 1:
        raise ValueError("step count must be >= 1")
    mat = tuple(tuple(float(x) for x in row) for row in p.rows)
    power = total = mat  # P^m and S(m), m = 1
    for bit in bin(steps)[3:]:
        total = _float_sum(total, _float_product(power, total))
        power = _float_product(power, power)
        if bit == "1":
            power = _float_product(power, mat)
            total = _float_sum(total, power)
    return tuple(tuple(x / steps for x in row) for row in total)


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
    mat = tuple(tuple(float(x) for x in row) for row in p.rows)
    cur = mat  # P^k
    s = 0.0
    for k in range(1, terms + 1):
        s += (sum(cur[i][i] for i in range(p.n)) - 1.0) / k
        cur = _float_product(cur, mat)
    return math.exp(-s)


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
