"""Exact linear-algebra reference route, independent of forest enumeration.

Determinants and solves share one fraction-free elimination over integer
rows, whose last pivot is the determinant or the solution's denominator. On
top of it sit the stationary, first-passage and Green solves, the
fundamental matrix, two float checks (the Cesaro average and the trace-power
series for the tree-sum total) and the undirected counting identities
(Temperley shift, principal-minor sum, complete prism). Graph-side
structure (reachability, recurrent classes, periodicity) also lives here so
that every consumer shares one certified decomposition; the recurrent
classes come from one strongly-connected-components pass.

The chain and root-set solves take I - P with each row i scaled by its
denominator dens_i (``chains.scaled_rows``), so their systems are integer
from the start: dens_i delta_ij - num_ij on the left, and dens_i e_i or
num_ib on the right. Each solution entry is then one Fraction of two
integers, built by ``chains.ratio``: the one place a result value of either
route is built, with one gcd.

The chain system G = (I - P + 1 e^T)^{-1}, e the last state's unit vector,
is eliminated once per chain and kept. pi is G's last row, and G differs
from the fundamental matrix Z only by a constant down each column whose sum
is zero (Hunter, 1982), so Kemeny's trace is tr G, every mean first passage
time is m_ij = (g_jj - g_ij) / pi_j, and Z is read off G too.

The Green and hitting matrices are the two halves of one solve of L(R) X =
[I | P_R], kept per chain as d X over d = det of the row-scaled L(R). A
root set R + {v} whose parent R is kept is read off it by one principal
pivot (Sylvester's identity; Bareiss, Math. Comp. 22, 1968) in f (f + |R|)
multiply-adds for f free states, where a fresh elimination takes O(f^3);
a sweep over every root set of an irreducible chain, rank by rank,
eliminates only the singletons. The integer solves of every proper root
set of a dense chain take about 1.9, 5 and 12 ms at n = 7, 8 and 9 on a
2-vCPU host, against 6, 17-21 and 40-54 ms with an elimination per root
set.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Iterable, NamedTuple, Sequence

from .chains import (
    MAX_STATES,
    InfeasibleRootSetError,
    Matrix,
    ReducibleChainError,
    TransitionMatrix,
    check_roots,
    ratio,
    scaled_rows,
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


def exact_det(m: Sequence[Sequence[Fraction | int]]) -> Fraction:
    """Exact determinant of a square rational matrix.

    Fraction and int entries are taken as they are; any other entry is
    converted with Fraction(x) first.
    """
    rows = [[x if isinstance(x, (Fraction, int)) else Fraction(x) for x in row]
            for row in m]
    if any(len(row) != len(rows) for row in rows):
        raise ValueError("matrix is not square")
    cleared, scale = _integer_rows(rows)
    try:
        return ratio(_eliminate(cleared), scale)
    except SingularMatrixError:
        return Fraction(0)


def _solve(a: Sequence[Sequence[int]],
           b: Sequence[Sequence[int]]) -> tuple[list[list[int]], int]:
    """Solve A X = B exactly for integer A and B as (d X, d), with d X an
    integer matrix and d = det A the elimination's last pivot; raises
    SingularMatrixError.
    """
    n = len(a)
    rows = [[*a[i], *b[i]] for i in range(n)]
    d = _eliminate(rows)
    return [row[n:] for row in rows], d


def _scaled_laplacian(p: TransitionMatrix, keep: Sequence[int]) -> list[list[int]]:
    """I - P on the states ``keep`` with row i times dens_i, so each entry is
    the integer dens_i delta_ij - num_ij."""
    nums, dens = scaled_rows(p)
    return [[(dens[i] if i == j else 0) - nums[i][j] for j in keep]
            for i in keep]


# ---------------------------------------------------------------------------
# graph structure

def _reachable(adjacent: Sequence[Sequence[int]], starts: Iterable[int]) -> set[int]:
    """``starts`` and every state reached from them along ``adjacent``."""
    seen = set(starts)
    stack = list(seen)
    while stack:
        u = stack.pop()
        for v in adjacent[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return seen


def _reversed_support(p: TransitionMatrix) -> list[list[int]]:
    rev: list[list[int]] = [[] for _ in range(p.n)]
    for i, row in enumerate(p.support()):
        for j in row:
            rev[j].append(i)
    return rev


# Bound, in chains, on the memo below: the formulas check their chain on every
# call, so the chung suite asks once per index triple, n (n - 1)^2 times per
# chain.
_CERTIFICATE_CACHE_SIZE = 64


@lru_cache(maxsize=_CERTIFICATE_CACHE_SIZE)
def irreducibility_certificate(p: TransitionMatrix) -> tuple[int, int] | None:
    """None when irreducible, else a pair (i, j) with j unreachable from i:
    the least such i, and the least j for that i.

    Two searches stand in for one per state. When state 0 misses some
    state, i = 0. Otherwise a state reaches every state exactly when it
    reaches 0, so the least i that misses anything misses 0, and j = 0.
    """
    reach = _reachable(p.support(), (0,))
    for j in range(p.n):
        if j not in reach:
            return (0, j)
    stranded = states_not_reaching(p, {0})
    return (stranded[0], 0) if stranded else None


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
    seen = _reachable(_reversed_support(p), targets)
    return tuple(v for v in range(p.n) if v not in seen)


def states_not_reaching_all(p: TransitionMatrix) -> tuple[int, ...]:
    """States j that some state cannot reach (infeasible singleton root sets):
    every state reaches a recurrent class and no path leaves one, so all
    states when there are two classes or more, else the transient ones."""
    rc = recurrent_classes(p)
    return tuple(range(p.n)) if len(rc.classes) > 1 else rc.transient


class RecurrentClasses(NamedTuple):
    """Closed communicating classes and the transient remainder."""

    classes: tuple[tuple[int, ...], ...]
    transient: tuple[int, ...]

    def class_of(self, v: int) -> int | None:
        for idx, cls in enumerate(self.classes):
            if v in cls:
                return idx
        return None


def recurrent_classes(p: TransitionMatrix) -> RecurrentClasses:
    """Recurrent classes = closed strongly connected components, found in
    one pass of Tarjan's search over the support, iterative, so a path of
    any length costs no recursion. A component is a class when no arc
    leaves it; every other state is transient."""
    support = p.support()
    n = p.n
    order = [-1] * n      # discovery index, -1 while unvisited
    low = [0] * n         # least index reachable through the search tree
    component = [-1] * n  # component number once the state's is complete
    stack: list[int] = []
    classes = []
    transient = []
    count = components = 0
    for start in range(n):
        if order[start] >= 0:
            continue
        order[start] = low[start] = count
        count += 1
        stack.append(start)
        path = [(start, iter(support[start]))]
        while path:
            v, arcs = path[-1]
            for u in arcs:
                if order[u] < 0:
                    order[u] = low[u] = count
                    count += 1
                    stack.append(u)
                    path.append((u, iter(support[u])))
                    break
                if component[u] < 0 and order[u] < low[v]:
                    low[v] = order[u]  # u is on the stack
            else:
                path.pop()
                if path and low[v] < low[path[-1][0]]:
                    low[path[-1][0]] = low[v]
                if low[v] == order[v]:
                    members = []
                    u = -1
                    while u != v:
                        u = stack.pop()
                        component[u] = components
                        members.append(u)
                    # every arc out of the component leads to a complete one
                    if all(component[u] == components
                           for w in members for u in support[w]):
                        classes.append(tuple(sorted(members)))
                    else:
                        transient.extend(members)
                    components += 1
    classes.sort()
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

# Bounds on the kept solves. The chain solve joins calls that come one after
# the other on one chain: the stationary, passage-time, Kemeny and
# fundamental reads, so one entry serves every caller. Root-set solves are
# kept per chain for two chains, as the forest route keeps its tree sums, so
# that a sub-chain read in the middle of a caller's work does not evict the
# caller's. Each chain keeps up to _ROOT_SET_SOLVE_CACHE_SIZE feasible root
# sets, oldest dropped first: every one at n = 8. A sweep rank by rank over
# a larger chain drops the previous rank's first root sets first, and at
# n = 9 and 10 it still finds a kept parent R - {v} for every root set past
# the singletons.
_CHAIN_SOLVE_CACHE_SIZE = 1
_ROOT_SET_STORE_CHAINS = 2
_ROOT_SET_SOLVE_CACHE_SIZE = 256

# (d [G | H], d) of one root set, as _root_set_solve returns it
RootSetSolve = tuple[tuple[tuple[int, ...], ...], int]


@lru_cache(maxsize=_CHAIN_SOLVE_CACHE_SIZE)
def _chain_solve(p: TransitionMatrix) -> tuple[tuple[tuple[int, ...], ...], int]:
    """(d G, d) for G = (I - P + 1 e^T)^{-1}, e the last state's unit vector.

    pi^T (I - P + 1 e^T) = e^T, so pi is G's last row, and G = Z + 1 w^T
    with sum(w) = 0 for the fundamental matrix Z (Hunter, 1982). Row i is
    taken times dens_i: dens_i delta_ij - num_ij + dens_i [j = n - 1] on the
    left, dens_i e_i on the right.
    """
    require_irreducible(p)
    n = p.n
    dens = scaled_rows(p)[1]
    a = _scaled_laplacian(p, range(n))
    for row, d in zip(a, dens):
        row[n - 1] += d
    b = [[d if i == j else 0 for j in range(n)] for i, d in enumerate(dens)]
    g, d = _solve(a, b)
    return tuple(map(tuple, g)), d


def stationary_solve(p: TransitionMatrix) -> tuple[Fraction, ...]:
    """Exact solution of pi P = pi, sum(pi) = 1: the last row of G."""
    g, d = _chain_solve(p)
    return tuple(ratio(x, d) for x in g[-1])


@lru_cache(maxsize=_ROOT_SET_STORE_CHAINS)
def _root_set_store(p: TransitionMatrix) -> dict[frozenset[int], RootSetSolve]:
    """The kept root-set solves of one chain, oldest first."""
    return {}


def _eliminate_root_set(p: TransitionMatrix, roots: frozenset[int]
                        ) -> RootSetSolve:
    """(d [G | H], d) by one elimination of L(R) [G | H] = [dens I | nums_R].

    Each right-hand side comes with row i times dens_i, as L(R)'s rows do.
    Raises InfeasibleRootSetError when L(R) is singular.
    """
    keep = [v for v in range(p.n) if v not in roots]
    rs = sorted(roots)
    nums, dens = scaled_rows(p)
    b = [[*[dens[i] if i == j else 0 for j in keep], *[nums[i][j] for j in rs]]
         for i in keep]
    try:
        x, d = _solve(_scaled_laplacian(p, keep), b)
    except SingularMatrixError as e:
        raise InfeasibleRootSetError(
            f"root set {rs} infeasible: L(R) is singular") from e
    return tuple(map(tuple, x)), d


def _pivot(parent: RootSetSolve, below: int, a: int, dens_v: int
           ) -> RootSetSolve:
    """The solve of R + {v} read off the solve (d X, d) of R by one
    principal pivot on v's row a; ``below`` counts R's roots less than v.

    By Sylvester's identity (Bareiss, 1968) the new determinant is d' =
    X_aa / dens_v, every other entry is (X_ij X_aa - X_ia X_aj) / (d dens_v),
    and v's new hitting column is X_ia / dens_v. Every division is exact,
    and the result is the (d' X', d') a fresh elimination gives: both are
    the determinant and the adjugate times the right-hand side of one
    integer system. X_aa = d G_vv with G_vv >= 1, so the pivot is nonzero.
    """
    x_rows, d = parent
    row_a = x_rows[a]
    pivot = row_a[a]
    den = d * dens_v
    cut = len(x_rows) + below  # v's hitting column once its Green column goes
    out = []
    for i, row in enumerate(x_rows):
        if i != a:
            m = row[a]
            t = [(y * pivot - m * z) // den for y, z in zip(row, row_a)]
            out.append((*t[:a], *t[a + 1:cut], m // dens_v, *t[cut:]))
    return tuple(out), pivot // dens_v


def _root_set_solve(p: TransitionMatrix, roots: frozenset[int]
                    ) -> RootSetSolve:
    """(d [G | H], d) for L(R) [G | H] = [dens I | nums_R]: the Green matrix
    G = L(R)^{-1} and the hitting matrix H = G P_R, rows sorted(S \\ R),
    G's columns the same states, H's sorted(R).

    A kept root set is read back; one with a kept parent R - {v} is read
    off it by one pivot; any other is eliminated. Raises
    InfeasibleRootSetError when L(R) is singular, and keeps only feasible
    root sets.
    """
    store = _root_set_store(p)
    got = store.get(roots)
    if got is not None:
        return got
    for below, v in enumerate(sorted(roots)):
        parent = store.get(roots - {v})
        if parent is not None:
            got = _pivot(parent, below, v - below, scaled_rows(p)[1][v])
            break
    else:
        got = _eliminate_root_set(p, roots)
    if len(store) >= _ROOT_SET_SOLVE_CACHE_SIZE:
        del store[next(iter(store))]
    store[roots] = got
    return got


def green_matrix_solve(p: TransitionMatrix, roots: Iterable[int]) -> Matrix:
    """L(R)^{-1}, rows and columns indexed by sorted(S \\ R)."""
    x, d = _root_set_solve(p, check_roots(p.n, roots, allow_empty=True))
    f = len(x)
    return tuple([tuple([ratio(v, d) for v in row[:f]]) for row in x])


def hitting_solve(p: TransitionMatrix, roots: Iterable[int]) -> Matrix:
    """Hitting matrix rows sorted(S \\ R) by columns sorted(R), exact."""
    x, d = _root_set_solve(p, check_roots(p.n, roots, allow_empty=True))
    f = len(x)
    return tuple([tuple([ratio(v, d) for v in row[f:]]) for row in x])


def mfpt_solve(p: TransitionMatrix) -> Matrix:
    """All mean first passage times from G: m_ij = (g_jj - g_ij) / pi_j for
    i != j and m_jj = 1 / pi_j, as from Z (Kemeny and Snell, Finite Markov
    Chains, 1960), since G - Z is constant down each column."""
    g, d = _chain_solve(p)
    # with d G in integers, pi_j = x_j / d for x = d G's last row
    last = g[-1]
    return tuple(
        tuple(ratio(d, x) if i == j else ratio(g[j][j] - gij, x)
              for j, (gij, x) in enumerate(zip(row, last)))
        for i, row in enumerate(g))


def fundamental_matrix(p: TransitionMatrix) -> Matrix:
    """Z = (I - P + Pi)^{-1} with Pi the stationary projector, as
    G - 1 w^T with w^T = pi^T G - pi^T."""
    g, d = _chain_solve(p)
    last = g[-1]
    # d^2 w_j = sum_k (d pi_k) (d g_kj) - d (d pi_j)
    w = [sum(a * b for a, b in zip(last, col)) - d * t
         for col, t in zip(zip(*g), last)]
    return tuple(tuple(ratio(d * x - wj, d * d) for x, wj in zip(row, w))
                 for row in g)


def kemeny_trace(p: TransitionMatrix) -> Fraction:
    """Trace of the fundamental matrix, which equals tr G: the integer
    diagonal of d G over d."""
    g, d = _chain_solve(p)
    return ratio(sum(row[i] for i, row in enumerate(g)), d)


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


def undirected_tree_count(m: Sequence[Sequence[Fraction]]) -> Fraction:
    """Weighted spanning tree count of an undirected graph, given by its
    symmetric Laplacian: the principal (0,0) cofactor, which every
    cofactor equals (Kirchhoff)."""
    return laplacian_cofactor(_check_symmetric_laplacian(m), 0, 0)


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


def complete_prism(n: int, m: int) -> Matrix:
    """Laplacian of K_n x C_m with unit weights, vertex (a, b) at a*m + b:
    (a, b) is joined to every (a', b) and to (a, b +- 1 mod m)."""
    if n < 2 or m < 3:
        raise ValueError("complete prism needs n >= 2 and m >= 3")

    def entry(u: int, v: int) -> int:
        (a, b), (a2, b2) = divmod(u, m), divmod(v, m)
        if u == v:
            return n + 1
        return -(b == b2 or a == a2 and (b - b2) % m in (1, m - 1))

    return tuple(tuple(Fraction(entry(u, v)) for v in range(n * m))
                 for u in range(n * m))


def prism_tree_count(n: int, m: int) -> int:
    """Spanning trees of K_n x C_m by the Chebyshev closed form.

    Evaluates m * n^(n-2) * U_{m-1}(x)^(2n-2), x = sqrt((n+4)/4), exactly,
    with U_k = a + b x over the rationals: one of a, b is zero, so U_k^2 =
    a^2 + b^2 x^2. A prism of more than ``MAX_STATES`` vertices is refused.
    """
    if n < 2 or m < 3:
        raise ValueError("complete prism needs n >= 2 and m >= 3")
    if n * m > MAX_STATES:
        raise ValueError(f"complete prism of {n * m} vertices exceeds the "
                         f"limit of {MAX_STATES} states")
    x2 = ratio(n + 4, 4)
    (a0, b0), (a, b) = (1, 0), (0, 2)  # U_0 = 1, U_1 = 2x
    for _ in range(m - 2):  # U_{k+1} = 2x U_k - U_{k-1}
        (a0, b0), (a, b) = (a, b), (2 * b * x2 - a0, 2 * a - b0)
    return int(m * n ** (n - 2) * (a * a + b * b * x2) ** (n - 1))
