"""Exact linear-algebra reference route, independent of forest enumeration.

Determinants and solves come from one fraction-free principal exchange
of integer rows: a determinant from exchanges at the leading position of
a shrinking tableau, a solve from the exchange of a tableau [A | B] into
[d A^-1 | d A^-1 B], d = det A, with no identity columns carried. On
top of it sit the stationary, first-passage and Green solves, the
fundamental matrix, two float checks (the Cesaro average and the
trace-power series for the tree-sum total) and the undirected counting
identities (Temperley shift, principal-minor sum, complete prism).
Graph-side structure (reachability, recurrent classes, periodicity) also
lives here so that every consumer shares one certified decomposition; its
searches are ``chains.reachable``, the one the forest walker shares, and
the recurrent classes come from one strongly-connected-components pass.

The chain and root-set solves take I - P with each row i scaled by its
denominator dens_i (``chains.scaled_rows``), so their tableaux are integer
from the start: dens_i delta_ij - num_ij on the left, and num_ib beside it.
The inverse of the row-scaled matrix is the unscaled one's with column j
over dens_j, so each solution entry is one Fraction of two integers, such
as t_ij dens_j over d, built by ``chains.ratio``: the one place a result
value of either route is built, with one gcd.

Each chain's derived data is made once and kept in one store per chain,
for the last two chains: the irreducibility certificate, the scaled rows,
the chain solve and the root-set solves. The chain system G = (I - P +
1 e^T)^-1, e the last state's unit vector, is exchanged once per chain.
pi is G's last row, and G differs from the fundamental matrix Z only by a
constant down each column whose sum is zero (Hunter, 1982), so Kemeny's
trace is tr G, every mean first passage time is m_ij = (g_jj - g_ij) /
pi_j, and Z is read off G too.

The Green and hitting matrices are the two halves of one solve of L(R)
[G | H] = [I | P_R], kept as the exchanged tableau over d = det of the
row-scaled L(R). A root set R + {v} whose parent R is kept is read off it
by the same exchange at v's row alone, in f (f + |R|) multiply-adds for f
free states, where a fresh solve takes O(f^3). A singleton {j} of a chain
whose store holds the chain solve is read off that solve by one exchange
at j, once the solve's border is moved to column j. So a sweep over every
root set of an irreducible chain, rank by rank, solves afresh only the
singletons: about 1.5, 3.4 and 8.4 ms for a dense chain at n = 7, 8 and 9
on a 2-vCPU host.
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
    reachable,
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


def _exchange(t: list[list[int]], positions: Iterable[int], d: int = 1) -> int:
    """Fraction-free principal exchange of the integer tableau t = [A | B],
    in place, at each of ``positions`` in turn; returns the last pivot.

    With p = t[k][k] and d the previous pivot, every other row becomes
    (x p - t[i][k] y) / d, exactly (Bareiss, Math. Comp. 22, 1968), column k
    becomes -t[i][k] and t[k][k] becomes d. Exchanged at every position from
    d = 1, t is [d A^-1 | d A^-1 B] with d = det A, each pivot a leading
    principal minor of A. The solves swap no row, since every system solved
    here has those minors all positive when it is nonsingular; ``exact_det``
    swaps rows below the pivot between its exchanges. An exchange is its
    own inverse. Raises SingularMatrixError on a zero pivot.
    """
    for k in positions:
        row_k = t[k]
        p = row_k[k]
        if not p:
            raise SingularMatrixError(f"singular system (pivot {k})")
        for i, row in enumerate(t):
            if i != k:
                m = row[k]
                new = [(x * p - m * y) // d for x, y in zip(row, row_k)]
                new[k] = -m
                t[i] = new
        row_k[k] = d
        d = p
    return d


def exact_det(m: Sequence[Sequence[Fraction | int]]) -> Fraction:
    """Exact determinant of a square rational matrix.

    Fraction and int entries are taken as they are; any other entry is
    converted with Fraction(x) first. The integer rows are exchanged at
    their leading position and that row and column dropped, until none is
    left: the last pivot is the determinant. Before each exchange the first
    row with a nonzero leading entry moves to the top, and the row it
    displaces is negated so the determinant keeps its sign; with no such
    row, the determinant is 0.
    """
    rows = [[x if isinstance(x, (Fraction, int)) else Fraction(x) for x in row]
            for row in m]
    if any(len(row) != len(rows) for row in rows):
        raise ValueError("matrix is not square")
    t, scale = _integer_rows(rows)
    d = 1
    while t:
        r = next((r for r, row in enumerate(t) if row[0]), None)
        if r is None:
            return Fraction(0)
        if r:
            t[0], t[r] = t[r], [-x for x in t[0]]
        d = _exchange(t, (0,), d)
        del t[0]
        for row in t:
            del row[0]
    return ratio(d, scale)


def _tableau(p: TransitionMatrix, keep: Sequence[int],
             roots: Sequence[int] = ()) -> list[list[int]]:
    """[L_s | nums_R] on the states ``keep``: I - P with row i times dens_i,
    so each entry is the integer dens_i delta_ij - num_ij, beside the columns
    of the scaled rows at ``roots``."""
    nums, dens = _scaled(p)
    return [[*[(dens[i] if i == j else 0) - nums[i][j] for j in keep],
             *[nums[i][j] for j in roots]] for i in keep]


# ---------------------------------------------------------------------------
# graph structure

def _reversed_support(p: TransitionMatrix) -> list[list[int]]:
    rev: list[list[int]] = [[] for _ in range(p.n)]
    for i, row in enumerate(p.support()):
        for j in row:
            rev[j].append(i)
    return rev


def irreducibility_certificate(p: TransitionMatrix) -> tuple[int, int] | None:
    """None when irreducible, else a pair (i, j) with j unreachable from i:
    the least such i, and the least j for that i.

    Two searches stand in for one per state. When state 0 misses some
    state, i = 0. Otherwise a state reaches every state exactly when it
    reaches 0, so the least i that misses anything misses 0, and j = 0.
    """
    store = _chain_store(p)
    if store.certificate is False:
        reach = reachable(p.support(), (0,))
        missed = [j for j in range(p.n) if j not in reach]
        stranded = () if missed else states_not_reaching(p, {0})
        store.certificate = ((0, missed[0]) if missed
                             else (stranded[0], 0) if stranded else None)
    return store.certificate


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
    seen = reachable(_reversed_support(p), targets)
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

# The stores are kept for the last two chains asked about, as the forest
# route keeps its tree sums, so that a sub-chain read in the middle of a
# caller's work (``formulas.mfpt_via_modified_chain``) does not evict the
# caller's. Each keeps up to _ROOT_SET_SOLVE_CACHE_SIZE feasible root sets,
# oldest dropped first: every one at n = 8; at n = 9 and 10 a sweep rank by
# rank still finds a kept parent R - {v} for every root set past the
# singletons.
_STORE_CHAINS = 2
_ROOT_SET_SOLVE_CACHE_SIZE = 256

# (t, d): an exchanged tableau t over its last pivot d, as the solves keep it
Solve = tuple[tuple[tuple[int, ...], ...], int]


class _Kept(dict):
    """The oracle's store for one chain: its feasible root-set solves, oldest
    first, beside its irreducibility certificate (False until it is found),
    its scaled rows and its chain solve (None until they are made)."""

    certificate: tuple[int, int] | None | bool = False
    scaled: tuple[tuple[tuple[int, ...], ...], tuple[int, ...]] | None = None
    chain: Solve | None = None


@lru_cache(maxsize=_STORE_CHAINS)
def _chain_store(p: TransitionMatrix) -> _Kept:
    """The oracle's store for p."""
    return _Kept()


def _scaled(p: TransitionMatrix):
    """p's ``scaled_rows``, laid out once and kept in its store."""
    store = _chain_store(p)
    if store.scaled is None:
        store.scaled = scaled_rows(p)
    return store.scaled


def _chain_solve(p: TransitionMatrix) -> Solve:
    """(d A^-1, d) for A = D (I - P + 1 e^T) and d = det A, with D = diag(dens)
    and e the last state's unit vector: dens_i delta_ij - num_ij +
    dens_i [j = n - 1] in row i. Made once per chain and kept in its store.

    G = (I - P + 1 e^T)^-1 = A^-1 D, so d G is d A^-1 with column j times
    dens_j. pi^T (I - P + 1 e^T) = e^T, so pi is G's last row, and G =
    Z + 1 w^T with sum(w) = 0 for the fundamental matrix Z (Hunter, 1982).
    Each leading minor of A below the last is that of a feasible L_s(R), so
    positive, and the last is det A, the product of the dens times the
    total tree sum Sigma^(1) > 0.
    """
    store = _chain_store(p)
    if store.chain is None:
        require_irreducible(p)
        n = p.n
        t = _tableau(p, range(n))
        for row, dv in zip(t, _scaled(p)[1]):
            row[n - 1] += dv
        d = _exchange(t, range(n))
        store.chain = tuple(map(tuple, t)), d
    return store.chain


def stationary_solve(p: TransitionMatrix) -> tuple[Fraction, ...]:
    """Exact solution of pi P = pi, sum(pi) = 1: the last row of G."""
    t, d = _chain_solve(p)
    return tuple(ratio(x * dv, d) for x, dv in zip(t[-1], _scaled(p)[1]))


def _eliminate_root_set(p: TransitionMatrix, roots: frozenset[int]) -> Solve:
    """The tableau [L_s(R) | nums_R] exchanged at every free state, for
    L_s(R) = L(R) with row i times dens_i: [d L_s(R)^-1 | d L_s(R)^-1 nums_R]
    over d = det L_s(R).

    L_s(R) is a Z-matrix whose rows sum to 0 or more. Nonsingular, it is an
    M-matrix, whose leading minors are all positive; singular, one of them
    is 0, the last at the latest. Raises InfeasibleRootSetError when L(R) is
    singular.
    """
    keep = [v for v in range(p.n) if v not in roots]
    rs = sorted(roots)
    t = _tableau(p, keep, rs)
    try:
        d = _exchange(t, range(len(keep)))
    except SingularMatrixError as e:
        raise InfeasibleRootSetError(
            f"root set {rs} infeasible: L(R) is singular") from e
    return tuple(map(tuple, t)), d


def _add_root(parent: Solve, a: int, below: int) -> Solve:
    """The solve of R + {v} read off the kept solve of R by one exchange at
    v's row a; ``below`` counts R's roots less than v.

    The exchange at a undoes R's at a: off row a it leaves d' L_s(R + {v})^-1
    and its product with nums_R, over d' = det L_s(R + {v}) (R's cofactor
    t_aa, positive since R + {v} is feasible with R), and in column a
    L_s(R + {v})^-1 times L_s(R)'s column v, which off row a is -nums_v. So
    with row a dropped and column a negated into the hitting block, it is
    the tableau a fresh exchange of R + {v} gives, integer for integer.
    """
    x, d = parent
    t = list(x)
    t[a] = list(t[a])
    d = _exchange(t, (a,), d)
    cut = len(t) + below  # v's hitting column once its Green column goes
    return tuple([(*row[:a], *row[a + 1:cut], -row[a], *row[cut:])
                  for i, row in enumerate(t) if i != a]), d


def _singleton(chain: Solve, j: int) -> Solve:
    """The solve of {j} read off the kept chain solve (d A^-1, d).

    Every row of I - P sums to 0, so A 1 = dens and A^-1 dens = 1. By
    Sherman and Morrison, A_j = A + dens (e_j - e)^T, the border moved to
    column j, then has A_j^-1 = A^-1 - 1 (row j - row e of A^-1) and the
    same determinant. Off row and column j, A_j is L_s({j}), so the exchange
    at j leaves d_j L_s({j})^-1 there, d_j = det L_s({j}); and since every
    state hits j, the hitting column is d_j throughout.
    """
    g, d = chain
    shift = [x - y for x, y in zip(g[j], g[-1])]
    t = [[x - s for x, s in zip(row, shift)] for row in g]
    d = _exchange(t, (j,), d)
    return tuple([(*row[:j], *row[j + 1:], d)
                  for i, row in enumerate(t) if i != j]), d


def _root_set_solve(p: TransitionMatrix, roots: frozenset[int]) -> Solve:
    """[d G_s | d H] over d for L(R) [G | H] = [I | P_R]: the Green matrix
    G = L(R)^-1 = G_s D, with G_s = L_s(R)^-1 and D the dens of the free
    states, and the hitting matrix H = G P_R, rows sorted(S \\ R), G's
    columns the same states, H's sorted(R).

    A kept root set is read back; one with a kept parent R - {v} is read
    off it by one exchange; a singleton of a chain whose store holds the
    chain solve is read off that, and never starts one; any other is
    eliminated. Raises InfeasibleRootSetError when L(R) is singular, and
    keeps only feasible root sets.
    """
    store = _chain_store(p)
    got = store.get(roots)
    if got is not None:
        return got
    for below, v in enumerate(sorted(roots)):
        parent = store.get(roots - {v})
        if parent is not None:
            got = _add_root(parent, v - below, below)
            break
    else:
        got = (_singleton(store.chain, min(roots))
               if len(roots) == 1 and store.chain is not None
               else _eliminate_root_set(p, roots))
    if len(store) >= _ROOT_SET_SOLVE_CACHE_SIZE:
        del store[next(iter(store))]
    store[roots] = got
    return got


def green_matrix_solve(p: TransitionMatrix, roots: Iterable[int]) -> Matrix:
    """L(R)^-1, rows and columns indexed by sorted(S \\ R)."""
    rs = check_roots(p.n, roots, allow_empty=True)
    x, d = _root_set_solve(p, rs)
    dens = [dv for v, dv in enumerate(_scaled(p)[1]) if v not in rs]
    return tuple([tuple([ratio(v * dv, d) for v, dv in zip(row, dens)])
                  for row in x])


def hitting_solve(p: TransitionMatrix, roots: Iterable[int]) -> Matrix:
    """Hitting matrix rows sorted(S \\ R) by columns sorted(R), exact."""
    x, d = _root_set_solve(p, check_roots(p.n, roots, allow_empty=True))
    f = len(x)
    return tuple([tuple([ratio(v, d) for v in row[f:]]) for row in x])


def mfpt_solve(p: TransitionMatrix) -> Matrix:
    """All mean first passage times from G: m_ij = (g_jj - g_ij) / pi_j for
    i != j and m_jj = 1 / pi_j, as from Z (Kemeny and Snell, Finite Markov
    Chains, 1960), since G - Z is constant down each column."""
    t, d = _chain_solve(p)
    # with t = d A^-1 and G = A^-1 D, column j's dens_j cancels off the
    # diagonal: m_ij = (t_jj - t_ij) / x_j for x = t's last row
    last = t[-1]
    dens = _scaled(p)[1]
    return tuple(
        tuple(ratio(d, x * dens[j]) if i == j else ratio(t[j][j] - tij, x)
              for j, (tij, x) in enumerate(zip(row, last)))
        for i, row in enumerate(t))


def fundamental_matrix(p: TransitionMatrix) -> Matrix:
    """Z = (I - P + Pi)^-1 with Pi the stationary projector, as
    G - 1 w^T with w^T = pi^T G - pi^T."""
    t, d = _chain_solve(p)
    dens = _scaled(p)[1]
    g = [[x * dv for x, dv in zip(row, dens)] for row in t]
    last = g[-1]
    # d^2 w_j = sum_k (d pi_k) (d g_kj) - d (d pi_j)
    w = [sum(a * b for a, b in zip(last, col)) - d * x
         for col, x in zip(zip(*g), last)]
    return tuple(tuple(ratio(d * x - wj, d * d) for x, wj in zip(row, w))
                 for row in g)


def kemeny_trace(p: TransitionMatrix) -> Fraction:
    """Trace of the fundamental matrix, which equals tr G: the diagonal of
    d A^-1 times dens, over d."""
    t, d = _chain_solve(p)
    return ratio(sum(row[i] * dv
                     for i, (row, dv) in enumerate(zip(t, _scaled(p)[1]))),
                 d)


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
    if not n:
        raise ValueError("empty matrix; a Laplacian needs a vertex")
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
    """(i,j) cofactor (-1)^{i+j} det of the minor; all equal on a Laplacian.
    Raises ValueError for an index outside 0..n-1."""
    n = len(m)
    if not (0 <= i < n and 0 <= j < n):
        raise ValueError(f"cofactor index ({i},{j}) out of range for n={n}")
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
