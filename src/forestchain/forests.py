"""Directed spanning forests, cycle-rooted spanning forests, and exact weight sums.

This module is deliberately the brute-force side: w(R), w_ij(R), Sigma_j,
Sigma^(r), Sigma_ij and w^ec are exact sums over explicit enumerations, all
made by one backtracking walker, ``_walk``. It assigns the free states in
ascending order, trying targets in ascending order, so configurations come
out in ``itertools.product`` order with the cyclic ones dropped. It follows
only positive-probability arcs of a chain, rejects an arc the moment it
closes a cycle (the cycle-rooted case keeps it) and carries the integer
prefix product down; rows are scaled to integers once per chain. No forest
is stored: a walk holds one length-n vector per level, so its memory does
not grow with the number of forests. Determinant shortcuts live elsewhere
and are checked against these sums.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import lcm, prod
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .chains import InfeasibleRootSetError, TransitionMatrix, format_rational

__all__ = [
    "DEFAULT_GUARD", "EnumerationGuardError", "InfeasibleRootSetError",
    "RootedForest", "Ecrsf", "CycleWeights", "ForestSums",
    "canonical_cycle", "enumerate_forests", "enumerate_ecrsf", "cayley_count",
    "forest_weight", "ecrsf_weight", "w_sum", "w_target_sum", "sigma_sums",
    "sigma_r", "sigma_pair", "last_exit_state", "w_ec_sums",
    "forest_from_json", "ecrsf_from_json",
]

#: Maximum number of free (non-root) vertices enumerated without an override.
DEFAULT_GUARD = 8


class EnumerationGuardError(ValueError):
    """Candidate space too large for exhaustive enumeration."""


def _check_roots(n: int, roots: Iterable[int], allow_empty: bool = False) -> frozenset[int]:
    rs = frozenset(int(r) for r in roots)
    if not rs and not allow_empty:
        raise ValueError("root set must be nonempty")
    for r in rs:
        if not 0 <= r < n:
            raise ValueError(f"root {r} out of range for n={n}")
    return rs


def _check_guard(n: int, roots: frozenset[int], guard: int) -> None:
    free = n - len(roots)
    if free > guard:
        raise EnumerationGuardError(
            f"{free} free vertices exceeds enumeration guard {guard}; "
            f"pass a larger guard to override")


def canonical_cycle(cycle: Sequence[int]) -> tuple[int, ...]:
    """Rotate a directed cycle so its minimal state comes first."""
    cyc = tuple(cycle)
    if not cyc:
        raise ValueError("empty cycle")
    k = cyc.index(min(cyc))
    return cyc[k:] + cyc[:k]


def _classify(n: int, roots: frozenset[int], succ: Sequence[int]):
    """Walk a successor map; return (root_of, cycles).

    root_of[v] is the root of v's tree component, or -1 when v's component
    contains a cycle. Roots are their own root. Cycles come out canonical.
    """
    root_of = [-2] * n
    state = [0] * n  # 0 new, 1 on current walk, 2 resolved
    for r in roots:
        root_of[r] = r
        state[r] = 2
    cycles: list[tuple[int, ...]] = []
    for v0 in range(n):
        if state[v0] == 2:
            continue
        path: list[int] = []
        v = v0
        while state[v] == 0:
            state[v] = 1
            path.append(v)
            v = succ[v]
        if state[v] == 1:
            cycles.append(canonical_cycle(path[path.index(v):]))
            res = -1
        else:
            res = root_of[v]
        for u in path:
            root_of[u] = res
            state[u] = 2
    return tuple(root_of), tuple(sorted(cycles))


# ---------------------------------------------------------------------------
# configuration types

@dataclass(frozen=True)
class RootedForest:
    """Spanning forest directed toward a nonempty root set.

    ``parent`` has one entry per state: the parent of each non-root, -1 at
    the roots. Following parents from any state reaches a root (acyclicity
    is validated at construction).
    """

    n: int
    roots: frozenset[int]
    parent: tuple[int, ...]

    def __post_init__(self):
        roots = _check_roots(self.n, self.roots)
        parent = tuple(int(u) for u in self.parent)
        object.__setattr__(self, "roots", roots)
        object.__setattr__(self, "parent", parent)
        if len(parent) != self.n:
            raise ValueError(f"parent vector has length {len(parent)}, expected {self.n}")
        for v in range(self.n):
            if v in roots:
                if parent[v] != -1:
                    raise ValueError(f"root {v} must have parent -1")
            else:
                if not 0 <= parent[v] < self.n:
                    raise ValueError(f"parent of {v} out of range")
                if parent[v] == v:
                    raise ValueError(f"vertex {v} is its own parent")
        root_of, cycles = _classify(self.n, roots, parent)
        if cycles:
            raise ValueError(f"parent map contains cycle {cycles[0]}")
        object.__setattr__(self, "_root_of", root_of)

    @classmethod
    def from_parent_map(cls, n: int, roots: Iterable[int],
                        parent: Mapping[int, int]) -> "RootedForest":
        rs = frozenset(int(r) for r in roots)
        vec = tuple(-1 if v in rs else int(parent[v]) for v in range(n))
        return cls(n, rs, vec)

    def parent_map(self) -> dict[int, int]:
        return {v: u for v, u in enumerate(self.parent) if u != -1}

    def edges(self) -> tuple[tuple[int, int], ...]:
        return tuple((v, u) for v, u in enumerate(self.parent) if u != -1)

    def root_of(self, v: int) -> int:
        return self._root_of[v]

    def path_to_root(self, v: int) -> tuple[int, ...]:
        """States visited following parents from v up to and including the root."""
        path = [v]
        while self.parent[path[-1]] != -1:
            path.append(self.parent[path[-1]])
        return tuple(path)

    def to_json(self) -> dict:
        return {
            "roots": sorted(self.roots),
            "parent": {str(v): u for v, u in sorted(self.parent_map().items())},
        }


def forest_from_json(doc: dict) -> RootedForest:
    parent = {int(v): int(u) for v, u in doc["parent"].items()}
    roots = [int(r) for r in doc["roots"]]
    n = max([*roots, *parent.keys(), *parent.values()], default=-1) + 1
    n = max(n, doc.get("n", 0))
    return RootedForest.from_parent_map(n, roots, parent)


@dataclass(frozen=True)
class Ecrsf:
    """Cycle-rooted spanning forest with optional tree roots.

    Every component of the successor map is either a tree whose paths lead
    into ``tree_roots`` or hangs off exactly one directed cycle disjoint from
    the roots. A self-loop is a cycle of length 1. Any successor map on the
    non-root states is valid; the classification is computed, not checked.
    """

    n: int
    tree_roots: frozenset[int]
    successor: tuple[int, ...]
    cycles: tuple[tuple[int, ...], ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        roots = _check_roots(self.n, self.tree_roots, allow_empty=True)
        succ = tuple(int(u) for u in self.successor)
        object.__setattr__(self, "tree_roots", roots)
        object.__setattr__(self, "successor", succ)
        if len(succ) != self.n:
            raise ValueError(f"successor vector has length {len(succ)}, expected {self.n}")
        for v in range(self.n):
            if v in roots:
                if succ[v] != -1:
                    raise ValueError(f"tree root {v} must have successor -1")
            elif not 0 <= succ[v] < self.n:
                raise ValueError(f"successor of {v} out of range")
        root_of, cycles = _classify(self.n, roots, succ)
        object.__setattr__(self, "cycles", cycles)
        object.__setattr__(self, "_root_of", root_of)

    def successor_map(self) -> dict[int, int]:
        return {v: u for v, u in enumerate(self.successor) if u != -1}

    def edges(self) -> tuple[tuple[int, int], ...]:
        return tuple((v, u) for v, u in enumerate(self.successor) if u != -1)

    def root_of(self, v: int) -> int | None:
        """Tree root of v's component, or None when the component is cycle-rooted."""
        r = self._root_of[v]
        return None if r < 0 else r

    def to_json(self) -> dict:
        return {
            "roots": sorted(self.tree_roots),
            "parent": {str(v): u for v, u in sorted(self.successor_map().items())},
            "cycles": [list(c) for c in self.cycles],
        }


def ecrsf_from_json(doc: dict) -> Ecrsf:
    succ = {int(v): int(u) for v, u in doc["parent"].items()}
    roots = frozenset(int(r) for r in doc["roots"])
    n = max([*roots, *succ.keys(), *succ.values()], default=-1) + 1
    n = max(n, doc.get("n", 0))
    vec = tuple(-1 if v in roots else succ[v] for v in range(n))
    return Ecrsf(n, roots, vec)


@dataclass(frozen=True)
class CycleWeights:
    """Rotation-invariant rule assigning each directed cycle a weight in [0,1].

    The rule always receives the cycle rotated so its minimal state is first,
    which makes rotation invariance structural.
    """

    rule: Callable[[tuple[int, ...]], Fraction | int]

    def weight(self, cycle: Sequence[int]) -> Fraction:
        value = Fraction(self.rule(canonical_cycle(cycle)))
        if not 0 <= value <= 1:
            raise ValueError(
                f"cycle weight {format_rational(value)} outside [0,1]")
        return value

    @classmethod
    def constant(cls, value: Fraction | int | str) -> "CycleWeights":
        v = Fraction(value)
        if not 0 <= v <= 1:
            raise ValueError(f"cycle weight {format_rational(v)} outside [0,1]")
        return cls(lambda _cycle: v)


# ---------------------------------------------------------------------------
# the walker

def _arcs(n: int, roots: frozenset[int], nums=None, cyclic: bool = False):
    """Ascending (target, factor) arcs per free state: all with factor 1, or
    the positive ones of the scaled rows ``nums``; self-loops only if cyclic."""
    return [[(u, 1 if nums is None else nums[v][u]) for u in range(n)
             if (cyclic or u != v) and (nums is None or nums[v][u])]
            for v in range(n) if v not in roots]


def _walk(n: int, roots: frozenset[int], arcs, cyclic: bool = False):
    """Yield (succ, root_of, w) for every successor map drawn from ``arcs``.

    ``arcs[d]`` lists the candidate arcs of the d-th free state. An arc that
    closes a cycle is rejected, or kept when ``cyclic``. ``root_of[v]`` is
    the root v drains into, or -1 when v's component holds a cycle; ``w``
    is the product of the chosen factors. ``succ`` is one list updated in
    place (-1 at the roots): copy it to keep it.
    """
    free = [v for v in range(n) if v not in roots]
    succ = [-1] * n
    last = len(free) - 1
    if last < 0:
        yield succ, tuple(range(n)), 1
        return
    # ends[d][v]: where v's path leads once free[:d] are assigned, which is
    # a root, an unassigned state, or -1 for a cycle
    ends = [tuple(range(n))] + [()] * last
    prefix = [1] * (last + 1)
    pos = [0] * (last + 1)
    d = 0
    while d >= 0:
        v, cur = free[d], ends[d]
        if d == last:
            # the leaves of one node differ only in where v's subtree drains
            leaf_ends: dict[int, tuple[int, ...]] = {}
            for u, x in arcs[d]:
                e = cur[u]
                if e == v:
                    if not cyclic:
                        continue
                    e = -1
                succ[v] = u
                root_of = leaf_ends.get(e)
                if root_of is None:
                    root_of = leaf_ends[e] = tuple([e if t == v else t for t in cur])
                yield succ, root_of, prefix[d] * x
            d -= 1
            continue
        k = pos[d]
        if k == len(arcs[d]):
            pos[d] = 0
            d -= 1
            continue
        pos[d] = k + 1
        u, x = arcs[d][k]
        e = cur[u]
        if e == v:
            if not cyclic:
                continue
            e = -1
        succ[v] = u
        ends[d + 1] = tuple([e if t == v else t for t in cur])
        prefix[d + 1] = prefix[d] * x
        d += 1


def _spread(groups: dict) -> tuple:
    """(total, {(i, r): weight}) from weights keyed by root-of vector; r >= 0."""
    total = 0
    table: dict = {}
    for root_of, w in groups.items():
        total += w
        for i, r in enumerate(root_of):
            if r >= 0:
                table[(i, r)] = table.get((i, r), 0) + w
    return total, table


def enumerate_forests(n: int, roots: Iterable[int],
                      guard: int = DEFAULT_GUARD) -> Iterator[RootedForest]:
    """Yield every spanning forest whose root set is exactly ``roots``.

    The count is k * n^(n-k-1) for |roots| = k. Forests come in
    ``itertools.product`` order over the free states' parents, cyclic
    parent maps dropped.
    """
    rs = _check_roots(n, roots)
    _check_guard(n, rs, guard)
    for succ, _root_of, _w in _walk(n, rs, _arcs(n, rs)):
        yield RootedForest(n, rs, tuple(succ))


def enumerate_ecrsf(n: int, tree_roots: Iterable[int],
                    guard: int = DEFAULT_GUARD) -> Iterator[Ecrsf]:
    """Yield every ECRSF with these tree roots: every successor map, in order."""
    rs = _check_roots(n, tree_roots, allow_empty=True)
    _check_guard(n, rs, guard)
    for succ, _root_of, _w in _walk(n, rs, _arcs(n, rs, cyclic=True), cyclic=True):
        yield Ecrsf(n, rs, tuple(succ))


def cayley_count(n: int, k: int) -> int:
    """Number of forests on n labeled vertices with a fixed k-element root set."""
    if not 1 <= k <= n:
        raise ValueError(f"root count {k} out of range 1..{n}")
    if k == n:
        return 1
    return k * n ** (n - k - 1)


# ---------------------------------------------------------------------------
# weights and sums

def forest_weight(f: RootedForest, p: TransitionMatrix) -> Fraction:
    """P-weight: product of p(v, parent(v)) over non-roots; empty product is 1."""
    if f.n != p.n:
        raise ValueError("forest and chain sizes differ")
    w = Fraction(1)
    for v, u in f.edges():
        w *= p.rows[v][u]
        if w == 0:
            break
    return w


def ecrsf_weight(f: Ecrsf, p: TransitionMatrix, alpha: CycleWeights) -> Fraction:
    """(P, alpha)-weight: edge probabilities times one alpha factor per cycle."""
    if f.n != p.n:
        raise ValueError("configuration and chain sizes differ")
    w = Fraction(1)
    for v, u in f.edges():
        w *= p.rows[v][u]
        if w == 0:
            return w
    for cyc in f.cycles:
        w *= alpha.weight(cyc)
        if w == 0:
            break
    return w


@lru_cache(maxsize=None)
def _scaled_rows(p: TransitionMatrix):
    """Integer numerators after clearing each row's common denominator."""
    dens = tuple(lcm(*(x.denominator for x in row)) for row in p.rows)
    nums = tuple(
        tuple(int(x * d) for x in row) for row, d in zip(p.rows, dens))
    return nums, dens


@lru_cache(maxsize=None)
def _root_set_sums(p: TransitionMatrix, roots: frozenset[int]):
    """(w(roots), {(i, j): weight of forests where i's tree has root j}).

    Every forest with this root set has the same denominator (one row
    denominator per free vertex), so the walk sums plain integers, one per
    root-of vector, and spreads them over the (i, j) table at the end.
    """
    nums, dens = _scaled_rows(p)
    denom = prod(dens[v] for v in range(p.n) if v not in roots)
    groups: dict[tuple[int, ...], int] = {}
    for _succ, root_of, w in _walk(p.n, roots, _arcs(p.n, roots, nums)):
        groups[root_of] = groups.get(root_of, 0) + w
    total, table = _spread(groups)
    return (Fraction(total, denom),
            {key: Fraction(x, denom) for key, x in table.items()})


def w_sum(p: TransitionMatrix, roots: Iterable[int],
          guard: int = DEFAULT_GUARD) -> Fraction:
    """w(R): total P-weight of forests rooted exactly at R."""
    rs = _check_roots(p.n, roots)
    _check_guard(p.n, rs, guard)
    return _root_set_sums(p, rs)[0]


def w_target_sum(p: TransitionMatrix, roots: Iterable[int], i: int, j: int,
                 guard: int = DEFAULT_GUARD) -> Fraction:
    """w_ij over root set roots ∪ {j}: forests in which i's tree has root j.

    When j is already a root this is the harmonic numerator w_ij(R); when it
    is not, the root set is enlarged to R ∪ {j} as in the Green numerator.
    """
    rs = _check_roots(p.n, roots) | {int(j)}
    _check_guard(p.n, rs, guard)
    if not 0 <= i < p.n:
        raise ValueError(f"state {i} out of range")
    return _root_set_sums(p, rs)[1].get((i, j), Fraction(0))


@dataclass(frozen=True)
class ForestSums:
    """Tree sums of one chain: sigma(j) = w({j}) and sigma1 = sum_j sigma(j)."""

    sigma_vector: tuple[Fraction, ...]
    sigma1: Fraction

    def sigma(self, j: int) -> Fraction:
        return self.sigma_vector[j]


def sigma_sums(p: TransitionMatrix, guard: int = DEFAULT_GUARD) -> ForestSums:
    """Tree sums Sigma_j = w({j}) and their total Sigma^(1)."""
    vec = tuple(w_sum(p, {j}, guard) for j in range(p.n))
    return ForestSums(vec, sum(vec, Fraction(0)))


def sigma_r(p: TransitionMatrix, r: int, guard: int = DEFAULT_GUARD) -> Fraction:
    """Sigma^(r): total weight of forests with exactly r trees, any root sets."""
    if not 1 <= r <= p.n:
        raise ValueError(f"tree count {r} out of range 1..{p.n}")
    total = Fraction(0)
    for roots in itertools.combinations(range(p.n), r):
        total += w_sum(p, roots, guard)
    return total


def sigma_pair(p: TransitionMatrix, i: int, j: int,
               method: str = "tree-deletion",
               guard: int = DEFAULT_GUARD) -> Fraction:
    """Sigma_ij, by deleting the last edge into j or by two-tree forests.

    tree-deletion: over all trees t rooted at j, the product of edge
    probabilities with the factor for the last edge k(i,j,t) -> j left out.
    The factor is omitted, not divided: a tree whose only vanishing factor
    is the deleted one still contributes.

    two-forest: sum over k != j of the weight of {j,k}-rooted forests whose
    i-tree has root k. The two methods agree by the cut-the-last-edge
    bijection.
    """
    if i == j:
        raise ValueError("sigma_pair needs i != j")
    if not (0 <= i < p.n and 0 <= j < p.n):
        raise ValueError(f"states ({i},{j}) out of range")
    if method == "two-forest":
        total = Fraction(0)
        for k in range(p.n):
            if k != j:
                total += w_target_sum(p, {j, k}, i, k, guard)
        return total
    if method != "tree-deletion":
        raise ValueError(f"unknown method {method!r}")
    rs = frozenset([j])
    _check_guard(p.n, rs, guard)
    nums, dens = _scaled_rows(p)
    free = [v for v in range(p.n) if v != j]
    # arcs into j are followed even at probability zero, their factors settled
    # at the leaf: last exit k gets row k's denominator back, the rest pay
    arcs = [[(u, 1 if u == j else x) for u, x in enumerate(nums[v])
             if u != v and (x or u == j)] for v in free]
    total = 0
    for succ, _root_of, w in _walk(p.n, rs, arcs):
        k = i
        while succ[k] != j:
            k = succ[k]
        w *= dens[k]
        for v in free:
            if succ[v] == j and v != k:
                w *= nums[v][j]
        total += w
    return Fraction(total, prod(dens[v] for v in free))


def last_exit_state(t: RootedForest, i: int) -> int:
    """k(i,j,t): the state just before the root j on the path from i."""
    if len(t.roots) != 1:
        raise ValueError("last_exit_state needs a single-rooted tree")
    (j,) = t.roots
    if i == j:
        raise ValueError("i coincides with the root")
    v = i
    while t.parent[v] != j:
        v = t.parent[v]
    return v


def w_ec_sums(p: TransitionMatrix, alpha: CycleWeights,
              tree_roots: Iterable[int],
              guard: int = DEFAULT_GUARD) -> tuple[Fraction, dict[tuple[int, int], Fraction]]:
    """(w^ec(R), {(i, j): weight of ECRSFs where i sits in a tree rooted at j}).

    With alpha identically 0 every configuration containing a cycle drops
    out and this reduces to the plain forest sums.
    """
    rs = _check_roots(p.n, tree_roots, allow_empty=True)
    _check_guard(p.n, rs, guard)
    nums, dens = _scaled_rows(p)
    denom = prod(dens[v] for v in range(p.n) if v not in rs)
    groups: dict[tuple[int, ...], Fraction] = {}
    for succ, root_of, w in _walk(p.n, rs, _arcs(p.n, rs, nums, cyclic=True),
                                  cyclic=True):
        weight = Fraction(w, denom)
        if -1 in root_of:
            for cyc in _classify(p.n, rs, succ)[1]:
                weight *= alpha.weight(cyc)
                if not weight:
                    break
        if weight:
            groups[root_of] = groups.get(root_of, 0) + weight
    total, table = _spread(groups)
    return Fraction(total), table
