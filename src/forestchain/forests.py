"""Directed spanning forests, cycle-rooted spanning forests, and exact weight sums.

This module is the counting side: w(R), w_ij(R), Sigma_j, Sigma^(r),
Sigma_ij and w^ec are exact sums over forests, with no determinant and no
solve. Rows are scaled to integers once per chain (``chains.scaled_rows``),
so a forest's weight is an integer over the product of the free states' row
denominators. Each root set's sums are taken times the row denominators of
its roots as well, so every sum of a chain is an integer over one
denominator, the product of all its row denominators, and a ratio of sums
is a single Fraction of two integers.

The forest sums w(R) and w_ij(R) are built from rooted-tree sums.
T(B, X) is the weight of the forests on X ∪ B rooted at B, with the states
of B merged into one root that pulls each state c with p(c, B) =
sum_{b in B} p_cb. Cutting such a forest at the subtree of B's children
that holds the least state m of X gives
T(B, X) = sum over m in Y ⊆ X of A(B, Y) T(B, X - Y),
A(B, Y) = sum over c in Y of p(c, B) T({c}, Y - {c}),
with T(B, ∅) = 1. A per-chain memo keeps, for each state set S, one bare
list of n integers: the tree sums T({c}, S - {c}) at every c in S and the
pulls A({c}, S) at every c outside it. What depends on S and n alone, the
states in S and those outside it, sits in a module-level table keyed by
chain size (``_state_sets``), made as sets are first met and shared by
every chain of that size, so a chain's fill and passes look those lists
up instead of building them per set. A root set with f free states reads
the entries of the subsets of its free states, filled with about
f 3^(f-1) / 2 multiply-adds, so all the tree sums of an n-state chain cost
about n 3^(n-1) / 2.

With the roots of R merged into one, w(R) = T(R, free) is the merged-root
column at every free state, about 3^f multiply-adds after the fill
(``w_sum`` and ``sigma_r`` take it alone). Each root set keeps one entry,
up to _ROOT_SET_CACHE_SIZE root sets, oldest dropped first: w(R) and its
column, 2^f integers, until R's record replaces them, so the sweep that
reads w(R) and then R's Green numerators convolves it once. The sums
that split the states into two blocks are read straight from the memo,
one pass over its subsets X. With tau(X) = sum_{k in X} T({k}, X - {k})
the weight of all spanning trees of X, the two-tree
Sigma_ij = sum_{k != j} w_ik({j, k}) sums tau(X) T({j}, V - X - {j})
over the X that hold i and not j, and Sigma^(2) sums tau(X) tau(V - X)
over the splits {X, V - X} (``two_tree_sums``), about 2^n n^2 / 4
multiply-adds after the fill. The same record keeps the memo entry of all
n states, every T({b}, V - {b}) = w({b}), as Sigma_j, and their total
tau(V) as Sigma^(1): ``sigma_sums`` and ``sigma_r`` at r = 1 read them
there, with no column.

On a chain whose memo is still empty, as ``analyze`` meets a fresh chain,
the fill of every state set runs as one straight-line program per chain
size (``_program``): the (out, a, b) index triples of every multiply-add
F[out] += F[a] * F[b] the fill makes, in its order, replayed over one flat
list F of n 2^n integers per chain. Each entry is the same integer, with
no subset loop and no dict lookup; afterwards each state set's memo entry
is a slice of F. The program is kept in the size's state-set table, shared
by every chain of the size, and counted against the tables' bound in
triples. A size has one only where the program and the size's full table
fit the bound together, which admits n <= 9 (38,664 triples and 4,599
listed states at n = 9; 121,360 and 10,230 at n = 10). A size runs in
three tiers. Its first full fill runs the loops: a build and a replay cost
more than the loops of a whole first ``analyze``, which would slow every
CLI process that reads one chain. Fills 2 to _COMPILE_AT (200) replay the
triples. On the _COMPILE_AT-th replay the triples are compiled into short
Python functions of integer indices alone, one sum per output, with the
two-tree pass below written out the same way, and the compiled form takes
their place: from then on a fresh chain's fill and two-tree pass run as
straight-line code, about 0.4 ms in place of 0.7 ms at n = 7. A compile
costs about what 170-300 chains' saving comes to at n = 5..8, and holds
0.6, 2.1 and 6.9 MB at n = 7, 8 and 9, against 0.12, 0.38 and 1.2 MB for
the triples. A chain whose root sets were read first keeps the loops,
which reuse the entries those root sets filled, for its fill and its
two-tree pass.

The Green numerators w_ij(R ∪ {j}) sum T({j}, X - {j}) T(R, free - X) over
the free sets X that hold i and j, about 2^f f^2 / 4 for f free states.

Each root set keeps one record, as the oracle keeps one solve of
L(R) X = [I | P_R]: its Green numerators, its hitting numerators and w(R),
from one Green pass (``root_set_sums``). Cutting i's path at its last arc
j -> b, a forest rooted at R in which i drains to b is a forest rooted at
R ∪ {j} in which i drains to j, plus that arc, so w_ib(R) = sum over free
j of w_ij(R ∪ {j}) p_jb: the forest form of the absorbing-chain identity
H = G P_R (Kemeny and Snell, 1960), another f^2 |R| multiply-adds.

One backtracking walker, ``_walk``, serves what the tree sums do not:
listing forests and cycle-rooted configurations, their exact laws, the
tree-deletion Sigma_ij (the reference the two-tree Sigma_ij is checked
against) and the cycle-rooted sums w^ec. It assigns the free states in
ascending order, trying targets in ascending order, so configurations come
out in ``itertools.product`` order with the cyclic ones dropped. It
follows only positive-probability arcs of a chain, rejects an arc the
moment it closes a cycle (the cycle-rooted case keeps it) and carries the
integer prefix product down; a free state that reaches no root along the
candidate arcs (``chains.reachable``, the one search both routes share)
ends it before the first step. No configuration is stored: a walk holds one
length-n vector per level.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import lcm, prod
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .chains import (
    FrozenValue,
    InfeasibleRootSetError,
    TransitionMatrix,
    check_roots,
    format_rational,
    ratio,
    reachable,
    scaled_rows,
)

__all__ = [
    "DEFAULT_GUARD", "EnumerationGuardError", "InfeasibleRootSetError",
    "RootedForest", "Ecrsf", "CycleWeights", "ForestSums", "check_roots",
    "canonical_cycle", "enumerate_forests", "enumerate_ecrsf", "cayley_count",
    "forest_weight", "ecrsf_weight", "positive_forest_exists", "RootSetSums",
    "root_set_sums", "TwoTreeSums", "two_tree_sums", "w_sum", "w_target_sum",
    "sigma_sums", "sigma_r", "sigma_pair", "last_exit_state", "w_ec_sums",
    "exact_law",
]

#: Maximum number of free (non-root) vertices enumerated without an override.
DEFAULT_GUARD = 8


class EnumerationGuardError(ValueError):
    """Candidate space too large for exhaustive enumeration."""


def _check_guard(free: int, guard: int) -> None:
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

class _SuccessorMap(FrozenValue):
    """Storage and reads shared by ``RootedForest`` and ``Ecrsf``: n, a root
    set, and one successor per state, -1 at the roots.

    Each subclass keeps its public fields as its own slots, listed in
    ``__slots__`` as n, roots, successors and ``_root_of``, then ``cycles``
    if it keeps them. Its roots and successor fields are read here through
    their slot descriptors, bound again under the shared names ``_roots``
    and ``_succ``; a forest, which has no ``cycles`` slot, leaves a cycles
    argument unread. The hash of n, roots and successors is computed once,
    when they are stored, into the base's own ``_hash`` slot: the samplers'
    tallies hash a configuration per draw.
    """

    __slots__ = ("_hash",)
    # FrozenValue reads each class's fields; the base's are the shared names
    _fields = ("n", "_roots", "_succ")

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        n, roots, succ, root_of, *cycles = [cls.__dict__[name]
                                            for name in cls.__slots__]
        cls._roots, cls._succ = roots, succ
        # each slot's own setter, bound once: it stores past the frozen
        # __setattr__ in about half the time object.__setattr__ takes, and
        # the samplers build one configuration per draw
        cls._put_n, cls._put_roots, cls._put_succ, cls._put_root_of = (
            n.__set__, roots.__set__, succ.__set__, root_of.__set__)
        cls._put_cycles = tuple(slot.__set__ for slot in cycles)
        cls._put_hash = _SuccessorMap._hash.__set__

    def _store(self, n, roots, successor, root_of, cycles=()) -> None:
        self._put_n(self, n)
        self._put_roots(self, roots)
        self._put_succ(self, successor)
        self._put_root_of(self, root_of)
        for put in self._put_cycles:
            put(self, cycles)
        self._put_hash(self, hash((n, roots, successor)))

    @classmethod
    def _trusted(cls, n: int, roots: frozenset[int], successor: tuple[int, ...],
                 root_of: tuple[int, ...],
                 cycles: tuple[tuple[int, ...], ...] = ()):
        """A configuration the enumeration walker or the sampler built: skip
        the checks and take its root-of vector and the cycles its builder
        found, canonical and sorted, instead of classifying the successors
        again."""
        c = object.__new__(cls)
        c._store(n, roots, successor, root_of, cycles)
        return c

    def __hash__(self) -> int:
        return self._hash

    # the samplers' tallies compare a configuration per draw: an inline
    # field tuple is read faster than through the base's attrgetter
    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.n, self._roots, self._succ) \
            == (other.n, other._roots, other._succ)

    def _successor_map(self) -> dict[int, int]:
        return {v: u for v, u in enumerate(self._succ) if u != -1}

    def edges(self) -> tuple[tuple[int, int], ...]:
        return tuple([(v, u) for v, u in enumerate(self._succ) if u != -1])

    def root_of(self, v: int) -> int | None:
        """Tree root of v's component, or None when the component is cycle-rooted."""
        r = self._root_of[v]
        return None if r < 0 else r

    def to_json(self) -> dict:
        return {
            "roots": sorted(self._roots),
            "parent": {str(v): u for v, u in self._successor_map().items()},
        }


class RootedForest(_SuccessorMap):
    """Spanning forest directed toward a nonempty root set.

    ``parent`` has one entry per state: the parent of each non-root, -1 at
    the roots. Following parents from any state reaches a root (acyclicity
    is validated at construction). Storage, equality and the reads it
    shares with ``Ecrsf`` come from their successor-map base.
    """

    __slots__ = ("n", "roots", "parent", "_root_of")
    _fields = ("n", "roots", "parent")

    def __init__(self, n: int, roots: frozenset[int], parent: tuple[int, ...]):
        roots = check_roots(n, roots)
        parent = tuple(int(u) for u in parent)
        if len(parent) != n:
            raise ValueError(f"parent vector has length {len(parent)}, expected {n}")
        for v in range(n):
            if v in roots:
                if parent[v] != -1:
                    raise ValueError(f"root {v} must have parent -1")
            else:
                if not 0 <= parent[v] < n:
                    raise ValueError(f"parent of {v} out of range")
                if parent[v] == v:
                    raise ValueError(f"vertex {v} is its own parent")
        root_of, cycles = _classify(n, roots, parent)
        if cycles:
            raise ValueError(f"parent map contains cycle {cycles[0]}")
        self._store(n, roots, parent, root_of)

    parent_map = _SuccessorMap._successor_map

    def path_to_root(self, v: int) -> tuple[int, ...]:
        """States visited following parents from v up to and including the root."""
        path = [v]
        while self.parent[path[-1]] != -1:
            path.append(self.parent[path[-1]])
        return tuple(path)


class Ecrsf(_SuccessorMap):
    """Cycle-rooted spanning forest with optional tree roots.

    Every component of the successor map is either a tree whose paths lead
    into ``tree_roots`` or hangs off exactly one directed cycle disjoint from
    the roots. A self-loop is a cycle of length 1. Any successor map on the
    non-root states is valid; the classification is computed, not checked,
    and ``cycles`` takes no part in equality, hashing or the repr. The
    rest comes from the successor-map base it shares with ``RootedForest``,
    which it never equals.
    """

    __slots__ = ("n", "tree_roots", "successor", "_root_of", "cycles")
    _fields = ("n", "tree_roots", "successor")

    def __init__(self, n: int, tree_roots: frozenset[int],
                 successor: tuple[int, ...]):
        roots = check_roots(n, tree_roots, allow_empty=True)
        succ = tuple(int(u) for u in successor)
        if len(succ) != n:
            raise ValueError(f"successor vector has length {len(succ)}, expected {n}")
        for v in range(n):
            if v in roots:
                if succ[v] != -1:
                    raise ValueError(f"tree root {v} must have successor -1")
            elif not 0 <= succ[v] < n:
                raise ValueError(f"successor of {v} out of range")
        root_of, cycles = _classify(n, roots, succ)
        self._store(n, roots, succ, root_of, cycles)

    successor_map = _SuccessorMap._successor_map

    def to_json(self) -> dict:
        doc = super().to_json()
        doc["cycles"] = [list(c) for c in self.cycles]
        return doc


class CycleWeights(FrozenValue):
    """Rotation-invariant rule assigning each directed cycle a weight in [0,1].

    The rule always receives the cycle rotated so its minimal state is first,
    which makes rotation invariance structural.
    """

    __slots__ = _fields = ("rule",)

    def __init__(self, rule: Callable[[tuple[int, ...]], Fraction | int]):
        object.__setattr__(self, "rule", rule)

    def weight(self, cycle: Sequence[int]) -> Fraction:
        value = self.rule(canonical_cycle(cycle))
        if value.__class__ is not Fraction:
            value = Fraction(value)
        if not 0 <= value.numerator <= value.denominator:
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

    ``arcs[d]`` lists the candidate arcs of the d-th free state; when some
    free state cannot reach a root along them, no map is walked at all. An
    arc that closes a cycle is rejected, or kept when ``cyclic``.
    ``root_of[v]`` is the root v drains into, or -1 when v's component
    holds a cycle; ``w`` is the product of the chosen factors. ``succ`` is
    one list updated in place (-1 at the roots): copy it to keep it.
    """
    free = [v for v in range(n) if v not in roots]
    succ = [-1] * n
    last = len(free) - 1
    if last < 0:
        yield succ, tuple(range(n)), 1
        return
    if not cyclic:
        # a free state that reaches no root along the candidate arcs ends
        # every map, one with no arc at all the simplest case; a cyclic walk
        # needs no check, as every chain row has a positive cell
        into: list[list[int]] = [[] for _ in range(n)]
        for v, row in zip(free, arcs):
            for u, _x in row:
                into[u].append(v)
        if len(reachable(into, roots)) < n:
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


def _weighted(p: TransitionMatrix, roots: frozenset[int],
              alpha: CycleWeights | None):
    """Yield (succ, root_of, cycles, w) for the configurations of positive
    weight: forests when ``alpha`` is None, else cycle-rooted ones with
    their canonical, sorted cycles, in ``_walk`` order. ``w`` is the weight
    times the free rows' common denominators: the scaled rows' integer
    factors, times alpha of each cycle, asked once per distinct cycle.
    """
    cyclic = alpha is not None
    nums = scaled_rows(p)[0]
    biases: dict[tuple[int, ...], Fraction] = {}
    for succ, root_of, w in _walk(p.n, roots, _arcs(p.n, roots, nums, cyclic),
                                  cyclic):
        cycles = ()
        if cyclic and -1 in root_of:
            cycles = _classify(p.n, roots, succ)[1]
            for cyc in cycles:
                bias = biases.get(cyc)
                if bias is None:
                    bias = biases[cyc] = alpha.weight(cyc)
                w *= bias
                if not w:
                    break
        if w:
            yield succ, root_of, cycles, w


def _over_common_denominator(weights: Sequence[int | Fraction]
                             ) -> tuple[list[int], int]:
    """(integers, d): ``_weighted``'s weights, which alpha makes Fractions,
    times their least common denominator d."""
    d = lcm(*[w.denominator for w in weights])
    return [w.numerator * (d // w.denominator) for w in weights], d


def enumerate_forests(n: int, roots: Iterable[int],
                      guard: int = DEFAULT_GUARD) -> Iterator[RootedForest]:
    """Yield every spanning forest whose root set is exactly ``roots``.

    The count is k * n^(n-k-1) for |roots| = k. Forests come in
    ``itertools.product`` order over the free states' parents, cyclic
    parent maps dropped.
    """
    rs = check_roots(n, roots)
    _check_guard(n - len(rs), guard)
    for succ, root_of, _w in _walk(n, rs, _arcs(n, rs)):
        yield RootedForest._trusted(n, rs, tuple(succ), root_of)


def positive_forest_exists(p: TransitionMatrix, roots: Iterable[int],
                           guard: int = DEFAULT_GUARD) -> bool:
    """Whether some forest rooted exactly at R has every arc of positive
    probability: a walk over the positive arcs alone, stopped at the first
    forest it completes, with no tree sum. Where some free state reaches no
    root along them, the walker's reachability search answers alone."""
    rs = check_roots(p.n, roots)
    _check_guard(p.n - len(rs), guard)
    walk = _walk(p.n, rs, _arcs(p.n, rs, scaled_rows(p)[0]))
    return next(walk, None) is not None


def enumerate_ecrsf(n: int, tree_roots: Iterable[int],
                    guard: int = DEFAULT_GUARD) -> Iterator[Ecrsf]:
    """Yield every ECRSF with these tree roots: every successor map, in order."""
    rs = check_roots(n, tree_roots, allow_empty=True)
    _check_guard(n - len(rs), guard)
    for succ, root_of, _w in _walk(n, rs, _arcs(n, rs, cyclic=True), cyclic=True):
        cycles = _classify(n, rs, succ)[1] if -1 in root_of else ()
        yield Ecrsf._trusted(n, rs, tuple(succ), root_of, cycles)


def cayley_count(n: int, k: int) -> int:
    """Number of forests on n labeled vertices with a fixed k-element root set."""
    if not 1 <= k <= n:
        raise ValueError(f"root count {k} out of range 1..{n}")
    if k == n:
        return 1
    return k * n ** (n - k - 1)


# ---------------------------------------------------------------------------
# weights and sums

def _edge_product(edges, p: TransitionMatrix) -> tuple[int, int]:
    """(numerator, denominator) of the product of p(v, u) over ``edges``,
    multiplied as integers; (0, 1) once a factor is 0."""
    rows = p.rows
    num = den = 1
    for v, u in edges:
        x = rows[v][u]
        if not x:
            return 0, 1
        num *= x.numerator
        den *= x.denominator
    return num, den


def forest_weight(f: RootedForest, p: TransitionMatrix) -> Fraction:
    """P-weight: product of p(v, parent(v)) over non-roots; empty product is 1."""
    if f.n != p.n:
        raise ValueError("forest and chain sizes differ")
    return ratio(*_edge_product(f.edges(), p))


def ecrsf_weight(f: Ecrsf, p: TransitionMatrix, alpha: CycleWeights) -> Fraction:
    """(P, alpha)-weight: edge probabilities times one alpha factor per cycle."""
    if f.n != p.n:
        raise ValueError("configuration and chain sizes differ")
    num, den = _edge_product(f.edges(), p)
    for cyc in f.cycles:
        if not num:
            break
        bias = alpha.weight(cyc)
        num *= bias.numerator
        den *= bias.denominator
    return ratio(num, den)


# Cache bounds. The tree sums and the tree-deletion rows keep two chains
# each, so that a sub-chain read in the middle of a caller's work
# (mfpt_via_modified_chain) does not evict the caller's. The tree sums keep
# per chain its memo, its two-tree sums and one entry for each of
# up to _ROOT_SET_CACHE_SIZE root sets (126 at n = 9 for the largest r,
# which sigma_r reads and the kirchhoff suite reads again): R's record, or
# w(R) with its merged-root column, 2^f integers for f free states, until
# R's record replaces them. The memo holds n integers per state set; it is
# cleared before a root set or a pass when it holds more than
# _LAYER_MEMO_SIZE. One root set with f free states adds at most an entry
# per nonempty subset of them, n (2^f - 1) integers; the two-tree pass adds
# one per nonempty state set.
_LAYER_CACHE_SIZE = 2
_ROOT_SET_CACHE_SIZE = 256
_LAYER_MEMO_SIZE = 1 << 17


# Each state set's members and the states outside it, in ascending order,
# by chain size, so that every chain of a size reads the same tuples: a
# fill or a pass looks a set up where it would otherwise list it. An entry
# is made when a fill or a pass first needs its set, never for all 2^n
# sets up front. A size's table also holds its straight-line program
# (``_program``), empty until built, and the count of its replays. Like the
# memo, the tables are cleared before a fill, a pass or a program adds
# entries once they hold more than _STATE_SET_TABLE_SIZE in all, counting
# the n states of each entry of an n-state table and each triple of a
# program, compiled or not; a fill or a pass adds at most one entry per set
# it reads.
_STATE_SETS: dict[int, list] = {}
_STATE_SET_TABLE_SIZE = 1 << 17


def _tables_held() -> int:
    """The states and program triples that the tables of every size hold."""
    return sum([n * len(inside) + (len(program) // 3
                                   if program.__class__ is list
                                   else _program_size(n))
                for n, (inside, _outside, program, _replays)
                in _STATE_SETS.items()])


def _state_sets(n: int, masks: list[int] | range):
    """[inside, outside, program, replays]: the shared tables of n-state
    sets, with an entry for every state set in ``masks``. inside[S] lists
    S's states and outside[S] the others; program is the size's
    straight-line program or empty, and replays counts its replays."""
    got = _STATE_SETS.get(n)
    if got is not None and len(got[0]) == (1 << n) - 1:
        return got  # every state set has its entry
    new = [s for s in masks if got is None or s not in got[0]]
    if new and _tables_held() > _STATE_SET_TABLE_SIZE:
        _STATE_SETS.clear()
        got, new = None, list(masks)
    if got is None:
        got = _STATE_SETS[n] = [{}, {}, [], 0]
    inside, outside = got[:2]
    for s in new:
        inside[s] = tuple([c for c in range(n) if s >> c & 1])
        outside[s] = tuple([c for c in range(n) if not s >> c & 1])
    return got


def _check_state_sets(free: int) -> None:
    """Refuse tree sums over ``free`` states before their 2^free state sets
    are listed, and before the chain's scaled rows are built: past the
    tables' bound the list alone can exhaust memory, whatever guard the
    caller passed, and the rows of a large chain take n^2 integers."""
    if 1 << free > _STATE_SET_TABLE_SIZE:
        raise EnumerationGuardError(
            f"tree sums over {free} states need 2^{free} state sets, more "
            f"than their bound of {_STATE_SET_TABLE_SIZE}")


# The straight-line program of a chain size n lists, as (out, a, b) index
# triples, every multiply-add F[out] += F[a] * F[b] that ``_fill`` makes
# over all 2^n - 1 state sets, in its order, over one flat list F of n 2^n
# integers per chain: the memo entry of a state set S sits at S n. A
# singleton's entry is its scaled row, put into F before the replay; since c
# is not d, the pull column's p_dc is read there, at d's entry. Every triple
# is one multiply-add of the loops, so each entry is the same integer.

def _program_size(n: int) -> int:
    """Triples in the program of n states: n (3^(n-1) - 1) / 2 for the tree
    sums of the fill and n (n - 1) (2^(n-2) - 1) for its pulls."""
    return n * (3 ** (n - 1) - 1) // 2 + n * (n - 1) * ((1 << n) // 4 - 1)


def _build_program(n: int, inside, outside, program: list[int]) -> None:
    """Append the triples of the n-state program, ``_fill`` over every state
    set in increasing order, to ``program``, each index one shared object of
    one list: a triple takes 24 bytes."""
    idx = list(range(n << n))
    for s in range(1, 1 << n):
        m0 = s & -s
        rest = s ^ m0
        if not rest:
            continue
        members = inside[s]
        i0 = members[0]
        out = s * n
        sub = rest
        while sub:
            sub = (sub - 1) & rest
            pull = (m0 | sub) * n
            heads = rest ^ sub
            tree = heads * n
            for c in inside[heads]:
                program += idx[out + c], idx[pull + c], idx[tree + c]
        m1 = rest & -rest
        rest2, keep = rest ^ m1, s ^ m1
        sub = rest2
        while True:
            program += (idx[out + i0], idx[(m1 | sub) * n + i0],
                        idx[(keep ^ sub) * n + i0])
            if not sub:
                break
            sub = (sub - 1) & rest2
        for c in outside[s]:
            for d in members:
                program += idx[out + c], idx[(n << d) + c], idx[out + d]


class _Compiled:
    """A size's program compiled, with the two-tree pass over the entries it
    fills: ``fill`` and ``two_tree`` are short functions, each a run of
    assignments target = a1 * b1 + a2 * b2 + ..., called in order."""

    __slots__ = ("fill", "two_tree")

    def __init__(self, fill: tuple, two_tree: tuple):
        self.fill, self.two_tree = fill, two_tree


# A size's program is compiled on its _COMPILE_AT-th replay. A compile
# costs what 170-300 chains save over the triples' replay and loop pass at
# n = 5..8: 59-73 ms against 0.29-0.32 ms a chain at n = 7, 7-8 ms against
# 0.04 ms at n = 5, 174-241 ms against 0.59 ms at n = 8 (2-vCPU host).
# Compiled on the first replay, ``verify --suite kemeny --trials 200
# --max-n 9``, which meets about 25 chains per size, took 1.03-1.40 s in
# place of 0.46-0.62 s.
_COMPILE_AT = 200
# terms per generated function, a longer sum split over several: the
# compiler holds about 3 KB per term while it compiles one, and what it
# frees stays with the process. At n = 7 the resident set grew 0.9 MB at
# the compile with 64 terms a function, 1.2 MB with 128 and 1.4 MB with one
# function per state set (up to 224 terms), in a process running the
# benchmark's ``exact`` chains
_UNIT_TERMS = 64
# the generated functions' globals: no builtins, and ``unit`` for the moment
# between a compile and its read
_UNITS: dict = {"__builtins__": {}}


def _unit(args: str, lines: list[str]):
    """The function of ``args`` whose body is ``lines``. Its source holds
    integer indices and names made here, nothing read from any input."""
    exec(compile("\n".join([f"def unit({args}):", *lines]),
                 "<forests program>", "exec"), _UNITS)
    return _UNITS.pop("unit")


def _units(args: str, sums: Iterable[tuple[str, list[str]]]) -> tuple:
    """Functions of ``args`` that, called in order, set each target of
    ``sums`` to the sum of its terms, about _UNIT_TERMS terms to a function.
    A long sum is split over several, and a target with no terms keeps the
    0 it starts at."""
    units, lines, held = [], [], 0
    for target, terms in sums:
        for k in range(0, len(terms), _UNIT_TERMS):
            part = terms[k:k + _UNIT_TERMS]
            if lines and held + len(part) > _UNIT_TERMS:
                units.append(_unit(args, lines))
                lines, held = [], 0
            lines.append(f" {target} {'+=' if k else '='} {' + '.join(part)}")
            held += len(part)
    if lines:
        units.append(_unit(args, lines))
    return tuple(units)


def _compile_program(n: int, program: list[int]) -> _Compiled:
    """``program`` compiled, with the two-tree pass of ``_TreeSums.two_tree``
    over the F it fills.

    The triples of a state set S write S's entry alone, and its pulls read
    its tree sums only after every triple of those, so summing each
    output's products in one expression gives each entry the same integer.
    The two-tree pass takes the chain's dens d and fills three lists that
    start at 0: T[X] = tau(X) D-scaled; G[Y n + j] = T[V - Y] F[Y n + j]
    for j in Y, the weight of a two-tree forest's j tree on Y times that of
    the trees spanning the rest; and S, with Sigma_ij over dens_j at
    S[j n + i], the sum of G[(V - X) n + j] over the X that hold i and not
    j, and Sigma^(2) D at S[n n], the sum of T[X] T[V - X] over the X that
    hold state 0.
    """
    full = (1 << n) - 1
    it = iter(program)
    # the sums are listed as the functions are made, so that only one
    # function's source is held at a time

    def fill():
        # one state set's triples at a time: its outputs are interleaved
        for _s, triples in itertools.groupby(zip(it, it, it),
                                             key=lambda t: t[0] // n):
            outputs: dict[int, list[str]] = {}
            for o, a, b in triples:
                outputs.setdefault(o, []).append(f"F[{a}]*F[{b}]")
            yield from ((f"F[{o}]", terms) for o, terms in outputs.items())

    sets = range(1, full + 1)
    tau = ((f"T[{x}]", [f"F[{x * n + k}]*d[{k}]" for k in range(n) if x >> k & 1])
           for x in sets)
    pairs = [(f"S[{n * n}]", [f"T[{x}]*T[{full ^ x}]" for x in range(1, full, 2)])]
    products = ((f"G[{y * n + j}]", [f"T[{full ^ y}]*F[{y * n + j}]"])
                for y in range(1, full) for j in range(n) if y >> j & 1)
    sigma = ((f"S[{j * n + i}]", [f"G[{(full ^ x) * n + j}]" for x in sets
                                  if x >> i & 1 and not x >> j & 1])
             for j in range(n) for i in range(n) if i != j)
    return _Compiled(
        _units("F", fill()),
        _units("F, d, T, G, S", itertools.chain(tau, pairs, products, sigma)))


def _program(n: int) -> list[int] | _Compiled | None:
    """The straight-line program that every n-state chain shares; None where
    the loops run instead. A size runs in three tiers, counted from the
    first full fill since its table was made:

    - the first full fill runs the loops, which list every state set;
    - the second builds the triples, and fills 2 to _COMPILE_AT replay
      them;
    - the _COMPILE_AT-th replay compiles them (``_compile_program``), and
      from then on every chain of the size runs the compiled fill and
      two-tree pass. The compiled form takes the triples' place in the
      table and is counted as they were.

    A size whose program and full table of state sets would not fit the
    tables' bound together keeps the loops: a program that fit alone, as
    n = 10's would, would leave no room for the other tables, which would
    then be cleared and listed again over and over.

    A build and one ``analyze`` that replays it cost more than one
    ``analyze`` with the loops: 1.1-1.2 ms against 0.9-1.1 ms at n = 7, and
    10.4-12.1 ms against 6.3-7.3 ms at n = 9 (minimum of five, 2-vCPU
    host). So a process that fills a size once, as one CLI command does,
    never builds it, let alone compiles it. The compiled form holds 0.6,
    2.1 and 6.9 MB at n = 7, 8 and 9 (under tracemalloc), against 0.12,
    0.38 and 1.2 MB for the triples it replaces.
    """
    table = _STATE_SETS.get(n)
    full = (1 << n) - 1
    if (table is None or full not in table[0]
            or _program_size(n) + n * full > _STATE_SET_TABLE_SIZE):
        return None
    inside, outside, program, replays = table
    if not program:
        if _tables_held() > _STATE_SET_TABLE_SIZE:
            _STATE_SETS.clear()
            return None
        _build_program(n, inside, outside, program)
    if program.__class__ is list:
        table[3] = replays = replays + 1
        if replays == _COMPILE_AT:
            program = table[2] = _compile_program(n, program)
    return program


def _subsets(mask: int) -> list[int]:
    """The nonempty subsets of a bitmask, in increasing order."""
    out = []
    x = 0
    while x != mask:
        x = (x - mask) & mask
        out.append(x)
    return out


class RootSetSums(NamedTuple):
    """The forest sums of one root set R as integers over one denominator.

    ``interior`` lists the states outside R in ascending order. For
    i = interior[a] and j = interior[k], ``green[a][k]`` is the Green
    numerator w_ij(R ∪ {j}) D, and ``hit[a][c]`` is w_ib(R) D for
    b = sorted(R)[c], the weight of the forests in which i's tree has root
    b. ``weight`` is w(R) D. D = ``denom`` is the product of dens_v over
    every state v, with dens_v the lcm of row v's denominators: the same
    for every root set of a chain.
    """

    interior: tuple[int, ...]
    green: tuple[tuple[int, ...], ...]
    hit: tuple[tuple[int, ...], ...]
    weight: int
    denom: int


class TwoTreeSums(NamedTuple):
    """The one- and two-tree sums of a chain as integers over ``denom``,
    the denominator of its ``RootSetSums``.

    ``trees[j]`` is Sigma_j D = w({j}) D and ``total`` is Sigma^(1) D.
    ``pairs`` is Sigma^(2) D, the weight of every forest of two trees, and
    ``sigma[i][j]`` is the two-tree Sigma_ij D = sum_{k != j} w_ik({j, k}) D,
    0 at i = j.
    """

    trees: tuple[int, ...]
    total: int
    pairs: int
    sigma: tuple[tuple[int, ...], ...]
    denom: int


class _TreeSums:
    """Rooted-tree sums of one chain over bitmasks of states.

    Weights are integers, rows scaled as in ``scaled_rows``. ``memo[S]``
    is a bare list of n integers for a nonempty state set S: at c in S it
    is the weight of the spanning trees on S rooted at c, T({c}, S - {c});
    at c outside S it is the pull A({c}, S) = sum_{d in S} p_dc T({d}, S - {d}),
    the weight of those trees hung from c by one more arc. S's states and
    the states outside it are read from the state-set table that every
    chain of n states shares (``_state_sets``); ``cols[c]`` is column c of
    the scaled rows, which the pulls read.
    """

    def __init__(self, p: TransitionMatrix):
        self.n = p.n
        self.nums, self.dens = scaled_rows(p)
        self.cols = tuple(zip(*self.nums))
        self.denom = prod(self.dens)
        self.memo: dict[int, list[int]] = {}
        # R's record, or (w(R) D, R's merged-root column) until it is built
        self.root_sets: dict[frozenset[int],
                             RootSetSums | tuple[int, dict[int, int]]] = {}
        self.two_trees: TwoTreeSums | None = None

    def _make_room(self) -> None:
        """Clear the memo once it holds more than _LAYER_MEMO_SIZE integers."""
        if len(self.memo) * self.n > _LAYER_MEMO_SIZE:
            self.memo.clear()

    def _keep(self, roots: frozenset[int], got):
        """Keep ``got`` for ``roots`` and return it. A new root set drops
        the oldest entry of a full store; a kept one is replaced in place."""
        store = self.root_sets
        if roots not in store and len(store) >= _ROOT_SET_CACHE_SIZE:
            del store[next(iter(store))]
        store[roots] = got
        return got

    def _fill(self, subsets: list[int]) -> None:
        """Memo entries for ``subsets``, every nonempty subset of one mask in
        increasing order.

        A tree on S rooted at c splits at the children of c: the subtree
        holding the least other state m is a block Y hung from c, and the
        rest is a tree on S - Y rooted at c. So T({c}, S - {c}) sums
        A({c}, Y) T({c}, S - Y - {c}) over the Y ⊆ S - {c} that contain m.
        Subsets come in increasing order, so every block is already there.
        Asked for every state set on an empty memo, once the chain's size
        has its program, the fill is one replay of it instead.
        """
        memo, nums, cols, n = self.memo, self.nums, self.cols, self.n
        if not memo and len(subsets) == (1 << n) - 1:
            program = _program(n)
            if program is not None:
                self._replay(program)
                return
        inside, outside = _state_sets(n, subsets)[:2]
        for s in subsets:
            if s in memo:
                continue
            m0 = s & -s
            rest = s ^ m0
            if not rest:
                i0 = m0.bit_length() - 1
                vals = list(nums[i0])
                vals[i0] = 1
                memo[s] = vals
                continue
            members = inside[s]
            i0 = members[0]
            vals = [0] * n
            # roots c other than m0: the block holds m0 and leaves c outside
            sub = rest
            while sub:
                sub = (sub - 1) & rest
                pull = memo[m0 | sub]
                heads = rest ^ sub
                tree = memo[heads]
                for c in inside[heads]:
                    vals[c] += pull[c] * tree[c]
            # root m0: the block holds the next state m1
            m1 = rest & -rest
            rest2, keep = rest ^ m1, s ^ m1
            sub = rest2
            t = 0
            while True:
                t += memo[m1 | sub][i0] * memo[keep ^ sub][i0]
                if not sub:
                    break
                sub = (sub - 1) & rest2
            vals[i0] = t
            # the pull at c outside S sums p_dc T({d}, S - {d}) over d in S
            for c in outside[s]:
                col = cols[c]
                t = 0
                for d in members:
                    t += col[d] * vals[d]
                vals[c] = t
            memo[s] = vals

    def _column(self, subsets: list[int], block) -> dict[int, int]:
        """{X: T(B, X)} over X in ``subsets`` and X = 0, for the states of
        ``block`` merged into one root B.

        The subtree of B's children holding the least state m of X gives
        T(B, X) = sum over m in Y ⊆ X of A(B, Y) T(B, X - Y), where the pull
        A(B, Y) is the sum of the memo's A({b}, Y) over b in B. When B is
        one state, the memo entry of X with that state added holds T(B, X).
        """
        memo = self.memo
        block = tuple(block)
        root = block[0] if len(block) == 1 else -1
        col = {0: 1}
        pull = None
        for x in subsets:
            if root >= 0:
                known = memo.get(x | 1 << root)
                if known is not None:
                    col[x] = known[root]
                    continue
            if pull is None:
                # a plain loop: about three times faster than a sum over a
                # generator per subset
                pull = {}
                for y in subsets:
                    vals = memo[y]
                    t = 0
                    for b in block:
                        t += vals[b]
                    pull[y] = t
            m = x & -x
            rest = x ^ m
            t = 0
            sub = rest
            while True:
                t += pull[m | sub] * col[rest ^ sub]
                if not sub:
                    break
                sub = (sub - 1) & rest
            col[x] = t
        return col

    def two_tree(self) -> TwoTreeSums:
        """The one- and two-tree sums, read in one pass over the memo
        entries of every state set, and kept: the chain's one record of its
        whole-chain sums.

        The memo entry of all n states holds T({b}, V - {b}) at each b, the
        weight of the spanning trees rooted at b, which times dens_b is
        Sigma_b D. A forest of two trees splits the states into k's tree on
        X and j's tree on V - X. So Sigma_ij sums tau(X) T({j}, V - X - {j})
        over the X that hold i and not j, and Sigma^(2) sums
        tau(X) tau(V - X) over the X that hold state 0, where
        tau(X) = sum_{k in X} T({k}, X - {k}). Each tree in tau is taken
        times its root's dens, so a pair of trees spanning all states is
        over the chain's denominator, and so is tau(V) = Sigma^(1) D;
        Sigma_ij is summed with j's tree unscaled and each column j taken
        times dens_j once, at the end. What the memo lacks is filled first
        (``_fill``); where that fill ran its size's compiled program, the
        compiled pass over it has already kept the record.
        """
        got = self.two_trees
        if got is not None:
            return got
        self._make_room()
        n, memo, dens = self.n, self.memo, self.dens
        full = (1 << n) - 1
        if full not in memo:
            self._fill(_subsets(full))
            if self.two_trees is not None:
                return self.two_trees
        inside = _state_sets(n, range(1, full + 1))[0]
        tau = [0] * (full + 1)
        for x in range(1, full + 1):
            vals = memo[x]
            t = 0
            for k in inside[x]:
                t += vals[k] * dens[k]
            tau[x] = t
        # by_target[j][i] = Sigma_ij, over dens_j until the pass ends
        by_target = [[0] * n for _ in range(n)]
        pairs = 0
        for x in range(1, full):
            t = tau[x]
            if not t:
                continue
            y = full ^ x
            if x & 1:
                pairs += t * tau[y]
            members = inside[x]
            tails = memo[y]
            for j in inside[y]:
                g = t * tails[j]
                if g:
                    row = by_target[j]
                    for i in members:
                        row[i] += g
        return self._two_tree_record(by_target, pairs, tau[full])

    def _two_tree_record(self, by_target, pairs: int, total: int
                         ) -> TwoTreeSums:
        """Keep and return the record of Sigma_ij over dens_j at
        ``by_target[j][i]``, Sigma^(2) D and Sigma^(1) D, with the trees
        read off the memo entry of all n states."""
        dens = self.dens
        sigma = tuple(zip(*[[g * d for g in row]
                            for row, d in zip(by_target, dens)]))
        got = self.two_trees = TwoTreeSums(
            tuple([t * d for t, d in zip(self.memo[(1 << self.n) - 1], dens)]),
            total, pairs, sigma, self.denom)
        return got

    def _replay(self, program: list[int] | _Compiled) -> None:
        """Fill the empty memo by one replay of its size's ``program`` over a
        flat list F of n 2^n integers; each state set's memo entry is then a
        slice of F. A compiled program runs the two-tree pass over F too,
        which keeps the chain's record."""
        n = self.n
        F = [0] * (n << n)
        for d, row in enumerate(self.nums):
            at = n << d
            F[at:at + n] = row
            F[at + d] = 1
        compiled = program.__class__ is _Compiled
        if compiled:
            for unit in program.fill:
                unit(F)
        else:
            it = iter(program)
            for o, a, b in zip(it, it, it):
                F[o] += F[a] * F[b]
        memo = self.memo
        for s in range(1, 1 << n):
            memo[s] = F[s * n:s * n + n]
        if compiled:
            T, G, S = [0] * (1 << n), [0] * (n << n), [0] * (n * n + 1)
            for unit in program.two_tree:
                unit(F, self.dens, T, G, S)
            self._two_tree_record([S[j * n:j * n + n] for j in range(n)],
                                  S[n * n], T[-1])

    def _merged(self, roots: frozenset[int],
                col: dict[int, int] | None = None):
        """(free, subsets, col): the mask of the states outside R, its
        nonempty subsets with their memo entries filled, and the column
        {X: T(R, X)} with the states of R merged into one root, built
        unless ``col`` is R's kept one.

        The memo holds whole down-sets: ``_fill`` enters the subsets of a
        mask in increasing order and ``_make_room`` clears every entry, so
        the free set's own entry means all its subsets are there.
        """
        self._make_room()
        free = ((1 << self.n) - 1) ^ sum(1 << v for v in roots)
        subsets = _subsets(free)
        if free not in self.memo:
            self._fill(subsets)
        if col is None:
            col = self._column(subsets, roots)
        return free, subsets, col

    def weight(self, roots: frozenset[int]) -> int:
        """w(R) D, from R's kept entry or else from the merged-root column
        alone, with no Green pass; the column is kept for R's record.

        Merging the roots turns each forest rooted at R into a tree on the
        free states rooted at the merged state, so w(R) is the column at
        every free state, times the roots' dens to put it over D. When R is
        every state that is the empty forest's D.
        """
        got = self.root_sets.get(roots)
        if got is None:
            free, _, col = self._merged(roots)
            got = self._keep(roots, (
                col[free] * prod(self.dens[b] for b in roots), col))
        return got.weight if got.__class__ is RootSetSums else got[0]

    def record(self, roots: frozenset[int]) -> RootSetSums:
        """R's Green numerators, hitting numerators and weight, read in one
        pass over the subsets of its free states, and kept.

        A forest rooted at R ∪ {j} splits at the free states X of j's tree:
        w_ij(R ∪ {j}) sums T({j}, X - {j}) T(R, free - X) over the X that
        hold i and j, with the states of R merged into one root. The pass
        sums the products as they are and takes each column j times dens_j
        and the roots' dens once, at the end, which puts it over the
        chain's denominator. Cutting i's path at its last arc j -> b, a forest
        rooted at R in which i drains to b is a forest rooted at R ∪ {j} in
        which i drains to j, plus that arc, so w_ib(R) = sum over free j of
        w_ij(R ∪ {j}) p_jb: the forest form of the absorbing-chain identity
        H = G P_R (Kemeny and Snell, 1960). There the unscaled sum at j
        takes p_jb's scaled numerator, whose denominator dens_j is the one
        the Green numerator carries, and then the roots' dens.
        """
        got = self.root_sets.get(roots)
        if got.__class__ is RootSetSums:
            return got
        n, memo, nums, dens = self.n, self.memo, self.nums, self.dens
        free, subsets, merged = self._merged(
            roots, None if got is None else got[1])
        inside = _state_sets(n, subsets)[0]
        # by_target[j][i], over dens_j and the roots' dens until the pass ends
        by_target = [[0] * n for _ in range(n)]
        for x in subsets:
            u = merged[free ^ x]
            if not u:
                continue
            vals = memo[x]
            members = inside[x]
            for j in members:
                g = vals[j] * u
                if g:
                    row = by_target[j]
                    for i in members:
                        row[i] += g
        scale = prod(dens[b] for b in roots)
        interior = tuple(v for v in range(n) if v not in roots)
        order = sorted(roots)
        columns = [(by_target[j], dens[j] * scale) for j in interior]
        green = tuple(tuple([row[i] * f for row, f in columns])
                      for i in interior)
        hit = []
        for i in interior:
            share = [0] * len(order)
            for j in interior:
                g = by_target[j][i]
                if g:
                    arcs = nums[j]
                    for c, b in enumerate(order):
                        share[c] += g * arcs[b]
            hit.append(tuple([x * scale for x in share]))
        return self._keep(roots, RootSetSums(
            interior, green, tuple(hit), merged[free] * scale, self.denom))


@lru_cache(maxsize=_LAYER_CACHE_SIZE)
def _layer_sums(p: TransitionMatrix) -> _TreeSums:
    return _TreeSums(p)


def _root_set_sums(p: TransitionMatrix, roots: frozenset[int]) -> RootSetSums:
    return _layer_sums(p).record(roots)


def root_set_sums(p: TransitionMatrix, roots: Iterable[int],
                  guard: int = DEFAULT_GUARD) -> RootSetSums:
    """Integer forest sums of the root set R: every Green numerator
    w_ij(R ∪ {j}), every w_ib(R) and w(R), over a denominator shared by
    every root set of the chain.

    The result is cached and shared: read it, do not change it.
    """
    rs = check_roots(p.n, roots)
    _check_guard(p.n - len(rs), guard)
    _check_state_sets(p.n - len(rs))
    return _root_set_sums(p, rs)


def two_tree_sums(p: TransitionMatrix,
                  guard: int = DEFAULT_GUARD) -> TwoTreeSums:
    """Integer one- and two-tree sums of the chain: every Sigma_j, Sigma^(1),
    Sigma^(2) and every two-tree Sigma_ij, over the chain's denominator.

    The result is cached and shared: read it, do not change it.
    """
    # the trees span all n states, n - 1 of them free, as at w({j}); the
    # fill reads every set of all n states
    _check_guard(p.n - 1, guard)
    _check_state_sets(p.n)
    return _layer_sums(p).two_tree()


def w_sum(p: TransitionMatrix, roots: Iterable[int],
          guard: int = DEFAULT_GUARD) -> Fraction:
    """w(R): total P-weight of forests rooted exactly at R, read with no
    Green pass."""
    rs = check_roots(p.n, roots)
    _check_guard(p.n - len(rs), guard)
    _check_state_sets(p.n - len(rs))
    sums = _layer_sums(p)
    return ratio(sums.weight(rs), sums.denom)


def w_target_sum(p: TransitionMatrix, roots: Iterable[int], i: int, j: int,
                 guard: int = DEFAULT_GUARD) -> Fraction:
    """w_ij over root set roots ∪ {j}: forests in which i's tree has root j.

    When j is already a root this is the harmonic numerator w_ij(R); when it
    is not, the root set is enlarged to R ∪ {j} as in the Green numerator.
    R may be empty: w_ij({j}) is the tree sum Sigma_j at every i.
    """
    if not 0 <= i < p.n:
        raise ValueError(f"state {i} out of range")
    rs = check_roots(p.n, roots, allow_empty=True) | check_roots(p.n, [j])
    got = root_set_sums(p, rs, guard)
    if i == j:
        x = got.weight
    elif i in rs:
        x = 0
    else:
        x = got.hit[got.interior.index(i)][sorted(rs).index(j)]
    return ratio(x, got.denom)


class ForestSums(NamedTuple):
    """Tree sums of one chain: sigma(j) = w({j}) and sigma1 = sum_j sigma(j)."""

    sigma_vector: tuple[Fraction, ...]
    sigma1: Fraction

    def sigma(self, j: int) -> Fraction:
        return self.sigma_vector[j]


def sigma_sums(p: TransitionMatrix, guard: int = DEFAULT_GUARD) -> ForestSums:
    """Tree sums Sigma_j = w({j}) and their total Sigma^(1), read off the
    chain's kept one- and two-tree sums."""
    got = two_tree_sums(p, guard)
    return ForestSums(tuple([ratio(w, got.denom) for w in got.trees]),
                      ratio(got.total, got.denom))


def sigma_r(p: TransitionMatrix, r: int, guard: int = DEFAULT_GUARD) -> Fraction:
    """Sigma^(r): total weight of forests with exactly r trees, any root sets."""
    if not 1 <= r <= p.n:
        raise ValueError(f"tree count {r} out of range 1..{p.n}")
    if r == 1:
        got = two_tree_sums(p, guard)
        return ratio(got.total, got.denom)
    # every root set of r states leaves n - r free
    _check_guard(p.n - r, guard)
    _check_state_sets(p.n - r)
    sums = _layer_sums(p)
    return ratio(sum([sums.weight(frozenset(rs))
                      for rs in itertools.combinations(range(p.n), r)]),
                 sums.denom)


def sigma_pair(p: TransitionMatrix, i: int, j: int,
               method: str = "tree-deletion",
               guard: int = DEFAULT_GUARD) -> Fraction:
    """Sigma_ij, by deleting the last edge into j or by two-tree forests.

    tree-deletion: over all trees t rooted at j, the product of edge
    probabilities with the factor for the last edge k(i,j,t) -> j left out.
    The factor is omitted, not divided: a tree whose only vanishing factor
    is the deleted one still contributes.

    two-forest: sum over k != j of the weight of {j,k}-rooted forests whose
    i-tree has root k, read from ``two_tree_sums``. The two methods agree by
    the cut-the-last-edge bijection.
    """
    if i == j:
        raise ValueError("sigma_pair needs i != j")
    if not (0 <= i < p.n and 0 <= j < p.n):
        raise ValueError(f"states ({i},{j}) out of range")
    if method == "two-forest":
        got = two_tree_sums(p, guard)
        return ratio(got.sigma[i][j], got.denom)
    if method != "tree-deletion":
        raise ValueError(f"unknown method {method!r}")
    _check_guard(p.n - 1, guard)
    return _tree_deletion_row(p, j)[i]


@lru_cache(maxsize=_LAYER_CACHE_SIZE)
def _tree_deletion_rows(p: TransitionMatrix) -> dict:
    """p's tree-deletion rows by target state, each made once; kept apart
    from the tree sums, which the rows are the reference for."""
    return {}


def _tree_deletion_row(p: TransitionMatrix, j: int) -> tuple[Fraction, ...]:
    """Sigma_ij by tree deletion for every start state i, 0 at i = j, kept
    in p's store.

    A tree's term for i depends on i only through k(i, j, t), the last state
    before j on i's branch, so one walk over the trees rooted at j sums the
    integer weights per vector of those heads and spreads each group once.
    """
    kept = _tree_deletion_rows(p)
    got = kept.get(j)
    if got is not None:
        return got
    n = p.n
    nums, dens = scaled_rows(p)
    free = [v for v in range(n) if v != j]
    # arcs into j are followed even at probability zero, their factors settled
    # per group: the head k gets row k's denominator back, the others pay
    arcs = [[(u, 1 if u == j else x) for u, x in enumerate(nums[v])
             if u != v and (x or u == j)] for v in free]
    groups: dict[tuple[int, ...], int] = {}
    for succ, _root_of, w in _walk(n, frozenset([j]), arcs):
        head = [-1] * n
        for v in free:
            k = v
            while succ[k] != j:
                k = succ[k]
            head[v] = k
        key = tuple(head)
        groups[key] = groups.get(key, 0) + w
    row = [0] * n
    for head, w in groups.items():
        children = {k for k in head if k >= 0}
        share = {}
        for k in children:
            x = w * dens[k]
            for h in children:
                if h != k:
                    x *= nums[h][j]
            share[k] = x
        for i, k in enumerate(head):
            if k >= 0:
                row[i] += share[k]
    denom = prod(dens[v] for v in free)
    got = kept[j] = tuple(ratio(x, denom) for x in row)
    return got


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
    rs = check_roots(p.n, tree_roots, allow_empty=True)
    _check_guard(p.n - len(rs), guard)
    groups: dict = {}
    for _succ, root_of, _cycles, w in _weighted(p, rs, alpha):
        groups[root_of] = groups.get(root_of, 0) + w
    weights, scale = _over_common_denominator(list(groups.values()))
    table: dict = {}
    for root_of, w in zip(groups, weights):
        for i, r in enumerate(root_of):
            if r >= 0:
                table[(i, r)] = table.get((i, r), 0) + w
    dens = scaled_rows(p)[1]
    denom = scale * prod(dens[v] for v in range(p.n) if v not in rs)
    return (ratio(sum(weights), denom),
            {k: ratio(w, denom) for k, w in table.items()})


def exact_law(p: TransitionMatrix, roots: Iterable[int],
              alpha: CycleWeights | None = None,
              guard: int = DEFAULT_GUARD) -> dict:
    """{configuration: probability} under the sampler's law, over the
    configurations of positive weight in ``enumerate_*`` order.

    With ``alpha`` None: forests rooted at ``roots``, Pi^P(f) / w(R).
    Otherwise: cycle-rooted configurations with these tree roots (possibly
    none), their (P, alpha)-weight over w^ec(R). Zero total weight raises
    ``InfeasibleRootSetError``.
    """
    rs = check_roots(p.n, roots, allow_empty=alpha is not None)
    _check_guard(p.n - len(rs), guard)
    cls = RootedForest if alpha is None else Ecrsf
    configs, weights = [], []
    for succ, root_of, cycles, w in _weighted(p, rs, alpha):
        configs.append(cls._trusted(p.n, rs, tuple(succ), root_of, cycles))
        weights.append(w)
    weights = _over_common_denominator(weights)[0]
    total = sum(weights)
    if not total:
        raise InfeasibleRootSetError(
            f"root set {sorted(rs)} has zero total weight")
    return {f: ratio(w, total) for f, w in zip(configs, weights)}
