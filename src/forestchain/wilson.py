"""Loop erasure, Wilson-type samplers, and statistical validation.

The samplers draw rooted forests (and their cycle-rooted generalization)
with probability proportional to the transition-weight product, using
random walks with chronological loop erasure. The forest sampler follows
Wilson's RandomTreeWithRoot (Wilson 1996): a walk keeps only the last exit
from each state it visits, and the branch traced from its start along those
pointers is its chronological loop erasure, so no path is stored or erased.
The cycle-rooted sampler pops loops as they close, because each closed
cycle needs its coin at that moment, and records each cycle a coin keeps.
Exact per-path laws and a chi-square report make the samplers testable
against the enumeration tables in ``forests``. The chi-square upper tail
behind the report's p-value is computed in closed form from the standard
library (Abramowitz & Stegun 26.4.4 for odd and 26.4.5 for even degrees of
freedom).

Randomness contract: every draw starts from a generator seeded with its
own seed, which is cfg.seed for the single-draw samplers; batch samplers
derive one child seed per sample index with a splitmix64 mix, as each draw
starts, so draw k of a batch is the single draw at that child seed. A batch
keeps one ``random.Random`` and seeds it again before each draw through the
seed method of its C base class, which puts it in the state a new
``random.Random(seed)`` starts in (on an int seed the Python wrapper only
adds a type check and a reset of the Gaussian cache). Identical config,
identical stream, on any platform (the Mersenne Twister sequence for an
integer seed is pinned by CPython). Each walk step and each cycle coin
takes a uniform integer below a denominator d by calling
``getrandbits(d.bit_length())`` until the value is below d, which consumes
the generator exactly as ``randrange(d)`` does; a walk step reads its
target off a cell table and bisects the row's thresholds only in cells
that straddle one. Batches check the chain and build the walk tables
once, from the chain's support alone, and a cycle-rooted batch asks the
cycle weights for each distinct cycle once. Equal draws of one batch may
be one object: each distinct configuration is built once per batch, and
configurations are immutable.

Every draw ends: one that takes more than ``DRAW_STEP_BUDGET`` walk steps
raises ``DrawBudgetError``, a ``ValueError``, and the batch returns no
draw. Every walk step counts, one that stays put included; the redraws of
a rejected value and the cycle coins do not. The count consumes no
randomness, so a batch whose draws stay within the budget keeps its stream.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from fractions import Fraction
from itertools import repeat
from typing import Iterable, Mapping, NamedTuple, Sequence

from . import oracle
from .chains import FrozenValue, InfeasibleRootSetError, TransitionMatrix, ratio
# bound under a private name, which the benchmark's tracer patches
from .chains import scaled_rows as _scaled_rows
from .forests import (
    DEFAULT_GUARD,
    CycleWeights,
    Ecrsf,
    EnumerationGuardError,
    RootedForest,
    canonical_cycle,
    check_roots,
    w_sum,
)

_MASK64 = (1 << 64) - 1

# The seed of a draw or a verify suite when the caller gives none.
DEFAULT_SEED = 1069

# Walk steps one draw may take. A forest draw takes tr G_R steps on average
# (Marchal 2000), and nothing in the input bounds that: a state left with
# probability 10^-12 holds its walk for about 10^12 steps. So any budget
# also refuses some valid chains. This one ends a runaway draw in seconds;
# a draw of the 2048-state ring (tr G_R about 1.4 million) stays within it,
# but chains whose tr G_R nears 10^7, such as that ring made to stay put
# with probability 7/8, are refused in a large share of draws (README).
DRAW_STEP_BUDGET = 10**7


class DrawBudgetError(ValueError):
    """A draw took more walk steps than ``DRAW_STEP_BUDGET``."""


def _over_budget() -> DrawBudgetError:
    return DrawBudgetError(
        f"a draw took more than {DRAW_STEP_BUDGET} walk steps, the step "
        "budget of one draw")


# bound now: the draws build through these even where bench/tracing.py swaps
# the module's ``RootedForest`` and ``Ecrsf`` names for plain functions
_trusted_forest = RootedForest._trusted
_trusted_ecrsf = Ecrsf._trusted


class PathTrace(FrozenValue):
    """A finite walk path; consecutive states should be admissible steps
    of whatever chain produced it (not checked here, the chain is not known).
    """

    __slots__ = _fields = ("states",)

    def __init__(self, states: tuple[int, ...]):
        states = tuple(int(s) for s in states)
        if not states:
            raise ValueError("empty path")
        object.__setattr__(self, "states", states)

    @property
    def steps(self) -> int:
        return len(self.states) - 1

    def is_self_avoiding(self) -> bool:
        return len(set(self.states)) == len(self.states)


class SamplerConfig(FrozenValue):
    __slots__ = _fields = ("seed", "sample_count", "alpha")

    def __init__(self, seed: int, sample_count: int = 1,
                 alpha: CycleWeights | None = None):
        if not 0 <= int(seed) < (1 << 64):
            raise ValueError("seed must fit in 64 bits")
        if sample_count < 1:
            raise ValueError("sample_count must be at least 1")
        object.__setattr__(self, "seed", int(seed))
        object.__setattr__(self, "sample_count", sample_count)
        object.__setattr__(self, "alpha", alpha)


def derive_seed(seed: int, index: int) -> int:
    """Child seed for sample #index: one splitmix64 step per index."""
    z = (seed + (index + 1) * 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _batch_seeds(cfg: SamplerConfig) -> Iterable[int]:
    """The batch's child seeds, each derived as its draw starts."""
    return map(derive_seed, repeat(cfg.seed), range(cfg.sample_count))


def loop_erase(path: PathTrace | Sequence[int]) -> PathTrace:
    """Chronological loop erasure: each revisit pops back to the first visit."""
    states = path.states if isinstance(path, PathTrace) else tuple(path)
    if not states:
        raise ValueError("empty path")
    out: list[int] = []
    pos: dict[int, int] = {}
    for s in states:
        if s in pos:
            for dropped in out[pos[s] + 1:]:
                del pos[dropped]
            del out[pos[s] + 1:]
        else:
            pos[s] = len(out)
            out.append(s)
    return PathTrace(tuple(out))


class _Stepper:
    """Exact categorical walk steps, looked up in a cell table per row.

    Row i's positive entries, scaled to integers over the row denominator
    dens[i], become cumulative thresholds ``cuts[i]`` leading to the states
    ``targets[i]``. A uniform x in [0, dens[i]) steps to the target of the
    first threshold above x. The draws take x inline, as ``randrange`` does:
    ``getrandbits(bits)`` with bits = dens[i].bit_length(), drawn again
    while it is at least dens[i].

    ``rows[i]`` is ``(bits, shift, cells)``, all that a step from i reads
    outside a straddling cell, in one tuple. The top bits of x pick a cell
    of ``cells`` (the guide table of Chen and Asau, 1974): cell c covers
    [c << shift, (c + 1) << shift). It holds the target when every x in it
    steps there, -1 when every x in it is drawn again, and -2 when it
    straddles a threshold or dens[i]; then x itself decides, drawn again at
    or above dens[i] and otherwise bisected into ``cuts[i]``. So every
    attempt takes one ``getrandbits(bits)``, as without the table. A row of
    k positive entries has 2^width cells, width = min(bits,
    bit_length(k - 1) + 4): at most 32 per entry.
    """

    def __init__(self, p: TransitionMatrix):
        nums, dens = _scaled_rows(p)
        cuts, rows = [], []
        for i, (row, row_targets, den) in enumerate(
                zip(nums, p.support(), dens)):
            acc = 0
            row_cuts = []
            for j in row_targets:
                acc += row[j]
                row_cuts.append(acc)
            # every x in [0, den) must land on some threshold
            if acc != den:
                raise ValueError(
                    f"row {i} mass {acc} does not cover its denominator {den}")
            bits = den.bit_length()
            width = min(bits, (len(row_cuts) - 1).bit_length() + 4)
            shift = bits - width
            # one sweep over the intervals [lo, cut), [den, 2^bits) last:
            # the cells below lo are filled, and the first cell below cut
            # straddles lo unless lo starts it
            row_cells: list[int] = []
            lo = 0
            for cut, target in zip([*row_cuts, 1 << bits], [*row_targets, -1]):
                count = (cut >> shift) - len(row_cells)
                if count > 0 and lo & ((1 << shift) - 1):
                    row_cells.append(-2)
                    count -= 1
                row_cells += [target] * count
                lo = cut
            cuts.append(tuple(row_cuts))
            rows.append((bits, shift, tuple(row_cells)))
        self.dens = dens
        self.cuts = tuple(cuts)
        self.targets = p.support()
        self.rows = tuple(rows)


def _site_order(n: int, site_order: Sequence[int] | None) -> tuple[int, ...]:
    if site_order is None:
        return tuple(range(n))
    order = tuple(int(s) for s in site_order)
    if sorted(order) != list(range(n)):
        raise ValueError("site order must be a permutation of the states")
    return order


def _forest_setup(p: TransitionMatrix, roots: Iterable[int],
                  site_order: Sequence[int] | None):
    """(root set, site order, stepper) shared by every draw of one batch."""
    rs = check_roots(p.n, roots)
    stranded = oracle.states_not_reaching(p, rs)
    if stranded:
        raise InfeasibleRootSetError(
            f"states {list(stranded)} cannot reach roots {sorted(rs)}: "
            "forest weight is zero")
    return rs, _site_order(p.n, site_order), _Stepper(p)


def _draw_forest(rs: frozenset[int], order: tuple[int, ...], stepper: _Stepper,
                 seeds: Iterable[int]) -> list[RootedForest]:
    """One forest per seed, each drawn after seeding one shared generator.

    Each walk keeps only the last exit from every state it visits; the
    branch from ``start`` along those pointers is the walk's loop erasure.
    A step that stays at v writes nothing, since v's last exit comes later.
    ``root_of`` is -1 until a state is settled. Equal draws share one forest.
    """
    rng = random.Random()
    # the C seed under random.Random.seed, which on an int seed only adds a
    # type check and a reset of gauss_next: the same generator state
    reseed, getrandbits = super(random.Random, rng).seed, rng.getrandbits
    rows, dens = stepper.rows, stepper.dens
    cuts, targets = stepper.cuts, stepper.targets
    n = len(order)
    unsettled = [-1] * n
    for r in rs:
        unsettled[r] = r
    built: dict[tuple[int, ...], RootedForest] = {}
    draws = []
    for seed in seeds:
        reseed(seed)
        # one item per walk step: the else clause of a walk's loop is the
        # budget running out
        steps = iter(range(DRAW_STEP_BUDGET))
        parent = [-1] * n
        root_of = unsettled.copy()
        for start in order:
            if root_of[start] >= 0:
                continue
            v = start
            bits, shift, cells = rows[v]
            for _ in steps:
                x = getrandbits(bits)
                u = cells[x >> shift]
                while u < 0:
                    if u == -2 and x < dens[v]:
                        u = targets[v][bisect_right(cuts[v], x)]
                        break
                    x = getrandbits(bits)
                    u = cells[x >> shift]
                if u == v:
                    continue
                # assigned left to right: the old v's parent, then v
                parent[v] = v = u
                if root_of[v] >= 0:
                    break
                bits, shift, cells = rows[v]
            else:
                raise _over_budget()
            r = root_of[v]
            v = start
            while root_of[v] < 0:
                root_of[v] = r
                v = parent[v]
        key = tuple(parent)
        forest = built.get(key)
        if forest is None:
            forest = built[key] = _trusted_forest(n, rs, key, tuple(root_of))
        draws.append(forest)
    return draws


def wilson_tree(p: TransitionMatrix, root: int, cfg: SamplerConfig,
                site_order: Sequence[int] | None = None) -> RootedForest:
    """One spanning tree rooted at ``root``, law Π^P(t) / w({root})."""
    return wilson_forest(p, {root}, cfg, site_order)


def wilson_forest(p: TransitionMatrix, roots: Iterable[int],
                  cfg: SamplerConfig,
                  site_order: Sequence[int] | None = None) -> RootedForest:
    """One spanning forest rooted exactly at ``roots``, law Π^P(f) / w(R).

    Stage order over starting sites is fixed for reproducibility; the
    resulting law does not depend on it. Refuses infeasible root sets up
    front (zero forest weight means the walk would never terminate).
    """
    return _draw_forest(*_forest_setup(p, roots, site_order), [cfg.seed])[0]


def sample_trees(p: TransitionMatrix, root: int, cfg: SamplerConfig,
                 site_order: Sequence[int] | None = None) -> list[RootedForest]:
    return sample_forests(p, {root}, cfg, site_order)


def sample_forests(p: TransitionMatrix, roots: Iterable[int],
                   cfg: SamplerConfig,
                   site_order: Sequence[int] | None = None) -> list[RootedForest]:
    """cfg.sample_count independent forests, one derived seed per index.

    Draw k equals ``wilson_forest`` with seed derive_seed(cfg.seed, k); the
    checks and the stepper are set up once for the whole batch.
    """
    return _draw_forest(*_forest_setup(p, roots, site_order),
                        _batch_seeds(cfg))


# ---------------------------------------------------------------------------
# cycle-keeping sampler

def _positive_cycle_states(p: TransitionMatrix, alpha: CycleWeights,
                           inside: set[int]) -> set[int]:
    """States of ``inside`` on some directed support cycle with alpha > 0."""
    good: set[int] = set()
    support = p.support()
    adj = {v: [u for u in support[v] if u in inside] for v in inside}
    for s in sorted(inside):
        # cycles whose minimal state is s: simple paths through states > s
        stack: list[tuple[int, tuple[int, ...]]] = [(s, (s,))]
        while stack:
            v, trail = stack.pop()
            for u in adj[v]:
                if u == s:
                    if alpha.weight(trail) > 0:
                        good.update(trail)
                elif u > s and u not in trail:
                    stack.append((u, trail + (u,)))
    return good


def _check_ec_feasible(p: TransitionMatrix, alpha: CycleWeights,
                       roots: frozenset[int], guard: int) -> None:
    """Refuse configurations with zero total cycle-rooted weight.

    Positivity is structural: the states that cannot reach the roots form a
    closed set, and each of them must reach a positive-weight support cycle.
    """
    stranded = set(oracle.states_not_reaching(p, roots))
    if not stranded:
        return
    if len(stranded) > guard:
        raise EnumerationGuardError(
            f"{len(stranded)} states need a cycle search, above the guard of "
            f"{guard}; pass a larger guard to override")
    # no path leaves the stranded set, so a stranded state that reaches a
    # good cycle at all reaches it inside that set
    good = _positive_cycle_states(p, alpha, stranded)
    missing = stranded.intersection(oracle.states_not_reaching(p, good))
    if missing:
        raise InfeasibleRootSetError(
            f"states {sorted(missing)} reach neither the roots {sorted(roots)} "
            "nor a positive-weight cycle: total cycle-rooted weight is zero")


def _ecrsf_setup(p: TransitionMatrix, alpha: CycleWeights | None,
                 tree_roots: Iterable[int], site_order: Sequence[int] | None,
                 guard: int):
    """(root set, site order, stepper) shared by every cycle-rooted draw."""
    if alpha is None:
        raise ValueError("kkw_sample needs cycle weights (alpha)")
    rs = check_roots(p.n, tree_roots, allow_empty=True)
    _check_ec_feasible(p, alpha, rs, guard)
    return rs, _site_order(p.n, site_order), _Stepper(p)


class _CycleCoins(dict):
    """Memo of cycle coins for one batch: cycle -> (canonical rotation,
    numerator, denominator, denominator bits) of its weight under ``alpha``.

    A cycle is stored as walked and canonically rotated, so each distinct
    cycle is weighed once however often and from wherever it closes.
    """

    def __init__(self, alpha: CycleWeights):
        super().__init__()
        self.alpha = alpha

    def __missing__(self, cycle: tuple[int, ...]
                    ) -> tuple[tuple[int, ...], int, int, int]:
        key = canonical_cycle(cycle)
        coin = self.get(key)
        if coin is None:
            bias = self.alpha.weight(key)
            den = bias.denominator
            coin = self[key] = (key, bias.numerator, den, den.bit_length())
        self[cycle] = coin
        return coin


def _draw_ecrsf(rs: frozenset[int], order: tuple[int, ...], stepper: _Stepper,
                coins: _CycleCoins, seeds: Iterable[int]) -> list[Ecrsf]:
    """One cycle-rooted forest per seed, each drawn after seeding one shared
    generator.

    ``root_of`` is -2 until a state is settled and -1 once it drains into
    a kept cycle; ``kept`` collects each kept cycle's canonical rotation. A
    step that stays at v closes a cycle of length 1 and tosses v's coin,
    read from ``loops`` with no slice of the path. Equal draws share one
    configuration.
    """
    rng = random.Random()
    # the C seed, as in _draw_forest
    reseed, getrandbits = super(random.Random, rng).seed, rng.getrandbits
    rows, dens = stepper.rows, stepper.dens
    cuts, targets = stepper.cuts, stepper.targets
    n = len(order)
    unsettled = [-2] * n
    for r in rs:
        unsettled[r] = r
    loops: list[tuple | None] = [None] * n  # each state's self-loop coin
    built: dict[tuple[int, ...], Ecrsf] = {}
    draws = []
    for seed in seeds:
        reseed(seed)
        steps = iter(range(DRAW_STEP_BUDGET))
        succ = [-1] * n
        root_of = unsettled.copy()
        kept = []
        for start in order:
            if root_of[start] > -2:
                continue
            path = [start]
            pos = {start: 0}
            v = start
            for _ in steps:
                bits, shift, cells = rows[v]
                x = getrandbits(bits)
                u = cells[x >> shift]
                while u < 0:
                    if u == -2 and x < dens[v]:
                        u = targets[v][bisect_right(cuts[v], x)]
                        break
                    x = getrandbits(bits)
                    u = cells[x >> shift]
                v = u
                r = root_of[v]
                if r > -2:
                    break
                if v in pos:
                    at = pos[v] + 1
                    if at == len(path):
                        # a self-loop: v's own coin, and nothing to pop
                        coin = loops[v]
                        if coin is None:
                            coin = loops[v] = coins[(v,)]
                    else:
                        coin = coins[tuple(path[at - 1:])]
                    cycle, num, den, k = coin
                    x = getrandbits(k)
                    while x >= den:
                        x = getrandbits(k)
                    if x < num:
                        kept.append(cycle)
                        r = -1
                        break
                    if at < len(path):
                        for dropped in path[at:]:
                            del pos[dropped]
                        del path[at:]
                    continue
                pos[v] = len(path)
                path.append(v)
            else:
                raise _over_budget()
            # settle the branch: it ends in v, a settled state or its own cycle
            for a, b in zip(path, path[1:]):
                succ[a] = b
            succ[path[-1]] = v
            for a in path:
                root_of[a] = r
        key = tuple(succ)
        ecrsf = built.get(key)
        if ecrsf is None:
            ecrsf = built[key] = _trusted_ecrsf(n, rs, key, tuple(root_of),
                                                tuple(sorted(kept)))
        draws.append(ecrsf)
    return draws


def kkw_sample(p: TransitionMatrix, alpha: CycleWeights | None,
               tree_roots: Iterable[int], cfg: SamplerConfig,
               site_order: Sequence[int] | None = None,
               guard: int = DEFAULT_GUARD) -> Ecrsf:
    """One cycle-rooted spanning forest, law Π^{P,α}(f) / w^ec(R).

    The walk runs as in the forest sampler, but each time it closes a cycle
    a coin with bias alpha(cycle) decides between keeping the whole looped
    branch as a settled component and popping the cycle. alpha ≡ 0
    reproduces the plain forest sampler's law. ``alpha`` defaults to
    cfg.alpha.
    """
    if alpha is None:
        alpha = cfg.alpha
    rs, order, stepper = _ecrsf_setup(p, alpha, tree_roots, site_order, guard)
    return _draw_ecrsf(rs, order, stepper, _CycleCoins(alpha), [cfg.seed])[0]


def sample_ecrsf(p: TransitionMatrix, tree_roots: Iterable[int],
                 cfg: SamplerConfig,
                 site_order: Sequence[int] | None = None,
                 guard: int = DEFAULT_GUARD) -> list[Ecrsf]:
    """cfg.sample_count independent draws with cfg.alpha cycle weights.

    Draw k equals ``kkw_sample`` with seed derive_seed(cfg.seed, k); the
    checks and the stepper are set up once for the whole batch, and the
    draws share one memo of cycle coins.
    """
    rs, order, stepper = _ecrsf_setup(p, cfg.alpha, tree_roots, site_order, guard)
    return _draw_ecrsf(rs, order, stepper, _CycleCoins(cfg.alpha),
                       _batch_seeds(cfg))


def lerw_path_prob(p: TransitionMatrix, roots: Iterable[int],
                   path: PathTrace | Sequence[int],
                   guard: int = DEFAULT_GUARD) -> Fraction:
    """Exact law of the loop-erased walk from path[0] stopped at the roots.

    P(branch = i_1 … i_K) = [w(R ∪ {i_1..i_{K-1}}) / w(R)] · Π p-steps.
    """
    rs = check_roots(p.n, roots)
    states = path.states if isinstance(path, PathTrace) else tuple(path)
    if len(states) < 2:
        raise ValueError("path must take at least one step")
    if len(set(states)) != len(states):
        raise ValueError("path is not self-avoiding")
    if states[0] in rs:
        raise ValueError("path must start outside the root set")
    if states[-1] not in rs:
        raise ValueError("path must end in the root set")
    for s in states[1:-1]:
        if s in rs:
            raise ValueError(f"path passes through root {s} before its end")
    w_roots = w_sum(p, rs, guard)
    if w_roots == 0:
        raise InfeasibleRootSetError(
            f"root set {sorted(rs)} has zero forest weight")
    prob = w_sum(p, rs | set(states[:-1]), guard) / w_roots
    for a, b in zip(states, states[1:]):
        prob *= p.p(a, b)
    return prob


# ---------------------------------------------------------------------------
# goodness of fit

class GofReport(NamedTuple):
    statistic: float
    dof: int
    p_value: float
    threshold: float
    sample_size: int
    cells: int
    impossible: tuple        # keys observed where the exact law puts mass 0
    passed: bool

    def to_json(self) -> dict:
        return {
            "statistic": self.statistic,
            "dof": self.dof,
            "p_value": self.p_value,
            "threshold": self.threshold,
            "sample_size": self.sample_size,
            "cells": self.cells,
            "impossible_cells": len(self.impossible),
            "passed": self.passed,
        }


def _chi2_sf(x: float, dof: int) -> float:
    """P(X > x) for X chi-square with an integer number ``dof`` >= 1 of
    degrees of freedom.

    With h = x/2 the tail is erfc(√h) + Σ_{i=1/2,3/2,..}^{dof/2-1} T_i for
    odd dof (A&S 26.4.4) and Σ_{i=0,1,..}^{dof/2-1} T_i for even dof (A&S
    26.4.5), where T_i = h^i e^{-h} / Γ(i+1). Each T_i is formed in log
    space: factoring out e^{-h} would underflow to 0 once h > 745.
    """
    if x <= 0:
        return 1.0
    h = x / 2
    log_h = math.log(h)
    odd = dof % 2
    head = math.erfc(math.sqrt(h)) if odd else 0.0
    tail = math.fsum(
        math.exp(i * log_h - h - math.lgamma(i + 1))
        for i in (k + odd / 2 for k in range(dof // 2)))
    return min(1.0, head + tail)


def gof_test(observed: Mapping, expected: Mapping,
             threshold: float = 1e-3) -> GofReport:
    """Pearson chi-square of sampled counts against an exact law.

    Zero-probability cells are excluded from the statistic but any
    observation there is a certain bug and fails the report outright.
    """
    total = sum(observed.values())
    if total <= 0:
        raise ValueError("observed counts are empty")
    # the mass is summed per denominator: a law's probabilities share a few
    mass: dict[int, int] = {}
    statistic = 0.0
    live = 0
    for key, prob in expected.items():
        if isinstance(prob, float):
            prob = Fraction(str(prob))
        elif not isinstance(prob, Fraction):
            prob = Fraction(prob)
        num, den = prob.numerator, prob.denominator
        mass[den] = mass.get(den, 0) + num
        if num > 0:
            live += 1
            want = num / den * total
            statistic += (observed.get(key, 0) - want) ** 2 / want
    if abs(sum(ratio(num, den) for den, num in mass.items()) - 1) \
            > ratio(1, 10**9):
        raise ValueError("expected probabilities must sum to 1")
    impossible = tuple(
        key for key, count in observed.items()
        if count and not expected.get(key))
    dof = live - 1
    p_value = 1.0 if dof == 0 else _chi2_sf(statistic, dof)
    passed = not impossible and p_value > threshold
    return GofReport(statistic=statistic, dof=dof, p_value=p_value,
                     threshold=threshold, sample_size=total, cells=live,
                     impossible=impossible, passed=passed)
