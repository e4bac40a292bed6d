"""Randomized cross-validation suites behind the ``verify`` command.

Each suite generates seeded random rational chains, evaluates the same
quantity through the forest-sum route and the linear-algebra route, and
requires exact equality (or a chi-square pass for the samplers). A suite
yields one ``(chain, detail)`` pair per check, with ``detail`` None when the
check holds; ``run_suite`` counts and times the checks, stops at the first
failure and serializes the offending chain so it can be replayed. Chains are
generated in nondecreasing size, so the first failure is a smallest-size
witness.

Functions here call into the sibling modules through their namespaces
(``forests.w_sum`` and so on) so a test harness can inject faults by
patching a single attribute.
"""

from __future__ import annotations

import itertools
import json
import random
import time
from collections import Counter
from fractions import Fraction
from typing import Callable, Iterable, Iterator, NamedTuple

from . import chains, forests, formulas, oracle, wilson
from .chains import TransitionMatrix, format_rational, ratio, uniform_chain

DEFAULT_SEED = wilson.DEFAULT_SEED

#: A suite's checks in order: the chain each one ran on, and None when it
#: holds or what went wrong when it fails.
_Checks = Iterator[tuple[TransitionMatrix, str | None]]


class SuiteResult(NamedTuple):
    name: str
    seed: int
    trials: int
    checks: int
    elapsed: float
    failures: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {
            "suite": self.name,
            "seed": self.seed,
            "trials": self.trials,
            "checks": self.checks,
            "elapsed_seconds": round(self.elapsed, 3),
            "passed": self.passed,
            "failures": list(self.failures),
        }


# ---------------------------------------------------------------------------
# random instances

def random_chain(rng: random.Random, n: int) -> TransitionMatrix:
    """Row weights are integers in 1..9, zeroed with probability 1/3 per cell
    (at least one survivor per row), then normalized. Denominators stay small
    and sparsity gets exercised.
    """
    rows = []
    for _ in range(n):
        weights = [rng.randint(1, 9) for _ in range(n)]
        kept = [0 if rng.randrange(3) == 0 else w for w in weights]
        if not any(kept):
            kept[rng.randrange(n)] = rng.randint(1, 9)
        total = sum(kept)
        rows.append(tuple(ratio(w, total) for w in kept))
    return TransitionMatrix(tuple(rows))


def random_irreducible_chain(rng: random.Random, n: int) -> TransitionMatrix:
    while True:
        p = random_chain(rng, n)
        if oracle.irreducibility_certificate(p) is None:
            return p


def random_symmetric_laplacian(rng: random.Random, n: int) -> chains.Matrix:
    """Laplacian of an undirected graph with integer weights (possibly
    disconnected; the counting identities must hold there too).
    """
    c = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            w = 0 if rng.randrange(3) == 0 else rng.randint(1, 9)
            c[i][j] = c[j][i] = Fraction(w)
    return tuple(
        tuple(sum(c[i]) if i == j else -c[i][j] for j in range(n))
        for i in range(n))


def corpus_chains(trials: int, max_n: int, seed: int,
                  irreducible: bool = False,
                  min_n: int = 2) -> list[TransitionMatrix]:
    """Seeded corpus with sizes spread evenly and nondecreasing."""
    if max_n < min_n:
        raise ValueError("max_n below min_n")
    rng = random.Random(seed)
    span = max_n - min_n + 1
    out = []
    for k in range(trials):
        n = min_n + (span * k) // trials
        out.append(random_irreducible_chain(rng, n) if irreducible
                   else random_chain(rng, n))
    return out


# ---------------------------------------------------------------------------
# identity suites

def _kirchhoff(trials: int, max_n: int, seed: int, guard: int) -> _Checks:
    """det L(R) == w(R) for every nonempty root set of every corpus chain, and
    det(xI + L) == sum_r Sigma^(r) x^r at x = 0..n (Chebotarev and Agaev)."""
    for p in corpus_chains(trials, max_n, seed):
        lap = chains.laplacian(p)
        by_r = []
        # each r's w(R) right after Sigma^(r) has taken them: at n = 9 the
        # weights of all 511 root sets outnumber the ones kept
        for r in range(1, p.n + 1):
            by_r.append(forests.sigma_r(p, r, guard))
            for roots in itertools.combinations(range(p.n), r):
                keep = [v for v in range(p.n) if v not in roots]
                minor = [[lap[a][b] for b in keep] for a in keep]
                det = oracle.exact_det(minor)
                w = forests.w_sum(p, roots, guard)
                yield p, None if det == w else (
                    f"R={list(roots)}: det L(R) = {format_rational(det)}"
                    f" but w(R) = {format_rational(w)}")
        for x in range(p.n + 1):
            shifted = [[v + (x if a == b else 0) for b, v in enumerate(row)]
                       for a, row in enumerate(lap)]
            det = oracle.exact_det(shifted)
            series = sum(s * x ** r for r, s in enumerate(by_r, 1))
            yield p, None if det == series else (
                f"x={x}: det(xI + L) = {format_rational(det)} but "
                f"sum_r Sigma^(r) x^r = {format_rational(series)}")


def _green_mismatch(p: TransitionMatrix, roots: tuple[int, ...],
                    guard: int) -> str | None:
    """The forest-route absorption bundle of a feasible R against the exact
    solves: None when all three agree, else the first that differs."""
    ab = formulas.absorption(p, roots, guard)
    g_solve = oracle.green_matrix_solve(p, roots)
    h_solve = oracle.hitting_solve(p, roots)
    if ab.green != g_solve:
        return f"R={list(roots)}: Green mismatch"
    if ab.hit != h_solve:
        return f"R={list(roots)}: hitting mismatch"
    if ab.mean_hit != tuple(sum(row, Fraction(0)) for row in g_solve):
        return f"R={list(roots)}: mean hitting mismatch"
    return None


def _green(trials: int, max_n: int, seed: int, guard: int) -> _Checks:
    """Green matrix, hitting law and mean hitting times: forest ratios
    against exact solves, every proper root set, same corpus as kirchhoff.
    """
    for p in corpus_chains(trials, max_n, seed):
        for r in range(1, p.n):
            for roots in itertools.combinations(range(p.n), r):
                if forests.w_sum(p, roots, guard) != 0:
                    yield p, _green_mismatch(p, roots, guard)
                    continue
                try:
                    oracle.green_matrix_solve(p, roots)
                except chains.InfeasibleRootSetError:
                    yield p, None
                else:
                    yield p, f"R={list(roots)}: w(R)=0 but L(R) is invertible"

    # the fixed uniform-chain case: interior Green entries 3/2 and 1/2
    u6 = uniform_chain(6)
    g = formulas.absorption(u6, {0, 1}, guard).green
    want = tuple(
        tuple(ratio(3, 2) if a == b else ratio(1, 2) for b in range(4))
        for a in range(4))
    agree = g == want and g == oracle.green_matrix_solve(u6, {0, 1})
    yield u6, None if agree else "uniform 6-state Green matrix mismatch"


def _kemeny_mismatch(p: TransitionMatrix, guard: int) -> str | None:
    """The forest-route stationary bundle against the exact solves: None when
    it agrees and m_ij / m_jj sums to K from every start, else the first
    difference."""
    analysis = formulas.analyze(p, guard)
    pi_solve = oracle.stationary_solve(p)
    m_solve = oracle.mfpt_solve(p)
    trace = oracle.kemeny_trace(p)
    if analysis.pi != pi_solve:
        return "stationary mismatch"
    if analysis.mfpt != m_solve:
        return "MFPT matrix mismatch"
    if analysis.kemeny != trace:
        return (f"kemeny {format_rational(analysis.kemeny)} != trace "
                f"{format_rational(trace)}")
    m = analysis.mfpt
    for i in range(p.n):
        rowsum = sum((m[i][j] / m[j][j] for j in range(p.n)), Fraction(0))
        if rowsum != analysis.kemeny:
            return f"start-state dependence at i={i}"
    return None


def _kemeny(trials: int, max_n: int, seed: int, guard: int) -> _Checks:
    """Stationary law, MFPT matrix and the Kemeny triple point, exact,
    on irreducible corpus chains plus the uniform family.
    """
    for p in corpus_chains(trials, max_n, seed, irreducible=True):
        yield p, _kemeny_mismatch(p, guard)
    for n in range(2, max_n + 1):
        u = uniform_chain(n)
        yield u, None if formulas.kemeny(u, guard) == n else (
            f"uniform chain kemeny != {n}")


def _chung(trials: int, max_n: int, seed: int, guard: int) -> _Checks:
    """Occupation-time identity against the single-root Green formula,
    all valid (i, j, k) triples.
    """
    for p in corpus_chains(trials, max_n, seed, irreducible=True):
        for k in range(p.n):
            for i in range(p.n):
                for j in range(p.n):
                    if i == k or j == k:
                        continue
                    lhs = formulas.chung_occupation(p, i, j, k, guard)
                    rhs = formulas.green_occupation(p, {k}, i, j, guard)
                    yield p, None if lhs == rhs else (
                        f"(i,j,k)=({i},{j},{k}): "
                        f"{format_rational(lhs)} != {format_rational(rhs)}")


def _treealg(trials: int, max_n: int, seed: int, guard: int) -> _Checks:
    """The two-root weight identities, Sigma_ij method agreement, and the
    modified-chain route to MFPT, exact on irreducible chains.
    """
    rng = random.Random(seed + 1)
    for p in corpus_chains(trials, max_n, seed, irreducible=True):
        sums = forests.sigma_sums(p, guard)
        s1 = sums.sigma1
        pair: dict[tuple[int, int], Fraction] = {}
        for i, j in itertools.permutations(range(p.n), 2):
            by_tree = forests.sigma_pair(p, i, j, "tree-deletion", guard)
            by_forest = forests.sigma_pair(p, i, j, "two-forest", guard)
            yield p, None if by_tree == by_forest else (
                f"sigma_pair methods disagree at ({i},{j})")
            pair[(i, j)] = by_tree
        for i, k in itertools.permutations(range(p.n), 2):
            lhs = forests.w_target_sum(p, {k, i}, i, i, guard) * s1
            rhs = pair[(i, k)] * sums.sigma(i) + pair[(k, i)] * sums.sigma(k)
            yield p, None if lhs == rhs else (
                f"two-root identity fails at (i,k)=({i},{k})")
        for i, j, k in itertools.permutations(range(p.n), 3):
            lhs = (forests.w_target_sum(p, {k, j}, i, j, guard) * s1
                   + pair[(i, j)] * sums.sigma(k))
            rhs = (pair[(i, k)] * sums.sigma(j)
                   + pair[(k, j)] * sums.sigma(k))
            yield p, None if lhs == rhs else (
                f"three-index identity fails at (i,j,k)=({i},{j},{k})")
        pairs = list(itertools.permutations(range(p.n), 2))
        if p.n > 3:
            pairs = [pairs[rng.randrange(len(pairs))] for _ in range(4)]
        for i, j in pairs:
            direct = formulas.mfpt(p, i, j, guard)
            modified = formulas.mfpt_via_modified_chain(p, i, j, guard)
            yield p, None if direct == modified else (
                f"modified-chain MFPT differs at ({i},{j})")


# ---------------------------------------------------------------------------
# sampler suite

# Not called here: the benchmark's tracer (bench/tracing.py) still resolves
# this name to span the law builder, so it stays as an alias.
_tree_law = forests.exact_law

# random chains the sampler suite tests, n = 2..max_n in turn; the suite
# reports this count as its trials
_WILSON_CHAINS = 10
# chi-square p-value below which a sampler's law is refused
_GOF_THRESHOLD = 1e-3


def _gof_failure(what: str, report: wilson.GofReport) -> str | None:
    """None when a sampler's chi-square report passes, else what failed."""
    return None if report.passed else (
        f"{what}: chi2 p-value {report.p_value:.2e} "
        f"(stat {report.statistic:.1f}, dof {report.dof}, "
        f"{len(report.impossible)} impossible cells)")


def _self_avoiding_paths(p: TransitionMatrix, roots: frozenset[int],
                         i: int) -> list[tuple[int, ...]]:
    support = p.support()
    done: list[tuple[int, ...]] = []
    stack = [(i, (i,))]
    while stack:
        v, trail = stack.pop()
        for u in support[v]:
            if u in roots:
                done.append(trail + (u,))
            elif u not in trail:
                stack.append((u, trail + (u,)))
    return done


def _wilson(samples: int, max_n: int, seed: int, guard: int) -> _Checks:
    """Sampler laws against enumeration: chi-square for the tree, forest,
    and cycle-keeping samplers, exact total mass for loop-erased paths,
    plus reproducibility and site-order independence.
    """
    rng = random.Random(seed)

    def chi2_failure(p: TransitionMatrix, roots: frozenset[int], what: str,
                     site_order=None) -> str | None:
        cfg = wilson.SamplerConfig(seed=rng.randrange(1 << 64),
                                   sample_count=samples)
        law = forests.exact_law(p, roots, guard=guard)
        got = Counter(wilson.sample_forests(p, roots, cfg, site_order))
        return _gof_failure(what, wilson.gof_test(got, law, _GOF_THRESHOLD))

    # reproducibility is exact, not statistical
    p0 = uniform_chain(3)
    cfg0 = wilson.SamplerConfig(seed=rng.randrange(1 << 64), sample_count=64)
    same = (wilson.sample_forests(p0, {0}, cfg0)
            == wilson.sample_forests(p0, {0}, cfg0))
    yield p0, None if same else "identical configs produced different streams"

    u4 = uniform_chain(4)
    yield u4, chi2_failure(u4, frozenset({0}), "uniform 4-state tree sampler")
    yield u4, chi2_failure(u4, frozenset({0}), "reversed site order",
                           site_order=tuple(reversed(range(4))))

    for t in range(_WILSON_CHAINS):
        n = 2 + t % (max_n - 1)
        p = random_irreducible_chain(rng, n)
        root = rng.randrange(n)
        yield p, chi2_failure(p, frozenset({root}),
                              f"random chain #{t} root {root}")

    # cycle-keeping sampler, alpha 0: must match the plain forest law
    p_kkw = random_irreducible_chain(rng, 3)
    cfg = wilson.SamplerConfig(rng.randrange(1 << 64), samples,
                               forests.CycleWeights.constant(0))
    law = forests.exact_law(p_kkw, {0}, guard=guard)
    draws = wilson.sample_ecrsf(p_kkw, {0}, cfg)
    # building each draw as a RootedForest checks that it has no cycle
    as_forests = Counter(forests.RootedForest(e.n, e.tree_roots, e.successor)
                         for e in draws)
    yield p_kkw, _gof_failure("alpha=0 sampler deviates from forest law",
                              wilson.gof_test(as_forests, law, _GOF_THRESHOLD))

    # exact unit mass of the loop-erased path law
    for t in range(5):
        n = 2 + t % 4
        p = random_irreducible_chain(rng, n)
        roots = frozenset({rng.randrange(n)})
        outside = [v for v in range(n) if v not in roots]
        i = outside[rng.randrange(len(outside))]
        total = sum(
            (wilson.lerw_path_prob(p, roots, path, guard)
             for path in _self_avoiding_paths(p, roots, i)),
            Fraction(0))
        yield p, None if total == 1 else (
            f"loop-erased path law sums to {format_rational(total)} "
            f"from {i} into {sorted(roots)}")


# ---------------------------------------------------------------------------
# driver

# suite name -> (its checks, default trials, default max_n); the wilson
# suite's trials are the samples of each chi-square test
_SUITES: dict[str, tuple[Callable[[int, int, int, int], _Checks], int, int]] = {
    "kirchhoff": (_kirchhoff, 200, 6),
    "green": (_green, 200, 6),
    "kemeny": (_kemeny, 200, 6),
    "chung": (_chung, 100, 5),
    "treealg": (_treealg, 100, 5),
    "wilson": (_wilson, 50_000, 4),
}
SUITE_NAMES = tuple(_SUITES)


def run_suite(name: str, trials: int | None = None, max_n: int | None = None,
              seed: int | None = None,
              guard: int = forests.DEFAULT_GUARD) -> SuiteResult:
    """One suite, stopped at its first failing check; trials and max_n left
    unset (or 0) take the suite's defaults."""
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; "
                         f"choose from {', '.join(SUITE_NAMES)}")
    checks_of, default_trials, default_max_n = _SUITES[name]
    trials = trials or default_trials
    max_n = max_n or default_max_n
    if max_n < 2:
        raise ValueError("max_n below min_n")
    seed = DEFAULT_SEED if seed is None else seed
    start = time.perf_counter()
    checks = 0
    failures: tuple[str, ...] = ()
    for p, detail in checks_of(trials, max_n, seed, guard):
        checks += 1
        if detail is not None:
            failures = (json.dumps(
                {"detail": detail, "chain": chains.chain_to_json(p)}),)
            break
    reported = _WILSON_CHAINS if name == "wilson" else trials
    return SuiteResult(name, seed, reported, checks,
                       time.perf_counter() - start, failures)


def run_suites(names: Iterable[str], trials: int | None = None,
               max_n: int | None = None, seed: int | None = None,
               guard: int = forests.DEFAULT_GUARD) -> list[SuiteResult]:
    return [run_suite(name, trials, max_n, seed, guard) for name in names]
