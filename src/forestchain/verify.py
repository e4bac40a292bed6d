"""Randomized cross-validation suites behind the ``verify`` command.

Each suite generates seeded random rational chains, evaluates the same
quantity through the forest-sum route and the linear-algebra route, and
requires exact equality (or a chi-square pass for the samplers). A failure
serializes the offending chain so it can be replayed; chains are generated
in nondecreasing size, so the first failure is a smallest-size witness.

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
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable

from . import chains, forests, formulas, oracle, wilson
from .chains import TransitionMatrix, format_rational, uniform_chain

DEFAULT_SEED = 1069


@dataclass(frozen=True)
class SuiteResult:
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
        rows.append(tuple(Fraction(w, total) for w in kept))
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


def _fail(failures: list[str], p: TransitionMatrix | None, detail: str) -> None:
    doc: dict = {"detail": detail}
    if p is not None:
        doc["chain"] = chains.chain_to_json(p)
    failures.append(json.dumps(doc))


def _result(name: str, seed: int, trials: int, checks: int, start: float,
            failures: list[str]) -> SuiteResult:
    return SuiteResult(name, seed, trials, checks,
                       time.perf_counter() - start, tuple(failures))


# ---------------------------------------------------------------------------
# identity suites

def suite_kirchhoff(trials: int = 200, max_n: int = 6,
                    seed: int = DEFAULT_SEED,
                    guard: int = forests.DEFAULT_GUARD) -> SuiteResult:
    """det L(R) == w(R) for every nonempty root set of every corpus chain."""
    start = time.perf_counter()
    failures: list[str] = []
    checks = 0
    for p in corpus_chains(trials, max_n, seed):
        lap = chains.laplacian(p)
        for r in range(1, p.n + 1):
            for roots in itertools.combinations(range(p.n), r):
                keep = [v for v in range(p.n) if v not in roots]
                minor = [[lap[a][b] for b in keep] for a in keep]
                det = oracle.exact_det(minor)
                w = forests.w_sum(p, roots, guard)
                checks += 1
                if det != w:
                    _fail(failures, p,
                          f"R={list(roots)}: det L(R) = {format_rational(det)}"
                          f" but w(R) = {format_rational(w)}")
                    return _result("kirchhoff", seed, trials, checks, start,
                                   failures)
    return _result("kirchhoff", seed, trials, checks, start, failures)


def suite_green(trials: int = 200, max_n: int = 6, seed: int = DEFAULT_SEED,
                guard: int = forests.DEFAULT_GUARD) -> SuiteResult:
    """Green matrix, hitting law and mean hitting times: forest ratios
    against exact solves, every proper root set, same corpus as kirchhoff.
    """
    start = time.perf_counter()
    failures: list[str] = []
    checks = 0

    def check_chain(p: TransitionMatrix) -> bool:
        nonlocal checks
        for r in range(1, p.n):
            for roots in itertools.combinations(range(p.n), r):
                w = forests.w_sum(p, roots, guard)
                if w == 0:
                    try:
                        oracle.green_matrix_solve(p, roots)
                    except chains.InfeasibleRootSetError:
                        checks += 1
                        continue
                    _fail(failures, p,
                          f"R={list(roots)}: w(R)=0 but L(R) is invertible")
                    return False
                ab = formulas.absorption(p, roots, guard)
                g_solve = oracle.green_matrix_solve(p, roots)
                h_solve = oracle.hitting_solve(p, roots)
                checks += 1
                if ab.green != g_solve:
                    _fail(failures, p, f"R={list(roots)}: Green mismatch")
                    return False
                if ab.hit != h_solve:
                    _fail(failures, p, f"R={list(roots)}: hitting mismatch")
                    return False
                mean_solve = tuple(sum(row, Fraction(0)) for row in g_solve)
                if ab.mean_hit != mean_solve:
                    _fail(failures, p,
                          f"R={list(roots)}: mean hitting mismatch")
                    return False
        return True

    for p in corpus_chains(trials, max_n, seed):
        if not check_chain(p):
            return _result("green", seed, trials, checks, start, failures)

    # the fixed uniform-chain case: interior Green entries 3/2 and 1/2
    u6 = uniform_chain(6)
    g = formulas.absorption(u6, {0, 1}, guard).green
    want = tuple(
        tuple(Fraction(3, 2) if a == b else Fraction(1, 2) for b in range(4))
        for a in range(4))
    checks += 1
    if g != want or g != oracle.green_matrix_solve(u6, {0, 1}):
        _fail(failures, u6, "uniform 6-state Green matrix mismatch")
    return _result("green", seed, trials, checks, start, failures)


def suite_kemeny(trials: int = 200, max_n: int = 6, seed: int = DEFAULT_SEED,
                 guard: int = forests.DEFAULT_GUARD) -> SuiteResult:
    """Stationary law, MFPT matrix and the Kemeny triple point, exact,
    on irreducible corpus chains plus the uniform family.
    """
    start = time.perf_counter()
    failures: list[str] = []
    checks = 0

    def check_chain(p: TransitionMatrix) -> bool:
        nonlocal checks
        analysis = formulas.analyze(p, guard)
        pi_solve = oracle.stationary_solve(p)
        m_solve = oracle.mfpt_solve(p)
        trace = oracle.kemeny_trace(p)
        checks += 1
        if analysis.pi != pi_solve:
            _fail(failures, p, "stationary mismatch")
            return False
        if analysis.mfpt != m_solve:
            _fail(failures, p, "MFPT matrix mismatch")
            return False
        if analysis.kemeny != trace:
            _fail(failures, p,
                  f"kemeny {format_rational(analysis.kemeny)} != trace "
                  f"{format_rational(trace)}")
            return False
        m = analysis.mfpt
        for i in range(p.n):
            rowsum = sum((m[i][j] / m[j][j] for j in range(p.n)), Fraction(0))
            if rowsum != analysis.kemeny:
                _fail(failures, p, f"start-state dependence at i={i}")
                return False
        return True

    for p in corpus_chains(trials, max_n, seed, irreducible=True):
        if not check_chain(p):
            return _result("kemeny", seed, trials, checks, start, failures)
    for n in range(2, max_n + 1):
        checks += 1
        if formulas.kemeny(uniform_chain(n), guard) != n:
            _fail(failures, uniform_chain(n), f"uniform chain kemeny != {n}")
            break
    return _result("kemeny", seed, trials, checks, start, failures)


def suite_chung(trials: int = 100, max_n: int = 5, seed: int = DEFAULT_SEED,
                guard: int = forests.DEFAULT_GUARD) -> SuiteResult:
    """Occupation-time identity against the single-root Green formula,
    all valid (i, j, k) triples.
    """
    start = time.perf_counter()
    failures: list[str] = []
    checks = 0
    for p in corpus_chains(trials, max_n, seed, irreducible=True):
        for k in range(p.n):
            for i in range(p.n):
                for j in range(p.n):
                    if i == k or j == k:
                        continue
                    lhs = formulas.chung_occupation(p, i, j, k, guard)
                    rhs = formulas.green_occupation(p, {k}, i, j, guard)
                    checks += 1
                    if lhs != rhs:
                        _fail(failures, p,
                              f"(i,j,k)=({i},{j},{k}): "
                              f"{format_rational(lhs)} != "
                              f"{format_rational(rhs)}")
                        return _result("chung", seed, trials, checks, start,
                                       failures)
    return _result("chung", seed, trials, checks, start, failures)


def suite_treealg(trials: int = 100, max_n: int = 5, seed: int = DEFAULT_SEED,
                  guard: int = forests.DEFAULT_GUARD) -> SuiteResult:
    """The two-root weight identities, Sigma_ij method agreement, and the
    modified-chain route to MFPT, exact on irreducible chains.
    """
    start = time.perf_counter()
    failures: list[str] = []
    checks = 0

    def check_chain(p: TransitionMatrix, rng: random.Random) -> bool:
        nonlocal checks
        sums = forests.sigma_sums(p, guard)
        s1 = sums.sigma1
        pair: dict[tuple[int, int], Fraction] = {}
        for i in range(p.n):
            for j in range(p.n):
                if i == j:
                    continue
                by_tree = forests.sigma_pair(p, i, j, "tree-deletion", guard)
                by_forest = forests.sigma_pair(p, i, j, "two-forest", guard)
                checks += 1
                if by_tree != by_forest:
                    _fail(failures, p,
                          f"sigma_pair methods disagree at ({i},{j})")
                    return False
                pair[(i, j)] = by_tree
        for i in range(p.n):
            for k in range(p.n):
                if i == k:
                    continue
                lhs = forests.w_target_sum(p, {k, i}, i, i, guard) * s1
                rhs = (pair[(i, k)] * sums.sigma(i)
                       + pair[(k, i)] * sums.sigma(k))
                checks += 1
                if lhs != rhs:
                    _fail(failures, p, f"two-root identity fails at (i,k)=({i},{k})")
                    return False
        for i, j, k in itertools.permutations(range(p.n), 3):
            lhs = (forests.w_target_sum(p, {k, j}, i, j, guard) * s1
                   + pair[(i, j)] * sums.sigma(k))
            rhs = (pair[(i, k)] * sums.sigma(j)
                   + pair[(k, j)] * sums.sigma(k))
            checks += 1
            if lhs != rhs:
                _fail(failures, p,
                      f"three-index identity fails at (i,j,k)=({i},{j},{k})")
                return False
        pairs = list(itertools.permutations(range(p.n), 2))
        if p.n > 3:
            pairs = [pairs[rng.randrange(len(pairs))] for _ in range(4)]
        for i, j in pairs:
            direct = formulas.mfpt(p, i, j, guard)
            modified = formulas.mfpt_via_modified_chain(p, i, j, guard)
            checks += 1
            if direct != modified:
                _fail(failures, p,
                      f"modified-chain MFPT differs at ({i},{j})")
                return False
        return True

    rng = random.Random(seed + 1)
    for p in corpus_chains(trials, max_n, seed, irreducible=True):
        if not check_chain(p, rng):
            break
    return _result("treealg", seed, trials, checks, start, failures)


# ---------------------------------------------------------------------------
# sampler suite

# Not called here: the benchmark's tracer (bench/tracing.py) still resolves
# this name to span the law builder, so it stays as an alias.
_tree_law = forests.exact_law


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


def suite_wilson(samples: int = 50_000, chain_count: int = 10,
                 max_n: int = 4, seed: int = DEFAULT_SEED,
                 threshold: float = 1e-3,
                 guard: int = forests.DEFAULT_GUARD) -> SuiteResult:
    """Sampler laws against enumeration: chi-square for the tree, forest,
    and cycle-keeping samplers, exact total mass for loop-erased paths,
    plus reproducibility and site-order independence.
    """
    start = time.perf_counter()
    failures: list[str] = []
    checks = 0
    rng = random.Random(seed)

    def chi2_case(p: TransitionMatrix, roots: frozenset[int], detail: str,
                  site_order=None, count: int = samples) -> None:
        nonlocal checks
        cfg = wilson.SamplerConfig(seed=rng.randrange(1 << 64),
                                   sample_count=count)
        law = forests.exact_law(p, roots, guard=guard)
        got = Counter(wilson.sample_forests(p, roots, cfg, site_order))
        report = wilson.gof_test(got, law, threshold)
        checks += 1
        if not report.passed:
            _fail(failures, p,
                  f"{detail}: chi2 p-value {report.p_value:.2e} "
                  f"(stat {report.statistic:.1f}, dof {report.dof}, "
                  f"{len(report.impossible)} impossible cells)")

    # reproducibility is exact, not statistical
    p0 = uniform_chain(3)
    cfg0 = wilson.SamplerConfig(seed=rng.randrange(1 << 64), sample_count=64)
    checks += 1
    if (wilson.sample_forests(p0, {0}, cfg0)
            != wilson.sample_forests(p0, {0}, cfg0)):
        _fail(failures, p0, "identical configs produced different streams")

    u4 = uniform_chain(4)
    chi2_case(u4, frozenset({0}), "uniform 4-state tree sampler")
    chi2_case(u4, frozenset({0}), "reversed site order",
              site_order=tuple(reversed(range(4))))

    for t in range(chain_count):
        n = 2 + t % (max_n - 1)
        p = random_irreducible_chain(rng, n)
        root = rng.randrange(n)
        chi2_case(p, frozenset({root}), f"random chain #{t} root {root}")
        if failures:
            return _result("wilson", seed, chain_count, checks, start,
                           failures)

    # cycle-keeping sampler, alpha 0: must match the plain forest law
    p_kkw = random_irreducible_chain(rng, 3)
    cfg = wilson.SamplerConfig(seed=rng.randrange(1 << 64),
                               sample_count=samples)
    law = forests.exact_law(p_kkw, {0}, guard=guard)
    draws = wilson.sample_ecrsf(
        p_kkw, {0}, wilson.SamplerConfig(cfg.seed, cfg.sample_count,
                                         forests.CycleWeights.constant(0)))
    # building each draw as a RootedForest checks that it has no cycle
    as_forests = Counter(forests.RootedForest(e.n, e.tree_roots, e.successor)
                         for e in draws)
    report = wilson.gof_test(as_forests, law, threshold)
    checks += 1
    if not report.passed:
        _fail(failures, p_kkw,
              f"alpha=0 sampler deviates from forest law "
              f"(p-value {report.p_value:.2e})")

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
        checks += 1
        if total != 1:
            _fail(failures, p,
                  f"loop-erased path law sums to {format_rational(total)} "
                  f"from {i} into {sorted(roots)}")
            break
    return _result("wilson", seed, chain_count, checks, start, failures)


# ---------------------------------------------------------------------------
# driver

# suite name -> (suite function, the keyword that --trials sets)
_SUITES: dict[str, tuple[Callable[..., SuiteResult], str]] = {
    "kirchhoff": (suite_kirchhoff, "trials"),
    "green": (suite_green, "trials"),
    "kemeny": (suite_kemeny, "trials"),
    "chung": (suite_chung, "trials"),
    "treealg": (suite_treealg, "trials"),
    "wilson": (suite_wilson, "samples"),
}
SUITE_NAMES = tuple(_SUITES)


def run_suite(name: str, trials: int | None = None, max_n: int | None = None,
              seed: int | None = None,
              guard: int = forests.DEFAULT_GUARD) -> SuiteResult:
    """One suite; trials and max_n left unset (or 0) take the suite's defaults."""
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; "
                         f"choose from {', '.join(SUITE_NAMES)}")
    fn, count_keyword = _SUITES[name]
    given = {k: v for k, v in ((count_keyword, trials), ("max_n", max_n)) if v}
    return fn(seed=DEFAULT_SEED if seed is None else seed, guard=guard, **given)


def run_suites(names: Iterable[str], trials: int | None = None,
               max_n: int | None = None, seed: int | None = None,
               guard: int = forests.DEFAULT_GUARD) -> list[SuiteResult]:
    return [run_suite(name, trials, max_n, seed, guard) for name in names]
