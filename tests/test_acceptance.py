"""Acceptance sweep: one test per shipped guarantee, each printing a verdict.

Every check here states a tolerance (exact equality unless noted) and runs
against seeded corpora so failures replay. Budgets are wall-clock seconds.
"""
import random
import time
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations

import pytest

from forestchain import (
    InfeasibleRootSetError,
    PathTrace,
    PeriodicChainError,
    ReducibleChainError,
    SamplerConfig,
    absorption,
    analyze,
    cayley_count,
    cesaro_forest_matrix,
    cli,
    enumerate_forests,
    forests,
    green_occupation,
    kemeny,
    laplacian,
    lerw_path_prob,
    mfpt,
    oracle,
    sample_ecrsf,
    sample_trees,
    uniform_chain,
    verify,
    wilson,
)
from forestchain.forests import CycleWeights

from conftest import chain

F = Fraction
SEED = verify.DEFAULT_SEED


@pytest.fixture(scope="module")
def corpus():
    # 200 possibly-reducible rational chains, sizes 2..6, fixed seed
    return verify.corpus_chains(200, 6, seed=SEED)


@pytest.fixture(scope="module")
def irreducible_corpus():
    return verify.corpus_chains(200, 6, seed=SEED, irreducible=True)


@pytest.fixture
def announce(capsys):
    @contextmanager
    def report(num, label):
        status = "FAIL"
        try:
            yield
            status = "PASS"
        finally:
            with capsys.disabled():
                print(f"criterion {num:2d} ({label}): {status}")
    return report


def fixture_a():
    return chain([[0, F(1, 2), F(1, 2)], [F(1, 3), 0, F(2, 3)], [1, 0, 0]])


def test_criterion_01_determinant_equals_forest_sum(corpus, announce):
    with announce(1, "det L(R) == w(R), all root sets"):
        start = time.perf_counter()
        for p in corpus:
            lap = laplacian(p)
            for k in range(1, p.n + 1):
                for roots in combinations(range(p.n), k):
                    keep = [v for v in range(p.n) if v not in roots]
                    minor = [[lap[i][j] for j in keep] for i in keep]
                    assert oracle.exact_det(minor) == forests.w_sum(p, set(roots))
        assert time.perf_counter() - start < 60


def test_criterion_02_green_and_hitting_both_routes(corpus, announce):
    with announce(2, "green/hitting: trees == linear solve"):
        for p in corpus:
            for k in range(1, p.n):
                for roots in combinations(range(p.n), k):
                    rs = set(roots)
                    try:
                        g = oracle.green_matrix_solve(p, rs)
                    except InfeasibleRootSetError:
                        with pytest.raises(InfeasibleRootSetError):
                            absorption(p, rs)
                        continue
                    ab = absorption(p, rs)
                    assert ab.green == g
                    assert ab.hit == oracle.hitting_solve(p, rs)
                    for row, mean in zip(g, ab.mean_hit):
                        assert sum(row, F(0)) == mean
        u6 = uniform_chain(6)
        for a in range(2, 6):
            for b in range(2, 6):
                want = F(3, 2) if a == b else F(1, 2)
                assert green_occupation(u6, {0, 1}, a, b) == want


def test_criterion_03_first_passage_both_routes(irreducible_corpus, announce):
    with announce(3, "first-passage: trees == linear solve + closed forms"):
        for p in irreducible_corpus:
            m = oracle.mfpt_solve(p)
            for i in range(p.n):
                for j in range(p.n):
                    if i != j:
                        assert mfpt(p, i, j) == m[i][j]
        a = fixture_a()
        assert mfpt(a, 1, 0) == F(5, 3)
        assert mfpt(a, 0, 1) == 3
        assert mfpt(a, 0, 2) == F(9, 5)
        rng = random.Random(SEED + 3)
        for _ in range(50):
            q2 = verify.random_irreducible_chain(rng, 2)
            assert mfpt(q2, 1, 0) == 1 / q2.p(1, 0)
            q3 = verify.random_irreducible_chain(rng, 3)
            num = q3.p(1, 2) + q3.p(2, 1) + q3.p(2, 0)
            den = (q3.p(1, 2) * q3.p(2, 0) + q3.p(2, 1) * q3.p(1, 0)
                   + q3.p(1, 0) * q3.p(2, 0))
            assert mfpt(q3, 1, 0) == num / den


def test_criterion_04_kemeny_three_ways(irreducible_corpus, announce):
    with announce(4, "kemeny: sigma ratio == passage sums == trace"):
        for p in irreducible_corpus:
            k = kemeny(p)
            assert k == oracle.kemeny_trace(p)
            an = analyze(p)
            for i in range(p.n):
                total = sum(
                    (an.mfpt[i][j] / an.mfpt[j][j] for j in range(p.n)),
                    F(0))
                assert total == k
        assert kemeny(fixture_a()) == F(16, 7)
        for n in range(2, 7):
            assert kemeny(uniform_chain(n)) == n


def test_criterion_05_forest_counts(announce):
    with announce(5, "forest counts match closed form"):
        start = time.perf_counter()
        for n in range(1, 8):
            for k in range(1, n + 1):
                want = cayley_count(n, k)
                if k < n:
                    assert want == k * n ** (n - k - 1)
                else:
                    assert want == 1
                got = sum(1 for _ in enumerate_forests(n, set(range(k))))
                assert got == want
        for n in range(1, 6):
            for k in range(1, n + 1):
                for roots in combinations(range(n), k):
                    count = sum(1 for _ in enumerate_forests(n, roots))
                    assert count == cayley_count(n, k)
        for n in range(1, 8):
            for k in range(1, n):
                assert (k + 1) * cayley_count(n, k) \
                    == k * n * cayley_count(n, k + 1)
        assert time.perf_counter() - start < 30


def test_criterion_06_occupation_and_tree_sum_identities(announce):
    with announce(6, "occupation + tree-sum identities, all triples"):
        chung = verify.run_suite("chung", trials=100, max_n=5, seed=SEED)
        assert chung.passed, chung.failures
        assert chung.checks > 100
        treealg = verify.run_suite("treealg", trials=100, max_n=5, seed=SEED)
        assert treealg.passed, treealg.failures
        assert treealg.checks > 100


def test_criterion_07_cesaro_limit(announce):
    with announce(7, "cesaro average within 10/N of forest limit"):
        steps = 10_000
        rng = random.Random(4)  # chain-dependent constant; see notes
        for t in range(50):
            n = 2 + t % 4
            p = verify.random_chain(rng, n)
            avg = oracle.cesaro_average(p, steps)
            exact = cesaro_forest_matrix(p)
            for i in range(n):
                for j in range(n):
                    assert abs(float(exact[i][j]) - avg[i][j]) <= 10 / steps


def test_criterion_08_sigma_series(announce):
    with announce(8, "500-term series within 1e-6 relative"):
        rng = random.Random(SEED)
        count = 0
        while count < 50:
            n = 2 + count % 5
            p = verify.random_irreducible_chain(rng, n)
            if oracle.period(p) != 1:
                continue
            approx = oracle.sigma1_series(p, 500)
            exact = forests.sigma_r(p, 1)
            assert abs(approx - float(exact)) / float(exact) < 1e-6
            count += 1
        d2 = chain([[0, 1], [1, 0]])
        with pytest.raises(PeriodicChainError):
            oracle.sigma1_series(d2, 500)
        r3 = chain([[0, F(1, 2), F(1, 2)], [0, 1, 0], [0, 0, 1]])
        with pytest.raises(ReducibleChainError):
            oracle.sigma1_series(r3, 500)


def test_criterion_09_symmetric_laplacian_counts(announce):
    with announce(9, "symmetric laplacian counting identities"):
        rng = random.Random(SEED + 9)
        for t in range(50):
            n = 2 + t % 5
            m = verify.random_symmetric_laplacian(rng, n)
            lhs, rhs = oracle.temperley_check(m)
            assert lhs == rhs
            lhs, rhs = oracle.minor_product_check(m)
            assert lhs == rhs
        assert oracle.prism_tree_count(2, 3) == 75
        for n in range(2, 7):
            for m_ring in range(3, 7):
                if n * m_ring > 12:
                    continue
                closed = oracle.prism_tree_count(n, m_ring)
                graph = oracle.complete_prism(n, m_ring)
                assert closed == oracle.undirected_tree_count(graph)


def test_criterion_10_sampler_goodness_of_fit(announce):
    with announce(10, "sampler chi-square + branch law mass"):
        start = time.perf_counter()
        draws = 100_000
        guard = forests.DEFAULT_GUARD

        def tree_fit(p, root, seed):
            law = forests.exact_law(p, {root}, guard=guard)
            cfg = SamplerConfig(seed=seed, sample_count=draws)
            got = Counter(sample_trees(p, root, cfg))
            report = wilson.gof_test(got, law)
            assert report.passed, (report.p_value, report.statistic)

        tree_fit(uniform_chain(4), 0, SEED)
        rng = random.Random(SEED + 10)
        for t in range(10):
            n = 2 + t % 3
            p = verify.random_irreducible_chain(rng, n)
            tree_fit(p, rng.randrange(n), SEED + 11 + t)

        # branch law sums to one over every feasible configuration
        rng = random.Random(SEED + 12)
        for t in range(50):
            n = 2 + t % 4
            p = verify.random_irreducible_chain(rng, n)
            for k in range(1, n):
                for roots in combinations(range(n), k):
                    rs = frozenset(roots)
                    for i in range(n):
                        if i in rs:
                            continue
                        paths = verify._self_avoiding_paths(p, rs, i)
                        total = sum(
                            (lerw_path_prob(p, rs, PathTrace(q))
                             for q in paths), F(0))
                        assert total == 1

        # cycle sampler with zero cycle weights follows the forest law
        a = fixture_a()
        law = {f.parent: prob
               for f, prob in forests.exact_law(a, {0}, guard=guard).items()}
        cfg = SamplerConfig(seed=SEED + 13, sample_count=20_000,
                            alpha=CycleWeights.constant(0))
        got: dict = {}
        for e in sample_ecrsf(a, {0}, cfg):
            assert e.cycles == ()
            got[e.successor] = got.get(e.successor, 0) + 1
        report = wilson.gof_test(got, law)
        assert report.passed, (report.p_value, report.statistic)
        assert time.perf_counter() - start < 120


def test_criterion_11_full_pipeline(announce, capsys):
    with announce(11, "verify --suite all exits 0 in budget"):
        start = time.perf_counter()
        code = cli.main(["verify", "--suite", "all"])
        capsys.readouterr()
        assert code == 0
        assert time.perf_counter() - start < 300
