import itertools
import random
from fractions import Fraction

import pytest

from forestchain import (
    CycleWeights,
    InfeasibleRootSetError,
    ReducibleChainError,
    absorption,
    analyze,
    cesaro_forest,
    cesaro_forest_matrix,
    chung_occupation,
    ecrsf_stopped_distribution,
    feasibility,
    green_matrix_solve,
    green_occupation,
    hitting_distribution,
    kemeny,
    kemeny_trace,
    mean_hitting_time,
    mean_return_time,
    mfpt,
    mfpt_solve,
    mfpt_via_modified_chain,
    stationary,
    stationary_solve,
    uniform_chain,
)
from forestchain import verify

from conftest import chain

F = Fraction


def test_stationary_fixture(fixture_a, d2):
    assert stationary(fixture_a) == (F(3, 7), F(3, 14), F(5, 14))
    assert stationary(d2) == (F(1, 2), F(1, 2))
    for n in range(2, 6):
        assert stationary(uniform_chain(n)) == (F(1, n),) * n


def test_stationary_rejects_reducible_with_certificate(r3):
    with pytest.raises(ReducibleChainError) as info:
        stationary(r3)
    err = info.value
    assert err.certificate is not None
    assert set(err.infeasible_singletons) == {0, 1, 2}


def test_mean_return_time(fixture_a):
    assert mean_return_time(fixture_a, 0) == F(7, 3)
    assert mean_return_time(fixture_a, 1) == F(14, 3)
    assert mean_return_time(fixture_a, 2) == F(14, 5)


def test_mfpt_fixture(fixture_a, d2):
    assert mfpt(fixture_a, 0, 1) == 3
    assert mfpt(fixture_a, 0, 2) == F(9, 5)
    assert mfpt(fixture_a, 1, 0) == F(5, 3)
    assert mfpt(fixture_a, 1, 2) == F(8, 5)
    assert mfpt(fixture_a, 2, 0) == 1
    assert mfpt(fixture_a, 2, 1) == 4
    assert mfpt(d2, 0, 1) == 1
    with pytest.raises(ValueError):
        mfpt(fixture_a, 1, 1)


def test_kemeny_fixture(fixture_a):
    assert kemeny(fixture_a) == F(16, 7)
    for n in range(2, 7):
        assert kemeny(uniform_chain(n)) == n


def test_kemeny_start_state_free(fixture_a):
    k = kemeny(fixture_a)
    for i in range(3):
        total = sum(
            (mfpt(fixture_a, i, j) / mean_return_time(fixture_a, j)
             for j in range(3) if j != i),
            F(1))  # the j = i term is m_ii / m_ii = 1
        assert total == k


def test_green_occupation(fixture_a, d2):
    assert green_occupation(fixture_a, {0}, 1, 2) == F(2, 3)
    assert green_occupation(fixture_a, {0}, 1, 1) == 1
    assert green_occupation(fixture_a, {0}, 2, 1) == 0
    assert green_occupation(d2, {0}, 1, 1) == 1
    u6 = uniform_chain(6)
    for a in range(2, 6):
        for b in range(2, 6):
            want = F(3, 2) if a == b else F(1, 2)
            assert green_occupation(u6, {0, 1}, a, b) == want


def test_green_occupation_errors(fixture_a, r3):
    with pytest.raises(ValueError):
        green_occupation(fixture_a, {0}, 0, 1)
    with pytest.raises(InfeasibleRootSetError):
        green_occupation(r3, {1}, 0, 2)


def test_mean_hitting_time(fixture_a, r3):
    assert mean_hitting_time(fixture_a, {0}, 1) == F(5, 3)
    assert mean_hitting_time(fixture_a, {0}, 2) == 1
    assert mean_hitting_time(r3, {1, 2}, 0) == 1
    with pytest.raises(ValueError):
        mean_hitting_time(fixture_a, {0}, 0)


def test_hitting_distribution(fixture_a, r3):
    assert hitting_distribution(r3, {1, 2}, 0) == (F(1, 2), F(1, 2))
    assert hitting_distribution(fixture_a, {1, 2}, 0) == (F(1, 2), F(1, 2))
    # start inside R: point mass
    assert hitting_distribution(fixture_a, {1, 2}, 2) == (0, 1)
    with pytest.raises(InfeasibleRootSetError):
        hitting_distribution(r3, {1}, 0)


def test_hitting_rows_are_distributions(fixture_a, u4):
    for p in (fixture_a, u4):
        for k in range(1, p.n):
            for roots in itertools.combinations(range(p.n), k):
                for i in range(p.n):
                    dist = hitting_distribution(p, roots, i)
                    assert sum(dist, F(0)) == 1
                    assert all(x >= 0 for x in dist)


def test_absorption_bundle(fixture_a):
    ab = absorption(fixture_a, {0})
    assert ab.targets == (0,)
    assert ab.interior == (1, 2)
    assert ab.green == green_matrix_solve(fixture_a, {0})
    assert ab.mean_hit == (F(5, 3), F(1))
    assert ab.hit == ((F(1),), (F(1),))


def test_analyze_bundle(fixture_a):
    analysis = analyze(fixture_a)
    assert analysis.pi == (F(3, 7), F(3, 14), F(5, 14))
    assert analysis.kemeny == F(16, 7)
    assert analysis.mfpt[0][0] == F(7, 3)
    assert analysis.mfpt[2][1] == 4
    # diagonal times stationary weight is 1
    for j in range(3):
        assert analysis.mfpt[j][j] * analysis.pi[j] == 1


def test_analyze_two_forest_mfpt_matches_tree_deletion(fixture_a):
    # analyze reads Sigma_ij from two-tree tables, mfpt deletes tree edges
    sparse = verify.random_irreducible_chain(random.Random(6), 6)
    assert any(x == 0 for row in sparse.rows for x in row)
    for p in (fixture_a, sparse):
        m = analyze(p).mfpt
        for i, j in itertools.permutations(range(p.n), 2):
            assert m[i][j] == mfpt(p, i, j)


def test_analyze_dense_n8_matches_oracle():
    n = 8
    p = chain([[F((2 * i + 3 * j) % 9 + 1, sum((2 * i + 3 * c) % 9 + 1
                                                for c in range(n)))
                for j in range(n)] for i in range(n)])
    a = analyze(p)
    assert a.pi == stationary_solve(p)
    assert a.mfpt == mfpt_solve(p)
    assert a.kemeny == kemeny_trace(p)


def test_cesaro_forest(fixture_a, r3):
    assert cesaro_forest(r3, 0, 1) == F(1, 2)
    assert cesaro_forest(r3, 0, 0) == 0  # transient target
    assert cesaro_forest(r3, 1, 1) == 1
    pi = stationary(fixture_a)
    for i in range(3):
        for j in range(3):
            assert cesaro_forest(fixture_a, i, j) == pi[j]


def test_cesaro_forest_matrix_rows_sum_to_one(fixture_a, r3, u4):
    for p in (fixture_a, r3, u4):
        m = cesaro_forest_matrix(p)
        for row in m:
            assert sum(row, F(0)) == 1


def test_chung_occupation(fixture_a):
    for i in range(3):
        for j in range(3):
            for k in range(3):
                if i == k or j == k:
                    continue
                assert chung_occupation(fixture_a, i, j, k) \
                    == green_occupation(fixture_a, {k}, i, j)
    # i = j gives the expected visits to i itself, always at least 1
    assert chung_occupation(fixture_a, 0, 0, 2) >= 1
    with pytest.raises(ValueError):
        chung_occupation(fixture_a, 2, 1, 2)


def test_ecrsf_stopped_distribution(fixture_a, d2):
    dist, escape = ecrsf_stopped_distribution(d2, {1}, 0)
    assert dist == (F(1),) and escape == 1
    dist, escape = ecrsf_stopped_distribution(fixture_a, {2}, 0)
    assert dist == (F(5, 6),) and escape == F(5, 6)
    # start inside R
    dist, escape = ecrsf_stopped_distribution(fixture_a, {1, 2}, 2)
    assert dist == (0, 1) and escape == 1
    # empty root set: all mass on loop formation
    dist, escape = ecrsf_stopped_distribution(fixture_a, set(), 0)
    assert dist == () and escape == 0


def test_ecrsf_stopped_matches_path_chase(fixture_a):
    # brute force: walk enumeration over self-avoiding prefixes from 0;
    # absorbed at 2, stopped on first revisit otherwise
    def mass(state, seen, prob):
        if state == 2:
            return prob
        total = F(0)
        for nxt in range(3):
            step = fixture_a.p(state, nxt)
            if step and nxt not in seen:
                total += mass(nxt, seen | {nxt}, prob * step)
        return total

    dist, _ = ecrsf_stopped_distribution(fixture_a, {2}, 0)
    assert dist[0] == mass(0, {0}, F(1))


def test_feasibility_report(fixture_a, r3):
    rep = feasibility(fixture_a, {1})
    assert rep.feasible and rep.consistent
    assert rep.unreachable == ()
    dead = chain([[1, 0], [1, 0]])
    rep = feasibility(dead, {1})
    assert not rep.feasible
    assert rep.consistent
    assert rep.unreachable == (0,)
    # every nonempty root set of an irreducible chain is feasible
    for k in range(1, 4):
        for roots in itertools.combinations(range(3), k):
            assert feasibility(fixture_a, roots).feasible
    assert not feasibility(r3, {1}).feasible
    assert feasibility(r3, {1, 2}).consistent


def test_mfpt_via_modified_chain(fixture_a, u4):
    for p in (fixture_a, u4):
        for i in range(p.n):
            for j in range(p.n):
                if i != j:
                    assert mfpt_via_modified_chain(p, i, j) == mfpt(p, i, j)


def test_irreducibility_gatekeeping(r3):
    for call in (lambda: mfpt(r3, 0, 1),
                 lambda: kemeny(r3),
                 lambda: mean_return_time(r3, 0),
                 lambda: chung_occupation(r3, 0, 1, 2),
                 lambda: mfpt_via_modified_chain(r3, 0, 1)):
        with pytest.raises(ReducibleChainError):
            call()
