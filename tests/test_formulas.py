import itertools
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

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
    hitting_solve,
    irreducibility_certificate,
    kemeny,
    kemeny_trace,
    mean_hitting_time,
    mean_return_time,
    mfpt,
    mfpt_solve,
    mfpt_via_modified_chain,
    sigma_r,
    stationary,
    stationary_solve,
    uniform_chain,
)
from forestchain import forests, formulas, verify
from forestchain.chains import scaled_rows

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


def test_one_state_chain():
    # Sigma^(2) is an empty sum, so K = 1 + 0 / Sigma^(1) = 1
    p = chain([[F(1)]])
    a = analyze(p)
    assert a.pi == (1,) == stationary(p) == stationary_solve(p)
    assert a.mfpt == ((1,),) == mfpt_solve(p)
    assert a.kemeny == kemeny(p) == kemeny_trace(p) == 1
    assert mean_return_time(p, 0) == 1


def test_analyze_two_forest_mfpt_matches_tree_deletion(fixture_a):
    # analyze reads Sigma_ij from two-tree tables; tree deletion walks the
    # trees rooted at j
    sparse = verify.random_irreducible_chain(random.Random(6), 6)
    assert any(x == 0 for row in sparse.rows for x in row)
    for p in (fixture_a, sparse):
        m = analyze(p).mfpt
        for i, j in itertools.permutations(range(p.n), 2):
            assert m[i][j] == (forests.sigma_pair(p, i, j, "tree-deletion")
                               / forests.w_sum(p, {j}))


def test_first_passage_formulas_read_no_tree_deletion(monkeypatch, fixture_a):
    # mfpt and chung_occupation read the tree sums; tree deletion is only
    # the reference they are checked against
    sparse = verify.random_irreducible_chain(random.Random(6), 6)
    chains = (fixture_a, sparse)
    expected = [mfpt_solve(p) for p in chains]

    def no_walk(p, j):
        raise AssertionError("read the tree-deletion walk")

    monkeypatch.setattr(forests, "_tree_deletion_row", no_walk)
    for p, m in zip(chains, expected):
        for i, j in itertools.permutations(range(p.n), 2):
            assert mfpt(p, i, j) == m[i][j]
        for i, j, k in itertools.product(range(p.n), repeat=3):
            if k not in (i, j):
                assert (chung_occupation(p, i, j, k)
                        == green_occupation(p, {k}, i, j))


def test_analyze_dense_n8_matches_oracle():
    n = 8
    p = chain([[F((2 * i + 3 * j) % 9 + 1, sum((2 * i + 3 * c) % 9 + 1
                                                for c in range(n)))
                for j in range(n)] for i in range(n)])
    a = analyze(p)
    assert a.pi == stationary_solve(p)
    assert a.mfpt == mfpt_solve(p)
    assert a.kemeny == kemeny_trace(p)


def test_analyze_dense_n9_matches_oracle():
    # eight free states per singleton root set: the default guard admits it
    n = 9
    p = chain([[F((4 * i + 5 * j) % 7 + 1, sum((4 * i + 5 * c) % 7 + 1
                                               for c in range(n)))
                for j in range(n)] for i in range(n)])
    a = analyze(p)
    m = mfpt_solve(p)
    assert a.pi == stationary_solve(p)
    assert a.mfpt == m
    assert a.kemeny == kemeny_trace(p)
    # mfpt and chung_occupation read the same tree sums as analyze; a walk
    # over the trees rooted at each target took 9 to 15 s per target here
    # on a 2-vCPU host
    start = time.perf_counter()
    for i, j in itertools.permutations(range(n), 2):
        assert mfpt(p, i, j) == m[i][j]
    assert chung_occupation(p, 2, 5, 7) == green_occupation(p, {7}, 2, 5)
    assert time.perf_counter() - start < 5


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


def test_positive_forest_check_agrees_with_every_listed_forest(fixture_a, r3):
    # the walk over the positive arcs answers as listing and weighing every
    # forest does, on the cases above and on a seeded corpus
    rng = random.Random(97)
    cases = [fixture_a, r3, chain([[1, 0], [1, 0]])]
    cases += [verify.random_chain(rng, n) for n in range(2, 7)
              for _ in range(4)]
    answers = set()
    for p in cases:
        for k in range(1, p.n + 1):
            for roots in itertools.combinations(range(p.n), k):
                rep = feasibility(p, roots)
                listed = any(forests.forest_weight(f, p) > 0
                             for f in forests.enumerate_forests(p.n, roots))
                assert rep.positive_forest_exists == listed
                assert rep.consistent
                answers.add(listed)
    assert answers == {True, False}


def test_feasibility_lists_no_forest(monkeypatch):
    # the 9-state path 0 -> 1 -> ... -> 8, holding 1/2, state 8 absorbing:
    # R = {0} has 9^7 forests and none of positive weight, which the walk
    # over the positive arcs finds without listing or weighing one
    n = 9
    rows = [[0] * n for _ in range(n)]
    for v in range(n - 1):
        rows[v][v] = rows[v][v + 1] = F(1, 2)
    rows[n - 1][n - 1] = 1
    p = chain(rows)

    def refuse(*args):
        raise AssertionError("listed or weighed a forest")

    for module in (forests, formulas):
        for name in ("enumerate_forests", "forest_weight"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    assert feasibility(p, {0}) == formulas.FeasibilityReport(
        roots=(0,), weight_positive=False, positive_forest_exists=False,
        all_states_reach_roots=False, det_nonzero=False,
        unreachable=tuple(range(1, n)))
    rep = feasibility(p, {n - 1})
    assert rep.positive_forest_exists and rep.feasible and rep.consistent


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


# ---------------------------------------------------------------------------
# integer forest sums: one Fraction per output value

# one state; rows mixing denominators 2 and 1000003; zero arcs and
# self-loops; and a reducible chain, so some of its root sets are infeasible
EDGE_CHAINS = (
    [[1]],
    [[F(1, 2), F(1, 2) - F(1, 1000003), F(1, 1000003)],
     [F(1, 1000003), 0, F(1000002, 1000003)],
     [F(2, 3), F(1, 7), F(4, 21)]],
    [[F(1, 3), F(2, 3), 0, 0],
     [0, F(1, 2), F(1, 2), 0],
     [0, 0, 0, 1],
     [F(3, 4), 0, 0, F(1, 4)]],
    [[F(1, 2), F(1, 1000003), F(1000001, 2000006), 0],
     [0, 1, 0, 0],
     [0, F(1, 2), 0, F(1, 2)],
     [0, 0, 0, 1]],
)


def test_forest_formulas_read_no_fraction_sums(monkeypatch, fixture_a, r3):
    # every forest formula reads the integer root-set tables, all over one
    # denominator per chain; none goes through the per-entry Fraction
    # accessors or the Fraction sums built on them
    p = verify.random_irreducible_chain(random.Random(3), 5)
    mixed = chain(EDGE_CHAINS[1])
    irreducible = (fixture_a, p, mixed)

    def run():
        return ([analyze(q) for q in irreducible],
                [absorption(q, roots) for q, roots in
                 ((fixture_a, {0}), (p, {1, 3}), (r3, {1, 2}), (mixed, {2}))],
                [sigma_r(q, r) for q in irreducible
                 for r in range(1, q.n + 1)],
                [cesaro_forest_matrix(q) for q in (fixture_a, p, r3, mixed)],
                [(stationary(q), kemeny(q),
                  [mean_return_time(q, j) for j in range(q.n)],
                  [(mfpt(q, i, j), mfpt_via_modified_chain(q, i, j))
                   for i, j in itertools.permutations(range(q.n), 2)],
                  [chung_occupation(q, i, j, k)
                   for i, j, k in itertools.product(range(q.n), repeat=3)
                   if k not in (i, j)])
                 for q in irreducible],
                [(green_occupation(q, roots, i, j), mean_hitting_time(q, roots, i),
                  hitting_distribution(q, roots, i))
                 for q, roots, i, j in ((fixture_a, {0}, 1, 2), (p, {1, 3}, 0, 4),
                                        (r3, {1, 2}, 0, 0), (mixed, {2}, 1, 0))])

    expected = run()

    def no_fraction_sums(*args, **kwargs):
        raise AssertionError("read a per-entry Fraction forest sum")

    for module in (forests, formulas):
        for name in ("w_sum", "w_target_sum", "sigma_sums", "sigma_r",
                     "sigma_pair"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, no_fraction_sums)
    assert run() == expected
    assert expected[0][0].kemeny == F(16, 7)
    assert expected[0][1].mfpt == mfpt_solve(p)
    for q, analysis, (pi, k, returns, pairs, _occupation) in zip(
            irreducible, expected[0], expected[4]):
        assert pi == analysis.pi and k == analysis.kemeny
        assert returns == [analysis.mfpt[j][j] for j in range(q.n)]
        assert [m for m, _modified in pairs] == [
            analysis.mfpt[i][j] for i, j in itertools.permutations(range(q.n), 2)]
    # every root set of a chain shares one denominator, the product of the
    # row denominators
    for q in (fixture_a, p, r3, mixed):
        dens = [math.lcm(*(x.denominator for x in row)) for row in q.rows]
        assert {forests.root_set_sums(q, roots).denom
                for r in range(1, q.n + 1)
                for roots in itertools.combinations(range(q.n), r)} == {math.prod(dens)}


OUT_OF_RANGE = [
    (mean_return_time, (-1,), -1),
    (mean_return_time, (5,), 5),
    (cesaro_forest, (0, 99), 99),
    (cesaro_forest, (99, 0), 99),
    (mfpt_via_modified_chain, (0, -1), -1),
    (mfpt_via_modified_chain, (0, 5), 5),
    (mfpt_via_modified_chain, (-1, 0), -1),
    (mean_hitting_time, ({0}, 99), 99),
    (mean_hitting_time, ({0}, -1), -1),
    (hitting_distribution, ({0}, 99), 99),
    (hitting_distribution, ({0}, -1), -1),
    (green_occupation, ({0}, 99, 1), 99),
    (green_occupation, ({0}, -1, 1), -1),
]


@pytest.mark.parametrize("call, args, state", OUT_OF_RANGE,
                         ids=[f"{call.__name__}{args}"
                              for call, args, _ in OUT_OF_RANGE])
def test_out_of_range_states_are_refused_before_any_sum(monkeypatch, call,
                                                         args, state):
    def no_sums(*args, **kwargs):
        raise AssertionError("read a forest sum")

    monkeypatch.setattr(formulas, "root_set_sums", no_sums)
    with pytest.raises(ValueError, match=rf"^state {state} out of range$"):
        call(uniform_chain(3), *args)


def test_state_range_comes_before_the_root_set_weight():
    # on a reducible chain w({0}) vanishes; the bad state is named first
    p = chain([[1, 0], [0, 1]])
    for call, args in ((mean_hitting_time, (99,)),
                       (hitting_distribution, (99,)),
                       (green_occupation, (99, 1))):
        with pytest.raises(ValueError, match=r"^state 99 out of range$"):
            call(p, [0], *args)
    with pytest.raises(InfeasibleRootSetError):
        mean_hitting_time(p, [0], 1)


OUT_OF_RANGE_ROOTS = [
    (hitting_distribution, ([0, 99], 0), 99),
    (hitting_distribution, ([0, -1], 0), -1),
    (ecrsf_stopped_distribution, ([0, 99], 0), 99),
    (ecrsf_stopped_distribution, ([-1], 2), -1),
    (mean_hitting_time, ([5], 0), 5),
]


@pytest.mark.parametrize("call, args, root", OUT_OF_RANGE_ROOTS,
                         ids=[f"{call.__name__}{args}"
                              for call, args, _ in OUT_OF_RANGE_ROOTS])
def test_out_of_range_roots_are_refused(call, args, root):
    # the shortcut for a start state inside R checks R first
    with pytest.raises(ValueError,
                       match=rf"^root {root} out of range for n=3$"):
        call(uniform_chain(3), *args)


def test_roots_that_are_not_integers_are_refused():
    # a root is taken with operator.index: 0.9, 2.5 and '0' were once
    # truncated to 0, 2 and 0, so every route and the sampler answered for
    # another root set, and absorption labelled the sums of {1} as (1.99,)
    from forestchain import oracle, wilson

    p = uniform_chain(3)
    cfg = wilson.SamplerConfig(seed=1069, sample_count=5)
    calls = {
        "w_sum": lambda roots: forests.w_sum(p, roots),
        "root_set_sums": lambda roots: forests.root_set_sums(p, roots),
        "absorption": lambda roots: absorption(p, roots),
        "green_matrix_solve": lambda roots: oracle.green_matrix_solve(p, roots),
        "hitting_solve": lambda roots: oracle.hitting_solve(p, roots),
        "sample_forests": lambda roots: wilson.sample_forests(p, roots, cfg),
    }
    for name, call in calls.items():
        for roots in ([0.9], [1.99], [2.5], ["0"], [0, 1.0]):
            with pytest.raises(ValueError,
                               match=f"^root {roots[-1]!r} is not an integer$"):
                call(roots)
        call([1])
    assert absorption(p, [2, True]).targets == (1, 2)


@pytest.mark.parametrize("rows", EDGE_CHAINS)
def test_routes_agree_on_edge_chains(rows):
    p = chain(rows)
    irreducible = irreducibility_certificate(p) is None
    if irreducible:
        a = analyze(p)
        assert a.pi == stationary(p) == stationary_solve(p)
        assert a.mfpt == mfpt_solve(p)
        assert a.kemeny == kemeny(p) == kemeny_trace(p)
    infeasible = 0
    for k in range(1, p.n + 1):
        for roots in itertools.combinations(range(p.n), k):
            interior = [v for v in range(p.n) if v not in roots]
            if not feasibility(p, roots).feasible:
                infeasible += 1
                for call in (lambda: absorption(p, roots),
                             lambda: green_matrix_solve(p, roots),
                             lambda: hitting_solve(p, roots),
                             lambda: mean_hitting_time(p, roots, interior[0]),
                             lambda: hitting_distribution(p, roots, interior[0])):
                    with pytest.raises(InfeasibleRootSetError):
                        call()
                continue
            ab = absorption(p, roots)
            assert ab.green == green_matrix_solve(p, roots)
            assert ab.hit == hitting_solve(p, roots)
            for at, i in enumerate(interior):
                assert ab.mean_hit[at] == sum(ab.green[at], F(0)) \
                    == mean_hitting_time(p, roots, i)
                assert ab.hit[at] == hitting_distribution(p, roots, i)
                for bt, j in enumerate(interior):
                    assert ab.green[at][bt] == green_occupation(p, roots, i, j)
    assert (infeasible > 0) == (not irreducible)


@st.composite
def _large_number_cases(draw):
    """(chain, root set): 2..6 states whose rows have denominators up to
    about 10^60, with zero cells, self-loops and absorbing rows, and a
    nonempty root set."""
    n = draw(st.integers(2, 6))
    # a weight of 1 to 60 digits, or about one time in six a zero
    weight = st.integers(0, 71).flatmap(
        lambda k: st.just(0) if k % 6 == 3
        else st.integers(10 ** (k * 5 // 6), 10 ** (k * 5 // 6 + 1) - 1))
    rows = []
    for i in range(n):
        # about one row in ten absorbing
        if draw(st.integers(0, 9)) == 4:
            rows.append([Fraction(int(j == i)) for j in range(n)])
            continue
        weights = draw(st.lists(weight, min_size=n, max_size=n))
        if not any(weights):
            weights[draw(st.integers(0, n - 1))] = 1
        rows.append([Fraction(w, sum(weights)) for w in weights])
    roots = draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n))
    return chain(rows), roots


def _outcome(route, *args):
    """route(*args), or the class of the chain error it raises."""
    try:
        return route(*args)
    except ValueError as e:
        return type(e)


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(_large_number_cases())
def test_both_routes_agree_on_large_numbers(case):
    # exactly equal, or refused alike, with no float anywhere
    p, roots = case
    got = _outcome(analyze, p)
    if isinstance(got, type):
        assert got is ReducibleChainError
        assert _outcome(stationary_solve, p) is got
        assert _outcome(mfpt_solve, p) is got
    else:
        assert got.pi == stationary_solve(p)
        assert got.mfpt == mfpt_solve(p)
        assert got.kemeny == kemeny_trace(p)
    got = _outcome(absorption, p, roots)
    green = _outcome(green_matrix_solve, p, roots)
    hit = _outcome(hitting_solve, p, roots)
    if isinstance(got, type):
        assert got is InfeasibleRootSetError
        assert green is hit is got
    else:
        assert got.green == green and got.hit == hit
        assert got.mean_hit == tuple(sum(row, Fraction(0)) for row in green)
    # the scaled rows the chain kept from its row check are its rows
    dens = tuple(math.lcm(*[x.denominator for x in row]) for row in p.rows)
    nums = tuple(tuple(x.numerator * (d // x.denominator) for x in row)
                 for row, d in zip(p.rows, dens))
    assert scaled_rows(p) == (nums, dens)
