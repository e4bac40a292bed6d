import itertools
import random
from fractions import Fraction

import pytest

from forestchain import (
    InfeasibleRootSetError,
    PeriodicChainError,
    ReducibleChainError,
    SingularMatrixError,
    cesaro_average,
    complete_prism,
    exact_det,
    fundamental_matrix,
    green_matrix_solve,
    hitting_solve,
    irreducibility_certificate,
    kemeny_trace,
    laplacian,
    laplacian_cofactor,
    mfpt_solve,
    minor_product_check,
    period,
    prism_tree_count,
    recurrent_classes,
    sigma1_series,
    stationary_solve,
    temperley_check,
    undirected_tree_count,
    uniform_chain,
)
from forestchain import chain_from_edge_list, oracle
from forestchain.chains import reachable, scaled_rows
from forestchain.oracle import (
    RecurrentClasses,
    _exchange,
    require_irreducible,
    states_not_reaching,
    states_not_reaching_all,
)
from forestchain.verify import (
    corpus_chains,
    random_chain,
    random_irreducible_chain,
)

from conftest import chain

F = Fraction


def _triangle_laplacian():
    return ((F(2), F(-1), F(-1)),
            (F(-1), F(2), F(-1)),
            (F(-1), F(-1), F(2)))


def test_exact_det_examples(fixture_a):
    lap = laplacian(fixture_a)
    minor = tuple(tuple(lap[i][j] for j in (1, 2)) for i in (1, 2))
    assert exact_det(minor) == 1  # equals the tree sum at state 0
    eye5 = tuple(tuple(F(int(i == j)) for j in range(5)) for i in range(5))
    assert exact_det(eye5) == 1
    assert exact_det(((F(1), F(2)), (F(2), F(4)))) == 0
    assert exact_det(()) == 1


def test_exact_det_needs_pivoting():
    m = ((F(0), F(1)), (F(1), F(0)))
    assert exact_det(m) == -1


def _leibniz_det(m):
    n = len(m)
    total = F(0)
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[a] > perm[b]
                         for a in range(n) for b in range(a + 1, n))
        term = F(-1 if inversions % 2 else 1)
        for i, j in enumerate(perm):
            term *= m[i][j]
        total += term
    return total


def _seeded_matrix(rng, n):
    return [[F(0) if rng.random() < 0.3
             else F(rng.randint(-4, 4), rng.randint(1, 5))
             for _ in range(n)] for _ in range(n)]


def test_exact_det_takes_fraction_int_and_mixed_entries_alike():
    rng = random.Random(17)
    singular = 0
    for t in range(120):
        n = 1 + t % 5
        ints = [[0 if rng.random() < 0.3 else rng.randint(-6, 6)
                 for _ in range(n)] for _ in range(n)]
        if t % 4 == 0 and n > 1:
            ints[-1] = [2 * x for x in ints[0]]
        fractions = [[F(x) for x in row] for row in ints]
        mixed = [[F(x) if (i + j) % 2 else x for j, x in enumerate(row)]
                 for i, row in enumerate(ints)]
        expected = _leibniz_det(fractions)
        got = [exact_det(m) for m in (ints, fractions, mixed)]
        assert got == [expected] * 3
        assert all(type(d) is F for d in got)
        singular += expected == 0
    assert singular >= 20
    # other exact types are still converted, and the input is left alone
    rows = [[F(1, 2), 3], [True, 0.25]]
    assert exact_det(rows) == F(1, 8) - 3
    assert rows == [[F(1, 2), 3], [True, 0.25]]


def test_exact_det_matches_leibniz_expansion():
    rng = random.Random(11)
    singular = late_swaps = 0
    for t in range(300):
        n = 1 + t % 5
        m = _seeded_matrix(rng, n)
        if t % 3 == 0:
            m[0][0] = F(0)  # the first pivot needs a row swap
        late = t % 3 == 1 and n > 2
        if late:
            # the leading 2 x 2 minor vanishes under a nonzero first pivot,
            # so the second pivot needs a row swap
            m[0][0] = m[0][0] or F(1)
            m[1][1] = m[0][1] * m[1][0] / m[0][0]
        if t % 7 == 0 and n > 1:
            m[-1] = [x * F(-2, 3) for x in m[0]]
        expected = _leibniz_det(m)
        assert exact_det(m) == expected
        singular += expected == 0
        late_swaps += late and expected != 0
    assert singular >= 40
    assert late_swaps >= 30


def test_exact_det_steps_through_the_exchange(monkeypatch):
    # each step of a determinant is one exchange at the leading position of
    # the shrinking tableau: n of them on a nonsingular n x n matrix, and
    # none once no row has a nonzero leading entry
    calls = []
    real = oracle._exchange

    def counting(t, positions, d=1):
        positions = tuple(positions)
        calls.append((len(t), positions))
        return real(t, positions, d)

    monkeypatch.setattr(oracle, "_exchange", counting)
    rng = random.Random(13)
    for n in range(1, 7):
        m = [[F(0)]]
        while _leibniz_det(m) == 0:
            m = _seeded_matrix(rng, n)
            if n > 1:
                m[0][0] = F(0)  # a swap before the first exchange
        calls.clear()
        assert exact_det(m) == _leibniz_det(m)
        assert calls == [(n - k, (0,)) for k in range(n)]
    # below the first pivot the second column vanishes: one exchange, then 0
    calls.clear()
    assert exact_det([[1, 2, 3], [2, 4, 5], [3, 6, 7]]) == 0
    assert calls == [(3, (0,))]


def _minors(m, sets):
    return [_leibniz_det([[m[i][j] for j in s] for i in s]) for s in sets]


def test_exchange_solves_systems_with_nonzero_leading_minors():
    # exchanged at every position, [A | B] becomes [d A^-1 | d A^-1 B] over
    # d = det A, in integers, with no identity columns carried; exchanged
    # back at one position, it is the tableau of the other positions alone
    rng = random.Random(12)
    done = 0
    while done < 100:
        n = 1 + done % 5
        a = [[0 if rng.random() < 0.3 else rng.randint(-6, 6)
              for _ in range(n)] for _ in range(n)]
        k = rng.randrange(n)
        others = [c for c in range(n) if c != k]
        # every pivot on the way is a principal minor: none may vanish
        if 0 in _minors(a, [range(c + 1) for c in range(n)]
                        + [others[:c + 1] for c in range(n - 1)]):
            continue
        b = [[rng.randint(-5, 5) for _ in range(1 + n % 3)] for _ in range(n)]
        t = [[*ra, *rb] for ra, rb in zip(a, b)]
        d = _exchange(t, range(n))
        assert d == _leibniz_det(a)
        assert all(type(v) is int for row in t for v in row)
        # A (d A^-1) = d I and A (d A^-1 B) = d B
        assert [[sum(a[i][k] * t[k][j] for k in range(n))
                 for j in range(len(t[0]))] for i in range(n)] \
            == [[d * (i == j) for j in range(n)] + [d * x for x in b[i]]
                for i in range(n)]
        rest = [[*ra, *rb] for ra, rb in zip(a, b)]
        last = _exchange(rest, others)
        assert _exchange(t, (k,), d) == last
        assert t == rest
        done += 1


def test_exchange_refuses_a_zero_pivot():
    # no row is swapped: a zero leading minor is refused, as is every
    # singular system the oracle builds, whose leading minors are all >= 0
    with pytest.raises(SingularMatrixError):
        _exchange([[0, 1, 2], [1, 0, 3]], range(2))
    rng = random.Random(13)
    for n in range(1, 7):
        p = random_chain(rng, n)
        # L(emptyset) = I - P, rows scaled: every row sums to 0
        with pytest.raises(SingularMatrixError):
            _exchange(oracle._tableau(p, range(n)), range(n))


def test_passage_green_and_hitting_solves_take_integer_rows(monkeypatch):
    # I - P is built with each row scaled by its denominator, so these solves
    # hand the elimination integers and never build a Fraction Laplacian
    from forestchain import chains as chains_module, oracle
    p = chain([[F(1, 2), F(1, 2) - F(1, 1000003), F(1, 1000003)],
               [F(1, 1000003), F(0), F(1000002, 1000003)],
               [F(2, 3), F(1, 7), F(4, 21)]])
    pi = stationary_solve(p)

    def run():
        return (green_matrix_solve(p, {0}), green_matrix_solve(p, {1, 2}),
                hitting_solve(p, {0}), hitting_solve(p, {0, 2}), mfpt_solve(p))

    expected = run()
    real = oracle._exchange
    sizes = []

    def integer_rows(t, positions, *d):
        assert all(type(x) is int for row in t for x in row)
        sizes.append((len(t), len(positions)))
        return real(t, positions, *d)

    def no_fraction_laplacian(*args, **kwargs):
        raise AssertionError("built I - P over Fractions")

    monkeypatch.setattr(oracle, "_exchange", integer_rows)
    # the oracle does not import the Fraction Laplacian at all
    assert not hasattr(oracle, "laplacian")
    monkeypatch.setattr(chains_module, "laplacian", no_fraction_laplacian)
    oracle._chain_store.cache_clear()
    assert run() == expected
    # (rows, positions exchanged): L({0}) and L({1, 2}) once each; L({0, 2})
    # is one exchange at one position of the kept L({0}); the chain system
    # once for every passage time
    assert sorted(sizes) == [(1, 1), (2, 1), (2, 2), (3, 3)]
    # pi is read from that same kept solve
    sizes.clear()
    assert stationary_solve(p) == pi and sizes == []
    oracle._chain_store(p).chain = None
    assert stationary_solve(p) == pi and sizes == [(3, 3)]
    assert sum(pi) == 1
    assert expected[1] == ((F(2),),)  # 1 / (1 - p_00)
    m = expected[-1]
    for i, j in itertools.permutations(range(3), 2):
        assert m[i][j] == 1 + sum(p.rows[i][k] * m[k][j]
                                  for k in range(3) if k != j)


def _first_step_chains():
    """A seeded dense and sparse irreducible chain at each n = 1..7."""
    rng = random.Random(2029)
    out = []
    for n in range(1, 8):
        weights = [[rng.randint(1, 9) for _ in range(n)] for _ in range(n)]
        out.append(chain([[F(w, sum(ws)) for w in ws] for ws in weights]))
        out.append(random_irreducible_chain(rng, n))
    return out


def test_mfpt_solve_satisfies_the_first_step_equations():
    # the definition, not the method: m_ij = 1 + sum_{k != j} p_ik m_kj off
    # the diagonal and m_jj = 1 / pi_j, exactly
    for p in _first_step_chains():
        n = p.n
        m = mfpt_solve(p)
        pi = stationary_solve(p)
        assert sum(pi) == 1 and all(x > 0 for x in pi)
        for i, j in itertools.product(range(n), repeat=2):
            if i == j:
                assert m[j][j] == 1 / pi[j]
            else:
                assert m[i][j] == 1 + sum(p.rows[i][k] * m[k][j]
                                          for k in range(n) if k != j)


def test_stationary_law_and_fundamental_matrix_meet_their_definitions():
    # the facts the one chain solve rests on, exactly: pi P = pi with
    # sum(pi) = 1, Z (I - P + 1 pi^T) = I, and sum_j m_ij / m_jj = tr Z
    # from every start state
    for p in _first_step_chains():
        n = p.n
        pi = stationary_solve(p)
        z = fundamental_matrix(p)
        m = mfpt_solve(p)
        k = kemeny_trace(p)
        assert sum(pi) == 1
        assert all(sum(pi[i] * p.rows[i][j] for i in range(n)) == pi[j]
                   for j in range(n))
        a = [[(1 if i == j else 0) - p.rows[i][j] + pi[j] for j in range(n)]
             for i in range(n)]
        for i, j in itertools.product(range(n), repeat=2):
            assert sum(z[i][c] * a[c][j] for c in range(n)) == (i == j)
        for i in range(n):
            assert sum(m[i][j] / m[j][j] for j in range(n)) == k


def test_green_and_hitting_share_one_elimination(monkeypatch):
    from forestchain import oracle
    p = random_irreducible_chain(random.Random(2031), 6)
    real = oracle._exchange
    calls = []

    def counting(t, positions, *d):
        calls.append((len(t), len(positions)))
        return real(t, positions, *d)

    monkeypatch.setattr(oracle, "_exchange", counting)
    oracle._chain_store.cache_clear()
    # {1, 4} has no kept parent, so each root set is eliminated once
    for roots in ({0}, {1, 4}):
        g = green_matrix_solve(p, roots)
        h = hitting_solve(p, roots)
        # H = G P_R: the two halves of one solve agree with each other
        keep = [v for v in range(6) if v not in roots]
        assert h == tuple(
            tuple(sum(g[a][c] * p.rows[k][b] for c, k in enumerate(keep))
                  for b in sorted(roots)) for a in range(len(keep)))
    assert calls == [(5, 5), (4, 4)]
    # pi, Kemeny's trace, Z and every passage time read one chain solve
    calls.clear()
    pi, k = stationary_solve(p), kemeny_trace(p)
    z, m = fundamental_matrix(p), mfpt_solve(p)
    assert calls == [(6, 6)]
    assert k == sum(z[i][i] for i in range(6))
    assert m[1][0] == (z[0][0] - z[1][0]) / pi[0]


def test_kept_solves_are_bounded_and_read_only(monkeypatch):
    from forestchain import oracle
    # the chain solve and the root-set solves are kept as tuples, and each
    # chain's store holds a bounded number of root sets
    p = random_irreducible_chain(random.Random(2033), 4)
    g, _ = oracle._chain_solve(p)
    assert all(type(t) is tuple for t in (g, *g))
    monkeypatch.setattr(oracle, "_ROOT_SET_SOLVE_CACHE_SIZE", 3)
    oracle._chain_store(p).clear()
    sweep = [frozenset(c) for r in (1, 2, 3)
             for c in itertools.combinations(range(4), r)]
    for roots in sweep:
        oracle._root_set_solve(p, roots)
        store = oracle._chain_store(p)
        assert len(store) <= 3
        assert all(type(t) is tuple for x, _ in store.values()
                   for t in (x, *x))
    # first in, first out: the last three root sets are the ones kept
    assert list(oracle._chain_store(p)) == sweep[-3:]


def _count_solves(monkeypatch):
    """A list of the free states of each root set eliminated afresh, on
    cold root-set solves and no kept chain solve."""
    from forestchain import oracle
    real = oracle._eliminate_root_set
    calls = []

    def counting(p, roots):
        calls.append(p.n - len(roots))
        return real(p, roots)

    monkeypatch.setattr(oracle, "_eliminate_root_set", counting)
    oracle._chain_store.cache_clear()
    return calls


def test_a_root_set_with_a_kept_parent_is_pivoted(monkeypatch):
    from forestchain import oracle
    p = random_irreducible_chain(random.Random(2035), 6)
    calls = _count_solves(monkeypatch)
    g1 = green_matrix_solve(p, {2})
    assert calls == [5]
    # {2, 4} and {0, 2, 4} each read off the kept root set one rank below
    g2, h2 = green_matrix_solve(p, {2, 4}), hitting_solve(p, {4, 2})
    g3 = green_matrix_solve(p, {0, 2, 4})
    assert calls == [5]
    assert set(oracle._chain_store(p)) == {
        frozenset({2}), frozenset({2, 4}), frozenset({0, 2, 4})}
    # the same as eliminating each afresh
    oracle._chain_store(p).clear()
    assert (green_matrix_solve(p, {2, 4}), hitting_solve(p, {2, 4})) \
        == (g2, h2)
    oracle._chain_store(p).clear()
    assert green_matrix_solve(p, {0, 2, 4}) == g3
    assert green_matrix_solve(p, {2}) == g1
    assert calls == [5, 4, 3, 5]


def test_an_infeasible_root_set_is_never_kept(monkeypatch, r3):
    from forestchain import oracle
    calls = _count_solves(monkeypatch)
    messages = []
    for _ in range(2):
        with pytest.raises(InfeasibleRootSetError) as err:
            hitting_solve(r3, {1})
        messages.append(str(err.value))
    assert messages == ["root set [1] infeasible: L(R) is singular"] * 2
    assert calls == [2, 2] and not oracle._chain_store(r3)
    # neither parent of {1, 2} is kept, so it is eliminated, not pivoted
    with pytest.raises(InfeasibleRootSetError):
        green_matrix_solve(r3, {2})
    assert hitting_solve(r3, {1, 2}) == ((F(1, 2), F(1, 2)),)
    assert calls == [2, 2, 2, 1]
    assert list(oracle._chain_store(r3)) == [frozenset({1, 2})]


def _proper_root_sets(n):
    return [frozenset(c) for r in range(1, n)
            for c in itertools.combinations(range(n), r)]


def test_pivots_equal_fresh_eliminations(monkeypatch):
    # (d X, d) read off a kept parent by one pivot is, integer for integer,
    # what eliminating L(R) afresh gives, over every proper root set in rank
    # order, in reverse rank order, and from each of its parents in turn
    from forestchain import oracle
    rng = random.Random(2037)
    chains = []
    for t in range(120):
        n = 2 + t % 6
        if t % 3 == 0:  # dense
            weights = [[rng.randint(1, 9) for _ in range(n)] for _ in range(n)]
            chains.append(chain([[F(w, sum(ws)) for w in ws]
                                 for ws in weights]))
            continue
        rows = [list(row) for row in random_chain(rng, n).rows]  # sparse
        if t % 3 == 2:  # reducible: state 0 absorbing, and state 1 too
            for v in range(1 + t % 2):
                rows[v] = [F(int(u == v)) for u in range(n)]
        chains.append(chain(rows))
    assert sum(irreducibility_certificate(p) is not None for p in chains) >= 40
    calls = _count_solves(monkeypatch)

    def solve(p, roots):
        try:
            return oracle._root_set_solve(p, roots)
        except InfeasibleRootSetError:
            return None

    pivots = 0
    for p in chains:
        sets = _proper_root_sets(p.n)
        fresh = {}
        for roots in sets:
            oracle._chain_store(p).clear()
            fresh[roots] = solve(p, roots)
        for order in (sets, sets[::-1]):
            oracle._chain_store(p).clear()
            before = len(calls)
            assert [solve(p, roots) for roots in order] \
                == [fresh[roots] for roots in order]
            pivots += len(order) - (len(calls) - before)
        for roots in sets:
            if fresh[roots] is None:
                continue
            for v in set(range(p.n)) - roots - {max(set(range(p.n)) - roots)}:
                oracle._chain_store(p).clear()
                solve(p, roots)
                before = len(calls)
                assert solve(p, roots | {v}) == fresh[roots | {v}]
                assert len(calls) == before
                pivots += 1
    assert pivots >= 5000


def test_kept_solves_meet_their_defining_equations():
    # every kept (t, d), eliminated afresh, read off a kept parent or read
    # off the kept chain solve: d = det L_s(R) by ``exact_det``, which swaps
    # rows where a solve never does and is checked against the Leibniz
    # expansion above, and L_s(R) t = d [I | nums_R] in integers, for
    # L_s(R) = L(R) with row i times dens_i; an infeasible root set is
    # refused, and its det is 0
    checked = refused = 0
    for p in corpus_chains(150, 7, 1069):
        n = p.n
        nums, dens = scaled_rows(p)
        sets = [frozenset(c) for r in range(n + 1)
                for c in itertools.combinations(range(n), r)]
        for fresh in (True, False):
            oracle._chain_store.cache_clear()
            if not fresh and irreducibility_certificate(p) is None:
                stationary_solve(p)  # singletons read off the chain solve
            for roots in sets:
                if fresh:
                    oracle._chain_store(p).clear()
                keep = [v for v in range(n) if v not in roots]
                rs = sorted(roots)
                lap = [[(dens[i] if i == j else 0) - nums[i][j] for j in keep]
                       for i in keep]
                det = exact_det(lap)
                try:
                    t, d = oracle._root_set_solve(p, roots)
                except InfeasibleRootSetError:
                    assert det == 0
                    refused += 1
                    continue
                assert d == det != 0
                f = len(keep)
                assert [[sum(lap[i][k] * t[k][j] for k in range(f))
                         for j in range(f + len(rs))] for i in range(f)] \
                    == [[d * (i == j) for j in range(f)]
                        + [d * nums[keep[i]][b] for b in rs]
                        for i in range(f)]
                checked += 1
    assert checked >= 5000 and refused >= 200


def _dense_and_sparse(rng, n):
    weights = [[rng.randint(1, 9) for _ in range(n)] for _ in range(n)]
    return (chain([[F(w, sum(ws)) for w in ws] for ws in weights]),
            random_irreducible_chain(rng, n))


def test_singletons_read_off_the_chain_solve_equal_fresh_solves(monkeypatch):
    # once a chain's solve is kept, each singleton is read off it with no
    # elimination, integer for integer what a fresh solve gives; the empty
    # root set still is refused
    rng = random.Random(2039)
    for n in range(2, 10):
        for p in _dense_and_sparse(rng, n):
            with monkeypatch.context() as m:
                calls = _count_solves(m)
                fresh = []
                for v in range(n):
                    oracle._chain_store(p).clear()
                    fresh.append(oracle._root_set_solve(p, frozenset({v})))
                assert calls == [n - 1] * n
                calls.clear()
                stationary_solve(p)
                oracle._chain_store(p).clear()
                assert [oracle._root_set_solve(p, frozenset({v}))
                        for v in range(n)] == fresh
                assert calls == []
                with pytest.raises(InfeasibleRootSetError) as err:
                    green_matrix_solve(p, ())
                assert str(err.value) == \
                    "root set [] infeasible: L(R) is singular"
                assert calls == [n] and oracle._chain_store(p).chain


def test_a_cold_or_reducible_chain_never_reads_the_chain_solve(monkeypatch):
    # a singleton reads the chain solve only where it is kept already: a
    # cold read eliminates and starts no chain solve, and a reducible chain
    # has none to read, whatever other chain's solve is kept
    reads = []
    real = oracle._singleton
    monkeypatch.setattr(oracle, "_singleton",
                        lambda *a: reads.append(a) or real(*a))
    calls = _count_solves(monkeypatch)
    p = random_irreducible_chain(random.Random(2041), 5)
    hitting_solve(p, {3})
    assert calls == [4] and oracle._chain_store(p).chain is None
    stationary_solve(p)
    # state 0 absorbs, and every other state drains to it
    q = chain([[1, 0, 0], [F(1, 2), F(1, 2), 0], [0, F(1, 2), F(1, 2)]])
    with pytest.raises(ReducibleChainError):
        stationary_solve(q)
    assert hitting_solve(q, {0}) == ((F(1),), (F(1),))
    assert calls == [4, 2] and reads == []
    hitting_solve(p, {1})
    assert calls == [4, 2] and len(reads) == 1


def test_stationary_solve(fixture_a, d2):
    assert stationary_solve(fixture_a) == (F(3, 7), F(3, 14), F(5, 14))
    assert stationary_solve(d2) == (F(1, 2), F(1, 2))
    assert stationary_solve(uniform_chain(4)) == (F(1, 4),) * 4


def test_stationary_solve_rejects_reducible(r3):
    with pytest.raises(ReducibleChainError):
        stationary_solve(r3)


def test_mfpt_solve_fixture(fixture_a, d2):
    m = mfpt_solve(fixture_a)
    assert m[0][1] == 3
    assert m[0][2] == F(9, 5)
    assert m[1][0] == F(5, 3)
    assert m[1][2] == F(8, 5)
    assert m[2][0] == 1
    assert m[2][1] == 4  # from 2 the walk must pass 0 first: 1 + m01
    assert m[0][0] == F(7, 3)  # 1/pi_0
    d = mfpt_solve(d2)
    assert d[0][1] == d[1][0] == 1
    for n in range(2, 5):
        u = mfpt_solve(uniform_chain(n))
        assert all(u[i][j] == n for i in range(n) for j in range(n))


def test_fundamental_and_kemeny_trace(fixture_a, d2):
    assert kemeny_trace(fixture_a) == F(16, 7)
    assert kemeny_trace(d2) == F(3, 2)
    z = fundamental_matrix(d2)
    assert z[0][0] + z[1][1] == F(3, 2)
    for n in range(2, 7):
        assert kemeny_trace(uniform_chain(n)) == n


def test_green_matrix_solve(fixture_a, d2):
    assert green_matrix_solve(fixture_a, {0}) == ((F(1), F(2, 3)),
                                                  (F(0), F(1)))
    assert green_matrix_solve(d2, {0}) == ((F(1),),)
    u6 = uniform_chain(6)
    g = green_matrix_solve(u6, {0, 1})
    for a in range(4):
        for b in range(4):
            assert g[a][b] == (F(3, 2) if a == b else F(1, 2))


def test_green_matrix_solve_infeasible(r3):
    with pytest.raises(InfeasibleRootSetError):
        green_matrix_solve(r3, {1})


def test_hitting_solve(fixture_a, r3):
    assert hitting_solve(r3, {1, 2})[0] == (F(1, 2), F(1, 2))
    assert hitting_solve(fixture_a, {1, 2})[0] == (F(1, 2), F(1, 2))
    rows = hitting_solve(fixture_a, {0})
    assert rows == ((F(1),), (F(1),))


@pytest.mark.parametrize("solve, want", [
    (green_matrix_solve, ((F(3, 2),),)),
    (hitting_solve, ((F(1, 2), F(1, 2)),)),
])
def test_root_set_solves_refuse_roots_that_are_not_states(monkeypatch, solve,
                                                          want):
    from forestchain import oracle
    p = uniform_chain(3)
    # -1 would wrap to state 2, and n would be dropped or overrun a row;
    # both are refused before the kept solve is asked
    monkeypatch.setattr(oracle, "_root_set_solve", None)
    for root in (-1, 3):
        with pytest.raises(ValueError,
                           match=f"root {root} out of range for n=3") as err:
            solve(p, {0, root})
        assert not isinstance(err.value, InfeasibleRootSetError)
    monkeypatch.undo()
    assert solve(p, [2, 0]) == want
    with pytest.raises(InfeasibleRootSetError):
        solve(p, set())


def test_cesaro_average(fixture_a, d2, r3):
    avg = cesaro_average(d2, 2)
    assert all(abs(x - 0.5) <= 1e-8 + 1e-5 * 0.5 for row in avg for x in row)
    avg3 = cesaro_average(r3, 10_000)
    assert abs(avg3[0][1] - 0.5) < 1e-3
    pi = (3 / 7, 3 / 14, 5 / 14)
    avg_a = cesaro_average(fixture_a, 10_000)
    assert [len(row) for row in avg_a] == [3, 3, 3]
    assert max(abs(x - q) for row in avg_a for x, q in zip(row, pi)) < 1e-3


def test_sigma1_series(fixture_a, d2):
    approx = sigma1_series(fixture_a, 500)
    assert abs(approx - 7 / 3) / (7 / 3) < 1e-6
    for n in range(2, 5):
        assert abs(sigma1_series(uniform_chain(n), 500) - 1) < 1e-6
    with pytest.raises(PeriodicChainError):
        sigma1_series(d2, 100)


def test_sigma1_series_rejects_reducible(r3):
    with pytest.raises(ReducibleChainError):
        sigma1_series(r3, 100)


def test_period(fixture_a, d2):
    assert period(d2) == 2
    assert period(fixture_a) == 1
    assert period(uniform_chain(3)) == 1
    ring4 = chain([[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0]])
    assert period(ring4) == 4


def test_irreducibility_certificate(fixture_a, r3):
    assert irreducibility_certificate(fixture_a) is None
    cert = irreducibility_certificate(r3)
    assert cert is not None
    i, j = cert
    assert (i, j) in {(1, 0), (1, 2), (2, 0), (2, 1)}


def _certificate_by_one_search_per_state(p):
    for i in range(p.n):
        reach = reachable(p.support(), (i,))
        for j in range(p.n):
            if j not in reach:
                return (i, j)
    return None


def test_irreducibility_certificate_matches_one_search_per_state():
    rng = random.Random(30)
    chains = []
    for t in range(600):
        n = 1 + t % 9
        rows = [list(row) for row in random_chain(rng, n).rows]
        if t % 3 == 0:  # some states absorbing, state 0 among them or not
            for v in rng.sample(range(n), 1 + t % n):
                rows[v] = [F(int(u == v)) for u in range(n)]
        elif t % 3 == 1:  # a ring, or one with a state absorbing
            cut = rng.randrange(n + 1)
            rows = [[F(int(u == (v if v == cut else (v + 1) % n)))
                     for u in range(n)] for v in range(n)]
        chains.append(chain(rows))
    certs = [_certificate_by_one_search_per_state(p) for p in chains]
    assert sum(c is not None and c[0] > 0 for c in certs) >= 50
    assert sum(c is not None and c[0] == 0 for c in certs) >= 50
    assert [irreducibility_certificate(p) for p in chains] == certs


def test_require_irreducible_error_is_the_same_when_cached(r3, monkeypatch):
    from forestchain import oracle
    oracle._chain_store.cache_clear()
    searches = []
    real = oracle.reachable
    monkeypatch.setattr(oracle, "reachable",
                        lambda *a: searches.append(a) or real(*a))
    errors, counts = [], []
    for _ in range(2):
        with pytest.raises(ReducibleChainError) as exc:
            require_irreducible(r3)
        errors.append(exc.value)
        counts.append(len(searches))
    # the certificate is searched for once and then read from the store
    assert counts[0] > 0 and counts[1] == counts[0]
    first, second = errors
    assert str(first) == str(second)
    assert first.certificate == second.certificate == irreducibility_certificate(r3)
    assert first.infeasible_singletons == second.infeasible_singletons


def _imported_names(module) -> set[str]:
    import ast
    with open(module.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add(node.module or "")
            names.update(alias.name for alias in node.names)
    return names


def test_oracle_does_not_import_the_forest_route():
    from forestchain import oracle
    names = _imported_names(oracle)
    assert not any("forests" in name or "formulas" in name for name in names)


def test_forest_route_does_not_import_the_oracle():
    from forestchain import forests
    names = _imported_names(forests)
    assert not any("oracle" in name or "formulas" in name for name in names)


def test_recurrent_classes(fixture_a, r3):
    rc = recurrent_classes(r3)
    assert rc.classes == ((1,), (2,))
    assert rc.transient == (0,)
    assert rc.class_of(1) == 0 and rc.class_of(0) is None
    whole = recurrent_classes(fixture_a)
    assert whole.classes == ((0, 1, 2),)
    assert whole.transient == ()


def _reach_from_every_state(p):
    return [reachable(p.support(), (i,)) for i in range(p.n)]


def _reach_masks(adjacent):
    # every state's full reach set as a bit mask, with no search: sweep
    # reach[i] = {i} | the reach sets of i's successors, up and down the
    # states in turn, until a sweep changes nothing
    reach = [1 << i for i in range(len(adjacent))]
    order = list(range(len(adjacent)))
    changed = True
    while changed:
        changed = False
        for i in order:
            r = reach[i]
            for j in adjacent[i]:
                r |= reach[j]
            if r != reach[i]:
                reach[i] = r
                changed = True
        order.reverse()
    return reach


def _recurrent_classes_by_reach_sets(p):
    # the classes from the full reach sets of every state: i is recurrent
    # when all it reaches reaches it back, and its class is what it reaches
    back = [[] for _ in range(p.n)]
    for i, row in enumerate(p.support()):
        for j in row:
            back[j].append(i)
    reach, reached_by = _reach_masks(p.support()), _reach_masks(back)
    classes, transient = set(), []
    for i in range(p.n):
        if reach[i] & ~reached_by[i]:
            transient.append(i)
        else:
            classes.add(reach[i])
    classes = sorted(tuple(j for j in range(p.n) if mask >> j & 1)
                     for mask in classes)
    return RecurrentClasses(tuple(classes), tuple(transient))


def _states_not_reaching_all_by_search_per_state(p):
    # j is listed when some state misses it: one reverse search per state
    return tuple(j for j in range(p.n) if states_not_reaching(p, {j}))


def _graph_corpus(seed, count):
    # random_chain's own zeros, and every third chain with absorbing states
    rng = random.Random(seed)
    chains = []
    for t in range(count):
        p = random_chain(rng, 1 + t % 9)
        if t % 3 == 0:
            rows = [list(row) for row in p.rows]
            for v in rng.sample(range(p.n), 1 + t % p.n):
                rows[v] = [F(int(u == v)) for u in range(p.n)]
            p = chain(rows)
        chains.append(p)
    return chains


def test_recurrent_classes_match_the_reach_set_reference():
    chains = _graph_corpus(31, 3000)
    want = [_recurrent_classes_by_reach_sets(p) for p in chains]
    assert sum(len(rc.classes) > 1 for rc in want) >= 300
    assert sum(len(rc.classes) == 1 and rc.transient != () for rc in want) >= 300
    assert sum(rc.transient == () for rc in want) >= 300
    assert [recurrent_classes(p) for p in chains] == want


def test_states_not_reaching_all_matches_one_search_per_state():
    chains = _graph_corpus(32, 3000)
    want = [_states_not_reaching_all_by_search_per_state(p) for p in chains]
    # and the reverse searches agree with the forward reach sets
    assert want == [tuple(j for j in range(p.n)
                          if any(j not in r for r in _reach_from_every_state(p)))
                    for p in chains]
    assert sum(0 < len(bad) < p.n for p, bad in zip(chains, want)) >= 300
    assert sum(len(bad) == p.n for p, bad in zip(chains, want)) >= 300
    assert [states_not_reaching_all(p) for p in chains] == want


def _reducible_ring(n):
    # the ring i -> i +- 1 with probability 1/2 each, state 0 absorbing
    return chain_from_edge_list("0 0 1\n" + "".join(
        f"{i} {(i + d) % n} 1/2\n" for i in range(1, n) for d in (1, -1)))


def test_recurrent_classes_of_long_chains_match_the_reach_set_reference():
    n = 2048
    forward = chain_from_edge_list("".join(
        f"{i} {i + 1} 1\n" for i in range(n - 1)) + f"{n - 1} {n - 1} 1\n")
    backward = chain_from_edge_list("0 0 1\n" + "".join(
        f"{i} {i - 1} 1\n" for i in range(1, n)))
    for p, want in ((forward, RecurrentClasses(((n - 1,),), tuple(range(n - 1)))),
                    (backward, RecurrentClasses(((0,),), tuple(range(1, n)))),
                    (_reducible_ring(n),
                     RecurrentClasses(((0,),), tuple(range(1, n))))):
        assert _recurrent_classes_by_reach_sets(p) == want
        assert recurrent_classes(p) == want
    # the forward path's 2048 transient states are 2048 components, each
    # closed off as the search backs out of it, with no recursion
    assert states_not_reaching_all(forward) == tuple(range(n - 1))


def test_infeasible_singletons_of_a_reducible_ring_take_few_searches(monkeypatch):
    p = _reducible_ring(2048)
    calls = []
    real = oracle.reachable

    def counting(adjacent, starts):
        calls.append(starts)
        return real(adjacent, starts)

    monkeypatch.setattr(oracle, "reachable", counting)
    # the classes, and with them the infeasible singletons, come from one
    # strongly-connected-components pass, with no reachability search
    assert states_not_reaching_all(p) == tuple(range(1, 2048))
    assert calls == []
    assert recurrent_classes(p) == RecurrentClasses(((0,),), tuple(range(1, 2048)))
    assert calls == []


def test_no_targets_are_reached_by_no_state(fixture_a, r3):
    for p in (fixture_a, r3, uniform_chain(1)):
        assert states_not_reaching(p, ()) == tuple(range(p.n))


# ---------------------------------------------------------------------------
# undirected counting identities

def _complete_laplacian(n):
    return tuple(tuple(F(n - 1) if i == j else F(-1) for j in range(n))
                 for i in range(n))


def test_undirected_tree_count_examples():
    # Cayley: K_n has n^(n-2) spanning trees
    assert undirected_tree_count(_complete_laplacian(2)) == 1
    assert undirected_tree_count(_complete_laplacian(3)) == 3
    assert undirected_tree_count(_complete_laplacian(4)) == 16
    # weighted: the path 0 - 1 - 2 with weights 2 and 3
    path = ((F(2), F(-2), F(0)), (F(-2), F(5), F(-3)), (F(0), F(-3), F(3)))
    assert undirected_tree_count(path) == 6


def test_undirected_tree_count_rejects_asymmetric():
    # rows sum to zero, but 0 -> 1 weighs 2 and 1 -> 0 weighs 1
    with pytest.raises(ValueError, match="asymmetric entries at \\(0,1\\)"):
        undirected_tree_count(((F(2), F(-2)), (F(-1), F(1))))
    with pytest.raises(ValueError, match="not a Laplacian"):
        undirected_tree_count(((F(1), F(0)), (F(0), F(1))))


def test_complete_prism_is_the_prism_laplacian():
    n, m = 3, 4
    lap = complete_prism(n, m)
    assert len(lap) == n * m
    for u in range(n * m):
        a, b = divmod(u, m)
        neighbours = {a2 * m + b for a2 in range(n) if a2 != a} \
            | {a * m + (b + 1) % m, a * m + (b - 1) % m}
        assert lap[u] == tuple(
            F(n + 1) if v == u else F(-1) if v in neighbours else F(0)
            for v in range(n * m))


def test_cofactor_choice_independence():
    lap = _triangle_laplacian()
    values = {laplacian_cofactor(lap, i, j)
              for i in range(3) for j in range(3)}
    assert values == {F(3)}


def test_cofactor_indices_outside_the_matrix_are_refused():
    # an index past either end once dropped nothing, and the cofactor read
    # det L = 0 in place of the 3 spanning trees of K3
    lap = _triangle_laplacian()
    for i, j in ((3, 3), (-1, -1), (0, 3), (3, 0), (-1, 2)):
        with pytest.raises(ValueError, match="out of range for n=3"):
            laplacian_cofactor(lap, i, j)
    assert laplacian_cofactor(lap, 2, 0) == laplacian_cofactor(lap, 0, 2) == 3


def test_undirected_checks_refuse_an_empty_matrix():
    # the identities divide by n, and an empty graph has no tree to count
    for check in (undirected_tree_count, temperley_check, minor_product_check):
        for empty in ((), []):
            with pytest.raises(ValueError, match="empty matrix"):
                check(empty)
    # one vertex is a graph with one spanning tree
    one = ((F(0),),)
    assert undirected_tree_count(one) == 1
    assert temperley_check(one) == minor_product_check(one) == (1, 1)


def test_temperley_check():
    lhs, rhs = temperley_check(_triangle_laplacian())
    assert lhs == rhs == 3
    path = ((F(1), F(-1)), (F(-1), F(1)))
    assert temperley_check(path) == (1, 1)
    k4 = tuple(tuple(F(3) if i == j else F(-1) for j in range(4))
               for i in range(4))
    assert temperley_check(k4) == (16, 16)


def test_temperley_check_rejects_non_laplacian():
    with pytest.raises(ValueError):
        temperley_check(((F(1), F(0)), (F(0), F(1))))


def test_minor_product_check():
    lhs, rhs = minor_product_check(_triangle_laplacian())
    assert lhs == rhs == 3
    disconnected = ((F(1), F(-1), F(0), F(0)),
                    (F(-1), F(1), F(0), F(0)),
                    (F(0), F(0), F(1), F(-1)),
                    (F(0), F(0), F(-1), F(1)))
    lhs, rhs = minor_product_check(disconnected)
    assert lhs == rhs == 0


def test_prism_tree_count():
    assert prism_tree_count(2, 3) == 75
    # every prism of at most 30 vertices, by one cofactor
    for n in range(2, 11):
        for m in range(3, 30 // n + 1):
            g = complete_prism(n, m)
            assert prism_tree_count(n, m) == undirected_tree_count(g)
    # exact above 2^53 and past float range, against the integer forms
    # of the closed form at m = 3 and m = 4
    for n in (*range(2, 12), 50, 200):
        assert prism_tree_count(n, 3) \
            == 3 * n ** (n - 2) * (n + 3) ** (2 * n - 2)
        assert prism_tree_count(n, 4) \
            == 4 * n ** (n - 2) * ((n + 4) * (n + 2) ** 2) ** (n - 1)
    with pytest.raises(ValueError):
        complete_prism(1, 3)
    with pytest.raises(ValueError):
        complete_prism(2, 2)
    with pytest.raises(ValueError, match="exceeds the limit of 2048 states"):
        prism_tree_count(2, 100000)
