import itertools
import random
from fractions import Fraction

import pytest

from forestchain import (
    InfeasibleRootSetError,
    PeriodicChainError,
    ReducibleChainError,
    SingularMatrixError,
    WeightedDigraph,
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
from forestchain.oracle import _solve, require_irreducible
from forestchain.verify import random_irreducible_chain

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


def test_exact_det_matches_leibniz_expansion():
    rng = random.Random(11)
    singular = 0
    for t in range(300):
        n = 1 + t % 5
        m = _seeded_matrix(rng, n)
        if t % 3 == 0:
            m[0][0] = F(0)  # the first pivot needs a row swap
        if t % 7 == 0 and n > 1:
            m[-1] = [x * F(-2, 3) for x in m[0]]
        expected = _leibniz_det(m)
        assert exact_det(m) == expected
        singular += expected == 0
    assert singular >= 40


def test_solve_satisfies_the_system_exactly():
    rng = random.Random(12)
    systems = [([[F(0), F(1)], [F(1), F(0)]], [[F(2)], [F(3)]])]
    while len(systems) < 100:
        n = 2 + len(systems) % 4
        a = _seeded_matrix(rng, n)
        a[0][0] = F(0)  # the first pivot needs a row swap
        if _leibniz_det(a) == 0:
            continue
        b = [[F(rng.randint(-5, 5), rng.randint(1, 3))
              for _ in range(1 + n % 3)] for _ in range(n)]
        systems.append((a, b))
    for a, b in systems:
        n, width = len(a), len(b[0])
        # d X in integers over the last pivot d
        dx, d = _solve(a, b)
        assert all(type(v) is int for row in dx for v in row)
        x = [[F(v, d) for v in row] for row in dx]
        assert [[sum((a[i][k] * x[k][j] for k in range(n)), F(0))
                 for j in range(width)] for i in range(n)] == b


def test_solve_refuses_singular_systems():
    rng = random.Random(13)
    for t in range(40):
        n = 2 + t % 4
        a = _seeded_matrix(rng, n)
        a[t % n] = [3 * x for x in a[(t + 1) % n]]
        eye = [[F(int(i == j)) for j in range(n)] for i in range(n)]
        with pytest.raises(SingularMatrixError):
            _solve(a, eye)
    with pytest.raises(SingularMatrixError):
        _solve([[F(0), F(1)], [F(0), F(2)]], [[F(1)], [F(1)]])


def test_passage_green_and_hitting_solves_take_integer_rows(monkeypatch):
    # I - P is built with each row scaled by its denominator, so these solves
    # hand the elimination integers and never build a Fraction Laplacian
    from forestchain import chains as chains_module, oracle
    p = chain([[F(1, 2), F(1, 2) - F(1, 1000003), F(1, 1000003)],
               [F(1, 1000003), F(0), F(1000002, 1000003)],
               [F(2, 3), F(1, 7), F(4, 21)]])
    # mfpt_solve reads pi from this cache
    pi = stationary_solve(p)

    def run():
        return (green_matrix_solve(p, {0}), green_matrix_solve(p, {1, 2}),
                hitting_solve(p, {0}), hitting_solve(p, {0, 2}), mfpt_solve(p))

    expected = run()
    real = oracle._solve
    sizes = []

    def integer_rows(a, b):
        assert all(type(x) is int for row in (*a, *b) for x in row)
        sizes.append(len(a))
        return real(a, b)

    def no_fraction_laplacian(*args, **kwargs):
        raise AssertionError("built I - P over Fractions")

    monkeypatch.setattr(oracle, "_solve", integer_rows)
    # the oracle does not import the Fraction Laplacian at all
    assert not hasattr(oracle, "laplacian")
    monkeypatch.setattr(chains_module, "laplacian", no_fraction_laplacian)
    oracle._root_set_solve.cache_clear()
    oracle._fundamental_solve.cache_clear()
    assert run() == expected
    # L({1, 2}) and L({0, 2}) once each, L({0}) twice (the memo keeps one
    # root set, and L({1, 2}) comes between L({0})'s two reads), and Z once
    # for every passage time
    assert sorted(sizes) == [1, 1, 2, 2, 3]
    # the stationary system is integer too: one solve in y_i = pi_i / dens_i
    sizes.clear()
    stationary_solve.cache_clear()
    assert stationary_solve(p) == pi and sizes == [3]
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


def test_green_and_hitting_share_one_elimination(monkeypatch):
    from forestchain import oracle
    p = random_irreducible_chain(random.Random(2031), 6)
    real = oracle._solve
    calls = []

    def counting(a, b):
        calls.append(len(a))
        return real(a, b)

    monkeypatch.setattr(oracle, "_solve", counting)
    oracle._root_set_solve.cache_clear()
    for roots in ({0}, {1, 4}):
        g = green_matrix_solve(p, roots)
        h = hitting_solve(p, roots)
        # H = G P_R: the two halves of one solve agree with each other
        keep = [v for v in range(6) if v not in roots]
        assert h == tuple(
            tuple(sum(g[a][c] * p.rows[k][b] for c, k in enumerate(keep))
                  for b in sorted(roots)) for a in range(len(keep)))
    assert calls == [5, 4]
    # Kemeny's trace, Z and every passage time read one fundamental solve
    stationary_solve(p)
    oracle._fundamental_solve.cache_clear()
    calls.clear()
    k, z, m = kemeny_trace(p), fundamental_matrix(p), mfpt_solve(p)
    assert calls == [6]
    assert k == sum(z[i][i] for i in range(6))
    assert m[1][0] == (z[0][0] - z[1][0]) / stationary_solve(p)[0]


def test_kept_solves_are_bounded_and_read_only():
    from forestchain import oracle
    # the calls each memo joins come one after the other, so one entry does
    for cached in (oracle._fundamental_solve, oracle._root_set_solve):
        assert cached.cache_info().maxsize == 1
    p = random_irreducible_chain(random.Random(2033), 4)
    z, _ = oracle._fundamental_solve(p)
    x, _ = oracle._root_set_solve(p, frozenset({0}))
    assert all(type(t) is tuple for t in (z, x, *z, *x))


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


def test_require_irreducible_error_is_the_same_when_cached(r3):
    irreducibility_certificate.cache_clear()
    errors = []
    for _ in range(2):
        with pytest.raises(ReducibleChainError) as exc:
            require_irreducible(r3)
        errors.append(exc.value)
    info = irreducibility_certificate.cache_info()
    assert (info.misses, info.hits) == (1, 1)
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


# ---------------------------------------------------------------------------
# undirected counting identities

def test_undirected_tree_count_examples():
    triangle = WeightedDigraph(3, tuple(
        (i, j, F(1)) for i in range(3) for j in range(3) if i != j))
    assert undirected_tree_count(triangle) == 3
    k4 = WeightedDigraph(4, tuple(
        (i, j, F(1)) for i in range(4) for j in range(4) if i != j))
    assert undirected_tree_count(k4) == 16
    path2 = WeightedDigraph(2, ((0, 1, F(1)), (1, 0, F(1))))
    assert undirected_tree_count(path2) == 1


def test_undirected_tree_count_rejects_asymmetric():
    g = WeightedDigraph(2, ((0, 1, F(2)), (1, 0, F(1))))
    with pytest.raises(ValueError):
        undirected_tree_count(g)


def test_cofactor_choice_independence():
    lap = _triangle_laplacian()
    values = {laplacian_cofactor(lap, i, j)
              for i in range(3) for j in range(3)}
    assert values == {F(3)}


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
    for n, m in ((2, 3), (2, 4), (2, 5), (2, 6), (3, 3), (3, 4), (4, 3)):
        g = complete_prism(n, m)
        assert prism_tree_count(n, m) == undirected_tree_count(g)
    with pytest.raises(ValueError):
        complete_prism(1, 3)
    with pytest.raises(ValueError):
        complete_prism(2, 2)
