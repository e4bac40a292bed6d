import collections
import gc
import itertools
import math
import random
import time
import tracemalloc
from fractions import Fraction

import pytest

from forestchain import (
    CycleWeights,
    Ecrsf,
    EnumerationGuardError,
    InfeasibleRootSetError,
    RootedForest,
    cayley_count,
    exact_det,
    ecrsf_weight,
    enumerate_ecrsf,
    enumerate_forests,
    exact_law,
    forest_weight,
    irreducibility_certificate,
    laplacian,
    last_exit_state,
    sigma_pair,
    sigma_r,
    sigma_sums,
    uniform_chain,
    w_ec_sums,
    w_sum,
    w_target_sum,
)

from forestchain import chains, forests, formulas, oracle, wilson
from forestchain.forests import (
    RootSetSums,
    _layer_sums,
    _tree_deletion_rows,
    root_set_sums,
    two_tree_sums,
)
from forestchain.verify import random_chain, random_irreducible_chain

from conftest import chain


# ---------------------------------------------------------------------------
# structures

def test_rooted_forest_validation():
    f = RootedForest(3, frozenset({0}), (-1, 2, 0))
    assert f.root_of(1) == 0
    assert f.path_to_root(1) == (1, 2, 0)
    assert f.edges() == ((1, 2), (2, 0))
    with pytest.raises(ValueError):
        RootedForest(3, frozenset({0}), (-1, 2, 1))  # 1-2 cycle
    with pytest.raises(ValueError):
        RootedForest(3, frozenset({0}), (-1, 1, 0))  # self-parent
    with pytest.raises(ValueError):
        RootedForest(3, frozenset({0}), (1, -1, 0))  # root must point nowhere


def test_forest_json_round_trip():
    f = RootedForest(4, frozenset({0, 2}), (-1, 0, -1, 2))
    doc = f.to_json()
    assert doc == {"roots": [0, 2], "parent": {"1": 0, "3": 2}}
    parent = {int(v): u for v, u in doc["parent"].items()}
    assert RootedForest(4, frozenset(doc["roots"]),
                        tuple(parent.get(v, -1) for v in range(4))) == f


def test_ecrsf_classification():
    e = Ecrsf(4, frozenset({3}), (1, 0, 0, -1))
    assert e.cycles == ((0, 1),)
    assert e.root_of(2) is None
    assert e.root_of(0) is None
    tree = Ecrsf(2, frozenset({0}), (-1, 0))
    assert tree.cycles == ()
    assert tree.root_of(1) == 0
    assert e.to_json() == {"roots": [3], "parent": {"0": 1, "1": 0, "2": 0},
                           "cycles": [[0, 1]]}


def test_enumerate_forest_counts_match_cayley():
    for n in range(1, 6):
        for k in range(1, n + 1):
            for roots in itertools.combinations(range(n), k):
                count = sum(1 for _ in enumerate_forests(n, roots))
                assert count == cayley_count(n, k)


def test_cayley_values():
    assert cayley_count(4, 2) == 8
    assert cayley_count(3, 3) == 1
    assert cayley_count(7, 1) == 7 ** 5
    with pytest.raises(ValueError):
        cayley_count(3, 0)


def test_guard_refuses_large_enumeration():
    with pytest.raises(EnumerationGuardError, match="guard"):
        list(enumerate_forests(12, {0}, 8))
    # explicit override unlocks it
    assert sum(1 for _ in enumerate_forests(10, set(range(9)), 9)) == 9


def test_enumerate_ecrsf_counts(u4):
    # every successor map on the free states is one configuration
    assert sum(1 for _ in enumerate_ecrsf(3, set())) == 27
    assert sum(1 for _ in enumerate_ecrsf(3, {0})) == 9
    assert sum(1 for _ in enumerate_ecrsf(3, {0, 1})) == 3
    assert sum(1 for _ in enumerate_ecrsf(3, {0, 1, 2})) == 1


def _successor_maps(n, roots):
    """Every successor map on the free states, in itertools.product order."""
    free = [v for v in range(n) if v not in roots]
    maps = []
    for combo in itertools.product(range(n), repeat=len(free)):
        succ = [-1] * n
        for v, u in zip(free, combo):
            succ[v] = u
        maps.append(tuple(succ))
    return maps


def _drains_to_roots(succ):
    """True when every state reaches a root (-1 successor) within n steps."""
    for start in range(len(succ)):
        v = start
        for _ in range(len(succ)):
            if succ[v] == -1:
                break
            v = succ[v]
        if succ[v] != -1:
            return False
    return True


def test_enumeration_order_is_pinned():
    # gof_test sums its chi-square statistic in law order, so seeded
    # `sample --gof` output depends on the order the laws are built in
    for n in range(1, 6):
        for k in range(n + 1):
            for roots in itertools.combinations(range(n), k):
                maps = _successor_maps(n, roots)
                if k:
                    assert ([f.parent for f in enumerate_forests(n, roots)]
                            == [s for s in maps if _drains_to_roots(s)])
                if n <= 4:
                    assert [e.successor for e in enumerate_ecrsf(n, roots)] == maps


def test_enumerated_forests_equal_validated_ones():
    # the enumerator builds forests without re-validating them
    for n in range(1, 6):
        for k in range(1, n + 1):
            for roots in itertools.combinations(range(n), k):
                for f in enumerate_forests(n, roots):
                    g = RootedForest(n, frozenset(roots), f.parent)
                    assert f == g and hash(f) == hash(g)
                    assert ([f.root_of(v) for v in range(n)]
                            == [g.root_of(v) for v in range(n)])


def test_enumerated_ecrsf_equal_validated_ones():
    # the enumerator builds configurations from the walk's root-of vector
    for n in range(1, 5):
        for k in range(n + 1):
            for roots in itertools.combinations(range(n), k):
                for e in enumerate_ecrsf(n, roots):
                    g = Ecrsf(n, frozenset(roots), e.successor)
                    assert e == g and hash(e) == hash(g)
                    assert e.cycles == g.cycles
                    assert ([e.root_of(v) for v in range(n)]
                            == [g.root_of(v) for v in range(n)])


# ---------------------------------------------------------------------------
# weights

def test_forest_weight_examples(fixture_a):
    f = RootedForest(3, frozenset({0}), (-1, 2, 0))
    assert forest_weight(f, fixture_a) == Fraction(2, 3)
    dead = RootedForest(3, frozenset({0}), (-1, 0, 1))
    assert forest_weight(dead, fixture_a) == 0
    empty = RootedForest(2, frozenset({0, 1}), (-1, -1))
    assert forest_weight(empty, chain([[0, 1], [1, 0]])) == 1


def test_w_sum_examples(fixture_a, d2):
    assert w_sum(fixture_a, {0}) == 1
    assert w_sum(fixture_a, {0, 1}) == 1
    assert w_sum(d2, {1}) == 1
    assert w_sum(fixture_a, {0, 1, 2}) == 1
    # state 1 is unreachable in R3-style chains: zero weight, not an error
    r3 = chain([[0, Fraction(1, 2), Fraction(1, 2)], [0, 1, 0], [0, 0, 1]])
    assert w_sum(r3, {0}) == 0


def test_w_sum_matches_enumeration(fixture_a, u4):
    for p in (fixture_a, u4):
        for k in range(1, p.n + 1):
            for roots in itertools.combinations(range(p.n), k):
                total = sum(
                    (forest_weight(f, p) for f in enumerate_forests(p.n, roots)),
                    Fraction(0))
                assert w_sum(p, roots) == total


def _layer_test_chains():
    """Seeded dense, sparse irreducible and reducible chains, n = 1..6."""
    rng = random.Random(2016)
    out = []
    for n in range(1, 7):
        dense = chain([[Fraction(w, sum(ws)) for w in ws]
                       for ws in ([rng.randint(1, 9) for _ in range(n)]
                                  for _ in range(n))])
        reducible = random_chain(rng, n)
        while n > 1 and irreducibility_certificate(reducible) is None:
            reducible = random_chain(rng, n)
        out += [dense, random_irreducible_chain(rng, n), reducible]
    return out


def test_layer_sums_match_forest_enumeration():
    # w(R) and every w_ij(R) against the forests listed one by one
    for p in _layer_test_chains():
        for k in range(1, p.n + 1):
            for roots in itertools.combinations(range(p.n), k):
                total = Fraction(0)
                by_root: dict = {}
                for f in enumerate_forests(p.n, roots):
                    w = forest_weight(f, p)
                    total += w
                    for i in range(p.n):
                        key = (i, f.root_of(i))
                        by_root[key] = by_root.get(key, 0) + w
                assert w_sum(p, roots) == total
                for i in range(p.n):
                    for j in roots:
                        assert w_target_sum(p, roots, i, j) == \
                            by_root.get((i, j), 0)


def test_layer_route_never_walks(monkeypatch, fixture_a):
    rng = random.Random(7)
    p = chain([[Fraction(w, sum(ws)) for w in ws]
               for ws in ([rng.randint(1, 9) for _ in range(5)]
                          for _ in range(5))])
    cases = [(p, {0}), (p, {1, 3}), (fixture_a, {0})]

    def run():
        out = []
        for q, roots in cases:
            out.append((w_sum(q, roots),
                        [w_target_sum(q, roots, i, j)
                         for i in range(q.n) for j in range(q.n)],
                        formulas.analyze(q), formulas.absorption(q, roots)))
        return out

    expected = run()

    def no_walk(*args, **kwargs):
        raise AssertionError("the layer route walked")

    monkeypatch.setattr(forests, "_walk", no_walk)
    _layer_sums.cache_clear()
    assert run() == expected


def test_layer_sums_stay_within_their_bounds(monkeypatch):
    # one chain's memo and its entries per root set, records or weights
    # with their columns, do not grow without bound
    monkeypatch.setattr(forests, "_ROOT_SET_CACHE_SIZE", 4)
    monkeypatch.setattr(forests, "_LAYER_MEMO_SIZE", 20)
    _layer_sums.cache_clear()
    p = uniform_chain(6)
    # weights read alone keep their columns in the same bounded store
    for k in range(1, 6):
        for roots in itertools.combinations(range(6), k):
            assert w_sum(p, roots) == cayley_count(6, k) / Fraction(6) ** (6 - k)
            assert len(_layer_sums(p).root_sets) <= 4
    _layer_sums.cache_clear()
    for k in range(1, 6):
        for roots in itertools.combinations(range(6), k):
            assert w_sum(p, roots) == cayley_count(6, k) / Fraction(6) ** (6 - k)
            root_set_sums(p, roots)
            sums = _layer_sums(p)
            assert len(sums.root_sets) <= 4
            assert isinstance(sums.root_sets[frozenset(roots)], RootSetSums)
            # cleared before a root set once past the bound; one root set
            # with f free states adds at most one entry of n integers per
            # nonempty subset of its free states
            f = 6 - k
            held = sum(len(vals) for vals in sums.memo.values())
            assert held == 6 * len(sums.memo)
            assert held <= 20 + 6 * (2 ** f - 1)


def test_absorption_with_many_roots_is_cheap():
    # n = 40 with three free states: the layer memo indexes subsets of the
    # free states only, never of all n
    n = 40
    p = chain([[Fraction(1 + (3 * i + 7 * j) % 5, sum(1 + (3 * i + 7 * c) % 5
                                                      for c in range(n)))
                for j in range(n)] for i in range(n)])
    roots = set(range(n)) - {4, 19, 33}
    _layer_sums.cache_clear()
    start = time.perf_counter()
    ab = formulas.absorption(p, roots)
    assert time.perf_counter() - start < 1.0
    _layer_sums.cache_clear()
    tracemalloc.start()
    try:
        again = formulas.absorption(p, roots)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert again == ab
    assert ab.green == oracle.green_matrix_solve(p, roots)
    assert ab.hit == oracle.hitting_solve(p, roots)


def test_tree_walk_memory_does_not_grow_with_tree_count():
    # 8^6 = 262144 trees rooted at {0}; the walk keeps no per-tree state
    n = 8
    p = chain([[Fraction((3 * i + 5 * j) % 7 + 1, sum((3 * i + 5 * c) % 7 + 1
                                                      for c in range(n)))
                for j in range(n)] for i in range(n)])
    tracemalloc.start()
    try:
        w = w_sum(p, {0})
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    lap = laplacian(p)
    assert w == exact_det([row[1:] for row in lap[1:]])


def test_w_target_sum_examples(fixture_a):
    assert w_target_sum(fixture_a, {0}, 1, 2) == Fraction(2, 3)
    assert w_target_sum(fixture_a, {0}, 1, 1) == 1
    # j inside R: the harmonic numerator
    assert w_target_sum(fixture_a, {1, 2}, 0, 1) == Fraction(1, 2)
    assert w_target_sum(fixture_a, {1, 2}, 0, 2) == Fraction(1, 2)


def test_w_target_sum_partitions_w(fixture_a, u4):
    # summing the target split over j in R recovers w(R)
    for p in (fixture_a, u4):
        for k in range(1, p.n + 1):
            for roots in itertools.combinations(range(p.n), k):
                w = w_sum(p, roots)
                for i in range(p.n):
                    split = sum((w_target_sum(p, roots, i, j) for j in roots),
                                Fraction(0))
                    assert split == w


def test_sigma_sums_examples(fixture_a, d2):
    sums = sigma_sums(fixture_a)
    assert sums.sigma_vector == (1, Fraction(1, 2), Fraction(5, 6))
    assert sums.sigma1 == Fraction(7, 3)
    assert sigma_sums(d2).sigma_vector == (1, 1)
    for n in range(2, 6):
        assert sigma_sums(uniform_chain(n)).sigma1 == 1


def test_sigma_r_examples(fixture_a):
    assert sigma_r(fixture_a, 1) == Fraction(7, 3)
    assert sigma_r(fixture_a, 2) == 3
    assert sigma_r(fixture_a, 3) == 1
    for n in range(2, 6):
        assert sigma_r(uniform_chain(n), 2) == n - 1
    with pytest.raises(ValueError):
        sigma_r(fixture_a, 4)


def test_root_growth_recursion(fixture_a, u4):
    # w(R + j) = w(R) + sum over k outside R of p_jk * w_kj(R + j);
    # the k = j term is p_jj * w(R + j), present only with self-loops
    for p in (fixture_a, u4):
        for k in range(1, p.n):
            for roots in itertools.combinations(range(p.n), k):
                for j in range(p.n):
                    if j in roots:
                        continue
                    grown = set(roots) | {j}
                    total = w_sum(p, roots) + sum(
                        (p.p(j, t) * w_target_sum(p, grown, t, j)
                         for t in range(p.n) if t not in roots),
                        Fraction(0))
                    assert w_sum(p, grown) == total


def test_tree_sum_flow_identity(fixture_a, u4):
    # weighted redistribution of tree sums through one step of the chain
    for p in (fixture_a, u4):
        sums = sigma_sums(p)
        for j in range(p.n):
            flowed = sum((sums.sigma(i) * p.p(i, j) for i in range(p.n)),
                         Fraction(0))
            assert flowed == sums.sigma(j)


def test_sigma_pair_values(fixture_a, d2):
    assert sigma_pair(fixture_a, 1, 0) == Fraction(5, 3)
    assert sigma_pair(fixture_a, 0, 2) == Fraction(3, 2)
    assert sigma_pair(fixture_a, 0, 1) == Fraction(3, 2)
    assert sigma_pair(d2, 1, 0) == 1
    with pytest.raises(ValueError):
        sigma_pair(fixture_a, 1, 1)
    with pytest.raises(ValueError):
        sigma_pair(fixture_a, 0, 1, method="bogus")


def test_sigma_pair_methods_agree(fixture_a, u4):
    for p in (fixture_a, u4, chain([[Fraction(1, 2), Fraction(1, 2)], [1, 0]])):
        for i in range(p.n):
            for j in range(p.n):
                if i == j:
                    continue
                assert (sigma_pair(p, i, j, "tree-deletion")
                        == sigma_pair(p, i, j, "two-forest"))


def _sigma_pair_by_trees(p, i, j):
    """Sigma_ij straight from the definition: over the trees rooted at j,
    the product of p over every edge except k(i, j, t) -> j."""
    total = Fraction(0)
    for t in enumerate_forests(p.n, {j}):
        k = last_exit_state(t, i)
        w = Fraction(1)
        for v, u in t.edges():
            if v != k:
                w *= p.rows[v][u]
        total += w
    return total


def _reference_chains(fixture_a, u4):
    rng = random.Random(20161)
    return [fixture_a, u4] + [random_irreducible_chain(rng, n)
                              for n in (5, 5, 6, 6)]


def test_sigma_pair_matches_tree_definition(fixture_a, u4):
    # on fixture_a's tree 0 -> 2 -> 1 the deleted arc 2 -> 1 has probability
    # zero; the factor is left out, so the tree still adds p_02 = 1/2
    assert _sigma_pair_by_trees(fixture_a, 0, 1) == Fraction(3, 2)
    for p in _reference_chains(fixture_a, u4):
        for i, j in itertools.permutations(range(p.n), 2):
            assert sigma_pair(p, i, j) == _sigma_pair_by_trees(p, i, j)


def test_tree_deletion_reads_no_pair_tables(monkeypatch, fixture_a, u4):
    # the tree-deletion Sigma_ij must stay independent of the two-forest
    # tables it is checked against
    chains = _reference_chains(fixture_a, u4)
    pairs = [(p, i, j) for p in chains
             for i, j in itertools.permutations(range(p.n), 2)]
    expected = [sigma_pair(p, i, j) for p, i, j in pairs]
    real = forests._root_set_sums

    def singletons_only(p, roots):
        assert len(roots) < 2, f"read the root set {sorted(roots)}"
        return real(p, roots)

    monkeypatch.setattr(forests, "_root_set_sums", singletons_only)
    _tree_deletion_rows.cache_clear()
    assert [sigma_pair(p, i, j) for p, i, j in pairs] == expected


def test_tree_deletion_reads_no_layer_sums(monkeypatch, fixture_a, u4):
    # tree-deletion Sigma_ij comes from the tree walk alone, so treealg
    # compares two different algorithms
    chains = _reference_chains(fixture_a, u4)
    pairs = [(p, i, j) for p in chains
             for i, j in itertools.permutations(range(p.n), 2)]
    expected = [sigma_pair(p, i, j) for p, i, j in pairs]

    def no_layers(p):
        raise AssertionError("tree deletion read the layer sums")

    monkeypatch.setattr(forests, "_layer_sums", no_layers)
    _tree_deletion_rows.cache_clear()
    assert [sigma_pair(p, i, j) for p, i, j in pairs] == expected


def _two_tree_chains(fixture_a, u4):
    """fixture_a, u4, and a seeded dense and sparse chain at n = 2..7."""
    rng = random.Random(2014)
    out = [fixture_a, u4]
    for n in range(2, 8):
        out.append(chain([[Fraction(w, sum(ws)) for w in ws]
                          for ws in ([rng.randint(1, 9) for _ in range(n)]
                                     for _ in range(n))]))
        out.append(random_chain(rng, n))
    return out


def _two_trees_by_forests(p):
    """(Sigma_ij matrix, Sigma^(2)) from the two-tree forests listed one by
    one: a forest rooted at {j, k} adds its weight to Sigma_ij for each i in
    k's tree. Each row is taken over the lcm of its denominators, so the
    weights of one root set are integers over one denominator."""
    n = p.n
    dens = [math.lcm(*(x.denominator for x in row)) for row in p.rows]
    nums = [[x.numerator * (d // x.denominator) for x in row]
            for row, d in zip(p.rows, dens)]
    sigma = [[Fraction(0)] * n for _ in range(n)]
    pairs = Fraction(0)
    for roots in itertools.combinations(range(n), 2):
        denom = math.prod(dens[v] for v in range(n) if v not in roots)
        into = {r: [0] * n for r in roots}
        for f in enumerate_forests(n, roots):
            w = 1
            for v, u in enumerate(f.parent):
                if u >= 0:
                    w *= nums[v][u]
            if w:
                for i in range(n):
                    into[f.root_of(i)][i] += w
        a, b = roots
        # i in k's tree counts towards Sigma_ij, j the other root
        for i in range(n):
            sigma[i][b] += Fraction(into[a][i], denom)
            sigma[i][a] += Fraction(into[b][i], denom)
        pairs += Fraction(into[a][a], denom)
    return sigma, pairs


def test_two_tree_sums_match_both_references(fixture_a, u4):
    # the one-pass two-tree matrix against two-forest and tree-deletion
    # sigma_pair, the forests listed one by one, and sigma_r
    for p in _two_tree_chains(fixture_a, u4):
        sums = two_tree_sums(p)
        d = sums.denom
        assert d == root_set_sums(p, {0}).denom
        by_forests, pairs = _two_trees_by_forests(p)
        for i, j in itertools.product(range(p.n), repeat=2):
            got = Fraction(sums.sigma[i][j], d)
            assert got == by_forests[i][j]
            if i != j:
                assert got == sigma_pair(p, i, j, "two-forest") \
                    == sigma_pair(p, i, j, "tree-deletion")
        assert Fraction(sums.pairs, d) == pairs == sigma_r(p, 2)
        assert [Fraction(t, d) for t in sums.trees] == \
            list(sigma_sums(p).sigma_vector)
        assert Fraction(sums.total, d) == sigma_r(p, 1)
        assert two_tree_sums(p) is sums


def test_two_tree_sums_match_forest_enumeration(monkeypatch):
    # trees, total, pairs and sigma against the forests listed one by one,
    # read with the state-set table that chains of the same size share and
    # with a table of their own
    for p in _layer_test_chains():
        trees = [sum((forest_weight(f, p) for f in enumerate_forests(p.n, {j})),
                     Fraction(0)) for j in range(p.n)]
        sigma, pairs = _two_trees_by_forests(p)
        for shared in (True, False):
            if not shared:
                monkeypatch.setattr(forests, "_STATE_SETS", {})
            _layer_sums.cache_clear()
            sums = two_tree_sums(p)
            d = sums.denom
            assert [Fraction(t, d) for t in sums.trees] == trees
            assert Fraction(sums.total, d) == sum(trees)
            assert Fraction(sums.pairs, d) == pairs
            assert [[Fraction(x, d) for x in row] for row in sums.sigma] == sigma
            monkeypatch.undo()


def test_state_set_table_is_shared_and_bounded(monkeypatch):
    # a chain of a size already met adds no entry; the tables are cleared
    # before a fill or a pass adds entries once past their bound, and a root
    # set with a few free states among many adds entries for its subsets only
    tables: dict = {}
    monkeypatch.setattr(forests, "_STATE_SETS", tables)

    def held():
        # every entry of an n-state table holds n states, in and out, and a
        # size's program one unit per triple
        return sum(n * len(inside) + len(program) // 3
                   for n, (inside, _outside, program) in tables.items())

    rng = random.Random(71)
    p, q = (random_irreducible_chain(rng, 6) for _ in range(2))
    _layer_sums.cache_clear()
    two_tree_sums(p)
    inside, outside, _program = tables[6]
    entries = dict(inside)
    assert len(entries) == 63
    for s, members in entries.items():
        assert members == tuple(c for c in range(6) if s >> c & 1)
        assert outside[s] == tuple(c for c in range(6) if not s >> c & 1)
    two_tree_sums(q)
    root_set_sums(q, {0, 3})
    assert tables[6][0] == entries
    assert all(tables[6][0][s] is got for s, got in entries.items())

    bound = 200
    monkeypatch.setattr(forests, "_STATE_SET_TABLE_SIZE", bound)
    cleared = 0
    for n in (4, 5, 6, 5, 4, 6):
        for k in range(1, n):
            for roots in itertools.combinations(range(n), k):
                before = held()
                _layer_sums.cache_clear()
                root_set_sums(random_chain(rng, n), roots)
                cleared += held() < before
                # one root set adds at most an entry per nonempty subset of
                # its free states
                assert held() <= bound + n * (2 ** (n - k) - 1)
    assert cleared > 0

    n = 40
    far = chain([[Fraction(1 + (3 * i + 7 * j) % 5, sum(1 + (3 * i + 7 * c) % 5
                                                        for c in range(n)))
                  for j in range(n)] for i in range(n)])
    tables.clear()
    _layer_sums.cache_clear()
    root_set_sums(far, set(range(n)) - {4, 19, 33})
    assert set(tables) == {40}
    assert sorted(tables[40][0]) == sorted(
        sum(1 << v for v in free) for k in range(1, 4)
        for free in itertools.combinations((4, 19, 33), k))
    assert held() == 7 * n


def test_root_sets_with_no_free_states_on_a_cold_table(monkeypatch):
    # every state a root: no state set to fill, yet each size gets its
    # table, so reads through it work before any other root set of that size
    for n in range(1, 5):
        p = uniform_chain(n)
        everything = set(range(n))
        monkeypatch.setattr(forests, "_STATE_SETS", {})
        _layer_sums.cache_clear()
        assert w_sum(p, everything) == 1
        monkeypatch.setattr(forests, "_STATE_SETS", {})
        _layer_sums.cache_clear()
        got = root_set_sums(p, everything)
        assert (got.interior, got.green, got.hit) == ((), (), ())
        assert got.weight == got.denom
    monkeypatch.setattr(forests, "_STATE_SETS", {})
    _layer_sums.cache_clear()
    assert two_tree_sums(uniform_chain(1)).trees == (1,)


def test_two_tree_sums_keep_the_tree_guard(u4):
    # the trees span all n states, so n - 1 of them are free
    with pytest.raises(EnumerationGuardError, match="^3 free vertices"):
        two_tree_sums(u4, guard=2)
    assert two_tree_sums(u4, guard=3).total > 0


def test_tree_sums_refuse_before_listing_their_state_sets(monkeypatch):
    # past _STATE_SET_TABLE_SIZE state sets no guard admits the tree sums:
    # listing the 2^f subsets alone could exhaust memory, so the refusal
    # comes before _subsets runs
    listed = []
    real = forests._subsets

    def counting(mask):
        listed.append(mask)
        return real(mask)

    monkeypatch.setattr(forests, "_subsets", counting)
    n = 40
    half = Fraction(1, 2)
    ring = chain([[half if (j - i) % n in (1, n - 1) else 0
                   for j in range(n)] for i in range(n)])
    refusals = (
        (lambda: root_set_sums(ring, {0}, guard=39), 39),  # merged roots
        (lambda: w_sum(ring, {0}, guard=39), 39),
        (lambda: formulas.absorption(ring, {0}, 39), 39),
        (lambda: sigma_sums(ring, guard=39), 40),  # all n states
        (lambda: two_tree_sums(ring, guard=39), 40),
        (lambda: formulas.analyze(ring, 39), 40),
    )
    for call, free in refusals:
        with pytest.raises(EnumerationGuardError,
                           match=rf"^tree sums over {free} states need "
                                 rf"2\^{free} state sets"):
            call()
    assert listed == []

    # at the bound the sets are listed, one past it they are not
    monkeypatch.setattr(forests, "_STATE_SET_TABLE_SIZE", 1 << 4)
    _layer_sums.cache_clear()
    assert w_sum(ring, set(range(4, n)), guard=39) > 0
    assert listed == [0b1111]
    with pytest.raises(EnumerationGuardError):
        w_sum(ring, set(range(5, n)), guard=39)
    with pytest.raises(EnumerationGuardError):
        sigma_sums(uniform_chain(5), guard=4)
    assert listed == [0b1111]
    assert sigma_sums(uniform_chain(4)).sigma1 > 0
    assert listed == [0b1111, 0b1111]


def _two_trees_and_memo(p):
    """p's two-tree sums on cold tree sums, and the memo they leave."""
    _layer_sums.cache_clear()
    sums = two_tree_sums(p)
    return sums, dict(_layer_sums(p).memo)


def _count_calls(monkeypatch, owner, name):
    """A list that grows by one entry per call of owner.name."""
    calls = []
    real = getattr(owner, name)

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(owner, name, counting)
    return calls


def _sized_chains(rng, n):
    """A sparse irreducible, a reducible and a dense chain of n states."""
    dense = chain([[Fraction(w, sum(ws)) for w in ws]
                   for ws in ([rng.randint(1, 9) for _ in range(n)]
                              for _ in range(n))])
    reducible = random_chain(rng, n)
    while n > 1 and irreducibility_certificate(reducible) is None:
        reducible = random_chain(rng, n)
    return random_irreducible_chain(rng, n), reducible, dense


def _one_replay_equals_the_loops(monkeypatch, read, p, replays, fills):
    """Check that ``read(p)``, which reads p's tree sums cold, gives what the
    loops alone give (``_program`` patched to None) and makes one fill that
    is one replay of the size's whole program; return the loops' result."""
    with monkeypatch.context() as m:
        m.setattr(forests, "_program", lambda n: None)
        looped = read(p)
    replays.clear()
    fills.clear()
    assert read(p) == looped
    assert len(fills) == len(replays) == 1
    (sums, subsets), (replayed, program) = fills[0], replays[0]
    assert replayed is sums and subsets == list(range(1, 1 << p.n))
    assert program is forests._STATE_SETS[p.n][2]
    assert len(program) == 3 * forests._program_size(p.n)
    return looped


def test_replayed_two_tree_sums_equal_the_loops(monkeypatch):
    # for every size that has a program, n = 1..9, the memo entries of the
    # replayed fill and every two-tree field of the loop pass over them
    # equal those of the loops alone, on sparse irreducible, reducible and
    # dense chains: the replay runs inside the one fill of all state sets
    monkeypatch.setattr(forests, "_STATE_SETS", {})
    replays = _count_calls(monkeypatch, forests._TreeSums, "_replay")
    fills = _count_calls(monkeypatch, forests._TreeSums, "_fill")
    rng = random.Random(83)
    for n in range(1, 10):
        for p in _sized_chains(rng, n):
            _one_replay_equals_the_loops(monkeypatch, _two_trees_and_memo, p,
                                         replays, fills)


def test_a_fresh_chains_whole_chain_sums_are_one_replay(monkeypatch):
    # sigma_sums, then sigma_r(p, 1), then two_tree_sums on a fresh chain of
    # a size with a program read one kept record, made by one fill that is
    # one replay of the program, and each equals what the loops give; on a
    # chain whose root sets were read first, sigma_sums runs the loops over
    # the entries they left and gives the same sums
    monkeypatch.setattr(forests, "_STATE_SETS", {})
    replays = _count_calls(monkeypatch, forests._TreeSums, "_replay")
    fills = _count_calls(monkeypatch, forests._TreeSums, "_fill")
    rng = random.Random(107)

    def whole_chain_sums(p):
        _layer_sums.cache_clear()
        return sigma_sums(p), sigma_r(p, 1), two_tree_sums(p)

    for n in range(1, 10):
        for p in _sized_chains(rng, n):
            sums, sigma1, _two = _one_replay_equals_the_loops(
                monkeypatch, whole_chain_sums, p, replays, fills)
            assert sigma1 == sums.sigma1 == sum(sums.sigma_vector)
            if n > 1:
                _layer_sums.cache_clear()
                root_set_sums(p, {n - 1})
                fills.clear()
                assert sigma_sums(p) == sums
                assert fills and len(replays) == 1


def test_a_program_is_built_on_the_second_full_fill_and_shared(monkeypatch):
    # the first full fill of a size runs the loops and builds nothing, even
    # where a root set has listed some of the size's sets; the second
    # builds the program once, and every later chain of the size replays
    # that same list
    monkeypatch.setattr(forests, "_STATE_SETS", {})
    builds = _count_calls(monkeypatch, forests, "_build_program")
    replays = _count_calls(monkeypatch, forests._TreeSums, "_replay")
    rng = random.Random(89)
    _layer_sums.cache_clear()
    root_set_sums(random_chain(rng, 7), {0, 1})
    _two_trees_and_memo(random_chain(rng, 7))
    assert (builds, replays) == ([], [])
    assert forests._STATE_SETS[7][2] == []
    _two_trees_and_memo(random_chain(rng, 7))
    assert len(builds) == len(replays) == 1
    program = forests._STATE_SETS[7][2]
    for _ in range(3):
        _two_trees_and_memo(random_chain(rng, 7))
        assert replays[-1][1] is program
    assert len(builds) == 1 and len(replays) == 4
    # a size of its own starts again with the loops
    _two_trees_and_memo(random_chain(rng, 6))
    assert len(builds) == 1 and forests._STATE_SETS[6][2] == []


def test_programs_count_against_the_table_bound(monkeypatch):
    # a program's triples count toward the tables' bound as listed states
    # do, and a program is not added to tables past the bound: they are
    # cleared, and the size builds once its states are listed again
    tables: dict = {}
    monkeypatch.setattr(forests, "_STATE_SETS", tables)
    monkeypatch.setattr(forests, "_STATE_SET_TABLE_SIZE", 200)
    builds = _count_calls(monkeypatch, forests, "_build_program")
    replays = _count_calls(monkeypatch, forests._TreeSums, "_replay")
    fills = _count_calls(monkeypatch, forests._TreeSums, "_fill")
    rng = random.Random(103)
    for p in (random_chain(rng, 4), random_chain(rng, 4)):
        _one_replay_equals_the_loops(monkeypatch, _two_trees_and_memo, p,
                                     replays, fills)
    # 15 sets of 4 states and the fill's 88 triples
    assert forests._program_size(4) == 88 and forests._tables_held() == 148
    _layer_sums.cache_clear()
    root_set_sums(random_chain(rng, 5), {0})
    assert set(tables) == {4, 5} and forests._tables_held() == 223
    root_set_sums(random_chain(rng, 5), {1})
    assert set(tables) == {5}
    _two_trees_and_memo(random_chain(rng, 4))
    root_set_sums(random_chain(rng, 8), {0})
    assert forests._tables_held() > 200
    _two_trees_and_memo(random_chain(rng, 4))
    assert set(tables) == {4} and tables[4][2] == [] and len(builds) == 1
    _two_trees_and_memo(random_chain(rng, 4))
    assert len(tables[4][2]) == 3 * 88 and len(builds) == 2


def test_a_program_past_the_table_bound_is_never_built(monkeypatch):
    # a size has a program only where the program and the size's full table
    # of state sets fit the tables' bound together: at n = 10 the program
    # alone would fit, with 121,360 triples, but its 1023 sets of 10 states
    # take it past 2^17, so every n = 10 chain keeps the loops, and n = 9
    # replays
    bound = forests._STATE_SET_TABLE_SIZE
    assert forests._program_size(9) + 9 * 511 <= bound
    assert forests._program_size(10) <= bound \
        < forests._program_size(10) + 10 * 1023
    monkeypatch.setattr(forests, "_STATE_SETS", {})
    builds = _count_calls(monkeypatch, forests, "_build_program")
    replays = _count_calls(monkeypatch, forests._TreeSums, "_replay")
    fills = _count_calls(monkeypatch, forests._TreeSums, "_fill")
    rng = random.Random(97)
    for _ in range(2):
        p = random_chain(rng, 10)
        _layer_sums.cache_clear()
        sums = two_tree_sums(p, guard=9)
        assert sums.total == sum(sums.trees)
    assert (builds, replays) == ([], [])
    assert forests._STATE_SETS[10][2] == []
    for p in (random_chain(rng, 9), random_irreducible_chain(rng, 9)):
        _one_replay_equals_the_loops(monkeypatch, _two_trees_and_memo, p,
                                     replays, fills)
    assert len(builds) == 1

    # the same rule at its edge: 4 states, 15 sets and 88 triples
    for bound, built in ((147, False), (148, True)):
        monkeypatch.setattr(forests, "_STATE_SETS", {})
        monkeypatch.setattr(forests, "_STATE_SET_TABLE_SIZE", bound)
        replays.clear()
        for _ in range(3):
            _two_trees_and_memo(random_chain(rng, 4))
        assert len(replays) == 2 * built
        assert len(forests._STATE_SETS[4][2]) == 3 * 88 * built


def test_root_sets_read_first_keep_the_incremental_fill(monkeypatch):
    # a chain whose root sets filled part of its memo first, as crosscheck
    # reads them, gets its two-tree sums through the loops, which reuse
    # those entries: the same sums and memo as a replay on cold sums
    monkeypatch.setattr(forests, "_STATE_SETS", {})
    rng = random.Random(101)
    for _ in range(2):
        _two_trees_and_memo(random_chain(rng, 6))
    replays = _count_calls(monkeypatch, forests._TreeSums, "_replay")
    p = random_irreducible_chain(rng, 6)
    replayed = _two_trees_and_memo(p)
    assert len(replays) == 1
    _layer_sums.cache_clear()
    records = [root_set_sums(p, roots) for roots in ({0}, {2, 5})]
    sums = two_tree_sums(p)
    assert len(replays) == 1
    assert (sums, _layer_sums(p).memo) == replayed
    # and a record read after a replay is the one read on cold sums
    _layer_sums.cache_clear()
    two_tree_sums(p)
    assert len(replays) == 2
    assert [root_set_sums(p, roots) for roots in ({0}, {2, 5})] == records


def test_tree_sums_refuse_before_the_scaled_rows(monkeypatch):
    # the refusal comes before the chain's n^2 scaled rows are built: on
    # the 2048-state ring that is the difference between about 50 and
    # 114 MB of peak RSS through the CLI
    n = 2048
    ring = chains.chain_from_edge_list(
        "".join(f"{i} {(i + d) % n} 1/2\n" for i in range(n) for d in (1, -1)))

    def no_rows(p):
        raise AssertionError("built the scaled rows")

    monkeypatch.setattr(forests, "scaled_rows", no_rows)
    _layer_sums.cache_clear()
    refusals = (
        lambda: root_set_sums(ring, {0}, n - 1),
        lambda: w_sum(ring, {0}, n - 1),
        lambda: formulas.absorption(ring, {0}, n - 1),
        lambda: two_tree_sums(ring, n),
        lambda: sigma_sums(ring, n),
        lambda: sigma_r(ring, 1, n),
        lambda: sigma_r(ring, 2, n),
    )
    for call in refusals:
        with pytest.raises(EnumerationGuardError, match="^tree sums over"):
            call()


def test_a_configuration_hashes_its_fields_once():
    # the hash is stored with the fields, whether a configuration was
    # checked (__init__) or built by the walker or a sampler (_trusted)
    forest = RootedForest(4, frozenset({0}), (-1, 2, 0, 2))
    ecrsf = Ecrsf(4, frozenset(), (1, 2, 0, 2))
    pairs = (
        (forest, RootedForest._trusted(4, frozenset({0}), (-1, 2, 0, 2),
                                       forest._root_of)),
        (ecrsf, Ecrsf._trusted(4, frozenset(), (1, 2, 0, 2),
                               ecrsf._root_of, ecrsf.cycles)),
    )
    for checked, trusted in pairs:
        assert checked == trusted
        assert hash(checked) == hash(trusted) == checked._hash \
            == hash((checked.n, checked._roots, checked._succ))
    # tallies read as tallies of checked rebuilds do
    forests_ = list(enumerate_forests(4, {0}))
    ecrsfs = list(enumerate_ecrsf(4, {3}))
    for configs, rebuild in (
            (forests_, lambda f: RootedForest(f.n, f.roots, f.parent)),
            (ecrsfs, lambda e: Ecrsf(e.n, e.tree_roots, e.successor))):
        draws = configs + configs[::2]
        tally = collections.Counter(draws)
        assert tally == collections.Counter(map(rebuild, draws))
        assert len(set(draws)) == len(configs)
        assert sorted(tally.values()) == sorted(
            2 if k % 2 == 0 else 1 for k in range(len(configs)))


def test_root_set_records_match_both_oracle_halves():
    # every proper root set of dense, sparse and reducible chains, n = 1..6:
    # green / weight is the Green matrix and hit / weight the hitting law,
    # both solved, and weight is w(R) D
    infeasible = 0
    for p in _layer_test_chains():
        for k in range(1, p.n):
            for roots in itertools.combinations(range(p.n), k):
                got = root_set_sums(p, roots)
                d = got.denom
                assert got.weight == w_sum(p, roots) * d
                assert got.interior == tuple(
                    v for v in range(p.n) if v not in roots)
                for a, i in enumerate(got.interior):
                    for b, j in enumerate(got.interior):
                        assert got.green[a][b] == w_target_sum(
                            p, set(roots) | {j}, i, j) * d
                if not got.weight:
                    infeasible += 1
                    with pytest.raises(InfeasibleRootSetError):
                        oracle.green_matrix_solve(p, roots)
                    with pytest.raises(InfeasibleRootSetError):
                        formulas.absorption(p, roots)
                    continue
                assert tuple(tuple(Fraction(x, got.weight) for x in row)
                             for row in got.green) == \
                    oracle.green_matrix_solve(p, roots)
                assert tuple(tuple(Fraction(x, got.weight) for x in row)
                             for row in got.hit) == \
                    oracle.hitting_solve(p, roots)
    assert infeasible > 0


def test_formulas_read_no_root_set_tables_beyond_r(monkeypatch, fixture_a, u4):
    # analyze, mfpt, kemeny, chung_occupation, stationary and
    # mean_return_time read the one-pass two-tree sums; absorption and
    # mean_hitting_time read R's own table and the Green pass only
    chains = _two_tree_chains(fixture_a, u4)[:8]
    chains = [p for p in chains if irreducibility_certificate(p) is None]
    cases = [(p, roots) for p in chains for roots in ({0}, {0, p.n - 1})]

    def run():
        return ([formulas.analyze(p) for p in chains],
                [[formulas.mfpt(p, i, j) for i, j in
                  itertools.permutations(range(p.n), 2)] for p in chains],
                [formulas.kemeny(p) for p in chains],
                [[formulas.chung_occupation(p, i, j, k) for i, j, k in
                  itertools.product(range(p.n), repeat=3) if k not in (i, j)]
                 for p in chains],
                [(formulas.stationary(p),
                  [formulas.mean_return_time(p, j) for j in range(p.n)])
                 for p in chains])

    def absorb(p, roots):
        return (formulas.absorption(p, roots),
                [formulas.mean_hitting_time(p, roots, i)
                 for i in range(p.n) if i not in roots])

    expected = run()
    absorbed = [absorb(p, roots) for p, roots in cases]
    real = forests._root_set_sums
    allowed: set = set()

    def only_allowed(p, roots):
        assert roots in allowed, f"read the root set {sorted(roots)}"
        return real(p, roots)

    monkeypatch.setattr(forests, "_root_set_sums", only_allowed)
    _layer_sums.cache_clear()
    assert run() == expected
    for (p, roots), want in zip(cases, absorbed):
        allowed.clear()
        allowed.add(frozenset(roots))
        _layer_sums.cache_clear()
        assert absorb(p, roots) == want
    assert len(chains) >= 4


def test_green_occupation_reads_only_the_singleton_tables(monkeypatch):
    # the Green side of the chung triples, R = {k}, reads k's kept record,
    # and no record of {k, j}
    p = random_irreducible_chain(random.Random(2035), 6)
    triples = [(i, j, k) for i, j, k in itertools.product(range(6), repeat=3)
               if k not in (i, j)]
    expected = [formulas.green_occupation(p, {k}, i, j) for i, j, k in triples]
    real = forests._root_set_sums

    def singletons_only(q, roots):
        assert len(roots) == 1, f"read the root set {sorted(roots)}"
        return real(q, roots)

    monkeypatch.setattr(forests, "_root_set_sums", singletons_only)
    _layer_sums.cache_clear()
    assert [formulas.green_occupation(p, {k}, i, j)
            for i, j, k in triples] == expected
    kept = _layer_sums(p).root_sets
    assert set(kept) == {frozenset({k}) for k in range(6)}
    assert all(isinstance(got, RootSetSums) for got in kept.values())
    assert expected == [formulas.chung_occupation(p, i, j, k)
                        for i, j, k in triples]


def test_absorption_refills_a_cleared_memo(monkeypatch):
    # R's record stays kept while the memo is cleared under it; a later
    # Green pass fills the subsets it reads itself
    rng = random.Random(41)
    p = random_irreducible_chain(rng, 6)
    roots = frozenset({1, 4})
    monkeypatch.setattr(forests, "_LAYER_MEMO_SIZE", 6 * 8)
    _layer_sums.cache_clear()
    root_set_sums(p, roots)
    # the tree sums over all six states overfill the memo; the next root
    # set clears it before its own fill
    two_tree_sums(p)
    root_set_sums(p, {2, 3, 5})
    sums = _layer_sums(p)
    assert isinstance(sums.root_sets.get(roots), RootSetSums)
    assert (1 << 6) - 1 not in sums.memo
    ab = formulas.absorption(p, roots)
    assert ab.green == oracle.green_matrix_solve(p, roots)
    assert ab.hit == oracle.hitting_solve(p, roots)


def test_multi_root_tables_read_the_root_sets_green_pass():
    # w_ib(R) comes from R's own Green numerators by the last-arc cut, so a
    # root set's record takes that one pass and keeps no other root set
    p = random_irreducible_chain(random.Random(47), 6)
    roots = frozenset({1, 4})
    _layer_sums.cache_clear()
    got = root_set_sums(p, roots)
    sums = _layer_sums(p)
    assert set(sums.root_sets) == {roots}
    assert sums.root_sets[roots] is got
    # a weight read after it takes the record's, and keeps nothing more
    assert w_sum(p, roots) == Fraction(got.weight, got.denom)
    assert set(sums.root_sets) == {roots} and sums.root_sets[roots] is got
    # a weight read first keeps w(R) D and R's column until R's record
    # replaces them in place
    other = frozenset({0, 2, 5})
    w = w_sum(p, other)
    kept = sums.root_sets[other]
    assert not isinstance(kept, RootSetSums)
    assert Fraction(kept[0], got.denom) == w
    record = root_set_sums(p, other)
    assert Fraction(record.weight, got.denom) == w
    assert list(sums.root_sets) == [roots, other]
    assert sums.root_sets[other] is record


def _count_columns(monkeypatch) -> collections.Counter:
    """Count the merged-root columns built, per root set."""
    built = collections.Counter()
    real = forests._TreeSums._column

    def counting(self, subsets, block):
        built[frozenset(block)] += 1
        return real(self, subsets, block)

    monkeypatch.setattr(forests._TreeSums, "_column", counting)
    return built


def test_weight_then_record_builds_one_column_per_root_set(monkeypatch):
    # w(R) and then R's Green pass, as the green suite reads every proper
    # root set: the record takes the column the weight built
    p = random_irreducible_chain(random.Random(53), 6)
    built = _count_columns(monkeypatch)
    _layer_sums.cache_clear()
    lap = laplacian(p)
    proper = [frozenset(rs) for k in range(1, 6)
              for rs in itertools.combinations(range(6), k)]
    for roots in proper:
        w = w_sum(p, roots)
        ab = formulas.absorption(p, roots)
        keep = [v for v in range(6) if v not in roots]
        assert w == exact_det([[lap[a][b] for b in keep] for a in keep])
        assert ab.green == oracle.green_matrix_solve(p, roots)
        assert ab.hit == oracle.hitting_solve(p, roots)
    assert built == {roots: 1 for roots in proper}
    kept = _layer_sums(p).root_sets
    assert set(kept) == set(proper)
    assert all(isinstance(got, RootSetSums) for got in kept.values())


def test_an_evicted_column_is_built_again_for_its_record(monkeypatch):
    # with room for two root sets, R's kept column is dropped between
    # w(R) and R's record, which builds it again; a record that replaces
    # its own root set's column drops nothing
    monkeypatch.setattr(forests, "_ROOT_SET_CACHE_SIZE", 2)
    p = random_irreducible_chain(random.Random(61), 6)
    built = _count_columns(monkeypatch)
    _layer_sums.cache_clear()
    sums = _layer_sums(p)
    roots, a, b = frozenset({1, 3}), frozenset({0}), frozenset({2, 4, 5})
    w = w_sum(p, roots)
    w_sum(p, a)
    w_sum(p, b)
    assert list(sums.root_sets) == [a, b]
    got = root_set_sums(p, roots)
    assert built[roots] == 2
    assert Fraction(got.weight, got.denom) == w
    assert tuple(tuple(Fraction(x, got.weight) for x in row)
                 for row in got.green) == oracle.green_matrix_solve(p, roots)
    assert tuple(tuple(Fraction(x, got.weight) for x in row)
                 for row in got.hit) == oracle.hitting_solve(p, roots)
    assert list(sums.root_sets) == [b, roots]
    root_set_sums(p, b)
    assert built[b] == 1
    assert list(sums.root_sets) == [b, roots]
    assert isinstance(sums.root_sets[b], RootSetSums)


def test_sigma_sums_read_the_full_tree_sums(monkeypatch):
    # every Sigma_j off the memo entry of all n states: one fill, no column
    p = random_chain(random.Random(59), 7)
    built = _count_columns(monkeypatch)
    _layer_sums.cache_clear()
    sums = sigma_sums(p)
    assert not built
    for j in range(p.n):
        assert sums.sigma(j) == w_sum(p, {j})
    assert sums.sigma1 == sum(sums.sigma_vector)
    # cold, each singleton fills only its free states and builds its column
    built.clear()
    _layer_sums.cache_clear()
    assert [w_sum(p, {j}) for j in range(p.n)] == list(sums.sigma_vector)
    assert sum(built.values()) == p.n


def test_sigma_r_reads_the_single_trees_off_the_full_tree_sums(monkeypatch):
    # Sigma^(1) is the total of the memo entry of all n states, as
    # sigma_sums reads it: no singleton column on a cold chain
    p = random_chain(random.Random(67), 7)
    built = _count_columns(monkeypatch)
    _layer_sums.cache_clear()
    total = sigma_r(p, 1)
    assert not built
    assert total == sigma_sums(p).sigma1


def test_modified_chain_keeps_the_callers_tree_sums(fixture_a):
    # mfpt_via_modified_chain sums the trees of a sub-chain; with room for
    # two chains, the caller's memo survives it
    p = random_irreducible_chain(random.Random(43), 5)
    _layer_sums.cache_clear()
    formulas.analyze(p)
    formulas.mfpt_via_modified_chain(p, 0, 1)
    built = _layer_sums.cache_info().misses
    formulas.analyze(p)
    formulas.mfpt(p, 2, 3)
    assert _layer_sums.cache_info().misses == built


def test_w_target_sum_rejects_states_out_of_range(monkeypatch, u4):
    # the target joins the root set, so it is checked like a root
    for i, j in ((1, 4), (1, -1), (7, 1)):
        with pytest.raises(ValueError, match="out of range"):
            w_target_sum(u4, {0}, i, j)

    # the start state is checked before any record is read
    def no_record(p, roots):
        raise AssertionError(f"read the root set {sorted(roots)}")

    monkeypatch.setattr(forests, "_root_set_sums", no_record)
    with pytest.raises(ValueError, match="state 7 out of range"):
        w_target_sum(u4, {0}, 7, 1)


def test_last_exit_state():
    t = RootedForest(4, frozenset({3}), (1, 3, 1, -1))
    # path 0 -> 1 -> 3: last state before the root is 1
    assert last_exit_state(t, 0) == 1
    assert last_exit_state(t, 2) == 1
    assert last_exit_state(t, 1) == 1
    with pytest.raises(ValueError):
        last_exit_state(t, 3)


# ---------------------------------------------------------------------------
# cycle-rooted configurations

def test_cycle_weights_validation():
    alpha = CycleWeights.constant(Fraction(1, 3))
    assert alpha.weight((2, 0, 1)) == Fraction(1, 3)
    with pytest.raises(ValueError):
        CycleWeights.constant(2)
    for value, text in ((Fraction(3, 2), "3/2"), (Fraction(-1, 2), "-1/2")):
        lopsided = CycleWeights(lambda cyc, value=value: value)
        with pytest.raises(ValueError,
                           match=rf"^cycle weight {text} outside \[0,1\]$"):
            lopsided.weight((0, 1))
    for value in (0, 1, Fraction(0), Fraction(1), "2/5"):
        got = CycleWeights(lambda cyc, value=value: value).weight((1, 0))
        assert got == Fraction(value) and isinstance(got, Fraction)


def test_ecrsf_weight_examples(d2):
    two_cycle = Ecrsf(2, frozenset(), (1, 0))
    assert ecrsf_weight(two_cycle, d2, CycleWeights.constant(1)) == 1
    assert ecrsf_weight(two_cycle, d2, CycleWeights.constant(Fraction(1, 2))) \
        == Fraction(1, 2)
    assert ecrsf_weight(two_cycle, d2, CycleWeights.constant(0)) == 0


def _product(p, edges, cycles=(), alpha=None):
    """A configuration's weight multiplied out one Fraction at a time."""
    w = Fraction(1)
    for v, u in edges:
        w *= p.rows[v][u]
    for cyc in cycles:
        w *= alpha.weight(cyc)
    return w


def test_weights_match_a_fraction_product(fixture_a, u4, r3):
    rules = [CycleWeights.constant(0), CycleWeights.constant(1),
             CycleWeights.constant(Fraction(2, 7)),
             CycleWeights(lambda c: 0 if len(c) == 2 else Fraction(1, len(c)))]
    rng = random.Random(31)
    # random_chain leaves zero arcs, which many of the configurations use
    chains = [fixture_a, u4, r3, *(random_chain(rng, n) for n in (3, 4, 4))]
    zero = 0
    for p in chains:
        for roots in ({0}, {0, p.n - 1}):
            for f in enumerate_forests(p.n, roots):
                want = _product(p, f.edges())
                assert forest_weight(f, p) == want
                zero += not want
        for roots in (set(), {1}):
            for e in enumerate_ecrsf(p.n, roots):
                for alpha in rules:
                    want = _product(p, e.edges(), e.cycles, alpha)
                    assert ecrsf_weight(e, p, alpha) == want
                    zero += not want
    assert zero > 100


def test_cycle_rooted_sums_weigh_each_cycle_once(u4):
    seen = collections.Counter()

    def rule(cycle):
        seen[cycle] += 1
        return Fraction(1, len(cycle) + 1)

    alpha = CycleWeights(rule)
    for roots in (set(), {0}):
        cycles = {c for e in enumerate_ecrsf(4, roots) for c in e.cycles}
        for read in (w_ec_sums, lambda p, a, rs: exact_law(p, rs, a)):
            seen.clear()
            read(u4, alpha, roots)
            assert seen == dict.fromkeys(cycles, 1)


def test_w_ec_sums_unit_alpha(fixture_a):
    # with alpha = 1 and R = {2}: total over all successor maps on {0, 1}
    total, table = w_ec_sums(fixture_a, CycleWeights.constant(1), {2})
    by_hand = Fraction(0)
    for f in enumerate_ecrsf(3, {2}):
        by_hand += ecrsf_weight(f, fixture_a, CycleWeights.constant(1))
    assert total == by_hand
    # tree-rooted share from state 0
    assert table[(0, 2)] / total == Fraction(5, 6)


def test_w_ec_sums_zero_alpha_reduces_to_forests(fixture_a, u4):
    for p in (fixture_a, u4):
        for k in range(1, p.n + 1):
            for roots in itertools.combinations(range(p.n), k):
                total, table = w_ec_sums(p, CycleWeights.constant(0), roots)
                assert total == w_sum(p, roots)
                for i in range(p.n):
                    for j in roots:
                        assert table.get((i, j), Fraction(0)) == \
                            w_target_sum(p, roots, i, j)


def test_w_ec_sums_empty_roots(d2):
    total, table = w_ec_sums(d2, CycleWeights.constant(1), set())
    assert total == 1  # only the 2-cycle survives
    assert table == {}


def test_forest_caches_are_bounded():
    caches = (_layer_sums, _tree_deletion_rows, oracle._chain_store)
    assert all(c.cache_info().maxsize is not None for c in caches)
    # more distinct chains than any cache holds
    for k in range(max(c.cache_info().maxsize for c in caches) + 10):
        q = Fraction(1, k + 2)
        p = chain([[1 - q, q], [Fraction(1, 2), Fraction(1, 2)]])
        w_sum(p, {0})
        sigma_pair(p, 1, 0)
        sigma_pair(p, 0, 1)
        irreducibility_certificate(p)
    for cached in caches:
        info = cached.cache_info()
        assert info.currsize <= info.maxsize
    # a chain's tree-deletion rows are one entry, keyed by the chain and
    # holding a row per target
    assert set(_tree_deletion_rows(p)) == {0, 1}


def test_dropped_chains_are_not_kept_alive():
    # what both routes derive from a chain is kept for the last two chains
    # at most, so chains run through every route and then dropped are freed
    def alive():
        gc.collect()
        return sum(1 for o in gc.get_objects()
                   if type(o) is chains.TransitionMatrix
                   and o.labels is not None and o.labels[0] == "dropped")

    assert alive() == 0
    rng = random.Random(2043)
    cfg = wilson.SamplerConfig(seed=7, sample_count=5)
    for k in range(20):
        p = random_irreducible_chain(rng, 3 + k % 3)
        p = chains.TransitionMatrix(
            p.rows, ("dropped", *(f"{k}.{v}" for v in range(1, p.n))))
        formulas.analyze(p)
        oracle.mfpt_solve(p)
        oracle.green_matrix_solve(p, {0})
        formulas.absorption(p, {0})
        wilson.sample_forests(p, {0}, cfg)
        # the tree-deletion reference, every target's row
        for j in range(p.n):
            sigma_pair(p, (j + 1) % p.n, j)
    del p
    assert alive() <= 2


def _enumerated_law(p, roots, alpha):
    """The law written out from its definition: enumerate, weigh, normalise."""
    if alpha is None:
        weighted = [(f, forest_weight(f, p)) for f in enumerate_forests(p.n, roots)]
    else:
        weighted = [(e, ecrsf_weight(e, p, alpha))
                    for e in enumerate_ecrsf(p.n, roots)]
    total = sum(w for _f, w in weighted)
    return total, [(f, w / total) for f, w in weighted if w]


def test_exact_law_matches_enumeration_in_order(fixture_a, u4, r3):
    rules = [None, CycleWeights.constant(0),
             CycleWeights.constant(Fraction(1, 2)), CycleWeights.constant(1),
             # cycle-dependent: 2-cycles vanish, others by length
             CycleWeights(lambda c: 0 if len(c) == 2 else Fraction(1, len(c)))]
    rng = random.Random(29)
    chains = [fixture_a, u4, r3, *(random_chain(rng, n) for n in (2, 3, 4, 5))]
    cases = 0
    for p in chains:
        for alpha in rules:
            for k in range(0 if alpha else 1, p.n + 1):
                for roots in itertools.combinations(range(p.n), k):
                    total, want = _enumerated_law(p, roots, alpha)
                    if not total:
                        with pytest.raises(InfeasibleRootSetError):
                            exact_law(p, roots, alpha)
                        continue
                    assert list(exact_law(p, roots, alpha).items()) == want
                    cases += 1
    assert cases > 300


def test_exact_law_refusals(r3, u4):
    with pytest.raises(InfeasibleRootSetError):
        exact_law(r3, {0})
    with pytest.raises(InfeasibleRootSetError):
        exact_law(r3, {0}, CycleWeights.constant(0))
    with pytest.raises(EnumerationGuardError):
        exact_law(uniform_chain(10), {0})
    with pytest.raises(EnumerationGuardError):
        exact_law(u4, set(), CycleWeights.constant(1), guard=3)
    with pytest.raises(ValueError, match="root set must be nonempty"):
        exact_law(u4, set())


class _CountingArcs(list):
    """Candidate arcs that count the walker's reads of a free state's list."""

    reads = 0

    def __getitem__(self, d):
        _CountingArcs.reads += 1
        return super().__getitem__(d)


def _dead_end(n):
    """States 0..n-2 uniform among themselves, state n - 1 absorbing."""
    rows = [[Fraction(1, n - 1) if i < n - 1 and j < n - 1 else 0
             for j in range(n)] for i in range(n)]
    rows[n - 1][n - 1] = 1
    return chain(rows)


def _closed_pair(n):
    """States 0..n-3 uniform among themselves, the last two swapping."""
    rows = [[Fraction(1, n - 2) if i < n - 2 and j < n - 2 else 0
             for j in range(n)] for i in range(n)]
    rows[n - 2][n - 1] = rows[n - 1][n - 2] = 1
    return chain(rows)


def test_the_walker_stops_where_a_free_state_has_no_arc(monkeypatch):
    # with R = {0} on the 9-state dead end, state 8 has no arc but its
    # self-loop, so no forest exists, and the walker answers before it reads
    # any free state's arcs, where it once walked every partial forest of
    # states 1..7 first; so too where the dead end is a closed class of two
    # states, each with an arc, from which no root is reached
    real = forests._arcs
    monkeypatch.setattr(forests, "_arcs",
                        lambda *args: _CountingArcs(real(*args)))
    for p in (_dead_end(9), _closed_pair(9)):
        _CountingArcs.reads = 0
        rep = formulas.feasibility(p, {0})
        assert not rep.feasible and not rep.positive_forest_exists
        assert rep.consistent
        assert not forests.positive_forest_exists(p, {0})
        with pytest.raises(InfeasibleRootSetError):
            exact_law(p, {0})
        assert _CountingArcs.reads == 0
    # with 8 a root every free state has arcs, and the walk reads them
    assert forests.positive_forest_exists(_dead_end(9), {0, 8})
    assert _CountingArcs.reads > 0
    # a cycle-rooted walk keeps the absorbing state's self-loop, so it walks
    _CountingArcs.reads = 0
    assert w_ec_sums(_dead_end(4), CycleWeights.constant(1), {0})[0] == 1
    assert _CountingArcs.reads > 0

    # the walker itself: one empty list ends it with no map and no read
    arcs = _CountingArcs([[(0, 1)], [], [(0, 1)]])
    _CountingArcs.reads = 0
    assert list(forests._walk(4, frozenset([0]), arcs)) == []
    assert _CountingArcs.reads == 0
