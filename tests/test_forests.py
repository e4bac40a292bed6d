import itertools
import tracemalloc
from fractions import Fraction

import pytest

from forestchain import (
    CycleWeights,
    Ecrsf,
    EnumerationGuardError,
    RootedForest,
    cayley_count,
    ecrsf_from_json,
    exact_det,
    ecrsf_weight,
    enumerate_ecrsf,
    enumerate_forests,
    forest_from_json,
    forest_weight,
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
    assert forest_from_json(f.to_json()) == f


def test_ecrsf_classification():
    e = Ecrsf(4, frozenset({3}), (1, 0, 0, -1))
    assert e.cycles == ((0, 1),)
    assert e.root_of(2) is None
    assert e.root_of(0) is None
    tree = Ecrsf(2, frozenset({0}), (-1, 0))
    assert tree.cycles == ()
    assert tree.root_of(1) == 0
    assert ecrsf_from_json(e.to_json()) == e


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
    lopsided = CycleWeights(lambda cyc: Fraction(3, 2))
    with pytest.raises(ValueError):
        lopsided.weight((0, 1))


def test_ecrsf_weight_examples(d2):
    two_cycle = Ecrsf(2, frozenset(), (1, 0))
    assert ecrsf_weight(two_cycle, d2, CycleWeights.constant(1)) == 1
    assert ecrsf_weight(two_cycle, d2, CycleWeights.constant(Fraction(1, 2))) \
        == Fraction(1, 2)
    assert ecrsf_weight(two_cycle, d2, CycleWeights.constant(0)) == 0


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
