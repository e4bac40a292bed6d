import collections
import hashlib
import json
import math
import random
from bisect import bisect_right
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from forestchain import (
    CycleWeights,
    chain_from_edge_list,
    Ecrsf,
    EnumerationGuardError,
    InfeasibleRootSetError,
    PathTrace,
    RootedForest,
    SamplerConfig,
    derive_seed,
    enumerate_ecrsf,
    exact_law,
    gof_test,
    kkw_sample,
    lerw_path_prob,
    loop_erase,
    sample_ecrsf,
    sample_forests,
    sample_trees,
    uniform_chain,
    w_ec_sums,
    w_sum,
    wilson_forest,
    wilson_tree,
)

from forestchain import oracle, wilson
from forestchain.forests import canonical_cycle
from forestchain.verify import random_chain, random_irreducible_chain
from forestchain.wilson import _Stepper, _chi2_sf

from conftest import chain

F = Fraction


# -- loop erasure ------------------------------------------------------------

def test_loop_erase_examples():
    assert loop_erase((0, 1, 0, 2)).states == (0, 2)
    assert loop_erase((0, 1, 2)).states == (0, 1, 2)
    assert loop_erase((0, 1, 2, 1, 3)).states == (0, 1, 3)
    assert loop_erase((5,)).states == (5,)
    assert loop_erase(PathTrace((0, 0, 0))).states == (0,)


@given(st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=30))
def test_loop_erase_self_avoiding_and_idempotent(path):
    erased = loop_erase(path)
    assert erased.is_self_avoiding()
    assert loop_erase(erased).states == erased.states
    assert erased.states[0] == path[0]
    assert erased.states[-1] == path[-1]


def test_path_trace_validation():
    with pytest.raises(ValueError):
        PathTrace(())
    t = PathTrace((0, 1, 1))
    assert t.steps == 2
    assert not t.is_self_avoiding()
    assert PathTrace((0, 1, 2)).is_self_avoiding()


# -- seeds and config --------------------------------------------------------

def test_derive_seed_is_deterministic_and_spread():
    a = derive_seed(1069, 0)
    assert a == derive_seed(1069, 0)
    seen = {derive_seed(1069, k) for k in range(1000)}
    assert len(seen) == 1000
    assert all(0 <= s < 2 ** 64 for s in seen)
    assert derive_seed(1069, 1) != derive_seed(1070, 1)


def test_sampler_config_validation():
    SamplerConfig(seed=0, sample_count=1)
    with pytest.raises(ValueError):
        SamplerConfig(seed=-1, sample_count=1)
    with pytest.raises(ValueError):
        SamplerConfig(seed=2 ** 64, sample_count=1)
    with pytest.raises(ValueError):
        SamplerConfig(seed=3, sample_count=0)


# -- tree and forest sampling ------------------------------------------------

def test_wilson_tree_two_state_forced(d2):
    for seed in range(20):
        t = wilson_tree(d2, 0, SamplerConfig(seed=seed, sample_count=1))
        assert t.parent_map() == {1: 0}
        assert t.roots == frozenset({0})


def test_wilson_forest_all_roots_is_empty(fixture_a):
    f = wilson_forest(fixture_a, {0, 1, 2},
                      SamplerConfig(seed=7, sample_count=1))
    assert f.parent_map() == {}
    assert f.parent == (-1, -1, -1)


def test_wilson_forest_infeasible(r3):
    with pytest.raises(InfeasibleRootSetError) as info:
        wilson_forest(r3, {1}, SamplerConfig(seed=1, sample_count=1))
    assert "cannot reach" in str(info.value)


def test_sampler_reproducibility(fixture_a):
    cfg = SamplerConfig(seed=42, sample_count=25)
    first = [f.parent for f in sample_trees(fixture_a, 0, cfg)]
    second = [f.parent for f in sample_trees(fixture_a, 0, cfg)]
    assert first == second
    assert len(set(first)) > 1


def test_site_order_validation(fixture_a):
    cfg = SamplerConfig(seed=3, sample_count=1)
    wilson_forest(fixture_a, {0}, cfg, site_order=(2, 1, 0))
    with pytest.raises(ValueError):
        wilson_forest(fixture_a, {0}, cfg, site_order=(1, 2))
    with pytest.raises(ValueError):
        wilson_forest(fixture_a, {0}, cfg, site_order=(0, 0, 1))


def test_tree_frequencies_track_weights(fixture_a):
    # seeded draw; chi-square against exact tree law
    n = 20_000
    cfg = SamplerConfig(seed=1069, sample_count=n)
    counts = collections.Counter(t.parent for t in sample_trees(fixture_a, 0, cfg))
    weights = {}
    for t in _trees_of(fixture_a, 0):
        weights[t.parent] = _forest_weight(t, fixture_a)
    total = sum(weights.values())
    expected = {k: float(v / total) for k, v in weights.items()}
    observed = {k: counts.get(k, 0) for k in expected}
    assert counts.keys() <= expected.keys()
    report = gof_test(observed, expected)
    assert report.sample_size == n
    assert report.passed, report.to_json()


def _trees_of(p, root):
    from forestchain import enumerate_forests
    return enumerate_forests(p.n, {root})


def _forest_weight(f, p):
    from forestchain import forest_weight
    return forest_weight(f, p)


# -- kkw sampler -------------------------------------------------------------

def test_kkw_alpha_one_empty_roots_d2(d2):
    cfg = SamplerConfig(seed=5, sample_count=1)
    e = kkw_sample(d2, CycleWeights.constant(1), set(), cfg)
    assert isinstance(e, Ecrsf)
    assert len(e.cycles) == 1
    assert set(e.cycles[0]) == {0, 1}


def test_kkw_alpha_zero_matches_wilson(fixture_a):
    cfg = SamplerConfig(seed=11, sample_count=1)
    e = kkw_sample(fixture_a, CycleWeights.constant(0), {0}, cfg)
    assert e.cycles == ()
    assert set(e.successor_map()) == {1, 2}


def test_kkw_feasibility_depends_on_alpha(r3):
    cfg = SamplerConfig(seed=2, sample_count=1)
    with pytest.raises(InfeasibleRootSetError):
        kkw_sample(r3, CycleWeights.constant(0), {1}, cfg)
    # self-loop at state 2 becomes a cycle once alpha is positive
    e = kkw_sample(r3, CycleWeights.constant(1), {1}, cfg)
    cycle_states = {s for cyc in e.cycles for s in cyc}
    assert 2 in cycle_states


def test_kkw_refuses_exactly_when_cycle_rooted_weight_vanishes():
    # alpha is zero on every cycle through state 3, so of the two stranded
    # classes {1, 2} and {3, 4} only the first reaches a positive cycle
    alpha = CycleWeights(lambda cyc: 0 if 3 in cyc else F(1, 2))
    cfg = SamplerConfig(seed=5, sample_count=1, alpha=alpha)
    two_classes = chain([[1, 0, 0, 0, 0], [0, 0, 1, 0, 0], [0, 1, 0, 0, 0],
                         [0, 0, 0, 0, 1], [0, 0, 0, 1, 0]])
    assert w_ec_sums(two_classes, alpha, {0})[0] == 0
    with pytest.raises(InfeasibleRootSetError) as info:
        sample_ecrsf(two_classes, {0}, cfg)
    assert str(info.value) == (
        "states [3, 4] reach neither the roots [0] nor a positive-weight "
        "cycle: total cycle-rooted weight is zero")
    # an arc 4 -> 1 lets {3, 4} drain into the positive cycle
    drained = chain([[1, 0, 0, 0, 0], [0, 0, 1, 0, 0], [0, 1, 0, 0, 0],
                     [0, 0, 0, 0, 1], [0, F(1, 2), 0, F(1, 2), 0]])
    assert w_ec_sums(drained, alpha, {0})[0] > 0
    assert len(sample_ecrsf(drained, {0}, cfg)) == 1
    # seeded sparse chains, self-loops included, under a rule that is zero
    # on every cycle whose states add up to an even number
    parity = CycleWeights(lambda cyc: F(1, len(cyc)) if sum(cyc) % 2 else 0)
    rng = random.Random(2027)
    outcomes = set()
    for t in range(200):
        n = rng.randint(2, 5)
        p = random_chain(rng, n)
        roots = rng.sample(range(n), rng.randint(0, 2))
        total = w_ec_sums(p, parity, roots)[0]
        try:
            sample_ecrsf(p, roots, SamplerConfig(seed=t, alpha=parity))
            refused = False
        except InfeasibleRootSetError:
            refused = True
        assert refused == (total == 0), (p.rows, roots)
        outcomes.add(refused)
    assert outcomes == {False, True}


def test_kkw_requires_alpha(fixture_a):
    cfg = SamplerConfig(seed=2, sample_count=1)
    with pytest.raises(ValueError):
        kkw_sample(fixture_a, None, {0}, cfg)


def test_sample_ecrsf_stream(fixture_a):
    cfg = SamplerConfig(seed=9, sample_count=10,
                        alpha=CycleWeights.constant(F(1, 2)))
    draws = sample_ecrsf(fixture_a, {0}, cfg)
    assert len(draws) == 10
    again = sample_ecrsf(fixture_a, {0}, cfg)
    assert [(d.successor, d.cycles) for d in draws] \
        == [(d.successor, d.cycles) for d in again]


# -- batch set-up and pinned streams -----------------------------------------

G4 = chain([
    [0, F(1, 2), F(1, 4), F(1, 4)],
    [F(1, 3), 0, F(1, 3), F(1, 3)],
    [F(1, 5), F(2, 5), 0, F(2, 5)],
    [F(1, 2), F(1, 6), F(1, 3), 0],
])
# lazy copy of G4: a self-loop of mass 1/2 at every state
LAZY4 = chain([[F(1, 2) * (i == j) + F(1, 2) * G4.rows[i][j] for j in range(4)]
               for i in range(4)])
HALF = CycleWeights.constant(F(1, 2))
# every row denominator above 2^64: 3 (2^64 + 13), 2 * 3^41, 11 (10^25 + 7)
# and 2^70; a zero entry in each row and a self-loop at 0 and at 2
BIG = 2 ** 64 + 13
BIG4 = chain([
    [F(1, 3), F(BIG // 3, BIG), 0, F(2, 3) - F(BIG // 3, BIG)],
    [F(3 ** 41 - 5, 2 * 3 ** 41), 0, F(3 ** 41 + 5, 2 * 3 ** 41), 0],
    [F(1, 10 ** 25 + 7), F((10 ** 25 + 7) // 4, 10 ** 25 + 7), F(3, 11),
     F(8, 11) - F(1, 10 ** 25 + 7) - F((10 ** 25 + 7) // 4, 10 ** 25 + 7)],
    [F(5, 2 ** 70), 1 - F(5, 2 ** 70), 0, 0],
])


def _stream_digest(draws):
    return hashlib.sha256(repr([d.edges() for d in draws]).encode()).hexdigest()


# SHA-256 of the edges of 200 draws at seed 1069, recorded with the sampler
# that set up its checks and stepper again for every draw
GOLDEN_STREAMS = [
    (lambda cfg: sample_forests(G4, {0}, cfg),
     "65d90be094f1d975a73e169be4cfd474423692cf3ac86a8710772dac116bf59c"),
    (lambda cfg: sample_forests(G4, {1, 3}, cfg),
     "988b0ef33a820d0ef30afefa1b2cccc8722852ea4fa1654b7a1c4ce0c9c891d0"),
    (lambda cfg: sample_forests(G4, {0}, cfg, site_order=(3, 2, 1, 0)),
     "d55d164fe18e4205030e4de771a7ddd6f49624425901dca762550298f2ecde34"),
    (lambda cfg: sample_forests(LAZY4, {2}, cfg),
     "3d2b406b5828cd5801de6435edcd2280ce6cfd4faef83455aa3d10fe4fb4819f"),
    (lambda cfg: sample_ecrsf(G4, {0}, cfg),
     "2cef441e6d909ea5376eb64d4fbd58664468b6688bf9907fc28d24fea160e6a8"),
    (lambda cfg: sample_ecrsf(G4, set(), cfg),
     "297737fa6333cd9c9a1b254dc50a78bff96c1f533301724eeecd4ae6b3dc71ef"),
    # recorded with the sampler that bisected the thresholds at every step
    # and built a new generator per draw
    (lambda cfg: sample_forests(BIG4, {0}, cfg),
     "9136ab7ecaa6ab751de3feb8e4c7226ff9e5a1fc87ce48008ce259820046cfd1"),
]


@pytest.mark.parametrize("case", range(len(GOLDEN_STREAMS)))
def test_seeded_streams_are_pinned(case):
    draw, digest = GOLDEN_STREAMS[case]
    cfg = SamplerConfig(seed=1069, sample_count=200, alpha=HALF)
    assert _stream_digest(draw(cfg)) == digest


def test_batch_draw_equals_single_draw():
    cfg = SamplerConfig(seed=1069, sample_count=40, alpha=HALF)
    forests = sample_forests(LAZY4, {1, 3}, cfg, site_order=(2, 0, 3, 1))
    ecrsfs = sample_ecrsf(G4, set(), cfg)
    for k in (0, 1, 17, 39):
        one = SamplerConfig(seed=derive_seed(cfg.seed, k), alpha=HALF)
        assert forests[k] == wilson_forest(LAZY4, {1, 3}, one,
                                           site_order=(2, 0, 3, 1))
        assert ecrsfs[k] == kkw_sample(G4, None, set(), one)


def test_batch_checks_feasibility_once(monkeypatch):
    calls = []
    original = oracle.states_not_reaching

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(oracle, "states_not_reaching", counting)
    sample_forests(G4, {0}, SamplerConfig(seed=3, sample_count=200))
    assert len(calls) == 1
    sample_ecrsf(G4, {0}, SamplerConfig(seed=3, sample_count=200, alpha=HALF))
    assert len(calls) == 2


def _no_draws(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a draw ran before the batch checks failed")
    monkeypatch.setattr(wilson, "_draw_forest", refuse)
    monkeypatch.setattr(wilson, "_draw_ecrsf", refuse)


def test_batch_refusals_come_before_any_draw(monkeypatch, r3, fixture_a):
    _no_draws(monkeypatch)
    cfg = SamplerConfig(seed=1, sample_count=200)
    with pytest.raises(InfeasibleRootSetError) as info:
        sample_forests(r3, {1}, cfg)
    assert str(info.value) == \
        "states [2] cannot reach roots [1]: forest weight is zero"
    with pytest.raises(InfeasibleRootSetError) as info:
        sample_ecrsf(r3, {1}, SamplerConfig(seed=1, sample_count=200,
                                          alpha=CycleWeights.constant(0)))
    assert str(info.value) == (
        "states [2] reach neither the roots [1] nor a positive-weight cycle: "
        "total cycle-rooted weight is zero")
    with pytest.raises(EnumerationGuardError) as info:
        sample_ecrsf(fixture_a, set(),
                     SamplerConfig(seed=1, sample_count=200, alpha=HALF),
                     guard=2)
    assert str(info.value) == ("3 states need a cycle search, above the guard "
                               "of 2; pass a larger guard to override")
    with pytest.raises(ValueError) as info:
        sample_ecrsf(fixture_a, {0}, cfg)
    assert str(info.value) == "kkw_sample needs cycle weights (alpha)"


def test_stepper_bisect_matches_linear_scan():
    # the draws step from i to targets[i][bisect_right(cuts[i], r)]
    for p in (G4, LAZY4):
        stepper = _Stepper(p)
        for i in range(p.n):
            den = stepper.dens[i]
            expected = []
            for r in range(den):
                acc = 0
                for j, x in enumerate(p.rows[i]):
                    acc += x * den
                    if x and r < acc:
                        expected.append(j)
                        break
            rigged = [stepper.targets[i][bisect_right(stepper.cuts[i], r)]
                      for r in range(den)]
            assert rigged == expected


def _bounded(getrandbits, den):
    """The draws' inline uniform integer below den."""
    k = den.bit_length()
    x = getrandbits(k)
    while x >= den:
        x = getrandbits(k)
    return x


# row denominators 1, 3, 2^4 - 1, 2^4 + 1, one above 10^30 (in a row with a
# self-loop) and 2^3; the lazy copy doubles each
HUGE = 2 * 10 ** 30 + 1
ODD6 = chain([
    [0, 1, 0, 0, 0, 0],
    [F(1, 3), 0, F(2, 3), 0, 0, 0],
    [0, F(1, 15), 0, F(14, 15), 0, 0],
    [F(1, 17), F(4, 17), F(4, 17), 0, F(8, 17), 0],
    [F(10 ** 30 + 1, HUGE), 0, 0, 0, F(10 ** 30, HUGE), 0],
    [0, 0, F(3, 8), 0, F(5, 8), 0],
])
ODD6_LAZY = chain([[F(1, 2) * (i == j) + F(1, 2) * ODD6.rows[i][j]
                    for j in range(6)] for i in range(6)])
# row denominators 33 = 2^5 + 1 and 65 = 2^6 + 1 over two entries: the
# last cell below 2^bits holds the largest value below the denominator and
# the denominator itself, so a draw of exactly the denominator lands in a
# straddling cell and is drawn again
EDGE5 = chain([
    [F(1, d) if j == (i + 1) % 5 else F(d - 1, d) if j == (i + 2) % 5 else 0
     for j in range(5)]
    for i, d in enumerate((33, 65, 33, 65, 33))])


def test_inline_bounded_draw_is_randrange():
    dens = [1, 2, 3, HUGE, *_Stepper(ODD6).dens]
    for k in (2, 3, 5, 8, 31, 32, 33, 53, 64, 65, 100):
        dens += [2 ** k - 1, 2 ** k, 2 ** k + 1]
    assert max(_Stepper(ODD6).dens) == HUGE > 10 ** 30
    for seed in range(60):
        want, got = random.Random(seed), random.Random(seed)
        for den in dens:
            for _ in range(5):
                assert _bounded(got.getrandbits, den) == want.randrange(den)
        assert got.getstate() == want.getstate()


def _bisected(stepper, i, x):
    """Where value x of a draw in row i goes: None when it is drawn again."""
    if x >= stepper.dens[i]:
        return None
    return stepper.targets[i][bisect_right(stepper.cuts[i], x)]


def test_cell_table_matches_bisection():
    # row denominators from 1 (a single-entry row) to above 10^30, those of
    # BIG4 all above 2^64, with zero entries and self-loops
    assert min(_Stepper(BIG4).dens) > 2 ** 64
    for p in (G4, LAZY4, ODD6, ODD6_LAZY, BIG4, EDGE5):
        stepper = _Stepper(p)
        for i in range(p.n):
            bits, shift, cells = stepper.rows[i]
            assert len(cells) == 1 << (bits - shift)
            assert len(cells) <= 32 * len(stepper.targets[i])
            for c, cell in enumerate(cells):
                lo, hi = c << shift, ((c + 1) << shift) - 1
                # x -> _bisected is monotone, so the ends settle a cell
                ends = {_bisected(stepper, i, lo), _bisected(stepper, i, hi)}
                if len(ends) > 1:
                    assert cell == -2
                else:
                    assert cell == (-1 if ends == {None} else ends.pop())
            if bits <= 12:
                for x in range(1 << bits):
                    cell = cells[x >> shift]
                    if cell != -2:
                        want = _bisected(stepper, i, x)
                        assert cell == (-1 if want is None else want)


def _walk_step(p, rng, v):
    """One step the way the sampler first took it: randrange, linear scan."""
    den = math.lcm(*(x.denominator for x in p.rows[v]))
    r = rng.randrange(den)
    acc = 0
    for j, x in enumerate(p.rows[v]):
        acc += x * den
        if x and r < acc:
            return j


def _reference_forest(p, rs, seed):
    """Forest by storing each walk and erasing its loops afterwards."""
    rng = random.Random(seed)
    parent = [-1] * p.n
    settled = set(rs)
    for start in range(p.n):
        path = [start]
        while path[-1] not in settled:
            path.append(_walk_step(p, rng, path[-1]))
        branch = loop_erase(path).states
        for a, b in zip(branch, branch[1:]):
            parent[a] = b
        settled.update(branch)
    return parent


def _reference_ecrsf(p, alpha, rs, seed):
    """Cycle-rooted forest with a fresh weight and randrange coin per
    closure: (successors, walk steps)."""
    rng = random.Random(seed)
    succ = [-1] * p.n
    settled = set(rs)
    steps = 0
    for start in range(p.n):
        if start in settled:
            continue
        path = [start]
        while True:
            v = _walk_step(p, rng, path[-1])
            steps += 1
            if v in settled:
                break
            if v in path:
                bias = alpha.weight(path[path.index(v):])
                if rng.randrange(bias.denominator) < bias.numerator:
                    break
                del path[path.index(v) + 1:]
                continue
            path.append(v)
        for a, b in zip(path, path[1:]):
            succ[a] = b
        succ[path[-1]] = v
        settled.update(path)
    return succ, steps


def test_draws_match_randrange_reference():
    alpha = CycleWeights(lambda c: F(1, len(c) + 2) if len(c) > 1 else 1)
    cfg = SamplerConfig(seed=4242, sample_count=150, alpha=alpha)
    for p in (ODD6, ODD6_LAZY, EDGE5):
        for roots in ({0}, {2, 4}):
            draws = sample_forests(p, roots, cfg)
            assert [list(f.parent) for f in draws] == [
                _reference_forest(p, roots, derive_seed(cfg.seed, k))
                for k in range(cfg.sample_count)]
        for roots in ({0}, set()):
            draws = sample_ecrsf(p, roots, cfg)
            assert [list(e.successor) for e in draws] == [
                _reference_ecrsf(p, alpha, roots, derive_seed(cfg.seed, k))[0]
                for k in range(cfg.sample_count)]


@given(st.data())
def test_last_exit_retrace_is_loop_erasure(data):
    settled = data.draw(st.sets(st.integers(0, 7), min_size=1, max_size=7))
    free = sorted(set(range(8)) - settled)
    walk = data.draw(st.lists(st.sampled_from(free), min_size=1, max_size=40))
    walk.append(data.draw(st.sampled_from(sorted(settled))))
    last_exit = {}
    for a, b in zip(walk, walk[1:]):
        last_exit[a] = b
    branch = [walk[0]]
    while branch[-1] not in settled:
        branch.append(last_exit[branch[-1]])
    assert tuple(branch) == loop_erase(walk).states


def test_cycle_weights_called_once_per_cycle_per_batch():
    seen = collections.Counter()

    def rule(cycle):
        seen[cycle] += 1
        return F(1, len(cycle) + 1)

    alpha = CycleWeights(rule)
    for p, roots in ((G4, {0}), (LAZY4, {2})):
        seen.clear()
        cfg = SamplerConfig(seed=1069, sample_count=200, alpha=alpha)
        batch = sample_ecrsf(p, roots, cfg)
        assert seen and set(seen.values()) == {1}
        assert all(c == canonical_cycle(c) for c in seen)
        assert sum(len(e.cycles) for e in batch) > len(seen)
        for k, draw in enumerate(batch):
            one = SamplerConfig(seed=derive_seed(cfg.seed, k), alpha=alpha)
            single = kkw_sample(p, None, roots, one)
            assert (draw, draw.cycles) == (single, single.cycles)


# alpha 0, 1/2, 1 and 1/(|c| + 1); alpha 0 with no tree roots has no weight
CYCLE_ALPHAS = (CycleWeights.constant(0), HALF, CycleWeights.constant(1),
                CycleWeights(lambda cycle: F(1, len(cycle) + 1)))


def _searched_cycles(e):
    return Ecrsf(e.n, e.tree_roots, e.successor).cycles


@pytest.mark.parametrize("n", range(2, 7))
def test_builders_keep_the_cycles_a_search_finds(n):
    p = random_irreducible_chain(random.Random(2900 + n), n)
    kept = 0
    for roots in (frozenset(), frozenset({0})):
        for k, alpha in enumerate(CYCLE_ALPHAS):
            if not (roots or k):
                continue
            cfg = SamplerConfig(seed=1069 + k, sample_count=200, alpha=alpha)
            for e in sample_ecrsf(p, roots, cfg):
                assert e.cycles == _searched_cycles(e)
                kept += len(e.cycles)
            for e in exact_law(p, roots, alpha):
                assert e.cycles == _searched_cycles(e)
        for e in enumerate_ecrsf(n, roots):
            assert e.cycles == _searched_cycles(e)
    assert kept


def test_cycle_rooted_draws_and_forest_laws_search_no_cycles(monkeypatch):
    def refuse(*_args):
        raise AssertionError("successor map searched for cycles")

    monkeypatch.setattr("forestchain.forests._classify", refuse)
    cfg = SamplerConfig(seed=1069, sample_count=200, alpha=HALF)
    batch = sample_ecrsf(G4, set(), cfg)
    assert len(batch) == 200 and all(e.cycles for e in batch)
    # forest leaves are weighed without a cycle search
    assert len(exact_law(G4, {0})) == 16


def test_cycle_weight_out_of_range_still_raises():
    cfg = SamplerConfig(seed=1069, sample_count=200,
                        alpha=CycleWeights(lambda _cycle: F(3, 2)))
    with pytest.raises(ValueError, match=r"cycle weight 3/2 outside \[0,1\]"):
        sample_ecrsf(G4, {0}, cfg)


def test_stepper_checks_every_row_at_build():
    p = chain([[F(1, 2), F(1, 2)], [0, 1]])
    # a row that lost mass after validation: its one positive cell, state 1,
    # is now kept as 1/4, scaled by 4
    object.__setattr__(p, "_dens", (2, 4))
    with pytest.raises(ValueError,
                       match="^row 1 mass 1 does not cover its denominator 4$"):
        _Stepper(p)


def test_setup_reads_only_the_support_cells(monkeypatch):
    # a ring of n states, two arcs each: building it, its scaled rows and
    # its stepper read O(arcs) cells, where a dense scan reads n^2
    n = 512
    text = "".join(f"{i} {(i + d) % n} 1/2\n" for i in range(n) for d in (1, -1))
    calls = []
    real_bool, real_den = Fraction.__bool__, Fraction.denominator

    def counting_bool(x):
        calls.append(x)
        return real_bool(x)

    def counting_den(x):
        calls.append(x)
        return real_den.__get__(x)

    monkeypatch.setattr(Fraction, "__bool__", counting_bool)
    monkeypatch.setattr(Fraction, "denominator", property(counting_den))
    p = chain_from_edge_list(text)
    stepper = _Stepper(p)
    arcs = 2 * n
    assert len(calls) <= 6 * arcs
    assert stepper.targets[0] == (1, n - 1) and stepper.cuts[0] == (1, 2)


# a path 0 -> 1 -> 2 -> 3 into the root 3: every draw takes three steps
PATH4 = chain([[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [0, 0, 0, 1]])


def test_every_draw_stops_at_its_step_budget(monkeypatch):
    cfg = SamplerConfig(seed=7, sample_count=5, alpha=CycleWeights.constant(0))
    monkeypatch.setattr(wilson, "DRAW_STEP_BUDGET", 3)
    # the budget is per draw: five draws of three steps each fit
    assert len(sample_forests(PATH4, {3}, cfg)) == 5
    assert len(sample_ecrsf(PATH4, {3}, cfg)) == 5
    monkeypatch.setattr(wilson, "DRAW_STEP_BUDGET", 2)
    for draw in (lambda: sample_forests(PATH4, {3}, cfg),
                 lambda: sample_ecrsf(PATH4, {3}, cfg)):
        with pytest.raises(wilson.DrawBudgetError,
                           match="^a draw took more than 2 walk steps"):
            draw()
    assert issubclass(wilson.DrawBudgetError, ValueError)


def test_a_draw_past_its_budget_is_refused(monkeypatch):
    monkeypatch.setattr(wilson, "DRAW_STEP_BUDGET", 10**4)
    # state 0 stays put with probability 1 - 10^-12
    sticky = chain([[F(999999999999, 10**12), F(1, 10**12)], [0, 1]])
    with pytest.raises(wilson.DrawBudgetError):
        wilson_tree(sticky, 1, SamplerConfig(seed=1))
    # each closed cycle is kept with probability 10^-12
    cfg = SamplerConfig(seed=1, alpha=CycleWeights.constant(F(1, 10**12)))
    with pytest.raises(wilson.DrawBudgetError):
        sample_ecrsf(chain([[F(1, 2), F(1, 2)], [F(1, 2), F(1, 2)]]), (), cfg)


def test_a_huge_batch_is_refused_at_its_first_draw(monkeypatch):
    # the child seeds are derived as the draws start: a batch of 10^12
    # whose first draw is refused holds no list of 10^12 seeds
    monkeypatch.setattr(wilson, "DRAW_STEP_BUDGET", 2)
    cfg = SamplerConfig(seed=7, sample_count=10**12,
                        alpha=CycleWeights.constant(0))
    for draw in (sample_forests, sample_ecrsf):
        with pytest.raises(wilson.DrawBudgetError):
            draw(PATH4, {3}, cfg)


def _reference_walk(stepper, rs, seed):
    """Wilson's last-exit walk over states 0..n-1 with one randrange and
    one bisection per step: (parents, walk steps, steps that stay put)."""
    rng = random.Random(seed)
    n = len(stepper.dens)
    parent = [-1] * n
    settled = set(rs)
    steps = stays = 0
    for start in range(n):
        v = start
        while v not in settled:
            x = rng.randrange(stepper.dens[v])
            u = stepper.targets[v][bisect_right(stepper.cuts[v], x)]
            steps += 1
            stays += u == v
            parent[v] = v = u
        v = start
        while v not in settled:
            settled.add(v)
            v = parent[v]
    return parent, steps, stays


def _smallest_passing_budget(monkeypatch, draw, steps):
    """Check that ``draw`` passes a budget of ``steps`` and fails one less."""
    monkeypatch.setattr(wilson, "DRAW_STEP_BUDGET", steps)
    result = draw()
    monkeypatch.setattr(wilson, "DRAW_STEP_BUDGET", steps - 1)
    with pytest.raises(wilson.DrawBudgetError):
        draw()
    return result


def test_walk_steps_match_a_randrange_reference(monkeypatch):
    # ODD6_LAZY's odd denominators give rejected and straddling cells, and
    # half of every row's mass is a self-loop, which counts as a step
    stepper = _Stepper(ODD6_LAZY)
    assert any(-1 in cells for _bits, _shift, cells in stepper.rows)
    assert any(-2 in cells for _bits, _shift, cells in stepper.rows)
    alpha = CycleWeights(lambda c: F(1, len(c) + 2) if len(c) > 1 else F(1, 3))
    cfg = SamplerConfig(seed=1069, sample_count=40, alpha=alpha)
    batches = {roots: (sample_forests(ODD6_LAZY, roots, cfg),
                       sample_ecrsf(ODD6_LAZY, roots, cfg))
               for roots in (frozenset({0}), frozenset({2, 4}))}
    stayed = 0
    for roots, (forests, ecrsfs) in batches.items():
        for k, forest in enumerate(forests):
            one = SamplerConfig(seed=derive_seed(cfg.seed, k), alpha=alpha)
            parent, steps, stays = _reference_walk(stepper, roots, one.seed)
            stayed += stays
            assert list(forest.parent) == parent
            assert _smallest_passing_budget(
                monkeypatch, lambda: wilson_forest(ODD6_LAZY, roots, one),
                steps) == forest
            succ, steps = _reference_ecrsf(ODD6_LAZY, alpha, roots, one.seed)
            assert list(ecrsfs[k].successor) == succ
            assert _smallest_passing_budget(
                monkeypatch, lambda: kkw_sample(ODD6_LAZY, None, roots, one),
                steps) == ecrsfs[k]
    assert stayed


def test_equal_draws_of_a_batch_are_one_object():
    cfg = SamplerConfig(seed=1069, sample_count=300, alpha=HALF)
    cases = (
        (sample_forests(LAZY4, {0}, cfg),
         lambda one: wilson_forest(LAZY4, {0}, one),
         lambda f: RootedForest(f.n, f.roots, f.parent)),
        (sample_ecrsf(G4, set(), cfg),
         lambda one: kkw_sample(G4, None, set(), one),
         lambda e: Ecrsf(e.n, e.tree_roots, e.successor)),
    )
    for batch, single, rebuild in cases:
        first = {}
        for draw in batch:
            assert first.setdefault(draw, draw) is draw
        assert len(first) < len(batch)
        for k, draw in enumerate(batch):
            assert draw == single(
                SamplerConfig(seed=derive_seed(cfg.seed, k), alpha=HALF))
        # each draw reads as its checked rebuild does
        rebuilt = [rebuild(draw) for draw in batch]
        assert [d.to_json() for d in batch] == [d.to_json() for d in rebuilt]
        assert [hash(d) for d in batch] == [hash(d) for d in rebuilt]
        assert collections.Counter(batch) == collections.Counter(rebuilt)
        assert [getattr(d, "cycles", ()) for d in batch] \
            == [getattr(d, "cycles", ()) for d in rebuilt]


# -- branch law --------------------------------------------------------------

def test_lerw_path_prob_values(fixture_a):
    assert lerw_path_prob(fixture_a, {0}, PathTrace((1, 0))) == F(1, 3)
    assert lerw_path_prob(fixture_a, {0}, PathTrace((1, 2, 0))) == F(2, 3)


def test_lerw_total_mass(fixture_a, u4):
    for p, roots, start in ((fixture_a, {0}, 1), (fixture_a, {0}, 2),
                            (fixture_a, {1, 2}, 0), (u4, {3}, 0),
                            (u4, {1, 2}, 0)):
        total = sum(lerw_path_prob(p, roots, PathTrace(path))
                    for path in _branches(p.n, roots, start))
        assert total == 1


def _branches(n, roots, start):
    # self-avoiding paths from start, interior outside roots, ending in roots
    def grow(path):
        tip = path[-1]
        if tip in roots:
            yield tuple(path)
            return
        for nxt in range(n):
            if nxt not in path or nxt in roots:
                if nxt in roots:
                    yield tuple(path) + (nxt,)
                elif nxt not in path:
                    yield from grow(path + [nxt])
    return grow([start])


def test_lerw_path_prob_errors(fixture_a, r3):
    with pytest.raises(ValueError):
        lerw_path_prob(fixture_a, {0}, PathTrace((1,)))
    with pytest.raises(ValueError):  # start inside roots
        lerw_path_prob(fixture_a, {0}, PathTrace((0, 1, 0)))
    with pytest.raises(ValueError):  # does not end in roots
        lerw_path_prob(fixture_a, {0}, PathTrace((1, 2)))
    with pytest.raises(ValueError):  # revisit
        lerw_path_prob(fixture_a, {0}, PathTrace((1, 2, 1, 0)))
    with pytest.raises(InfeasibleRootSetError):
        lerw_path_prob(r3, {1}, PathTrace((0, 1)))


# -- goodness of fit ---------------------------------------------------------

def test_gof_impossible_cell_is_distinct_failure():
    report = gof_test({"a": 990, "b": 10}, {"a": 1.0, "b": 0.0})
    assert report.impossible == ("b",)
    assert not report.passed


def test_gof_single_cell_passes():
    report = gof_test({"a": 500}, {"a": 1.0})
    assert report.dof == 0
    assert report.p_value == 1.0
    assert report.passed


def test_gof_close_fit_passes():
    report = gof_test({"a": 251, "b": 249}, {"a": 0.5, "b": 0.5})
    assert report.passed
    assert report.sample_size == 500
    assert report.dof == 1
    doc = report.to_json()
    assert doc["passed"] is True and doc["dof"] == 1


def test_gof_gross_mismatch_fails():
    report = gof_test({"a": 450, "b": 50}, {"a": 0.5, "b": 0.5})
    assert not report.passed
    assert report.p_value < 1e-6


def test_chi2_sf_matches_scipy():
    stats = pytest.importorskip("scipy.stats")
    rng = random.Random(20)
    worst = 0.0
    for _ in range(400):
        dof = rng.choice((rng.randint(1, 20), rng.randint(1, 20000)))
        x = dof * rng.uniform(0, 3) + rng.uniform(0, 40)
        want = float(stats.chi2.sf(x, dof))
        if want > 1e-300:
            worst = max(worst, abs(_chi2_sf(x, dof) - want) / want)
    assert worst <= 1e-9


def test_chi2_sf_at_zero_is_one():
    for dof in (1, 2, 3, 10, 16806):
        assert _chi2_sf(0, dof) == 1


def test_chi2_sf_does_not_underflow_at_large_dof():
    # e^{-x/2} alone underflows here; the tail is near its median
    assert 0.4 < _chi2_sf(16806, 16806) < 0.6


def test_gof_threshold_is_tunable():
    report = gof_test({"a": 280, "b": 220}, {"a": 0.5, "b": 0.5})
    strict = gof_test({"a": 280, "b": 220}, {"a": 0.5, "b": 0.5},
                      threshold=0.5)
    assert report.statistic == strict.statistic
    assert report.passed and not strict.passed


def test_gof_input_validation():
    with pytest.raises(ValueError):  # mass does not sum to one
        gof_test({"a": 1}, {"a": 0.7})
    # exact laws over several denominators: mass 5/6, then exactly 1
    with pytest.raises(ValueError, match="expected probabilities must sum to 1"):
        gof_test({"a": 1}, {"a": F(1, 3), "b": F(1, 2), "c": 0})
    assert gof_test({"a": 2, "b": 3, "c": 1},
                    {"a": F(1, 3), "b": F(1, 2), "c": F(1, 6), "d": 0}).passed
    with pytest.raises(ValueError):  # no observations at all
        gof_test({}, {"a": 1.0})
    with pytest.raises(ValueError):
        gof_test({"a": 0}, {"a": 1.0})
