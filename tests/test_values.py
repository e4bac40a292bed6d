"""Value-type semantics of the checked types and the result records.

The checked types share ``chains.FrozenValue``: equality and hashing over
the fields, only within one class; a dataclass-style repr; no assignment or
deletion; pickling that runs the constructor's checks again. The result
records are NamedTuples.
"""

import json
import pickle
import random
from fractions import Fraction as F

import pytest

from forestchain import (
    ChainParseError,
    CycleWeights,
    Ecrsf,
    RootedForest,
    TransitionMatrix,
    analyze,
    enumerate_ecrsf,
    enumerate_forests,
    exact_law,
    sample_ecrsf,
    sample_forests,
    sigma_sums,
)
from forestchain.verify import random_irreducible_chain
from forestchain.wilson import PathTrace, SamplerConfig


def _rule(_cycle):
    return F(1, 2)


# each value twice, built separately, and once more with one field changed
CASES = {
    "RootedForest": lambda: RootedForest(3, {0}, (-1, 0, 1)),
    "Ecrsf": lambda: Ecrsf(3, set(), (1, 0, 0)),
    "TransitionMatrix": lambda: TransitionMatrix(
        ((F(1, 2), F(1, 2)), (1, 0)), ("a", "b")),
    "PathTrace": lambda: PathTrace((2, 1, 0)),
    "SamplerConfig": lambda: SamplerConfig(7, 3),
    "CycleWeights": lambda: CycleWeights(_rule),
}
CHANGED = {
    "RootedForest": RootedForest(3, {0}, (-1, 0, 0)),
    "Ecrsf": Ecrsf(3, {0}, (-1, 0, 0)),
    "TransitionMatrix": TransitionMatrix(((F(1, 2), F(1, 2)), (1, 0))),
    "PathTrace": PathTrace((2, 0)),
    "SamplerConfig": SamplerConfig(7, 4),
    "CycleWeights": CycleWeights(lambda _cycle: 1),
}
FIELDS = {
    "RootedForest": ("n", "roots", "parent"),
    "Ecrsf": ("n", "tree_roots", "successor"),
    "TransitionMatrix": ("rows", "labels"),
    "PathTrace": ("states",),
    "SamplerConfig": ("seed", "sample_count", "alpha"),
    "CycleWeights": ("rule",),
}
REPRS = {
    "RootedForest": "RootedForest(n=3, roots=frozenset({0}), parent=(-1, 0, 1))",
    "Ecrsf": "Ecrsf(n=3, tree_roots=frozenset(), successor=(1, 0, 0))",
    "TransitionMatrix": (
        "TransitionMatrix(rows=((Fraction(1, 2), Fraction(1, 2)), "
        "(Fraction(1, 1), Fraction(0, 1))), labels=('a', 'b'))"),
    "PathTrace": "PathTrace(states=(2, 1, 0))",
    "SamplerConfig": "SamplerConfig(seed=7, sample_count=3, alpha=None)",
    "CycleWeights": f"CycleWeights(rule={_rule!r})",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_equal_fields_give_equal_values_and_hashes(name):
    a, b = CASES[name](), CASES[name]()
    assert a is not b and a == b and not a != b
    assert hash(a) == hash(b)
    # the hash of the field tuple, as the generated dataclass hash was; a
    # chain hashes the integer parts of its nonzero cells instead
    if name != "TransitionMatrix":
        assert hash(a) == hash(tuple(getattr(a, f) for f in FIELDS[name]))
    assert a != CHANGED[name] and len({a, b, CHANGED[name]}) == 2


@pytest.mark.parametrize("name", sorted(CASES))
def test_repr_has_the_dataclass_format(name):
    assert repr(CASES[name]()) == REPRS[name]


@pytest.mark.parametrize("name", sorted(CASES))
def test_assignment_and_deletion_raise(name):
    value = CASES[name]()
    for field in (*FIELDS[name], "unknown"):
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        with pytest.raises(AttributeError):
            delattr(value, field)
    assert value == CASES[name]()


def test_only_values_of_one_class_compare_equal():
    forest = RootedForest(3, {0}, (-1, 0, 0))
    ecrsf = Ecrsf(3, {0}, (-1, 0, 0))
    assert (forest.n, forest.roots, forest.parent) \
        == (ecrsf.n, ecrsf.tree_roots, ecrsf.successor)
    assert forest != ecrsf and ecrsf != forest
    assert forest != (3, frozenset({0}), (-1, 0, 0))


def test_ecrsf_equality_ignores_cycles():
    a, b = Ecrsf(3, set(), (1, 0, 0)), Ecrsf(3, set(), (1, 0, 0))
    object.__setattr__(b, "cycles", ())
    assert a.cycles == ((0, 1),) and a == b and hash(a) == hash(b)
    assert Ecrsf._trusted(3, frozenset(), (1, 0, 0), (-1, -1, -1),
                          ((0, 1),)) == a


def _check_configuration(c):
    """Every read of a forest or cycle-rooted configuration against its
    fields: equality and hash of (n, roots, successors) within one class,
    the repr, pickling, the successor map, edges, root_of and to_json."""
    forest = type(c) is RootedForest
    names = ("roots", "parent") if forest else ("tree_roots", "successor")
    roots, succ = getattr(c, names[0]), getattr(c, names[1])
    twin = type(c)(c.n, set(roots), list(succ))
    assert twin == c and not twin != c
    assert hash(twin) == hash(c) == hash((c.n, roots, succ))
    assert repr(c) == (f"{type(c).__name__}(n={c.n}, {names[0]}={roots!r}, "
                       f"{names[1]}={succ!r})")
    loaded = pickle.loads(pickle.dumps(c))
    assert loaded == c and type(loaded) is type(c)
    arcs = {v: u for v, u in enumerate(succ) if u != -1}
    assert (c.parent_map() if forest else c.successor_map()) == arcs
    assert c.edges() == tuple(arcs.items())
    for v in range(c.n):
        seen, u = [], v
        while u != -1 and u not in seen:
            seen.append(u)
            u = succ[u]
        assert c.root_of(v) == (seen[-1] if u == -1 else None)
        if forest:
            assert c.path_to_root(v) == tuple(seen)
    doc = {"roots": sorted(roots),
           "parent": {str(v): u for v, u in sorted(arcs.items())}}
    if not forest:
        assert c.cycles == twin.cycles
        doc["cycles"] = [list(cycle) for cycle in c.cycles]
    # equal as dicts, and in the same key order
    assert c.to_json() == doc and json.dumps(c.to_json()) == json.dumps(doc)
    # the same successors as the other type never compare equal
    if forest:
        other = Ecrsf(c.n, roots, succ)
    elif roots and all(r is not None for r in map(c.root_of, range(c.n))):
        other = RootedForest(c.n, roots, succ)
    else:
        return
    assert other != c and c != other and not other == c


def test_configurations_from_every_builder_read_their_fields():
    rng = random.Random(30)
    # alpha = 0 keeps no cycle, so it needs a tree root as forests do
    laws = ((None, {0}), (CycleWeights.constant(0), {0}),
            (CycleWeights.constant(F(1, 2)), set()),
            (CycleWeights.constant(1), set()))
    built = [RootedForest(4, {0, 2}, (-1, 0, -1, 2)),
             Ecrsf(4, {3}, (1, 0, 0, -1)), Ecrsf(2, set(), (0, 1))]
    for n in (1, 2, 3):
        built += enumerate_forests(n, {0})
        built += enumerate_ecrsf(n, set())
        built += enumerate_ecrsf(n, {n - 1})
    for n in (3, 4):
        p = random_irreducible_chain(rng, n)
        for alpha, roots in laws:
            built += exact_law(p, roots, alpha)
            built += exact_law(p, {n - 1}, alpha)
            cfg = SamplerConfig(seed=rng.randrange(1 << 30), sample_count=20,
                                alpha=alpha)
            if alpha is None:
                built += sample_forests(p, {0, n - 1}, cfg)
            else:
                built += sample_ecrsf(p, roots, cfg)
    kinds = {(type(c), bool(getattr(c, "cycles", ()))) for c in built}
    assert kinds == {(RootedForest, False), (Ecrsf, False), (Ecrsf, True)}
    for c in built:
        _check_configuration(c)


@pytest.mark.parametrize("name, field, bad, error", [
    ("RootedForest", "parent", (-1, 2, 1), ValueError),
    ("Ecrsf", "successor", (1, 0, 3), ValueError),
    ("PathTrace", "states", (), ValueError),
    ("SamplerConfig", "sample_count", 0, ValueError),
    ("TransitionMatrix", "rows", ((F(1, 2), F(1, 2)), (F(1), F(1))),
     ChainParseError),
])
def test_pickle_round_trip_runs_the_checks(name, field, bad, error):
    value = CASES[name]()
    loaded = pickle.loads(pickle.dumps(value))
    assert loaded == value and type(loaded) is type(value)
    object.__setattr__(value, field, bad)
    blob = pickle.dumps(value)
    with pytest.raises(error):
        pickle.loads(blob)


def test_records_are_named_tuples(fixture_a):
    result = analyze(fixture_a)
    assert result._fields == ("pi", "mfpt", "kemeny")
    assert result._asdict()["kemeny"] == F(16, 7)
    assert result._replace(kemeny=0).pi == result.pi
    sums = sigma_sums(fixture_a)
    assert tuple(sums) == (sums.sigma_vector, sums.sigma1)
