"""Value-type semantics of the checked types and the result records.

The checked types share ``chains.FrozenValue``: equality and hashing over
the fields, only within one class; a dataclass-style repr; no assignment or
deletion; pickling that runs the constructor's checks again. The result
records are NamedTuples.
"""

import pickle
from fractions import Fraction as F

import pytest

from forestchain import (
    ChainParseError,
    CycleWeights,
    Ecrsf,
    RootedForest,
    TransitionMatrix,
    analyze,
    sigma_sums,
)
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
    # the hash of the field tuple, as the generated dataclass hash was
    assert hash(a) == hash(b) == hash(tuple(getattr(a, f) for f in FIELDS[name]))
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
    assert Ecrsf._trusted(3, frozenset(), (1, 0, 0), (-1, -1, -1)) == a


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
