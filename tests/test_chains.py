import ast
import itertools
import json
import pickle
import random
import re
import tracemalloc
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import example, given, strategies as st

from forestchain import (
    ChainParseError,
    TransitionMatrix,
    chain_from_edge_list,
    chain_to_json,
    format_rational,
    laplacian,
    parse_chain,
    parse_rational,
    ratio,
    sigma_sums,
    uniform_chain,
)
from forestchain import chains, cli, forests, formulas, oracle, verify, wilson
from forestchain.chains import MAX_STATES
from forestchain.verify import random_chain

F = Fraction

from conftest import chain


def test_parse_rational_forms():
    assert parse_rational("2/3") == Fraction(2, 3)
    assert parse_rational("1") == Fraction(1)
    assert parse_rational(" 7 / 14 ") == Fraction(1, 2)
    assert parse_rational(4) == Fraction(4)


@pytest.mark.parametrize("bad", ["0.5", "1e-3", "", "a/b", "1/0", None, True])
def test_parse_rational_rejects(bad):
    with pytest.raises((ChainParseError, TypeError)):
        parse_rational(bad)


# signed integers of up to about 300 digits, and small ones, which meet
# zero, units and shared factors more often
_BIG = st.one_of(st.integers(min_value=-10**300, max_value=10**300),
                 st.integers(min_value=-10**6, max_value=10**6))


@given(_BIG, _BIG.filter(bool))
@example(0, -7)
@example(6, -8)
@example(-6, -8)
@example(5, 1)
def test_ratio_builds_the_fraction_the_standard_library_builds(a, b):
    # both routes build every value they return with ratio, so the
    # comparison of the routes cannot see a fault in it; this test can
    got, want = ratio(a, b), Fraction(a, b)
    assert type(got) is Fraction
    assert got == want
    assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
    assert hash(got) == hash(want)
    assert str(got) == str(want) and repr(got) == repr(want)
    loaded = pickle.loads(pickle.dumps(got))
    assert type(loaded) is Fraction
    assert (loaded.numerator, loaded.denominator) == (want.numerator,
                                                      want.denominator)


@given(st.integers(min_value=-10**300, max_value=10**300))
def test_ratio_refuses_a_zero_denominator(a):
    with pytest.raises(ZeroDivisionError):
        ratio(a, 0)


def _lowest_terms(values):
    for q in values:
        if isinstance(q, tuple):
            yield from _lowest_terms(q)
        else:
            yield (type(q) is Fraction and q.denominator > 0
                   and gcd(q.numerator, q.denominator) == 1)


def test_every_result_of_both_routes_is_in_lowest_terms():
    rng = random.Random(1069)
    checked = 0
    for t in range(120):
        n = 2 + t % 5
        p = random_chain(rng, n)
        results = []
        if oracle.irreducibility_certificate(p) is None:
            results += [formulas.analyze(p), oracle.stationary_solve(p),
                        oracle.mfpt_solve(p), oracle.fundamental_matrix(p),
                        (oracle.kemeny_trace(p),)]
        for r in range(1, n):
            for rs in itertools.combinations(range(n), r):
                if not forests.root_set_sums(p, rs).weight:
                    continue
                ab = formulas.absorption(p, rs)
                results += [(forests.w_sum(p, rs),), ab.green, ab.hit,
                            ab.mean_hit, oracle.green_matrix_solve(p, rs),
                            oracle.hitting_solve(p, rs)]
        flags = list(_lowest_terms(tuple(results)))
        assert all(flags)
        checked += len(flags)
    assert checked > 10_000


def test_no_fraction_in_the_package_is_built_from_two_arguments():
    # ratio is the one constructor of a Fraction from two ints
    for module in (chains, forests, formulas, oracle, cli, verify, wilson):
        with open(module.__file__, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        calls = [ast.unparse(node) for node in ast.walk(tree)
                 if isinstance(node, ast.Call)
                 and isinstance(node.func, ast.Name)
                 and node.func.id == "Fraction"
                 and (len(node.args) > 1
                      or any(isinstance(a, ast.Starred) for a in node.args))]
        assert calls == [], module.__name__


def test_format_rational_omits_unit_denominator():
    assert format_rational(Fraction(3, 2)) == "3/2"
    assert format_rational(Fraction(4, 2)) == "2"
    assert format_rational(Fraction(0)) == "0"


def test_matrix_document_round_trip(fixture_a):
    doc = chain_to_json(fixture_a)
    again = parse_chain(json.dumps(doc))
    assert again == fixture_a
    assert again.p(1, 2) == Fraction(2, 3)


def test_matrix_document_row_sum_error():
    doc = {"n": 2, "rows": [["1/3", "1/2"], ["0", "1"]]}
    with pytest.raises(ChainParseError, match="row 0 sums to 5/6"):
        parse_chain(json.dumps(doc))


def test_matrix_document_negative_entry():
    doc = {"n": 2, "rows": [["3/2", "-1/2"], ["0", "1"]]}
    with pytest.raises(ChainParseError, match=r"negative entry"):
        parse_chain(json.dumps(doc))


def test_matrix_document_shape_errors():
    with pytest.raises(ChainParseError):
        parse_chain(json.dumps({"n": 2, "rows": [["1", "0"]]}))
    with pytest.raises(ChainParseError):
        parse_chain(json.dumps({"n": 2, "rows": [["1", "0"], ["1"]]}))
    with pytest.raises(ChainParseError, match="invalid JSON"):
        parse_chain("{not json")


@pytest.mark.parametrize("labels", [5, "ab", {"a": 1}, [1, 2], ["a", None]])
def test_matrix_document_labels_must_be_a_list_of_strings(labels):
    doc = {"rows": [["1/2", "1/2"], ["1", "0"]], "labels": labels}
    with pytest.raises(ChainParseError, match="'labels' must be a list of strings"):
        parse_chain(json.dumps(doc))


def test_matrix_document_labels_absent_or_null():
    rows = [["1/2", "1/2"], ["1", "0"]]
    assert parse_chain(json.dumps({"rows": rows})).labels is None
    assert parse_chain(json.dumps({"rows": rows, "labels": None})).labels is None
    assert parse_chain(json.dumps({"rows": rows, "labels": ["a", "b"]})).labels \
        == ("a", "b")
    with pytest.raises(ChainParseError, match="^1 labels for 2 states$"):
        parse_chain(json.dumps({"rows": rows, "labels": ["a"]}))


@pytest.mark.parametrize("n, given", [
    (True, "true"), (1.0, "1.0"), ("1", '"1"'), (None, "null"), ([1], "[1]")])
def test_matrix_document_n_must_be_an_integer(n, given):
    # true and 1.0 compare equal to 1, and "1" printed as 1 beside 1 row
    with pytest.raises(ChainParseError,
                       match=rf"^'n' must be an integer, got {re.escape(given)}$"):
        parse_chain(json.dumps({"n": n, "rows": [["1"]]}))
    assert parse_chain(json.dumps({"n": 1, "rows": [["1"]]})).n == 1


def test_matrix_document_labels_must_be_distinct():
    rows = [["1/2", "1/2", "0"], ["1", "0", "0"], ["0", "0", "1"]]
    with pytest.raises(ChainParseError, match='^duplicate label "a"$'):
        parse_chain(json.dumps({"rows": rows, "labels": ["a", "b", "a"]}))
    with pytest.raises(ChainParseError, match='^duplicate label ""$'):
        parse_chain(json.dumps({"rows": rows, "labels": ["", "b", ""]}))
    assert parse_chain(json.dumps({"rows": rows, "labels": ["a", "A", "b"]})) \
        .labels == ("a", "A", "b")


def test_edge_list_builds_d2(d2):
    text = "# two-state swap\n0 1 1/1\n1 0 1/1\n"
    assert parse_chain(text, fmt="edges") == d2


def test_edge_list_labels_first_appearance():
    text = "a b 1\nb a 1/2\nb c 1/2\nc a 1\n"
    p = chain_from_edge_list(text)
    assert p.labels == ("a", "b", "c")
    assert p.p(1, 2) == Fraction(1, 2)


def test_edge_list_bad_line():
    with pytest.raises(ChainParseError, match="line 2"):
        chain_from_edge_list("0 1 1\n0 1\n")


def test_edge_list_duplicate_cell():
    with pytest.raises(ChainParseError, match="duplicate"):
        chain_from_edge_list("0 1 1/2\n0 1 1/2\n1 0 1\n")


def test_edge_list_fails_before_densifying():
    tracemalloc.start()
    try:
        with pytest.raises(ChainParseError, match="^row 1 sums to 0$"):
            chain_from_edge_list("0 2000 1\n")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_edge_list_state_cap_comes_before_the_matrix():
    # a valid document, one state over the cap: refused while parsing, with
    # a peak far below the 2049 x 2049 matrix it would have built
    text = "".join(f"{v} {v} 1\n" for v in range(MAX_STATES + 1))
    tracemalloc.start()
    try:
        with pytest.raises(
                ChainParseError,
                match=f"^state index {MAX_STATES} exceeds the limit of "
                      f"{MAX_STATES} states$"):
            chain_from_edge_list(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_edge_list_state_cap_boundary(monkeypatch):
    monkeypatch.setattr(chains, "MAX_STATES", 3)
    assert chain_from_edge_list("0 0 1\n1 1 1\n2 2 1\n").n == 3
    assert chain_from_edge_list("a b 1\nb c 1\nc a 1\n").n == 3
    with pytest.raises(ChainParseError, match="^state index 3 exceeds"):
        chain_from_edge_list("0 0 1\n3 3 1\n")
    with pytest.raises(ChainParseError, match="^state index 3 exceeds"):
        chain_from_edge_list("a b 1\nb c 1\nc d 1\nd a 1\n")


def test_edge_list_negative_entry_matches_dense_error():
    text = "0 1 1\n1 1 -1/2\n1 0 3/2\n"
    dense = ((Fraction(0), Fraction(1)), (Fraction(3, 2), Fraction(-1, 2)))
    with pytest.raises(ChainParseError) as sparse_err:
        chain_from_edge_list(text)
    with pytest.raises(ChainParseError) as dense_err:
        TransitionMatrix(dense)
    assert str(sparse_err.value) == str(dense_err.value)
    assert str(sparse_err.value) == "negative entry -1/2 at (1,1)"


def test_edge_list_cost_follows_its_listed_cells(monkeypatch):
    # a ring: two arcs per state, every other cell absent
    n = 64
    text = "".join(f"{i} {(i + d) % n} 1/2\n" for i in range(n) for d in (1, -1))
    seen = []
    real = chains._check_row

    def spy(i, cells):
        cells = list(cells)
        seen.extend(x for _j, x in cells)
        return real(i, cells)

    monkeypatch.setattr(chains, "_check_row", spy)
    p = chain_from_edge_list(text)
    # each row is checked once, from its two listed arcs
    assert len(seen) == 2 * n and all(seen)
    absent = {id(x) for row in p.rows for x in row if not x}
    assert len(absent) == 1
    assert p.support()[0] == (1, n - 1)


def test_hash_is_memoized_and_survives_pickling():
    p = chain_from_edge_list("a b 1/2\na a 1/2\nb a 1\n")
    same = TransitionMatrix(p.rows, p.labels)
    assert same == p and hash(p) == hash(same)
    # label hashes differ between processes, so loading recomputes the memo
    object.__setattr__(p, "_hash", 0)
    q = pickle.loads(pickle.dumps(p))
    assert q == p and hash(q) == hash(same)


def test_building_a_ring_hashes_no_fraction(monkeypatch):
    n = 256
    text = "".join(f"{i} {(i + d) % n} 1/2\n" for i in range(n) for d in (1, -1))
    calls = []
    real = Fraction.__hash__

    def counting(x):
        calls.append(x)
        return real(x)

    monkeypatch.setattr(Fraction, "__hash__", counting)
    p = chain_from_edge_list(text)
    assert hash(p) == hash(chain_from_edge_list(text)) and calls == []


def test_edge_list_chain_equals_its_dense_copy():
    # a listed zero cell ("b c 0") stays out of the support
    p = chain_from_edge_list("a b 1/2\na a 1/2\nb c 0\nb a 1\nc c 1\n")
    q = TransitionMatrix(p.rows, p.labels)
    assert p == q and hash(p) == hash(q)
    assert p.support() == q.support() == ((0, 1), (0,), (2,))


def test_scaled_rows_match_the_dense_scan():
    rng = random.Random(31)
    for t in range(3000):
        p = random_chain(rng, 1 + t % 9)
        dens = tuple(lcm(*[x.denominator for x in row]) for row in p.rows)
        nums = tuple(tuple(x.numerator * (d // x.denominator) for x in row)
                     for row, d in zip(p.rows, dens))
        assert chains.scaled_rows(p) == (nums, dens)


def test_scaled_rows_read_no_fraction_once_the_chain_is_built(monkeypatch):
    # the row check scales each row's support cells, and the chain keeps
    # them: scaled_rows lays them out without reading a Fraction
    n = 64
    ring = "".join(f"{i} {(i + d) % n} {d % 3}/3\n"
                   for i in range(n) for d in (1, 2))
    built = [chain_from_edge_list(ring), random_chain(random.Random(37), 7)]
    calls = []
    for name in ("numerator", "denominator"):
        real = getattr(Fraction, name)
        monkeypatch.setattr(Fraction, name, property(
            lambda x, real=real: calls.append(x) or real.__get__(x)))
    real_bool = Fraction.__bool__
    monkeypatch.setattr(Fraction, "__bool__",
                        lambda x: calls.append(x) or real_bool(x))
    scaled = [chains.scaled_rows(p) for p in built]
    assert calls == []
    monkeypatch.undo()
    nums, dens = scaled[0]
    assert dens == (3,) * n
    assert nums[0][1] == 1 and nums[0][2] == 2 and nums[0][3] == 0


def test_chains_one_cell_apart_keep_separate_sums():
    p = chain([[F(1, 2), F(1, 2)], [1, 0]])
    q = chain([[F(1, 3), F(2, 3)], [1, 0]])
    assert p != q and p.support() == q.support()
    # the forest sums kept per chain: one tree into each state
    assert sigma_sums(p).sigma_vector == (F(1), F(1, 2))
    assert sigma_sums(q).sigma_vector == (F(1), F(2, 3))
    assert forests._layer_sums(p) is not forests._layer_sums(q)


def test_chain_type_refuses_repeated_labels():
    rows = ((F(1, 2), F(1, 2)), (F(1), F(0)))
    with pytest.raises(ChainParseError, match='^duplicate label "a"$'):
        TransitionMatrix(rows, ("a", "a"))
    rng = random.Random(30)
    for n in range(1, 8):
        p = random_chain(rng, n)
        names = rng.sample(["a", "b", "", "A", "a b", "0", "é", "\"", "x"], n)
        labelled = TransitionMatrix(p.rows, names)
        assert parse_chain(json.dumps(chain_to_json(labelled))) == labelled


def test_transition_matrix_validation():
    with pytest.raises(ChainParseError):
        TransitionMatrix(((Fraction(1, 2),),))
    square = TransitionMatrix(((Fraction(1),),))
    assert square.n == 1 and square.p(0, 0) == 1


def test_support(fixture_a):
    assert fixture_a.support() == ((1, 2), (0, 2), (0,))


def test_support_is_memoized_and_survives_pickling(fixture_a):
    assert fixture_a.support() is fixture_a.support()
    q = pickle.loads(pickle.dumps(fixture_a))
    assert q.support() == ((1, 2), (0, 2), (0,))
    assert q == fixture_a and hash(q) == hash(fixture_a)
    assert repr(q) == repr(fixture_a) and "_support" not in repr(q)


def test_uniform_chain_rows():
    u = uniform_chain(3)
    assert all(x == Fraction(1, 3) for row in u.rows for x in row)
    with pytest.raises(ValueError):
        uniform_chain(0)


def test_laplacian_values(fixture_a, d2):
    assert laplacian(d2) == ((Fraction(1), Fraction(-1)),
                             (Fraction(-1), Fraction(1)))
    assert laplacian(fixture_a)[2] == (Fraction(-1), Fraction(0), Fraction(1))


@st.composite
def stochastic_rows(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    rows = []
    for _ in range(n):
        weights = draw(st.lists(st.integers(min_value=0, max_value=9),
                                min_size=n, max_size=n))
        if sum(weights) == 0:
            weights[draw(st.integers(min_value=0, max_value=n - 1))] = 1
        total = sum(weights)
        rows.append(tuple(Fraction(w, total) for w in weights))
    return TransitionMatrix(tuple(rows))


@given(stochastic_rows())
def test_json_round_trip_is_exact(p):
    assert parse_chain(json.dumps(chain_to_json(p))) == p
