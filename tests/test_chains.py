import json
import pickle
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from forestchain import (
    ChainParseError,
    TransitionMatrix,
    WeightedDigraph,
    chain_from_edge_list,
    chain_to_json,
    format_rational,
    from_conductances,
    laplacian,
    parse_chain,
    parse_conductances,
    parse_rational,
    uniform_chain,
    weighted_laplacian,
)
from forestchain import chains
from forestchain.chains import MAX_STATES

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
    for parse in (chain_from_edge_list, parse_conductances):
        tracemalloc.start()
        try:
            with pytest.raises(
                    ChainParseError,
                    match=f"^state index {MAX_STATES} exceeds the limit of "
                          f"{MAX_STATES} states$"):
                parse(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


def test_edge_list_state_cap_boundary(monkeypatch):
    monkeypatch.setattr(chains, "MAX_STATES", 3)
    assert chain_from_edge_list("0 0 1\n1 1 1\n2 2 1\n").n == 3
    assert parse_conductances("a b 1\nb c 1\nc a 1\n").n == 3
    with pytest.raises(ChainParseError, match="^state index 3 exceeds"):
        chain_from_edge_list("0 0 1\n3 3 1\n")
    with pytest.raises(ChainParseError, match="^state index 3 exceeds"):
        parse_conductances("a b 1\nb c 1\nc d 1\n")


def test_edge_list_negative_entry_matches_dense_error():
    text = "0 1 1\n1 1 -1/2\n1 0 3/2\n"
    dense = ((Fraction(0), Fraction(1)), (Fraction(3, 2), Fraction(-1, 2)))
    with pytest.raises(ChainParseError) as sparse_err:
        chain_from_edge_list(text)
    with pytest.raises(ChainParseError) as dense_err:
        TransitionMatrix(dense)
    assert str(sparse_err.value) == str(dense_err.value)
    assert str(sparse_err.value) == "negative entry -1/2 at (1,1)"


def test_hash_is_memoized_and_survives_pickling():
    p = chain_from_edge_list("a b 1/2\na a 1/2\nb a 1\n")
    assert hash(p) == hash((p.rows, p.labels))
    # label hashes differ between processes, so loading recomputes the memo
    object.__setattr__(p, "_hash", 0)
    q = pickle.loads(pickle.dumps(p))
    assert q == p and hash(q) == hash((p.rows, p.labels))


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


def test_conductances_normalization():
    g = parse_conductances("0 1 2\n0 2 1\n1 0 1\n2 0 3\n")
    p = from_conductances(g)
    assert p.p(0, 1) == Fraction(2, 3)
    assert p.p(0, 2) == Fraction(1, 3)
    assert p.p(1, 0) == 1
    assert all(p.p(i, i) == 0 for i in range(3))


def test_conductances_zero_out_degree():
    g = WeightedDigraph(2, ((0, 1, Fraction(1)),))
    with pytest.raises(ChainParseError, match="vertex 1"):
        from_conductances(g)


def test_weighted_laplacian():
    g = WeightedDigraph(2, ((0, 1, Fraction(2)), (1, 0, Fraction(3))))
    assert weighted_laplacian(g) == ((Fraction(2), Fraction(-2)),
                                     (Fraction(-3), Fraction(3)))


def test_digraph_rejects_self_loop_and_negative():
    with pytest.raises(ChainParseError, match="self-loop"):
        WeightedDigraph(2, ((0, 0, Fraction(1)),))
    with pytest.raises(ChainParseError):
        WeightedDigraph(2, ((0, 1, Fraction(-1)),))


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
