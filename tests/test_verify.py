from fractions import Fraction

import pytest

from forestchain import verify
from forestchain.verify import (
    SUITE_NAMES,
    corpus_chains,
    random_chain,
    random_irreducible_chain,
    random_symmetric_laplacian,
    run_suite,
    run_suites,
)


def test_corpus_is_deterministic_per_seed():
    a = corpus_chains(10, 5, seed=3)
    b = corpus_chains(10, 5, seed=3)
    c = corpus_chains(10, 5, seed=4)
    assert [m.rows for m in a] == [m.rows for m in b]
    assert [m.rows for m in a] != [m.rows for m in c]
    # sizes are nondecreasing so the first failing case is the smallest
    sizes = [m.n for m in a]
    assert sizes == sorted(sizes)
    assert sizes[0] == 2 and sizes[-1] == 5


def test_random_chain_rows_are_stochastic():
    import random
    rng = random.Random(99)
    for _ in range(30):
        p = random_chain(rng, 4)
        for row in p.rows:
            assert sum(row, Fraction(0)) == 1
            assert all(x >= 0 for x in row)


def test_random_irreducible_chain_is_irreducible():
    import random

    from forestchain import irreducibility_certificate
    rng = random.Random(5)
    for _ in range(10):
        p = random_irreducible_chain(rng, 4)
        assert irreducibility_certificate(p) is None


def test_random_symmetric_laplacian_shape():
    import random
    rng = random.Random(7)
    m = random_symmetric_laplacian(rng, 5)
    for i in range(5):
        assert sum(m[i]) == 0
        for j in range(5):
            assert m[i][j] == m[j][i]
            if i != j:
                assert m[i][j] <= 0


@pytest.mark.parametrize("name", [n for n in SUITE_NAMES if n != "wilson"])
def test_identity_suites_pass_small(name):
    result = run_suite(name, trials=12, max_n=4, seed=17)
    assert result.passed, result.failures
    assert result.checks > 0
    assert result.name == name
    doc = result.to_json()
    assert doc["passed"] is True and doc["seed"] == 17


def test_wilson_suite_passes_small():
    result = run_suite("wilson", trials=4000, max_n=3, seed=17)
    assert result.passed, result.failures
    assert result.checks > 0


def test_run_suites_aggregates():
    results = run_suites(["kirchhoff", "kemeny"], trials=6, max_n=3, seed=2)
    assert [r.name for r in results] == ["kirchhoff", "kemeny"]
    assert all(r.passed for r in results)


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suite("nope", trials=1, max_n=2, seed=0)


def test_fault_injection_is_caught(monkeypatch):
    # corrupt the tree-sum routine; the determinant cross-check must notice
    # and the failure record must carry a replayable chain
    real = verify.forests.w_sum

    def crooked(p, roots, guard=None, **kw):
        w = real(p, roots) if guard is None else real(p, roots, guard)
        return w + Fraction(1, 7) if len(roots) == 1 else w

    monkeypatch.setattr(verify.forests, "w_sum", crooked)
    result = run_suite("kirchhoff", trials=5, max_n=3, seed=123)
    assert not result.passed
    assert result.failures
    import json

    from forestchain import parse_chain
    record = json.loads(result.failures[0])
    assert "chain" in record and "detail" in record
    replay = parse_chain(json.dumps(record["chain"]))
    assert replay.n >= 2


def test_wilson_suite_checks_the_law_it_is_given(monkeypatch):
    # the sampler suite reads its laws through verify.forests.exact_law, so
    # a law with one configuration's mass moved to another must fail it
    real = verify.forests.exact_law

    def crooked(*args, **kw):
        law = real(*args, **kw)
        if len(law) > 1:
            first, second = list(law)[:2]
            law[second] += law[first]
            law[first] = 0
        return law

    monkeypatch.setattr(verify.forests, "exact_law", crooked)
    result = run_suite("wilson", trials=2000, max_n=3, seed=17)
    assert not result.passed
    assert "uniform 4-state tree sampler" in result.failures[0]


def test_suite_failure_stops_early(monkeypatch):
    calls = []
    real = verify.forests.w_sum

    def crooked(p, roots, guard=None, **kw):
        calls.append(1)
        w = real(p, roots) if guard is None else real(p, roots, guard)
        return w + 1

    monkeypatch.setattr(verify.forests, "w_sum", crooked)
    run_suite("kirchhoff", trials=50, max_n=6, seed=123)
    # early exit: far fewer evaluations than 50 chains' worth of root sets
    assert len(calls) < 10
