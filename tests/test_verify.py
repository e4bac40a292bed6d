import collections
import hashlib
import itertools
import json
import random
from fractions import Fraction

import pytest

from forestchain import cli, forests, verify
from forestchain.chains import format_rational
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


# sha256 of each suite's JSON report, elapsed_seconds left out, on a small
# corpus at seed 17: the identity suites at trials=12, max_n=4, wilson at
# trials=2000, max_n=3. The checks, their order, their count and the random
# draws behind them must stay as they are.
SUITE_DIGESTS = {
    "kirchhoff":
        "297594ceb91d25d9a6de914d7350a9ae7743183b98279108b6aff9ddf63ca24b",
    "green":
        "88629a5df4e4fce7468833aae98b67d93588dacdd8c343663c32742e9c383d54",
    "kemeny":
        "e87c7c709f949c411f65e750fb1033e0f7fc891c971170bbd60383a01ea02c30",
    "chung":
        "e323a3f0b9f807ca738b0724afbbb5d7d8a217ecc24b75619918a0a08b4014bf",
    "treealg":
        "971ec12866c11e19dddeb2a9e21e1bab64f9eb495ccb88fe3473eb0f0843f02a",
    "wilson":
        "620a84eb763036f3a50142f6083470f92cd5e33ddee6b907d3b1264ab2ab9a30",
}


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_suite_report_is_pinned(name):
    trials, max_n = (2000, 3) if name == "wilson" else (12, 4)
    doc = run_suite(name, trials=trials, max_n=max_n, seed=17).to_json()
    del doc["elapsed_seconds"]
    text = json.dumps(doc, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == SUITE_DIGESTS[name]


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


def test_kirchhoff_checks_every_sigma_r_against_the_forest_polynomial(
        monkeypatch):
    # Sigma^(3) alone is wrong: det(xI + L) at x = 0..n must notice, though
    # every w(R) is right
    real = verify.forests.sigma_r

    def crooked(p, r, guard=None):
        s = real(p, r) if guard is None else real(p, r, guard)
        return s + Fraction(1, 7) if r == 3 else s

    monkeypatch.setattr(verify.forests, "sigma_r", crooked)
    result = run_suite("kirchhoff", trials=5, max_n=4, seed=123)
    assert not result.passed
    assert "det(xI + L)" in result.failures[0]


def test_kirchhoff_builds_each_root_set_table_once(monkeypatch):
    # fewer root sets kept than a chain has, as at n = 9 with the
    # default bound, but as many as its largest set of one size
    monkeypatch.setattr(forests, "_ROOT_SET_CACHE_SIZE", 10)
    builds = collections.Counter()
    real = forests._TreeSums.weight

    def counting(self, roots):
        if roots not in self.root_sets:
            builds[self, roots] += 1
        return real(self, roots)

    monkeypatch.setattr(forests._TreeSums, "weight", counting)
    forests._layer_sums.cache_clear()
    assert run_suite("kirchhoff", trials=6, max_n=5, seed=123).passed
    assert set(builds.values()) == {1}
    assert len(builds) == sum(2 ** p.n - 1 for p in corpus_chains(6, 5, 123))


def test_weight_only_readers_make_no_green_pass(monkeypatch, tmp_path, capsys):
    # w(R) is the merged-root column at every free state: the kirchhoff
    # suite, sigma_r, sigma_sums, w_sum and count never build a record
    def no_green_pass(self, roots):
        raise AssertionError(f"built the Green pass of {sorted(roots)}")

    monkeypatch.setattr(forests._TreeSums, "record", no_green_pass)
    forests._layer_sums.cache_clear()
    assert run_suite("kirchhoff", trials=8, max_n=6, seed=123).passed
    p = random_chain(random.Random(5), 6)
    for r in range(1, p.n + 1):
        assert forests.sigma_r(p, r) == sum(
            (forests.w_sum(p, roots)
             for roots in itertools.combinations(range(p.n), r)), Fraction(0))
    assert forests.sigma_sums(p).sigma_vector == tuple(
        forests.w_sum(p, {j}) for j in range(p.n))
    path = tmp_path / "chain.json"
    path.write_text(json.dumps({"n": p.n, "rows": [
        [format_rational(x) for x in row] for row in p.rows]}))
    assert cli.main(["count", "--input", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert all(c["enumerated"] == c["closed_form"]
               for c in doc["forest_counts"])


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
    assert len(result.failures) == 1
    assert "uniform 4-state tree sampler" in result.failures[0]


def test_wilson_suite_reports_impossible_alpha_zero_draws(monkeypatch):
    # draws rooted at {1} all fall where the {0}-rooted forest law puts no
    # mass; the p-value alone (1.0 at one live cell) would not show it
    real = verify.wilson.sample_ecrsf

    def misrooted(p, roots, cfg, *args, **kw):
        return real(p, {1}, cfg, *args, **kw)

    monkeypatch.setattr(verify.wilson, "sample_ecrsf", misrooted)
    result = run_suite("wilson", trials=2000, max_n=3, seed=17)
    assert result.checks == 14 and len(result.failures) == 1
    detail = json.loads(result.failures[0])["detail"]
    assert detail.startswith("alpha=0 sampler deviates from forest law")
    assert "impossible cells" in detail


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
