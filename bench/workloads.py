"""The four benchmark workloads and the closed loop that drives them.

One client, closed loop: each operation starts only after the previous one
has finished. Inputs are generated from the workload seed; the program only
ever sees the generated inputs. Every operation's output is checked, and an
operation that raises, disagrees between the two routes, fails a chi-square
test, exits with the wrong code or misses a pinned digest counts as failed.

``run`` is the entry point: it sets a workload up (imports, inputs, one
untimed warm-up operation per distinct input size), runs the timed phase and
returns the result record that ``run.py`` prints.
"""

from __future__ import annotations

import compileall
import hashlib
import itertools
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import hostspeed

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
PINS_PATH = BENCH_DIR / "pinned.json"

DEFAULT_SEED = 1069
WORKLOADS = ("exact", "crosscheck", "sample", "cold")

# The chi-square check runs on every sample batch of every run and seed, so
# thousands of tests are made per benchmark proof. At the program's 1e-3
# threshold one correct batch in a thousand would be counted as failed; a
# sampler with a wrong law scores p-values far below 1e-9 at this batch size.
GOF_THRESHOLD = 1e-9
SAMPLE_BATCH = 1000
LAZY_EPS = Fraction(1, 4)
CHILD_TIMEOUT_S = 60
PREFETCH_OPS = 64  # inputs generated in set-up; later ones between operations
PROBE_EVERY_S = 0.2  # host-speed probes: at most one per operation, this far apart


def _rng(seed: int, *parts) -> random.Random:
    """Independent stream per (seed, parts); string seeds hash with SHA-512."""
    return random.Random("/".join(str(x) for x in (seed, *parts)))


def _fmt(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _dense_rows(rng: random.Random, n: int, lo: int, hi: int) -> list[list[Fraction]]:
    rows = []
    for _ in range(n):
        weights = [rng.randint(lo, hi) for _ in range(n)]
        total = sum(weights)
        rows.append([Fraction(w, total) for w in weights])
    return rows


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()


@dataclass
class OpResult:
    key: str                 # input class, for comparisons across phases
    latency: float           # seconds
    items: int               # chains, draws or processes completed
    problems: list[str] = field(default_factory=list)
    extra: dict = field(default_factory=dict)
    speed: float = 1.0       # reference-speed seconds per measured second

    @property
    def scaled(self) -> float:
        """Latency at the reference host speed (see hostspeed.py)."""
        return self.latency * self.speed


# ---------------------------------------------------------------------------
# exact: one distinct n = 7 chain through analyze and absorption, both routes

class Exact:
    """Forest route on n = 7: one sparse chain, then three dense ones."""

    n = 7
    item = "chains"
    round_ops = 4
    host_probe = staticmethod(hostspeed.probe)

    def __init__(self, seed: int):
        from forestchain import chains, formulas, oracle, verify
        self.chains, self.formulas, self.oracle, self.verify = chains, formulas, oracle, verify
        self.seed = seed
        self.inputs: list[tuple] = []
        self._seen: set[str] = set()

    def _make(self, rng: random.Random, kind: str) -> tuple:
        while True:
            if kind == "sparse":
                p = self.verify.random_irreducible_chain(rng, self.n)
            else:
                p = self.chains.TransitionMatrix(
                    tuple(map(tuple, _dense_rows(rng, self.n, 1, 9))))
            text = json.dumps(self.chains.chain_to_json(p))
            if text not in self._seen:
                self._seen.add(text)
                break
        one = frozenset({rng.randrange(self.n)})
        two = frozenset(rng.sample(range(self.n), 2))
        return kind, text, (one, two)

    def input(self, k: int) -> tuple:
        while len(self.inputs) <= k:
            i = len(self.inputs)
            # one sparse chain in four: sparse chains cost about half as much,
            # and with an even split the median and the tail would sit on the
            # gap between the two latency clusters and jump from seed to seed
            kind = "sparse" if i % 4 == 0 else "dense"
            self.inputs.append(self._make(_rng(self.seed, "exact", i), kind))
        return self.inputs[k]

    def setup(self) -> None:
        self.input(PREFETCH_OPS - 1)
        warm = self._make(_rng(self.seed, "exact", "warm-up"), "dense")
        self._run(warm)

    def _run(self, inp: tuple) -> list[str]:
        chains, formulas, oracle = self.chains, self.formulas, self.oracle
        _kind, text, root_sets = inp
        problems = []
        p = chains.parse_chain(text)
        a = formulas.analyze(p)
        if a.pi != oracle.stationary_solve(p):
            problems.append("stationary law differs between routes")
        if a.mfpt != oracle.mfpt_solve(p):
            problems.append("MFPT matrix differs between routes")
        if a.kemeny != oracle.kemeny_trace(p):
            problems.append("Kemeny constant differs between routes")
        for roots in root_sets:
            problems += _absorption_problems(formulas, oracle, p, roots)
        return problems

    def op(self, k: int) -> OpResult:
        inp = self.input(k)
        t0 = time.perf_counter()
        problems = self._run(inp)
        return OpResult(inp[0], time.perf_counter() - t0, 1, problems)


def _absorption_problems(formulas, oracle, p, roots) -> list[str]:
    ab = formulas.absorption(p, roots)
    green = oracle.green_matrix_solve(p, roots)
    hit = oracle.hitting_solve(p, roots)
    problems = []
    if ab.green != green:
        problems.append(f"Green matrix differs for R={sorted(roots)}")
    if ab.hit != hit:
        problems.append(f"hitting law differs for R={sorted(roots)}")
    if ab.mean_hit != tuple(sum(row, Fraction(0)) for row in green):
        problems.append(f"mean hitting times differ for R={sorted(roots)}")
    return problems


# ---------------------------------------------------------------------------
# crosscheck: small corpus chains, both routes over every root set

class Crosscheck:
    """verify corpus chains: in every round two irreducible ones of each size
    n = 2, 3, 5, 6, four irreducible ones of size 4, and one reducible one of
    size 5 and of size 6.

    The chains come from verify.corpus_chains; each slot of the fixed
    pattern keeps drawing until the chain has the slot's reducibility, so
    the mix does not vary from seed to seed. Sorted by cost, a round is five
    cheaper chains (irreducible n = 2, 3 and reducible n = 5), the four
    irreducible n = 4 chains, and five dearer ones, so the median operation
    is the median irreducible n = 4 chain and not a jump between two classes.
    """

    sizes = (2, 3, 4, 5, 6)
    pattern = tuple([(n, True) for n in sizes for _ in range(4 if n == 4 else 2)]
                    + [(5, False), (6, False)])
    item = "chains"
    round_ops = len(pattern)
    host_probe = staticmethod(hostspeed.probe)

    def __init__(self, seed: int):
        from forestchain import chains, forests, formulas, oracle, verify
        self.chains, self.forests, self.formulas = chains, forests, formulas
        self.oracle, self.verify = oracle, verify
        self.seed = seed
        self.inputs: list = []

    def _make(self, n: int, irreducible: bool, stream) -> object:
        for attempt in itertools.count():
            sub_seed = _rng(self.seed, "crosscheck", stream, attempt).getrandbits(64)
            p = self.verify.corpus_chains(1, n, sub_seed, irreducible, min_n=n)[0]
            if irreducible or self.oracle.irreducibility_certificate(p) is not None:
                return p

    def input(self, k: int):
        while len(self.inputs) <= k:
            i = len(self.inputs)
            self.inputs.append(self._make(*self.pattern[i % self.round_ops], i))
        return self.inputs[k]

    def setup(self) -> None:
        self.input(PREFETCH_OPS - 1)
        for n in self.sizes:
            self._run(self._make(n, True, f"warm-up-{n}"))

    def _run(self, p) -> list[str]:
        chains, forests, formulas, oracle = (
            self.chains, self.forests, self.formulas, self.oracle)
        n = p.n
        problems = []
        lap = chains.laplacian(p)
        for r in range(1, n + 1):
            for roots in itertools.combinations(range(n), r):
                keep = [v for v in range(n) if v not in roots]
                det = oracle.exact_det([[lap[a][b] for b in keep] for a in keep])
                if det != forests.w_sum(p, roots):
                    problems.append(f"w(R) != det L(R) for R={list(roots)}")
        for r in range(1, n):
            for roots in itertools.combinations(range(n), r):
                if forests.w_sum(p, roots) != 0:
                    problems += _absorption_problems(formulas, oracle, p, roots)
                    continue
                for route in (oracle.green_matrix_solve, formulas.absorption):
                    try:
                        route(p, roots)
                    except chains.InfeasibleRootSetError:
                        continue
                    problems.append(f"infeasible R={list(roots)} accepted by "
                                    f"{route.__name__}")
        if oracle.irreducibility_certificate(p) is not None:
            for route in (formulas.analyze, oracle.stationary_solve):
                try:
                    route(p)
                except chains.ReducibleChainError:
                    continue
                problems.append(f"reducible chain accepted by {route.__name__}")
            return problems
        a = formulas.analyze(p)
        if (a.pi != oracle.stationary_solve(p) or a.mfpt != oracle.mfpt_solve(p)
                or a.kemeny != oracle.kemeny_trace(p)):
            problems.append("analyze differs from the oracle")
        for i, j, k in itertools.product(range(n), repeat=3):
            if i == k or j == k:
                continue
            if (formulas.chung_occupation(p, i, j, k)
                    != formulas.green_occupation(p, {k}, i, j)):
                problems.append(f"occupation identity fails at ({i},{j},{k})")
        return problems

    def op(self, k: int) -> OpResult:
        p = self.input(k)
        t0 = time.perf_counter()
        problems = self._run(p)
        return OpResult(f"n={p.n}", time.perf_counter() - t0, 1, problems)


# ---------------------------------------------------------------------------
# sample: fixed-size batches from the forest and cycle-rooted samplers

@dataclass
class SampleCase:
    name: str
    chain: object
    roots: frozenset
    alpha: object = None          # CycleWeights for the cycle-rooted sampler
    trace_g: float = 0.0          # tr G_R, the expected walk steps per draw
    pair: str = ""                # plain and lazy copies share a pair name


class Sample:
    """Forest draws at n = 4, 6, 8, |R| = 1, 2, each chain also lazy, plus
    cycle-rooted draws with alpha = 1/2 at n = 4 and 6."""

    sizes = (4, 6, 8)
    item = "draws"
    host_probe = staticmethod(hostspeed.probe)
    # 6 plain/lazy forest pairs and 3 cycle-rooted cases: an odd number of
    # equally frequent cases puts the median latency inside one case

    def __init__(self, seed: int):
        from forestchain import chains, forests, oracle, wilson
        self.chains, self.forests, self.oracle, self.wilson = chains, forests, oracle, wilson
        self.seed = seed
        self.cases: list[SampleCase] = []
        self.pins: dict = {}
        self.build_law = self._build_law

    def _lazy(self, p):
        n = p.n
        return self.chains.TransitionMatrix(tuple(
            tuple((1 - LAZY_EPS) * (i == j) + LAZY_EPS * p.rows[i][j]
                  for j in range(n)) for i in range(n)))

    def setup(self) -> None:
        chains, oracle = self.chains, self.oracle
        for n in self.sizes:
            rng = _rng(self.seed, "sample", n)
            # dense rows with weights 4..6 keep tr G_R, and so the cost of a
            # draw, within a narrow band from seed to seed
            p = chains.TransitionMatrix(tuple(map(tuple, _dense_rows(rng, n, 4, 6))))
            for size in (1, 2):
                roots = frozenset(rng.sample(range(n), size))
                for lazy, q in ((False, p), (True, self._lazy(p))):
                    green = oracle.green_matrix_solve(q, roots)
                    trace_g = float(sum(green[i][i] for i in range(len(green))))
                    self.cases.append(SampleCase(
                        f"n{n}-r{size}-{'lazy' if lazy else 'plain'}", q, roots,
                        trace_g=trace_g, pair=f"n{n}-r{size}"))
            alpha = self.forests.CycleWeights.constant(Fraction(1, 2))
            if n == 4:
                self.cases.append(SampleCase("ecrsf-r0", p, frozenset({0}), alpha))
                self.cases.append(SampleCase("ecrsf-rnone", p, frozenset(), alpha))
            if n == 6:
                self.cases.append(SampleCase("ecrsf-n6-r0", p, frozenset({0}), alpha))
        self.round_ops = len(self.cases)
        warmed = set()
        for i, case in enumerate(self.cases):
            if case.chain.n not in warmed:
                warmed.add(case.chain.n)
                self._run(case, _rng(self.seed, "sample-warm-up", i).getrandbits(64))

    def _build_law(self, case: SampleCase) -> dict:
        forests, p, n = self.forests, case.chain, case.chain.n
        law = {}
        if case.alpha is None:
            total = forests.w_sum(p, case.roots)
            for f in forests.enumerate_forests(n, case.roots):
                weight = forests.forest_weight(f, p)
                if weight:
                    law[f] = weight / total
        else:
            total, _table = forests.w_ec_sums(p, case.alpha, case.roots)
            for f in forests.enumerate_ecrsf(n, case.roots):
                weight = forests.ecrsf_weight(f, p, case.alpha)
                if weight:
                    law[f] = weight / total
        return law

    def _run(self, case: SampleCase, sampler_seed: int):
        wilson = self.wilson
        t0 = time.perf_counter()
        if case.alpha is None:
            cfg = wilson.SamplerConfig(seed=sampler_seed, sample_count=SAMPLE_BATCH)
            draws = wilson.sample_forests(case.chain, case.roots, cfg)
        else:
            cfg = wilson.SamplerConfig(seed=sampler_seed, sample_count=SAMPLE_BATCH,
                                       alpha=case.alpha)
            draws = wilson.sample_ecrsf(case.chain, case.roots, cfg)
        t1 = time.perf_counter()
        problems = []
        if case.chain.n <= 5:
            counts: dict = {}
            for f in draws:
                counts[f] = counts.get(f, 0) + 1
            report = wilson.gof_test(counts, self.build_law(case), GOF_THRESHOLD)
            if not report.passed:
                problems.append(
                    f"{case.name}: chi-square p={report.p_value:.3g}, "
                    f"{len(report.impossible)} impossible cells")
        t2 = time.perf_counter()
        return draws, problems, t1 - t0, t2 - t0

    def op(self, k: int) -> OpResult:
        case = self.cases[k % len(self.cases)]
        batch = k // len(self.cases)
        sampler_seed = _rng(self.seed, "sample", case.name, batch).getrandbits(64)
        draws, problems, draw_s, latency = self._run(case, sampler_seed)
        rows = case.chain.rows
        for f in draws:
            got = f.roots if case.alpha is None else f.tree_roots
            if got != case.roots or any(rows[v][u] <= 0 for v, u in f.edges()):
                problems.append(f"{case.name}: draw {f.edges()} is impossible")
                break
        digest = _digest([f.edges() for f in draws])
        pinned = self.pins.get(f"{case.name}/{batch}")
        if pinned is not None and pinned != digest:
            problems.append(f"{case.name}/{batch}: draw stream differs from the pin")
        return OpResult(case.name, latency, len(draws), problems,
                        {"draw_s": draw_s, "digest": digest,
                         "pin": f"{case.name}/{batch}", "checked": pinned is not None})


# ---------------------------------------------------------------------------
# cold: one `python -m forestchain` process per operation

@dataclass
class ColdEntry:
    name: str
    argv: list[str]
    stdin: str
    exit_code: int
    check: object                 # (stdout, stderr) -> list of problems


def _rows_json(rows) -> str:
    return json.dumps({"n": len(rows), "rows": [[_fmt(x) for x in r] for r in rows]})


def _pi_problems(rows, out: dict) -> list[str]:
    """Independent check: the printed law is stationary for the input rows."""
    pi = [Fraction(x) for x in out["pi"]]
    n = len(rows)
    moved = [sum(pi[i] * rows[i][j] for i in range(n)) for j in range(n)]
    problems = [] if sum(pi) == 1 and moved == pi else ["printed pi is not stationary"]
    if out.get("methods_agree") is not True:
        problems.append("methods_agree is not true")
    return problems


def _error_check(kind: str):
    def check(stdout: str, stderr: str) -> list[str]:
        lines = stderr.strip().splitlines()
        doc = json.loads(lines[-1]) if lines else {}
        if stdout or doc.get("error") != kind:
            return [f"expected a clean '{kind}' error, got {stderr.strip()[:120]!r}"]
        return []
    return check


class Cold:
    """A fixed mix of CLI processes, run one at a time."""

    item = "processes"
    round_ops = 1
    # A CLI process spends its time starting the interpreter and loading
    # numpy and scipy, which the in-process probe does not predict; a
    # process probe does.
    host_probe = staticmethod(hostspeed.probe_process)

    def __init__(self, seed: int):
        self.seed = seed
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        # a user pays bytecode compilation once; keep the cache writable
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.pins: dict = {}
        self.tracer = None
        self.mix = self._mix()

    def _mix(self) -> list[ColdEntry]:
        rng = _rng(self.seed, "cold")
        a3 = _dense_rows(rng, 3, 1, 9)
        a5 = _dense_rows(rng, 5, 1, 9)
        e4 = _dense_rows(rng, 4, 1, 9)
        labels = ["north", "east", "south", "west"]
        edges = "".join(f"{labels[i]} {labels[j]} {_fmt(e4[i][j])}\n"
                        for i in range(4) for j in range(4))
        h5 = _dense_rows(rng, 5, 1, 9)
        s4 = _dense_rows(rng, 4, 1, 9)
        red = _dense_rows(rng, 4, 1, 9)
        red[3] = [Fraction(0)] * 3 + [Fraction(1)]  # 3 is absorbing: 0 is unreachable
        hit_from = rng.randrange(1, 5)
        ecrsf_seed = str(rng.getrandbits(64))
        fixed = [[Fraction(0), Fraction(1, 2), Fraction(1, 2)],
                 [Fraction(1, 3), Fraction(0), Fraction(2, 3)],
                 [Fraction(1), Fraction(0), Fraction(0)]]

        def analyze_check(rows, labelled=None):
            def check(stdout, _stderr):
                out = json.loads(stdout)
                problems = _pi_problems(rows, out)
                if labelled is not None and out.get("labels") != labelled:
                    problems.append("labels not echoed in input order")
                return problems
            return check

        def hit_check(stdout, _stderr):
            out = json.loads(stdout)
            ok = (out["methods_agree"] is True and out["from"] == hit_from
                  and sum(Fraction(x) for x in out["hit"]) == 1)
            return [] if ok else ["hit output wrong"]

        def green_check(stdout, _stderr):
            out = json.loads(stdout)
            ok = out["methods_agree"] is True and out["interior"] == [2, 3, 4]
            return [] if ok else ["green output wrong"]

        def count_check(stdout, _stderr):
            out = json.loads(stdout)
            ok = out["closed_form"] == out["enumerated"] == 50 and out["agree"] is True
            return [] if ok else ["cayley count wrong"]

        def sample_check(roots, gof):
            def check(stdout, _stderr):
                lines = [json.loads(line) for line in stdout.splitlines()]
                summary = lines[-1].get("summary", {})
                ok = (len(lines) == 201 and summary.get("count") == 200
                      and all(d["roots"] == roots for d in lines[:-1]))
                if gof:
                    ok = ok and summary.get("gof", {}).get("passed") is True
                return [] if ok else ["sample output wrong"]
            return check

        return [
            ColdEntry("analyze-n3", ["analyze"], _rows_json(a3), 0, analyze_check(a3)),
            ColdEntry("analyze-n5", ["analyze"], _rows_json(a5), 0, analyze_check(a5)),
            ColdEntry("analyze-edges", ["analyze", "--format", "edges"], edges, 0,
                      analyze_check(e4, labels)),
            ColdEntry("hit", ["hit", "--targets", "0", "--from", str(hit_from)],
                      _rows_json(h5), 0, hit_check),
            ColdEntry("green", ["green", "--targets", "0,1"], _rows_json(h5), 0,
                      green_check),
            ColdEntry("count-cayley", ["count", "--cayley", "5", "2"], "", 0,
                      count_check),
            # fixed chain and sampler seed: the chi-square outcome is the same
            # for every workload seed, so a correct program never fails here
            ColdEntry("sample-gof", ["sample", "--root", "0", "--count", "200",
                                     "--gof", "--seed", "7"],
                      _rows_json(fixed), 0, sample_check([0], True)),
            ColdEntry("sample-ecrsf", ["sample", "--mode", "ecrsf", "--alpha", "1/2",
                                       "--roots", "0", "--count", "200",
                                       "--seed", ecrsf_seed],
                      _rows_json(s4), 0, sample_check([0], False)),
            ColdEntry("reducible", ["analyze"], _rows_json(red), 3,
                      _error_check("reducible")),
            ColdEntry("infeasible", ["green", "--targets", "0"], _rows_json(red), 4,
                      _error_check("infeasible-roots")),
            ColdEntry("malformed", ["analyze"], '{"n": 2, "rows": [["1/2", "1/2"]',
                      2, _error_check("parse")),
            # scaled-down copy of the `0 2000 1` input that densifies before
            # validating; it must still fail cleanly with a parse error
            ColdEntry("edges-0-300-1", ["analyze", "--format", "edges"], "0 300 1\n",
                      2, _error_check("parse")),
        ]

    def _command(self, entry: ColdEntry) -> list[str]:
        if self.tracer is None:
            return [sys.executable, "-m", "forestchain", *entry.argv]
        return [sys.executable, str(BENCH_DIR / "trace_child.py"),
                str(OUT_DIR / "child.json"), *entry.argv]

    def setup(self) -> None:
        compileall.compile_dir(str(SRC / "forestchain"), quiet=1)
        self._spawn(self.mix[0])

    def _spawn(self, entry: ColdEntry):
        t0 = time.perf_counter()
        proc = subprocess.run(self._command(entry), input=entry.stdin.encode(),
                              capture_output=True, cwd=ROOT, env=self.env,
                              timeout=CHILD_TIMEOUT_S)
        return proc, time.perf_counter() - t0

    def op(self, k: int) -> OpResult:
        entry = self.mix[k % len(self.mix)]
        problems = []
        child = OUT_DIR / "child.json"
        child.unlink(missing_ok=True)  # spans of an earlier, interrupted run
        try:
            proc, latency = self._spawn(entry)
        except subprocess.TimeoutExpired:
            return OpResult(entry.name, CHILD_TIMEOUT_S, 1,
                            [f"{entry.name}: no exit within {CHILD_TIMEOUT_S} s"])
        stdout = proc.stdout.decode()
        if proc.returncode != entry.exit_code:
            problems.append(f"{entry.name}: exit {proc.returncode}, "
                            f"expected {entry.exit_code}")
        else:
            try:
                problems += entry.check(stdout, proc.stderr.decode())
            except (ValueError, KeyError, IndexError, TypeError) as e:
                problems.append(f"{entry.name}: unreadable output ({e})")
        digest = _digest(proc.stdout, str(proc.returncode))
        pinned = self.pins.get(entry.name)
        if pinned is not None and pinned != digest:
            problems.append(f"{entry.name}: stdout and exit code differ from the pin")
        if self.tracer is not None:
            if child.exists():
                self.tracer.merge(json.loads(child.read_text()), k)
                child.unlink()
            else:
                problems.append(f"{entry.name}: traced child wrote no spans")
        return OpResult(entry.name, latency, 1, problems,
                        {"digest": digest, "pin": entry.name,
                         "checked": pinned is not None})

    def cli_breakdown(self, command_median_s: float) -> dict[str, float]:
        """Interpreter start, import and command shares, from side processes."""
        def timed(argv, repeats):
            times, last = [], None
            for _ in range(repeats):
                t0 = time.perf_counter()
                last = subprocess.run([sys.executable, *argv], capture_output=True,
                                      cwd=ROOT, env=self.env, timeout=CHILD_TIMEOUT_S,
                                      check=True)
                times.append(time.perf_counter() - t0)
            return statistics.median(times) * 1e3, last

        interpreter_ms, _ = timed(["-c", "pass"], 5)
        import_ms, _ = timed(["-c", "import forestchain.cli"], 5)
        _, proc = timed(["-X", "importtime", "-c", "import forestchain.cli"], 1)
        shares = {"scipy": 0, "numpy": 0}
        for line in proc.stderr.decode().splitlines():
            # "import time:      self [us] |  cumulative | imported package"
            fields = line.split("|")
            if len(fields) != 3 or not fields[0].startswith("import time:"):
                continue
            try:
                self_us = int(fields[0].split(":")[1])
            except ValueError:
                continue  # the header line
            top = fields[2].strip().split(".")[0]
            if top in shares:
                shares[top] += self_us
        return {
            "cli.interpreter_ms": interpreter_ms,
            "cli.import_ms": import_ms,
            "cli.import_scipy_ms": shares["scipy"] / 1e3,
            "cli.import_numpy_ms": shares["numpy"] / 1e3,
            "cli.command_ms": command_median_s * 1e3 - import_ms,
        }


# ---------------------------------------------------------------------------
# driving loop and metrics

CLASSES = {"exact": Exact, "crosscheck": Crosscheck, "sample": Sample, "cold": Cold}


def make(name: str, seed: int):
    """The workload object; all but cold import forestchain from src/."""
    if name != "cold":
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))
        import forestchain
        if Path(forestchain.__file__).resolve().parent != SRC / "forestchain":
            raise RuntimeError(f"forestchain imported from {forestchain.__file__}")
    return CLASSES[name](seed)


def load_pins(name: str, seed: int) -> dict:
    """Pinned digests of one workload at this seed; {} where none were recorded."""
    doc = json.loads(PINS_PATH.read_text())
    return doc.get(name, {}) if doc.get("seed") == seed else {}


def _loop(wl, first: int, seconds: float, tracer=None):
    """Closed loop over whole rounds of the input mix for ``seconds`` at the
    reference host speed.

    Ending on a round boundary keeps the mix of input classes, and so the
    throughput, the same from run to run. The host speed is probed between
    operations, and each operation is scaled by the two probes around it.
    The loop's own clock runs at the reference speed too, so the number of
    operations, and with it the percentile behind op_tail_ms, does not
    depend on how fast the host happens to be during the run.
    """
    results = []
    probes = []  # (number of operations before the probe, host slowness)
    last_probe = -math.inf
    elapsed = 0.0  # seconds at the reference speed
    k = first
    while elapsed < seconds or (k - first) % wl.round_ops:
        if time.perf_counter() - last_probe >= PROBE_EVERY_S:
            probes.append((len(results), wl.host_probe()))
            last_probe = time.perf_counter()
        t0 = time.perf_counter()
        if tracer is not None:
            tracer.op_id = k
            tracer.active = True
        try:
            r = wl.op(k)
        except Exception as e:  # a raising operation is a failed operation
            r = OpResult("error", 0.0, 0, [f"op {k} raised {type(e).__name__}: {e}"])
        finally:
            if tracer is not None:
                tracer.active = False
        results.append(r)
        k += 1
        elapsed += hostspeed.scale(time.perf_counter() - t0, probes[-1][1], probes[-1][1])
    probes.append((len(results), wl.host_probe()))
    for (i, before), (j, after) in zip(probes, probes[1:]):
        for r in results[i:j]:
            r.speed = hostspeed.scale(1.0, before, after)
    return results, k


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples) at the highest percentile with ten samples
    beyond it; with ten samples or fewer, the maximum."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


def _summary(results: list[OpResult], wall: float) -> dict:
    """Throughput and latency at the reference host speed, and as measured."""
    ok = [r for r in results if r.key != "error"]
    scaled = [r.scaled for r in ok] or [0.0]
    raw = [r.latency for r in ok] or [0.0]
    items = sum(r.items for r in results)
    value, pct, n = tail(scaled)
    return {
        "items_per_s": items / max(sum(scaled), 1e-9),
        "op_p50_ms": statistics.median(scaled) * 1e3,
        "op_tail_ms": value * 1e3,
        "tail_pct": pct,
        "ops": n,
        "raw_items_per_s": items / wall,
        "raw_op_p50_ms": statistics.median(raw) * 1e3,
        "raw_op_tail_ms": tail(raw)[0] * 1e3,
        "speed": statistics.median(r.speed for r in ok) if ok else 1.0,
    }


def _by_key(results: list[OpResult]) -> dict[str, float]:
    groups: dict[str, list[float]] = {}
    for r in results:
        if r.key != "error":
            groups.setdefault(r.key, []).append(r.scaled)
    return {k: statistics.median(v) for k, v in groups.items()}


def _peak_rss_mb(name: str) -> float:
    who = resource.RUSAGE_CHILDREN if name == "cold" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def _sample_table(wl: Sample, results: list[OpResult], steps: dict[int, int],
                  first: int) -> tuple[list[str], float, float]:
    """Per-case µs per draw next to tr G_R, and the fixed/per-step fit."""
    per_case: dict[str, list[float]] = {}
    for r in results:
        if "draw_s" in r.extra:
            per_case.setdefault(r.key, []).append(
                r.extra["draw_s"] * r.speed / SAMPLE_BATCH * 1e6)
    observed: dict[str, list[int]] = {}
    for op_id, n in steps.items():
        if op_id >= first:
            observed.setdefault(wl.cases[op_id % len(wl.cases)].name, []).append(n)
    lines = ["case            tr_G_R   us_per_draw   observed_steps_per_draw"]
    us = {}
    for case in wl.cases:
        if case.name not in per_case:
            continue
        us[case.name] = statistics.median(per_case[case.name])
        seen = observed.get(case.name)
        seen_txt = (f"{sum(seen) / (len(seen) * SAMPLE_BATCH):.3f}" if seen else "-")
        tr = f"{case.trace_g:.3f}" if case.alpha is None else "-"
        lines.append(f"{case.name:<15} {tr:>7} {us[case.name]:>13.1f}   {seen_txt}")
    fixed, slope = [], []
    for case in wl.cases:
        if case.alpha is None and case.name.endswith("-lazy") and case.name in us:
            plain = next(c for c in wl.cases if c.pair == case.pair and c is not case)
            if plain.name in us:
                s = (us[case.name] - us[plain.name]) / (case.trace_g - plain.trace_g)
                slope.append(s)
                fixed.append(us[plain.name] - s * plain.trace_g)
    if not slope:
        return lines, 0.0, 0.0
    return lines, statistics.median(fixed), statistics.median(slope)


def run(name: str, seed: int, seconds: float, trace: bool,
        setup_only: bool = False, pins: dict | None = None) -> dict:
    """Set up and run one workload; return the result record."""
    wl = make(name, seed)
    if hasattr(wl, "pins"):
        wl.pins = load_pins(name, seed) if pins is None else pins
    wl.setup()
    ready = time.monotonic()
    probe = wl.host_probe()
    if setup_only:
        return {"ready": ready, "probe": probe}

    info = []
    t_start = time.perf_counter()
    if not trace:
        results, _ = _loop(wl, 0, seconds)
        wall = time.perf_counter() - t_start
        s = _summary(results, wall)
        metrics = {
            "items_per_s": s["items_per_s"],
            "op_p50_ms": s["op_p50_ms"],
            "op_tail_ms": s["op_tail_ms"],
            "peak_rss_mb": _peak_rss_mb(name),
        }
        info.append(f"{name}: {wl.item}_per_s = {s['items_per_s']:.4f}; op_tail_ms at "
                    f"p{s['tail_pct']:.1f} of {s['ops']} operations")
        info.append(f"as measured, before scaling to the reference host speed: "
                    f"items_per_s {s['raw_items_per_s']:.6g}, op_p50_ms "
                    f"{s['raw_op_p50_ms']:.6g}, op_tail_ms {s['raw_op_tail_ms']:.6g}; "
                    f"median scale factor {s['speed']:.4f}")
        if isinstance(wl, Sample):
            info += _sample_table(wl, results, {}, 0)[0]
    else:
        # untraced half first, then the traced half on fresh inputs
        results, k = _loop(wl, 0, seconds / 2)
        t_mid = time.perf_counter()
        from tracing import Tracer
        tracer = Tracer()
        if isinstance(wl, Cold):
            OUT_DIR.mkdir(exist_ok=True)
            wl.tracer = tracer
        else:
            tracer.install()
            if isinstance(wl, Sample):
                wl.build_law = tracer.wrap("law.build", "law", wl._build_law)
        # cold inputs meet no cache across processes, so the traced half
        # replays them and the two halves compare like with like
        first = 0 if isinstance(wl, Cold) else k
        phase_b, _ = _loop(wl, first, seconds / 2, tracer)
        t_end = time.perf_counter()
        metrics = tracer.layer_metrics(len(phase_b))
        a = _summary(results, t_mid - t_start)
        b = _summary(phase_b, t_end - t_mid)
        untraced, traced = _by_key(results), _by_key(phase_b)
        ratios = [traced[key] / untraced[key] for key in traced if key in untraced]
        overhead = (statistics.median(ratios) - 1) * 100 if ratios else 0.0
        info.append(f"{name}: untraced half {a['items_per_s']:.4f} {wl.item}/s, "
                    f"op_p50 {a['op_p50_ms']:.3f} ms; traced half "
                    f"{b['items_per_s']:.4f} {wl.item}/s, op_p50 {b['op_p50_ms']:.3f} ms")
        info.append(f"tracing overhead: {overhead:+.2f}% (median over "
                    f"{len(ratios)} input classes of traced/untraced op latency)")
        fixed = per_step = 0.0
        if isinstance(wl, Sample):
            lines, fixed, per_step = _sample_table(wl, results + phase_b,
                                                   tracer.walk_steps, first)
            info += lines
        metrics["wilson.draw_fixed_us"] = fixed
        metrics["wilson.draw_per_step_us"] = per_step
        cli = dict.fromkeys(("cli.interpreter_ms", "cli.import_ms", "cli.import_scipy_ms",
                             "cli.import_numpy_ms", "cli.command_ms"), 0.0)
        if isinstance(wl, Cold):
            cli = wl.cli_breakdown(statistics.median(r.latency for r in results))
        metrics.update(cli)
        metrics["trace.overhead_pct"] = overhead
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"trace-{name}.json")
        info.append(f"spans: {len(tracer.start)} written to "
                    f".bench_out/trace-{name}.json")
        results = results + phase_b

    problems = [p for r in results for p in r.problems]
    checked = sum(1 for r in results if r.extra.get("checked"))
    if hasattr(wl, "pins"):
        if wl.pins:
            info.append(f"digest check: {checked} of {len(results)} operations had a "
                        f"pinned digest; mismatches are counted as failed")
        else:
            info.append(f"digest check: not applicable (digests are pinned at seed "
                        f"{DEFAULT_SEED} only)")
    failed = sum(1 for r in results if r.problems)
    info.append(f"error_rate = {failed / max(len(results), 1):.4f} "
                f"({failed} of {len(results)} operations failed)")
    return {
        "ready": ready,
        "probe": probe,
        "attempted": len(results),
        "failed": failed,
        "problems": problems[:20],
        "metrics": metrics,
        "info": info,
    }
