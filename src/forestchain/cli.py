"""Command-line front end.

Subcommands: analyze, hit, green, count, sample, verify. Chain input is a
JSON matrix document or a whitespace edge list (--format edges), read from
--input FILE or stdin. All quantities are printed as exact rationals;
--float adds decimal approximations. Exit codes: 0 success, 1 verification
failure, 2 parse/usage error, 3 reducible chain, 4 infeasible root set.
A process whose stdout is closed early by its reader (``| head``) exits 1
with nothing on stderr; that is handled in the process entry
(``__main__.run``), so ``main`` lets the ``BrokenPipeError`` through.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from fractions import Fraction
from math import comb
from typing import Iterable, Sequence

from . import formulas, oracle, wilson
from .chains import (
    ChainParseError,
    InfeasibleRootSetError,
    ReducibleChainError,
    TransitionMatrix,
    format_rational,
    parse_chain,
    parse_rational,
    ratio,
)
from .forests import (
    DEFAULT_GUARD,
    CycleWeights,
    EnumerationGuardError,
    cayley_count,
    exact_law,
    sigma_r,
    sigma_sums,
    w_sum,
)


def _fmt(x: Fraction) -> str:
    return format_rational(x)


def _fmt_vec(xs: Iterable[Fraction]) -> list[str]:
    return [_fmt(x) for x in xs]


def _fmt_mat(m) -> list[list[str]]:
    return [[_fmt(x) for x in row] for row in m]


def _flt(x) -> float:
    return float(format(float(x), ".12g"))


def _flt_vec(xs) -> list[float]:
    return [_flt(x) for x in xs]


def _flt_mat(m) -> list[list[float]]:
    return [[_flt(x) for x in row] for row in m]


def _read_chain(args) -> TransitionMatrix:
    if args.input in (None, "-"):
        source = sys.stdin.read()
    else:
        try:
            with open(args.input, "r", encoding="utf-8") as fh:
                source = fh.read()
        except OSError as e:
            raise ChainParseError(f"cannot read {args.input}: {e}") from e
    return parse_chain(source, args.format)


def _parse_states(text: str, n: int, what: str) -> list[int]:
    out = []
    for tok in text.replace(",", " ").split():
        try:
            v = int(tok)
        except ValueError:
            raise ChainParseError(f"{what}: {tok!r} is not a state index")
        if not 0 <= v < n:
            raise ChainParseError(f"{what}: state {v} out of range 0..{n - 1}")
        out.append(v)
    if not out:
        raise ChainParseError(f"{what}: no states given")
    return out


def _emit(doc) -> None:
    json.dump(doc, sys.stdout, indent=2)
    sys.stdout.write("\n")


# ---------------------------------------------------------------------------
# subcommands

def cmd_analyze(args) -> int:
    p = _read_chain(args)
    analysis = formulas.analyze(p, args.guard)
    pi_solve = oracle.stationary_solve(p)
    m_solve = oracle.mfpt_solve(p)
    k_solve = oracle.kemeny_trace(p)
    agree = (analysis.pi == pi_solve and analysis.mfpt == m_solve
             and analysis.kemeny == k_solve)
    doc = {
        "n": p.n,
        "pi": _fmt_vec(analysis.pi),
        "pi_oracle": _fmt_vec(pi_solve),
        "mfpt": _fmt_mat(analysis.mfpt),
        "mfpt_oracle": _fmt_mat(m_solve),
        "kemeny": _fmt(analysis.kemeny),
        "kemeny_oracle": _fmt(k_solve),
        "methods_agree": agree,
    }
    if p.labels is not None:
        doc["labels"] = list(p.labels)
    if args.float:
        doc["pi_float"] = _flt_vec(analysis.pi)
        doc["mfpt_float"] = _flt_mat(analysis.mfpt)
        doc["kemeny_float"] = _flt(analysis.kemeny)
    _emit(doc)
    return 0 if agree else 1


def cmd_hit(args) -> int:
    p = _read_chain(args)
    targets = sorted(set(_parse_states(args.targets, p.n, "--targets")))
    i = args.source
    if not 0 <= i < p.n:
        raise ChainParseError(f"--from: state {i} out of range 0..{p.n - 1}")
    interior = [v for v in range(p.n) if v not in set(targets)]
    if i in targets:
        hit = tuple(Fraction(1 if j == i else 0) for j in targets)
        hit_solve = hit
        mean = mean_solve = Fraction(0)
        row = row_solve = tuple(Fraction(0) for _ in interior)
    else:
        ab = formulas.absorption(p, targets, args.guard)
        at = ab.interior.index(i)
        hit, row, mean = ab.hit[at], ab.green[at], ab.mean_hit[at]
        hit_solve = oracle.hitting_solve(p, targets)[at]
        row_solve = oracle.green_matrix_solve(p, targets)[at]
        mean_solve = sum(row_solve, Fraction(0))
    agree = (hit == hit_solve and mean == mean_solve and row == row_solve)
    doc = {
        "targets": targets,
        "from": i,
        "interior": interior,
        "hit": _fmt_vec(hit),
        "hit_oracle": _fmt_vec(hit_solve),
        "mean": _fmt(mean),
        "mean_oracle": _fmt(mean_solve),
        "green_row": _fmt_vec(row),
        "green_row_oracle": _fmt_vec(row_solve),
        "methods_agree": agree,
    }
    if args.float:
        doc["hit_float"] = _flt_vec(hit)
        doc["mean_float"] = _flt(mean)
        doc["green_row_float"] = _flt_vec(row)
    _emit(doc)
    return 0 if agree else 1


def cmd_green(args) -> int:
    p = _read_chain(args)
    targets = sorted(set(_parse_states(args.targets, p.n, "--targets")))
    ab = formulas.absorption(p, targets, args.guard)
    g_solve = oracle.green_matrix_solve(p, targets)
    agree = ab.green == g_solve
    doc = {
        "targets": targets,
        "interior": list(ab.interior),
        "green": _fmt_mat(ab.green),
        "green_oracle": _fmt_mat(g_solve),
        "methods_agree": agree,
    }
    if args.float:
        doc["green_float"] = _flt_mat(ab.green)
    _emit(doc)
    return 0 if agree else 1


def _rooted_forest_count(n: int, k: int, guard: int) -> int:
    """Forests of K_n rooted at a fixed k-set: (n - 1)^(n - k) times the
    tree sum w({b}) of the chain on the n - k free states and b, the k roots
    merged, that steps from a free state to each other one with probability
    1/(n - 1) and to b with probability k/(n - 1)."""
    free = n - k
    rows = [[ratio(int(j != i), n - 1) for j in range(free)]
            + [ratio(k, n - 1)] for i in range(free)] + [[0] * free + [1]]
    return int(w_sum(TransitionMatrix(rows), (free,), guard) * (n - 1) ** free)


def cmd_count(args) -> int:
    if args.cayley is not None:
        n, k = args.cayley
        if n - k > args.guard:  # before the chain or the closed form grows
            raise EnumerationGuardError(
                f"{n - k} free vertices exceeds enumeration guard "
                f"{args.guard}; pass a larger guard to override")
        closed = cayley_count(n, k)
        enumerated = _rooted_forest_count(n, k, args.guard)
        doc = {"mode": "cayley", "n": n, "k": k, "closed_form": closed,
               "enumerated": enumerated, "agree": closed == enumerated}
        _emit(doc)
        return 0 if doc["agree"] else 1
    if args.prism is not None:
        n, m = args.prism
        closed = oracle.prism_tree_count(n, m)
        doc = {"mode": "prism", "n": n, "m": m, "closed_form": closed}
        if n * m <= 12:
            det = oracle.undirected_tree_count(oracle.complete_prism(n, m))
            doc["determinant"] = int(det)
            doc["agree"] = closed == det
        _emit(doc)
        return 0 if doc.get("agree", True) else 1

    p = _read_chain(args)
    sums = sigma_sums(p, args.guard)
    trees = range(1, p.n + 1)
    by_r = {str(r): _fmt(sigma_r(p, r, args.guard)) for r in trees}
    counts = [{"trees": r,
               "enumerated": comb(p.n, r) * _rooted_forest_count(
                   p.n, r, args.guard),
               "closed_form": comb(p.n, r) * cayley_count(p.n, r)}
              for r in trees]
    doc = {
        "mode": "chain",
        "n": p.n,
        "sigma": _fmt_vec(sums.sigma_vector),
        "sigma1": _fmt(sums.sigma1),
        "sigma_r": by_r,
        "forest_counts": counts,
    }
    if args.float:
        doc["sigma_float"] = _flt_vec(sums.sigma_vector)
        doc["sigma1_float"] = _flt(sums.sigma1)
    _emit(doc)
    return 0


def cmd_sample(args) -> int:
    p = _read_chain(args)
    if args.mode == "tree":
        if args.root is None:
            raise ChainParseError("--mode tree needs --root")
        if not 0 <= args.root < p.n:
            raise ChainParseError(
                f"--root: state {args.root} out of range 0..{p.n - 1}")
        roots = [args.root]
    else:
        if args.roots is None:
            if args.mode == "forest":
                raise ChainParseError(f"--mode {args.mode} needs --roots")
            roots = []
        else:
            roots = sorted(set(_parse_states(args.roots, p.n, "--roots")))

    alpha = (None if args.mode in ("tree", "forest")
             else CycleWeights.constant(parse_rational(args.alpha)))
    cfg = wilson.SamplerConfig(seed=args.seed, sample_count=args.count,
                               alpha=alpha)
    if alpha is None:
        draws = wilson.sample_forests(p, roots, cfg)
    else:
        draws = wilson.sample_ecrsf(p, roots, cfg, guard=args.guard)
    gof_doc = None
    if args.gof:
        # before any draw is printed, so a refused law leaves stdout empty
        law = exact_law(p, roots, alpha, args.guard)
        gof_doc = wilson.gof_test(Counter(draws), law).to_json()
    for f in draws:
        print(json.dumps(f.to_json()))

    distinct = len(set(draws))
    summary = {
        "summary": {
            "mode": args.mode,
            "seed": args.seed,
            "count": args.count,
            "roots": sorted(roots),
            "distinct": distinct,
        }
    }
    if gof_doc is not None:
        summary["summary"]["gof"] = gof_doc
    print(json.dumps(summary))
    if gof_doc is not None and not gof_doc["passed"]:
        return 1
    return 0


# verify.SUITE_NAMES, spelled out so that building the parser does not load
# the suites
SUITE_NAMES = ("kirchhoff", "green", "kemeny", "chung", "treealg", "wilson")


def cmd_verify(args) -> int:
    # the suites are loaded only for this command
    from . import verify
    names = SUITE_NAMES if args.suite == "all" else (args.suite,)
    results = verify.run_suites(names, args.trials, args.max_n, args.seed,
                                args.guard)
    doc = {
        "seed": args.seed if args.seed is not None else wilson.DEFAULT_SEED,
        "results": [r.to_json() for r in results],
        "passed": all(r.passed for r in results),
    }
    _emit(doc)
    return 0 if doc["passed"] else 1


# ---------------------------------------------------------------------------
# parser

def _positive_int(text: str) -> int:
    v = int(text)
    if v < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return v


def _seed_int(text: str) -> int:
    v = int(text)
    if not 0 <= v < (1 << 64):
        raise argparse.ArgumentTypeError("seed must fit in 64 bits")
    return v


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--input", metavar="FILE",
                        help="chain document file, '-' for stdin (default)")
    common.add_argument("--format", choices=("matrix", "edges"),
                        default="matrix", help="input format")
    common.add_argument("--float", action="store_true",
                        help="additionally emit 12-significant-digit decimals")
    common.add_argument("--guard", type=_positive_int, default=DEFAULT_GUARD,
                        metavar="N",
                        help="max free states for exhaustive enumeration")
    common.add_argument("--seed", type=_seed_int, default=None, metavar="U64",
                        help="sampler / suite seed")

    parser = argparse.ArgumentParser(
        prog="forestchain",
        description="Exact Markov chain analysis through spanning-forest "
                    "sums, with a linear-algebra cross-check on everything.")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("analyze", parents=[common],
                        help="stationary law, MFPT matrix, Kemeny constant")
    sp.set_defaults(func=cmd_analyze)

    sp = sub.add_parser("hit", parents=[common],
                        help="hitting law, mean hitting time, Green row")
    sp.add_argument("--targets", required=True, metavar="R",
                    help="comma-separated target states")
    sp.add_argument("--from", dest="source", type=int, required=True,
                    metavar="I", help="start state")
    sp.set_defaults(func=cmd_hit)

    sp = sub.add_parser("green", parents=[common],
                        help="full Green matrix of the killed chain")
    sp.add_argument("--targets", required=True, metavar="R")
    sp.set_defaults(func=cmd_green)

    sp = sub.add_parser("count", parents=[common],
                        help="forest counts and weight sums")
    sp.add_argument("--cayley", nargs=2, type=_positive_int, default=None,
                    metavar=("N", "K"), help="closed-form forest count check")
    sp.add_argument("--prism", nargs=2, type=_positive_int, default=None,
                    metavar=("N", "M"),
                    help="spanning trees of the complete prism")
    sp.set_defaults(func=cmd_count)

    sp = sub.add_parser("sample", parents=[common],
                        help="draw spanning forests by random walk")
    sp.add_argument("--mode", choices=("tree", "forest", "ecrsf"),
                    default="tree")
    sp.add_argument("--root", type=int, default=None, metavar="J",
                    help="tree mode root state")
    sp.add_argument("--roots", default=None, metavar="R",
                    help="forest/ecrsf mode root states, comma-separated")
    sp.add_argument("--alpha", default="0", metavar="P/Q",
                    help="ecrsf cycle-keeping bias (constant)")
    sp.add_argument("--count", type=_positive_int, default=1)
    sp.add_argument("--gof", action="store_true",
                    help="chi-square the draws against the enumerated law")
    sp.set_defaults(func=cmd_sample)

    sp = sub.add_parser("verify", parents=[common],
                        help="randomized identity suites, exit 0 iff all hold")
    sp.add_argument("--suite", default="all",
                    choices=SUITE_NAMES + ("all",))
    sp.add_argument("--trials", type=_positive_int, default=None,
                    help="chains per suite (wilson: samples per test)")
    sp.add_argument("--max-n", type=_positive_int, default=None,
                    help="largest state count")
    sp.set_defaults(func=cmd_verify)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.seed is None and args.command == "sample":
        args.seed = wilson.DEFAULT_SEED
    try:
        return args.func(args)
    except ChainParseError as e:
        print(json.dumps({"error": "parse", "detail": str(e)}),
              file=sys.stderr)
        return 2
    except ReducibleChainError as e:
        doc = {"error": "reducible", "detail": str(e)}
        if e.certificate is not None:
            doc["certificate"] = {"from": e.certificate[0],
                                  "unreachable": e.certificate[1]}
        if e.infeasible_singletons:
            doc["infeasible_singletons"] = list(e.infeasible_singletons)
        print(json.dumps(doc), file=sys.stderr)
        return 3
    except InfeasibleRootSetError as e:
        print(json.dumps({"error": "infeasible-roots", "detail": str(e)}),
              file=sys.stderr)
        return 4
    except EnumerationGuardError as e:
        print(json.dumps({"error": "guard", "detail": str(e)}),
              file=sys.stderr)
        return 2
    except ValueError as e:
        print(json.dumps({"error": "invalid", "detail": str(e)}),
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
