"""Command-line front end.

Subcommands: analyze, hit, green, count, sample, verify. Chain input is a
JSON matrix document or a whitespace edge list (--format edges), read from
--input FILE or stdin. All quantities are printed as exact rationals, of
any length; --float adds decimal approximations, null past the float
range. Exit codes: 0 success, 1 verification failure, 2 parse/usage error,
3 reducible chain, 4 infeasible root set.
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


def _flt(x):
    """x to 12 significant digits as a float, lists and tuples entry by
    entry; None (JSON null) past the float range."""
    if isinstance(x, (list, tuple)):
        return [_flt(y) for y in x]
    try:
        return float(format(float(x), ".12g"))
    except OverflowError:
        return None


def _largest_bits(x) -> int:
    """Bits of the largest integer in x: in an int, a Fraction's numerator
    or denominator, or the lists, tuples and dict values that hold them."""
    if isinstance(x, Fraction):
        return max(x.numerator.bit_length(), x.denominator.bit_length())
    if isinstance(x, int):
        return x.bit_length()
    if isinstance(x, dict):
        x = tuple(x.values())
    if isinstance(x, (list, tuple)):
        return max(map(_largest_bits, x), default=0)
    return 0


def _emit(doc: dict, floats: Iterable[str] = ()) -> None:
    """Write doc as indented JSON, each Fraction as "num/den", with a
    ``key_float`` copy of each key in ``floats`` after the rest.

    The text is built in full under a digit limit raised to fit the
    document's largest integer, since a valid result can have more digits
    than the interpreter converts by default (4300); the limit is restored
    before the text is written, in one call, so parsing keeps it.
    """
    for key in floats:
        doc[f"{key}_float"] = _flt(doc[key])
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    # 30103 / 10^5 > log10(2): no fewer digits than the largest integer has
    digits = _largest_bits(doc) * 30103 // 100000 + 1
    if limit and digits > limit:
        sys.set_int_max_str_digits(digits)
    try:
        text = json.dumps(doc, indent=2, default=format_rational)
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    sys.stdout.write(text + "\n")


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
        "pi": analysis.pi,
        "pi_oracle": pi_solve,
        "mfpt": analysis.mfpt,
        "mfpt_oracle": m_solve,
        "kemeny": analysis.kemeny,
        "kemeny_oracle": k_solve,
        "methods_agree": agree,
    }
    if p.labels is not None:
        doc["labels"] = list(p.labels)
    _emit(doc, ("pi", "mfpt", "kemeny") if args.float else ())
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
        "hit": hit,
        "hit_oracle": hit_solve,
        "mean": mean,
        "mean_oracle": mean_solve,
        "green_row": row,
        "green_row_oracle": row_solve,
        "methods_agree": agree,
    }
    _emit(doc, ("hit", "mean", "green_row") if args.float else ())
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
        "green": ab.green,
        "green_oracle": g_solve,
        "methods_agree": agree,
    }
    _emit(doc, ("green",) if args.float else ())
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
    by_r = {str(r): sigma_r(p, r, args.guard) for r in trees}
    counts = [{"trees": r,
               "enumerated": comb(p.n, r) * _rooted_forest_count(
                   p.n, r, args.guard),
               "closed_form": comb(p.n, r) * cayley_count(p.n, r)}
              for r in trees]
    doc = {
        "mode": "chain",
        "n": p.n,
        "sigma": sums.sigma_vector,
        "sigma1": sums.sigma1,
        "sigma_r": by_r,
        "forest_counts": counts,
    }
    _emit(doc, ("sigma", "sigma1") if args.float else ())
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
    # each distinct draw's line is built once
    lines: dict = {}
    write = sys.stdout.write
    for f in draws:
        line = lines.get(f)
        if line is None:
            line = lines[f] = json.dumps(f.to_json()) + "\n"
        write(line)

    distinct = len(lines)
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


def _hit_args(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--targets", required=True, metavar="R",
                    help="comma-separated target states")
    sp.add_argument("--from", dest="source", type=int, required=True,
                    metavar="I", help="start state")


def _green_args(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--targets", required=True, metavar="R")


def _count_args(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--cayley", nargs=2, type=_positive_int, default=None,
                    metavar=("N", "K"), help="closed-form forest count check")
    sp.add_argument("--prism", nargs=2, type=_positive_int, default=None,
                    metavar=("N", "M"),
                    help="spanning trees of the complete prism")


def _sample_args(sp: argparse.ArgumentParser) -> None:
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


def _verify_args(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--suite", default="all",
                    choices=SUITE_NAMES + ("all",))
    sp.add_argument("--trials", type=_positive_int, default=None,
                    help="chains per suite (wilson: samples per test)")
    sp.add_argument("--max-n", type=_positive_int, default=None,
                    help="largest state count")


# name: (help, command, the subcommand's own arguments), in the order the
# help lists them
COMMANDS = {
    "analyze": ("stationary law, MFPT matrix, Kemeny constant",
                cmd_analyze, None),
    "hit": ("hitting law, mean hitting time, Green row", cmd_hit, _hit_args),
    "green": ("full Green matrix of the killed chain", cmd_green,
              _green_args),
    "count": ("forest counts and weight sums", cmd_count, _count_args),
    "sample": ("draw spanning forests by random walk", cmd_sample,
               _sample_args),
    "verify": ("randomized identity suites, exit 0 iff all hold",
               cmd_verify, _verify_args),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The command-line parser. Given the name of a subcommand, only that
    subparser is built; its usage and errors read as with all of them,
    since the top-level usage line still lists every name."""
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
    if command is not None:
        # the usage line lists the choices argparse was given, so name them
        # all; with every subparser built the metavar is left unset, since
        # it would also rename the argument in "invalid choice" errors
        sub = parser.add_subparsers(
            dest="command", required=True,
            metavar="{" + ",".join(COMMANDS) + "}")
        names = (command,)
    else:
        sub = parser.add_subparsers(dest="command", required=True)
        names = tuple(COMMANDS)
    for name in names:
        help_text, func, add_args = COMMANDS[name]
        sp = sub.add_parser(name, parents=[common], help=help_text)
        if add_args is not None:
            add_args(sp)
        sp.set_defaults(func=func)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # when the first token names a subcommand, only its parser is built
    command = argv[0] if argv and argv[0] in COMMANDS else None
    args = build_parser(command).parse_args(argv)
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
