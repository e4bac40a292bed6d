"""Exact data model for finite Markov chains.

Transition matrices and weighted digraphs over exact rationals
(``fractions.Fraction``), ingestion from matrix/edge-list documents, and the
Laplacians L = I - P and L^{G,c} that the forest identities are stated in,
and each chain's rows scaled to integers, which both routes compute from.
Everything here is immutable and arithmetic is never rounded.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Iterable, Sequence

#: Row-major square matrix of exact rationals.
Matrix = tuple[tuple[Fraction, ...], ...]


class ChainParseError(ValueError):
    """Malformed chain document or non-stochastic data."""


class ReducibleChainError(ValueError):
    """Operation requires irreducibility; carries an unreachable pair.

    ``certificate`` is a pair (i, j) with j unreachable from i, or None.
    ``infeasible_singletons`` lists states j whose singleton root set has
    zero forest weight.
    """

    def __init__(self, message: str, certificate: tuple[int, int] | None = None,
                 infeasible_singletons: Sequence[int] = ()):
        super().__init__(message)
        self.certificate = certificate
        self.infeasible_singletons = tuple(infeasible_singletons)


class InfeasibleRootSetError(ValueError):
    """The root set has zero total forest weight (unreachable roots)."""


#: Largest state count an edge list may declare. The sampler runs far past
#: the sizes enumeration reaches, but every chain is stored as a dense n x n
#: matrix of Fractions; the cap keeps that under 2^22 entries.
MAX_STATES = 2048

_RATIONAL_RE = re.compile(r"^\s*(-?\d+)\s*(?:/\s*(-?\d+))?\s*$")


def parse_rational(text: str | int) -> Fraction:
    """Parse "p/q" or an integer literal into an exact Fraction."""
    if isinstance(text, int) and not isinstance(text, bool):
        return Fraction(text)
    m = _RATIONAL_RE.match(str(text))
    if not m:
        raise ChainParseError(f"malformed rational literal {text!r}")
    num = int(m.group(1))
    if m.group(2) is None:
        return Fraction(num)
    den = int(m.group(2))
    if den == 0:
        raise ChainParseError(f"zero denominator in rational literal {text!r}")
    return Fraction(num, den)


def format_rational(q: Fraction) -> str:
    """Canonical "num/den" form, denominator omitted when it is 1."""
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def _check_row(i: int, cells: Iterable[tuple[int, Fraction]]) -> None:
    """Row ``i``, given as (column, entry) pairs by ascending column (zero
    entries may be left out), must be nonnegative and sum to exactly 1.

    Sign and sum are taken in integers over the lcm d of the row's
    denominators."""
    cells = list(cells)
    d = lcm(*[x.denominator for _j, x in cells])
    total = 0
    for j, x in cells:
        if x.numerator < 0:
            raise ChainParseError(
                f"negative entry {format_rational(x)} at ({i},{j})")
        total += x.numerator * (d // x.denominator)
    if total != d:
        raise ChainParseError(
            f"row {i} sums to {format_rational(Fraction(total, d))}")


@dataclass(frozen=True)
class TransitionMatrix:
    """A row-stochastic matrix of exact rationals.

    States are dense indices 0..n-1. ``labels``, when present, records the
    original state names in index order. Rows must sum to exactly 1; entries
    must be >= 0. Self-loops are allowed.
    """

    rows: Matrix
    labels: tuple[str, ...] | None = None
    _hash: int = field(init=False, compare=False, repr=False)
    _support: tuple[tuple[int, ...], ...] = field(
        init=False, compare=False, repr=False)

    def __post_init__(self):
        rows = tuple(
            row if type(row) is tuple and all(type(x) is Fraction for x in row)
            else tuple(Fraction(x) for x in row)
            for row in self.rows)
        object.__setattr__(self, "rows", rows)
        n = len(rows)
        if n == 0:
            raise ChainParseError("empty transition matrix")
        for i, row in enumerate(rows):
            if len(row) != n:
                raise ChainParseError(
                    f"row {i} has {len(row)} entries, expected {n}")
            _check_row(i, enumerate(row))
        if self.labels is not None:
            labels = tuple(str(s) for s in self.labels)
            if len(labels) != n:
                raise ChainParseError(
                    f"{len(labels)} labels for {n} states")
            object.__setattr__(self, "labels", labels)
        # chains key the forest caches, so hash the n² entries only once
        object.__setattr__(self, "_hash", hash((self.rows, self.labels)))
        # the graph checks ask for the support many times per chain; the
        # entries are checked nonnegative above, so nonzero means positive
        object.__setattr__(self, "_support", tuple(
            tuple(j for j, x in enumerate(row) if x) for row in rows))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # rebuild on unpickling: the memoized hash is only valid in the
        # process that computed it, and the support is recomputed with it
        return (TransitionMatrix, (self.rows, self.labels))

    @property
    def n(self) -> int:
        return len(self.rows)

    def p(self, i: int, j: int) -> Fraction:
        return self.rows[i][j]

    def support(self) -> tuple[tuple[int, ...], ...]:
        """Out-neighbors along positive-probability arcs, per state."""
        return self._support


@dataclass(frozen=True)
class WeightedDigraph:
    """Digraph with rational conductances on its arcs.

    No self-loops and no parallel (tail, head) duplicates. A vertex may have
    zero outgoing conductance here; Eq.-style normalization into a chain
    rejects that case at conversion time.
    """

    n: int
    arcs: tuple[tuple[int, int, Fraction], ...]
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        arcs = tuple(
            (int(t), int(h), Fraction(c)) for (t, h, c) in self.arcs)
        object.__setattr__(self, "arcs", arcs)
        seen: set[tuple[int, int]] = set()
        for (t, h, c) in arcs:
            if not (0 <= t < self.n and 0 <= h < self.n):
                raise ChainParseError(f"arc ({t},{h}) out of range for n={self.n}")
            if t == h:
                raise ChainParseError(f"self-loop arc at vertex {t}")
            if (t, h) in seen:
                raise ChainParseError(f"duplicate matrix cell ({t},{h})")
            seen.add((t, h))
            if c < 0:
                raise ChainParseError(
                    f"negative conductance {format_rational(c)} on arc ({t},{h})")
        if self.labels is not None:
            object.__setattr__(self, "labels", tuple(str(s) for s in self.labels))

    def conductance(self, i: int, j: int) -> Fraction:
        for (t, h, c) in self.arcs:
            if t == i and h == j:
                return c
        return Fraction(0)

    def out_conductance(self, i: int) -> Fraction:
        return sum((c for (t, _h, c) in self.arcs if t == i), Fraction(0))


# ---------------------------------------------------------------------------
# ingestion

def _parse_matrix_json(doc: dict) -> TransitionMatrix:
    if not isinstance(doc, dict) or "rows" not in doc:
        raise ChainParseError("matrix document must be an object with a 'rows' field")
    rows = doc["rows"]
    if not isinstance(rows, list) or not rows:
        raise ChainParseError("'rows' must be a nonempty list")
    n = doc.get("n", len(rows))
    if n != len(rows):
        raise ChainParseError(f"declared n={n} but {len(rows)} rows given")
    parsed = []
    for row in rows:
        if not isinstance(row, list):
            raise ChainParseError("each row must be a list")
        parsed.append(tuple(parse_rational(x) for x in row))
    labels = doc.get("labels")
    if labels is not None:
        labels = tuple(str(s) for s in labels)
    return TransitionMatrix(tuple(parsed), labels)


def _edge_lines(text: str) -> Iterable[tuple[str, str, Fraction]]:
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ChainParseError(
                f"line {lineno}: expected 'tail head prob', got {raw!r}")
        yield parts[0], parts[1], parse_rational(parts[2])


def _index_edges(
    entries: list[tuple[str, str, Fraction]],
) -> tuple[int, dict[tuple[int, int], Fraction], tuple[str, ...] | None]:
    """Map edge-list vertex tokens to dense indices.

    All-integer tokens are taken literally as indices; otherwise tokens are
    labels, indexed in order of first appearance. More than ``MAX_STATES``
    states are refused here, before any matrix is built.
    """
    tokens = [t for (a, b, _c) in entries for t in (a, b)]
    if all(t.isdigit() for t in tokens):
        ids = {t: int(t) for t in tokens}
        n = max(ids.values()) + 1 if ids else 0
        labels = None
    else:
        ids = {}
        for t in tokens:
            if t not in ids:
                ids[t] = len(ids)
        n = len(ids)
        labels = tuple(sorted(ids, key=ids.get))
    if n > MAX_STATES:
        raise ChainParseError(
            f"state index {n - 1} exceeds the limit of {MAX_STATES} states")
    cells: dict[tuple[int, int], Fraction] = {}
    for (a, b, c) in entries:
        key = (ids[a], ids[b])
        if key in cells:
            raise ChainParseError(f"duplicate matrix cell {key}")
        cells[key] = c
    return n, cells, labels


def chain_from_edge_list(text: str) -> TransitionMatrix:
    """Parse "tail head prob" lines; absent cells are 0; rows must sum to 1."""
    entries = list(_edge_lines(text))
    if not entries:
        raise ChainParseError("empty edge list")
    n, cells, labels = _index_edges(entries)
    # validate from the listed cells first, so that a bad document fails
    # before an n x n matrix is built (`0 2000 1` declares 2001 states)
    by_row: dict[int, list[tuple[int, Fraction]]] = {}
    for (i, j), x in cells.items():
        by_row.setdefault(i, []).append((j, x))
    for i in range(n):
        _check_row(i, sorted(by_row.get(i, ())))
    rows = tuple(
        tuple(cells.get((i, j), Fraction(0)) for j in range(n)) for i in range(n))
    return TransitionMatrix(rows, labels)


def parse_conductances(text: str) -> WeightedDigraph:
    """Parse a conductance graph from the same edge-list shape."""
    entries = list(_edge_lines(text))
    if not entries:
        raise ChainParseError("empty edge list")
    n, cells, labels = _index_edges(entries)
    arcs = tuple((t, h, c) for (t, h), c in sorted(cells.items()))
    return WeightedDigraph(n, arcs, labels)


def parse_chain(source: str, fmt: str = "matrix") -> TransitionMatrix:
    """Parse a chain document.

    fmt="matrix": JSON {"n": int, "rows": [["p/q", ...], ...], "labels": [...]}.
    fmt="edges": text lines "tail head prob" with '#' comments.
    """
    if fmt == "matrix":
        try:
            doc = json.loads(source)
        except json.JSONDecodeError as e:
            raise ChainParseError(f"invalid JSON: {e}") from e
        return _parse_matrix_json(doc)
    if fmt == "edges":
        return chain_from_edge_list(source)
    raise ChainParseError(f"unknown format {fmt!r}")


def chain_to_json(p: TransitionMatrix) -> dict:
    """Canonical matrix document; parse_chain inverts it exactly."""
    doc = {
        "n": p.n,
        "rows": [[format_rational(x) for x in row] for row in p.rows],
    }
    if p.labels is not None:
        doc["labels"] = list(p.labels)
    return doc


def uniform_chain(n: int) -> TransitionMatrix:
    """Every entry 1/n, self-loops included."""
    if n < 1:
        raise ValueError("need at least one state")
    row = tuple(Fraction(1, n) for _ in range(n))
    return TransitionMatrix(tuple(row for _ in range(n)))


# ---------------------------------------------------------------------------
# Laplacians and conductance normalization

def from_conductances(g: WeightedDigraph) -> TransitionMatrix:
    """Normalize conductances into a chain: p_ij = c(i,j)/sum_k c(i,k), p_ii = 0."""
    totals = [g.out_conductance(i) for i in range(g.n)]
    for i, tot in enumerate(totals):
        if tot == 0:
            raise ChainParseError(
                f"vertex {i} has zero total outgoing conductance")
    rows = [[Fraction(0)] * g.n for _ in range(g.n)]
    for (t, h, c) in g.arcs:
        rows[t][h] = c / totals[t]
    return TransitionMatrix(tuple(tuple(r) for r in rows), g.labels)


# Bound, in chains, on the memo below: the forest sums, the sampler and the
# oracle solves each ask for the scaled rows of the chain in use.
_SCALED_ROWS_CACHE_SIZE = 64


@lru_cache(maxsize=_SCALED_ROWS_CACHE_SIZE)
def scaled_rows(p: TransitionMatrix) -> tuple[tuple[tuple[int, ...], ...],
                                              tuple[int, ...]]:
    """(nums, dens): row i of P is nums[i] / dens[i] with integer nums[i],
    dens[i] being the lcm of the row's denominators."""
    dens = tuple(lcm(*(x.denominator for x in row)) for row in p.rows)
    nums = tuple(
        tuple(x.numerator * (d // x.denominator) for x in row)
        for row, d in zip(p.rows, dens))
    return nums, dens


def check_roots(n: int, roots: Iterable[int], allow_empty: bool = False) -> frozenset[int]:
    """The root set as a frozenset of ints, each checked to be a state of
    an n-state chain; empty only when ``allow_empty``."""
    rs = frozenset(int(r) for r in roots)
    if not rs and not allow_empty:
        raise ValueError("root set must be nonempty")
    for r in rs:
        if not 0 <= r < n:
            raise ValueError(f"root {r} out of range for n={n}")
    return rs


def laplacian(p: TransitionMatrix) -> Matrix:
    """L = I - P."""
    n = p.n
    return tuple(
        tuple((1 if i == j else 0) - p.rows[i][j] for j in range(n))
        for i in range(n))


def weighted_laplacian(g: WeightedDigraph) -> Matrix:
    """L^{G,c}: diagonal = total out-conductance, off-diagonal = -c(i,j)."""
    rows = [[Fraction(0)] * g.n for _ in range(g.n)]
    for (t, h, c) in g.arcs:
        rows[t][h] = -c
        rows[t][t] += c
    return tuple(tuple(r) for r in rows)
