"""Exact data model for finite Markov chains.

Transition matrices over exact rationals (``fractions.Fraction``), ingestion
from matrix/edge-list documents, the Laplacian L = I - P that the forest
identities are stated in, each chain's rows scaled to integers, which
both routes compute from, and the one reachability search, the graph
structure both routes share. Both routes carry their sums as integers
over one denominator and build each value they return with ``ratio``, the
one constructor of a Fraction from two ints. Everything here is immutable
and arithmetic is never rounded.
"""

from __future__ import annotations

import json
import re
import sys
from fractions import Fraction
from math import gcd, lcm
from operator import attrgetter, index
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


_new_object = object.__new__


def ratio(num: int, den: int) -> Fraction:
    """num / den for ints: the Fraction that ``Fraction(num, den)`` builds,
    reduced by one gcd with the sign on the numerator; a zero denominator
    raises ZeroDivisionError.

    Every value either route returns is built here. ``Fraction.__new__``
    runs Python code around that one gcd to dispatch on its arguments'
    types, so the reduced pair is written straight into ``_numerator`` and
    ``_denominator``, the two slots Fraction declares on every supported
    interpreter (3.10 to 3.13).
    """
    if not den:
        raise ZeroDivisionError(f"Fraction({num}, 0)")
    g = gcd(num, den)
    if den < 0:
        g = -g
    q = _new_object(Fraction)
    q._numerator = num // g
    q._denominator = den // g
    return q


def _read_int(text: str) -> int:
    """int(text), with the interpreter's refusal as a parse error: a digit
    that int() does not read ("²"), or more digits than its limit."""
    try:
        return int(text)
    except ValueError as e:
        raise ChainParseError(f"unreadable integer: {e}") from e


def parse_rational(text: str | int) -> Fraction:
    """Parse "p/q" or an integer literal into an exact Fraction."""
    if isinstance(text, int) and not isinstance(text, bool):
        return Fraction(text)
    m = _RATIONAL_RE.match(str(text))
    if not m:
        raise ChainParseError(f"malformed rational literal {text!r}")
    num = _read_int(m.group(1))
    if m.group(2) is None:
        return Fraction(num)
    den = _read_int(m.group(2))
    if den == 0:
        raise ChainParseError(f"zero denominator in rational literal {text!r}")
    return ratio(num, den)


def format_rational(q: Fraction) -> str:
    """Canonical "num/den" form, denominator omitted when it is 1."""
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


# A checked row: (support columns, lcm d of the denominators, entries times d)
CheckedRow = tuple[tuple[int, ...], int, tuple[int, ...]]


def _check_row(i: int, cells: Sequence[tuple[int, Fraction]]) -> CheckedRow:
    """Row ``i``, given as its nonzero (column, entry) pairs by ascending
    column, must be nonnegative and sum to exactly 1.

    Sign and sum are taken in integers over the lcm d of the row's
    denominators, and the chain keeps what they were taken from."""
    d = lcm(*[x.denominator for _j, x in cells])
    scaled = []
    for j, x in cells:
        if x.numerator < 0:
            raise ChainParseError(
                f"negative entry {format_rational(x)} at ({i},{j})")
        scaled.append(x.numerator * (d // x.denominator))
    total = sum(scaled)
    if total != d:
        q = ratio(total, d)
        # a sum of literals within the interpreter's digit limit can pass it
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if limit and max(q.numerator, q.denominator) >= 10 ** limit:
            raise ChainParseError(f"row {i} does not sum to 1")
        raise ChainParseError(f"row {i} sums to {format_rational(q)}")
    return tuple([j for j, _x in cells]), d, tuple(scaled)


class FrozenValue:
    """Base of the checked value types: immutable fields kept in slots.

    A subclass lists every attribute it stores in ``__slots__`` and its
    public fields, in constructor order, in ``_fields``. Its ``__init__``
    checks the arguments and stores them past the frozen ``__setattr__``
    (``object.__setattr__``, or a slot's own ``__set__``). Objects compare
    equal, and hash alike, when they are of the same class and their fields
    are equal; the repr shows the fields, and pickling rebuilds through
    ``__init__``, so a loaded object is checked again.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        get = attrgetter(*cls._fields)
        # a single name makes attrgetter return the bare value
        cls._values = staticmethod(
            get if len(cls._fields) > 1 else lambda obj: (get(obj),))
        cls.__match_args__ = cls._fields

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == self._values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}"
                          for name in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values(self)


class TransitionMatrix(FrozenValue):
    """A row-stochastic matrix of exact rationals.

    States are dense indices 0..n-1. ``labels``, when present, records the
    original state names in index order, no name twice. Rows must sum to
    exactly 1; entries must be >= 0. Self-loops are allowed.
    """

    __slots__ = ("rows", "labels", "_hash", "_support", "_dens", "_nums")
    _fields = ("rows", "labels")

    def __init__(self, rows: Matrix, labels: tuple[str, ...] | None = None):
        rows = tuple(
            row if type(row) is tuple and all(type(x) is Fraction for x in row)
            else tuple(Fraction(x) for x in row)
            for row in rows)
        n = len(rows)
        if n == 0:
            raise ChainParseError("empty transition matrix")
        checked = []
        for i, row in enumerate(rows):
            if len(row) != n:
                raise ChainParseError(
                    f"row {i} has {len(row)} entries, expected {n}")
            checked.append(
                _check_row(i, [(j, x) for j, x in enumerate(row) if x]))
        self._store(rows, labels, checked)

    @classmethod
    def _checked(cls, rows: Matrix, labels: tuple[str, ...] | None,
                 checked: Sequence[CheckedRow]) -> TransitionMatrix:
        """A chain from Fraction rows checked as ``__init__`` checks them, from
        their positive cells alone: an edge list's absent cells are not read."""
        self = cls.__new__(cls)
        self._store(rows, labels, checked)
        return self

    def _store(self, rows: Matrix, labels: tuple[str, ...] | None,
               checked: Sequence[CheckedRow]) -> None:
        """Check the labels, then keep the rows and what their check found."""
        n = len(rows)
        if labels is not None:
            labels = tuple(str(s) for s in labels)
            seen = set()
            for label in labels:
                if label in seen:
                    raise ChainParseError(
                        f"duplicate label {json.dumps(label)}")
                seen.add(label)
            if len(labels) != n:
                raise ChainParseError(
                    f"{len(labels)} labels for {n} states")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "labels", labels)
        # chains key the kept sums and solves, so hash once, and not through
        # Fraction.__hash__, Python code with a pow per call: the checked
        # rows, which equal rows share. Unpickling runs __init__, so the
        # memo is never carried across processes, where label hashes differ
        object.__setattr__(self, "_hash", hash((tuple(checked), labels)))
        support, dens, cells = zip(*checked)
        # the graph checks ask for the support many times per chain; the
        # entries are checked nonnegative, so nonzero means positive
        object.__setattr__(self, "_support", support)
        # both routes compute from the row denominators and the scaled
        # support cells, kept flat, row by row (``scaled_rows``)
        object.__setattr__(self, "_dens", dens)
        object.__setattr__(self, "_nums", tuple([x for c in cells for x in c]))

    def __hash__(self) -> int:
        return self._hash

    @property
    def n(self) -> int:
        return len(self.rows)

    def p(self, i: int, j: int) -> Fraction:
        return self.rows[i][j]

    def support(self) -> tuple[tuple[int, ...], ...]:
        """Out-neighbors along positive-probability arcs, per state."""
        return self._support


# ---------------------------------------------------------------------------
# ingestion

def _parse_matrix_json(doc: dict) -> TransitionMatrix:
    if not isinstance(doc, dict) or "rows" not in doc:
        raise ChainParseError("matrix document must be an object with a 'rows' field")
    rows = doc["rows"]
    if not isinstance(rows, list) or not rows:
        raise ChainParseError("'rows' must be a nonempty list")
    n = doc.get("n", len(rows))
    # JSON true and 1.0 compare equal to 1: only a JSON integer declares n
    if n.__class__ is not int:
        raise ChainParseError(f"'n' must be an integer, got {json.dumps(n)}")
    if n != len(rows):
        raise ChainParseError(f"declared n={n} but {len(rows)} rows given")
    parsed = []
    for row in rows:
        if not isinstance(row, list):
            raise ChainParseError("each row must be a list")
        parsed.append(tuple(parse_rational(x) for x in row))
    labels = doc.get("labels")
    if labels is not None:
        if not (isinstance(labels, list)
                and all(isinstance(s, str) for s in labels)):
            raise ChainParseError("'labels' must be a list of strings")
        labels = tuple(labels)
    return TransitionMatrix(tuple(parsed), labels)


def chain_from_edge_list(text: str) -> TransitionMatrix:
    """Parse "tail head prob" lines; absent cells are 0; rows must sum to 1.

    All-integer tokens are taken literally as state indices; otherwise
    tokens are labels, indexed in order of first appearance. More than
    ``MAX_STATES`` states are refused before any matrix is built.
    """
    entries = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split("#", 1)[0].split()
        if not parts:
            continue
        if len(parts) != 3:
            raise ChainParseError(
                f"line {lineno}: expected 'tail head prob', got {raw!r}")
        entries.append((parts[0], parts[1], parse_rational(parts[2])))
    if not entries:
        raise ChainParseError("empty edge list")
    tokens = [t for (a, b, _x) in entries for t in (a, b)]
    if all(t.isdigit() for t in tokens):
        ids = {t: _read_int(t) for t in tokens}
        n, labels = max(ids.values()) + 1, None
    else:
        ids = {t: i for i, t in enumerate(dict.fromkeys(tokens))}
        n, labels = len(ids), tuple(ids)
    if n > MAX_STATES:
        raise ChainParseError(
            f"state index {n - 1} exceeds the limit of {MAX_STATES} states")
    # validate from the listed cells first, so that a bad document fails
    # before an n x n matrix is built (`0 2000 1` declares 2001 states)
    cells: dict[tuple[int, int], Fraction] = {}
    by_row: dict[int, list[tuple[int, Fraction]]] = {}
    for (a, b, x) in entries:
        key = (ids[a], ids[b])
        if key in cells:
            raise ChainParseError(f"duplicate matrix cell {key}")
        cells[key] = x
        by_row.setdefault(key[0], []).append((key[1], x))
    # a listed zero cell ("b c 0") stays out of the support
    listed = [[(j, x) for j, x in sorted(by_row.get(i, ())) if x.numerator]
              for i in range(n)]
    checked = [_check_row(i, row_cells) for i, row_cells in enumerate(listed)]
    # every absent cell is one shared zero, and the chain type takes the
    # rows as checked, with the listed positive cells as their support
    zero = Fraction(0)
    rows = []
    for row_cells in listed:
        row = [zero] * n
        for j, x in row_cells:
            row[j] = x
        rows.append(tuple(row))
    return TransitionMatrix._checked(tuple(rows), labels, checked)


def parse_chain(source: str, fmt: str = "matrix") -> TransitionMatrix:
    """Parse a chain document.

    fmt="matrix": JSON {"n": int, "rows": [["p/q", ...], ...], "labels": [...]}.
    fmt="edges": text lines "tail head prob" with '#' comments.
    """
    if fmt == "matrix":
        try:
            doc = json.loads(source)
        # a JSONDecodeError, or an integer past the interpreter's digit limit
        except ValueError as e:
            raise ChainParseError(f"invalid JSON: {e}") from e
        except RecursionError as e:
            raise ChainParseError("invalid JSON: nested too deeply") from e
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
    row = tuple(ratio(1, n) for _ in range(n))
    return TransitionMatrix(tuple(row for _ in range(n)))


# ---------------------------------------------------------------------------
# scaled rows and the Laplacian

def scaled_rows(p: TransitionMatrix) -> tuple[tuple[tuple[int, ...], ...],
                                              tuple[int, ...]]:
    """(nums, dens): row i of P is nums[i] / dens[i] with integer nums[i],
    dens[i] the lcm of the denominators in the row's support.

    The row check scaled the support's cells, and the chain keeps only those
    O(arcs) ints, since a caller may hold many chains: this lays them out as
    n^2 dense cells, reading no Fraction, and each route keeps what it laid
    out in its own store."""
    n = p.n
    cells = iter(p._nums)
    nums = []
    for cols in p._support:
        row = [0] * n
        for j, x in zip(cols, cells):
            row[j] = x
        nums.append(tuple(row))
    return tuple(nums), p._dens


def check_roots(n: int, roots: Iterable[int], allow_empty: bool = False) -> frozenset[int]:
    """The root set as a frozenset of ints, each checked to be a state of
    an n-state chain; empty only when ``allow_empty``. A root is taken with
    ``operator.index``, so one that is not an integer, such as 0.9 or '0',
    is refused rather than truncated."""
    rs = set()
    for r in roots:
        try:
            rs.add(index(r))
        except TypeError:
            raise ValueError(f"root {r!r} is not an integer") from None
    rs = frozenset(rs)
    if not rs and not allow_empty:
        raise ValueError("root set must be nonempty")
    for r in rs:
        if not 0 <= r < n:
            raise ValueError(f"root {r} out of range for n={n}")
    return rs


def reachable(adjacent: Sequence[Sequence[int]], starts: Iterable[int]) -> set[int]:
    """``starts`` and every state reached from them along ``adjacent``."""
    seen = set(starts)
    stack = list(seen)
    while stack:
        u = stack.pop()
        for v in adjacent[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return seen


def laplacian(p: TransitionMatrix) -> Matrix:
    """L = I - P, each cell (dens_i delta_ij - nums_ij) / dens_i from the
    scaled rows."""
    nums, dens = scaled_rows(p)
    return tuple(
        tuple([ratio((d if i == j else 0) - x, d) for j, x in enumerate(row)])
        for i, (row, d) in enumerate(zip(nums, dens)))

