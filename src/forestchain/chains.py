"""Exact data model for finite Markov chains.

Transition matrices over exact rationals (``fractions.Fraction``), ingestion
from matrix/edge-list documents, the Laplacian L = I - P that the forest
identities are stated in, and each chain's rows scaled to integers, which
both routes compute from. Both routes carry their sums as integers over one
denominator and build each value they return with ``ratio``, the one
constructor of a Fraction from two ints. Everything here is immutable and
arithmetic is never rounded.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import attrgetter
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
            f"row {i} sums to {format_rational(ratio(total, d))}")


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

    __slots__ = ("rows", "labels", "_hash", "_support")
    _fields = ("rows", "labels")

    def __init__(self, rows: Matrix, labels: tuple[str, ...] | None = None):
        rows = tuple(
            row if type(row) is tuple and all(type(x) is Fraction for x in row)
            else tuple(Fraction(x) for x in row)
            for row in rows)
        n = len(rows)
        if n == 0:
            raise ChainParseError("empty transition matrix")
        support = []
        for i, row in enumerate(rows):
            if len(row) != n:
                raise ChainParseError(
                    f"row {i} has {len(row)} entries, expected {n}")
            cols = tuple([j for j, x in enumerate(row) if x])
            _check_row(i, [(j, row[j]) for j in cols])
            support.append(cols)
        self._store(rows, labels, tuple(support))

    @classmethod
    def _checked(cls, rows: Matrix, labels: tuple[str, ...] | None,
                 support: tuple[tuple[int, ...], ...]) -> TransitionMatrix:
        """A chain from Fraction rows already checked as ``__init__`` checks
        them, with their positive cells' columns: an edge list's listed
        cells, so its absent ones are never read."""
        self = cls.__new__(cls)
        self._store(rows, labels, support)
        return self

    def _store(self, rows: Matrix, labels: tuple[str, ...] | None,
               support: tuple[tuple[int, ...], ...]) -> None:
        """Check the labels, then keep the checked rows and their support."""
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
        # chains key the forest caches, so hash once, and not through
        # Fraction.__hash__, Python code with a pow per call: the nonzero
        # cells' numerators and denominators, which equal Fractions share,
        # with the support that places them. Unpickling runs __init__, so the
        # memo is never carried across processes, where label hashes differ
        parts = tuple([(row[j].numerator, row[j].denominator)
                       for row, cols in zip(rows, support) for j in cols])
        object.__setattr__(self, "_hash", hash((support, parts, labels)))
        # the graph checks ask for the support many times per chain; the
        # entries are checked nonnegative, so nonzero means positive
        object.__setattr__(self, "_support", support)

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
    listed = [sorted(by_row.get(i, ())) for i in range(n)]
    for i, row_cells in enumerate(listed):
        _check_row(i, row_cells)
    # every absent cell is one shared zero, and the chain type takes the
    # rows as checked, with the listed positive cells as their support
    zero = Fraction(0)
    rows = []
    for row_cells in listed:
        row = [zero] * n
        for j, x in row_cells:
            row[j] = x
        rows.append(tuple(row))
    support = tuple(tuple([j for j, x in row_cells if x.numerator])
                    for row_cells in listed)
    return TransitionMatrix._checked(tuple(rows), labels, support)


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

# Bound, in chains, on the memo below: the forest sums, the sampler and the
# oracle solves each ask for the scaled rows of the chain in use.
_SCALED_ROWS_CACHE_SIZE = 64


@lru_cache(maxsize=_SCALED_ROWS_CACHE_SIZE)
def scaled_rows(p: TransitionMatrix) -> tuple[tuple[tuple[int, ...], ...],
                                              tuple[int, ...]]:
    """(nums, dens): row i of P is nums[i] / dens[i] with integer nums[i],
    dens[i] the lcm of the denominators in the row's support, all it reads."""
    dens = tuple(lcm(*[row[j].denominator for j in cols])
                 for row, cols in zip(p.rows, p.support()))
    nums = []
    for row, cols, d in zip(p.rows, p.support(), dens):
        scaled = [0] * len(row)
        for j in cols:
            scaled[j] = row[j].numerator * (d // row[j].denominator)
        nums.append(tuple(scaled))
    return tuple(nums), dens


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
    """L = I - P, each cell (dens_i delta_ij - nums_ij) / dens_i from the
    scaled rows."""
    nums, dens = scaled_rows(p)
    return tuple(
        tuple([ratio((d if i == j else 0) - x, d) for j, x in enumerate(row)])
        for i, (row, d) in enumerate(zip(nums, dens)))

