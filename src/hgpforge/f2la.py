"""Bit-packed dense linear algebra over GF(2).

Every row of a matrix is stored as a single Python integer, with bit ``j``
holding the entry in column ``j``.  Row operations are therefore single
bignum XORs, which keeps Gaussian elimination fast enough for the desk-scale
matrices used throughout the package without any third-party dependency.

Matrices are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence


def _full_mask(cols: int) -> int:
    return (1 << cols) - 1


class BinaryMatrix:
    """Dense matrix over GF(2) with bit-packed rows.

    Attributes:
        rows: Number of rows (may be 0).
        cols: Number of columns (may be 0).
        bits: Tuple of row words; bit ``j`` of ``bits[r]`` is entry (r, j).
              No bit at or beyond column ``cols`` is ever set.
    """

    __slots__ = ("rows", "cols", "bits")

    def __init__(self, rows: int, cols: int, bits: Sequence[int]):
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be non-negative")
        if len(bits) != rows:
            raise ValueError(f"expected {rows} row words, got {len(bits)}")
        bits = tuple(bits)
        if bits and (min(bits) < 0 or max(bits) >> cols):
            r = next(r for r, word in enumerate(bits) if word < 0 or word >> cols)
            raise ValueError(f"row {r} has bits outside {cols} columns")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "bits", bits)

    def __setattr__(self, name, value):  # pragma: no cover - guard rail
        raise AttributeError("BinaryMatrix is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "BinaryMatrix":
        return cls(rows, cols, [0] * rows)

    @classmethod
    def identity(cls, n: int) -> "BinaryMatrix":
        return cls(n, n, [1 << i for i in range(n)])

    @classmethod
    def from_rows(cls, rows: Iterable[str]) -> "BinaryMatrix":
        """Build from strings of 0/1 characters, leftmost char column 0;
        whitespace around a row is ignored.  Any other row is refused."""
        strings = []
        for row in rows:
            if not isinstance(row, str):
                raise ValueError(f"matrix rows must be 0/1 strings, not {row!r}")
            strings.append(row.strip())
        if not strings:
            raise ValueError("cannot infer column count from empty input")
        width = len(strings[0])
        words = _row_words(strings, width)
        if len(words) < len(strings):
            bad = strings[len(words)].strip("01")
            raise ValueError(f"bad matrix character {bad[0]!r}" if bad else "ragged rows")
        return cls(len(words), width, words)

    # -- element access ----------------------------------------------------

    def get(self, r: int, c: int) -> int:
        if not (0 <= r < self.rows and 0 <= c < self.cols):
            raise IndexError("matrix index out of range")
        return (self.bits[r] >> c) & 1

    def row(self, r: int) -> int:
        return self.bits[r]

    def is_zero(self) -> bool:
        return all(w == 0 for w in self.bits)

    def to_strings(self) -> list[str]:
        return [vector_to_string(w, self.cols) for w in self.bits]

    # -- dunder ------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BinaryMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.bits == other.bits
        )

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.bits))

    def __repr__(self) -> str:
        if self.rows <= 8 and self.cols <= 24:
            body = ", ".join(self.to_strings())
            return f"BinaryMatrix({self.rows}x{self.cols}: [{body}])"
        return f"BinaryMatrix({self.rows}x{self.cols})"


class RrefResult(NamedTuple):
    """Reduced row-echelon form with its pivot bookkeeping.

    ``pivot_columns`` is strictly increasing and has length ``rank``.
    Row ``i`` of ``reduced`` has a 1 in column ``pivot_columns[i]`` and that
    column is zero in every other row.  No column swaps are performed, so
    column indices always refer to the original matrix.
    """

    reduced: BinaryMatrix
    pivot_columns: tuple[int, ...]
    rank: int

    def nonzero_rows(self) -> list[int]:
        return list(self.reduced.bits[: self.rank])


def rref(m: BinaryMatrix) -> RrefResult:
    """Reduced row-echelon form over GF(2), pivots leftmost-first.

    The reduced rows are the reduced basis of RowSpace(m), padded with zero
    rows; each pivot is its row's lowest set bit.
    """
    pivots, basis = RowSpace(m)._reduced_basis()
    reduced = BinaryMatrix(m.rows, m.cols, basis + (0,) * (m.rows - len(basis)))
    return RrefResult(reduced, pivots, len(basis))


def rank(m: BinaryMatrix) -> int:
    return RowSpace(m).rank


def transpose(m: BinaryMatrix) -> BinaryMatrix:
    out = [0] * m.cols
    for r, word in enumerate(m.bits):
        bit = 1 << r
        for c in indices_of(word):
            out[c] |= bit
    return BinaryMatrix(m.cols, m.rows, out)


def matmul(a: BinaryMatrix, b: BinaryMatrix) -> BinaryMatrix:
    """Matrix product over GF(2); requires cols(a) == rows(b)."""
    if a.cols != b.rows:
        raise ValueError(f"dimension mismatch: {a.cols} cols vs {b.rows} rows")
    return BinaryMatrix(a.rows, b.cols, [row_combination(b, word) for word in a.bits])


def row_combination(m: BinaryMatrix, v: int) -> int:
    """XOR of the rows of m selected by the bits of v (the product v^T m)."""
    acc = 0
    for r in indices_of(v):
        acc ^= m.bits[r]
    return acc


def kron(a: BinaryMatrix, b: BinaryMatrix) -> BinaryMatrix:
    """Kronecker product; entry ((ia*rb + ib), (ja*cb + jb)) = a[ia,ja]*b[ib,jb].

    Row (ia, ib) is b's row ib times a's row ia spread to one bit per
    b.cols-bit lane: the copies of b's row sit in disjoint lanes, so the
    product has no carries.
    """
    out = []
    for arow in a.bits:
        spread = 0
        for ja in indices_of(arow):
            spread |= 1 << (ja * b.cols)
        out += [brow * spread for brow in b.bits]
    return BinaryMatrix(a.rows * b.rows, a.cols * b.cols, out)


def mat_vec(m: BinaryMatrix, v: int) -> int:
    """Apply m to a packed column vector; bit r of the result is <row_r, v>."""
    if v < 0 or v & ~_full_mask(m.cols):
        raise ValueError("vector does not fit the column count")
    out = 0
    for r, word in enumerate(m.bits):
        if (word & v).bit_count() & 1:
            out |= 1 << r
    return out


def kernel_basis(m: BinaryMatrix | RowSpace, within: Optional[int] = None) -> BinaryMatrix:
    """Basis for {v : m @ v = 0}, one packed vector per row.

    The basis has cols(m) - rank(m) rows.  Basis vector for free column f
    carries a 1 at f and reproduces the bound pivot entries, so the result
    is deterministic and in a canonical (echelon-complement) form.  The
    kernel depends on the row space alone, so m may be a RowSpace already
    built, whose reduced basis is read instead of eliminating again.  One
    pass over the reduced rows sets pivot p in the vector of every free
    column that p's row holds.

    With a column mask `within` outside which every column of m is zero (as
    `mask_columns` leaves it), only the vectors of the free columns inside
    it are built, in the same order: the others are unit vectors outside
    the mask, which no row holds.
    """
    space = m if isinstance(m, RowSpace) else RowSpace(m)
    pivots, basis = space._reduced_basis()
    pivot_set = set(pivots)
    columns = range(space.cols) if within is None else indices_of(within)
    free = {f: 1 << f for f in columns if f not in pivot_set}
    for p, word in zip(pivots, basis):
        bit = 1 << p
        for f in indices_of(word ^ bit):
            free[f] |= bit
    return BinaryMatrix(len(free), space.cols, list(free.values()))


def solve(m: BinaryMatrix, b: int) -> Optional[int]:
    """Solve m @ x = b for a packed vector x, or None if inconsistent.

    Reduces the augmented matrix [m | b]; the system is inconsistent iff
    the augmented column carries a pivot.  Free variables are set to zero,
    so the returned solution is the unique representative with support
    inside the pivot columns.
    """
    if b < 0 or b & ~_full_mask(m.rows):
        raise ValueError("right-hand side does not fit the row count")
    aug = [m.bits[r] | (((b >> r) & 1) << m.cols) for r in range(m.rows)]
    red = rref(BinaryMatrix(m.rows, m.cols + 1, aug))
    if red.pivot_columns and red.pivot_columns[-1] == m.cols:
        return None
    x = 0
    for word, col in zip(red.reduced.bits, red.pivot_columns):
        if word >> m.cols:
            x |= 1 << col
    return x


def mask_columns(m: BinaryMatrix, mask: int) -> BinaryMatrix:
    """m with every column outside mask cleared.  Columns keep their index,
    so a result read off the masked matrix needs no mapping back."""
    return BinaryMatrix(m.rows, m.cols, [word & mask for word in m.bits])


def subset_xors(words: Sequence[int]) -> Iterator[tuple[int, int]]:
    """(size, XOR) of every nonempty subset of words.

    Subsets come by ascending size, and within a size in
    itertools.combinations order, so the first hit of a search is a
    smallest one with lexicographic tie-breaking.
    """
    for size in range(1, len(words) + 1):
        for combo in itertools.combinations(words, size):
            acc = 0
            for w in combo:
                acc ^= w
            yield size, acc


def lightest_word(
    rows: Sequence[int],
    keep: Optional[Callable[[int], bool]] = None,
    budget: Optional[int] = None,
) -> tuple[Optional[int], bool]:
    """Lightest nonzero word of span(rows) that keep accepts (any word when
    keep is None), ties broken by lexicographic support.

    Each row must own a column that no other row holds, as the rows of a
    reduced basis own their pivots and kernel_basis rows their free
    columns.  A sum of s rows then weighs at least s, so the walk over
    subset_xors(rows) stops, exactly, once s passes the lightest weight
    kept, or after `budget` subsets.  keep is asked only about a word that
    would beat the best so far.  Returns (word, exact): the word, or None
    if none is kept, and False when the budget cut the walk.
    """
    best, best_weight = None, 0
    for spent, (size, word) in enumerate(subset_xors(rows), 1):
        if best is not None and size > best_weight:
            return best, True
        if budget is not None and spent > budget:
            return best, False
        weight = word.bit_count()
        # Of two supports of one weight, the lexicographically smaller one
        # holds the lowest column where they differ.
        if best is None or weight < best_weight or (
            weight == best_weight and (diff := word ^ best) & -diff & word
        ):
            if keep is None or keep(word):
                best, best_weight = word, weight
    return best, True


class RowSpace:
    """Row space over GF(2), kept as a row-echelon basis.

    Each basis row is stored under its pivot column, the index of its
    lowest set bit, and no two rows share a pivot.  `extend` is the forward
    half of the package's one Gauss-Jordan elimination: it strips a new
    row's lowest bit by pivot lookups and stores what is left, rewriting no
    stored row.  `_reduced_basis` is the back half: it reads the reduced
    row-echelon basis off the echelon rows, for rref and kernel_basis.  The
    pivots, and so the RREF and the coset keys of `reduce`, depend on the
    span alone, not on the order the rows arrive in.  RowSpace(m) extends
    by the rows of m in order; RowSpace(cols=n) starts empty.
    """

    def __init__(self, m: Optional[BinaryMatrix] = None, cols: Optional[int] = None):
        if m is None and cols is None:
            raise ValueError("need a matrix or an explicit column count")
        self.cols = cols if m is None else m.cols
        # pivot column -> echelon row; a small int key hashes in constant
        # time, where the pivot's low-bit mask is as wide as its position
        self._rows: dict[int, int] = {}
        self._pivots = 0  # OR of the pivot bits
        self._reduced: Optional[tuple[tuple[int, ...], tuple[int, ...]]] = None
        if m is not None:
            for word in m.bits:
                self.extend(word)

    @property
    def rank(self) -> int:
        return len(self._rows)

    def reduce(self, v: int) -> int:
        """v with every pivot bit cleared: one key per coset of the span."""
        rows, pivots = self._rows, self._pivots
        hit = v & pivots
        while hit:
            # A row touches no bit below its pivot, so the lowest pivot bit
            # of v only moves up.
            v ^= rows[(hit & -hit).bit_length() - 1]
            hit = v & pivots
        return v

    def contains(self, v: int) -> bool:
        rows = self._rows
        while v:
            row = rows.get((v & -v).bit_length() - 1)
            if row is None:
                return False
            v ^= row
        return True

    def extend(self, v: int) -> bool:
        """Add v to the span; returns True if it was independent.  A word
        with a bit at or beyond `cols`, or a negative one, is refused."""
        if v >> self.cols:
            raise ValueError(f"word has bits outside {self.cols} columns")
        rows = self._rows
        while v:
            low = v & -v
            col = low.bit_length() - 1
            row = rows.get(col)
            if row is None:
                rows[col] = v
                self._pivots |= low
                self._reduced = None
                return True
            v ^= row
        return False

    def _reduced_basis(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(pivot columns, reduced rows), both in ascending pivot order.

        Back-substitution in descending pivot order: a row's pivot bits
        above its own are cleared by the rows already reduced, which hold
        no other pivot bit.  Kept until the next `extend`.
        """
        if self._reduced is None:
            pivots, done = self._pivots, {}
            for col in sorted(self._rows, reverse=True):
                row = self._rows[col]
                hit = (row & pivots) ^ (1 << col)
                while hit:
                    above = hit & -hit
                    row ^= done[above.bit_length() - 1]
                    hit ^= above
                done[col] = row
            order = sorted(done)
            self._reduced = (tuple(order), tuple(done[col] for col in order))
        return self._reduced


# -- text exchange format --------------------------------------------------
#
# Optional '#' comment lines, then a header line "rows cols", then exactly
# `rows` lines of `cols` characters from {0,1}.  Round-trips bit-exactly.


def parse_matrix_text(text: str) -> BinaryMatrix:
    lines = [ln.strip() for ln in text.splitlines()]
    data = [ln for ln in lines if ln and not ln.startswith("#")]
    if not data:
        raise ValueError("empty matrix file")
    head = data[0].split()
    if len(head) != 2:
        raise ValueError(f"bad matrix header {data[0]!r}, expected 'rows cols'")
    try:
        nrows, ncols = int(head[0]), int(head[1])
    except ValueError as exc:
        raise ValueError(f"bad matrix header {data[0]!r}") from exc
    if nrows < 0 or ncols < 0:
        raise ValueError("negative dimensions in matrix header")
    body = data[1:]
    if len(body) != nrows:
        raise ValueError(f"expected {nrows} matrix rows, found {len(body)}")
    words = _row_words(body, ncols)
    if len(words) < nrows:
        raise ValueError(f"bad matrix row {body[len(words)]!r}")
    return BinaryMatrix(nrows, ncols, words)


def _row_words(rows: Sequence[str], width: int) -> list[int]:
    """The packed words of the rows, each a string of `width` 0/1 characters
    with column 0 leftmost, up to the first row that is not: a short result
    means rows[len(result)] is bad."""
    words = []
    for row in rows:
        if len(row) != width or row.strip("01"):
            break
        words.append(int(row[::-1] or "0", 2))
    return words


def format_matrix_text(m: BinaryMatrix, comment: Optional[str] = None) -> str:
    out = []
    if comment:
        for ln in comment.splitlines():
            out.append(f"# {ln}")
    out.append(f"{m.rows} {m.cols}")
    out.extend(m.to_strings())
    return "\n".join(out) + "\n"


def vector_to_string(v: int, n: int) -> str:
    return "".join("1" if (v >> j) & 1 else "0" for j in range(n))


def vector_from_indices(indices: Iterable[int]) -> int:
    v = 0
    for i in indices:
        v |= 1 << i
    return v


def indices_of(v: int) -> list[int]:
    """The positions of v's set bits, ascending; stripping the top bit
    shortens v, so no step negates or masks the whole word."""
    out = []
    while v:
        out.append(b := v.bit_length() - 1)
        v ^= 1 << b
    return out[::-1]
