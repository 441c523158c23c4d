"""Classical linear codes over GF(2).

Wraps a parity-check matrix (redundant rows allowed, never deduplicated)
with its generator, dimension, exact distance search, information sets,
punctures, and the row-space cleaning primitive used to deform logical
representatives in product codes.
"""

from __future__ import annotations

from typing import Iterable, Optional

from . import f2la
from ._record import SlotRecord
from .f2la import BinaryMatrix

_SEARCH_BUDGET = 1 << 22


class InformationSet(SlotRecord):
    """k coordinates on which the generator matrix has full rank."""

    __slots__ = ("indices",)

    def __init__(self, indices: tuple[int, ...]):
        object.__setattr__(self, "indices", indices)

    def __len__(self) -> int:
        return len(self.indices)


class ClassicalCode:
    """An [n, k, d] binary linear code given by parity checks.

    Attributes:
        h: Parity-check matrix (rows may be redundant).
        n: Block length.
        g: Generator matrix in reduced form; rows are a kernel basis of h.
        g_pivots: Pivot columns of g (the leftmost information set).
        k: Dimension, n - rank(h).
    """

    def __init__(self, h: BinaryMatrix):
        self.h = h
        self.n = h.cols
        red = f2la.rref(f2la.kernel_basis(h))
        self.g = red.reduced
        self.g_pivots = red.pivot_columns
        self.k = red.rank
        self._distance: Optional[int] = None
        self._witness: Optional[int] = None

    def __repr__(self) -> str:
        d = self._distance if self._distance is not None else "?"
        return f"ClassicalCode[[{self.n},{self.k},{d}]]"

    @property
    def d(self) -> int:
        return distance(self)


def distance(code: ClassicalCode, budget: int = _SEARCH_BUDGET) -> int:
    """Exact minimum weight over nonzero codewords.

    One `f2la.lightest_word` walk: messages over the reduced generator by
    ascending weight, stopped once the message weight passes the lightest
    codeword found.  The stop is exact because a codeword is at least as
    heavy as its message, which it carries on the information set.  The
    witness is the lexicographically smallest minimum-weight codeword.
    Raises when the walk needs more than `budget` messages.
    """
    if code.k == 0:
        raise ValueError("distance undefined for trivial code")
    if code._distance is not None:
        return code._distance
    best, exact = f2la.lightest_word(code.g.bits, budget=budget)
    if not exact:
        raise ValueError("distance search budget exceeded")
    code._distance = best.bit_count()
    code._witness = best
    return code._distance


def distance_certificate(code: ClassicalCode) -> dict:
    """JSON-ready certificate: parameters plus a minimum-weight witness."""
    d = distance(code)
    return {
        "n": code.n,
        "k": code.k,
        "d": d,
        "witness": f2la.vector_to_string(code._witness, code.n),
    }


def _index_mask(code: ClassicalCode, indices: Iterable[int]) -> int:
    """The mask of an index set; an index outside the code is refused."""
    indices = set(indices)
    if any(i < 0 or i >= code.n for i in indices):
        raise ValueError("index set out of range")
    return f2la.vector_from_indices(indices)


def find_information_set(code: ClassicalCode, t: Optional[Iterable[int]] = None) -> InformationSet:
    """Lexicographically smallest information set contained in t.

    The pivots of g masked to t, leftmost first.  Also checks that h on
    the complement has full column rank n - k, so the returned set doubles
    as a k-puncture of h.
    """
    allowed = f2la._full_mask(code.n) if t is None else _index_mask(code, t)
    chosen = f2la.rref(f2la.mask_columns(code.g, allowed)).pivot_columns
    if len(chosen) < code.k:
        raise ValueError(
            f"no information set inside the given columns: rank {len(chosen)} < k={code.k}"
        )
    if not is_puncture(code, chosen):
        raise AssertionError("information set complement is not full rank in h")
    return InformationSet(chosen)


def disjoint_information_set(code: ClassicalCode, r: Iterable[int]) -> InformationSet:
    """Information set avoiding the region r; requires |r| < d."""
    region = _index_mask(code, r)
    if region.bit_count() >= distance(code):
        raise ValueError("region too large to avoid")
    return find_information_set(code, f2la.indices_of(region ^ f2la._full_mask(code.n)))


def classical_clean(code: ClassicalCode, gamma: Iterable[int]) -> int:
    """Row-space element of h equal to all-ones on gamma.

    Solves for row coefficients directly; existence is guaranteed for
    |gamma| <= (d-1)/2 but the solve is attempted for any gamma.
    """
    mask = _index_mask(code, gamma)
    if not mask:
        return 0
    h = clean_with_target(code.h, mask, mask)
    if h is None:
        cols = f2la.indices_of(mask)
        raise ValueError(f"not cleanable: no row-space element is all-ones on {cols}")
    return h


def clean_with_target(h: BinaryMatrix, mask: int, target: int) -> Optional[int]:
    """Row-space element of h matching `target` on the columns in `mask`.

    Masked-out columns become zero equations, which leave the reduced
    system, and so `solve`'s y, as on the columns alone.
    """
    y = f2la.solve(f2la.transpose(f2la.mask_columns(h, mask)), target & mask)
    return None if y is None else f2la.row_combination(h, y)


def is_puncture(code: ClassicalCode, gamma: Iterable[int]) -> bool:
    """True iff no nonzero row-space element of h fits inside gamma.

    Equivalent rank test: clearing the columns in gamma must not lose rank.
    """
    comp = _index_mask(code, gamma) ^ f2la._full_mask(code.n)
    return f2la.rank(f2la.mask_columns(code.h, comp)) == f2la.rank(code.h)


# -- common seed constructions ----------------------------------------------


def repetition_code(n: int) -> ClassicalCode:
    """[n, 1, n] repetition code with the n-1 adjacent-pair checks."""
    if n < 1:
        raise ValueError("need n >= 1")
    rows = [(1 << i) | (1 << (i + 1)) for i in range(n - 1)]
    return ClassicalCode(BinaryMatrix(n - 1, n, rows))


def cyclic_repetition_check(length: int) -> BinaryMatrix:
    """Full circulant of the 1+x check; all `length` rows kept (redundant).

    Degenerates to the 1x1 zero matrix at length 1 (the two taps coincide).
    """
    if length < 1:
        raise ValueError("need length >= 1")
    rows = [(1 << i) ^ (1 << ((i + 1) % length)) for i in range(length)]
    return BinaryMatrix(length, length, rows)


def hamming_7_4() -> ClassicalCode:
    """The [7, 4, 3] Hamming code; columns are 1..7 in binary."""
    rows = []
    for bit in range(3):
        word = 0
        for col in range(7):
            if ((col + 1) >> bit) & 1:
                word |= 1 << col
        rows.append(word)
    return ClassicalCode(BinaryMatrix(3, 7, rows))
