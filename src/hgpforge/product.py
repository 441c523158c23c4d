"""Homological products of 1-complexes over GF(2).

A t-dimensional product complex is built from t seed maps
A_i : F_2^{n_i} -> F_2^{m_i}.  The level-l space splits into sectors, one
per size-l subset J of the t directions; direction i of a sector has size
n_i when i is in J and m_i otherwise.  Boundary maps follow the graded
Leibniz rule (signs vanish in characteristic 2) and satisfy dd = 0 by
construction.  Each map is built on first use, and dd = 0 is asserted for
each pair of adjacent maps, when the second is built.

Sectors are listed in lexicographic order of their (sorted, 0-based) index
subsets, and every flat qubit index is row-major mixed radix within its
sector plus the sector offset.  This single convention is shared by the
file formats and by every downstream module.
"""

from __future__ import annotations

import itertools
import math
import operator
from functools import cached_property
from typing import Iterable, NamedTuple, Optional, Sequence

from . import classical, f2la
from ._record import SlotRecord
from .classical import ClassicalCode
from .f2la import BinaryMatrix

MAX_DIMENSION = 6


class OneComplex:
    """A seed map A : F_2^n -> F_2^m with its kernel/cokernel data.

    ``code`` is the kernel of A viewed as a classical code (checks A) and
    ``code_t`` the kernel of A^T.  Each is built the first time it is read
    (by k, k_t, the distances or a canonical logical basis), so a product
    whose callers never look at the seeds eliminates none of them.  ``a_t``
    is A^T, built on first use: the transposed boundary blocks, ``code_t``
    and the Z-type cleaning in `css.alternative_representative` share it.
    """

    def __init__(self, a: BinaryMatrix):
        self.a = a
        self.n = a.cols
        self.m = a.rows

    @cached_property
    def code(self) -> ClassicalCode:
        return ClassicalCode(self.a)

    @cached_property
    def a_t(self) -> BinaryMatrix:
        return f2la.transpose(self.a)

    @cached_property
    def code_t(self) -> ClassicalCode:
        return ClassicalCode(self.a_t)

    @property
    def k(self) -> int:
        return self.code.k

    @property
    def k_t(self) -> int:
        return self.code_t.k

    @property
    def d(self) -> int:
        """Distance of ker A (requires k >= 1)."""
        return classical.distance(self.code)

    @property
    def d_t(self) -> int:
        """Distance of ker A^T (requires k_t >= 1)."""
        return classical.distance(self.code_t)

    def min_distance(self) -> Optional[int]:
        """min(d, d_t) over whichever kernels are nontrivial; None if both are."""
        vals = []
        if self.k:
            vals.append(self.d)
        if self.k_t:
            vals.append(self.d_t)
        return min(vals) if vals else None

    def __repr__(self) -> str:
        return f"OneComplex({self.m}x{self.n}, k={self.k}, k_t={self.k_t})"


class Sector(SlotRecord):
    """One direct summand of a level: index subset J, its shape and offset."""

    __slots__ = ("J", "shape", "offset")

    def __init__(self, J: tuple[int, ...], shape: tuple[int, ...], offset: int):
        object.__setattr__(self, "J", J)
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "offset", offset)

    @property
    def size(self) -> int:
        return math.prod(self.shape)

    def strides(self) -> tuple[int, ...]:
        out = [1] * len(self.shape)
        for i in range(len(self.shape) - 2, -1, -1):
            out[i] = out[i + 1] * self.shape[i + 1]
        return tuple(out)

    def coords(self, rem: int) -> tuple[int, ...]:
        """Mixed-radix digits of a position inside the sector."""
        out = []
        for stride in self.strides():
            digit, rem = divmod(rem, stride)
            out.append(digit)
        return tuple(out)


class SectorTable:
    """Ordered sectors of one level, with subset -> index lookup."""

    def __init__(self, sectors: Sequence[Sector]):
        self.sectors = tuple(sectors)
        self._by_subset = {s.J: i for i, s in enumerate(self.sectors)}

    def __len__(self) -> int:
        return len(self.sectors)

    def __getitem__(self, mu: int) -> Sector:
        return self.sectors[mu]

    def index_of(self, J: Iterable[int]) -> int:
        return self._by_subset[tuple(sorted(J))]

    @property
    def dim(self) -> int:
        return sum(s.size for s in self.sectors)


class Hyperplane(SlotRecord):
    """Affine sub-grid of a sector: coordinates on fixed_dirs pinned to
    fixed_values, free on the remaining directions."""

    __slots__ = ("level", "sector", "fixed_dirs", "fixed_values")

    def __init__(
        self, level: int, sector: int, fixed_dirs: tuple[int, ...], fixed_values: tuple[int, ...]
    ):
        if len(fixed_dirs) != len(fixed_values):
            raise ValueError("fixed_dirs and fixed_values lengths differ")
        if list(fixed_dirs) != sorted(set(fixed_dirs)):
            raise ValueError("fixed_dirs must be strictly increasing")
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "sector", sector)
        object.__setattr__(self, "fixed_dirs", fixed_dirs)
        object.__setattr__(self, "fixed_values", fixed_values)


class Hypertube(NamedTuple):
    """Per-direction thick/thin classification of a vector in one sector.

    A direction is thick when the vector's block support there reaches the
    direction's threshold (by default min(d_i, d_i^T) of the seed).  The
    tube's dimension is the number of thick directions.
    """

    sector: int
    thin_dirs: tuple[int, ...]
    thresholds: tuple[int, ...]
    block_weights: tuple[int, ...]

    @property
    def thick_dirs(self) -> tuple[int, ...]:
        thin = set(self.thin_dirs)
        return tuple(i for i in range(len(self.thresholds)) if i not in thin)

    @property
    def dimension(self) -> int:
        return len(self.thresholds) - len(self.thin_dirs)


class ProductComplex:
    """The full t-dimensional product: sector tables and boundary maps.

    The sector tables are laid out on construction.  Each boundary map, and
    each transpose, is built the first time it is read, so a level-l code
    builds boundary(l) and boundary(l + 1) and no other.  dd = 0 is asserted
    for each pair of adjacent maps, when the second is built.
    """

    def __init__(self, factors: Sequence[OneComplex]):
        if not (1 <= len(factors) <= MAX_DIMENSION):
            raise ValueError(f"need between 1 and {MAX_DIMENSION} factors")
        self.factors = tuple(factors)
        self.t = len(factors)
        self.tables: list[SectorTable] = []
        for level in range(self.t + 1):
            sectors = []
            offset = 0
            for J in itertools.combinations(range(self.t), level):
                shape = tuple(
                    factors[i].n if i in J else factors[i].m for i in range(self.t)
                )
                sec = Sector(J, shape, offset)
                sectors.append(sec)
                offset += sec.size
            self.tables.append(SectorTable(sectors))
        self._boundaries: dict[int, BinaryMatrix] = {}
        self._transposed: dict[int, BinaryMatrix] = {}

    def dim(self, level: int) -> int:
        return self.tables[level].dim

    def boundary(self, level: int) -> BinaryMatrix:
        """The map from level to level-1, as a dim(level-1) x dim(level) matrix,
        built on first use and kept.  Building it asserts dd = 0 with each
        adjacent map already built."""
        d = self._boundaries.get(level)
        if d is None:
            d = self._build_boundary(level)
            below = self._boundaries.get(level - 1)
            if below is not None:
                _assert_composes_to_zero(below, d, level)
            above = self._boundaries.get(level + 1)
            if above is not None:
                _assert_composes_to_zero(d, above, level + 1)
            self._boundaries[level] = d
        return d

    def transposed_boundary(self, level: int) -> BinaryMatrix:
        """boundary(level) transposed, built on first use and kept."""
        if level not in self._transposed:
            self._transposed[level] = self._build_boundary(level, transposed=True)
        return self._transposed[level]

    def _build_boundary(self, level: int, transposed: bool = False) -> BinaryMatrix:
        """boundary(level), or its transpose, block by block.

        The block from sector J to J minus {j} is I_p (x) A_j (x) I_q, with p
        and q the sizes of the sector's directions before and after j
        multiplied out: one kron(A_j, I_q) (A_j itself when q = 1), placed p
        times down a diagonal.  It spans every row of its target sector; in
        the transpose the block I_p (x) A_j^T (x) I_q spans every row of
        sector J.  So each row sector's rows are the XOR of its blocks' rows,
        and the map is those rows, sector after sector.  A level outside
        1..t raises KeyError.
        """
        if not 1 <= level <= self.t:
            raise KeyError(level)
        src, dst = self.tables[level], self.tables[level - 1]
        rows: list[Optional[list[int]]] = [None] * len(src if transposed else dst)
        for s, sec in enumerate(src.sectors):
            for j in sec.J:
                mu = dst.index_of(tuple(d for d in sec.J if d != j))
                p, q = math.prod(sec.shape[:j]), math.prod(sec.shape[j + 1 :])
                a = self.factors[j].a_t if transposed else self.factors[j].a
                block = a if q == 1 else f2la.kron(a, BinaryMatrix.identity(q))
                r, col = (s, dst[mu].offset) if transposed else (mu, sec.offset)
                shifts = [col + u * block.cols for u in range(p)]
                placed = [word << shift for shift in shifts for word in block.bits]
                rows[r] = placed if rows[r] is None else list(map(operator.xor, rows[r], placed))
        out = [word for sector_rows in rows for word in sector_rows]
        return BinaryMatrix(len(out), (dst if transposed else src).dim, out)

    def __repr__(self) -> str:
        dims = ", ".join(str(self.dim(level)) for level in range(self.t + 1))
        return f"ProductComplex(t={self.t}, dims=[{dims}])"


def _assert_composes_to_zero(low: BinaryMatrix, high: BinaryMatrix, level: int) -> None:
    """dd = 0 for boundary(level - 1) = low and boundary(level) = high."""
    if not f2la.matmul(low, high).is_zero():
        raise AssertionError(f"boundary composition at level {level} is nonzero")


def build_product(factors: Sequence[OneComplex | BinaryMatrix]) -> ProductComplex:
    """Assemble the product complex; accepts raw seed matrices for convenience.

    Equal seed matrices share one OneComplex, so a seed repeated across
    directions (every toric code) is eliminated once."""
    shared: dict[BinaryMatrix, OneComplex] = {}
    wrapped = [
        f if isinstance(f, OneComplex) else shared.setdefault(f, OneComplex(f)) for f in factors
    ]
    return ProductComplex(wrapped)


# -- coordinates -------------------------------------------------------------


def flat_index(pc: ProductComplex, level: int, mu: int, coords: Sequence[int]) -> int:
    """Flat index of a coordinate tuple in sector mu at the given level."""
    sec = pc.tables[level][mu]
    if len(coords) != pc.t:
        raise ValueError(f"expected {pc.t} coordinates")
    idx = sec.offset
    for c, size, stride in zip(coords, sec.shape, sec.strides()):
        if not (0 <= c < size):
            raise ValueError(f"coordinate {c} out of range for size {size}")
        idx += c * stride
    return idx


def coords_of(pc: ProductComplex, level: int, index: int) -> tuple[int, tuple[int, ...]]:
    """Inverse of flat_index: (sector, per-direction coordinates)."""
    table = pc.tables[level]
    if not (0 <= index < table.dim):
        raise ValueError("flat index out of range")
    for mu, sec in enumerate(table.sectors):
        if index < sec.offset + sec.size:
            return mu, sec.coords(index - sec.offset)
    raise AssertionError("unreachable: offsets do not cover the level")


def tensor_word(pc: ProductComplex, level: int, mu: int, factors: Sequence[int]) -> int:
    """The word of the tensor product of one factor word per direction in
    sector mu.  Built from the last direction up: the word so far fills one
    stride of direction d, so one multiply by factor d's word spread to one
    bit per stride places a copy at each of its coordinates, with no carry."""
    sec = pc.tables[level][mu]
    bits, stride = 1, 1
    for word, size in zip(reversed(factors), reversed(sec.shape), strict=True):
        if word >> size:
            raise ValueError(f"coordinate {word.bit_length() - 1} out of range for size {size}")
        spread = 0
        for c in f2la.indices_of(word):
            spread |= 1 << (c * stride)
        bits *= spread
        stride *= size
    return bits << sec.offset


def hyperplane_support(pc: ProductComplex, h: Hyperplane) -> frozenset[int]:
    """All flat indices whose fixed-direction coordinates match h."""
    return frozenset(f2la.indices_of(_hyperplane_word(pc, h)))


def _hyperplane_word(pc: ProductComplex, h: Hyperplane) -> int:
    """The word of h: the tensor word of a unit at each fixed value and all
    ones on each free direction."""
    sec = pc.tables[h.level][h.sector]
    fixed = dict(zip(h.fixed_dirs, h.fixed_values))
    for d, v in fixed.items():
        if not (0 <= d < pc.t):
            raise ValueError(f"direction {d} out of range")
        if not (0 <= v < sec.shape[d]):
            raise ValueError(f"fixed value {v} out of range in direction {d}")
    factors = [
        1 << fixed[d] if d in fixed else (1 << size) - 1 for d, size in enumerate(sec.shape)
    ]
    return tensor_word(pc, h.level, h.sector, factors)


def intersect_hyperplanes(h1: Hyperplane, h2: Hyperplane) -> Optional[Hyperplane]:
    """Merge fixed coordinates; None when a shared direction disagrees."""
    if h1.level != h2.level or h1.sector != h2.sector:
        raise ValueError("disjoint sectors")
    merged = dict(zip(h1.fixed_dirs, h1.fixed_values))
    for d, v in zip(h2.fixed_dirs, h2.fixed_values):
        if d in merged and merged[d] != v:
            return None
        merged[d] = v
    dirs = tuple(sorted(merged))
    return Hyperplane(h1.level, h1.sector, dirs, tuple(merged[d] for d in dirs))


def sector_support_coords(
    pc: ProductComplex, level: int, v: int, mu: int
) -> list[tuple[int, ...]]:
    """Coordinates of the support of v restricted to sector mu."""
    sec = pc.tables[level][mu]
    word = (v >> sec.offset) & ((1 << sec.size) - 1)
    return [sec.coords(rem) for rem in f2la.indices_of(word)]


def block_hamming_weight(
    pc: ProductComplex, level: int, v: int, mu: int, dirs: Iterable[int]
) -> int:
    """Number of distinct fixed-value assignments on `dirs` meeting supp(v).

    Counts the hyperplanes of orientation `dirs` in sector mu that carry a
    nontrivial part of v.
    """
    dirs = tuple(sorted(set(dirs)))
    if any(d < 0 or d >= pc.t for d in dirs):
        raise ValueError("direction out of range")
    seen = {
        tuple(coords[d] for d in dirs)
        for coords in sector_support_coords(pc, level, v, mu)
    }
    return len(seen)


def default_hypertube_thresholds(pc: ProductComplex) -> tuple[int, ...]:
    """Per-direction thresholds min(d_i, d_i^T); errors on trivial seeds."""
    out = []
    for i, fac in enumerate(pc.factors):
        md = fac.min_distance()
        if md is None:
            raise ValueError(f"factor {i} has trivial kernels; supply thresholds")
        out.append(md)
    return tuple(out)


def classify_hypertube(
    pc: ProductComplex,
    level: int,
    v: int,
    mu: int,
    thresholds: Optional[Sequence[int]] = None,
) -> Hypertube:
    """Classify a sector-restricted vector as a hypertube.

    A direction is thick when the number of distinct coordinate values taken
    by supp(v) in that direction reaches the threshold.
    """
    if thresholds is None:
        thresholds = default_hypertube_thresholds(pc)
    if len(thresholds) != pc.t:
        raise ValueError(f"expected {pc.t} thresholds")
    weights = tuple(
        block_hamming_weight(pc, level, v, mu, (d,)) for d in range(pc.t)
    )
    thin = tuple(d for d in range(pc.t) if weights[d] < thresholds[d])
    return Hypertube(mu, thin, tuple(thresholds), weights)
