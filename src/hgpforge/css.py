"""CSS codes assembled from product complexes.

Qubits live on level l of a product complex.  X checks are the rows of the
boundary map out of level l (stars of (l-1)-cells) and Z checks are the
rows of the transposed boundary into level l (boundaries of (l+1)-cells),
so Hx @ Hz^T = 0 is the dd = 0 identity.  With this orientation the
canonical X logical representatives spread along the degree-zero
directions of a sector (an r = t - l dimensional hyperplane) and the Z
representatives along the degree-one directions (l-dimensional).

A code with a complex holds that complex's own maps: `CssCode` refuses
any other Hx and Hz beside a complex.  Hand-built CSS codes (explicit Hx,
Hz, no complex) are also supported; they simply lack the product structure
needed for canonical bases.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple, Optional, Sequence

from . import classical, f2la, product
from ._record import SlotRecord
from .f2la import BinaryMatrix, RowSpace
from .product import Hyperplane, ProductComplex

_DISTANCE_BUDGET = 1 << 22
MAX_CHECK_BITS = 1 << 31
_WORD_BITS = 64


# -- Pauli algebra -----------------------------------------------------------


class PauliOperator(SlotRecord):
    """Symplectic (x, z, sign) representation of an n-qubit Pauli.

    ``x`` and ``z`` are packed support words.  Only signs +-1 are tracked;
    every circuit handled here is CSS-diagonal or Pauli, so i-phases never
    arise.
    """

    __slots__ = ("n", "x", "z", "sign")

    def __init__(self, n: int, x: int = 0, z: int = 0, sign: int = 1):
        if x < 0 or z < 0 or (x | z) >> n:
            raise ValueError("Pauli support exceeds qubit count")
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "sign", sign)

    @property
    def support(self) -> frozenset[int]:
        return frozenset(f2la.indices_of(self.x | self.z))

    @property
    def weight(self) -> int:
        return (self.x | self.z).bit_count()


def symplectic_product(p: PauliOperator, q: PauliOperator) -> int:
    """<x_p, z_q> + <z_p, x_q> mod 2; 1 iff the Paulis anticommute."""
    if p.n != q.n:
        raise ValueError("length mismatch")
    return ((p.x & q.z).bit_count() + (p.z & q.x).bit_count()) & 1


def pauli_mul(p: PauliOperator, q: PauliOperator) -> PauliOperator:
    """Product in the X-then-Z ordering convention."""
    if p.n != q.n:
        raise ValueError("length mismatch")
    sign = p.sign * q.sign
    if (p.z & q.x).bit_count() & 1:
        sign = -sign
    return PauliOperator(p.n, p.x ^ q.x, p.z ^ q.z, sign)


def group_commutator_pauli(p: PauliOperator, q: PauliOperator) -> int:
    """Scalar of P Q P^dagger Q^dagger for Paulis: (-1)^<P,Q>."""
    return -1 if symplectic_product(p, q) else 1


# -- logical representatives -------------------------------------------------


class LogicalRep(NamedTuple):
    """A logical representative with its construction provenance.

    ``factors`` holds one packed vector per direction whose tensor product
    is the representative; canonical representatives keep the hyperplane
    data (fixed_dirs / fixed_values), deformed ones set fixed_values to
    None because their support is no longer a single hyperplane.
    """

    pauli: PauliOperator
    kind: str  # "X" or "Z"
    sector: int
    fixed_dirs: tuple[int, ...]
    fixed_values: Optional[tuple[int, ...]]
    factors: tuple[int, ...]

    def hyperplane(self, level: int) -> Hyperplane:
        if self.fixed_values is None:
            raise ValueError("representative is not supported on a single hyperplane")
        return Hyperplane(level, self.sector, self.fixed_dirs, self.fixed_values)


class LogicalBasis(NamedTuple):
    x_reps: list[LogicalRep]
    z_reps: list[LogicalRep]
    pairing: BinaryMatrix

    @property
    def k(self) -> int:
        return len(self.x_reps)


class KunnethParameters(NamedTuple):
    n: int
    k: int
    d_x: Optional[int]
    d_z: Optional[int]

    @property
    def d(self) -> Optional[int]:
        if self.d_x is None or self.d_z is None:
            return None
        return min(self.d_x, self.d_z)


class CssCode:
    """Stabilizer data for a CSS code, with optional product provenance.

    Hx and Hz are each eliminated once, on construction: `hx_space` and
    `hz_space` are their row spaces, `rank_hx` and `rank_hz` the ranks, and
    `hx_basis_rows` the indices of the Hx rows that extend the span of the
    rows before them, in row order.

    A code with a complex holds that complex's own maps: `complex` and
    `level` come together, 1 <= level <= t - 1, and Hx and Hz must equal
    `complex.boundary(level)` and `complex.transposed_boundary(level + 1)`.
    Then boundary(level + 1) is built here if it is not yet, and the CSS
    condition Hx Hz^T = 0 is the dd = 0 that `ProductComplex` asserts when
    the second of the two maps is built; no product is formed.  A code
    without a complex has its Hx Hz^T multiplied here.
    """

    def __init__(
        self,
        hx: BinaryMatrix,
        hz: BinaryMatrix,
        complex: Optional[ProductComplex] = None,
        level: Optional[int] = None,
    ):
        if hx.cols != hz.cols:
            raise ValueError("Hx and Hz qubit counts differ")
        if (complex is None) != (level is None):
            raise ValueError("complex and level must be given together")
        if complex is None:
            if not f2la.matmul(hx, f2la.transpose(hz)).is_zero():
                raise ValueError("Hx @ Hz^T != 0: not a CSS pair")
        else:
            _check_level(complex, level)
            if hx != complex.boundary(level) or hz != complex.transposed_boundary(level + 1):
                raise ValueError(f"Hx and Hz are not the complex's maps at level {level}")
            complex.boundary(level + 1)
        self.hx = hx
        self.hz = hz
        self.n = hx.cols
        self.complex = complex
        self.level = level
        self.hx_space = RowSpace(cols=self.n)
        self.hx_basis_rows = [r for r, row in enumerate(hx.bits) if self.hx_space.extend(row)]
        self.hz_space = RowSpace(hz)
        self.rank_hx = self.hx_space.rank
        self.rank_hz = self.hz_space.rank
        self.k = self.n - self.rank_hx - self.rank_hz
        if self.k < 0:
            raise AssertionError("negative logical count; checks are inconsistent")
        self.stabilizer_weight = max(map(int.bit_count, hx.bits + hz.bits), default=0)
        self.logicals: Optional[LogicalBasis] = None
        self._x_domain: Optional[list[int]] = None
        # diagonal._images per copy count, each with the `logicals` it read
        self._images: dict[int, tuple] = {}
        # diagonal._pullback's last (f, copies, logicals, result)
        self._last_pullback: Optional[tuple] = None

    def __repr__(self) -> str:
        return f"CssCode[[{self.n},{self.k}]]"

    def x_domain_basis(self) -> list[int]:
        """A basis of ker Hz, one vector per free column."""
        if self._x_domain is None:
            self._x_domain = f2la.kernel_basis(self.hz_space).bits
        return self._x_domain

    def set_logical_basis(self, x_reps: Sequence[PauliOperator], z_reps: Sequence[PauliOperator]):
        """Install a hand-made logical basis (for non-product codes).

        Validates kernel membership, coset non-membership, and that the
        symplectic pairing is the identity.
        """
        if len(x_reps) != self.k or len(z_reps) != self.k:
            raise ValueError(f"expected {self.k} representatives per type")
        wrapped_x, wrapped_z = (
            [LogicalRep(op, kind, -1, (), None, ()) for op in ops]
            for kind, ops in (("X", x_reps), ("Z", z_reps))
        )
        for rep in wrapped_x + wrapped_z:
            _check_logical(self, rep)
        pairing = _pairing_matrix(wrapped_x, wrapped_z)
        if pairing != BinaryMatrix.identity(self.k):
            raise ValueError("pairing of supplied basis is not the identity")
        self.logicals = LogicalBasis(wrapped_x, wrapped_z, pairing)


def _check_level(pc: ProductComplex, level: int) -> None:
    if not (1 <= level <= pc.t - 1):
        raise ValueError(f"level must be in [1, {pc.t - 1}] for t={pc.t}")


def _check_bits(pc: ProductComplex, level: int) -> None:
    """Raise ValueError if the level-l code and its seed codes would hold
    more than MAX_CHECK_BITS bits, counted from the sector dims and the seed
    shapes alone.  Hx and Hz hold n (r_x + r_z) bits, each row charged at
    least one word of _WORD_BITS, so a code without qubits still pays for
    its empty rows.  Seed i's kernel and cokernel bases hold at most n_i^2
    and m_i^2 bits."""
    _check_level(pc, level)
    rows = pc.dim(level - 1) + pc.dim(level + 1)
    seeds = sum(fac.n * fac.n + fac.m * fac.m for fac in pc.factors)
    bits = max(pc.dim(level), _WORD_BITS) * rows + seeds
    if bits > MAX_CHECK_BITS:
        raise ValueError(
            f"Hx, Hz and the seed codes of the level-{level} code hold {bits} bits,"
            f" above the cap of {MAX_CHECK_BITS}"
        )


def _check_logical(code: CssCode, rep: LogicalRep):
    """Raise unless the representative's own part v (its X part for kind X,
    its Z part for kind Z) is in ker Hz (X) or ker Hx (Z) and outside the
    stabilizer row space.  On a product code Hz is the transpose of the
    complex's boundary(level + 1), so Hz v is the XOR of that map's rows on
    supp(v): weight(v) XORs instead of a parity per Hz row."""
    if rep.kind == "X":
        v, name, space = rep.pauli.x, "Hz", code.hx_space
        if code.complex is None:
            syndrome = f2la.mat_vec(code.hz, v)
        else:
            syndrome = f2la.row_combination(code.complex.boundary(code.level + 1), v)
    else:
        v, name, space = rep.pauli.z, "Hx", code.hz_space
        syndrome = f2la.mat_vec(code.hx, v)
    if syndrome:
        raise ValueError(f"{rep.kind} representative is not in ker {name}")
    if space.contains(v):
        raise ValueError(f"{rep.kind} representative lies in the stabilizer row space")


def _pauli(n: int, kind: str, bits: int) -> PauliOperator:
    """The X-type (kind "X") or Z-type Pauli on the support word `bits`."""
    return PauliOperator(n, x=bits) if kind == "X" else PauliOperator(n, z=bits)


def _sector_seeds(pc: ProductComplex, J: Sequence[int]) -> list[classical.ClassicalCode]:
    """Per direction d of sector J, the seed code whose kernel the sector's
    logicals range over: ker A_d (`code`) for d in J, ker A_d^T (`code_t`)
    for d off J.  X representatives put a unit on an information position
    of the seed on J and a seed codeword off J; Z representatives the
    reverse, so they spread along J and X along its complement."""
    return [fac.code if d in J else fac.code_t for d, fac in enumerate(pc.factors)]


def assemble_css(pc: ProductComplex, level: int) -> CssCode:
    """CSS code on level `level` of the product, 1 <= level <= t-1.

    Passes boundary(level) and transposed_boundary(level + 1) to `CssCode`,
    which builds boundary(level + 1) and so asserts their dd = 0, the
    code's Hx Hz^T = 0.  Refused by `_check_bits` before any map is built."""
    _check_bits(pc, level)
    return CssCode(
        pc.boundary(level), pc.transposed_boundary(level + 1), complex=pc, level=level
    )


def kunneth_parameters(pc: ProductComplex, level: int) -> KunnethParameters:
    """Closed-form parameters of the level-l code from the seed data.

    Each sector J holds the product over its seed codes (`_sector_seeds`) of
    their dimensions.  Distances take minima over the sectors that hold at
    least one logical class: Z representatives spread seed codewords along
    J, so d_z multiplies the seed distances on J, and X representatives
    spread them along the complement, so d_x multiplies the rest.  Refused
    by `_check_bits` before any seed code is built.
    """
    _check_bits(pc, level)
    k, d_x, d_z = 0, [], []
    for sec in pc.tables[level].sectors:
        seeds = _sector_seeds(pc, sec.J)
        sector_k = math.prod(seed.k for seed in seeds)
        if sector_k:
            k += sector_k
            d_z.append(math.prod(seeds[d].d for d in sec.J))
            d_x.append(math.prod(seed.d for d, seed in enumerate(seeds) if d not in sec.J))
    return KunnethParameters(pc.dim(level), k, min(d_x, default=None), min(d_z, default=None))


# -- brute-force distance ----------------------------------------------------


class DistanceResult(NamedTuple):
    d_x: int
    d_z: int

    @property
    def d(self) -> int:
        return min(self.d_x, self.d_z)


def brute_distance(
    code: CssCode,
    max_weight: Optional[int] = None,
    budget: int = _DISTANCE_BUDGET,
) -> DistanceResult:
    """Exact minimum logical weights, one `_walk_logical_weight` cluster walk
    each.

    d_z is the lightest word of ker Hx outside the Z-stabilizer row space
    (d_x symmetric).  Each walk stops after `budget` nodes visited past
    weight limit W (W = `max_weight`, or 0 without it), and a walk cut there
    raises a budget error.  A `max_weight` W >= 1 bounds d: every word of
    weight <= W is examined, and "no logical operator of weight <= W found"
    needs every type proven heavier than W (a cut-off type beside one of
    weight <= W raises a budget error).  The nodes of the limits up to W,
    at most `_node_bound` for the largest check weight r, are refused
    before any walk when they may exceed `_DISTANCE_BUDGET`.  On a product
    code the walks take the checks' transposes from the complex: Hx^T is
    `transposed_boundary(level)` and Hz^T is `boundary(level + 1)`.
    """
    if code.k == 0:
        raise ValueError("no logical operators")
    if max_weight is not None:
        need = _node_bound(code.n, code.stabilizer_weight, max_weight)
        if need > _DISTANCE_BUDGET:
            raise ValueError(
                f"max_weight {max_weight} needs up to {need} nodes,"
                f" above the cap of {_DISTANCE_BUDGET}"
            )
    hx_t = hz_t = None
    if code.complex is not None:
        hx_t = code.complex.transposed_boundary(code.level)
        hz_t = code.complex.boundary(code.level + 1)
    d_z, _ = _walk_logical_weight(code.hx, code.hz_space, max_weight, budget, hx_t)
    d_x, _ = _walk_logical_weight(code.hz, code.hx_space, max_weight, budget, hz_t)
    if max_weight is not None and all(d is None or d > max_weight for d in (d_x, d_z)):
        raise ValueError(f"no logical operator of weight <= {max_weight} found")
    if d_x is None or d_z is None:
        past = "" if max_weight is None else f" past weight {max_weight}"
        raise ValueError(f"distance search exceeded budget {budget}{past}")
    return DistanceResult(d_x=d_x, d_z=d_z)


def _node_bound(n: int, r: int, max_weight: int) -> int:
    """Most nodes `_walk_logical_weight` visits at limits 1..max_weight on n
    qubits with checks of weight <= r.

    A limit-w walk has n seeds, and a node below size w has at most r - 1
    children, so it visits at most n (1 + (r-1) + ... + (r-1)^(w-1)) nodes.
    No limit passes n, and the sum stops at the first limit that takes it
    past `_DISTANCE_BUDGET`.
    """
    need, per_limit, level = 0, 0, n
    for _ in range(min(max_weight, n)):
        per_limit += level
        need += per_limit
        if need > _DISTANCE_BUDGET:
            break
        level *= max(r - 1, 0)
    return need


def _walk_logical_weight(
    checks: BinaryMatrix,
    stab_space: RowSpace,
    max_weight: Optional[int],
    budget: int,
    checks_t: Optional[BinaryMatrix] = None,
) -> tuple[Optional[int], int]:
    """(lightest weight in ker checks outside stab_space, nodes visited), by
    the cluster walk of Dumer, Kovalev and Pryadko (IEEE Trans. Inf. Theory
    63, 2017); the weight is None when `budget` nodes visited at limits past
    max_weight (0 without it) cut the walk, which proves it above max_weight.

    The caller ensures some logical exists.  For each weight limit
    w = 1, 2, ..., a depth-first search grows a word from each seed qubit q,
    adding only qubits above q that sit in the lowest check the word leaves
    unsatisfied, and at the last step only a qubit whose column is that
    syndrome.  A zero-syndrome word below w is a stabilizer (a lighter
    logical ended an earlier limit) and is pruned; one of weight w outside
    stab_space ends the walk.  This is exact: no proper subset of a
    minimum-weight logical v lies in ker checks (a stabilizer subset would
    leave a lighter logical, a logical subset is one), so every unsatisfied
    check on a part of v meets the rest of v, and the search from v's lowest
    qubit reaches v.  The checks are read as given, not reduced: their rows
    are sparse, so a node has at most (row weight - 1) children.  Each
    qubit's syndrome is its column of the checks, a row of `checks_t` when
    the caller holds the transpose already (a product code's complex does)
    and of `f2la.transpose(checks)` otherwise.
    """
    if max_weight is not None and max_weight < 1:
        raise ValueError("max_weight must be >= 1")
    n = checks.cols
    rows = [f2la.indices_of(word) for word in checks.bits]
    syndromes = (f2la.transpose(checks) if checks_t is None else checks_t).bits
    ends: dict[int, list[int]] = {}  # syndrome -> the qubits with that column
    for q, syndrome in enumerate(syndromes):
        ends.setdefault(syndrome, []).append(q)
    nodes, stop = 0, math.inf
    for limit in range(1, n + 1):
        if limit == (max_weight or 0) + 1:
            stop = nodes + budget
        for seed in range(n):
            stack = [(1 << seed, syndromes[seed], 1)]
            while stack:
                word, syndrome, size = stack.pop()
                nodes += 1
                if nodes > stop:
                    return None, nodes
                if size == limit:
                    if syndrome == 0 and not stab_space.contains(word):
                        return limit, nodes
                elif syndrome == 0:
                    continue
                elif size == limit - 1:
                    for j in ends.get(syndrome, ()):
                        if j > seed and not word >> j & 1:
                            stack.append((word | 1 << j, 0, limit))
                else:
                    for j in rows[(syndrome & -syndrome).bit_length() - 1]:
                        if j > seed and not word >> j & 1:
                            stack.append((word | 1 << j, syndrome ^ syndromes[j], size + 1))
    raise AssertionError("no logical operator found; the walk needs one to exist")


# -- canonical logical basis -------------------------------------------------


def canonical_logical_basis(code: CssCode) -> LogicalBasis:
    """Tensor-product logical basis from the seed standard forms.

    Within each sector J, each direction's seed code (`_sector_seeds`: ker
    A_d on J, ker A_d^T off J) offers, per information position p, the unit
    at p and the reduced codeword with its pivot at p.  X representatives
    take the unit on J and the codeword off J; Z representatives the
    reverse.  Each index tuple gives one X and one Z representative, so the
    symplectic pairing is exactly the identity, with no permutation.
    """
    if code.complex is None:
        raise ValueError("no product structure")
    if code.logicals is not None:
        return code.logicals
    pc = code.complex
    level = code.level
    x_reps: list[LogicalRep] = []
    z_reps: list[LogicalRep] = []
    for mu, sec in enumerate(pc.tables[level].sectors):
        off = tuple(d for d in range(pc.t) if d not in sec.J)
        # per direction, per information position p of its seed code and the
        # codeword w with its pivot there: (X factor, Z factor, p)
        options = []
        for d, seed in enumerate(_sector_seeds(pc, sec.J)):
            pairs = zip(seed.g_pivots, seed.g.bits)
            options.append([(1 << p, w, p) if d in sec.J else (w, 1 << p, p) for p, w in pairs])
        for picks in itertools.product(*options):
            x_factors, z_factors, pivots = zip(*picks)
            for kind, dirs, factors, reps in (
                ("X", sec.J, x_factors, x_reps),
                ("Z", off, z_factors, z_reps),
            ):
                pauli = _pauli(code.n, kind, product.tensor_word(pc, level, mu, factors))
                fixed = tuple(pivots[d] for d in dirs)
                reps.append(LogicalRep(pauli, kind, mu, dirs, fixed, factors))
    if len(x_reps) != code.k:
        raise AssertionError(
            f"canonical basis size {len(x_reps)} != k={code.k}"
        )
    for rep in x_reps + z_reps:
        _check_logical(code, rep)
    basis = LogicalBasis(x_reps, z_reps, _pairing_matrix(x_reps, z_reps))
    code.logicals = basis
    return basis


def _pairing_matrix(x_reps: Sequence[LogicalRep], z_reps: Sequence[LogicalRep]) -> BinaryMatrix:
    """Entry (i, j) is the symplectic product of x_reps[i] and z_reps[j]."""
    zs = [(zr.pauli.x, zr.pauli.z) for zr in z_reps]
    rows = []
    for xr in x_reps:
        px, pz = xr.pauli.x, xr.pauli.z
        word = 0
        for j, (qx, qz) in enumerate(zs):
            if ((px & qz).bit_count() + (pz & qx).bit_count()) & 1:
                word |= 1 << j
        rows.append(word)
    return BinaryMatrix(len(x_reps), len(x_reps), rows)


# -- representative deformation ----------------------------------------------


def alternative_representative(
    code: CssCode, rep: LogicalRep, avoid: Sequence[Hyperplane]
) -> LogicalRep:
    """Equivalent representative whose support dodges the avoid hyperplanes.

    The avoid list must hold hyperplanes in the representative's sector
    with its orientation.  Each fixed direction is cleaned independently:
    the unit factor is deformed by a parity-check row-space element that
    reproduces it on the forbidden coordinate values, which translates the
    matching stabilizers along the representative's free directions.  The
    solve succeeds whenever the per-direction forbidden sets stay within
    the classical cleaning bound.
    """
    if code.complex is None:
        raise ValueError("no product structure")
    pc = code.complex
    if rep.fixed_values is None:
        raise ValueError("representative must be canonical (single hyperplane)")
    for h in avoid:
        if h.sector != rep.sector or h.level != code.level:
            raise ValueError("avoid hyperplane in a different sector")
        if tuple(h.fixed_dirs) != rep.fixed_dirs:
            raise ValueError("avoid hyperplane has a different orientation")
    avoid_word = 0
    for h in avoid:
        avoid_word |= product._hyperplane_word(pc, h)
    if not (rep.pauli.x | rep.pauli.z) & avoid_word:
        return rep
    seeds = _sector_seeds(pc, pc.tables[code.level][rep.sector].J)
    new_factors = list(rep.factors)
    for pos, d in enumerate(rep.fixed_dirs):
        gamma = f2la.vector_from_indices({h.fixed_values[pos] for h in avoid})
        unit = rep.factors[d]
        # Clean the unit factor off gamma with a row of the seed code's
        # checks: A_d for X (X-stabilizer translates), A_d^T for Z.
        h_elem = classical.clean_with_target(seeds[d].h, gamma, unit)
        if h_elem is None:
            raise ValueError(
                f"cleaning infeasible in direction {d}: no row-space element "
                f"matches the representative on coordinates {f2la.indices_of(gamma)}"
            )
        new = unit ^ h_elem
        if new & gamma:
            raise AssertionError("cleaned factor still meets a forbidden value")
        new_factors[d] = new
    bits = product.tensor_word(pc, code.level, rep.sector, new_factors)
    old, space = (rep.pauli.x, code.hx_space) if rep.kind == "X" else (rep.pauli.z, code.hz_space)
    if not space.contains(bits ^ old):
        raise AssertionError("deformation left the stabilizer coset")
    if bits & avoid_word:
        raise AssertionError("deformed representative still meets an avoid hyperplane")
    pauli = _pauli(code.n, rep.kind, bits)
    return rep._replace(pauli=pauli, fixed_values=None, factors=tuple(new_factors))
