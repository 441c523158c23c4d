"""Test-local reference constructions.

Each is a slower, more literal way to build something the package builds
from the Kronecker structure of a product or from its one Künneth sector
rule.  The differential tests compare the package against them.
"""

import itertools

from hypothesis import strategies as st

from hgpforge import classical, correctability, css, diagonal, f2la, product
from hgpforge.f2la import BinaryMatrix


@st.composite
def seed_matrices(draw, min_size=0, max_size=3):
    """A random seed matrix, each side from min_size to max_size."""
    rows = draw(st.integers(min_size, max_size))
    cols = draw(st.integers(min_size, max_size))
    bits = draw(st.lists(st.integers(0, (1 << cols) - 1), min_size=rows, max_size=rows))
    return BinaryMatrix(rows, cols, bits)


def column_supports(rows, cols):
    """For each column i, the indices of the rows with a 1 in column i."""
    t = f2la.transpose(BinaryMatrix(len(rows), cols, rows))
    return [tuple(f2la.indices_of(word)) for word in t.bits]


def compose_blocks(rows, cols, placements):
    """Assemble a matrix from (row_offset, col_offset, block) placements."""
    out = [0] * rows
    for ro, co, block in placements:
        if ro < 0 or co < 0 or ro + block.rows > rows or co + block.cols > cols:
            raise ValueError("block placement out of range")
        for r in range(block.rows):
            out[ro + r] ^= block.bits[r] << co
    return BinaryMatrix(rows, cols, out)


def restrict(v, cols):
    """Packed vector whose bit j is bit cols[j] of v, read bit by bit."""
    out = 0
    for j, c in enumerate(cols):
        if (v >> c) & 1:
            out |= 1 << j
    return out


def lift(v, cols):
    """Inverse of restrict: bit j of v moves to bit cols[j]."""
    out = 0
    for j, c in enumerate(cols):
        if (v >> j) & 1:
            out |= 1 << c
    return out


def restrict_columns(m, cols):
    """The submatrix on the listed columns, in the listed order."""
    return BinaryMatrix(m.rows, len(cols), [restrict(word, cols) for word in m.bits])


def restricted_clean(h, cols, target):
    """Row-space element of h equal to target on the listed columns, or
    None: a solve on the columns copied out of h, target given on them."""
    y = f2la.solve(f2la.transpose(restrict_columns(h, cols)), restrict(target, cols))
    return None if y is None else f2la.row_combination(h, y)


def column_subset_witness(h_kernel, stab_space, cols):
    """Reference walk: the first v over column subsets of cols, by ascending
    weight and then lexicographic support, with h_kernel v = 0 outside the
    stabilizer row space."""
    n = h_kernel.cols
    syndromes = f2la.transpose(h_kernel).bits
    # The bits above n carry the syndrome of the low n bits.
    words = [(syndromes[c] << n) | (1 << c) for c in cols]
    for _, v in f2la.subset_xors(words):
        if v >> n == 0 and not stab_space.contains(v):
            return v
    return None


def reference_witness(h_kernel, stab_space, qubits):
    """The kernel scan decides whether a witness exists; up to
    _WITNESS_ENUM_MAX qubits the column-subset walk finds the lightest one,
    above it the first offending kernel basis row is the answer."""
    cols = sorted(qubits)
    inside = f2la.kernel_basis(restrict_columns(h_kernel, cols))
    lifted = (lift(v, cols) for v in inside.bits)
    offending = next((v for v in lifted if not stab_space.contains(v)), None)
    if offending is None or len(cols) > correctability._WITNESS_ENUM_MAX:
        return offending
    found = column_subset_witness(h_kernel, stab_space, cols)
    assert found is not None
    return found


def filtered_witness(h_kernel, stab_space, mask):
    """The witness read off the whole kernel basis of the masked checks,
    filtered to the rows that meet the mask (a free column outside it has a
    unit row outside the region): the first offending row above
    _WITNESS_ENUM_MAX qubits, else the lightest offending word of their span."""
    kernel = f2la.kernel_basis(f2la.mask_columns(h_kernel, mask))
    inside = [v for v in kernel.bits if v & mask]
    first = next((v for v in inside if not stab_space.contains(v)), None)
    if first is None or mask.bit_count() > correctability._WITNESS_ENUM_MAX:
        return first
    return f2la.lightest_word(inside, keep=lambda v: not stab_space.contains(v))[0]


def reference_verdict(code, qubits):
    found = [
        (v, kind)
        for v, kind in (
            (reference_witness(code.hz, code.hx_space, qubits), "X"),
            (reference_witness(code.hx, code.hz_space, qubits), "Z"),
        )
        if v is not None
    ]
    if not found:
        return True, None, None
    v, kind = min(found, key=lambda c: (c[0].bit_count(), f2la.indices_of(c[0])))
    return False, f2la.indices_of(v), kind


def kron_chain_boundary(pc, level):
    """boundary(level) with each block a kron chain over every direction:
    A_j on direction j and the identity of the sector's size elsewhere."""
    src, dst = pc.tables[level], pc.tables[level - 1]
    placements = []
    for sec in src.sectors:
        for j in sec.J:
            target = dst.sectors[dst.index_of(tuple(d for d in sec.J if d != j))]
            block = None
            for d in range(pc.t):
                piece = pc.factors[d].a if d == j else BinaryMatrix.identity(sec.shape[d])
                block = piece if block is None else f2la.kron(block, piece)
            placements.append((target.offset, sec.offset, block))
    return compose_blocks(dst.dim, src.dim, placements)


def flat_index_tensor_support(pc, level, mu, factors):
    """The tensor product of the factor words, one flat_index per point."""
    supports = [f2la.indices_of(w) for w in factors]
    bits = 0
    for coords in itertools.product(*supports):
        bits |= 1 << product.flat_index(pc, level, mu, coords)
    return bits


def flat_index_hyperplane_support(pc, h):
    """The flat indices of hyperplane h, one flat_index per point."""
    fixed = dict(zip(h.fixed_dirs, h.fixed_values))
    shape = pc.tables[h.level][h.sector].shape
    ranges = [[fixed[d]] if d in fixed else range(size) for d, size in enumerate(shape)]
    return frozenset(
        product.flat_index(pc, h.level, h.sector, coords) for coords in itertools.product(*ranges)
    )


def tuple_images(code, copies):
    """Per-qubit images of x = L a + G b per copy as tuples of variable
    indices, from the column supports of L and of the G rows, with the a
    count, the variable count and G's Hx row indices."""
    lead_rows, g_index = diagonal._coordinates(code)
    k, r = len(lead_rows), len(g_index)
    a_total = copies * k
    a_cols = column_supports(lead_rows, code.n)
    b_cols = column_supports([code.hx.bits[g] for g in g_index], code.n)
    images = tuple(
        tuple(c * k + j for j in a_cols[i]) + tuple(a_total + c * r + j for j in b_cols[i])
        for c in range(copies)
        for i in range(code.n)
    )
    return images, a_total, a_total + copies * r, g_index


def cnz_layer_gates(t, length, pc=None):
    """The toric C^(t-1)Z layer as (1, qubit tuple) gates, one per cell and
    ordering sigma, before any cancellation: copy i's qubit is the edge along
    sigma(i) leaving cell + e_S, S = sigma(0..i), read off a per-cell table of
    the positions of cell + e_S over all 2^t subsets S."""
    if pc is None:
        pc = product.build_product([classical.cyclic_repetition_check(length)] * t)
    n = pc.dim(1)
    table = pc.tables[1]
    sectors = [table[table.index_of((d,))] for d in range(t)]
    strides = sectors[0].strides()
    orders = [
        [
            (copy * n + sectors[d].offset, sum(1 << e for e in sigma[: copy + 1]))
            for copy, d in enumerate(sigma)
        ]
        for sigma in itertools.permutations(range(t))
    ]
    pos = [0] * (1 << t)
    gates = []
    for cell in itertools.product(range(length), repeat=t):
        step = [s if c + 1 < length else s * (1 - length) for c, s in zip(cell, strides)]
        pos[0] = sum(c * s for c, s in zip(cell, strides))
        for mask in range(1, 1 << t):
            low = mask & -mask
            pos[mask] = pos[mask ^ low] + step[low.bit_length() - 1]
        for order in orders:
            gates.append((1, tuple(base + pos[mask] for base, mask in order)))
    return gates


def renormalized(poly):
    """The terms the public constructor makes of poly's own terms."""
    return diagonal.PhasePolynomial(poly.nvars, poly.modulus_log2, dict(poly._terms))._terms


def sector_loop_kunneth(pc, level):
    """(n, k, d_x, d_z) of the level-l code, one subset J at a time: k from
    kernel dimensions on J and transpose-kernel dimensions off J, d_z from
    the kernel distances on J and d_x from the transpose-kernel distances
    off J, each a minimum over the sectors that hold a logical class."""
    k, d_x, d_z = 0, None, None
    for J in itertools.combinations(range(pc.t), level):
        sector_k = 1
        for i in range(pc.t):
            sector_k *= pc.factors[i].k if i in J else pc.factors[i].k_t
        if sector_k == 0:
            continue
        k += sector_k
        dz_term = 1
        for j in J:
            dz_term *= pc.factors[j].d
        dx_term = 1
        for i in range(pc.t):
            if i not in J:
                dx_term *= pc.factors[i].d_t
        d_z = dz_term if d_z is None else min(d_z, dz_term)
        d_x = dx_term if d_x is None else min(d_x, dx_term)
    return pc.dim(level), k, d_x, d_z


def two_list_canonical_reps(code):
    """The canonical X and Z representatives, X and Z written out apart: on
    each direction in J, X takes the unit on a pivot of ker A and Z the
    reduced codeword of ker A with that pivot; off J, X takes the codeword
    of ker A^T and Z the unit.  Supports come one flat_index per point."""
    pc, level = code.complex, code.level
    x_reps, z_reps = [], []
    for mu, sec in enumerate(pc.tables[level].sectors):
        inside = set(sec.J)
        ranges = [
            range(pc.factors[d].k if d in inside else pc.factors[d].k_t) for d in range(pc.t)
        ]
        for a in itertools.product(*ranges):
            x_factors, z_factors, x_fixed, z_fixed = [], [], [], []
            for d in range(pc.t):
                fac = pc.factors[d]
                if d in inside:
                    x_factors.append(1 << fac.code.g_pivots[a[d]])
                    x_fixed.append(fac.code.g_pivots[a[d]])
                    z_factors.append(fac.code.g.bits[a[d]])
                else:
                    x_factors.append(fac.code_t.g.bits[a[d]])
                    z_factors.append(1 << fac.code_t.g_pivots[a[d]])
                    z_fixed.append(fac.code_t.g_pivots[a[d]])
            xbits = flat_index_tensor_support(pc, level, mu, x_factors)
            zbits = flat_index_tensor_support(pc, level, mu, z_factors)
            comp = tuple(d for d in range(pc.t) if d not in inside)
            x_reps.append(
                css.LogicalRep(
                    css.PauliOperator(code.n, x=xbits), "X", mu, tuple(sec.J),
                    tuple(x_fixed), tuple(x_factors),
                )
            )
            z_reps.append(
                css.LogicalRep(
                    css.PauliOperator(code.n, z=zbits), "Z", mu, comp,
                    tuple(z_fixed), tuple(z_factors),
                )
            )
    return x_reps, z_reps


def kind_branch_alternative(code, rep, avoid):
    """`css.alternative_representative` with the cleaning matrix picked by
    kind (A for X, A^T for Z) and the X and Z tails written out apart."""
    pc = code.complex
    if rep.fixed_values is None:
        raise ValueError("representative must be canonical (single hyperplane)")
    for h in avoid:
        if h.sector != rep.sector or h.level != code.level:
            raise ValueError("avoid hyperplane in a different sector")
        if tuple(h.fixed_dirs) != rep.fixed_dirs:
            raise ValueError("avoid hyperplane has a different orientation")
    rep_support = rep.pauli.x | rep.pauli.z
    if not any(rep_support >> q & 1 for h in avoid for q in flat_index_hyperplane_support(pc, h)):
        return rep
    new_factors = list(rep.factors)
    for pos, d in enumerate(rep.fixed_dirs):
        gamma = sorted({h.fixed_values[pos] for h in avoid})
        fac = pc.factors[d]
        unit = rep.factors[d]
        matrix = fac.a if rep.kind == "X" else fac.a_t
        h_elem = restricted_clean(matrix, gamma, unit)
        if h_elem is None:
            raise ValueError(
                f"cleaning infeasible in direction {d}: no row-space element "
                f"matches the representative on coordinates {gamma}"
            )
        new_factors[d] = unit ^ h_elem
    bits = flat_index_tensor_support(pc, code.level, rep.sector, new_factors)
    if rep.kind == "X":
        pauli = css.PauliOperator(code.n, x=bits)
        assert code.hx_space.contains(bits ^ rep.pauli.x)
    else:
        pauli = css.PauliOperator(code.n, z=bits)
        assert code.hz_space.contains(bits ^ rep.pauli.z)
    return rep._replace(pauli=pauli, fixed_values=None, factors=tuple(new_factors))
