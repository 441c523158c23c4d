"""Test-local reference constructions.

Each is a slower, more literal way to build something the package builds
from the Kronecker structure of a product.  The differential tests compare
the package against them.
"""

import itertools

from hypothesis import strategies as st

from hgpforge import classical, diagonal, f2la, product
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
