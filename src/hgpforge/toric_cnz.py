"""Toric-code C^(t-1)Z circuits on t code copies.

The t-dimensional toric code is the product of t circulant repetition
seeds, with qubits on level 1 so Z logicals are strings and X logicals are
(t-1)-dimensional planes.  Placing one physical C^(t-1)Z per monotone
corner-to-corner path of every lattice cell (copy i acts on the path's
i-th step) yields a constant-depth circuit whose logical action is the
C^(t-1)Z coupling the copies' plane classes, achieving hierarchy level t.

The per-path qubit selection is a convention; its correctness is verified
a posteriori through the symbolic invariance and logical-action checks
rather than assumed.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple, Optional

from . import classical, css, diagonal, product
from .css import CssCode, canonical_logical_basis
from .diagonal import PhasePolynomial, PreservationResult, logical_action, preserves_codespace
from .product import ProductComplex

QUBIT_LEVEL = 1
# Largest layer build_bundle builds: one gate per cell and ordering, L^t * t!.
MAX_GATES = 1 << 20


def _check_dimension(t: int) -> None:
    if not 2 <= t <= product.MAX_DIMENSION:
        raise ValueError(
            f"need a product dimension t >= 2 and <= {product.MAX_DIMENSION}, not {t}"
        )


def build_toric(t: int, length: int) -> CssCode:
    """Toric code from t circulant repetition seeds of the given length."""
    _check_dimension(t)
    if length < 2:
        raise ValueError("need lattice length >= 2")
    seeds = [classical.cyclic_repetition_check(length) for _ in range(t)]
    return css.assemble_css(product.build_product(seeds), QUBIT_LEVEL)


def build_cnz_circuit(t: int, length: int, pc: Optional[ProductComplex] = None) -> PhasePolynomial:
    """Phase polynomial of the physical C^(t-1)Z layer over t copies.

    For every lattice cell and every ordering sigma of the t step
    directions, one monomial couples copy i's qubit on the sigma(i)-th
    step edge.  Coefficients live mod 2, so coinciding monomials cancel.

    The circulant seed makes edge c incident to vertices c-1 and c, so the
    edge along d leaving cell + e_S (periodic) is cell + e_S + e_d in the
    sector of direction d.  Step i of sigma is therefore the sector offset
    of sigma(i) plus the position of cell + e_S with S = sigma(0..i), read off
    a per-cell table over all 2^t subsets S.
    """
    _check_dimension(t)
    if length < 1:
        raise ValueError("need lattice length >= 1")
    if pc is None:
        seeds = [classical.cyclic_repetition_check(length) for _ in range(t)]
        pc = product.build_product(seeds)
    n = pc.dim(QUBIT_LEVEL)
    table = pc.tables[QUBIT_LEVEL]
    sectors = [table[table.index_of((d,))] for d in range(t)]
    # Every level-1 sector has shape (L,) * t, so they share one set of strides.
    strides = sectors[0].strides()
    # per ordering, each step's (copy's variable offset + sector offset, mask of S)
    orders = [
        [
            (copy * n + sectors[d].offset, sum(1 << e for e in sigma[: copy + 1]))
            for copy, d in enumerate(sigma)
        ]
        for sigma in itertools.permutations(range(t))
    ]
    pos = [0] * (1 << t)
    terms: dict[tuple[int, ...], int] = {}
    for cell in itertools.product(range(length), repeat=t):
        # one step along d adds its stride, or wraps back by L - 1 strides
        step = [s if c + 1 < length else s * (1 - length) for c, s in zip(cell, strides)]
        pos[0] = sum(c * s for c, s in zip(cell, strides))
        for mask in range(1, 1 << t):
            low = mask & -mask
            pos[mask] = pos[mask ^ low] + step[low.bit_length() - 1]
        for order in orders:
            mono = tuple([base + pos[mask] for base, mask in order])
            # coefficients live mod 2: a repeated monomial cancels
            if terms.pop(mono, 0) == 0:
                terms[mono] = 1
    # Copy i's qubit lies in block i of n variables, so every monomial is an
    # ascending tuple of t variables below t * n: the terms are normalized.
    return PhasePolynomial._of(t * n, 1, terms)


class ToricBundle(NamedTuple):
    t: int
    length: int
    copies: int
    code: CssCode
    circuit: PhasePolynomial


def build_bundle(t: int, length: int) -> ToricBundle:
    """Toric code and its C^(t-1)Z layer; refused for t outside
    [2, product.MAX_DIMENSION] or above MAX_GATES gates, before anything is
    built."""
    _check_dimension(t)
    if length >= 2 and length**t * math.factorial(t) > MAX_GATES:
        raise ValueError(f"t={t}, L={length} exceeds the cap of {MAX_GATES} gates (L^t * t!)")
    code = build_toric(t, length)
    circuit = build_cnz_circuit(t, length, pc=code.complex)
    return ToricBundle(t, length, t, code, circuit)


def verify_invariance(bundle: ToricBundle) -> PreservationResult:
    """True iff the circuit preserves the codespace of all copies."""
    return preserves_codespace(bundle.circuit, bundle.code, copies=bundle.copies)


def expected_logical_monomials(bundle: ToricBundle) -> set[tuple[int, ...]]:
    """Degree-t logical monomials whose canonical planes meet transversally.

    With one logical class per sector and fixed direction, t planes (one
    per copy) intersect pairwise down to a point exactly when their fixed
    directions exhaust all t directions, i.e. the class tuple is a
    permutation.
    """
    basis = canonical_logical_basis(bundle.code)
    k = basis.k
    dir_of = {}
    for idx, rep in enumerate(basis.x_reps):
        if len(rep.fixed_dirs) != 1:
            raise AssertionError("toric X representative should fix one direction")
        dir_of[idx] = rep.fixed_dirs[0]
    out = set()
    for combo in itertools.permutations(range(k), bundle.copies):
        if len({dir_of[c] for c in combo}) == bundle.copies:
            out.add(tuple(copy * k + c for copy, c in enumerate(combo)))
    return out


class CnzVerification(NamedTuple):
    verified: bool
    logical_poly: PhasePolynomial
    level: int
    expected: tuple[tuple[int, ...], ...]
    missing: tuple[tuple[int, ...], ...]

    def __bool__(self) -> bool:
        return self.verified


def verify_logical_cnz(bundle: ToricBundle) -> CnzVerification:
    """Extract the logical polynomial and check the C^(t-1)Z pattern.

    Requires the logical polynomial to equal the expected pattern exactly:
    every transversal-intersection monomial with coefficient 1 mod 2 and
    no other term.  An extra term, such as a linear one from a dressed
    Z logical, fails the check even when the level is still t.
    """
    poly = logical_action(bundle.circuit, bundle.code, copies=bundle.copies)
    expected = expected_logical_monomials(bundle)
    missing = [mono for mono in expected if poly.coefficient(mono) != 1]
    level = diagonal.hierarchy_level(poly)
    pattern = PhasePolynomial._of(poly.nvars, poly.modulus_log2, dict.fromkeys(expected, 1))
    verified = bool(expected) and poly == pattern
    return CnzVerification(
        verified,
        poly,
        level,
        tuple(sorted(expected)),
        tuple(sorted(missing)),
    )
