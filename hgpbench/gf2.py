"""Small GF(2) helpers for the benchmark's own verdict oracles.

Vectors and matrix rows are Python ints (bit j = column j).  Nothing here
imports hgpforge: the oracles must not share code with the program they
check.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Optional


def rank(rows: Iterable[int]) -> int:
    """Rank over GF(2) of a set of row vectors."""
    basis: dict[int, int] = {}
    for v in rows:
        while v:
            lead = v.bit_length() - 1
            if lead not in basis:
                basis[lead] = v
                break
            v ^= basis[lead]
    return len(basis)


def in_row_space(rows: list[int], v: int) -> bool:
    return rank(rows + [v]) == rank(rows)


def annihilates(rows: Iterable[int], v: int) -> bool:
    """True iff H v = 0 for the check matrix with these rows."""
    return all((row & v).bit_count() % 2 == 0 for row in rows)


def mask_of(indices: Iterable[int]) -> int:
    out = 0
    for i in indices:
        out |= 1 << i
    return out


def hidden_logicals(h_kernel: list[int], h_stab: list[int], region: int, n: int) -> int:
    """Number of independent logicals supported inside `region`.

    A logical of this type lies in ker(h_kernel) and outside the row space
    of h_stab.  Inside a region R there are |R| - rank(h_kernel|_R) kernel
    vectors, of which rank(h_stab) - rank(h_stab|_{R^c}) are stabilizers.
    """
    outside = ((1 << n) - 1) & ~region
    return (
        region.bit_count()
        - rank(r & region for r in h_kernel)
        - rank(h_stab)
        + rank(r & outside for r in h_stab)
    )


def seed_distance(rows: list[int], ncols: int) -> Optional[int]:
    """Minimum weight of a nonzero vector in ker(rows); None if the kernel
    is trivial.  Exhaustive, so only for seed-sized matrices."""
    for w in range(1, ncols + 1):
        for combo in itertools.combinations(range(ncols), w):
            if annihilates(rows, mask_of(combo)):
                return w
    return None


def transpose(rows: list[int], ncols: int) -> list[int]:
    return [
        mask_of(r for r, row in enumerate(rows) if (row >> c) & 1) for c in range(ncols)
    ]


def kunneth_2d(a: list[int], a_cols: int, b: list[int], b_cols: int) -> tuple[int, int, Optional[int], Optional[int]]:
    """(n, k, d_x, d_z) of the level-1 code of the product of seeds a, b.

    Qubits sit in sectors {0} (shape a_cols x b_rows) and {1} (shape
    a_rows x b_cols).  Sector {0} carries ker a (x) ker b^T, sector {1}
    carries ker a^T (x) ker b; Z logicals spread the kernel codeword, X
    logicals the transpose-kernel codeword.
    """
    a_t, b_t = transpose(a, a_cols), transpose(b, b_cols)
    dims = {
        "a": a_cols - rank(a), "at": len(a) - rank(a),
        "b": b_cols - rank(b), "bt": len(b) - rank(b),
    }
    n = a_cols * len(b) + len(a) * b_cols
    sectors = [
        (dims["a"] * dims["bt"], (a, a_cols), (b_t, len(b))),
        (dims["at"] * dims["b"], (b, b_cols), (a_t, len(a))),
    ]
    k, d_x, d_z = 0, None, None
    for sector_k, z_seed, x_seed in sectors:
        if sector_k == 0:
            continue
        k += sector_k
        dz, dx = seed_distance(*z_seed), seed_distance(*x_seed)
        d_z = dz if d_z is None else min(d_z, dz)
        d_x = dx if d_x is None else min(d_x, dx)
    return n, k, d_x, d_z
