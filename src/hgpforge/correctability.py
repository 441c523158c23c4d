"""Cleaning-lemma correctability of qubit regions.

A region is correctable exactly when it supports no nontrivial logical
operator; in that case every logical can be deformed by stabilizers to act
trivially on the region.  Both branches are decided by GF(2) rank
computations on the check matrices masked to the region, every qubit at
its own index, and the negative branch always comes with an explicit
witness logical.  `_region_mask` refuses a qubit outside the code.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Optional

from . import classical, f2la
from ._record import SlotRecord
from .css import CssCode, PauliOperator, _pauli, pauli_mul
from .f2la import BinaryMatrix

# Regions up to this size get an exhaustive minimum-weight witness search;
# larger regions fall back to the first offending kernel basis vector.
_WITNESS_ENUM_MAX = 20


class Region(SlotRecord):
    __slots__ = ("qubits",)

    def __init__(self, qubits: frozenset[int]):
        object.__setattr__(self, "qubits", qubits)

    @classmethod
    def of(cls, qubits: Iterable[int]) -> "Region":
        return cls(frozenset(qubits))

    def __len__(self) -> int:
        return len(self.qubits)

    def mask(self) -> int:
        return f2la.vector_from_indices(self.qubits)


class CorrectabilityVerdict(NamedTuple):
    correctable: bool
    witness: Optional[PauliOperator] = None
    witness_type: Optional[str] = None

    def __bool__(self) -> bool:
        return self.correctable

    def to_json(self) -> dict:
        out: dict = {"correctable": self.correctable}
        if self.witness is not None:
            out["witness"] = sorted(self.witness.support)
            out["witness_type"] = self.witness_type
        return out


def is_correctable(code: CssCode, region: Region | Iterable[int]) -> CorrectabilityVerdict:
    """Cleaning-lemma dichotomy for a qubit region.

    Looks for an X-type witness (v supported on the region with Hz v = 0
    and v outside the X-stabilizer row space) and symmetrically for Z.  The
    returned witness is the lowest-weight one found, ties broken by
    lexicographic support, then X before Z.
    """
    mask = _region_mask(code, region)
    if not mask:
        return CorrectabilityVerdict(True)
    candidates = [
        (v, kind)
        for v, kind in (
            (_witness(code.hz, code.hx_space, mask), "X"),
            (_witness(code.hx, code.hz_space, mask), "Z"),
        )
        if v is not None
    ]
    if not candidates:
        return CorrectabilityVerdict(True)
    # min keeps the first candidate on a full tie, so X wins over Z.
    best, kind = min(candidates, key=lambda c: (c[0].bit_count(), f2la.indices_of(c[0])))
    return CorrectabilityVerdict(False, _pauli(code.n, kind, best), kind)


def _region_mask(code: CssCode, region: Region | Iterable[int]) -> int:
    """The region's qubit mask; a qubit outside the code is refused."""
    region = region if isinstance(region, Region) else Region.of(region)
    if any(q < 0 or q >= code.n for q in region.qubits):
        raise ValueError("region index out of range")
    return region.mask()


def _witness(h_kernel: BinaryMatrix, stab_space: f2la.RowSpace, mask: int) -> Optional[int]:
    """Minimum-weight v inside the mask with h_kernel v = 0, v not in the
    stabilizer row space, ties broken by lexicographic support.

    The candidates are the span of the kernel basis rows of the masked
    h_kernel for the free columns inside the mask; a masked-out column is
    free with a unit basis row outside the region, which is never built.
    Each row owns its free column, so `f2la.lightest_word` walks them
    exactly.  If no basis row is offending, nothing in their span is; above
    _WITNESS_ENUM_MAX qubits the first offending one is returned.
    """
    inside = f2la.kernel_basis(f2la.mask_columns(h_kernel, mask), within=mask).bits
    first = next((v for v in inside if not stab_space.contains(v)), None)
    if first is None or mask.bit_count() > _WITNESS_ENUM_MAX:
        return first
    return f2la.lightest_word(inside, keep=lambda v: not stab_space.contains(v))[0]


def clean_logical(code: CssCode, op: PauliOperator, region: Region | Iterable[int]) -> PauliOperator:
    """Multiply op by a stabilizer so the product avoids the region.

    Solves separately for an X-stabilizer combination matching the X part
    on the region and a Z-stabilizer combination matching the Z part;
    both solves succeed whenever the region is correctable.
    """
    mask = _region_mask(code, region)
    result = op
    for kind, part, checks in (("X", op.x, code.hx), ("Z", op.z, code.hz)):
        if part & mask:
            stab = classical.clean_with_target(checks, mask, part)
            if stab is None:
                raise ValueError(f"region is not cleanable for the {kind} part")
            result = pauli_mul(result, _pauli(code.n, kind, stab))
    if (result.x | result.z) & mask:
        raise AssertionError("cleaned operator still touches the region")
    return result


def union_lemma_check(code: CssCode, r1: Region | Iterable[int], r2: Region | Iterable[int]) -> bool:
    """True iff no provided stabilizer generator meets both regions.

    Checked against the given generator rows only; searching over
    regenerated stabilizer bases is out of scope.
    """
    m1, m2 = _region_mask(code, r1), _region_mask(code, r2)
    if m1 & m2:
        raise ValueError("regions overlap")
    for mat in (code.hx, code.hz):
        for word in mat.bits:
            if word & m1 and word & m2:
                return False
    return True
