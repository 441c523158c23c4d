"""Cleaning-lemma correctability of qubit regions.

A region is correctable exactly when it supports no nontrivial logical
operator; in that case every logical can be deformed by stabilizers to act
trivially on the region.  Both branches are decided by GF(2) rank
computations on the region-restricted check matrices, and the negative
branch always comes with an explicit witness logical.
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
    region = region if isinstance(region, Region) else Region.of(region)
    if any(q < 0 or q >= code.n for q in region.qubits):
        raise ValueError("region index out of range")
    if not region.qubits:
        return CorrectabilityVerdict(True)
    candidates = [
        (v, kind)
        for v, kind in (
            (_witness(code.hz, code.hx_space, region), "X"),
            (_witness(code.hx, code.hz_space, region), "Z"),
        )
        if v is not None
    ]
    if not candidates:
        return CorrectabilityVerdict(True)
    # min keeps the first candidate on a full tie, so X wins over Z.
    best, kind = min(candidates, key=lambda c: (c[0].bit_count(), f2la.indices_of(c[0])))
    return CorrectabilityVerdict(False, _pauli(code.n, kind, best), kind)


def _witness(h_kernel: BinaryMatrix, stab_space: f2la.RowSpace, region: Region) -> Optional[int]:
    """Minimum-weight v inside region with h_kernel v = 0, v not in the
    stabilizer row space, ties broken by lexicographic support.

    The candidates are the span of the region's kernel basis, lifted to the
    qubits; each kernel_basis row owns its free column, so
    `f2la.lightest_word` walks them exactly.  If no basis row is offending,
    nothing in their span is; above _WITNESS_ENUM_MAX qubits the first
    offending basis row is returned.
    """
    cols = sorted(region.qubits)
    inside = f2la.kernel_basis(f2la.restrict_columns(h_kernel, cols))
    lifted = [f2la.lift(v, cols) for v in inside.bits]
    first = next((v for v in lifted if not stab_space.contains(v)), None)
    if first is None or len(cols) > _WITNESS_ENUM_MAX:
        return first
    return f2la.lightest_word(lifted, keep=lambda v: not stab_space.contains(v))[0]


def clean_logical(code: CssCode, op: PauliOperator, region: Region | Iterable[int]) -> PauliOperator:
    """Multiply op by a stabilizer so the product avoids the region.

    Solves separately for an X-stabilizer combination matching the X part
    on the region and a Z-stabilizer combination matching the Z part;
    both solves succeed whenever the region is correctable.
    """
    region = region if isinstance(region, Region) else Region.of(region)
    mask = region.mask()
    cols = sorted(region.qubits)
    result = op
    for kind, part, checks in (("X", op.x, code.hx), ("Z", op.z, code.hz)):
        if part & mask:
            stab = classical.clean_with_target(checks, cols, f2la.restrict(part, cols))
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
    r1 = r1 if isinstance(r1, Region) else Region.of(r1)
    r2 = r2 if isinstance(r2, Region) else Region.of(r2)
    if r1.qubits & r2.qubits:
        raise ValueError("regions overlap")
    m1, m2 = r1.mask(), r2.mask()
    for mat in (code.hx, code.hz):
        for word in mat.bits:
            if word & m1 and word & m2:
                return False
    return True
