"""The package's value records: their checks, value semantics and import cost.

Plain records are `typing.NamedTuple` types; records that check their fields
on construction, are read in loops or have a length of their own are
`__slots__` classes.  Either way a record compares and hashes by its
fields, refuses assignment and has the `Name(field=value, ...)` repr.
"""

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from hgpforge import classical, correctability, css, diagonal, f2la, product, toric_cnz
from hgpforge._record import SlotRecord
from hgpforge.f2la import BinaryMatrix

SRC = Path(__file__).resolve().parent.parent / "src"


def _pauli():
    return css.PauliOperator(3, 0b011, 0b100, -1)


def _rep():
    return css.LogicalRep(_pauli(), "X", 0, (1,), (2,), (0b1, 0b10))


_CODE = css.CssCode(BinaryMatrix(1, 2, [0b11]), BinaryMatrix(1, 2, [0b11]))
_POLY = diagonal.PhasePolynomial(2, 1, {(0, 1): 1})

# (class, field names in order, a function giving the fields of one value;
# each call gives equal but not identical containers)
RECORDS = [
    (f2la.RrefResult, ("reduced", "pivot_columns", "rank"),
     lambda: (BinaryMatrix.identity(2), (0, 1), 2)),
    (classical.InformationSet, ("indices",), lambda: ((0, 2),)),
    (product.Sector, ("J", "shape", "offset"), lambda: ((0,), (3, 2), 6)),
    (product.Hyperplane, ("level", "sector", "fixed_dirs", "fixed_values"),
     lambda: (1, 0, (0, 2), (1, 1))),
    (product.Hypertube, ("sector", "thin_dirs", "thresholds", "block_weights"),
     lambda: (0, (1,), (2, 2), (3, 1))),
    (css.PauliOperator, ("n", "x", "z", "sign"), lambda: (3, 0b011, 0b100, -1)),
    (css.LogicalRep, ("pauli", "kind", "sector", "fixed_dirs", "fixed_values", "factors"),
     lambda: (_pauli(), "X", 0, (1,), None, (0b1, 0b10))),
    (css.LogicalBasis, ("x_reps", "z_reps", "pairing"),
     lambda: ((_rep(),), (_rep(),), BinaryMatrix.identity(1))),
    (css.KunnethParameters, ("n", "k", "d_x", "d_z"), lambda: (13, 1, 3, None)),
    (css.DistanceResult, ("d_x", "d_z"), lambda: (3, 4)),
    (correctability.Region, ("qubits",), lambda: (frozenset({1, 4}),)),
    (correctability.CorrectabilityVerdict, ("correctable", "witness", "witness_type"),
     lambda: (False, _pauli(), "X")),
    (diagonal.PreservationResult, ("preserves", "violating_copy", "violating_row"),
     lambda: (False, 1, 7)),
    (diagonal.CircuitSupportModel, ("kind", "spread_map"),
     lambda: (diagonal.CONSTANT_DEPTH, abs)),
    (diagonal.CascadeStep, ("j", "support", "correctable"), lambda: (2, (0, 5), True)),
    (diagonal.CascadeReport, ("steps", "concluded_level"),
     lambda: ((diagonal.CascadeStep(1, (0,), True),), 1)),
    (diagonal.NogoReport,
     ("modulus_log2", "generator_count", "levels", "max_level", "all_preserve"),
     lambda: (3, 2, (1, 2), 2, True)),
    (toric_cnz.ToricBundle, ("t", "length", "copies", "code", "circuit"),
     lambda: (2, 3, 2, _CODE, _POLY)),
    (toric_cnz.CnzVerification, ("verified", "logical_poly", "level", "expected", "missing"),
     lambda: (True, _POLY, 2, ((0, 1),), ())),
]
IDS = [cls.__name__ for cls, _, _ in RECORDS]


@pytest.mark.parametrize("cls, names, values", RECORDS, ids=IDS)
class TestValueSemantics:
    def test_fields_in_order_by_position_and_by_name(self, cls, names, values):
        by_position = cls(*values())
        by_name = cls(**dict(zip(names, values())))
        assert by_position == by_name
        assert tuple(getattr(by_position, name) for name in names) == values()

    def test_equal_fields_give_equal_values_and_hashes(self, cls, names, values):
        a, b = cls(*values()), cls(*values())
        assert a is not b
        assert a == b and not a != b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_assignment_and_deletion_raise(self, cls, names, values):
        record = cls(*values())
        for name in names:
            with pytest.raises(AttributeError):
                setattr(record, name, 0)
            with pytest.raises(AttributeError):
                delattr(record, name)
        with pytest.raises(AttributeError):
            record.extra = 0
        assert tuple(getattr(record, name) for name in names) == values()

    def test_repr_names_every_field(self, cls, names, values):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(names, values()))
        assert repr(cls(*values())) == f"{cls.__name__}({fields})"

    def test_a_copy_is_an_equal_record(self, cls, names, values):
        record = cls(*values())
        assert copy.copy(record) == record


def test_every_record_is_a_namedtuple_or_a_slot_record():
    for cls, names, _ in RECORDS:
        if issubclass(cls, SlotRecord):
            assert cls.__slots__ == names
        else:
            assert issubclass(cls, tuple) and cls._fields == names


def test_defaults():
    assert css.PauliOperator(2) == css.PauliOperator(2, 0, 0, 1)
    assert correctability.CorrectabilityVerdict(True) == correctability.CorrectabilityVerdict(
        True, None, None
    )
    assert diagonal.PreservationResult(True) == diagonal.PreservationResult(True, None, None)
    assert diagonal.CircuitSupportModel(diagonal.TRANSVERSAL).spread_map is None


def test_only_namedtuple_records_equal_a_plain_tuple():
    # a NamedTuple record equals a plain tuple of its fields; a slot record
    # equals only a record of its own class
    assert css.DistanceResult(3, 4) == (3, 4)
    assert correctability.Region(frozenset({1})) != classical.InformationSet(frozenset({1}))
    assert css.PauliOperator(1) != (1, 0, 0, 1)


def test_lengths_and_truth():
    assert len(classical.InformationSet((0, 3, 5))) == 3
    assert len(correctability.Region.of([2, 2, 7])) == 2
    assert not correctability.Region.of([])
    assert not correctability.CorrectabilityVerdict(False)
    assert not diagonal.PreservationResult(False, 0, 0)
    assert diagonal.PreservationResult(True)


def test_slot_records_pickle():
    for record in (_pauli(), product.Hyperplane(1, 0, (0,), (2,)), product.Sector((1,), (2,), 0)):
        assert pickle.loads(pickle.dumps(record)) == record


class TestChecks:
    @pytest.mark.parametrize(
        "args, message",
        [
            ((3, 0b1000), "Pauli support exceeds qubit count"),
            ((3, 0, 0b1000), "Pauli support exceeds qubit count"),
            ((3, 1 << 64), "Pauli support exceeds qubit count"),
            ((0, 1), "Pauli support exceeds qubit count"),
            ((3, -1), "Pauli support exceeds qubit count"),
            ((3, 0, -2), "Pauli support exceeds qubit count"),
            ((3, 1, 1, 0), "sign must be +1 or -1"),
            ((3, 1, 1, 2), "sign must be +1 or -1"),
            ((3, 1, 1, -2), "sign must be +1 or -1"),
        ],
    )
    def test_pauli_operator(self, args, message):
        with pytest.raises(ValueError) as err:
            css.PauliOperator(*args)
        assert str(err.value) == message

    def test_pauli_operator_at_its_limits(self):
        full = css.PauliOperator(3, 0b111, 0b111, -1)
        assert full.weight == 3 and full.support == frozenset({0, 1, 2})
        assert css.PauliOperator(0).weight == 0

    @pytest.mark.parametrize(
        "dirs, values, message",
        [
            ((0, 1), (2,), "fixed_dirs and fixed_values lengths differ"),
            ((), (2,), "fixed_dirs and fixed_values lengths differ"),
            ((1, 0), (2, 2), "fixed_dirs must be strictly increasing"),
            ((1, 1), (2, 2), "fixed_dirs must be strictly increasing"),
            ((0, 2, 1), (0, 0, 0), "fixed_dirs must be strictly increasing"),
        ],
    )
    def test_hyperplane(self, dirs, values, message):
        with pytest.raises(ValueError) as err:
            product.Hyperplane(1, 0, dirs, values)
        assert str(err.value) == message

    def test_intersection_builds_a_checked_hyperplane(self):
        h = product.intersect_hyperplanes(
            product.Hyperplane(1, 0, (2,), (1,)), product.Hyperplane(1, 0, (0,), (3,))
        )
        assert h == product.Hyperplane(1, 0, (0, 2), (3, 1))

    def test_circuit_support_model_kind(self):
        # the spread_map check is in tests/test_diagonal.py::TestSupportCalculus
        with pytest.raises(ValueError, match="unknown circuit kind 'wide'"):
            diagonal.CircuitSupportModel("wide")


def test_replace_keeps_a_logical_rep():
    rep = _rep()
    moved = rep._replace(fixed_values=None)
    assert type(moved) is css.LogicalRep
    assert moved == css.LogicalRep(_pauli(), "X", 0, (1,), None, (0b1, 0b10))


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    """A fresh interpreter, without site, imports the CLI and reports which
    of the two modules it loaded; records generate no methods by exec."""
    probe = (
        "import sys, hgpforge.cli; "
        "print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
