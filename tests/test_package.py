"""The package surface: its public names, and which submodules a command runs.

`import hgpforge` registers each submodule as a lazy module that executes
on its first attribute read, and resolves each public name from its
submodule on first read.  A module that has executed is a plain
`types.ModuleType`; one that has not is still the lazy subclass.
"""

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import hgpforge
from hgpforge import correctability, css, diagonal
from hgpforge.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"
INPUTS = Path(__file__).resolve().parent / "golden" / "inputs"

# The public names of the package, by the submodule that defines them, as
# the package exported them when it imported every submodule up front.
PUBLIC = {
    "classical": (
        "ClassicalCode", "InformationSet", "classical_clean", "cyclic_repetition_check",
        "disjoint_information_set", "distance", "distance_certificate",
        "find_information_set", "hamming_7_4", "is_puncture", "repetition_code",
    ),
    "correctability": (
        "CorrectabilityVerdict", "Region", "clean_logical", "is_correctable",
        "union_lemma_check",
    ),
    "css": (
        "CssCode", "DistanceResult", "KunnethParameters", "LogicalBasis", "LogicalRep",
        "PauliOperator", "alternative_representative", "assemble_css", "brute_distance",
        "canonical_logical_basis", "group_commutator_pauli", "kunneth_parameters",
        "pauli_mul", "symplectic_product",
    ),
    "diagonal": (
        "CircuitSupportModel", "PhasePolynomial", "bk_cascade", "commutator_support_bound",
        "difference", "format_circuit_text", "hierarchy_level", "logical_action",
        "parse_circuit_text", "poly_from_circuit", "poly_zero", "preserves_codespace",
        "substitute", "transversal_model", "transversal_nogo_harness",
    ),
    "f2la": (
        "BinaryMatrix", "RrefResult", "format_matrix_text", "kernel_basis", "kron",
        "matmul", "parse_matrix_text", "rank", "rref", "solve", "transpose",
    ),
    "product": (
        "Hyperplane", "Hypertube", "OneComplex", "ProductComplex", "block_hamming_weight",
        "build_product", "classify_hypertube", "coords_of", "flat_index",
        "hyperplane_support", "intersect_hyperplanes",
    ),
    "toric_cnz": (
        "ToricBundle", "build_bundle", "build_cnz_circuit", "build_toric",
        "verify_invariance", "verify_logical_cnz",
    ),
}
NAMES = [name for names in PUBLIC.values() for name in names]


def _fresh(probe: str, *args: str) -> str:
    """Run probe in a fresh interpreter, without site, importing the package
    from this checkout; return its stdout."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-S", "-c", probe, *args],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


class TestPublicApi:
    def test_every_public_name_is_in_all_and_is_its_submodules_object(self):
        assert set(NAMES) <= set(hgpforge.__all__)
        for module, names in PUBLIC.items():
            assert module in hgpforge.__all__
            for name in names:
                assert getattr(hgpforge, name) is getattr(getattr(hgpforge, module), name), name

    def test_a_star_import_binds_every_public_name_and_submodule(self):
        namespace: dict = {}
        exec("from hgpforge import *", namespace)
        for module, names in PUBLIC.items():
            assert namespace[module] is getattr(hgpforge, module)
            for name in names:
                assert namespace[name] is getattr(hgpforge, name)

    def test_dir_lists_every_public_name(self):
        assert set(NAMES) | set(PUBLIC) <= set(dir(hgpforge))
        assert "__version__" in dir(hgpforge)

    def test_an_unknown_attribute_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            hgpforge.no_such_name
        with pytest.raises(ImportError):
            exec("from hgpforge import no_such_name", {})

    def test_importing_the_package_executes_no_submodule(self):
        probe = (
            "import sys, types, hgpforge\n"
            "print(*sorted(name for name, m in sys.modules.items()\n"
            "      if name.startswith('hgpforge.') and type(m) is types.ModuleType))\n"
        )
        assert _fresh(probe).split() == []

    def test_each_name_resolves_to_its_submodules_object_in_a_fresh_interpreter(self):
        probe = (
            "import hgpforge\n"
            f"for module, names in {PUBLIC!r}.items():\n"
            "    for name in names:\n"
            "        assert getattr(hgpforge, name) is getattr(getattr(hgpforge, module), name)\n"
            "print(len(hgpforge.__all__))\n"
        )
        assert int(_fresh(probe)) == len(NAMES) + len(PUBLIC)

    def test_a_reload_keeps_the_submodules_already_registered(self):
        probe = (
            "import importlib, hgpforge\n"
            "css, code_type = hgpforge.css, hgpforge.CssCode\n"
            "importlib.reload(hgpforge)\n"
            "assert hgpforge.css is css and hgpforge.css.CssCode is code_type\n"
        )
        _fresh(probe)

    def test_records_pickle_into_a_fresh_interpreter_and_copy(self):
        records = [
            css.PauliOperator(3, 0b011, 0b100, -1),
            correctability.Region.of([4, 1]),
            diagonal.CascadeStep(1, (0, 2), True),
        ]
        for record in records:
            assert copy.copy(record) == record and copy.deepcopy(record) == record
        # unpickling reads the classes from submodules not yet executed there
        probe = (
            "import copy, pickle, sys, hgpforge\n"
            "records = pickle.loads(bytes.fromhex(sys.argv[1]))\n"
            "assert [copy.deepcopy(r) for r in records] == records\n"
            "print(pickle.dumps(records).hex())\n"
        )
        out = _fresh(probe, pickle.dumps(records).hex())
        assert pickle.loads(bytes.fromhex(out)) == records


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """Argv per command, on a toric L=3 bundle and the C^1Z layer over it."""
    tmp = tmp_path_factory.mktemp("commands")
    seed, bundle, circuit = str(INPUTS / "seed3.txt"), str(tmp / "t3.json"), str(tmp / "cz.txt")
    assert main(["build", seed, seed, "--level", "1", "-o", bundle]) == 0
    return {
        "build": ["build", seed, seed, "--level", "1", "-o", str(tmp / "b.json")],
        "logicals": ["logicals", bundle],
        "distance": ["distance", bundle],
        "correctable": ["correctable", bundle, str(INPUTS / "region_ok.txt")],
        "toric-cnz": ["toric-cnz", "--t", "2", "--L", "3", "-o", circuit],
        "verify-diagonal": ["verify-diagonal", bundle, circuit, "--copies", "2"],
        "nogo-transversal": ["nogo-transversal", bundle, "--mod", "2"],
    }


# The commands that work on the codes alone run no phase-polynomial code;
# the phase-polynomial commands run no cleaning-lemma code.
NOT_RUN = {
    "build": {"diagonal", "toric_cnz"},
    "logicals": {"diagonal", "toric_cnz"},
    "distance": {"diagonal", "toric_cnz"},
    "correctable": {"diagonal", "toric_cnz"},
    "toric-cnz": {"correctability"},
    "verify-diagonal": {"correctability"},
    "nogo-transversal": {"correctability"},
}


@pytest.mark.parametrize("command", list(NOT_RUN))
def test_a_command_executes_only_the_submodules_it_uses(capsys, inputs, command):
    probe = (
        "import contextlib, io, sys, types\n"
        "from hgpforge.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(sys.argv[1:])\n"
        "print(code, *sorted(name[len('hgpforge.'):] for name, m in sys.modules.items()\n"
        "      if name.startswith('hgpforge.') and type(m) is types.ModuleType))\n"
    )
    if command == "verify-diagonal":  # its circuit is the toric-cnz output
        assert main(inputs["toric-cnz"]) == 0
        capsys.readouterr()
    code, *executed = _fresh(probe, *inputs[command]).split()
    assert code == "0"
    assert {"cli", "css", "f2la", "product"} <= set(executed)
    assert not NOT_RUN[command] & set(executed), executed
