"""Construction and verification toolkit for hypergraph product CSS codes.

Builds homological products of classical seeds over GF(2), computes code
parameters and canonical logical bases, decides cleaning-lemma
correctability of qubit regions, and analyzes diagonal circuits (phase
polynomials) for codespace preservation, logical action, and Clifford
hierarchy level.

Each submodule below is registered in `sys.modules` as a lazy module: it
executes on its first attribute read, so a command runs only the modules
it uses.  A public name resolves from its submodule on first read.  A new
submodule is added to `_EXPORTS`, with its public names.
"""

import importlib.util
import sys

# submodule -> the public names it defines; __all__, __getattr__ and
# __dir__ read this one table.
_EXPORTS = {
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
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}
# The submodules too, so `from hgpforge import *` binds what it always has.
__all__ = [*_EXPORTS, *_ORIGIN]

__version__ = "0.1.0"


def _lazy_module(name: str):
    """hgpforge.<name>, registered in sys.modules to execute on its first
    attribute read (the `importlib.util.LazyLoader` recipe); a module
    already there is kept."""
    fullname = f"{__name__}.{name}"
    if fullname in sys.modules:
        return sys.modules[fullname]
    spec = importlib.util.find_spec(fullname)
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[fullname] = module
    loader.exec_module(module)
    return module


globals().update({name: _lazy_module(name) for name in _EXPORTS})


def __getattr__(name: str):
    """A public name, read from its submodule and bound here, so the next
    read does not come back to this hook."""
    try:
        module = _ORIGIN[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = globals()[name] = getattr(globals()[module], name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
