"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.  All checks are exact; the stated runtime budgets are
asserted with ``time.monotonic``.
"""

import itertools
import random
import time
from contextlib import contextmanager

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hgpforge import classical, correctability, css, diagonal, f2la, product, toric_cnz
from hgpforge.f2la import BinaryMatrix

from helpers import seed_matrices


@contextmanager
def criterion(num, desc):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"\n[criterion {num:2d}] {desc}: FAIL")
        raise
    print(f"\n[criterion {num:2d}] {desc}: PASS ({time.monotonic() - start:.2f}s)")


def random_matrix(rng, rows, cols, density=0.5):
    return BinaryMatrix(
        rows,
        cols,
        [sum(1 << j for j in range(cols) if rng.random() < density) for _ in range(rows)],
    )


def toric_code(t, length):
    seeds = [classical.cyclic_repetition_check(length)] * t
    return css.assemble_css(product.build_product(seeds), 1)


def verified_min_logical_weight(code, predicted, h_kernel, h_stab):
    """Exact one-sided distance check against a predicted value.

    The cluster walk certifies equality or exposes a mismatch either way: a
    smaller weight returns early, and a larger true distance returns that
    weight or None when the walk is cut past the prediction.
    """
    return css._walk_logical_weight(
        h_kernel, f2la.RowSpace(h_stab), predicted, 1 << 20
    )[0]


def coset_oracle(code, f, copies=1):
    """The 2^(n copies) diagonal fixes the projector of `copies` copies of
    the code iff the phase is constant on every coset of rowspace(Hx) inside
    ker Hz, each taken over all copies."""
    shifts = [c * code.n for c in range(copies)]
    kernel = [0]
    for b in code.x_domain_basis():
        for shift in shifts:
            kernel += [v ^ b << shift for v in kernel]
    stab = [0]
    for b in f2la.rref(code.hx).nonzero_rows():
        for shift in shifts:
            stab += [v ^ b << shift for v in stab]
    seen = set()
    for v in kernel:
        if v in seen:
            continue
        coset = {v ^ s for s in stab}
        seen |= coset
        if len({f.evaluate(x) for x in coset}) != 1:
            return False
    return True


@pytest.fixture(scope="module")
def random_instances():
    """50 random seed sets (t <= 3, n_i, m_i <= 5) with every valid level."""
    rng = random.Random(20240817)
    instances = []
    for _ in range(50):
        t = rng.choice([2, 3])
        seeds = [
            random_matrix(rng, rng.randrange(1, 6), rng.randrange(1, 6), rng.uniform(0.2, 0.8))
            for _ in range(t)
        ]
        pc = product.build_product(seeds)
        for level in range(1, t):
            instances.append((pc, level, css.assemble_css(pc, level)))
    return instances


def test_criterion_01_toric_parameters():
    with criterion(1, "toric [[18,2,3]] with brute distance matching the formulas"):
        start = time.monotonic()
        code = toric_code(2, 3)
        params = css.kunneth_parameters(code.complex, 1)
        brute = css.brute_distance(code)
        assert (code.n, code.k) == (18, 2)
        assert (params.n, params.k, params.d_x, params.d_z) == (18, 2, 3, 3)
        assert (brute.d_x, brute.d_z, brute.d) == (3, 3, 3)
        assert time.monotonic() - start < 1.0


def test_criterion_02_kunneth_consistency(random_instances):
    with criterion(2, "Kunneth k and distances on 50 random seed sets"):
        start = time.monotonic()
        distance_checks = 0
        for pc, level, code in random_instances:
            params = css.kunneth_parameters(pc, level)
            assert params.n == code.n
            assert params.k == code.n - code.rank_hx - code.rank_hz
            if code.k == 0 or code.n > 30:
                continue
            d_z = verified_min_logical_weight(code, params.d_z, code.hx, code.hz)
            d_x = verified_min_logical_weight(code, params.d_x, code.hz, code.hx)
            assert d_z == params.d_z, f"d_z {d_z} != formula {params.d_z}"
            assert d_x == params.d_x, f"d_x {d_x} != formula {params.d_x}"
            distance_checks += 1
        assert distance_checks >= 10  # the pool must exercise the distance leg
        assert time.monotonic() - start < 120.0


def test_criterion_03_canonical_basis(random_instances):
    with criterion(3, "canonical basis pairing and stabilizer commutation"):
        for pc, level, code in random_instances:
            basis = css.canonical_logical_basis(code)
            assert basis.k == code.k
            assert basis.pairing == BinaryMatrix.identity(code.k)
            for rep in basis.x_reps + basis.z_reps:
                for r in range(code.hx.rows):
                    stab = css.PauliOperator(code.n, x=code.hx.bits[r])
                    assert css.symplectic_product(rep.pauli, stab) == 0
                for r in range(code.hz.rows):
                    stab = css.PauliOperator(code.n, z=code.hz.bits[r])
                    assert css.symplectic_product(rep.pauli, stab) == 0


def test_criterion_04_cleaning_dichotomy():
    with criterion(4, "cleaning dichotomy, exhaustive over toric-18 regions <= 3"):
        start = time.monotonic()
        code = toric_code(2, 3)
        hx_space = f2la.RowSpace(code.hx)
        hz_space = f2la.RowSpace(code.hz)

        def holds_logical(region):
            for r in range(1, len(region) + 1):
                for combo in itertools.combinations(region, r):
                    v = f2la.vector_from_indices(combo)
                    if f2la.mat_vec(code.hz, v) == 0 and not hx_space.contains(v):
                        return True
                    if f2la.mat_vec(code.hx, v) == 0 and not hz_space.contains(v):
                        return True
            return False

        uncorrectable = 0
        for size in range(4):
            for region in itertools.combinations(range(18), size):
                verdict = correctability.is_correctable(code, region)
                # exactly one branch of the dichotomy, against the oracle
                assert verdict.correctable == (not holds_logical(region))
                if not verdict.correctable:
                    uncorrectable += 1
                    w = verdict.witness
                    assert w.support <= set(region)
                    if verdict.witness_type == "X":
                        assert f2la.mat_vec(code.hz, w.x) == 0
                        assert not hx_space.contains(w.x)
                    else:
                        assert f2la.mat_vec(code.hx, w.z) == 0
                        assert not hz_space.contains(w.z)
        assert uncorrectable > 0  # d = 3 means some size-3 region fails
        assert time.monotonic() - start < 60.0


def test_criterion_05_classical_cleaning():
    with criterion(5, "classical cleaning within (d-1)/2, repetition and Hamming"):
        codes = [classical.repetition_code(n) for n in range(2, 10)]
        codes.append(classical.hamming_7_4())
        for code in codes:
            d = classical.distance(code)
            space = f2la.RowSpace(code.h)
            for size in range(1, (d - 1) // 2 + 1):
                for gamma in itertools.combinations(range(code.n), size):
                    h = classical.classical_clean(code, gamma)
                    assert space.contains(h)
                    assert all((h >> q) & 1 for q in gamma)


def _random_hgp_with_distance_3(rng):
    for _ in range(400):
        seeds = [
            random_matrix(rng, rng.randrange(2, 6), rng.randrange(2, 6), rng.uniform(0.3, 0.7))
            for _ in range(2)
        ]
        pc = product.build_product(seeds)
        params = css.kunneth_parameters(pc, 1)
        if params.k >= 1 and params.n <= 40 and (params.d or 0) >= 3:
            return css.assemble_css(pc, 1)
    # deterministic fallback: mixed-length circulant product, d = 3
    pc = product.build_product(
        [classical.cyclic_repetition_check(3), classical.cyclic_repetition_check(4)]
    )
    return css.assemble_css(pc, 1)


def test_criterion_06_transversal_nogo():
    with criterion(6, "transversal diagonal survey stays within the Clifford group"):
        start = time.monotonic()
        rng = random.Random(99)
        for code in [toric_code(2, 3), _random_hgp_with_distance_3(rng)]:
            report = diagonal.transversal_nogo_harness(code, 3)
            assert report.all_preserve
            assert report.max_level <= 2, f"hierarchy bound broken: {report}"
        assert time.monotonic() - start < 300.0


def test_criterion_07_toric_cnz_yes_go():
    with criterion(7, "toric C^(t-1)Z circuits verify at levels 3 and 2"):
        start = time.monotonic()
        ccz = toric_cnz.build_bundle(3, 2)
        assert ccz.code.n * ccz.copies == 72
        assert toric_cnz.verify_invariance(ccz)
        ver3 = toric_cnz.verify_logical_cnz(ccz)
        assert ver3.verified and ver3.level == 3
        cz = toric_cnz.build_bundle(2, 3)
        assert toric_cnz.verify_invariance(cz)
        ver2 = toric_cnz.verify_logical_cnz(cz)
        assert ver2.verified and ver2.level == 2
        assert time.monotonic() - start < 600.0


def test_criterion_08_hierarchy_oracle():
    with criterion(8, "closed-form level equals iterated truth-table differences"):
        rng = random.Random(4242)

        def table(f):
            return tuple(f.evaluate(x) for x in range(1 << f.nvars))

        def level_tt(f):
            mod = f.modulus
            units = [1 << i for i in range(f.nvars)]
            memo = {}

            def rec(t):
                if t in memo:
                    return memo[t]
                if len(set(t)) == 1:
                    memo[t] = 0
                    return 0
                memo[t] = 1 + max(
                    rec(tuple((t[x ^ g] - t[x]) % mod for x in range(len(t))))
                    for g in units
                )
                return memo[t]

            return rec(table(f))

        for _ in range(500):
            nvars = rng.randrange(1, 7)
            m = rng.randrange(1, 4)
            terms = {}
            for _ in range(rng.randrange(1, 6)):
                mono = frozenset(rng.sample(range(nvars), rng.randrange(0, min(nvars, 3) + 1)))
                terms[mono] = rng.randrange(1 << m)
            f = diagonal.PhasePolynomial(nvars, m, terms)
            assert diagonal.hierarchy_level(f) == level_tt(f)


def test_criterion_09_bk_cascade_replay():
    with criterion(9, "group-commutator cascade reaches a correctable bound at j=2"):
        code = toric_code(2, 3)
        basis = css.canonical_logical_basis(code)
        model = diagonal.transversal_model()
        # two-representative strategy: dodge the canonical hyperplane
        rep = basis.x_reps[0]
        alt = css.alternative_representative(code, rep, [rep.hyperplane(code.level)])
        report = diagonal.bk_cascade(code, [rep, alt], model)
        assert report.concluded_level == 2
        assert report.steps[1].support == ()
        # crossing canonical pair: the bound is the single crossing qubit
        report = diagonal.bk_cascade(code, [basis.x_reps[0], basis.z_reps[0]], model)
        assert report.concluded_level == 2
        assert len(report.steps[1].support) == 1
        assert correctability.is_correctable(code, report.steps[1].support)


def test_criterion_10_symbolic_vs_state_vector():
    with criterion(10, "symbolic preservation equals the explicit projector check"):
        rng = random.Random(31337)
        codes = [toric_code(2, 2)]
        while len(codes) < 4:
            seeds = [random_matrix(rng, rng.randrange(1, 4), rng.randrange(1, 4)) for _ in range(2)]
            pc = product.build_product(seeds)
            code = css.assemble_css(pc, 1)
            if code.n <= 12:
                codes.append(code)

        checked = 0
        while checked < 50:
            code = codes[checked % len(codes)]
            m = rng.randrange(1, 4)
            terms = {}
            for _ in range(rng.randrange(1, 5)):
                mono = frozenset(rng.sample(range(code.n), rng.randrange(1, 4)))
                terms[mono] = rng.randrange(1 << m)
            f = diagonal.PhasePolynomial(code.n, m, terms)
            assert bool(diagonal.preserves_codespace(f, code)) == coset_oracle(code, f)
            checked += 1


@st.composite
def code_and_circuit_text(draw):
    """One or two copies of a small level-1 product code (n * copies <= 12)
    and a circuit file over their qubits: random PHASE, CZ, CCZ and CNZ
    lines, and sometimes the PHASE lines of Z-type stabilizers, which always
    preserve the codespace."""
    copies = draw(st.sampled_from([1, 2]))
    size = 3 if copies == 1 else 2
    seeds = [draw(seed_matrices(1, size)) for _ in range(2)]
    code = css.assemble_css(product.build_product(seeds), 1)
    assume(code.n * copies <= 12)
    m = draw(st.integers(1, 3))
    qubits = st.integers(0, code.n * copies - 1)
    lines = [f"MOD {m}"]
    for row in draw(st.lists(st.sampled_from(code.hz.bits), max_size=2)) if code.hz.rows else []:
        shift = code.n * draw(st.integers(0, copies - 1))
        lines += [f"PHASE {1 << (m - 1)} {q + shift}" for q in f2la.indices_of(row)]
    for _ in range(draw(st.integers(0, 3))):
        gate = draw(st.sampled_from(["PHASE", "CZ", "CCZ", "CNZ"]))
        if gate == "PHASE":
            lines.append(f"PHASE {draw(st.integers(-4, 8))} {draw(qubits)}")
            continue
        arity = {"CZ": 2, "CCZ": 3}.get(gate) or draw(st.integers(1, 4))
        if arity > code.n * copies:
            continue
        gate_qubits = draw(st.lists(qubits, min_size=arity, max_size=arity, unique=True))
        lines.append(" ".join([gate, *map(str, gate_qubits)]))
    return code, copies, "\n".join(lines) + "\n"


@settings(max_examples=150, deadline=None)
@given(code_and_circuit_text())
def test_parsed_circuits_preserve_the_codespace_as_the_coset_oracle_says(case):
    """Circuit text through parse_circuit_text, the renumbering onto every
    copy's qubits and preserves_codespace, as verify-diagonal runs them."""
    code, copies, text = case
    f = diagonal.parse_circuit_text(text).renumber(0, code.n * copies)
    assert bool(diagonal.preserves_codespace(f, code, copies=copies)) == coset_oracle(
        code, f, copies
    )
