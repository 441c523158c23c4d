"""Tests for the toric C^(t-1)Z constructions and their verification."""

import hashlib
import itertools
import random

import pytest

from hgpforge import classical, css, diagonal, f2la, product, toric_cnz

from helpers import cnz_layer_gates, column_supports, renormalized


class TestBuildToric:
    @pytest.mark.parametrize(
        "t,length,n,k,d_x,d_z",
        [
            (2, 3, 18, 2, 3, 3),
            (2, 2, 8, 2, 2, 2),
            (3, 2, 24, 3, 4, 2),
        ],
    )
    def test_parameters(self, t, length, n, k, d_x, d_z):
        code = toric_cnz.build_toric(t, length)
        assert (code.n, code.k) == (n, k)
        brute = css.brute_distance(code)
        assert (brute.d_x, brute.d_z) == (d_x, d_z)

    def test_rejects_bad_dimension(self):
        with pytest.raises(ValueError):
            toric_cnz.build_toric(1, 3)
        with pytest.raises(ValueError):
            toric_cnz.build_toric(2, 1)

    @pytest.mark.parametrize(
        "build", [toric_cnz.build_toric, toric_cnz.build_cnz_circuit, toric_cnz.build_bundle]
    )
    def test_a_dimension_above_the_product_limit_is_refused_naming_t(self, build):
        t = product.MAX_DIMENSION + 1
        message = f"product dimension t >= 2 and <= {product.MAX_DIMENSION}, not {t}"
        with pytest.raises(ValueError, match=message):
            build(t, 2)


class TestCircuit:
    def test_counts_before_cancellation(self):
        # 8 cells x 6 paths = 48 CCZ monomials at t=3, L=2
        circuit = toric_cnz.build_cnz_circuit(3, 2)
        assert len(circuit) == 48
        assert all(len(mono) == 3 for mono, _ in circuit.terms())

    def test_counts_2d(self):
        # 4 cells x 2 paths = 8 CZ monomials at t=2, L=2
        circuit = toric_cnz.build_cnz_circuit(2, 2)
        assert len(circuit) == 8

    def test_degenerate_torus_allowed(self):
        # L=1 is legal: each path still selects one qubit per copy, and the
        # copy labels keep the two path monomials distinct (duplicate gates,
        # when they do coincide, cancel mod 2 as the layer is built)
        circuit = toric_cnz.build_cnz_circuit(2, 1)
        assert circuit.nvars == 4
        assert len(circuit) == 2

    def test_one_qubit_per_copy(self):
        circuit = toric_cnz.build_cnz_circuit(3, 2)
        n = 24
        for mono, _ in circuit.terms():
            copies = sorted(q // n for q in mono)
            assert copies == [0, 1, 2]

    @pytest.mark.parametrize(
        "t, length", [(2, 1), (2, 2), (2, 3), (2, 5), (3, 2), (3, 3), (4, 2), (4, 3)]
    )
    def test_layer_matches_one_built_through_flat_index(self, t, length):
        # copy i acts on the edge along sigma(i) leaving cell + e_S, S the
        # directions stepped before it: coordinates cell + e_S + e_sigma(i)
        # (periodic) in the sector of sigma(i)
        pc = product.build_product([classical.cyclic_repetition_check(length)] * t)
        n = pc.dim(1)
        gates = []
        for cell in itertools.product(range(length), repeat=t):
            for sigma in itertools.permutations(range(t)):
                qubits = []
                for copy, direction in enumerate(sigma):
                    stepped = set(sigma[: copy + 1])
                    coords = [(c + (d in stepped)) % length for d, c in enumerate(cell)]
                    mu = pc.tables[1].index_of((direction,))
                    qubits.append(copy * n + product.flat_index(pc, 1, mu, coords))
                gates.append((1, tuple(qubits)))
        expected = diagonal.poly_from_circuit(gates, 1, nvars=t * n)
        assert toric_cnz.build_cnz_circuit(t, length, pc=pc) == expected
        assert toric_cnz.build_cnz_circuit(t, length) == expected

    @pytest.mark.parametrize(
        "t, length", [(2, 1), (2, 2), (2, 5), (3, 1), (3, 2), (3, 3), (4, 2), (5, 1)]
    )
    def test_layer_equals_the_tuple_gate_builder(self, t, length):
        # the layer fills its terms directly; normalizing them again, or
        # building it gate by gate through poly_from_circuit, changes nothing
        layer = toric_cnz.build_cnz_circuit(t, length)
        gates = cnz_layer_gates(t, length)
        assert layer == diagonal.poly_from_circuit(gates, 1, nvars=layer.nvars)
        assert layer._terms == renormalized(layer)

    @pytest.mark.parametrize(
        "t, length, digest",
        [
            (2, 64, "382ded1d2bdd1bbe577a631d20fd76494893321956b0a5692b511261fb5fbe19"),
            (3, 8, "74b56e9347fe28383f7b7122923e90805fb11d3393fe75d41c84388fa8baf740"),
            (4, 3, "58ee147be3880734db8c04f3810adca363dc956ee3dae1e0d2c583a0ce8577b8"),
            (6, 2, "ad687db99586e52aa84345ac473f849cbe91b972b14a03ddc8c42050271ca048"),
        ],
    )
    def test_the_circuit_text_is_pinned_byte_for_byte(self, t, length, digest):
        # sha256 of the uncommented circuit text, as `toric-cnz -o` writes
        # it below its comment line
        text = diagonal.format_circuit_text(toric_cnz.build_cnz_circuit(t, length))
        assert hashlib.sha256(text.encode("ascii")).hexdigest() == digest

    def test_physical_level_is_t(self):
        for t, length in [(2, 2), (2, 3), (3, 2)]:
            circuit = toric_cnz.build_cnz_circuit(t, length)
            assert diagonal.hierarchy_level(circuit) == t


class TestInvariance:
    @pytest.mark.parametrize("t,length", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3)])
    def test_holds(self, t, length):
        bundle = toric_cnz.build_bundle(t, length)
        assert toric_cnz.verify_invariance(bundle)

    def test_deleting_one_gate_breaks_it(self):
        bundle = toric_cnz.build_bundle(3, 2)
        terms = dict(bundle.circuit._terms)
        removed = next(iter(sorted(terms, key=sorted)))
        del terms[removed]
        broken = diagonal.PhasePolynomial(bundle.circuit.nvars, 1, terms)
        res = diagonal.preserves_codespace(broken, bundle.code, copies=3)
        assert not res.preserves
        assert res.violating_copy is not None and res.violating_row is not None

    def test_zero_circuit_trivially_invariant(self):
        bundle = toric_cnz.build_bundle(2, 2)
        zero = diagonal.poly_zero(bundle.circuit.nvars, 1)
        assert diagonal.preserves_codespace(zero, bundle.code, copies=2)

    def test_every_generator_individually(self):
        # invariance is established per stabilizer generator, not in aggregate
        bundle = toric_cnz.build_bundle(2, 3)
        code, f = bundle.code, bundle.circuit
        basis = code.x_domain_basis()
        kdim = len(basis)
        per_qubit = column_supports(basis, code.n)
        images = [
            tuple(c * kdim + j for j in cols) for c in range(bundle.copies) for cols in per_qubit
        ]
        udim = bundle.copies * kdim
        for c in range(bundle.copies):
            for r in range(code.hx.rows):
                d = diagonal.difference(f, code.hx.bits[r] << (c * code.n))
                assert diagonal.substitute(d, images, udim).is_zero()


class TestLogicalAction:
    def test_ccz_pattern_t3(self):
        bundle = toric_cnz.build_bundle(3, 2)
        ver = toric_cnz.verify_logical_cnz(bundle)
        assert ver.verified
        assert ver.level == 3
        k = bundle.code.k
        # exactly the six permutation triples, nothing else
        perms = {
            frozenset(copy * k + cls for copy, cls in enumerate(p))
            for p in itertools.permutations(range(3))
        }
        got = {frozenset(m) for m, c in ver.logical_poly.terms()}
        assert got == perms

    def test_cz_pattern_t2(self):
        bundle = toric_cnz.build_bundle(2, 3)
        ver = toric_cnz.verify_logical_cnz(bundle)
        assert ver.verified
        assert ver.level == 2
        got = {tuple(sorted(m)) for m, _ in ver.logical_poly.terms()}
        # class i is the sector-i plane; coupled pairs take one class per copy
        # with distinct fixed directions
        assert got == {(0, 3), (1, 2)}

    def test_zero_circuit_fails_verification(self):
        bundle = toric_cnz.build_bundle(2, 2)
        zero_bundle = toric_cnz.ToricBundle(
            2, 2, 2, bundle.code, diagonal.poly_zero(bundle.circuit.nvars, 1)
        )
        ver = toric_cnz.verify_logical_cnz(zero_bundle)
        assert not ver.verified
        assert ver.logical_poly.is_zero()

    def test_logical_level_attains_t(self):
        for t, length in [(2, 2), (2, 3), (3, 2), (3, 3)]:
            bundle = toric_cnz.build_bundle(t, length)
            ver = toric_cnz.verify_logical_cnz(bundle)
            assert ver.verified and ver.level == t

    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("t, length", [(2, 3), (3, 2)])
    def test_layer_written_at_a_higher_modulus_keeps_level_t(self, t, length, m):
        # the same gates under a MOD m header carry 2^(m-1) each: the layer
        # still preserves the codespace, its logical action is 2^(m-1) times
        # the m = 1 action, and the level is still t
        bundle = toric_cnz.build_bundle(t, length)
        text = diagonal.format_circuit_text(bundle.circuit)
        assert text.startswith("MOD 1\n")
        layer = diagonal.parse_circuit_text(f"MOD {m}\n" + text[len("MOD 1\n"):])
        layer = layer.renumber(0, bundle.circuit.nvars)
        assert set(layer._terms.values()) == {1 << (m - 1)}
        assert diagonal.preserves_codespace(layer, bundle.code, copies=t)
        action = diagonal.logical_action(layer, bundle.code, copies=t)
        base = diagonal.logical_action(bundle.circuit, bundle.code, copies=t)
        assert action.modulus_log2 == m
        assert action.terms() == [(mono, c << (m - 1)) for mono, c in base.terms()]
        assert diagonal.hierarchy_level(action) == t == diagonal.hierarchy_level(base)

    def test_logical_polynomial_pointwise_oracle(self):
        # semantic check of logical_action: evaluating the physical phase at
        # x = L a + G b (per copy) must equal the logical polynomial at a,
        # for random logical assignments and stabilizer dressings
        rng = random.Random(71)
        for t, length in [(2, 3), (3, 2)]:
            bundle = toric_cnz.build_bundle(t, length)
            code = bundle.code
            basis = css.canonical_logical_basis(code)
            l_rows = [rep.pauli.x for rep in basis.x_reps]
            g_rows = code.hx.bits
            poly = diagonal.logical_action(bundle.circuit, code, copies=bundle.copies)
            for _ in range(50):
                a_bits = rng.getrandbits(code.k * bundle.copies)
                x = 0
                for c in range(bundle.copies):
                    block = 0
                    for j in range(code.k):
                        if (a_bits >> (c * code.k + j)) & 1:
                            block ^= l_rows[j]
                    for row in g_rows:
                        if rng.random() < 0.5:
                            block ^= row
                    x |= block << (c * code.n)
                assert bundle.circuit.evaluate(x) == poly.evaluate(a_bits)


class TestExpectedMonomials:
    def test_t3_has_six(self):
        bundle = toric_cnz.build_bundle(3, 2)
        assert len(toric_cnz.expected_logical_monomials(bundle)) == 6

    def test_t2_has_two(self):
        bundle = toric_cnz.build_bundle(2, 3)
        assert len(toric_cnz.expected_logical_monomials(bundle)) == 2


class TestExactPattern:
    def test_extra_logical_term_fails_verification(self):
        # Z on every qubit of copy 0's first canonical Z representative still
        # preserves the codespace but adds the linear logical term (0,).
        bundle = toric_cnz.build_bundle(3, 2)
        z_rep = css.canonical_logical_basis(bundle.code).z_reps[0]
        extra = diagonal.poly_from_circuit(
            [(1, (q,)) for q in sorted(z_rep.pauli.support)], 1, nvars=bundle.circuit.nvars
        )
        dressed = toric_cnz.ToricBundle(3, 2, 3, bundle.code, bundle.circuit + extra)
        assert toric_cnz.verify_invariance(dressed)
        ver = toric_cnz.verify_logical_cnz(dressed)
        assert ((0,), 1) in ver.logical_poly.terms()
        assert ver.level == 3 and not ver.missing
        assert not ver.verified
