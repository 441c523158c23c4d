"""Tests for phase polynomials, hierarchy levels, and codespace checks."""

import itertools
import random
import types

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hgpforge import classical, css, diagonal, f2la, product, toric_cnz
from hgpforge.css import PauliOperator
from hgpforge.diagonal import (
    CircuitSupportModel,
    PhasePolynomial,
    bk_cascade,
    commutator_support_bound,
    difference,
    hierarchy_level,
    kernel_mod_power_of_two,
    logical_action,
    poly_from_circuit,
    preserves_codespace,
    substitute,
    transversal_model,
    transversal_nogo_harness,
)
from hgpforge.f2la import BinaryMatrix

from helpers import column_supports, renormalized, seed_matrices, tuple_images


def toric_code(t, length):
    seeds = [classical.cyclic_repetition_check(length)] * t
    return css.assemble_css(product.build_product(seeds), 1)


def sparse_rows(rows):
    """Dense matrix rows as the {column: entry} mappings the kernel reads."""
    return [{j: x for j, x in enumerate(row) if x} for row in rows]


def dense_rows(rows, ncols):
    """Sparse {column: entry} rows expanded back to dense ncols-tuples."""
    return [tuple(row.get(j, 0) for j in range(ncols)) for row in rows]


def set_mixed_logical_basis(bare, code, rng):
    """Give bare (code's checks) a different logical basis: dress each
    representative with random stabilizers and mix pairs so that the pairing
    stays the identity.  X logicals that share qubits give the pullback
    monomials of several a-variables."""
    basis = css.canonical_logical_basis(code)
    xs = [rep.pauli.x for rep in basis.x_reps]
    zs = [rep.pauli.z for rep in basis.z_reps]
    for _ in range(len(xs)):
        i, j = rng.randrange(len(xs)), rng.randrange(len(xs))
        if i != j:
            xs[i] ^= xs[j]
            zs[j] ^= zs[i]
    xs = [x ^ f2la.row_combination(code.hx, rng.getrandbits(code.hx.rows)) for x in xs]
    zs = [z ^ f2la.row_combination(code.hz, rng.getrandbits(code.hz.rows)) for z in zs]
    bare.set_logical_basis(
        [PauliOperator(code.n, x=x) for x in xs], [PauliOperator(code.n, z=z) for z in zs]
    )


def truth_table(f):
    return tuple(f.evaluate(x) for x in range(1 << f.nvars))


def random_poly(rng, nvars, m, nterms=None):
    mod = 1 << m
    terms = {}
    for _ in range(nterms if nterms is not None else rng.randrange(1, 6)):
        size = rng.randrange(0, min(nvars, 3) + 1)
        mono = frozenset(rng.sample(range(nvars), size))
        terms[mono] = rng.randrange(mod)
    return PhasePolynomial(nvars, m, terms)


def table_is_constant(table):
    return len(set(table)) == 1


def table_difference(table, g, mod):
    return tuple((table[x ^ g] - table[x]) % mod for x in range(len(table)))


def level_by_truth_tables(f, unit_only=True):
    """Oracle: iterated differences on value tables; constants are level 0.

    Unit-vector differences suffice because a difference along g XOR g' is a
    shifted difference along g plus one along g', and levels only drop under
    shifts and sums; the full-vector recursion is cross-checked separately.
    """
    mod = f.modulus
    n = f.nvars
    gs = [1 << i for i in range(n)] if unit_only else list(range(1, 1 << n))
    memo = {}

    def rec(table):
        if table in memo:
            return memo[table]
        if table_is_constant(table):
            memo[table] = 0
            return 0
        memo[table] = max(rec(table_difference(table, g, mod)) for g in gs) + 1
        return memo[table]

    return rec(truth_table(f))


class TestPolyFromCircuit:
    def test_single_ccz(self):
        f = poly_from_circuit([(1, (0, 1, 2))], 1)
        assert f.terms() == [((0, 1, 2), 1)]

    def test_t_gate(self):
        coeff = diagonal.z_rotation_coeff(3, 3)
        f = poly_from_circuit([(coeff, (0,))], 3)
        assert f.terms() == [((0,), 1)]

    def test_empty_circuit(self):
        f = poly_from_circuit([], 1)
        assert f.is_zero()

    def test_modulus_too_small(self):
        with pytest.raises(ValueError, match="too small"):
            diagonal.z_rotation_coeff(3, 2)

    def test_repeated_qubit_rejected(self):
        with pytest.raises(ValueError, match="repeated"):
            poly_from_circuit([(1, (0, 0))], 1)

    def test_duplicate_gates_cancel(self):
        f = poly_from_circuit([(1, (0, 1)), (1, (0, 1))], 1)
        assert f.is_zero()

    @pytest.mark.parametrize(
        "gates, nvars, message",
        [
            ([(1, (0, 0))], None, "repeated qubit in gate (0, 0)"),
            ([(1, [2, 1, 2])], None, "repeated qubit in gate (2, 1, 2)"),
            ([(1, (x for x in (4, 4)))], None, "repeated qubit in gate (4, 4)"),
            ([(1, (-1, 2))], None, "monomial variable out of range"),
            ([(1, (-1,))], None, "monomial variable out of range"),
            ([(1, (0, 3))], 3, "monomial variable out of range"),
            ([(1, (2,))], -1, "nvars must be >= 0"),
            # every gate is read before the variable range is checked
            ([(1, (0, 5)), (1, (1, 1))], 3, "repeated qubit in gate (1, 1)"),
        ],
    )
    def test_error_messages(self, gates, nvars, message):
        with pytest.raises(ValueError) as err:
            poly_from_circuit(gates, 1, nvars=nvars)
        assert str(err.value) == message

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_sums_the_gates_as_the_constructor_does(self, data):
        m = data.draw(st.integers(1, 4))
        nvars = data.draw(st.integers(1, 7))
        gate = st.tuples(
            st.integers(-20, 20), st.sets(st.integers(0, nvars - 1), max_size=3).map(tuple)
        )
        gates = data.draw(st.lists(gate, max_size=8))
        summed = {}
        for coeff, qubits in gates:
            summed[frozenset(qubits)] = summed.get(frozenset(qubits), 0) + coeff
        f = poly_from_circuit(gates, m, nvars=nvars)
        assert f == PhasePolynomial(nvars, m, summed)
        assert f._terms == renormalized(f)

    @pytest.mark.parametrize("variable", [0.5, 1.0, True, "1", None])
    def test_a_variable_that_is_not_an_int_is_refused(self, variable):
        message = f"monomial variable {variable!r} is not an int"
        with pytest.raises(ValueError) as err:
            PhasePolynomial(3, 1, {(variable, 2): 1})
        assert str(err.value) == message
        with pytest.raises(ValueError) as err:
            poly_from_circuit([(1, (0, 1)), (1, (2, variable))], 1, nvars=3)
        assert str(err.value) == message
        with pytest.raises(ValueError) as err:
            poly_from_circuit([(1, (variable,))], 1)
        assert str(err.value) == message

    def test_every_stored_variable_is_written_back_as_read(self):
        # the parser refused `CZ 0.5 1`, which a stored 0.5 used to write
        f = PhasePolynomial(3, 1, {(2, 1): 1, (0,): 1})
        assert diagonal.parse_circuit_text(diagonal.format_circuit_text(f)) == f

    def test_constructor_sums_keys_naming_one_monomial(self):
        f = PhasePolynomial(2, 2, {(0, 1): 1, (1, 0): 1})
        assert f.terms() == [((0, 1), 2)]
        assert PhasePolynomial(2, 1, {(0, 1): 1, (1, 0): 1}).is_zero()

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_constructor_circuit_and_sum_agree_on_permuted_keys(self, data):
        # keys that name one monomial in different orders are summed by the
        # constructor, as poly_from_circuit sums gates and __add__ sums terms
        m = data.draw(st.integers(1, 4))
        nvars = data.draw(st.integers(1, 6))
        mono = st.sets(st.integers(0, nvars - 1), max_size=3).map(sorted).flatmap(st.permutations)
        pairs = data.draw(st.lists(st.tuples(mono.map(tuple), st.integers(-20, 20)), max_size=8))
        keyed = dict(pairs)  # a repeated key keeps its last coefficient, as a literal does
        f = PhasePolynomial(nvars, m, keyed)
        assert f == poly_from_circuit([(c, key) for key, c in keyed.items()], m, nvars=nvars)
        total = PhasePolynomial(nvars, m)
        for key, c in keyed.items():
            total = total + PhasePolynomial(nvars, m, {key: c})
        assert f == total
        assert f._terms == renormalized(f)


class TestDifference:
    def test_ccz_reduces_to_cz(self):
        f = poly_from_circuit([(1, (0, 1, 2))], 1)
        d = difference(f, 0b001)
        # oracle: truth-table comparison over the 2^3 inputs
        table = truth_table(f)
        expected = table_difference(table, 0b001, 2)
        assert truth_table(d) == expected
        assert d.terms() == [((1, 2), 1)]

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_agrees_with_evaluate_at_every_point_and_shift(self, data):
        m = data.draw(st.integers(1, 4))
        nvars = data.draw(st.integers(1, 6))
        monomials = st.frozensets(st.integers(0, nvars - 1), max_size=3)
        terms = data.draw(st.dictionaries(monomials, st.integers(0, (1 << m) - 1), max_size=6))
        f = PhasePolynomial(nvars, m, terms)
        values = [f.evaluate(x) for x in range(1 << nvars)]
        for g in range(1 << nvars):
            d = difference(f, g)
            for x in range(1 << nvars):
                assert d.evaluate(x) == (values[x ^ g] - values[x]) % (1 << m)

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_a_unit_shift_is_nonzero_exactly_when_a_monomial_holds_it(self, data):
        # x_v -> 1 - x_v turns c*x_S (v in S) into c*x_{S-v} - 2c*x_S: the
        # first term lacks v and the second holds it, so nothing cancels.
        m = data.draw(st.integers(1, 4))
        nvars = data.draw(st.integers(1, 8))
        monomials = st.frozensets(st.integers(0, nvars - 1), max_size=4)
        terms = data.draw(st.dictionaries(monomials, st.integers(0, (1 << m) - 1), max_size=8))
        g = PhasePolynomial(nvars, m, terms)
        v = data.draw(st.integers(0, nvars - 1))
        held = any(v in mono for mono, _ in g.terms())
        assert (not difference(g, 1 << v).is_zero()) == held

    def test_zero_shift(self):
        f = random_poly(random.Random(1), 4, 3)
        assert difference(f, 0).is_zero()

    @pytest.mark.parametrize("nvars, m", [(0, 1), (1, 1), (3, 2), (5, 4), (6, 8)])
    def test_a_term_free_polynomial_differs_by_zero_along_every_vector(self, nvars, m):
        f = PhasePolynomial(nvars, m)
        for g in range(1 << nvars):
            d = difference(f, g)
            assert d.is_zero() and (d.nvars, d.modulus_log2) == (nvars, m)
            assert d == diagonal.poly_zero(nvars, m)

    @pytest.mark.parametrize("nvars", [0, 1, 4])
    def test_a_term_free_polynomial_still_refuses_a_vector_that_does_not_fit(self, nvars):
        f = PhasePolynomial(nvars, 2)
        for g in (-1, 1 << nvars, (1 << (nvars + 3)) - 1):
            with pytest.raises(ValueError, match="difference vector does not fit the variable count"):
                difference(f, g)

    def test_linear_gives_constant(self):
        f = PhasePolynomial(3, 3, {frozenset((0,)): 3, frozenset((2,)): 5})
        d = difference(f, 0b101)
        assert all(len(mono) <= 1 for mono, _ in d.terms())
        # at m=3 the non-constant remainders carry doubled coefficients
        tt = truth_table(d)
        assert tt == table_difference(truth_table(f), 0b101, 8)

    def test_exactness_on_randoms(self):
        # mirrors the module invariant: nvars up to 10, random g, pointwise
        rng = random.Random(2)
        for _ in range(60):
            nvars = rng.randrange(1, 7)
            m = rng.randrange(1, 4)
            f = random_poly(rng, nvars, m)
            g = rng.getrandbits(nvars)
            assert truth_table(difference(f, g)) == table_difference(
                truth_table(f), g, 1 << m
            )
        for _ in range(6):
            f = random_poly(rng, 10, 2)
            g = rng.getrandbits(10)
            assert truth_table(difference(f, g)) == table_difference(
                truth_table(f), g, 4
            )


class TestHierarchyLevel:
    @pytest.mark.parametrize(
        "terms,m,expected",
        [
            ({frozenset((0, 1, 2)): 1}, 1, 3),  # CCZ
            ({frozenset((0, 1)): 1}, 1, 2),  # CZ
            ({frozenset((0,)): 1}, 1, 1),  # Z
            ({frozenset((0,)): 2}, 3, 2),  # S
            ({frozenset((0,)): 1}, 3, 3),  # T
            ({frozenset((0,)): 4}, 3, 1),  # Z at m=3
            ({frozenset(): 5}, 3, 0),  # constant
            ({}, 2, 0),
        ],
    )
    def test_named_gates(self, terms, m, expected):
        nvars = 3
        assert hierarchy_level(PhasePolynomial(nvars, m, terms)) == expected

    def test_degree_reduction_property(self):
        rng = random.Random(3)
        for _ in range(80):
            f = random_poly(rng, rng.randrange(1, 6), rng.randrange(1, 4))
            g = rng.getrandbits(f.nvars)
            d = difference(f, g)
            if not d.is_constant():
                assert hierarchy_level(d) <= hierarchy_level(f) - 1

    def test_closed_form_matches_truth_tables(self):
        rng = random.Random(4)
        for _ in range(120):
            f = random_poly(rng, rng.randrange(1, 6), rng.randrange(1, 4))
            assert hierarchy_level(f) == level_by_truth_tables(f)

    def test_unit_recursion_equals_full_recursion(self):
        rng = random.Random(5)
        for _ in range(40):
            f = random_poly(rng, 3, rng.randrange(1, 4))
            assert level_by_truth_tables(f, unit_only=True) == level_by_truth_tables(
                f, unit_only=False
            )


class TestSubstitute:
    def test_pointwise_agreement(self):
        rng = random.Random(6)
        for _ in range(50):
            nvars = rng.randrange(1, 5)
            m = rng.randrange(1, 4)
            new_nvars = rng.randrange(1, 6)
            f = random_poly(rng, nvars, m)
            images = [
                tuple(sorted(rng.sample(range(new_nvars), rng.randrange(0, new_nvars + 1))))
                for _ in range(nvars)
            ]
            sub = substitute(f, images, new_nvars)
            for u in range(1 << new_nvars):
                x = 0
                for i, img in enumerate(images):
                    bit = 0
                    for j in img:
                        bit ^= (u >> j) & 1
                    x |= bit << i
                assert sub.evaluate(u) == f.evaluate(x)

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_agrees_with_evaluate_at_every_point(self, data):
        m = data.draw(st.integers(1, 4))
        nvars = data.draw(st.integers(1, 6))
        new_nvars = data.draw(st.integers(1, 6))
        monomials = st.frozensets(st.integers(0, nvars - 1), max_size=3)
        terms = data.draw(st.dictionaries(monomials, st.integers(0, (1 << m) - 1), max_size=6))
        f = PhasePolynomial(nvars, m, terms)
        # repeated entries and empty images included; an image is read as a set
        image = st.lists(st.integers(0, new_nvars - 1), max_size=4).map(tuple)
        images = data.draw(st.lists(image, min_size=nvars, max_size=nvars))
        sub = substitute(f, images, new_nvars)
        for y in range(1 << new_nvars):
            x = 0
            for i, img in enumerate(images):
                x |= (sum((y >> j) & 1 for j in set(img)) & 1) << i
            assert sub.evaluate(y) == f.evaluate(x)

    def test_out_of_range_image_of_a_used_variable_raises(self):
        f = PhasePolynomial(2, 2, {frozenset((1,)): 1})
        for bad in ((0, 3), (-1,)):
            with pytest.raises(ValueError, match="image variable out of range"):
                substitute(f, [(0,), bad], 3)

    def test_out_of_range_mask_image_of_a_used_variable_raises(self):
        f = PhasePolynomial(2, 2, {frozenset((1,)): 1})
        for bad in (0b1001, -1, -2):
            with pytest.raises(ValueError, match="image variable out of range"):
                substitute(f, [0b1, bad], 3)
        assert substitute(f, [-1, 0b100], 3) == PhasePolynomial(3, 2, {frozenset((2,)): 1})

    def test_image_of_an_unused_variable_is_never_read(self):
        class Unread:
            def __iter__(self):
                raise AssertionError("image of an unused variable was read")

        f = PhasePolynomial(2, 2, {frozenset((1,)): 1})
        expected = PhasePolynomial(3, 2, {frozenset((2,)): 1})
        assert substitute(f, [Unread(), (2,)], 3) == expected
        assert substitute(f, [(99,), (2,)], 3) == expected

    def test_empty_image_kills_variable(self):
        f = PhasePolynomial(2, 2, {frozenset((0, 1)): 1})
        sub = substitute(f, [(), (0,)], 1)
        assert sub.is_zero()

    @staticmethod
    def branch_peak(f, images):
        """Most branches any monomial's expansion holds, found by running the
        expansion on the room each branch has left."""
        peak = 0
        for mono, c in f._terms.items():
            rooms = [f.modulus_log2 + 1 - (c & -c).bit_length()]
            peak = max(peak, 1)
            for v in sorted(mono):
                img = sorted(set(images[v]))
                rooms = [
                    room + 1 - size
                    for room in rooms
                    for size in range(1, len(img) + 1)
                    for _ in itertools.combinations(img, size)
                    if size <= room
                ]
                peak = max(peak, len(rooms))
        return peak

    def test_the_branch_cap_admits_exactly_the_largest_expansion(self, monkeypatch):
        # odd coefficients at m = 3 keep three sizes open per factor, where a
        # product of the factors' subset counts overstates the branches
        rng = random.Random(16)
        f = PhasePolynomial(2, 3, {frozenset((0, 1)): 1})
        assert self.branch_peak(f, [(0, 1, 2), (3, 4, 5)]) == 42 < 7 * 7
        cases = [(f, [(0, 1, 2), (3, 4, 5)], 6)]
        for _ in range(40):
            nvars, new_nvars = rng.randrange(1, 5), rng.randrange(1, 7)
            g = random_poly(rng, nvars, 3)
            if g.is_zero():
                continue
            images = [rng.sample(range(new_nvars), rng.randrange(new_nvars + 1)) for _ in range(nvars)]
            cases.append((g, images, new_nvars))
        for g, images, new_nvars in cases:
            peak = self.branch_peak(g, images)
            monkeypatch.setattr(diagonal, "MAX_TERM_BRANCHES", peak)
            substitute(g, images, new_nvars)
            monkeypatch.setattr(diagonal, "MAX_TERM_BRANCHES", peak - 1)
            with pytest.raises(ValueError, match=f"above the cap of {peak - 1}"):
                substitute(g, images, new_nvars)

    def test_renumber_embeds_copies(self):
        f = poly_from_circuit([(1, (0, 2))], 1)
        g = f.renumber(5, 10)
        assert g.terms() == [((5, 7), 1)]
        assert g.nvars == 10


def substitute_by_subsets(f, images, new_nvars):
    """The pullback with every term expanded subset by subset: the XOR of an
    image's distinct entries is the sum over its nonempty subsets T of
    (-2)^(|T|-1) * product(T), and a branch is pruned once its coefficient's
    valuation reaches m.  `substitute` folds the terms of coefficient
    2^(m-1) mod 2 instead and must give the same polynomial."""
    if len(images) != f.nvars:
        raise ValueError("need one image per variable")
    m = f.modulus_log2
    reach = {}
    for mono, c in f._terms.items():
        for v in mono:
            reach[v] = max(reach.get(v, 0), m + 1 - (c & -c).bit_length())
    subsets = {}
    for v, depth in reach.items():
        img = sorted(set(images[v]))
        if img and (img[0] < 0 or img[-1] >= new_nvars):
            raise ValueError("image variable out of range")
        subsets[v] = [
            (size, sum(1 << j for j in t))
            for size in range(1, min(depth, len(img)) + 1)
            for t in itertools.combinations(img, size)
        ]
    out = {}
    for mono, c in f._terms.items():
        branches = [(0, c, m + 1 - (c & -c).bit_length())]
        for v in sorted(mono):
            branches = [
                (acc | mask, (coeff if size & 1 else -coeff) << (size - 1), room + 1 - size)
                for acc, coeff, room in branches
                for size, mask in subsets[v]
                if size <= room
            ]
        for acc, coeff, _ in branches:
            out[acc] = out.get(acc, 0) + coeff
    return PhasePolynomial(
        new_nvars, m, {frozenset(f2la.indices_of(acc)): c for acc, c in out.items()}
    )


def outcome(fn, *args):
    """fn's result, or the type and message of the ValueError it raised."""
    try:
        return fn(*args)
    except ValueError as exc:
        return ValueError, str(exc)


class TestSubstituteAgainstSubsetExpansion:
    """`substitute` pulls terms of coefficient 2^(m-1) back mod 2 and every
    other term by its subset expansion; the reference expands every term."""

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_agrees_with_the_subset_expansion(self, data):
        m = data.draw(st.integers(1, 5), label="m")
        half = 1 << (m - 1)
        nvars = data.draw(st.integers(1, 5), label="nvars")
        new_nvars = data.draw(st.integers(1, 7), label="new_nvars")
        # few variables, so folded and expanded terms share them; the empty
        # monomial is the constant term
        monomials = st.frozensets(st.integers(0, nvars - 1), max_size=4)
        coeffs = st.one_of(st.just(half), st.integers(0, (1 << m) - 1))
        terms = data.draw(st.dictionaries(monomials, coeffs, max_size=8), label="terms")
        f = PhasePolynomial(nvars, m, terms)
        # repeated and overlapping entries; an image is read as a set
        image = st.lists(st.integers(0, new_nvars - 1), max_size=5).map(tuple)
        images = data.draw(st.lists(image, min_size=nvars, max_size=nvars), label="images")
        assert substitute(f, images, new_nvars) == substitute_by_subsets(f, images, new_nvars)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_out_of_range_images_raise_the_same_error(self, data):
        m = data.draw(st.integers(1, 3))
        nvars, new_nvars = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
        monomials = st.frozensets(st.integers(0, nvars - 1), max_size=3)
        terms = data.draw(st.dictionaries(monomials, st.integers(0, (1 << m) - 1), max_size=5))
        f = PhasePolynomial(nvars, m, terms)
        image = st.lists(st.integers(-1, new_nvars), max_size=3).map(tuple)
        images = data.draw(st.lists(image, min_size=nvars, max_size=nvars))
        assert outcome(substitute, f, images, new_nvars) == outcome(
            substitute_by_subsets, f, images, new_nvars
        )

    # Folded terms are grouped by their head, every variable but the last
    # two; each entry of the second-to-last image keys the XOR of the last
    # images.  A case is (terms as a function of 2^(m-1), images).
    SHARED = [(0, 1, 2, 1), (1, 3, 4), (0, 4, 2)]
    FOLDED_BESIDE_EXPANDED = {
        # x0 leads the folded term and sits in an odd term, which lists its
        # subsets of every size; the fold multiplies in singletons only
        "odd-term-holds-the-prefix": (lambda half: {(0, 1): half, (0,): 1}, SHARED),
        # the folded term's last variable sits in the odd term
        "odd-term-holds-the-last": (lambda half: {(0, 1): half, (1,): 1}, SHARED),
        # a head shared by a folded term and a term of valuation m - 2
        "shared-prefix": (lambda half: {(0, 1, 2): half, (0, 1): half // 2, (0, 2): 3}, SHARED),
        # three folded terms of head (0,) merge into one group; (1, 2, 3)
        # has head (1,)
        "shared-head": (
            lambda half: {(0, 1, 2): half, (0, 1, 3): half, (0, 2, 3): half, (1, 2, 3): half,
                          (0, 1): 1},
            [(0, 1), (1, 3), (3, 4), (0, 4, 2)],
        ),
        # x1 and x2 have one image, so (0, 1, 3) and (0, 2, 3) key the same
        # entries with the same form and cancel; (0, 1, 2) is left
        "keys-cancel-across-variables": (
            lambda half: {(0, 1, 3): half, (0, 2, 3): half, (0, 1, 2): half, (0, 1): 1},
            [(0, 2), (1, 3), (3, 1), (2, 4, 0)],
        ),
        # degree 1 joins the empty head under key 0 beside the degree-2
        # keys; degrees 3 and 4 have heads (0,) and (0, 1)
        "degrees-one-to-four": (
            lambda half: {(0,): half, (2,): half, (1, 2): half, (0, 3): half, (0, 1, 2): half,
                          (0, 1, 2, 3): half, (0, 1): 1},
            [(0, 1, 2), (2, 3), (1, 4), (0, 4)],
        ),
        # the head's images share entries with both folded variables', so a
        # branch | key or | bit repeats a bit
        "overlapping-images": (
            lambda half: {(0, 1, 2): half, (0, 1, 3): half, (1, 2, 3): half, (0, 2): half,
                          (0, 1): 1},
            [(0, 1, 2), (1, 2, 3), (0, 2, 4), (0, 1, 4)],
        ),
        # an empty second-to-last image leaves its group's map empty, and an
        # empty last image keys a zero form
        "empty-images": (
            lambda half: {(0, 1, 2): half, (0, 2, 3): half, (1, 3): half, (1, 2): half,
                          (0, 1): 1},
            [(0, 1), (), (2, 3), (1, 4)],
        ),
    }

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("case", list(FOLDED_BESIDE_EXPANDED))
    def test_a_folded_term_sharing_variables_with_an_expanded_one(self, m, case):
        terms, images = self.FOLDED_BESIDE_EXPANDED[case]
        half = 1 << (m - 1)
        f = PhasePolynomial(len(images), m, {frozenset(mono): c for mono, c in terms(half).items()})
        sub = substitute(f, images, 5)
        assert sub == substitute_by_subsets(f, images, 5)
        for y in range(1 << 5):
            x = sum((sum((y >> j) & 1 for j in set(img)) & 1) << i for i, img in enumerate(images))
            assert sub.evaluate(y) == f.evaluate(x)

    @pytest.mark.parametrize(
        "gates, images",
        [
            # two CZ gates whose last qubits have the same image: their
            # linear forms XOR to zero, so the empty head is never expanded
            ([(0, 1), (0, 2)], [(0, 1), (2, 3), (3, 2, 3)]),
            # x2 and x3 have one image, so (0, 1, 2) and (0, 1, 3) key the
            # same forms and cancel, and so do (2, 4) and (3, 4)
            ([(0, 1, 2), (0, 1, 3), (2, 4), (3, 4)], [(0, 1), (1, 2), (2, 3), (3, 2), (0, 3)]),
        ],
        ids=["two-cz", "two-groups"],
    )
    def test_folded_terms_that_cancel_leave_nothing(self, gates, images):
        f = poly_from_circuit([(2, qubits) for qubits in gates], 2, nvars=len(images))
        assert substitute(f, images, 4).is_zero()
        assert substitute_by_subsets(f, images, 4).is_zero()

    @pytest.mark.parametrize("t, length", [(2, 3), (2, 4), (3, 2), (3, 3), (4, 2)])
    def test_toric_layers_at_every_modulus(self, t, length):
        bundle = toric_cnz.build_bundle(t, length)
        masks, _, nvars, _ = diagonal._images(bundle.code, t)
        images = tuple_images(bundle.code, t)[0]
        for m in (1, 2, 3):
            layer = PhasePolynomial(
                bundle.circuit.nvars, m, dict.fromkeys(bundle.circuit._terms, 1 << (m - 1))
            )
            assert substitute(layer, masks, nvars) == substitute_by_subsets(layer, images, nvars)


class TestMaskImages:
    """`substitute` reads an int image as the mask of its entries: mask and
    index-tuple images give the same polynomial, or the same error."""

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_masks_equal_their_index_tuples(self, data):
        m = data.draw(st.integers(1, 4), label="m")
        nvars = data.draw(st.integers(1, 4), label="nvars")
        new_nvars = data.draw(st.integers(1, 5), label="new_nvars")
        monomials = st.frozensets(st.integers(0, nvars - 1), max_size=3)
        coeffs = st.integers(0, (1 << m) - 1)
        f = PhasePolynomial(nvars, m, data.draw(st.dictionaries(monomials, coeffs, max_size=6)))
        # -1 and new_nvars are out of range; a mask cannot hold -1, so an
        # image holding it becomes a negative mask
        image = st.lists(st.integers(-1, new_nvars), max_size=4).map(tuple)
        tuples = data.draw(st.lists(image, min_size=nvars, max_size=nvars), label="tuples")
        masks = [
            -data.draw(st.integers(1, 8)) if -1 in img else f2la.vector_from_indices(img)
            for img in tuples
        ]
        mixed = [data.draw(st.sampled_from((img, mask))) for img, mask in zip(tuples, masks)]
        expected = outcome(substitute, f, tuples, new_nvars)
        assert outcome(substitute, f, masks, new_nvars) == expected
        assert outcome(substitute, f, mixed, new_nvars) == expected


class TestImageMasks:
    """`_images` reads each qubit's image off transpose(L) and transpose(G)
    as one mask; the reference lists its variables from the column supports
    of L and of the G rows."""

    @staticmethod
    def assert_masks_match(code, bare):
        if bare:
            code = css.CssCode(code.hx, code.hz)
        for copies in (1, 2, 3):
            masks, *rest = diagonal._images(code, copies)
            images, *expected = tuple_images(code, copies)
            assert rest == expected
            assert list(masks) == [f2la.vector_from_indices(img) for img in images]

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_masks_match_the_tuple_images(self, data):
        seeds = data.draw(st.lists(seed_matrices(1, 4), min_size=2, max_size=3), label="seeds")
        pc = product.build_product(seeds)
        code = css.assemble_css(pc, data.draw(st.integers(1, pc.t - 1), label="level"))
        self.assert_masks_match(code, data.draw(st.booleans(), label="bare"))

    @pytest.mark.parametrize("t, length", [(2, 3), (3, 2), (3, 3)])
    @pytest.mark.parametrize("bare", [False, True])
    def test_toric_masks(self, t, length, bare):
        self.assert_masks_match(toric_code(t, length), bare)


class TestPreservesCodespace:
    def test_zero_polynomial(self):
        code = toric_code(2, 2)
        assert preserves_codespace(diagonal.poly_zero(code.n, 1), code)

    def test_single_ccz_on_one_block_fails(self):
        code = toric_code(2, 3)
        f = poly_from_circuit([(1, (0, 1, 2))], 1, nvars=code.n)
        res = preserves_codespace(f, code)
        assert not res.preserves
        assert res.violating_copy == 0
        assert 0 <= res.violating_row < code.hx.rows

    def test_z_stabilizer_pattern_preserves(self):
        code = toric_code(2, 3)
        for m in (1, 2, 3):
            row = code.hz.bits[0]
            f = PhasePolynomial(
                code.n,
                m,
                {frozenset((q,)): 1 << (m - 1) for q in f2la.indices_of(row)},
            )
            assert preserves_codespace(f, code)

    def test_z_logical_preserves_and_acts(self):
        code = toric_code(2, 3)
        basis = css.canonical_logical_basis(code)
        zrep = basis.z_reps[0].pauli
        for m in (1, 3):
            f = PhasePolynomial(
                code.n,
                m,
                {frozenset((q,)): 1 << (m - 1) for q in f2la.indices_of(zrep.z)},
            )
            assert preserves_codespace(f, code)
            action = logical_action(f, code)
            # logical Z on the paired logical qubit: one linear term
            assert action.terms() == [((0,), 1 << (m - 1))]
            assert hierarchy_level(action) == 1

    def test_state_vector_agreement(self):
        # semantic oracle over all basis states: the phase must be constant
        # on every coset of rowspace(Hx) inside ker Hz
        rng = random.Random(7)
        code = toric_code(2, 2)  # n = 8
        kernel = [0]
        for b in code.x_domain_basis():
            kernel += [v ^ b for v in kernel]
        stab = [0]
        for b in f2la.rref(code.hx).nonzero_rows():
            stab += [v ^ b for v in stab]
        seen, cosets = set(), []
        for v in kernel:
            if v not in seen:
                coset = [v ^ s for s in stab]
                seen.update(coset)
                cosets.append(coset)

        def oracle(f):
            return all(len({f.evaluate(x) for x in coset}) == 1 for coset in cosets)

        agree = 0
        for _ in range(60):
            m = rng.randrange(1, 4)
            f = random_poly(rng, code.n, m, nterms=rng.randrange(1, 5))
            expected = oracle(f)
            assert bool(preserves_codespace(f, code)) == expected
            agree += 1
        assert agree == 60


class TestLiteralProjector:
    def test_matrix_level_preservation_check(self):
        # Literal 2^n projector oracle on a tiny code: builds Pi and the
        # diagonal U as dense complex matrices and compares Pi U Pi with
        # U Pi entrywise.  The symbolic verdict must match.
        rng = random.Random(12)
        a = BinaryMatrix.from_rows(["11"])  # 1x2 seed
        b = BinaryMatrix.from_rows(["1", "1"])  # 2x1 seed
        code = css.assemble_css(product.build_product([a, b]), 1)
        assert code.n == 5
        dim = 1 << code.n
        kernel = [0]
        for v in code.x_domain_basis():
            kernel += [x ^ v for x in kernel]
        stab = [0]
        for v in f2la.rref(code.hx).nonzero_rows():
            stab += [x ^ v for x in stab]
        seen, cosets = set(), []
        for v in kernel:
            if v not in seen:
                coset = sorted({v ^ s for s in stab})
                seen.update(coset)
                cosets.append(coset)
        proj = [[0.0] * dim for _ in range(dim)]
        for coset in cosets:
            amp = 1.0 / len(coset)
            for x in coset:
                for y in coset:
                    proj[x][y] += amp

        import cmath

        for _ in range(12):
            m = rng.randrange(1, 4)
            f = random_poly(rng, code.n, m, nterms=rng.randrange(1, 4))
            phases = [
                cmath.exp(1j * cmath.pi * f.evaluate(x) / (1 << (m - 1)))
                for x in range(dim)
            ]
            u_proj = [[phases[x] * proj[x][y] for y in range(dim)] for x in range(dim)]
            pup = [
                [
                    sum(proj[x][z] * u_proj[z][y] for z in range(dim) if proj[x][z])
                    for y in range(dim)
                ]
                for x in range(dim)
            ]
            literal = all(
                abs(pup[x][y] - u_proj[x][y]) < 1e-9
                for x in range(dim)
                for y in range(dim)
            )
            assert bool(preserves_codespace(f, code)) == literal


class TestLogicalAction:
    def test_identity_on_bare_code(self):
        n = 4
        code = css.CssCode(BinaryMatrix.zeros(0, n), BinaryMatrix.zeros(0, n))
        code.set_logical_basis(
            [PauliOperator(n, x=1 << i) for i in range(n)],
            [PauliOperator(n, z=1 << i) for i in range(n)],
        )
        rng = random.Random(8)
        for _ in range(20):
            f = random_poly(rng, n, rng.randrange(1, 4))
            f = PhasePolynomial(
                n, f.modulus_log2, {m: c for m, c in f._terms.items() if m}
            )
            assert logical_action(f, code) == f

    def test_zero_polynomial(self):
        code = toric_code(2, 3)
        out = logical_action(diagonal.poly_zero(code.n, 1), code)
        assert out.is_zero() and out.nvars == code.k

    def test_copies_inference_mismatch(self):
        code = toric_code(2, 2)
        f = diagonal.poly_zero(code.n + 1, 1)
        with pytest.raises(ValueError, match="infer"):
            preserves_codespace(f, code)


class TestCircuitText:
    def test_round_trip(self):
        text = "MOD 3\nPHASE 1 0\nCZ 1 2\nCCZ 0 1 2\nCNZ 0 1 2 3\n"
        f = diagonal.parse_circuit_text(text)
        assert f.modulus_log2 == 3
        assert f.coefficient((0,)) == 1
        assert f.coefficient((1, 2)) == 4
        assert f.coefficient((0, 1, 2)) == 4
        assert f.coefficient((0, 1, 2, 3)) == 4
        out = diagonal.format_circuit_text(f)
        assert diagonal.parse_circuit_text(out) == f

    @pytest.mark.parametrize(
        "bad",
        ["", "CZ 0 1", "MOD 0\n", "MOD 2\nCZ 0\n", "MOD 2\nWAT 1\n", "MOD 2\nPHASE 1\n"],
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            diagonal.parse_circuit_text(bad)

    @pytest.mark.parametrize("header", ["MODX 2", "MODULUS 2", "mod 2", "MOD2", "2"])
    def test_the_header_token_must_be_mod(self, header):
        with pytest.raises(ValueError) as err:
            diagonal.parse_circuit_text(f"{header}\nCZ 0 1\n")
        assert str(err.value) == "circuit file must start with a 'MOD m' header"

    def test_a_header_without_a_modulus(self):
        with pytest.raises(ValueError) as err:
            diagonal.parse_circuit_text("# comment\nMOD\nCZ 0 1\n")
        assert str(err.value) == "bad circuit header 'MOD'"

    @pytest.mark.parametrize(
        "text, message",
        [
            ("MOD 1\nCZ 3 3\n", "repeated qubit in gate (3, 3)"),
            ("MOD 1\nPHASE 1 -2\n", "monomial variable out of range"),
            ("MOD 1\nCNZ 0 -1 4\n", "monomial variable out of range"),
        ],
    )
    def test_gate_errors(self, text, message):
        with pytest.raises(ValueError) as err:
            diagonal.parse_circuit_text(text)
        assert str(err.value) == message

    def test_unrepresentable_coefficient(self):
        f = PhasePolynomial(3, 3, {frozenset((0, 1)): 3})
        with pytest.raises(ValueError, match="coefficient"):
            diagonal.format_circuit_text(f)


def _read_circuit_line(line, modulus_log2):
    """The (monomial, coefficient) term a circuit line adds, its gate name
    checked against its degree."""
    op, *args = line.split()
    values = tuple(map(int, args))
    if op == "PHASE":
        return (values[1],), values[0]
    assert op == {2: "CZ", 3: "CCZ"}.get(len(values), "CNZ"), line
    return values, diagonal.controlled_z_coeff(modulus_log2)


class TestCircuitWriter:
    def test_a_constant_is_reported_before_a_bad_multi_qubit_coefficient(self):
        f = PhasePolynomial(4, 2, {(0, 1): 1, (2,): 3, (): 1})
        with pytest.raises(ValueError) as err:
            diagonal.format_circuit_text(f)
        assert str(err.value) == "constant phase terms are not representable"

    def test_the_first_bad_term_in_degree_then_tuple_order_is_named(self):
        # inserted last, (1, 2) still comes first: lower degree than (0, 5, 6)
        # and a lower tuple than (3, 4); (0, 1) is a good CZ
        f = PhasePolynomial(
            8, 2, {(0, 5, 6): 1, (3, 4): 3, (0, 1): 2, (7,): 1, (1, 2): 1}
        )
        with pytest.raises(ValueError) as err:
            diagonal.format_circuit_text(f)
        assert str(err.value) == "multi-qubit term (1, 2) has coefficient 1, not 2^(m-1)"

    def test_the_lines_of_a_pure_layer(self):
        f = PhasePolynomial(12, 1, {(9, 10, 11): 1, (0, 4, 8): 1, (0, 3, 11): 1})
        text = diagonal.format_circuit_text(f, comment="two\nlines")
        assert text == "# two\n# lines\nMOD 1\nCCZ 0 3 11\nCCZ 0 4 8\nCCZ 9 10 11\n"

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_lines_follow_terms_and_parse_back(self, data):
        m = data.draw(st.integers(1, 4))
        nvars = data.draw(st.integers(2, 12))
        variables = st.integers(0, nvars - 1)
        phases = data.draw(
            st.dictionaries(st.tuples(variables), st.integers(1, (1 << m) - 1), max_size=6)
        )
        gates = data.draw(
            st.lists(st.frozensets(variables, min_size=2, max_size=6), max_size=10)
        )
        terms = {**phases, **dict.fromkeys(gates, diagonal.controlled_z_coeff(m))}
        f = PhasePolynomial(nvars, m, terms)
        text = diagonal.format_circuit_text(f)
        head, *lines = text.splitlines()
        assert head == f"MOD {m}" and text.endswith("\n")
        # terms() is by degree, then by tuple, as a key sort gives it
        assert f.terms() == sorted(f._terms.items(), key=lambda item: (len(item[0]), item[0]))
        assert [_read_circuit_line(line, m) for line in lines] == f.terms()
        assert diagonal.parse_circuit_text(text).renumber(0, nvars) == f


class TestSupportCalculus:
    def test_transversal_disjoint(self):
        model = transversal_model()
        assert commutator_support_bound({0, 1}, {2, 3}, model) == frozenset()

    def test_toric_crossing_is_single_qubit(self):
        code = toric_code(2, 3)
        basis = css.canonical_logical_basis(code)
        x0 = basis.x_reps[0].pauli.support
        z0 = basis.z_reps[0].pauli.support
        crossing = commutator_support_bound(x0, z0, transversal_model())
        assert len(crossing) == 1
        assert crossing == frozenset(x0) & frozenset(z0)

    def test_constant_depth_spread(self):
        spread = lambda qs: {q + 10 for q in qs}
        model = CircuitSupportModel(diagonal.CONSTANT_DEPTH, spread_map=spread)
        out = commutator_support_bound({0, 1, 2}, {1, 2, 9}, model)
        assert out == frozenset({1, 2, 11, 12})

    def test_transversal_cannot_declare_spread(self):
        with pytest.raises(ValueError, match="transversal circuits cannot spread supports"):
            CircuitSupportModel(diagonal.TRANSVERSAL, spread_map=lambda qs: {q + 1 for q in qs})

    def test_constant_depth_without_a_spread_map_keeps_supports(self):
        model = CircuitSupportModel(diagonal.CONSTANT_DEPTH)
        assert model.image({3, 1}) == frozenset({1, 3})
        assert commutator_support_bound({0, 1, 2}, {1, 2, 9}, model) == frozenset({1, 2})

    def test_cascade_two_representative_strategy(self):
        code = toric_code(2, 3)
        basis = css.canonical_logical_basis(code)
        rep = basis.x_reps[0]
        alt = css.alternative_representative(
            code, rep, [rep.hyperplane(code.level)]
        )
        report = bk_cascade(code, [rep, alt], transversal_model())
        assert report.concluded_level == 2
        assert report.steps[1].support == ()
        assert report.conclusion == "U in P_2"

    def test_cascade_crossing_pair(self):
        code = toric_code(2, 3)
        basis = css.canonical_logical_basis(code)
        report = bk_cascade(
            code, [basis.x_reps[0], basis.z_reps[0]], transversal_model()
        )
        assert report.concluded_level == 2
        assert len(report.steps[1].support) == 1

    def test_cascade_concludes_at_a_correctable_first_step(self):
        code = toric_code(2, 3)
        rep = css.canonical_logical_basis(code).x_reps[0]
        report = bk_cascade(code, [PauliOperator(code.n, x=1), rep], transversal_model())
        assert report.concluded_level == 1 and report.conclusion == "U in P_1"
        assert report.steps == (diagonal.CascadeStep(1, (0,), True),)

    def test_cascade_without_a_correctable_step(self):
        # each bound is the logical's own support, which no region may hold
        code = toric_code(2, 3)
        rep = css.canonical_logical_basis(code).x_reps[0]
        report = bk_cascade(code, [rep, rep, rep], transversal_model())
        assert report.concluded_level is None
        assert report.conclusion == "no correctable bound reached"
        support = tuple(sorted(rep.pauli.support))
        assert report.steps == tuple(diagonal.CascadeStep(j, support, False) for j in (1, 2, 3))

    def test_cascade_stops_at_the_first_correctable_step(self):
        code = toric_code(2, 3)
        rep = css.canonical_logical_basis(code).x_reps[0]
        alt = css.alternative_representative(code, rep, [rep.hyperplane(code.level)])
        report = bk_cascade(code, [rep, alt, rep], transversal_model())
        assert report.concluded_level == 2 and report.conclusion == "U in P_2"
        assert [(s.j, s.correctable) for s in report.steps] == [(1, False), (2, True)]
        assert report.steps[1].support == ()

    def test_cascade_empty_reps(self):
        code = toric_code(2, 2)
        with pytest.raises(ValueError):
            bk_cascade(code, [], transversal_model())

    def test_cascade_two_representative_strategy_across_instances(self):
        # the dodge-your-own-hyperplane strategy concludes at j = 2 on every
        # product instance tried, mirroring the transversal Clifford bound
        instances = [toric_code(2, 2), toric_code(2, 3), toric_code(3, 2)]
        mixed = product.build_product(
            [classical.cyclic_repetition_check(3), classical.cyclic_repetition_check(4)]
        )
        instances.append(css.assemble_css(mixed, 1))
        for code in instances:
            basis = css.canonical_logical_basis(code)
            for rep in basis.x_reps:
                alt = css.alternative_representative(
                    code, rep, [rep.hyperplane(code.level)]
                )
                report = bk_cascade(code, [rep, alt], transversal_model())
                assert report.concluded_level == 2


class TestKernelModPowerOfTwo:
    @pytest.mark.parametrize(
        "rows, ncols, m, message",
        [
            ([{0: 1}], 1, 0, "modulus_log2 must be >= 1"),
            ([{0: 1}], 1, -1, "modulus_log2 must be >= 1"),
            ([{0: 1}, {2: 1}], 2, 2, r"row 1 has a column outside \[0, 2\)"),
            ([{-1: 1}], 2, 2, r"row 0 has a column outside \[0, 2\)"),
            ([{}, {0: 1, 5: 3}], 3, 3, r"row 1 has a column outside \[0, 3\)"),
        ],
        ids=["m-zero", "m-negative", "column-ncols", "column-negative", "column-beyond"],
    )
    def test_bad_input_is_refused(self, rows, ncols, m, message):
        with pytest.raises(ValueError, match=message):
            kernel_mod_power_of_two(rows, ncols, m)

    def test_empty_rows_and_the_last_column_are_accepted(self):
        assert kernel_mod_power_of_two([{}, {1: 2}], 2, 2) == [(0, 2), (1, 0)]

    def test_single_congruence(self):
        gens = kernel_mod_power_of_two(sparse_rows([[2]]), 1, 3)
        assert gens == [(4,)]

    def test_sum_congruence(self):
        gens = kernel_mod_power_of_two(sparse_rows([[1, 1]]), 2, 3)
        span = {(0, 0)}
        for g in gens:
            span = {
                tuple((v + lam * gi) % 8 for v, gi in zip(vec, g))
                for vec in span
                for lam in range(8)
            }
        expected = {(a, b) for a in range(8) for b in range(8) if (a + b) % 8 == 0}
        assert span == expected

    def test_random_systems_verified(self):
        rng = random.Random(9)
        for _ in range(30):
            m = rng.randrange(1, 4)
            mod = 1 << m
            ncols = rng.randrange(1, 5)
            nrows = rng.randrange(1, 4)
            rows = [[rng.randrange(mod) for _ in range(ncols)] for _ in range(nrows)]
            gens = kernel_mod_power_of_two(sparse_rows(rows), ncols, m)
            # every generator solves the system
            for g in gens:
                for row in rows:
                    assert sum(r * v for r, v in zip(row, g)) % mod == 0
            # exhaustive count agreement
            count = 0
            for vec in itertools.product(range(mod), repeat=ncols):
                if all(sum(r * v for r, v in zip(row, vec)) % mod == 0 for row in rows):
                    count += 1
            span = {(0,) * ncols}
            for g in gens:
                span = {
                    tuple((x + lam * gi) % mod for x, gi in zip(vec, g))
                    for vec in span
                    for lam in range(mod)
                }
            assert len(span) == count


def list_kernel_mod_power_of_two(rows, ncols, modulus_log2):
    """Reference: the column echelon form with each working column a list of
    residues (M's column, then U's), rewritten entry by entry."""
    mod = 1 << modulus_log2
    nrows = len(rows)
    cols = [
        [row[j] % mod for row in rows] + [int(i == j) for i in range(ncols)]
        for j in range(ncols)
    ]
    gens = []
    low = 1  # 2^a: every M entry left is divisible by it
    while low < mod:
        pivot = next(
            ((j, i) for j, col in enumerate(cols) for i, x in zip(range(nrows), col) if x & low),
            None,
        )
        if pivot is None:
            low <<= 1
            continue
        j, i = pivot
        piv = cols.pop(j)
        inv = pow(piv[i] // low, -1, mod)
        cols = [
            [(x - f * y) % mod for x, y in zip(col, piv)] if (f := col[i] // low * inv) else col
            for col in cols
        ]
        if low > 1:
            gens.append(tuple(v * (mod // low) % mod for v in piv[nrows:]))
    return gens + [tuple(col[nrows:]) for col in cols]


class TestPackedKernelAgainstLists:
    """The packed-lane kernel returns the list-based kernel's tuples exactly:
    the same generators in the same order, not only the same span."""

    def test_random_systems(self):
        rng = random.Random(15)
        seen = set()
        for i in range(800):
            m = 1 + i % 8
            mod = 1 << m
            ncols = rng.randrange(13)
            rows = [
                [rng.randrange(-2 * mod, 2 * mod) for _ in range(ncols)]
                for _ in range(rng.randrange(6))
            ]
            if rows and i % 3 == 1:
                rows[rng.randrange(len(rows))] = [0] * ncols
            if rows and i % 3 == 2:
                rows[rng.randrange(len(rows))] = [2 * rng.randrange(mod) for _ in range(ncols)]
            expected = list_kernel_mod_power_of_two(rows, ncols, m)
            assert kernel_mod_power_of_two(sparse_rows(rows), ncols, m) == expected, (rows, ncols, m)
            seen.add((m, len(rows), ncols))
        assert {m for m, nrows, _ in seen if nrows == 0} == set(range(1, 9))
        assert {ncols for _, _, ncols in seen} == set(range(13))

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_congruence_systems(self, m):
        for code in TestKernelAgainstSmithForm.congruence_codes():
            rows, _, _ = diagonal._preservation_congruences(code, m)
            expected = list_kernel_mod_power_of_two(dense_rows(rows, code.n), code.n, m)
            assert kernel_mod_power_of_two(rows, code.n, m) == expected, (code.n, m)

    def test_lanes_hold_the_largest_products(self):
        # entries 2^m - 1, 2^m - 2 and -1 make clearing factors and column
        # entries up to 2^m - 1, so x + g*y reaches (2^m - 1) * 2^m: a lane
        # one bit narrower than 2m carries into its neighbour
        m = diagonal.MAX_MODULUS_LOG2
        mod = 1 << m
        rng = random.Random(8)
        for _ in range(400):
            ncols = rng.randrange(2, 9)
            rows = [
                [rng.choice((0, mod - 1, mod - 2, -1)) for _ in range(ncols)]
                for _ in range(rng.randrange(1, 5))
            ]
            expected = list_kernel_mod_power_of_two(rows, ncols, m)
            assert kernel_mod_power_of_two(sparse_rows(rows), ncols, m) == expected, rows

    @pytest.mark.parametrize("m", [5, 6, 7, 8, 9, 12])
    def test_byte_lanes_read_every_residue_whole(self, m):
        # m = 5..8 computes in two-byte lanes and reads each residue off its
        # low byte; from m = 9 a residue outgrows that byte (x_0 + x_1 = 0
        # has the generator (2^m - 1, 1), and a low-byte read gives 255), so
        # each lane is read whole
        mod = 1 << m
        assert kernel_mod_power_of_two([{0: 1, 1: 1}], 2, m) == [(mod - 1, 1)]
        rng = random.Random(m)
        largest = 0
        for _ in range(150):
            ncols = rng.randrange(1, 9)
            rows = [
                [rng.choice((0, 1, mod - 1, mod - 2, -1, rng.randrange(mod))) for _ in range(ncols)]
                for _ in range(rng.randrange(5))
            ]
            expected = list_kernel_mod_power_of_two(rows, ncols, m)
            assert kernel_mod_power_of_two(sparse_rows(rows), ncols, m) == expected, rows
            largest = max([largest, *itertools.chain.from_iterable(expected)])
        assert largest == mod - 1


class TestKernelAgainstSmithForm:
    """The column-only kernel against the two-sided Smith form it replaced."""

    @staticmethod
    def smith_form(rows, ncols, m):
        """Reference: diagonalize with row and column operations, tracking the
        column operations in a dense transform.  Returns the valuations a of
        the diagonal entries 2^a < 2^m and the kernel generators."""
        mod = 1 << m
        mat = [[v % mod for v in row] for row in rows]
        nrows = len(mat)
        trans = [[1 if i == j else 0 for j in range(ncols)] for i in range(ncols)]

        def val(x):
            return m if x == 0 else ((x & -x).bit_length() - 1)

        def col_op(dst, src, factor):
            for r in range(nrows):
                mat[r][dst] = (mat[r][dst] + factor * mat[r][src]) % mod
            for r in range(ncols):
                trans[r][dst] = (trans[r][dst] + factor * trans[r][src]) % mod

        def col_swap(a, b):
            for r in range(nrows):
                mat[r][a], mat[r][b] = mat[r][b], mat[r][a]
            for r in range(ncols):
                trans[r][a], trans[r][b] = trans[r][b], trans[r][a]

        diag_vals = []
        pos = 0
        while pos < min(nrows, ncols):
            best = None
            for i in range(pos, nrows):
                for j in range(pos, ncols):
                    v = val(mat[i][j])
                    if v < m and (best is None or v < best[0]):
                        best = (v, i, j)
            if best is None:
                break
            a, bi, bj = best
            mat[pos], mat[bi] = mat[bi], mat[pos]
            if bj != pos:
                col_swap(pos, bj)
            inv = pow(mat[pos][pos] >> a, -1, mod)
            mat[pos] = [(v * inv) % mod for v in mat[pos]]
            for r in range(nrows):
                if r != pos and mat[r][pos]:
                    factor = mat[r][pos] >> a
                    mat[r] = [(x - factor * y) % mod for x, y in zip(mat[r], mat[pos])]
            for j in range(ncols):
                if j != pos and mat[pos][j]:
                    col_op(j, pos, -(mat[pos][j] >> a))
            diag_vals.append(a)
            pos += 1
        gens = [
            tuple((trans[r][i] << (m - a)) % mod for r in range(ncols))
            for i, a in enumerate(diag_vals)
            if a >= 1
        ]
        gens += [tuple(trans[r][j] for r in range(ncols)) for j in range(pos, ncols)]
        return diag_vals, [g for g in gens if any(g)]

    @staticmethod
    def rank_mod_2(rows, ncols):
        bits = [f2la.vector_from_indices(j for j, v in enumerate(row) if v % 2) for row in rows]
        return f2la.rank(BinaryMatrix(len(rows), ncols, bits))

    @staticmethod
    def span(gens, ncols, mod):
        span = {(0,) * ncols}
        for g in gens:
            span = {
                tuple((x + lam * gi) % mod for x, gi in zip(vec, g))
                for vec in span
                for lam in range(mod)
            }
        return span

    def check_counts_and_rows(self, rows, ncols, m):
        gens = kernel_mod_power_of_two(sparse_rows(rows), ncols, m)
        vals, ref = self.smith_form(rows, ncols, m)
        assert len(gens) == len(ref) == ncols - self.rank_mod_2(rows, ncols)
        for g in gens:
            assert len(g) == ncols and all(0 <= v < 1 << m for v in g)
            for row in rows:
                assert sum(r * v for r, v in zip(row, g)) % (1 << m) == 0
        return gens, vals, ref

    def test_random_systems_span_the_exhaustive_solutions(self):
        rng = random.Random(31)
        seen = set()
        for i in range(240):
            m = 1 + i % 4
            mod = 1 << m
            ncols = rng.randrange(1, 12 // m + 1)  # mod**ncols <= 2**12
            rows = [
                [rng.randrange(-2 * mod, 2 * mod) for _ in range(ncols)]
                for _ in range(rng.randrange(0, 5))
            ]
            if rows and i % 3 == 1:
                rows[rng.randrange(len(rows))] = [0] * ncols
            if rows and i % 3 == 2:
                rows[rng.randrange(len(rows))] = [2 * rng.randrange(mod) for _ in range(ncols)]
            gens, _, ref = self.check_counts_and_rows(rows, ncols, m)
            solutions = {
                vec
                for vec in itertools.product(range(mod), repeat=ncols)
                if all(sum(r * v for r, v in zip(row, vec)) % mod == 0 for row in rows)
            }
            assert self.span(gens, ncols, mod) == self.span(ref, ncols, mod) == solutions, i
            seen.add((m, len(rows), len(gens) < ncols))
        assert {m for m, nrows, _ in seen if nrows == 0} == {1, 2, 3, 4}
        assert {m for m, nrows, pivoted in seen if nrows and pivoted} == {1, 2, 3, 4}

    @staticmethod
    def congruence_codes():
        h = classical.hamming_7_4().h
        codes = [toric_code(2, length) for length in (3, 4, 5)]
        codes += [toric_code(3, 3), css.assemble_css(product.build_product([h, f2la.transpose(h)]), 1)]
        rng = random.Random(5)
        for _ in range(4):
            seeds = [
                BinaryMatrix(r, c, [rng.getrandbits(c) for _ in range(r)])
                for r, c in ((rng.randrange(2, 5), rng.randrange(2, 5)) for _ in range(2))
            ]
            codes.append(css.assemble_css(product.build_product(seeds), 1))
        return codes

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_congruence_systems_give_the_solution_module(self, m):
        # the new generators solve M, and the module they span has the order of
        # the solution module, so the two are equal
        for code in self.congruence_codes():
            rows, _, _ = diagonal._preservation_congruences(code, m)
            gens, vals, _ = self.check_counts_and_rows(dense_rows(rows, code.n), code.n, m)
            solution_log2 = sum(vals) + m * (code.n - len(vals))
            span_vals, _ = self.smith_form(gens, code.n, m)
            assert sum(m - b for b in span_vals) == solution_log2, (code.n, m)


class TestNogoHarness:
    def test_toric18_respects_clifford_bound(self):
        code = toric_code(2, 3)
        report = transversal_nogo_harness(code, 3)
        assert report.all_preserve
        assert report.max_level <= 2

    def test_m1_levels_pauli(self):
        code = toric_code(2, 2)
        report = transversal_nogo_harness(code, 1)
        assert report.max_level <= 1

    def test_k_zero_trivial(self):
        pc = product.build_product([BinaryMatrix.identity(2), BinaryMatrix.identity(2)])
        code = css.assemble_css(pc, 1)
        code.set_logical_basis([], [])
        report = transversal_nogo_harness(code, 2)
        assert report.max_level == 0

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_one_level_per_generator(self, m):
        # a combination's level never exceeds its generators' largest, so the
        # survey reads the generators alone: one level each, and no sample
        # count, which the CLI alone echoes
        for code in (toric_code(2, 3), toric_code(3, 2)):
            report = transversal_nogo_harness(code, m)
            assert "sample_count" not in report.to_json()
            assert len(report.levels) == report.generator_count > 0
            assert report.max_level == max(report.levels)

    def test_bare_code_survey_matches_its_product_code(self):
        # a bare code takes its Hx completion to ker Hz as L; the solution
        # module and the hierarchy levels do not depend on that choice
        mixed = product.build_product(
            [classical.cyclic_repetition_check(3), classical.cyclic_repetition_check(4)]
        )
        for code in (toric_code(2, 3), css.assemble_css(mixed, 1)):
            bare = css.CssCode(code.hx, code.hz)
            for m in (1, 2, 3):
                report = transversal_nogo_harness(code, m)
                bare_report = transversal_nogo_harness(bare, m)
                assert bare_report.all_preserve
                assert (bare_report.generator_count, bare_report.max_level) == (
                    report.generator_count, report.max_level
                )

    def test_solution_module_matches_exhaustive_semantics(self):
        # [[8,2,2]] toric, m=2: compare against brute enumeration of all 4^8
        # transversal phase patterns under the coset-constancy semantics
        code = toric_code(2, 2)
        m = 2
        mod = 1 << m
        kernel = [0]
        for b in code.x_domain_basis():
            kernel += [v ^ b for v in kernel]
        stab = [0]
        for b in f2la.rref(code.hx).nonzero_rows():
            stab += [v ^ b for v in stab]
        seen, cosets = set(), []
        for v in kernel:
            if v not in seen:
                coset = [v ^ s for s in stab]
                seen.update(coset)
                cosets.append(coset)

        def phase(c, x):
            return sum(ci for i, ci in enumerate(c) if (x >> i) & 1) % mod

        expected = {
            c
            for c in itertools.product(range(mod), repeat=code.n)
            if all(len({phase(c, x) for x in coset}) == 1 for coset in cosets)
        }
        rows, _, _ = diagonal._preservation_congruences(code, m)
        gens = kernel_mod_power_of_two(rows, code.n, m)
        span = {(0,) * code.n}
        for g in gens:
            span = {
                tuple((x + lam * gi) % mod for x, gi in zip(vec, g))
                for vec in span
                for lam in range(mod)
            }
        assert span == expected

        # level survey completeness: the max over module generators equals
        # the max over every solution (logical action is linear and 2-adic
        # valuations never drop under sums)
        def level_of(c):
            f = PhasePolynomial(
                code.n, m, {frozenset((i,)): ci for i, ci in enumerate(c) if ci}
            )
            return hierarchy_level(logical_action(f, code, copies=1))

        assert max(map(level_of, span)) == max(map(level_of, gens))

    @pytest.mark.parametrize("m", [1, 3])
    def test_a_generator_off_the_module_clears_all_preserve(self, monkeypatch, m):
        # Z on qubit 0 anticommutes with the X stabilizers on it
        code = toric_code(2, 3)
        real = diagonal.kernel_mod_power_of_two
        monkeypatch.setattr(
            diagonal,
            "kernel_mod_power_of_two",
            lambda *args: real(*args) + [(1 << (m - 1),) + (0,) * (code.n - 1)],
        )
        assert not preserves_codespace(
            PhasePolynomial(code.n, m, {(0,): 1 << (m - 1)}), code, copies=1
        )
        assert not transversal_nogo_harness(code, m).all_preserve

    @pytest.mark.parametrize("broken", ["level", "preservation"])
    def test_witness_disagreement_raises(self, monkeypatch, broken):
        # the maximum-level generator goes through the public pair; a level or
        # a verdict that differs from the a-row survey's is an error
        code = toric_code(2, 3)
        if broken == "level":
            real = diagonal.logical_action

            def off_level(f, code, copies=None):
                action = real(f, code, copies)
                return action + PhasePolynomial(action.nvars, action.modulus_log2, {(0,): 1})

            monkeypatch.setattr(diagonal, "logical_action", off_level)
        else:
            monkeypatch.setattr(
                diagonal, "preserves_codespace", lambda *args, **kwargs: diagonal.PreservationResult(False)
            )
        with pytest.raises(AssertionError, match="disagree"):
            transversal_nogo_harness(code, 3)


class TestLinearSurveyDifferential:
    """Each generator's a-row action against `preserves_codespace` and
    `logical_action` on the generator itself, as polynomials."""

    @staticmethod
    def codes():
        # the canonical bases give disjoint X logicals and one-variable
        # actions; the random codes again with mixed bases give monomials of
        # several a-variables
        h = classical.hamming_7_4().h
        codes = [toric_code(2, length) for length in (3, 4, 5)]
        codes += [toric_code(3, 3), css.assemble_css(product.build_product([h, f2la.transpose(h)]), 1)]
        rng = random.Random(13)
        randoms = []
        while len(randoms) < 4:
            seeds = [
                BinaryMatrix(r, c, [rng.getrandbits(c) for _ in range(r)])
                for r, c in ((rng.randrange(2, 5), rng.randrange(2, 6)) for _ in range(2))
            ]
            code = css.assemble_css(product.build_product(seeds), 1)
            if code.k:
                randoms.append(code)
        for code in randoms:
            if code.k > 1:
                bare = css.CssCode(code.hx, code.hz)
                set_mixed_logical_basis(bare, code, rng)
                codes.append(bare)
        return codes + randoms

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_every_action_equals_the_pullback(self, m):
        # the [[58,16,3]] Hamming HGP is among the codes
        compared = several = 0
        hamming = False
        for code in self.codes():
            gens, preserving, levels = diagonal._linear_survey(code, m)
            assert all(preserving) and len(levels) == len(gens)
            _, a_rows, a_total = diagonal._preservation_congruences(code, m)
            hamming |= (code.n, code.k) == (58, 16)
            for sol, level in zip(gens, levels):
                action = reference_action(a_rows, a_total, sol, m)
                f = PhasePolynomial(code.n, m, {(i,): c for i, c in enumerate(sol) if c})
                assert preserves_codespace(f, code, copies=1)
                assert action == logical_action(f, code, copies=1), (code.n, m)
                assert level == hierarchy_level(action), (code.n, m)
                compared += 1
                several += any(len(mono) > 1 for mono, _ in action.terms())
        assert hamming and compared >= 11
        assert several or m == 1

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 4),
        st.lists(
            st.tuples(st.frozensets(st.integers(0, 3)), st.integers(-100, 100)),
            max_size=6,
            unique_by=lambda term: term[0],
        ),
    )
    def test_levels_off_a_vector_agree_with_hierarchy_level(self, m, terms):
        # the survey's levels come from unreduced (|T|, c) pairs; the
        # polynomial reduces mod 2^m, drops zeros and keeps the constant
        f = PhasePolynomial(4, m, dict(terms))
        level = diagonal._level(((len(t), c) for t, c in terms), m)
        assert level == hierarchy_level(f) == level_by_truth_tables(f)


class TestBulkLevels:
    """Every generator's level read at once, from the OR of the a-rows'
    masked packed sums through the byte table, against `_level` of its
    (|T|, (-2)^(|T|-1) * S) pairs, on a-rows and generators the survey is
    patched to read."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, diagonal.MAX_MODULUS_LOG2), st.sampled_from([1, 2]), st.data())
    def test_the_or_of_masked_sums_equals_level(self, m, nbytes, data):
        # a lane holds m + bit_length(widest row) bits in whole bytes, so
        # one-byte lanes need rows narrower than 2^(8-m)
        narrow = (1 << (8 - m)) - 1
        if nbytes == 1:
            assume(narrow >= 1)
            widest = data.draw(st.integers(1, narrow))
        else:
            widest = data.draw(st.integers(narrow + 1, max(narrow + 1, 160)))
        n = widest + data.draw(st.integers(0, 3))
        rng = data.draw(st.randoms(use_true_random=False))
        # a generator's entries are multiples of 2^v, so its lanes reach
        # every valuation and its level varies; v = m gives the zero lane
        valuations = data.draw(st.lists(st.integers(0, m), min_size=1, max_size=5))
        gens = [tuple(rng.randrange(1 << m) >> v << v for _ in range(n)) for v in valuations]
        sizes = data.draw(st.lists(st.integers(1, m), min_size=1, max_size=6))
        a_rows = []
        for i, size in enumerate(sizes):
            count = widest if i == 0 else rng.randint(1, widest)
            qubits = tuple(sorted(rng.sample(range(n), count)))
            a_rows.append((tuple(range(i * m, i * m + size)), qubits))
        assert (m + widest.bit_length() + 7) // 8 == nbytes
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(diagonal, "_preservation_congruences", lambda *args: ([], a_rows, 0))
            patch.setattr(diagonal, "kernel_mod_power_of_two", lambda *args: gens)
            got, _, levels = diagonal._linear_survey(types.SimpleNamespace(n=n), m)
        assert got == gens
        expected = [
            diagonal._level(
                ((len(t), (-2) ** (len(t) - 1) * sum(sol[q] for q in qubits)) for t, qubits in a_rows),
                m,
            )
            for sol in gens
        ]
        assert list(levels) == expected


def reference_action(a_rows, a_total, sol, modulus_log2):
    """Reference: a solution's logical action rebuilt from the a-rows, the
    coefficient (-2)^(|T|-1) * (sum of its entries over T's qubits) on each
    monomial T."""
    terms = {t: (-2) ** (len(t) - 1) * sum(sol[q] for q in qubits) for t, qubits in a_rows}
    return PhasePolynomial(a_total, modulus_log2, terms)


def reference_preserving(rows, gens, modulus_log2):
    """Reference: the rows x generators b-row check over dense rows, as the
    survey made it before its packed lanes."""
    mod = 1 << modulus_log2
    cols = list(zip(*gens))  # qubit i's entry in every generator
    preserving = [True] * len(gens)
    for row in rows:
        support = [i for i, x in enumerate(row) if x]
        for j, total in enumerate(map(sum, zip(*(cols[i] for i in support)))):
            if row[support[0]] * total % mod:
                preserving[j] = False
    return preserving


class TestPackedRowCheck:
    """The survey's packed b-row check against the rows x generators check,
    on generator lists the kernel is patched to return."""

    @staticmethod
    def survey_preserving(monkeypatch, code, m, gens, rows=None):
        if rows is not None:
            monkeypatch.setattr(
                diagonal, "_preservation_congruences", lambda *args: (rows, [], 0)
            )
        monkeypatch.setattr(diagonal, "kernel_mod_power_of_two", lambda *args: gens)
        got, preserving, levels = diagonal._linear_survey(code, m)
        assert got == gens and len(levels) == len(gens)
        return preserving

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_a_non_solution_at_the_first_a_middle_and_the_last_lane(self, monkeypatch, m):
        checked = 0
        for code in TestLinearSurveyDifferential.codes():
            rows, _, _ = diagonal._preservation_congruences(code, m)
            if not rows:
                continue
            gens = kernel_mod_power_of_two(rows, code.n, m)
            dense = dense_rows(rows, code.n)
            # a unit vector on a qubit of a row of weight 2^k < 2^m breaks it
            q = min(rows[len(rows) // 2])
            bad = tuple(int(i == q) for i in range(code.n))
            for at in (0, len(gens) // 2, len(gens)):
                with monkeypatch.context() as patch:
                    trial = gens[:at] + [bad] + gens[at:]
                    preserving = self.survey_preserving(patch, code, m, trial)
                expected = reference_preserving(dense, trial, m)
                assert preserving == expected, (code.n, m, at)
                assert [j for j, ok in enumerate(preserving) if not ok] == [at]
                checked += 1
        assert checked >= 3 * 9

    def test_lanes_hold_the_widest_row_at_the_largest_entries(self, monkeypatch):
        # m = 8: a 15-qubit row sums entries 2^m - 1 to 3825 < 2^12, inside a
        # two-byte lane; times a weight of 2^7 it would spill into the next
        # lane and fail the solution there.  Each row alone checks its
        # weight's mask: 2 on one qubit holds only under the weight 2^7.
        m = diagonal.MAX_MODULUS_LOG2
        top, code = (1 << m) - 1, toric_code(2, 3)
        rows = [dict.fromkeys(range(15), 1 << k) for k in reversed(range(m))]
        rows += [{0: 1 << (m - 1), 1: 1 << (m - 1)}, {16: 1, 17: 1}]
        full, zero = (top,) * 15 + (0,) * 3, (0,) * code.n
        halves = (1 << (m - 1),) * 2 + (0,) * 16
        two = (2,) + (0,) * 17
        gens = [full, zero, full, halves, two, zero, (1,) * 15 + (0, 1, top), full]
        verdicts = []
        for system in [rows] + [[row] for row in rows]:
            with monkeypatch.context() as patch:
                verdicts.append(self.survey_preserving(patch, code, m, gens, system))
            assert verdicts[-1] == reference_preserving(dense_rows(system, code.n), gens, m)
        assert verdicts[0] == [False, True, False, True, False, True, False, False]
        assert verdicts[1] == [False, True, False, True, True, True, False, False]  # weight 2^7


class TestPreservationDifferential:
    """The single-pullback check against the per-generator algorithm.

    The reference substitutes difference(f, row << c*n) for every Hx row
    into the images of a ker Hz basis and reports the first nonzero one.
    """

    @staticmethod
    def per_generator(f, code, copies):
        basis = code.x_domain_basis()
        kdim = len(basis)
        per_qubit = column_supports(basis, code.n)
        images = [tuple(c * kdim + j for j in cols) for c in range(copies) for cols in per_qubit]
        for c in range(copies):
            for r, row in enumerate(code.hx.bits):
                if row == 0:
                    continue
                d = difference(f, row << (c * code.n))
                if not d.is_zero() and not substitute(d, images, copies * kdim).is_zero():
                    return False, c, r
        return True, None, None

    @staticmethod
    def random_code(rng, kind):
        if kind == "hand-built":
            # Hx rows are random words of ker Hz, zero and repeated rows included
            n, nz, nx = rng.randrange(3, 9), rng.randrange(0, 4), rng.randrange(1, 5)
            hz = BinaryMatrix(nz, n, [rng.getrandbits(n) for _ in range(nz)])
            ker = f2la.kernel_basis(hz)
            hx_rows = [f2la.row_combination(ker, rng.getrandbits(ker.rows)) for _ in range(nx)]
            return css.CssCode(BinaryMatrix(nx, n, hx_rows), hz)
        seeds = [
            BinaryMatrix(r, c, [rng.getrandbits(c) for _ in range(r)])
            for r, c in ((rng.randrange(1, 4), rng.randrange(1, 4)) for _ in range(2))
        ]
        code = css.assemble_css(product.build_product(seeds), 1)
        if kind == "product":
            return code
        return css.CssCode(code.hx, code.hz)  # same checks, no complex, no basis

    @staticmethod
    def random_claim(rng, code, copies, m):
        # f(x) = h(parities of x against words of ker Hx) is constant on
        # every X-stabilizer coset; a random extra term usually is not.
        nvars = copies * code.n
        ker_hx = f2la.kernel_basis(code.hx).bits or [0]
        parities = [
            tuple(c * code.n + q for q in f2la.indices_of(rng.choice(ker_hx)))
            for c in (rng.randrange(copies) for _ in range(3))
        ]
        h = random_poly(rng, len(parities), m, nterms=rng.randrange(1, 4))
        f = substitute(h, parities, nvars)
        if rng.random() < 0.6:
            f = f + random_poly(rng, nvars, m, nterms=rng.randrange(1, 3))
        return f

    def test_agrees_with_per_generator_check(self):
        rng = random.Random(2024)
        kinds = ("product", "hand-built", "stripped product")
        counts = {True: 0, False: 0}
        seen_copies, seen_m = set(), set()
        for i in range(300):
            kind = kinds[i % 3]
            code = self.random_code(rng, kind)
            copies, m = rng.randrange(1, 4), rng.randrange(1, 4)
            f = self.random_claim(rng, code, copies, m)
            res = preserves_codespace(f, code, copies=copies)
            expected = self.per_generator(f, code, copies)
            assert (res.preserves, res.violating_copy, res.violating_row) == expected, (i, kind)
            counts[res.preserves] += 1
            seen_copies.add(copies)
            seen_m.add(m)
        assert min(counts.values()) >= 50, counts
        assert seen_copies == seen_m == {1, 2, 3}

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 1 << 32), st.sampled_from(("product", "hand-built", "stripped product")))
    def test_the_violation_is_the_lowest_b_variable_any_monomial_holds(self, seed, kind):
        # Along b-variable j, a monomial c*x_S holding j moves to
        # c*x_{S-j} - 2c*x_S, which cannot cancel, so the first violating
        # copy and G row are read off the pullback's lowest b-variable.
        rng = random.Random(seed)
        code = self.random_code(rng, kind)
        copies, m = rng.randrange(1, 4), rng.randrange(1, 4)
        f = self.random_claim(rng, code, copies, m)
        full, a_total, g_index = diagonal._pullback(f, code, copies)
        lowest = min((v for mono in full._terms for v in mono if v >= a_total), default=None)
        res = preserves_codespace(f, code, copies=copies)
        if lowest is None:
            assert (res.preserves, res.violating_copy, res.violating_row) == (True, None, None)
        else:
            copy, j = divmod(lowest - a_total, len(g_index))
            assert (res.preserves, res.violating_copy, res.violating_row) == (
                False,
                copy,
                g_index[j],
            )


class TestCongruenceDifferential:
    """Congruence rows read off the pullback images against the per-Hx-row
    derivation from subsets of the ker Hz basis column supports."""

    @staticmethod
    def per_hx_row(code, m):
        touching = column_supports(code.x_domain_basis(), code.n)
        rows = []
        for g in code.hx.bits:
            if g == 0:
                continue
            support = f2la.indices_of(g)
            rows.append([1 if i in support else 0 for i in range(code.n)])
            subsets = {}
            for i in support:
                for size in range(1, m):
                    for t in itertools.combinations(touching[i], size):
                        subsets.setdefault(t, []).append(i)
            for t, members in sorted(subsets.items()):
                row = [0] * code.n
                for i in members:
                    row[i] = 1 << len(t)
                rows.append(row)
        return rows

    @staticmethod
    def random_code(rng, kind):
        if kind == "hand-built":
            n, nz, nx = rng.randrange(3, 9), rng.randrange(0, 4), rng.randrange(1, 5)
            hz = BinaryMatrix(nz, n, [rng.getrandbits(n) for _ in range(nz)])
            ker = f2la.kernel_basis(hz)
            hx_rows = [f2la.row_combination(ker, rng.getrandbits(ker.rows)) for _ in range(nx)]
            hx_rows[rng.randrange(nx)] = 0
            hx_rows.append(rng.choice(hx_rows))
            return css.CssCode(BinaryMatrix(len(hx_rows), n, hx_rows), hz)
        t = 3 if kind == "3-factor product" else 2
        top = 2 if t == 3 else 3
        seeds = [
            BinaryMatrix(r, c, [rng.getrandbits(c) for _ in range(r)])
            for r, c in ((rng.randrange(1, top + 1), rng.randrange(1, top + 1)) for _ in range(t))
        ]
        code = css.assemble_css(product.build_product(seeds), rng.randrange(1, t))
        if kind.endswith("product"):
            return code
        bare = css.CssCode(code.hx, code.hz)
        if kind == "stripped product":
            return bare
        set_mixed_logical_basis(bare, code, rng)
        return bare

    @staticmethod
    def satisfies(gens, rows, mod):
        return all(sum(r * g for r, g in zip(row, gen)) % mod == 0 for gen in gens for row in rows)

    def test_same_solution_module_as_per_hx_row_derivation(self):
        rng = random.Random(77)
        kinds = (
            "2-factor product", "3-factor product", "stripped product",
            "hand-built", "logical basis",
        )
        seen = set()
        for i in range(160):
            kind = kinds[i % len(kinds)]
            code = self.random_code(rng, kind)
            m = 1 + (i // len(kinds)) % 4
            mod = 1 << m
            new_rows, _, _ = diagonal._preservation_congruences(code, m)
            new_rows = dense_rows(new_rows, code.n)
            old_rows = self.per_hx_row(code, m)
            new_gens = kernel_mod_power_of_two(sparse_rows(new_rows), code.n, m)
            old_gens = kernel_mod_power_of_two(sparse_rows(old_rows), code.n, m)
            assert self.satisfies(new_gens, old_rows, mod), (i, kind, m)
            assert self.satisfies(old_gens, new_rows, mod), (i, kind, m)
            assert len(new_gens) == len(old_gens), (i, kind, m)
            seen.add((kind, m, code.k > 0))
        assert {(kind, m) for kind, m, _ in seen} == {(k, m) for k in kinds for m in (1, 2, 3, 4)}
        assert {k for _, _, k in seen} == {True, False}


class TestStabilizerCoordinates:
    """G is the independent Hx rows themselves, chosen in row order."""

    @staticmethod
    def build(name):
        if name.startswith("toric t=2 L="):
            return toric_code(2, int(name[len("toric t=2 L="):]))
        if name == "toric t=3 L=3":
            return toric_code(3, 3)
        if name == "hamming hgp":
            h = classical.hamming_7_4().h
            return css.assemble_css(product.build_product([h, f2la.transpose(h)]), 1)
        # toric L=3 checks with a zero row, a repeated row and a row sum mixed in
        toric = toric_code(2, 3)
        rows = toric.hx.bits
        hx = [0, rows[0], rows[1], rows[0], rows[0] ^ rows[1], *rows[2:]]
        return css.CssCode(BinaryMatrix(len(hx), toric.n, hx), toric.hz)

    @pytest.mark.parametrize("name", ["toric t=2 L=8", "toric t=3 L=3", "hamming hgp", "hand-built"])
    def test_g_is_the_independent_hx_rows(self, name):
        code = self.build(name)
        images, a_total, nvars, g_index = diagonal._images(code, 1)
        assert all(a < b for a, b in zip(g_index, g_index[1:]))
        g_rows = [code.hx.bits[g] for g in g_index]
        assert f2la.rank(BinaryMatrix(len(g_rows), code.n, g_rows)) == len(g_rows)
        assert len(g_index) == f2la.rank(code.hx) == nvars - a_total
        column_weights = [len(cols) for cols in column_supports(code.hx.bits, code.n)]
        b_sizes = [(mask >> a_total).bit_count() for mask in images]
        assert all(b <= w for b, w in zip(b_sizes, column_weights))
        if name.startswith("toric"):
            assert max(b_sizes) <= 2
        if name == "hand-built":
            assert g_index[:3] == [1, 2, 5]

    @staticmethod
    def dense_congruence_rows(code, m):
        """Reference: the b-rows as the distinct dense n-tuples, sorted, built
        as the survey built them before its rows were sparse."""
        images, a_total, _, _ = tuple_images(code, 1)
        members = {}
        for i, img in enumerate(images):
            for size in range(1, m + 1):
                for t in itertools.combinations(img, size):
                    members.setdefault(t, []).append(i)
        rows = set()
        for t, qubits in members.items():
            if t[-1] >= a_total:
                row = [0] * code.n
                for i in qubits:
                    row[i] = 1 << (len(t) - 1)
                rows.add(tuple(row))
        return sorted(rows)

    @pytest.mark.parametrize(
        "name",
        [f"toric t=2 L={length}" for length in range(3, 9)]
        + ["toric t=3 L=3", "hamming hgp", "hand-built"],
    )
    def test_congruence_rows_are_distinct_and_sorted(self, name):
        # the sparse rows come in the order of the sorted dense rows, which
        # fixes the kernel's pivots and so its generators
        code = self.build(name)
        for m in (1, 2, 3, 4):
            rows, _, _ = diagonal._preservation_congruences(code, m)
            assert dense_rows(rows, code.n) == self.dense_congruence_rows(code, m), m
        if name == "hamming hgp":
            assert len(rows) == 141  # 286 before duplicates were dropped


class TestImageMemo:
    """Pullbacks through a code's memoised images against a fresh code's.

    An entry is reused only while `code.logicals` is the object it was built
    from, so a basis installed after the first pullback must be picked up.
    """

    @staticmethod
    def build(name):
        if name == "toric t=2 L=3":
            return toric_code(2, 3)
        h = classical.hamming_7_4().h
        return css.assemble_css(product.build_product([h, f2la.transpose(h)]), 1)

    @staticmethod
    def polys(code, copies, rng):
        """Codespace-preserving polynomials per m, plus an S gate that is not.

        Each preserving one is a polynomial in parities against Z logicals,
        so its logical action reads the images' a-coordinates."""
        nvars = copies * code.n
        ker_hx = [w for w in f2la.kernel_basis(code.hx).bits if not code.hz_space.contains(w)]
        out = []
        for m in (1, 2, 3):
            parities = [
                tuple(c * code.n + q for q in f2la.indices_of(rng.choice(ker_hx)))
                for c in (rng.randrange(copies) for _ in range(2))
            ]
            out.append(substitute(random_poly(rng, 2, m, nterms=2), parities, nvars))
        out.append(poly_from_circuit([(1, (nvars - 1,))], 2, nvars=nvars))
        return out

    def assert_matches_fresh(self, code, fresh, seed):
        rng = random.Random(seed)
        verdicts, acting = set(), 0
        for copies in (1, 2, 3):
            images = diagonal._images(code, copies)
            assert images == diagonal._images(fresh(), copies)
            assert diagonal._images(code, copies)[0] is images[0]  # a memo hit
            for f in self.polys(code, copies, rng):
                res = preserves_codespace(f, code, copies)
                assert res == preserves_codespace(f, fresh(), copies), copies
                verdicts.add(res.preserves)
                if res:
                    action = logical_action(f, code, copies)
                    assert action == logical_action(f, fresh(), copies)
                    acting += not action.is_zero()
        assert verdicts == {True, False} and acting

    @pytest.mark.parametrize("name", ["toric t=2 L=3", "hamming hgp"])
    def test_product_codes(self, name):
        self.assert_matches_fresh(self.build(name), lambda: self.build(name), 7)

    def test_bare_code_dressed_after_first_pullback(self):
        toric = toric_code(2, 3)
        basis = css.canonical_logical_basis(toric)
        # every representative times a stabilizer: the same classes, new words
        xs = [
            PauliOperator(toric.n, x=rep.pauli.x ^ toric.hx.bits[i])
            for i, rep in enumerate(basis.x_reps)
        ]
        zs = [
            PauliOperator(toric.n, z=rep.pauli.z ^ toric.hz.bits[i])
            for i, rep in enumerate(basis.z_reps)
        ]

        def bare():
            return css.CssCode(toric.hx, toric.hz)

        def dressed():
            code = bare()
            code.set_logical_basis(xs, zs)
            return code

        code = bare()
        self.assert_matches_fresh(code, bare, 11)
        assert all(
            diagonal._images(code, c)[0] != diagonal._images(dressed(), c)[0] for c in (1, 2, 3)
        )
        code.set_logical_basis(xs, zs)
        self.assert_matches_fresh(code, dressed, 11)


class TestPullbackMemo:
    """One pullback per claim: the last one is kept on the code and served
    to the very same f at the same copy count while `code.logicals` is the
    object it was built from."""

    @staticmethod
    def spy(monkeypatch):
        calls = []
        real = diagonal.substitute
        monkeypatch.setattr(diagonal, "substitute", lambda *args: calls.append(args) or real(*args))
        return calls

    @staticmethod
    def s_on_parity(code, z_rep):
        """S on the parity against a Z logical: logical S on its qubit."""
        parity = [tuple(f2la.indices_of(z_rep.pauli.z))]
        return substitute(PhasePolynomial(1, 2, {frozenset((0,)): 1}), parity, code.n)

    def test_codespace_check_and_action_substitute_once(self, monkeypatch):
        code = toric_code(2, 3)
        f = self.s_on_parity(code, css.canonical_logical_basis(code).z_reps[0])
        calls = self.spy(monkeypatch)
        assert preserves_codespace(f, code)
        assert logical_action(f, code) == PhasePolynomial(2, 2, {frozenset((0,)): 1})
        assert len(calls) == 1

    def test_a_basis_installed_between_the_calls_is_read(self):
        code = toric_code(2, 3)
        basis = css.canonical_logical_basis(code)
        f = self.s_on_parity(code, basis.z_reps[0])
        swapped = ([r.pauli for r in basis.x_reps[::-1]], [r.pauli for r in basis.z_reps[::-1]])
        fresh = toric_code(2, 3)
        fresh.set_logical_basis(*swapped)
        assert preserves_codespace(f, code)
        code.set_logical_basis(*swapped)
        action = logical_action(f, code)
        assert action == logical_action(f, fresh) == PhasePolynomial(2, 2, {frozenset((1,)): 1})

    def test_an_equal_but_distinct_polynomial_misses(self, monkeypatch):
        code = toric_code(2, 3)
        f = self.s_on_parity(code, css.canonical_logical_basis(code).z_reps[0])
        twin = PhasePolynomial(f.nvars, f.modulus_log2, dict(f.terms()))
        assert twin == f and twin is not f
        calls = self.spy(monkeypatch)
        assert preserves_codespace(f, code)
        assert logical_action(twin, code) == PhasePolynomial(2, 2, {frozenset((0,)): 1})
        assert len(calls) == 2

    def test_a_different_copy_count_misses(self):
        code = toric_code(2, 3)
        f = diagonal.poly_zero(2 * code.n, 1)
        assert diagonal._pullback(f, code, 2)[0].nvars == 2 * (code.k + code.rank_hx)
        # the same f read as one copy is substituted again, and refused
        with pytest.raises(ValueError, match="one image per variable"):
            diagonal._pullback(f, code, 1)


class TestSingleNormalization:
    """The producers that skip the public constructor's pass leave ascending
    tuple monomials in range with reduced nonzero coefficients: normalizing
    their terms again changes nothing."""

    def test_permuted_and_repeated_keys_name_one_monomial(self):
        f = PhasePolynomial(3, 2, {(2, 0): 1, (0, 0, 2): 1})
        g = PhasePolynomial(3, 2, {(0, 2): 2})
        assert f == g and hash(f) == hash(g) and f._terms == {(0, 2): 2}
        assert f.coefficient((2, 0, 2)) == f.coefficient([0, 2]) == 2
        assert f.coefficient(frozenset((0, 2))) == 2 and f.coefficient((0,)) == 0

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_coefficient_equality_and_hash_agree_on_any_key_spelling(self, data):
        m, nvars = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 5))
        monos = data.draw(st.lists(st.sets(st.integers(0, nvars - 1), max_size=3), max_size=5))
        coeffs = data.draw(st.lists(st.integers(-9, 9), min_size=len(monos), max_size=len(monos)))
        canonical, total = {}, PhasePolynomial(nvars, m)
        for mono, c in zip(monos, coeffs):
            key = tuple(sorted(mono))
            canonical[key] = canonical.get(key, 0) + c
            # the same term under a permuted key that may repeat its variables
            spelled = data.draw(st.permutations(list(key) * data.draw(st.integers(1, 2))))
            total = total + PhasePolynomial(nvars, m, {tuple(spelled): c})
        f = PhasePolynomial(nvars, m, canonical)
        assert total == f and hash(total) == hash(f)
        for key, c in canonical.items():
            assert f.coefficient(data.draw(st.permutations(list(key) * 2))) == c % (1 << m)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_substitute_and_difference(self, data):
        rng = random.Random(data.draw(st.integers(0, 1 << 30)))
        nvars, m = rng.randrange(1, 7), rng.randrange(1, 5)
        f = random_poly(rng, nvars, m)
        new_nvars = rng.randrange(1, 7)
        images = [rng.getrandbits(new_nvars) for _ in range(nvars)]
        pulled = substitute(f, images, new_nvars)
        assert pulled._terms == renormalized(pulled)
        shifted = difference(f, rng.getrandbits(nvars))
        assert shifted._terms == renormalized(shifted)

    def test_renumber(self):
        f = poly_from_circuit([(1, (0, 2)), (3, (1,))], 2)
        same = f.renumber(0, 3)
        assert same == f and same._terms is f._terms
        wider = f.renumber(0, 7)
        assert wider.nvars == 7 and wider._terms is f._terms
        moved = f.renumber(4, 7)
        assert moved.terms() == [((5,), 3), ((4, 6), 1)]
        assert moved._terms == renormalized(moved)
        with pytest.raises(ValueError, match="monomial variable out of range"):
            f.renumber(0, 2)
        with pytest.raises(ValueError, match="monomial variable out of range"):
            f.renumber(5, 7)

    def test_survey_witness(self, monkeypatch):
        seen = []
        real = diagonal.preserves_codespace
        monkeypatch.setattr(
            diagonal, "preserves_codespace", lambda f, *args, **kw: seen.append(f) or real(f, *args, **kw)
        )
        for m in (1, 2, 3, 4):
            transversal_nogo_harness(toric_code(2, 3), m)
        assert len(seen) == 4
        assert all(f._terms == renormalized(f) and not f.is_zero() for f in seen)

    def test_logical_action_and_the_moving_part(self, monkeypatch):
        bundle = toric_cnz.build_bundle(2, 3)
        action = logical_action(bundle.circuit, bundle.code, copies=2)
        assert action._terms == renormalized(action) and len(action) == 2
        moving = []
        real = diagonal.difference
        monkeypatch.setattr(
            diagonal, "difference", lambda f, g: moving.append(f) or real(f, g)
        )
        terms = dict(bundle.circuit._terms)
        del terms[min(terms, key=sorted)]
        broken = PhasePolynomial(bundle.circuit.nvars, 1, terms)
        assert not preserves_codespace(broken, bundle.code, copies=2)
        assert moving and not moving[0].is_zero()
        assert moving[0]._terms == renormalized(moving[0])
