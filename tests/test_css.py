"""Tests for CSS assembly, parameters, canonical bases, and Pauli algebra."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hgpforge import classical, css, f2la, product
from hgpforge.css import PauliOperator
from hgpforge.f2la import BinaryMatrix
from hgpforge.product import Hyperplane

from helpers import (
    flat_index_tensor_support,
    kind_branch_alternative,
    seed_matrices,
    sector_loop_kunneth,
    two_list_canonical_reps,
)


def random_matrix(rng, rows, cols, density=0.5):
    return BinaryMatrix(
        rows,
        cols,
        [sum(1 << j for j in range(cols) if rng.random() < density) for _ in range(rows)],
    )


def toric_code(t, length):
    seeds = [classical.cyclic_repetition_check(length)] * t
    return css.assemble_css(product.build_product(seeds), 1)


@pytest.fixture(scope="module")
def toric18():
    return toric_code(2, 3)


@pytest.fixture(scope="module")
def toric3d():
    return toric_code(3, 2)


class TestAssemble:
    def test_toric18_parameters(self, toric18):
        assert (toric18.n, toric18.k) == (18, 2)
        d = css.brute_distance(toric18)
        assert (d.d_x, d.d_z, d.d) == (3, 3, 3)

    def test_orthogonality(self, toric18):
        assert f2la.matmul(toric18.hx, f2la.transpose(toric18.hz)).is_zero()

    def test_three_dim(self, toric3d):
        assert (toric3d.n, toric3d.k) == (24, 3)

    def test_degenerate_seed_gives_k_zero(self):
        pc = product.build_product([BinaryMatrix.identity(2), BinaryMatrix.identity(3)])
        code = css.assemble_css(pc, 1)
        assert code.k == 0

    def test_level_out_of_range(self, toric18):
        with pytest.raises(ValueError):
            css.assemble_css(toric18.complex, 2)

    def test_stabilizer_weight(self, toric18):
        assert toric18.stabilizer_weight == 4

    def test_check_bit_cap_is_counted_before_any_map(self, monkeypatch):
        # toric L=3: 18 qubits, so each of the 9 + 9 rows is charged one
        # 64-bit word, and two 3x3 seeds add 9 + 9 bits each: 1152 + 36
        seeds = [classical.cyclic_repetition_check(3)] * 2
        monkeypatch.setattr(css, "MAX_CHECK_BITS", 1187)
        pc = product.build_product(seeds)
        with pytest.raises(ValueError, match="hold 1188 bits, above the cap of 1187"):
            css.assemble_css(pc, 1)
        assert pc._boundaries == {} and pc._transposed == {}
        monkeypatch.setattr(css, "MAX_CHECK_BITS", 1188)
        assert css.assemble_css(product.build_product(seeds), 1).k == 2

    @staticmethod
    def check_bits(seeds, level=1):
        """The bits the cap counts: n (r_x + r_z) with every row at least
        64 bits, plus n_i^2 + m_i^2 per seed."""
        pc = product.build_product(seeds)
        rows = pc.dim(level - 1) + pc.dim(level + 1)
        return max(pc.dim(level), 64) * rows + sum(a.rows**2 + a.cols**2 for a in seeds)

    def test_check_bit_cap_admits_the_largest_codes_in_use(self):
        def toric_bits(t, length):
            return self.check_bits([classical.cyclic_repetition_check(length)] * t)

        assert toric_bits(2, 128) == (1 << 30) + 4 * 128**2 <= css.MAX_CHECK_BITS
        assert toric_bits(5, 5) == 537_109_375 + 250 <= css.MAX_CHECK_BITS
        # toric-cnz at t=2: L=152 is the largest layer whose code is admitted
        assert toric_bits(2, 152) <= css.MAX_CHECK_BITS < toric_bits(2, 153)

    @pytest.mark.parametrize(
        "shapes, bits",
        [
            # n = 0 and 600 empty Hz rows, a word each; ker A_0 is 300^2 bits
            ([(0, 300), (0, 2)], 64 * 600 + 300**2 + 2**2),
            ([(0, 46), (0, 46)], 64 * 46**2 + 2 * 46**2),
            # 47 qubits and no check rows; ker A_0^T is 47^2 bits
            ([(47, 0), (0, 1)], 47**2 + 1),
        ],
        ids=["wide-row-free", "two-row-free", "tall-column-free"],
    )
    def test_seeds_without_rows_or_columns_are_counted(self, monkeypatch, shapes, bits):
        # a code without qubits or checks holds no check bits, but each
        # seed's kernel and cokernel bases grow as its widths squared, and
        # each empty check row still takes a word
        seeds = [BinaryMatrix(rows, cols, [0] * rows) for rows, cols in shapes]
        assert self.check_bits(seeds) == bits
        monkeypatch.setattr(css, "MAX_CHECK_BITS", bits - 1)
        pc = product.build_product(seeds)
        for build in (css.assemble_css, css.kunneth_parameters):
            with pytest.raises(ValueError, match=f"hold {bits} bits, above the cap of {bits - 1}"):
                build(pc, 1)
        assert pc._boundaries == {} and pc._transposed == {}
        assert all("code" not in vars(fac) and "code_t" not in vars(fac) for fac in pc.factors)
        monkeypatch.setattr(css, "MAX_CHECK_BITS", bits)
        assert css.assemble_css(pc, 1).k == css.kunneth_parameters(pc, 1).k


class TestCssCondition:
    def test_a_non_css_pair_is_rejected(self):
        hx = BinaryMatrix.from_rows(["110"])
        with pytest.raises(ValueError, match="not a CSS pair"):
            css.CssCode(hx, BinaryMatrix.from_rows(["100"]))

    def test_checks_beside_a_complex_must_be_its_maps(self, toric18, monkeypatch):
        pc, products = toric18.complex, []
        real = f2la.matmul
        monkeypatch.setattr(f2la, "matmul", lambda a, b: products.append(a) or real(a, b))
        hx = BinaryMatrix(toric18.hx.rows, toric18.n, list(toric18.hx.bits))
        hz = BinaryMatrix(toric18.hz.rows, toric18.n, list(toric18.hz.bits))
        assert hx is not pc.boundary(1) and hz is not pc.transposed_boundary(2)
        code = css.CssCode(hx, hz, complex=pc, level=1)
        assert products == [] and code.k == 2
        hz_short = BinaryMatrix(hz.rows - 1, hz.cols, hz.bits[1:])
        for bad_hx, bad_hz in [(hx, hz_short), (hz, hx), (hx, BinaryMatrix(1, 18, [1]))]:
            with pytest.raises(ValueError, match="not the complex's maps at level 1"):
                css.CssCode(bad_hx, bad_hz, complex=pc, level=1)
        with pytest.raises(ValueError, match="complex and level must be given together"):
            css.CssCode(hx, hz, complex=pc)
        with pytest.raises(ValueError, match="complex and level must be given together"):
            css.CssCode(hx, hz, level=1)
        for level in (0, 2):
            with pytest.raises(ValueError, match=r"level must be in \[1, 1\] for t=2"):
                css.CssCode(hx, hz, complex=pc, level=level)
        assert products == []

    def test_assemble_css_forms_dd_once_per_code(self, monkeypatch):
        products = []
        real = f2la.matmul
        monkeypatch.setattr(
            f2la, "matmul", lambda a, b: products.append((a.rows, a.cols, b.cols)) or real(a, b)
        )
        pc = product.build_product([classical.cyclic_repetition_check(3)] * 3)
        # no map is built before a code reads it (dims 27, 81, 81, 27)
        assert products == []
        codes = [css.assemble_css(pc, level) for level in (1, 2)]
        # level 1 builds d_2, then d_1 and asserts d_1 d_2 = 0; level 2 builds
        # d_3 and asserts d_2 d_3 = 0
        assert products == [(27, 81, 81), (81, 81, 27)] and [c.k for c in codes] == [3, 3]

    def test_a_corrupt_map_a_code_reads_fails_its_first_assembly(self, monkeypatch):
        real = product.ProductComplex._build_boundary

        def corrupt_level_two(self, level, transposed=False):
            d = real(self, level, transposed)
            if level != 2 or transposed:
                return d
            return BinaryMatrix(d.rows, d.cols, [d.bits[0] ^ 1, *d.bits[1:]])

        monkeypatch.setattr(product.ProductComplex, "_build_boundary", corrupt_level_two)
        pc = product.build_product([classical.cyclic_repetition_check(3)] * 3)
        with pytest.raises(AssertionError, match="boundary composition at level 2 is nonzero"):
            css.assemble_css(pc, 1)
        pc = product.build_product([classical.cyclic_repetition_check(3)] * 3)
        with pytest.raises(AssertionError, match="boundary composition at level 3 is nonzero"):
            css.assemble_css(pc, 2)
        pc = product.build_product([classical.cyclic_repetition_check(3)] * 3)
        with pytest.raises(AssertionError, match="boundary composition at level 2 is nonzero"):
            css.CssCode(pc.boundary(1), pc.transposed_boundary(2), complex=pc, level=1)


class TestKunneth:
    def test_toric18(self, toric18):
        params = css.kunneth_parameters(toric18.complex, 1)
        assert (params.n, params.k, params.d_x, params.d_z) == (18, 2, 3, 3)
        assert params.d == 3

    def test_toric3d(self, toric3d):
        params = css.kunneth_parameters(toric3d.complex, 1)
        assert (params.n, params.k, params.d_x, params.d_z) == (24, 3, 4, 2)
        brute = css.brute_distance(toric3d)
        assert (brute.d_x, brute.d_z) == (4, 2)

    def test_trivial_factor_kills_k(self):
        pc = product.build_product(
            [BinaryMatrix.identity(2), classical.cyclic_repetition_check(3)]
        )
        params = css.kunneth_parameters(pc, 1)
        assert params.k == 0
        assert params.d_x is None and params.d_z is None

    def test_four_dimensional_product(self):
        seeds = [classical.cyclic_repetition_check(2)] * 4
        pc = product.build_product(seeds)
        for level in (1, 2, 3):
            code = css.assemble_css(pc, level)
            params = css.kunneth_parameters(pc, level)
            assert params.k == code.k
            basis = css.canonical_logical_basis(code)
            assert basis.pairing == BinaryMatrix.identity(code.k)
        # middle level of the 4-torus: 96 qubits, 6 logical qubits
        mid = css.assemble_css(pc, 2)
        assert (mid.n, mid.k) == (96, 6)

    def test_matches_rank_nullity_random(self):
        rng = random.Random(77)
        checked = 0
        while checked < 12:
            t = rng.choice([2, 3])
            seeds = [
                random_matrix(rng, rng.randrange(1, 5), rng.randrange(1, 5))
                for _ in range(t)
            ]
            pc = product.build_product(seeds)
            for level in range(1, t):
                code = css.assemble_css(pc, level)
                params = css.kunneth_parameters(pc, level)
                assert params.k == code.k
                assert params.n == code.n
            checked += 1


class TestBruteDistance:
    def test_k_zero_errors(self):
        pc = product.build_product([BinaryMatrix.identity(2), BinaryMatrix.identity(2)])
        code = css.assemble_css(pc, 1)
        with pytest.raises(ValueError, match="no logical"):
            css.brute_distance(code)

    def test_budget_guard(self, toric18):
        with pytest.raises(ValueError, match="budget"):
            css.brute_distance(toric18, budget=4)
        assert css.brute_distance(toric18, budget=4, max_weight=3).d == 3

    @pytest.mark.parametrize("budget", [css._DISTANCE_BUDGET, 4])
    def test_max_weight_bounds_both_paths(self, toric18, budget):
        # d = 3 on the L=3 toric code, by an uncut walk and one cut past size W
        assert css.brute_distance(toric18, max_weight=3, budget=budget).d == 3
        assert css.brute_distance(toric18, max_weight=5, budget=budget).d == 3
        with pytest.raises(ValueError, match="no logical operator of weight <= 2 found"):
            css.brute_distance(toric18, max_weight=2, budget=budget)

    def test_max_weight_bounds_the_distance_not_each_type(self, toric3d):
        # d_x = 4 > d_z = 2: W = d reports both exact weights, W < d raises
        assert css.brute_distance(toric3d, max_weight=2) == css.DistanceResult(d_x=4, d_z=2)
        with pytest.raises(ValueError, match="no logical operator of weight <= 1 found"):
            css.brute_distance(toric3d, max_weight=1)

    @pytest.mark.parametrize("max_weight", [0, -3])
    def test_max_weight_below_one_is_rejected(self, toric18, max_weight):
        with pytest.raises(ValueError, match="max_weight must be >= 1"):
            css.brute_distance(toric18, max_weight=max_weight)

    @pytest.mark.parametrize(
        "seeds",
        [
            [classical.cyclic_repetition_check(5)] * 2,
            [classical.cyclic_repetition_check(6)] * 2,
            [classical.hamming_7_4().h, f2la.transpose(classical.hamming_7_4().h)],
        ],
        ids=["toric_L5", "toric_L6", "hamming_hgp"],
    )
    def test_exact_distance_without_max_weight_matches_kunneth(self, seeds):
        # (2^k - 1) * 2^r logical cosets far above the budget, yet each walk is short
        pc = product.build_product(seeds)
        params = css.kunneth_parameters(pc, 1)
        brute = css.brute_distance(css.assemble_css(pc, 1))
        assert (brute.d_x, brute.d_z) == (params.d_x, params.d_z)

    def test_walk_cut_without_max_weight_names_only_the_budget(self):
        with pytest.raises(ValueError) as info:
            css.brute_distance(toric_code(2, 5), budget=16)
        assert str(info.value) == "distance search exceeded budget 16"

    def test_cut_off_type_with_the_other_type_within_w_is_a_budget_error(self, toric3d):
        # d_z = 2 <= W, but the budget stops the d_x = 4 search past size 2
        with pytest.raises(ValueError, match="exceeded budget 4 past weight 2"):
            css.brute_distance(toric3d, max_weight=2, budget=4)
        with pytest.raises(ValueError, match="no logical operator of weight <= 1 found"):
            css.brute_distance(toric3d, max_weight=1, budget=4)

    @pytest.mark.parametrize("level", [1, 2])
    def test_product_walks_read_columns_off_the_complex(self, monkeypatch, level):
        # Hx^T and Hz^T are the complex's own maps, so a product code's walks
        # transpose nothing; a bare code with the same checks transposes
        # both and walks the same nodes to the same weights
        pc = product.build_product([classical.cyclic_repetition_check(3)] * 3)
        code = css.assemble_css(pc, level)
        params = css.kunneth_parameters(pc, level)
        bare = css.CssCode(code.hx, code.hz)
        real_walk, real_transpose = css._walk_logical_weight, f2la.transpose
        walks, transposed = [], []
        monkeypatch.setattr(
            css, "_walk_logical_weight", lambda *args: walks.append(real_walk(*args)) or walks[-1]
        )
        monkeypatch.setattr(f2la, "transpose", lambda m: transposed.append(m) or real_transpose(m))
        product_result = css.brute_distance(code)
        assert transposed == []
        bare_result = css.brute_distance(bare)
        assert transposed == [code.hx, code.hz]
        assert product_result == bare_result == css.DistanceResult(params.d_x, params.d_z)
        assert walks[:2] == walks[2:] and all(nodes > 1 for _, nodes in walks)


class TestPauli:
    def test_xz_same_qubit(self):
        x = PauliOperator(2, x=0b01)
        z = PauliOperator(2, z=0b01)
        assert css.symplectic_product(x, z) == 1
        assert css.group_commutator_pauli(x, z) == -1

    def test_disjoint_commute(self):
        p = PauliOperator(3, x=0b001)
        q = PauliOperator(3, z=0b110)
        assert css.symplectic_product(p, q) == 0
        assert css.group_commutator_pauli(p, q) == 1

    def test_mul_sign(self):
        x = PauliOperator(1, x=1)
        z = PauliOperator(1, z=1)
        xz = css.pauli_mul(x, z)
        zx = css.pauli_mul(z, x)
        assert (xz.x, xz.z) == (1, 1) and (zx.x, zx.z) == (1, 1)
        assert xz.sign == -zx.sign  # XZ = -ZX

    def test_mul_is_associative_on_signs(self):
        rng = random.Random(3)
        for _ in range(50):
            ops = [
                PauliOperator(4, x=rng.getrandbits(4), z=rng.getrandbits(4))
                for _ in range(3)
            ]
            a = css.pauli_mul(css.pauli_mul(ops[0], ops[1]), ops[2])
            b = css.pauli_mul(ops[0], css.pauli_mul(ops[1], ops[2]))
            assert (a.x, a.z, a.sign) == (b.x, b.z, b.sign)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            css.symplectic_product(PauliOperator(2), PauliOperator(3))

    def test_weight_and_support(self):
        p = PauliOperator(4, x=0b0011, z=0b0110)
        assert p.weight == 3
        assert p.support == frozenset({0, 1, 2})


class TestCanonicalBasis:
    def test_toric18_shape(self, toric18):
        basis = css.canonical_logical_basis(toric18)
        assert basis.k == 2
        assert basis.pairing == BinaryMatrix.identity(2)
        # one representative per sector, each a single line of 3 qubits
        assert {r.sector for r in basis.x_reps} == {0, 1}
        for rep in basis.x_reps + basis.z_reps:
            assert rep.pauli.weight == 3

    def test_x_reps_live_on_hyperplanes(self, toric18):
        basis = css.canonical_logical_basis(toric18)
        for rep in basis.x_reps:
            plane = rep.hyperplane(toric18.level)
            assert rep.pauli.support == product.hyperplane_support(
                toric18.complex, plane
            )

    def test_commutes_with_stabilizers(self, toric18):
        basis = css.canonical_logical_basis(toric18)
        for rep in basis.x_reps + basis.z_reps:
            for r in range(toric18.hx.rows):
                stab = PauliOperator(toric18.n, x=toric18.hx.bits[r])
                assert css.symplectic_product(rep.pauli, stab) == 0
            for r in range(toric18.hz.rows):
                stab = PauliOperator(toric18.n, z=toric18.hz.bits[r])
                assert css.symplectic_product(rep.pauli, stab) == 0

    def test_pairing_kronecker_delta(self, toric18):
        basis = css.canonical_logical_basis(toric18)
        for i, xr in enumerate(basis.x_reps):
            for j, zr in enumerate(basis.z_reps):
                assert css.symplectic_product(xr.pauli, zr.pauli) == (1 if i == j else 0)

    def test_toric3d_planes_and_strings(self, toric3d):
        basis = css.canonical_logical_basis(toric3d)
        assert basis.k == 3
        assert basis.pairing == BinaryMatrix.identity(3)
        for rep in basis.x_reps:
            # X representatives are 2-dim planes: 4 qubits at L=2, one fixed dir
            assert len(rep.fixed_dirs) == 1
            assert rep.pauli.weight == 4
            tube = product.classify_hypertube(
                toric3d.complex, 1, rep.pauli.x, rep.sector
            )
            assert tube.dimension == 2
            assert tube.thin_dirs == rep.fixed_dirs
        for rep in basis.z_reps:
            assert len(rep.fixed_dirs) == 2
            assert rep.pauli.weight == 2

    def test_hand_built_code_rejected(self):
        code = css.CssCode(BinaryMatrix.zeros(0, 3), BinaryMatrix.zeros(0, 3))
        with pytest.raises(ValueError, match="product"):
            css.canonical_logical_basis(code)

    def test_k_zero_empty_basis(self):
        pc = product.build_product([BinaryMatrix.identity(2), BinaryMatrix.identity(2)])
        code = css.assemble_css(pc, 1)
        basis = css.canonical_logical_basis(code)
        assert basis.k == 0 and basis.x_reps == []

    def test_count_matches_kunneth_on_randoms(self):
        rng = random.Random(101)
        built = 0
        while built < 10:
            t = rng.choice([2, 3])
            seeds = [
                random_matrix(rng, rng.randrange(1, 5), rng.randrange(1, 5))
                for _ in range(t)
            ]
            pc = product.build_product(seeds)
            for level in range(1, t):
                code = css.assemble_css(pc, level)
                basis = css.canonical_logical_basis(code)
                assert basis.k == code.k
                assert basis.pairing == BinaryMatrix.identity(code.k)
            built += 1


class TestTensorSupport:
    """Factor words spread by one multiply per direction against one
    flat_index call per support point."""

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_matches_one_flat_index_per_point(self, data):
        shapes = data.draw(
            st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=4)
        )
        pc = product.build_product([BinaryMatrix.zeros(r, c) for r, c in shapes])
        level = data.draw(st.integers(0, pc.t))
        mu = data.draw(st.integers(0, len(pc.tables[level]) - 1))
        factors = [data.draw(st.integers(0, (1 << size) - 1)) for size in pc.tables[level][mu].shape]
        expected = flat_index_tensor_support(pc, level, mu, factors)
        assert product.tensor_word(pc, level, mu, factors) == expected

    @pytest.mark.parametrize("factors", [[0b1, 0b1001], [0b1000, 0b1], [0b1000, 0]])
    def test_a_word_wider_than_its_direction_raises(self, toric18, factors):
        with pytest.raises(ValueError, match="coordinate 3 out of range for size 3"):
            product.tensor_word(toric18.complex, 1, 0, factors)


def check_outcome(code, v, kind):
    """None if `_check_logical` accepts v as a kind representative, else its
    ValueError message."""
    try:
        css._check_logical(code, css.LogicalRep(css._pauli(code.n, kind, v), kind, -1, (), None, ()))
    except ValueError as exc:
        return str(exc)
    return None


class TestLogicalChecksOnProducts:
    """An X word's Hz syndrome on a product code is the XOR of the rows of
    boundary(level + 1) on its support; the reference is one parity per Hz
    row, on a bare code with the same checks."""

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_agrees_with_a_parity_per_hz_row(self, data):
        seeds = data.draw(st.lists(seed_matrices(1, 3), min_size=2, max_size=3))
        pc = product.build_product(seeds)
        code = css.assemble_css(pc, data.draw(st.integers(1, pc.t - 1)))
        bare = css.CssCode(code.hx, code.hz)
        for kind, checks in (("X", code.hz), ("Z", code.hx)):
            kernel = f2la.kernel_basis(checks).bits
            picked = data.draw(st.lists(st.sampled_from(kernel), max_size=3)) if kernel else []
            v = 0
            for row in picked:
                v ^= row
            if code.n and data.draw(st.booleans()):
                v ^= 1 << data.draw(st.integers(0, code.n - 1))
            assert check_outcome(code, v, kind) == check_outcome(bare, v, kind)

    def test_each_rejection_is_named(self, toric18):
        x = css.canonical_logical_basis(toric18).x_reps[0].pauli.x
        assert check_outcome(toric18, x, "X") is None
        assert check_outcome(toric18, x ^ 1, "X") == "X representative is not in ker Hz"
        assert check_outcome(toric18, toric18.hx.bits[0], "X") == (
            "X representative lies in the stabilizer row space"
        )


class TestHandBuiltBasis:
    def test_bare_code_identity_basis(self):
        n = 4
        code = css.CssCode(BinaryMatrix.zeros(0, n), BinaryMatrix.zeros(0, n))
        xs = [PauliOperator(n, x=1 << i) for i in range(n)]
        zs = [PauliOperator(n, z=1 << i) for i in range(n)]
        code.set_logical_basis(xs, zs)
        assert code.logicals.k == n

    def test_rejects_bad_pairing(self):
        n = 2
        code = css.CssCode(BinaryMatrix.zeros(0, n), BinaryMatrix.zeros(0, n))
        xs = [PauliOperator(n, x=1 << i) for i in range(n)]
        zs = [PauliOperator(n, z=1 << (1 - i)) for i in range(n)]  # swapped pairing
        with pytest.raises(ValueError, match="pairing"):
            code.set_logical_basis(xs, zs)


class TestHandBuiltBasisChecks:
    """`set_logical_basis` checks each kind on its own part, the counts
    first, then every X representative, then every Z representative."""

    @staticmethod
    def bare_toric_basis():
        code = toric_code(2, 3)
        basis = css.canonical_logical_basis(code)
        xs = [rep.pauli for rep in basis.x_reps]
        zs = [rep.pauli for rep in basis.z_reps]
        return css.CssCode(code.hx, code.hz), xs, zs

    @pytest.mark.parametrize("kind", ["X", "Z"])
    def test_a_rep_is_checked_on_its_own_part_only(self, kind):
        code, xs, zs = self.bare_toric_basis()
        reps = xs if kind == "X" else zs
        # a stray single-qubit part of the other type off the support: it has
        # a syndrome, so a check on x | z would refuse the representative
        stray = 1 << min(set(range(code.n)) - reps[0].support)
        x, z = (reps[0].x, stray) if kind == "X" else (stray, reps[0].z)
        reps[0] = PauliOperator(code.n, x, z)
        code.set_logical_basis(xs, zs)
        installed = code.logicals.x_reps if kind == "X" else code.logicals.z_reps
        assert installed[0].pauli == reps[0]
        kinds = [rep.kind for rep in code.logicals.x_reps + code.logicals.z_reps]
        assert kinds == ["X", "X", "Z", "Z"]

    def test_each_rejection_names_its_kind_with_x_first(self):
        code, xs, zs = self.bare_toric_basis()

        def message(x_reps, z_reps):
            with pytest.raises(ValueError) as info:
                code.set_logical_basis(x_reps, z_reps)
            return str(info.value)

        bad_x = PauliOperator(code.n, x=xs[1].x ^ 1)
        bad_z = PauliOperator(code.n, z=zs[1].z ^ 1)
        stab_x = PauliOperator(code.n, x=code.hx.bits[0])
        stab_z = PauliOperator(code.n, z=code.hz.bits[0])
        assert message([bad_x], [bad_z]) == "expected 2 representatives per type"
        assert message([xs[0], bad_x], [zs[0], bad_z]) == "X representative is not in ker Hz"
        assert message([xs[0], stab_x], [zs[0], bad_z]) == (
            "X representative lies in the stabilizer row space"
        )
        assert message(xs, [zs[0], bad_z]) == "Z representative is not in ker Hx"
        assert message(xs, [stab_z, zs[1]]) == "Z representative lies in the stabilizer row space"
        assert code.logicals is None


class TestAlternativeRepresentative:
    def test_dodge_own_hyperplane(self, toric18):
        basis = css.canonical_logical_basis(toric18)
        rep = basis.x_reps[0]
        plane = rep.hyperplane(toric18.level)
        alt = css.alternative_representative(toric18, rep, [plane])
        assert not (alt.pauli.x & rep.pauli.x)
        # equivalence oracle: the difference is a sum of X-stabilizer rows,
        # verified by an independent solve
        diff = alt.pauli.x ^ rep.pauli.x
        y = f2la.solve(f2la.transpose(toric18.hx), diff)
        assert y is not None

    def test_empty_avoid_is_identity(self, toric18):
        basis = css.canonical_logical_basis(toric18)
        rep = basis.x_reps[0]
        assert css.alternative_representative(toric18, rep, []) is rep

    def test_already_disjoint_unchanged(self, toric18):
        basis = css.canonical_logical_basis(toric18)
        rep = basis.x_reps[0]
        value = rep.fixed_values[0]
        other = Hyperplane(1, rep.sector, rep.fixed_dirs, ((value + 1) % 3,))
        assert css.alternative_representative(toric18, rep, [other]) is rep

    def test_z_type_deformation(self, toric18):
        basis = css.canonical_logical_basis(toric18)
        rep = basis.z_reps[0]
        plane = rep.hyperplane(toric18.level)
        alt = css.alternative_representative(toric18, rep, [plane])
        assert not (alt.pauli.z & rep.pauli.z)
        assert f2la.solve(f2la.transpose(toric18.hz), alt.pauli.z ^ rep.pauli.z) is not None

    def test_infeasible_avoid_set_raises(self):
        code = toric_code(2, 3)
        basis = css.canonical_logical_basis(code)
        rep = basis.x_reps[0]
        # avoid every coordinate value in the fixed direction: cleaning must fail
        avoid = [
            Hyperplane(1, rep.sector, rep.fixed_dirs, (v,)) for v in range(3)
        ]
        with pytest.raises(ValueError, match="infeasible"):
            css.alternative_representative(code, rep, avoid)

    def test_orientation_mismatch_rejected(self, toric18):
        basis = css.canonical_logical_basis(toric18)
        rep = basis.x_reps[0]
        wrong = Hyperplane(1, rep.sector, (1 - rep.fixed_dirs[0],), (0,))
        with pytest.raises(ValueError, match="orientation"):
            css.alternative_representative(toric18, rep, [wrong])


def outcome(fn):
    """fn's LogicalRep as a tuple of its fields, or its ValueError message."""
    try:
        rep = fn()
    except ValueError as exc:
        return str(exc)
    return (rep.pauli, rep.kind, rep.sector, rep.fixed_dirs, rep.fixed_values, rep.factors)


class TestSectorRule:
    """The one sector rule against the subset loops that write X and Z out
    apart, field by field, on random products with t = 2..4 at every level.
    Seeds may have zero rows or zero columns, so k = 0 or k_t = 0 occur."""

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_parameters_basis_and_deformations_match_the_subset_loops(self, data):
        seeds = data.draw(st.lists(seed_matrices(0, 3), min_size=2, max_size=4))
        pc = product.build_product(seeds)
        for level in range(1, pc.t):
            params = css.kunneth_parameters(pc, level)
            assert (params.n, params.k, params.d_x, params.d_z) == sector_loop_kunneth(pc, level)
            code = css.assemble_css(pc, level)
            basis = css.canonical_logical_basis(code)
            want_x, want_z = two_list_canonical_reps(code)
            assert basis.x_reps == want_x and basis.z_reps == want_z
            assert code.k == params.k == len(want_x)
            if not code.k:
                continue
            rep = data.draw(st.sampled_from(want_x + want_z))
            shape = pc.tables[level][rep.sector].shape
            values = st.tuples(*(st.integers(0, shape[d] - 1) for d in rep.fixed_dirs))
            own = [rep.fixed_values] if data.draw(st.booleans()) else []
            avoid = [
                Hyperplane(level, rep.sector, rep.fixed_dirs, v)
                for v in own + data.draw(st.lists(values, max_size=2))
            ]
            got = outcome(lambda: css.alternative_representative(code, rep, avoid))
            assert got == outcome(lambda: kind_branch_alternative(code, rep, avoid))

    @pytest.mark.parametrize("t, length, level", [(2, 3, 1), (2, 4, 1), (3, 3, 1), (3, 3, 2)])
    def test_every_rep_dodges_its_own_hyperplane_as_the_kind_branch_does(self, t, length, level):
        code = css.assemble_css(toric_code(t, length).complex, level)
        basis = css.canonical_logical_basis(code)
        for rep in basis.x_reps + basis.z_reps:
            avoid = [rep.hyperplane(level)]
            got = outcome(lambda: css.alternative_representative(code, rep, avoid))
            assert got == outcome(lambda: kind_branch_alternative(code, rep, avoid))
            assert got[4] is None  # deformed, no longer on one hyperplane

    @pytest.mark.parametrize("level", [1, 2])
    def test_fields_on_a_mixed_product(self, level):
        # the transposed open chain has k = 0 and k_t = 1, the cycle k = k_t = 1:
        # only the sectors with direction 0 off J hold logicals
        chain, cycle = classical.repetition_code(3).h, classical.cyclic_repetition_check(3)
        pc = product.build_product([f2la.transpose(chain), cycle, cycle])
        code = css.assemble_css(pc, level)
        basis = css.canonical_logical_basis(code)
        assert (basis.x_reps, basis.z_reps) == two_list_canonical_reps(code)
        params = css.kunneth_parameters(pc, level)
        assert (params.n, params.k, params.d_x, params.d_z) == sector_loop_kunneth(pc, level)
        assert {rep.sector for rep in basis.x_reps} == {
            mu for mu, sec in enumerate(pc.tables[level].sectors) if 0 not in sec.J
        }
        for rep in basis.x_reps:
            assert len(rep.fixed_dirs) == level and rep.pauli.z == 0
        for rep in basis.z_reps:
            assert len(rep.fixed_dirs) == pc.t - level and rep.pauli.x == 0


class TestKunnethDistanceAgreement:
    def test_strongly_asymmetric_seed(self):
        # Discriminating instance for the d/d^T orientation of the distance
        # formulas: seed b has (k, d) = (2, 1) and (k^T, d^T) = (1, 3), so a
        # transposed assignment would predict (d_x, d_z) = (1, 3) instead of
        # the true (3, 1).  Brute force pins the orientation.
        b = BinaryMatrix.from_rows(["1100", "0110", "1010"])
        c = classical.cyclic_repetition_check(3)
        pc = product.build_product([b, c])
        code = css.assemble_css(pc, 1)
        params = css.kunneth_parameters(pc, 1)
        brute = css.brute_distance(code)
        assert (code.n, code.k) == (21, 3)
        assert (params.d_x, params.d_z) == (3, 1)
        assert (brute.d_x, brute.d_z) == (3, 1)

    def test_one_sided_seed(self):
        # path-style check: k = 1 with d = 3 but a trivial transpose kernel,
        # so only one sector is populated and its distances must be used
        path = BinaryMatrix.from_rows(["110", "011"])
        for seeds in ([path, classical.cyclic_repetition_check(3)],
                      [classical.cyclic_repetition_check(3), path]):
            pc = product.build_product(seeds)
            code = css.assemble_css(pc, 1)
            params = css.kunneth_parameters(pc, 1)
            brute = css.brute_distance(code)
            assert (code.n, code.k) == (15, 1)
            assert (params.d_x, params.d_z) == (brute.d_x, brute.d_z) == (3, 3)

    def test_small_random_seeds(self):
        rng = random.Random(113)
        done = 0
        while done < 8:
            t = 2
            seeds = [
                random_matrix(rng, rng.randrange(1, 4), rng.randrange(1, 4))
                for _ in range(t)
            ]
            pc = product.build_product(seeds)
            params = css.kunneth_parameters(pc, 1)
            code = css.assemble_css(pc, 1)
            assert params.k == code.k
            if code.k == 0 or code.n > 30:
                continue
            brute = css.brute_distance(code)
            assert brute.d_x == params.d_x
            assert brute.d_z == params.d_z
            done += 1


def kernel_oracle_weight(h_kernel, h_stab):
    """Lightest word of ker h_kernel outside the row space of h_stab, by
    listing every kernel word and every stabilizer word."""

    def span(rows):
        words = {0}
        for row in rows:
            words |= {v ^ row for v in words}
        return words

    basis = f2la.kernel_basis(h_kernel).bits
    kernel = span(basis)
    assert all(f2la.mat_vec(h_kernel, x) == 0 for x in basis)
    assert len(kernel) == 1 << (h_kernel.cols - f2la.rank(h_kernel))
    return min(x.bit_count() for x in kernel - span(h_stab.bits))


class TestDistanceDifferential:
    def test_random_products_against_kernel_enumeration(self):
        rng = random.Random(4)
        checked = 0
        while checked < 200:
            t = rng.choice([2, 3])
            # three-factor products of larger seeds rarely fit the bound
            lo, hi = (2, 6) if t == 2 else (1, 4)
            seeds = [
                random_matrix(
                    rng, rng.randrange(lo, hi), rng.randrange(lo, hi), rng.uniform(0.3, 0.7)
                )
                for _ in range(t)
            ]
            pc = product.build_product(seeds)
            code = css.assemble_css(pc, rng.randrange(1, t))
            if code.k == 0 or max(code.n - code.rank_hx, code.n - code.rank_hz) > 14:
                continue
            expected = css.DistanceResult(
                d_x=kernel_oracle_weight(code.hz, code.hx),
                d_z=kernel_oracle_weight(code.hx, code.hz),
            )
            assert css.brute_distance(code) == expected
            checked += 1

    def test_small_codes_against_coset_enumeration(self):
        # every word of n <= 14 qubits: the kernel words fall into 2^k cosets
        # of the stabilizer space, keyed by their reduction against it
        rng = random.Random(15)
        checked = 0
        while checked < 60:
            t = rng.choice([2, 3])
            seeds = [random_matrix(rng, rng.randrange(1, 4), rng.randrange(1, 4)) for _ in range(t)]
            pc = product.build_product(seeds)
            code = css.assemble_css(pc, rng.randrange(1, t))
            if code.k == 0 or code.n > 14:
                continue
            expected = css.DistanceResult(
                d_x=coset_oracle_weight(code.hz, code.hx_space, code.k),
                d_z=coset_oracle_weight(code.hx, code.hz_space, code.k),
            )
            assert css.brute_distance(code) == expected
            checked += 1

    def test_random_products_against_the_subset_walk(self):
        # seed shapes up to 4 x 5, every level; the reference is the deleted
        # subset walk, cut after 2^14 subsets on the few codes where it is slow
        rng = random.Random(2024)
        compared = types = 0
        while types < 240:
            t = rng.choice([2, 3])
            seeds = [random_matrix(rng, rng.randrange(1, 5), rng.randrange(1, 6)) for _ in range(t)]
            pc = product.build_product(seeds)
            for level in range(1, t):
                code = css.assemble_css(pc, level)
                if code.k == 0:
                    continue
                params = css.kunneth_parameters(pc, level)
                got = css.brute_distance(code)
                assert (got.d_x, got.d_z) == (params.d_x, params.d_z)
                for weight, checks, stab_space in (
                    (got.d_x, code.hz, code.hx_space),
                    (got.d_z, code.hx, code.hz_space),
                ):
                    reference, exact = subset_walk_weight(checks, stab_space, 1 << 14)
                    assert weight <= reference
                    if exact:
                        assert weight == reference
                        compared += 1
                    types += 1
        assert compared >= 0.95 * types

    @pytest.mark.parametrize("t, length", [(2, 7), (2, 8), (2, 10), (3, 2), (3, 3)])
    def test_toric_codes_match_kunneth_without_max_weight(self, t, length):
        # toric L = 5, 6 are in TestBruteDistance; L >= 7 and the 3D code at
        # L = 3 ran past the subset walk's budget
        code = toric_code(t, length)
        params = css.kunneth_parameters(code.complex, 1)
        brute = css.brute_distance(code)
        assert (brute.d_x, brute.d_z) == (params.d_x, params.d_z)

    def test_nodes_never_exceed_the_refusal_bound(self):
        # with no budget past W, a walk that finds nothing up to W stops on
        # the first node of limit W + 1, so nodes - 1 were visited up to W
        rng = random.Random(8)
        codes = [toric_code(2, 3), toric_code(2, 4), toric_code(2, 5), toric_code(3, 2)]
        while len(codes) < 24:
            t = rng.choice([2, 3])
            seeds = [random_matrix(rng, rng.randrange(1, 4), rng.randrange(1, 5)) for _ in range(t)]
            code = css.assemble_css(product.build_product(seeds), rng.randrange(1, t))
            if code.k:
                codes.append(code)
        walks = 0
        for code in codes:
            for checks, stab_space in ((code.hx, code.hz_space), (code.hz, code.hx_space)):
                for max_weight in range(1, 7):
                    bound = css._node_bound(code.n, code.stabilizer_weight, max_weight)
                    if bound > css._DISTANCE_BUDGET:
                        break
                    weight, nodes = css._walk_logical_weight(checks, stab_space, max_weight, 0)
                    assert nodes - (weight is None) <= bound
                    walks += 1
        assert walks >= 200

    def test_node_bound_sums_every_limit(self):
        # n (1 + 3 + ... + 3^(w-1)) nodes at limit w, summed over w = 1..W
        assert [css._node_bound(10, 4, w) for w in (1, 2, 3)] == [10, 50, 180]
        assert css._node_bound(10, 2, 4) == 10 * (1 + 2 + 3 + 4)
        assert css._node_bound(3, 4, 9) == css._node_bound(3, 4, 3)
        # the sum stops at the first limit past the cap: 128 qubits, r = 4
        assert css._node_bound(128, 4, 9) == 1_888_896
        assert css._node_bound(128, 4, 10) == css._node_bound(128, 4, 30) == 5_667_968


def coset_oracle_weight(h_kernel, stab_space, k):
    """Lightest word of ker h_kernel outside stab_space, over all 2^n words:
    each kernel word reduces against stab_space to its coset's one key."""
    best = {}
    for x in range(1 << h_kernel.cols):
        if f2la.mat_vec(h_kernel, x) == 0:
            key = stab_space.reduce(x)
            best[key] = min(best.get(key, x.bit_count()), x.bit_count())
    assert len(best) == 1 << k  # the stabilizer coset and the 2^k - 1 logical ones
    del best[0]
    return min(best.values())


def subset_walk_weight(checks, stab_space, budget):
    """(weight, exact) by the subset walk `css.brute_distance` used before the
    cluster walk: subset XORs of a reduced basis of ker checks by ascending
    size, stopped once the size reaches the lightest logical's weight (a word
    of s reduced rows weighs at least s) or after `budget` subsets."""
    basis = f2la.rref(f2la.kernel_basis(checks)).nonzero_rows()
    best = None
    for spent, (size, word) in enumerate(f2la.subset_xors(basis), 1):
        if best is not None and size >= best.bit_count():
            break
        if spent > budget:
            return best.bit_count(), False
        if (best is None or word.bit_count() < best.bit_count()) and not stab_space.contains(word):
            best = word
    return best.bit_count(), True
