"""Tests for product complexes: sectors, coordinates, hyperplanes, tubes."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hgpforge import classical, css, f2la, product
from hgpforge.f2la import BinaryMatrix
from hgpforge.product import Hyperplane, OneComplex

from helpers import (
    compose_blocks,
    flat_index_hyperplane_support,
    kron_chain_boundary,
    seed_matrices,
)


def random_matrix(rng, rows, cols, density=0.5):
    return BinaryMatrix(
        rows,
        cols,
        [sum(1 << j for j in range(cols) if rng.random() < density) for _ in range(rows)],
    )


@pytest.fixture(scope="module")
def toric2():
    seeds = [classical.cyclic_repetition_check(3)] * 2
    return product.build_product(seeds)


@pytest.fixture(scope="module")
def cube3():
    seeds = [classical.cyclic_repetition_check(2)] * 3
    return product.build_product(seeds)


class TestBuild:
    def test_two_dim_blocks_match_hgp_form(self):
        rng = random.Random(5)
        a = random_matrix(rng, 3, 4)
        b = random_matrix(rng, 2, 5)
        pc = product.build_product([a, b])
        # Level-1 sectors in lex order: J={0} has shape (n_a, m_b), J={1} (m_a, n_b).
        assert pc.tables[1][0].shape == (4, 2)
        assert pc.tables[1][1].shape == (3, 5)
        ia, ib = BinaryMatrix.identity(3), BinaryMatrix.identity(2)
        ina, inb = BinaryMatrix.identity(4), BinaryMatrix.identity(5)
        d1 = pc.boundary(1)
        expected = compose_blocks(
            pc.dim(0),
            pc.dim(1),
            [(0, 0, f2la.kron(a, ib)), (0, pc.tables[1][1].offset, f2la.kron(ia, b))],
        )
        assert d1 == expected
        d2 = pc.boundary(2)
        expected2 = compose_blocks(
            pc.dim(1),
            pc.dim(2),
            [(0, 0, f2la.kron(ina, b)), (pc.tables[1][1].offset, 0, f2la.kron(a, inb))],
        )
        assert d2 == expected2

    @pytest.mark.parametrize("level", [-1, 0, 3])
    def test_a_level_outside_the_complex_has_no_map(self, level):
        pc = product.build_product([classical.cyclic_repetition_check(3)] * 2)
        for build in (pc.boundary, pc.transposed_boundary):
            with pytest.raises(KeyError):
                build(level)

    def test_one_dim_is_seed(self):
        a = BinaryMatrix.from_rows(["110", "011"])
        pc = product.build_product([a])
        assert pc.t == 1
        assert pc.boundary(1) == a
        assert pc.dim(1) == 3 and pc.dim(0) == 2

    def test_three_dim_qubit_count(self, cube3):
        # three sectors of 2*2*2 at level 1
        assert cube3.dim(1) == 24

    def test_boundary_squares_to_zero(self):
        rng = random.Random(9)
        for t in (2, 3):
            seeds = [random_matrix(rng, rng.randrange(1, 4), rng.randrange(1, 4)) for _ in range(t)]
            pc = product.build_product(seeds)
            for level in range(2, t + 1):
                assert f2la.matmul(pc.boundary(level - 1), pc.boundary(level)).is_zero()

    def test_dimension_bound(self):
        with pytest.raises(ValueError):
            product.build_product([])
        with pytest.raises(ValueError):
            product.build_product([BinaryMatrix.identity(1)] * 7)

    def test_four_factor_product(self):
        # exercise the general-t assembly beyond the acceptance instances
        seeds = [classical.cyclic_repetition_check(2)] * 4
        pc = product.build_product(seeds)
        assert pc.t == 4
        assert [pc.dim(level) for level in range(5)] == [16, 64, 96, 64, 16]
        for level in range(2, 5):
            assert f2la.matmul(pc.boundary(level - 1), pc.boundary(level)).is_zero()

    def test_sector_sizes_sum(self, cube3):
        for level in range(4):
            total = sum(s.size for s in cube3.tables[level].sectors)
            assert total == cube3.dim(level)
            # closed form: sum over |J|=level of prod n_i prod m_j
            expected = 0
            for J in itertools.combinations(range(3), level):
                term = 1
                for i in range(3):
                    term *= cube3.factors[i].n if i in J else cube3.factors[i].m
                expected += term
            assert total == expected


class TestKroneckerBlocks:
    """Boundaries built as I_p (x) A_j (x) I_q blocks against the kron chain
    over every direction, and their transposes against f2la.transpose."""

    @staticmethod
    def assert_matches_the_kron_chain(seeds):
        pc = product.build_product(seeds)
        for level in range(1, pc.t + 1):
            reference = kron_chain_boundary(pc, level)
            assert pc.boundary(level) == reference, level
            assert pc.transposed_boundary(level) == f2la.transpose(reference), level

    @settings(max_examples=150, deadline=None)
    @given(st.lists(seed_matrices(), min_size=1, max_size=4))
    def test_every_level_matches_the_kron_chain(self, seeds):
        self.assert_matches_the_kron_chain(seeds)

    @pytest.mark.parametrize(
        "shapes",
        [
            [(0, 2), (2, 3)],
            [(2, 0), (3, 2), (2, 2)],
            [(0, 0), (2, 3), (3, 2)],
            [(3, 2), (0, 3), (2, 3), (2, 0)],
            [(0, 3)],
            [(3, 0)],
        ],
    )
    def test_zero_row_and_zero_column_seeds(self, shapes):
        rng = random.Random(len(shapes))
        self.assert_matches_the_kron_chain([random_matrix(rng, r, c) for r, c in shapes])

    @pytest.mark.parametrize("t, length", [(2, 5), (3, 4), (4, 3)])
    def test_toric_blocks_with_identities_on_both_sides(self, t, length):
        # from t = 3 on, some blocks have p > 1 and q > 1 at once
        self.assert_matches_the_kron_chain([classical.cyclic_repetition_check(length)] * t)


class TestSharedSeeds:
    def test_equal_seeds_share_one_complex(self):
        seeds = [classical.cyclic_repetition_check(3) for _ in range(3)]
        pc = product.build_product(seeds)
        assert len(pc.factors) == 3
        assert pc.factors[0] is pc.factors[1] is pc.factors[2]

    def test_unequal_seeds_do_not(self):
        a = classical.cyclic_repetition_check(3)
        flipped = BinaryMatrix(3, 3, a.bits[::-1])  # same shape, other entries
        pc = product.build_product([a, classical.cyclic_repetition_check(4), flipped, a])
        assert len(pc.factors) == 4
        assert len({id(fac) for fac in pc.factors}) == 3
        assert pc.factors[0] is pc.factors[3]
        assert [fac.a for fac in pc.factors][:3] == [a, classical.cyclic_repetition_check(4), flipped]

    def test_complexes_passed_in_are_kept(self):
        a = classical.cyclic_repetition_check(3)
        given_factors = [OneComplex(a), OneComplex(a), a]
        pc = product.build_product(given_factors)
        assert len(pc.factors) == 3
        assert pc.factors[0] is given_factors[0] and pc.factors[1] is given_factors[1]

    def test_a_toric_seed_is_eliminated_once(self, monkeypatch):
        built = []
        real = classical.ClassicalCode.__init__
        monkeypatch.setattr(
            classical.ClassicalCode, "__init__", lambda self, h: built.append(h) or real(self, h)
        )
        a = classical.cyclic_repetition_check(3)
        pc = product.build_product([classical.cyclic_repetition_check(3) for _ in range(3)])
        assert css.kunneth_parameters(pc, 1).k == 3
        assert built == [a, f2la.transpose(a)]


class TestCoordinates:
    def test_sector_zero_origin(self, toric2):
        assert product.flat_index(toric2, 1, 0, (0, 0)) == toric2.tables[1][0].offset

    def test_round_trip_random(self, cube3):
        rng = random.Random(13)
        for level in range(4):
            dim = cube3.dim(level)
            for _ in range(250):
                idx = rng.randrange(dim)
                mu, coords = product.coords_of(cube3, level, idx)
                assert product.flat_index(cube3, level, mu, coords) == idx

    def test_row_major_formula(self, toric2):
        # sector with shape (n_a, m_b): coords (i, j) -> offset + i*m_b + j
        sec = toric2.tables[1][0]
        for i in range(sec.shape[0]):
            for j in range(sec.shape[1]):
                assert (
                    product.flat_index(toric2, 1, 0, (i, j))
                    == sec.offset + i * sec.shape[1] + j
                )

    def test_out_of_range(self, toric2):
        with pytest.raises(ValueError):
            product.flat_index(toric2, 1, 0, (3, 0))


class TestHyperplanes:
    def test_row_of_sector(self, toric2):
        h = Hyperplane(1, 1, (0,), (1,))
        sup = product.hyperplane_support(toric2, h)
        sec = toric2.tables[1][1]
        assert len(sup) == sec.shape[1]
        assert sup == frozenset(
            product.flat_index(toric2, 1, 1, (1, j)) for j in range(sec.shape[1])
        )

    def test_fully_fixed_is_single_qubit(self, toric2):
        h = Hyperplane(1, 0, (0, 1), (2, 1))
        assert len(product.hyperplane_support(toric2, h)) == 1

    def test_unconstrained_is_whole_sector(self, toric2):
        h = Hyperplane(1, 0, (), ())
        assert len(product.hyperplane_support(toric2, h)) == toric2.tables[1][0].size

    def test_intersection_example(self, cube3):
        # dirs {1,2} value (2,1) meet dirs {1} value (2): merged fixed dirs
        # {1,2} with values (2,1), a 1-dimensional plane.  (0-based labels,
        # values reduced to the L=2 lattice.)
        h1 = Hyperplane(1, 0, (1, 2), (1, 0))
        h2 = Hyperplane(1, 0, (1,), (1,))
        merged = product.intersect_hyperplanes(h1, h2)
        assert merged == Hyperplane(1, 0, (1, 2), (1, 0))

    def test_intersection_identical(self, cube3):
        h = Hyperplane(1, 0, (1,), (0,))
        assert product.intersect_hyperplanes(h, h) == h

    def test_intersection_conflict(self, cube3):
        h1 = Hyperplane(1, 0, (1,), (0,))
        h2 = Hyperplane(1, 0, (1,), (1,))
        assert product.intersect_hyperplanes(h1, h2) is None

    def test_intersection_sector_mismatch(self, cube3):
        with pytest.raises(ValueError, match="sector"):
            product.intersect_hyperplanes(
                Hyperplane(1, 0, (0,), (0,)), Hyperplane(1, 1, (0,), (0,))
            )

    def test_intersection_commutative_associative(self, cube3):
        rng = random.Random(21)
        planes = []
        for _ in range(12):
            dirs = tuple(sorted(rng.sample(range(3), rng.randrange(0, 3))))
            vals = tuple(rng.randrange(2) for _ in dirs)
            planes.append(Hyperplane(1, 0, dirs, vals))
        for h1, h2, h3 in itertools.product(planes, repeat=3):
            ab = product.intersect_hyperplanes(h1, h2)
            assert ab == product.intersect_hyperplanes(h2, h1)
            left = product.intersect_hyperplanes(ab, h3) if ab else None
            bc = product.intersect_hyperplanes(h2, h3)
            right = product.intersect_hyperplanes(h1, bc) if bc else None
            assert left == right

    def test_support_agrees_with_set_intersection(self, cube3):
        h1 = Hyperplane(1, 0, (1,), (1,))
        h2 = Hyperplane(1, 0, (2,), (0,))
        merged = product.intersect_hyperplanes(h1, h2)
        assert product.hyperplane_support(cube3, merged) == product.hyperplane_support(
            cube3, h1
        ) & product.hyperplane_support(cube3, h2)


class TestHyperplaneWord:
    """hyperplane_support, read off one tensor word, against one flat_index
    per point.  Every subset of directions is fixed in turn, so each example
    covers no fixed direction and every direction fixed."""

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_matches_one_flat_index_per_point(self, data):
        shapes = data.draw(
            st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3)), min_size=1, max_size=3)
        )
        pc = product.build_product([BinaryMatrix.zeros(r, c) for r, c in shapes])
        level = data.draw(st.integers(0, pc.t))
        mu = data.draw(st.integers(0, len(pc.tables[level]) - 1))
        shape = pc.tables[level][mu].shape
        for k in range(pc.t + 1):
            for dirs in itertools.combinations(range(pc.t), k):
                values = data.draw(st.tuples(*(st.integers(0, shape[d] - 1) for d in dirs)))
                h = Hyperplane(level, mu, dirs, values)
                want = flat_index_hyperplane_support(pc, h)
                assert product.hyperplane_support(pc, h) == want

    def test_size_one_directions(self):
        # a 1x2 seed and a 2x1 seed: sector shapes (1, 2) at level 0, (2, 2)
        # and (1, 1) at level 1, and (2, 1) at level 2
        pc = product.build_product([BinaryMatrix.zeros(1, 2), BinaryMatrix.zeros(2, 1)])
        for level, mu in [(0, 0), (1, 0), (1, 1), (2, 0)]:
            shape = pc.tables[level][mu].shape
            for dirs in [(), (0,), (1,), (0, 1)]:
                for values in itertools.product(*(range(shape[d]) for d in dirs)):
                    h = Hyperplane(level, mu, dirs, values)
                    want = flat_index_hyperplane_support(pc, h)
                    assert product.hyperplane_support(pc, h) == want

    @pytest.mark.parametrize(
        "dirs, values, message",
        [
            ((2,), (0,), "direction 2 out of range"),
            ((-1,), (0,), "direction -1 out of range"),
            ((1,), (3,), "fixed value 3 out of range in direction 1"),
            ((0, 1), (0, -1), "fixed value -1 out of range in direction 1"),
        ],
    )
    def test_bad_planes_are_refused(self, toric2, dirs, values, message):
        with pytest.raises(ValueError, match=message):
            product.hyperplane_support(toric2, Hyperplane(1, 0, dirs, values))


class TestBlockWeight:
    def test_two_parallel_rows(self, toric2):
        v = 0
        for j in range(3):
            v |= 1 << product.flat_index(toric2, 1, 0, (0, j))
            v |= 1 << product.flat_index(toric2, 1, 0, (2, j))
        assert product.block_hamming_weight(toric2, 1, v, 0, (0,)) == 2

    def test_zero_vector(self, toric2):
        assert product.block_hamming_weight(toric2, 1, 0, 0, (0,)) == 0

    def test_full_row_counts_columns(self, toric2):
        v = 0
        for j in range(3):
            v |= 1 << product.flat_index(toric2, 1, 0, (1, j))
        assert product.block_hamming_weight(toric2, 1, v, 0, (1,)) == 3

    def test_assignment_enumeration_oracle(self, cube3):
        rng = random.Random(33)
        sec = cube3.tables[1][0]
        for _ in range(20):
            v = 0
            pts = set()
            for _ in range(rng.randrange(1, 6)):
                coords = tuple(rng.randrange(s) for s in sec.shape)
                pts.add(coords)
                v |= 1 << product.flat_index(cube3, 1, 0, coords)
            for r in range(1, 3):
                for dirs in itertools.combinations(range(3), r):
                    expected = len({tuple(c[d] for d in dirs) for c in pts})
                    assert product.block_hamming_weight(cube3, 1, v, 0, dirs) == expected


class TestHypertubes:
    def test_zero_vector_all_thin(self, cube3):
        tube = product.classify_hypertube(cube3, 1, 0, 0)
        assert tube.dimension == 0
        assert tube.thin_dirs == (0, 1, 2)

    def test_full_sector_all_thick(self, cube3):
        sec = cube3.tables[1][0]
        v = ((1 << sec.size) - 1) << sec.offset
        tube = product.classify_hypertube(cube3, 1, v, 0)
        assert tube.dimension == 3
        assert tube.thick_dirs == (0, 1, 2)

    def test_threshold_defaults(self, cube3):
        assert product.default_hypertube_thresholds(cube3) == (2, 2, 2)

    def test_plane_support(self, toric2):
        # a full row varies along direction 1 only: thick there, thin on 0
        v = 0
        for j in range(3):
            v |= 1 << product.flat_index(toric2, 1, 0, (1, j))
        tube = product.classify_hypertube(toric2, 1, v, 0)
        assert tube.thin_dirs == (0,)
        assert tube.dimension == 1


class TestOneComplex:
    def test_kernel_dimensions(self):
        oc = OneComplex(classical.cyclic_repetition_check(3))
        assert (oc.n, oc.m, oc.k, oc.k_t) == (3, 3, 1, 1)
        assert oc.d == 3 and oc.d_t == 3
        assert oc.min_distance() == 3

    def test_trivial_kernels(self):
        oc = OneComplex(BinaryMatrix.identity(3))
        assert oc.k == 0 and oc.k_t == 0
        assert oc.min_distance() is None

    def test_seed_codes_are_built_on_first_read(self, monkeypatch):
        built = []
        real = classical.ClassicalCode.__init__

        def spy(self, h):
            built.append(h)
            real(self, h)

        monkeypatch.setattr(classical.ClassicalCode, "__init__", spy)
        a = classical.cyclic_repetition_check(4)
        oc = OneComplex(a)
        assert built == []
        assert oc.k == 1 and built == [a]
        assert oc.k_t == 1 and oc.d == 4 and oc.d_t == 4
        assert built == [a, f2la.transpose(a)]

    def test_lazy_seed_data_equals_eager(self):
        rng = random.Random(11)
        shapes = [(0, 3), (3, 0), (0, 0), (2, 2), (3, 4), (4, 3), (4, 5), (5, 4)]
        for _ in range(12):
            seeds = [
                random_matrix(rng, *rng.choice(shapes), rng.choice((0.3, 0.6)))
                for _ in range(rng.choice((2, 3)))
            ]
            lazy = product.build_product(seeds)
            for fac, a in zip(lazy.factors, seeds):
                code = classical.ClassicalCode(a)
                code_t = classical.ClassicalCode(f2la.transpose(a))
                assert (fac.k, fac.k_t) == (code.k, code_t.k)
                assert fac.k == a.cols - f2la.rank(a) and fac.k_t == a.rows - f2la.rank(a)
                if code.k:
                    assert fac.d == classical.distance(code)
                if code_t.k:
                    assert fac.d_t == classical.distance(code_t)
            eager = product.build_product(seeds)
            # read both seed codes of every factor before any parameter
            assert all(fac.code.n == fac.n and fac.code_t.n == fac.m for fac in eager.factors)
            for level in range(1, lazy.t):
                fresh = product.build_product(seeds)
                params = css.kunneth_parameters(fresh, level)
                assert params == css.kunneth_parameters(eager, level)
                assert params.k == css.assemble_css(fresh, level).k
