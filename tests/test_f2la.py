"""Tests for the bit-packed GF(2) linear algebra core."""

import itertools
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hgpforge import f2la
from hgpforge.f2la import BinaryMatrix

from helpers import compose_blocks


def random_matrix(rng, rows, cols, density=0.5):
    return BinaryMatrix(
        rows,
        cols,
        [
            sum(1 << j for j in range(cols) if rng.random() < density)
            for _ in range(rows)
        ],
    )


def enumerate_row_space(m):
    """Oracle: all XOR combinations of the rows."""
    space = {0}
    for word in m.bits:
        space |= {v ^ word for v in space}
    return space


class TestRref:
    def test_identity_is_fixed_point(self):
        m = BinaryMatrix.identity(3)
        res = f2la.rref(m)
        assert res.reduced == m
        assert res.pivot_columns == (0, 1, 2)
        assert res.rank == 3

    def test_dependent_rows_rank_two(self):
        m = BinaryMatrix.from_rows(["110", "011", "101"])
        # Oracle: exhaustive row-space enumeration over the 2^3 combinations.
        space = enumerate_row_space(m)
        assert len(space) == 4  # rank 2 means 2^2 elements
        res = f2la.rref(m)
        assert res.rank == 2
        assert enumerate_row_space(res.reduced) == space

    def test_zero_matrix(self):
        res = f2la.rref(BinaryMatrix.zeros(2, 4))
        assert res.rank == 0
        assert res.pivot_columns == ()

    def test_idempotent(self):
        rng = random.Random(7)
        for _ in range(40):
            m = random_matrix(rng, rng.randrange(1, 7), rng.randrange(1, 7))
            red = f2la.rref(m).reduced
            assert f2la.rref(red).reduced == red

    def test_row_space_preserved(self):
        rng = random.Random(11)
        for _ in range(30):
            m = random_matrix(rng, rng.randrange(1, 6), rng.randrange(1, 6))
            assert enumerate_row_space(f2la.rref(m).reduced) == enumerate_row_space(m)

    def test_pivot_pattern(self):
        rng = random.Random(3)
        for _ in range(30):
            m = random_matrix(rng, rng.randrange(1, 7), rng.randrange(1, 7))
            res = f2la.rref(m)
            assert list(res.pivot_columns) == sorted(res.pivot_columns)
            for i, p in enumerate(res.pivot_columns):
                col = [(res.reduced.bits[r] >> p) & 1 for r in range(m.rows)]
                assert col == [1 if r == i else 0 for r in range(m.rows)]


class TestKernel:
    def test_repetition_circulant(self):
        m = BinaryMatrix.from_rows(["110", "011", "101"])
        ker = f2la.kernel_basis(m)
        assert ker.rows == 1
        assert ker.bits[0] == 0b111

    def test_identity_empty_kernel(self):
        assert f2la.kernel_basis(BinaryMatrix.identity(4)).rows == 0

    def test_zero_matrix_full_kernel(self):
        ker = f2la.kernel_basis(BinaryMatrix.zeros(2, 3))
        assert ker.rows == 3
        assert f2la.rank(ker) == 3

    def test_kernel_annihilated(self):
        rng = random.Random(5)
        for _ in range(50):
            m = random_matrix(rng, rng.randrange(1, 8), rng.randrange(1, 8))
            ker = f2la.kernel_basis(m)
            assert f2la.matmul(m, f2la.transpose(ker)).is_zero()

    def test_rank_nullity_200_random(self):
        rng = random.Random(2024)
        for _ in range(200):
            rows = rng.randrange(1, 13)
            cols = rng.randrange(1, 13)
            m = random_matrix(rng, rows, cols, density=rng.uniform(0.1, 0.9))
            assert f2la.rank(m) + f2la.kernel_basis(m).rows == cols

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 8), st.integers(0, 10), st.data())
    def test_within_a_mask_keeps_the_rows_that_meet_it(self, rows, cols, data):
        # a masked-out column is free with a unit row outside the mask; the
        # other rows are the whole kernel's that meet the mask, in its order
        words = data.draw(st.lists(st.integers(0, (1 << cols) - 1), min_size=rows, max_size=rows))
        mask = data.draw(st.integers(0, (1 << cols) - 1))
        masked = f2la.mask_columns(BinaryMatrix(rows, cols, words), mask)
        whole = f2la.kernel_basis(masked)
        inside = f2la.kernel_basis(masked, within=mask)
        assert list(inside.bits) == [v for v in whole.bits if v & mask]
        assert inside.cols == cols and inside.rows == whole.rows - (cols - mask.bit_count())


class TestProducts:
    def test_matmul_basic(self):
        a = BinaryMatrix.from_rows(["11", "01"])
        b = BinaryMatrix.from_rows(["10", "11"])
        # oracle by hand: row0 = row0(b) ^ row1(b) = 10^11 = 01
        assert f2la.matmul(a, b) == BinaryMatrix.from_rows(["01", "11"])

    def test_matmul_dimension_mismatch(self):
        with pytest.raises(ValueError):
            f2la.matmul(BinaryMatrix.zeros(2, 3), BinaryMatrix.zeros(2, 3))

    def test_kron_identity_block_diagonal(self):
        m = BinaryMatrix.from_rows(["11", "10"])
        k = f2la.kron(BinaryMatrix.identity(2), m)
        assert k == BinaryMatrix.from_rows(["1100", "1000", "0011", "0010"])

    def test_kron_rank_multiplicative(self):
        rng = random.Random(17)
        for _ in range(10):
            a = random_matrix(rng, 3, 4)
            b = random_matrix(rng, 3, 4)
            # oracle: rank of the explicitly built product
            assert f2la.rank(f2la.kron(a, b)) == f2la.rank(a) * f2la.rank(b)

    def test_kron_index_convention(self):
        a = random_matrix(random.Random(1), 2, 3)
        b = random_matrix(random.Random(2), 3, 2)
        k = f2la.kron(a, b)
        for ia, ja, ib, jb in itertools.product(range(2), range(3), range(3), range(2)):
            assert k.get(ia * 3 + ib, ja * 2 + jb) == a.get(ia, ja) * b.get(ib, jb)

    def test_kron_associative(self):
        rng = random.Random(23)
        for _ in range(5):
            a = random_matrix(rng, 2, 2)
            b = random_matrix(rng, 2, 3)
            c = random_matrix(rng, 3, 2)
            assert f2la.kron(f2la.kron(a, b), c) == f2la.kron(a, f2la.kron(b, c))

    def test_transpose_involution(self):
        rng = random.Random(29)
        m = random_matrix(rng, 5, 7)
        assert f2la.transpose(f2la.transpose(m)) == m


class TestSolve:
    def test_identity(self):
        m = BinaryMatrix.identity(4)
        assert f2la.solve(m, 0b1010) == 0b1010

    def test_underdetermined_verified_by_enumeration(self):
        m = BinaryMatrix.from_rows(["110", "011"])
        b = 0b11
        x = f2la.solve(m, b)
        assert x is not None
        assert f2la.mat_vec(m, x) == b
        # oracle: some solution exists among all 2^3 candidates
        sols = [v for v in range(8) if f2la.mat_vec(m, v) == b]
        assert x in sols

    def test_inconsistent(self):
        assert f2la.solve(BinaryMatrix.zeros(2, 3), 0b01) is None

    def test_random_consistency(self):
        rng = random.Random(31)
        for _ in range(100):
            m = random_matrix(rng, rng.randrange(1, 7), rng.randrange(1, 7))
            target = rng.getrandbits(m.cols)
            b = f2la.mat_vec(m, target)
            x = f2la.solve(m, b)
            assert x is not None and f2la.mat_vec(m, x) == b

    def test_free_variables_zeroed(self):
        m = BinaryMatrix.from_rows(["10", "00"])
        assert f2la.solve(m, 0b1) == 0b1  # free column 1 stays 0


class TestRowSpace:
    def test_membership_matches_enumeration(self):
        rng = random.Random(37)
        for _ in range(20):
            m = random_matrix(rng, rng.randrange(1, 5), rng.randrange(1, 6))
            space = enumerate_row_space(m)
            rs = f2la.RowSpace(m)
            for v in range(1 << m.cols):
                assert rs.contains(v) == (v in space)

    def test_extend(self):
        rs = f2la.RowSpace(BinaryMatrix.from_rows(["110"]))  # word 0b011
        assert not rs.extend(0b011)  # dependent
        assert rs.extend(0b110)
        assert rs.rank == 2
        assert rs.contains(0b101)

    @pytest.mark.parametrize("word", [0b100, 0b101, 1 << 70, -1, -4])
    def test_extend_refuses_a_word_outside_the_columns(self, word):
        rs = f2la.RowSpace(cols=2)
        rs.extend(0b01)
        with pytest.raises(ValueError, match="word has bits outside 2 columns"):
            rs.extend(word)
        assert rs.rank == 1
        kernel = f2la.kernel_basis(rs)
        assert (kernel.rows, kernel.cols) == (rs.cols - rs.rank, 2)
        assert kernel.bits == (0b10,)

    def test_extend_takes_every_word_inside_the_columns(self):
        rs = f2la.RowSpace(cols=3)
        assert [rs.extend(v) for v in range(1 << 3)] == [False, True, True, False, True] + [False] * 3
        assert f2la.kernel_basis(rs).rows == 0
        empty = f2la.RowSpace(cols=0)
        assert not empty.extend(0)
        with pytest.raises(ValueError):
            empty.extend(1)


class TestTextFormat:
    def test_round_trip(self):
        rng = random.Random(41)
        for _ in range(20):
            m = random_matrix(rng, rng.randrange(0, 5), rng.randrange(1, 9))
            text = f2la.format_matrix_text(m, comment="round trip")
            assert f2la.parse_matrix_text(text) == m

    def test_comments_and_blanks(self):
        text = "# a comment\n\n2 3\n110\n011\n"
        assert f2la.parse_matrix_text(text) == BinaryMatrix.from_rows(["110", "011"])

    @pytest.mark.parametrize(
        "bad",
        ["", "2\n11\n11", "1 2\n1", "1 2\n12", "2 2\n11", "x y\n"],
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            f2la.parse_matrix_text(bad)


class TestRowReaders:
    """`from_rows` and `parse_matrix_text` read rows through one reader."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 9).flatmap(
        lambda cols: st.lists(st.text("01", min_size=cols, max_size=cols), min_size=1, max_size=6)
    ))
    def test_same_matrix_from_both(self, rows):
        m = BinaryMatrix.from_rows(rows)
        assert m == f2la.parse_matrix_text(f"{len(rows)} {len(rows[0])}\n" + "\n".join(rows))
        assert m.to_strings() == rows
        assert all(m.get(r, c) == int(ch) for r, row in enumerate(rows) for c, ch in enumerate(row))

    @pytest.mark.parametrize(
        "rows, message",
        [
            (["110", "0x1"], "bad matrix character 'x'"),
            (["1+0"], "bad matrix character '+'"),
            (["1_0"], "bad matrix character '_'"),
            (["1 0"], "bad matrix character ' '"),
            (["110", "01"], "ragged rows"),
            (["110", "0112"], "bad matrix character '2'"),
        ],
    )
    def test_bad_rows_are_refused(self, rows, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            BinaryMatrix.from_rows(rows)
        text = f"{len(rows)} {len(rows[0])}\n" + "\n".join(rows)
        with pytest.raises(ValueError, match=f"^bad matrix row {re.escape(repr(rows[-1]))}$"):
            f2la.parse_matrix_text(text)

    @pytest.mark.parametrize("row", [[1, 0, 1], 0b101, (1, 0), b"101", None])
    def test_from_rows_refuses_a_non_string_row(self, row):
        with pytest.raises(ValueError, match="matrix rows must be 0/1 strings"):
            BinaryMatrix.from_rows(["101", row])

    def test_from_rows_strips_whitespace(self):
        assert BinaryMatrix.from_rows([" 10\n", "01 "]) == BinaryMatrix.identity(2)
        assert BinaryMatrix.from_rows(["", ""]) == BinaryMatrix.zeros(2, 0)


class TestEdgeShapes:
    def test_zero_row_and_column_matrices(self):
        m0 = BinaryMatrix.zeros(0, 3)
        assert f2la.rank(m0) == 0
        assert f2la.kernel_basis(m0).rows == 3
        mc = BinaryMatrix.zeros(3, 0)
        assert f2la.rank(mc) == 0
        assert f2la.transpose(mc).rows == 0

    def test_bit_mask_invariant(self):
        with pytest.raises(ValueError):
            BinaryMatrix(1, 2, [0b100])

    @pytest.mark.parametrize(
        "bits, row",
        [([0b11, -1, 0b01], 1), ([0b01, 0b10, 0b100], 2), ([0b1000, -2], 0)],
    )
    def test_row_outside_the_columns_is_named(self, bits, row):
        with pytest.raises(ValueError, match=f"^row {row} has bits outside 2 columns$"):
            BinaryMatrix(len(bits), 2, bits)

    def test_compose_blocks(self):
        a = BinaryMatrix.identity(2)
        m = compose_blocks(2, 4, [(0, 0, a), (0, 2, a)])
        assert m == BinaryMatrix.from_rows(["1010", "0101"])


def low_bit_indices(v):
    """Reference: the set bits of v, ascending, by clearing the lowest."""
    out = []
    while v:
        low = v & -v
        out.append(low.bit_length() - 1)
        v ^= low
    return out


class TestIndicesOf:
    @settings(max_examples=300, deadline=None)
    @given(
        st.one_of(
            st.just(0),
            st.integers(0, 39_999).map(lambda b: 1 << b),
            st.sets(st.integers(0, 39_999), max_size=16).map(f2la.vector_from_indices),
            st.binary(max_size=5_000).map(lambda raw: int.from_bytes(raw, "little")),
        )
    )
    def test_matches_the_low_bit_loop(self, v):
        assert f2la.indices_of(v) == low_bit_indices(v)
