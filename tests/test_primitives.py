"""Property tests of the shared GF(2) primitives against brute force.

Every instance is small enough that the oracle enumerates all 2^n vectors
or all subsets outright.
"""

import bisect
import itertools
import math
import random
from functools import reduce
from operator import xor

from hypothesis import given, settings
from hypothesis import strategies as st

from hgpforge import classical, correctability, f2la, product
from hgpforge.f2la import BinaryMatrix

from helpers import column_supports, lift, restrict_columns, restricted_clean

MAX_N = 7
SETTINGS = settings(max_examples=60, deadline=None)


@st.composite
def matrices(draw, max_rows=5, max_cols=MAX_N, min_cols=0):
    rows = draw(st.integers(0, max_rows))
    cols = draw(st.integers(min_cols, max_cols))
    words = draw(st.lists(st.integers(0, (1 << cols) - 1), min_size=rows, max_size=rows))
    return BinaryMatrix(rows, cols, words)


@st.composite
def column_lists(draw, n):
    """Distinct columns of an n-column matrix, in any order."""
    perm = draw(st.permutations(range(n)))
    return perm[: draw(st.integers(0, n))]


def span(rows):
    out = {0}
    for row in rows:
        out |= {v ^ row for v in out}
    return out


def codewords(h):
    return [x for x in range(1 << h.cols) if f2la.mat_vec(h, x) == 0]


def column_scan_rref(m):
    """Reference RREF: scan the columns, swap a pivot row up, clear the column."""
    work = list(m.bits)
    pivots = []
    for col in range(m.cols):
        top = len(pivots)
        sel = next((r for r in range(top, m.rows) if (work[r] >> col) & 1), None)
        if sel is None:
            continue
        work[top], work[sel] = work[sel], work[top]
        for r in range(m.rows):
            if r != top and (work[r] >> col) & 1:
                work[r] ^= work[top]
        pivots.append(col)
    return BinaryMatrix(m.rows, m.cols, work), tuple(pivots)


@st.composite
def rows_with_repeats(draw, max_rows=8, max_cols=MAX_N):
    """Matrices whose rows repeat a few words, zero among them."""
    cols = draw(st.integers(0, max_cols))
    words = draw(st.lists(st.integers(0, (1 << cols) - 1), min_size=1, max_size=4))
    rows = draw(st.lists(st.sampled_from([0] + words), max_size=max_rows))
    return BinaryMatrix(len(rows), cols, rows)


ELIMINATION_INPUTS = st.one_of(matrices(max_rows=8), rows_with_repeats())


class GaussJordanRowSpace:
    """Reference row space kept in reduced row-echelon form: each new pivot
    is cleared from every stored row, and `reduce` runs over all of them."""

    def __init__(self, cols):
        self.cols = cols
        self.rows = []  # (pivot low-bit mask, reduced row), ascending pivot

    def reduce(self, v):
        for low, word in self.rows:
            if v & low:
                v ^= word
        return v

    def extend(self, v):
        v = self.reduce(v)
        if v == 0:
            return False
        low = v & -v
        for i, (row_low, word) in enumerate(self.rows):
            if word & low:
                self.rows[i] = (row_low, word ^ v)
        bisect.insort(self.rows, (low, v))
        return True

    def rref(self, nrows):
        pivots = tuple(low.bit_length() - 1 for low, _ in self.rows)
        basis = [word for _, word in self.rows]
        reduced = BinaryMatrix(nrows, self.cols, basis + [0] * (nrows - len(basis)))
        return f2la.RrefResult(reduced, pivots, len(basis))

    def kernel_basis(self):
        """One vector per free column f: f itself plus the pivots whose
        reduced row holds f."""
        out = []
        for f in range(self.cols):
            if any(low >> f & 1 for low, _ in self.rows):
                continue
            word = 1 << f
            for low, row in self.rows:
                if row >> f & 1:
                    word |= low
            out.append(word)
        return BinaryMatrix(len(out), self.cols, out)


def seeded_matrices():
    """Random matrices of several shapes and densities, and the boundary
    maps of toric and random products with their transposes."""
    rng = random.Random(2026)
    out = []
    for _ in range(60):
        rows, cols = rng.randrange(0, 24), rng.randrange(0, 40)
        density = rng.choice((0.05, 0.2, 0.5))
        words = [
            sum(1 << j for j in range(cols) if rng.random() < density) for _ in range(rows)
        ]
        out.append(BinaryMatrix(rows, cols, words))
    complexes = [
        product.build_product([classical.cyclic_repetition_check(length)] * t)
        for t, length in ((2, 3), (2, 5), (3, 3))
    ]
    for _ in range(6):
        shapes = [rng.choice(((3, 4), (4, 4), (4, 5), (2, 3))) for _ in range(rng.choice((2, 3)))]
        seeds = [BinaryMatrix(r, c, [rng.getrandbits(c) for _ in range(r)]) for r, c in shapes]
        complexes.append(product.build_product(seeds))
    for pc in complexes:
        for level in range(1, pc.t + 1):
            out += [pc.boundary(level), f2la.transpose(pc.boundary(level))]
    return out


class TestElimination:
    @SETTINGS
    @given(ELIMINATION_INPUTS)
    def test_rref_matches_the_column_scan(self, m):
        reduced, pivots = column_scan_rref(m)
        red = f2la.rref(m)
        assert (red.reduced, red.pivot_columns, red.rank) == (reduced, pivots, len(pivots))
        assert f2la.rank(m) == f2la.RowSpace(m).rank == len(pivots)

    @SETTINGS
    @given(ELIMINATION_INPUTS, st.data())
    def test_basis_does_not_depend_on_row_order(self, m, data):
        shuffled = data.draw(st.permutations(m.bits))
        assert f2la.rref(BinaryMatrix(m.rows, m.cols, shuffled)) == f2la.rref(m)

    @SETTINGS
    @given(ELIMINATION_INPUTS)
    def test_extend_grows_exactly_outside_the_span(self, m):
        space = f2la.RowSpace(cols=m.cols)
        for r, row in enumerate(m.bits):
            assert space.extend(row) == (row not in span(m.bits[:r]))
        assert {v for v in range(1 << m.cols) if space.contains(v)} == span(m.bits)

    @SETTINGS
    @given(ELIMINATION_INPUTS)
    def test_kernel_basis_reads_a_row_space_as_its_matrix(self, m):
        basis = f2la.kernel_basis(m)
        assert f2la.kernel_basis(f2la.RowSpace(m)) == basis
        assert basis.rows == m.cols - f2la.rank(m)
        assert span(basis.bits) == set(codewords(m))


class TestEchelonRowSpace:
    """The echelon RowSpace against the Gauss-Jordan reference."""

    def test_matches_gauss_jordan(self):
        rng = random.Random(7)
        for m in seeded_matrices():
            space, ref = f2la.RowSpace(cols=m.cols), GaussJordanRowSpace(m.cols)
            for row in m.bits:
                assert space.extend(row) == ref.extend(row)
            assert space.rank == f2la.rank(m) == len(ref.rows)
            assert f2la.rref(m) == ref.rref(m.rows)
            assert f2la.kernel_basis(m) == f2la.kernel_basis(space) == ref.kernel_basis()
            probes = [rng.getrandbits(m.cols) for _ in range(20)]
            probes += [f2la.row_combination(m, rng.getrandbits(m.rows)) for _ in range(20)]
            for v in probes:
                assert space.reduce(v) == ref.reduce(v)
                assert space.contains(v) == (ref.reduce(v) == 0)

    def test_reduced_basis_follows_each_extend(self):
        for m in seeded_matrices()[:30]:
            space, ref = f2la.RowSpace(cols=m.cols), GaussJordanRowSpace(m.cols)
            for row in m.bits:
                space.extend(row)
                ref.extend(row)
                assert f2la.kernel_basis(space) == ref.kernel_basis()

    @SETTINGS
    @given(ELIMINATION_INPUTS, st.data())
    def test_reduce_is_one_key_per_coset(self, m, data):
        x, y = (data.draw(st.integers(0, (1 << m.cols) - 1)) for _ in range(2))
        space = f2la.RowSpace(m)
        assert (space.reduce(x) == space.reduce(y)) == ((x ^ y) in span(m.bits))


class TestSolve:
    @SETTINGS
    @given(matrices(), st.data())
    def test_against_enumeration(self, m, data):
        b = data.draw(st.integers(0, (1 << m.rows) - 1))
        x = f2la.solve(m, b)
        solvable = any(f2la.mat_vec(m, y) == b for y in range(1 << m.cols))
        assert (x is not None) == solvable
        if x is not None:
            assert f2la.mat_vec(m, x) == b
            pivots = f2la.vector_from_indices(f2la.rref(m).pivot_columns)
            assert x & ~pivots == 0


class TestMaskedColumns:
    """Each masked form against the same computation on the columns copied
    out one bit at a time, on random matrices and masks."""

    @SETTINGS
    @given(matrices(min_cols=1), st.data())
    def test_kernel_rows_inside_the_mask(self, m, data):
        mask = data.draw(st.integers(0, (1 << m.cols) - 1))
        cols = f2la.indices_of(mask)
        inside = [v for v in f2la.kernel_basis(f2la.mask_columns(m, mask)).bits if v & mask]
        expected = [lift(v, cols) for v in f2la.kernel_basis(restrict_columns(m, cols)).bits]
        assert inside == expected

    @SETTINGS
    @given(matrices(min_cols=1), st.data())
    def test_clean_with_target(self, m, data):
        mask = data.draw(st.integers(0, (1 << m.cols) - 1))
        target = data.draw(st.integers(0, (1 << m.cols) - 1))
        got = classical.clean_with_target(m, mask, target)
        assert got == restricted_clean(m, f2la.indices_of(mask), target)
        if got is not None:
            assert (got ^ target) & mask == 0

    @SETTINGS
    @given(matrices(max_rows=4, min_cols=1), st.data())
    def test_find_information_set(self, h, data):
        code = classical.ClassicalCode(h)
        allowed = f2la.indices_of(data.draw(st.integers(0, (1 << h.cols) - 1)))
        pivots = f2la.rref(restrict_columns(code.g, allowed)).pivot_columns
        expected = tuple(allowed[p] for p in pivots)
        try:
            info = classical.find_information_set(code, allowed)
        except ValueError:
            assert len(expected) < code.k
            return
        assert info.indices == expected

    @SETTINGS
    @given(matrices(min_cols=1), st.data())
    def test_is_puncture(self, h, data):
        code = classical.ClassicalCode(h)
        gamma = set(data.draw(column_lists(h.cols)))
        comp = [i for i in range(h.cols) if i not in gamma]
        expected = f2la.rank(restrict_columns(h, comp)) == f2la.rank(h)
        assert classical.is_puncture(code, gamma) == expected


class TestSubsetXors:
    @SETTINGS
    @given(st.lists(st.integers(0, 255), max_size=6))
    def test_order_is_nested_combinations(self, words):
        expected = [
            (size, reduce(xor, combo, 0))
            for size in range(1, len(words) + 1)
            for combo in itertools.combinations(words, size)
        ]
        assert list(f2la.subset_xors(words)) == expected


@st.composite
def owned_rows(draw):
    """Rows that each own a column no other row holds: the reduced basis of
    a random matrix, or its kernel_basis rows."""
    m = draw(matrices(max_rows=6, min_cols=1))
    if draw(st.booleans()):
        return f2la.rref(m).nonzero_rows()
    return list(f2la.kernel_basis(m).bits)


def lightest_kept(rows, keep):
    """Brute force: the lightest kept nonzero word of the span, ties broken by
    lexicographic support, or None."""
    kept = [v for v in span(rows) if v and keep(v)]
    return min(kept, key=lambda v: (v.bit_count(), f2la.indices_of(v)), default=None)


class TestLightestWord:
    @SETTINGS
    @given(owned_rows(), st.data())
    def test_equals_brute_minimum(self, rows, data):
        words = sorted(span(rows))
        dropped = data.draw(st.sets(st.sampled_from(words)))
        keep = data.draw(st.sampled_from([None, lambda v: v not in dropped, lambda v: False]))
        expected = lightest_kept(rows, keep or (lambda v: True))
        assert f2la.lightest_word(rows, keep=keep) == (expected, True)

    def test_lexicographic_tie(self):
        # rows {2, 3} and {1, 3} own columns 2 and 1; all three nonzero words
        # weigh 2, and their sum {1, 2}, met last, comes first by support
        rows = [0b1100, 0b1010]
        assert f2la.lightest_word(rows) == (0b0110, True)
        assert f2la.lightest_word(rows, keep=lambda v: v != 0b0110) == (0b1010, True)

    @SETTINGS
    @given(owned_rows(), st.integers(0, 70))
    def test_budget_cut_off(self, rows, budget):
        expected = lightest_kept(rows, lambda v: True)
        word, exact = f2la.lightest_word(rows, budget=budget)
        # an uncut walk visits every subset of at most the lightest weight
        top = len(rows) if expected is None else min(expected.bit_count(), len(rows))
        visits = sum(math.comb(len(rows), s) for s in range(1, top + 1))
        assert exact == (budget >= visits)
        if exact:
            assert word == expected
        else:
            assert word is None or word in span(rows)


class TestKron:
    @SETTINGS
    @given(matrices(max_rows=3, max_cols=4), matrices(max_rows=3, max_cols=4))
    def test_entrywise(self, a, b):
        k = f2la.kron(a, b)
        assert (k.rows, k.cols) == (a.rows * b.rows, a.cols * b.cols)
        for ia, ib, ja, jb in itertools.product(
            range(a.rows), range(b.rows), range(a.cols), range(b.cols)
        ):
            entry = k.get(ia * b.rows + ib, ja * b.cols + jb)
            assert entry == a.get(ia, ja) * b.get(ib, jb)


class TestColumnSupports:
    @SETTINGS
    @given(matrices())
    def test_matches_scan(self, m):
        supports = column_supports(m.bits, m.cols)
        assert supports == [
            tuple(r for r in range(m.rows) if m.get(r, c)) for c in range(m.cols)
        ]


class TestInformationSet:
    @SETTINGS
    @given(matrices(max_rows=4, min_cols=1), st.data())
    def test_lexicographically_smallest_inside_t(self, h, data):
        code = classical.ClassicalCode(h)
        t = sorted(set(data.draw(column_lists(h.cols))))
        candidates = [
            combo
            for combo in itertools.combinations(t, code.k)
            if f2la.rank(restrict_columns(code.g, combo)) == code.k
        ]
        try:
            info = classical.find_information_set(code, t)
        except ValueError:
            assert not candidates
            return
        assert info.indices == candidates[0]


class TestDistance:
    @SETTINGS
    @given(matrices(max_rows=4, min_cols=1))
    def test_certificate_is_a_minimum_weight_codeword(self, h):
        code = classical.ClassicalCode(h)
        if code.k == 0:
            return
        cert = classical.distance_certificate(code)
        witness = int(cert["witness"][::-1], 2)
        brute = min(x.bit_count() for x in codewords(h) if x)
        assert witness and f2la.mat_vec(h, witness) == 0
        assert witness.bit_count() == cert["d"] == brute


class TestLightestLogical:
    @SETTINGS
    @given(matrices(max_rows=4, min_cols=1), st.data())
    def test_first_by_weight_then_support(self, h, data):
        stab_rows = data.draw(st.lists(st.sampled_from(codewords(h)), max_size=3))
        space = f2la.RowSpace(BinaryMatrix(len(stab_rows), h.cols, stab_rows))
        cols = sorted(set(data.draw(column_lists(h.cols))))
        expected = next(
            (
                f2la.vector_from_indices(combo)
                for size in range(1, len(cols) + 1)
                for combo in itertools.combinations(cols, size)
                if f2la.mat_vec(h, f2la.vector_from_indices(combo)) == 0
                and not space.contains(f2la.vector_from_indices(combo))
            ),
            None,
        )
        mask = f2la.vector_from_indices(cols)
        assert correctability._witness(h, space, mask) == expected
