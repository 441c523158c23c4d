"""Tests for classical code primitives: distance, information sets, cleaning."""

import itertools
import random

import pytest

from hgpforge import classical, f2la
from hgpforge.classical import ClassicalCode
from hgpforge.f2la import BinaryMatrix

from helpers import compose_blocks


def enumerate_codewords(code):
    """Oracle: all 2^k codewords by direct combination of generator rows."""
    words = {0}
    for row in code.g.bits:
        words |= {w ^ row for w in words}
    return words


def enumerate_row_space(m):
    space = {0}
    for word in m.bits:
        space |= {v ^ word for v in space}
    return space


@pytest.fixture(scope="module")
def hamming():
    return classical.hamming_7_4()


class TestDistance:
    def test_repetition_3(self):
        assert classical.distance(classical.repetition_code(3)) == 3

    def test_hamming_7_4_by_enumeration(self, hamming):
        # Oracle: all 16 codewords explicitly.
        words = enumerate_codewords(hamming)
        assert len(words) == 16
        expected = min(w.bit_count() for w in words if w)
        assert expected == 3
        assert classical.distance(hamming) == 3

    def test_identity_generator(self):
        code = ClassicalCode(BinaryMatrix.zeros(0, 4))
        assert code.k == 4
        assert classical.distance(code) == 1

    def test_trivial_code_errors(self):
        code = ClassicalCode(BinaryMatrix.identity(3))
        assert code.k == 0
        with pytest.raises(ValueError, match="trivial"):
            classical.distance(code)

    def test_large_k_info_set_path(self):
        # No checks, k = 25: the generator walk stops after its weight-one messages.
        code = ClassicalCode(BinaryMatrix.zeros(0, 25))
        assert classical.distance(code) == 1

    def test_certificate(self, hamming):
        cert = classical.distance_certificate(hamming)
        assert (cert["n"], cert["k"], cert["d"]) == (7, 4, 3)
        witness = int(cert["witness"][::-1], 2)
        assert witness.bit_count() == 3
        assert f2la.mat_vec(hamming.h, witness) == 0


class TestInformationSet:
    def test_repetition_restricted(self):
        code = classical.repetition_code(3)
        info = classical.find_information_set(code, {1, 2})
        # Oracle: direct inspection of all singletons inside T.
        assert info.indices == (1,)

    def test_hamming_full_range(self, hamming):
        info = classical.find_information_set(hamming)
        assert len(info) == 4
        # Oracle: brute force over all C(7,4) subsets confirms at least one
        # valid info set exists and the returned one is among them.
        valid = []
        for combo in itertools.combinations(range(7), 4):
            cols = [sum(((hamming.g.bits[r] >> c) & 1) << r for r in range(4)) for c in combo]
            if f2la.rank(BinaryMatrix(4, 4, [sum(((cols[j] >> r) & 1) << j for j in range(4)) for r in range(4)])) == 4:
                valid.append(combo)
        assert valid
        assert info.indices in valid
        # lexicographically smallest by the greedy construction
        assert info.indices == min(valid)

    def test_identity_generator_takes_everything(self):
        code = ClassicalCode(BinaryMatrix.zeros(0, 3))
        assert classical.find_information_set(code).indices == (0, 1, 2)

    def test_failure_outside_precondition(self):
        code = classical.repetition_code(3)
        with pytest.raises(ValueError, match="no information set"):
            classical.find_information_set(code, set())

    def test_no_codeword_vanishes_on_info_set(self, hamming):
        info = classical.find_information_set(hamming)
        mask = f2la.vector_from_indices(info.indices)
        for w in enumerate_codewords(hamming):
            if w:
                assert w & mask, "nonzero codeword vanishing on the information set"

    def test_info_set_is_puncture(self, hamming):
        for t in [range(7), range(1, 7)]:
            info = classical.find_information_set(hamming, t)
            assert classical.is_puncture(hamming, info.indices)


class TestDisjointInformationSet:
    def test_repetition_avoid_zero(self):
        code = classical.repetition_code(3)
        info = classical.disjoint_information_set(code, {0})
        assert set(info.indices) <= {1, 2}

    def test_hamming_avoid_pair(self, hamming):
        info = classical.disjoint_information_set(hamming, {0, 1})
        assert len(info) == 4
        assert not set(info.indices) & {0, 1}

    def test_empty_region(self, hamming):
        assert len(classical.disjoint_information_set(hamming, set())) == 4

    def test_region_too_large(self, hamming):
        with pytest.raises(ValueError, match="too large"):
            classical.disjoint_information_set(hamming, {0, 1, 2})


class TestCleaning:
    def test_repetition_single_index(self):
        code = ClassicalCode(BinaryMatrix.from_rows(["110", "011"]))
        h = classical.classical_clean(code, {0})
        # Oracle: enumerate all 4 row-space elements.
        candidates = [v for v in enumerate_row_space(code.h) if v & 1]
        assert h in candidates
        assert h == 0b011 or h == 0b110  # restricted to {0} it is all-ones
        assert h & 1

    def test_hamming_all_singletons(self, hamming):
        space = enumerate_row_space(hamming.h)
        for q in range(7):
            h = classical.classical_clean(hamming, {q})
            assert h in space and (h >> q) & 1

    def test_empty_gamma(self, hamming):
        assert classical.classical_clean(hamming, set()) == 0

    def test_uncleanable_raises(self):
        code = classical.repetition_code(3)
        # gamma of size 2 > (d-1)/2 = 1 can still succeed or fail; the full
        # support gamma={0,1,2} needs the all-ones vector in the row space,
        # which for the chain checks {110,011} it is not.
        with pytest.raises(ValueError, match="not cleanable"):
            classical.classical_clean(code, {0, 1, 2})

    def test_exhaustive_within_bound(self, hamming):
        # Every gamma with |gamma| <= (d-1)/2 cleans, for the repetition
        # family n <= 9 and the Hamming code (also acceptance criterion 5).
        for n in range(2, 10):
            code = classical.repetition_code(n)
            bound = (n - 1) // 2
            space = enumerate_row_space(code.h)
            for size in range(1, bound + 1):
                for gamma in itertools.combinations(range(n), size):
                    h = classical.classical_clean(code, gamma)
                    assert h in space
                    assert all((h >> q) & 1 for q in gamma)
        for gamma in itertools.combinations(range(7), 1):
            classical.classical_clean(hamming, gamma)


class TestIndicesOutsideTheCode:
    """Every entry point refuses an index outside the code, with one message."""

    ENTRY_POINTS = {
        "find_information_set": lambda code, i: classical.find_information_set(code, [0, i]),
        "disjoint_information_set": lambda code, i: classical.disjoint_information_set(
            code, [0, i]
        ),
        "classical_clean": lambda code, i: classical.classical_clean(code, [0, i]),
        "is_puncture": lambda code, i: classical.is_puncture(code, [0, i]),
    }

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    @pytest.mark.parametrize("index", [5, 9, -1])
    def test_refused(self, entry, index):
        code = classical.repetition_code(5)
        with pytest.raises(ValueError, match="index set out of range"):
            self.ENTRY_POINTS[entry](code, index)


class TestPuncture:
    def test_standard_form_example(self):
        # H = (J | I) in standard form: the first k coordinates puncture H.
        j_block = BinaryMatrix.from_rows(["10", "11", "01"])
        h = compose_blocks(3, 5, [(0, 0, j_block), (0, 2, BinaryMatrix.identity(3))])
        code = ClassicalCode(h)
        assert code.k == 2
        assert classical.is_puncture(code, {0, 1})

    def test_full_support_not_puncture(self, hamming):
        assert not classical.is_puncture(hamming, set(range(7)))

    def test_repetition_pair_not_puncture(self):
        code = ClassicalCode(BinaryMatrix.from_rows(["110", "011", "101"]))
        # Oracle: row 110 lies inside {0,1}.
        assert 0b011 in enumerate_row_space(code.h)
        assert not classical.is_puncture(code, {0, 1})
        assert classical.is_puncture(code, {0})

    def test_puncture_matches_enumeration(self, hamming):
        space = enumerate_row_space(hamming.h)
        rng = random.Random(13)
        for _ in range(40):
            gamma = {q for q in range(7) if rng.random() < 0.4}
            mask = f2la.vector_from_indices(gamma)
            expected = not any(v and (v | mask) == mask for v in space)
            assert classical.is_puncture(hamming, gamma) == expected
