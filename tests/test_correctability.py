"""Tests for the cleaning-lemma dichotomy, cleaning, and the union lemma."""

import itertools
import random

import pytest

from hgpforge import classical, correctability, css, f2la, product
from hgpforge.correctability import Region
from hgpforge.css import PauliOperator

from helpers import column_subset_witness, filtered_witness, reference_verdict


def toric_code(t, length):
    seeds = [classical.cyclic_repetition_check(length)] * t
    return css.assemble_css(product.build_product(seeds), 1)


@pytest.fixture(scope="module")
def toric18():
    return toric_code(2, 3)


def region_holds_logical(code, qubits):
    """Independent oracle: enumerate all patterns supported inside the region."""
    qubits = sorted(qubits)
    hx_space = f2la.RowSpace(code.hx)
    hz_space = f2la.RowSpace(code.hz)
    for r in range(1, len(qubits) + 1):
        for combo in itertools.combinations(qubits, r):
            v = f2la.vector_from_indices(combo)
            if f2la.mat_vec(code.hz, v) == 0 and not hx_space.contains(v):
                return True
            if f2la.mat_vec(code.hx, v) == 0 and not hz_space.contains(v):
                return True
    return False


class TestDichotomy:
    def test_empty_region(self, toric18):
        assert correctability.is_correctable(toric18, Region.of([]))

    def test_all_singletons_correctable(self, toric18):
        for q in range(18):
            verdict = correctability.is_correctable(toric18, [q])
            assert verdict.correctable
            assert not region_holds_logical(toric18, [q])

    def test_canonical_support_not_correctable(self, toric18):
        basis = css.canonical_logical_basis(toric18)
        rep = basis.x_reps[0]
        verdict = correctability.is_correctable(toric18, rep.pauli.support)
        assert not verdict.correctable
        assert verdict.witness_type == "X"
        w = verdict.witness
        # witness re-verification: in ker Hz, outside rowspace(Hx), inside A
        assert f2la.mat_vec(toric18.hz, w.x) == 0
        assert not f2la.RowSpace(toric18.hx).contains(w.x)
        assert w.support <= rep.pauli.support

    def test_matches_oracle_on_random_regions(self, toric18):
        rng = random.Random(55)
        for _ in range(60):
            size = rng.randrange(0, 5)
            region = rng.sample(range(18), size)
            verdict = correctability.is_correctable(toric18, region)
            assert verdict.correctable == (not region_holds_logical(toric18, region))

    def test_monotone_under_subsets(self, toric18):
        rng = random.Random(59)
        for _ in range(30):
            big = rng.sample(range(18), rng.randrange(1, 6))
            small = [q for q in big if rng.random() < 0.6]
            if correctability.is_correctable(toric18, big):
                assert correctability.is_correctable(toric18, small)

    def test_weight_two_all_correctable_weight_three_not_all(self, toric18):
        # d = 3: every pair is correctable, some triple is not
        for pair in itertools.combinations(range(18), 2):
            assert correctability.is_correctable(toric18, pair)
        basis = css.canonical_logical_basis(toric18)
        triple = sorted(basis.x_reps[0].pauli.support)
        assert not correctability.is_correctable(toric18, triple)

    def test_witness_is_lowest_weight(self, toric18):
        basis = css.canonical_logical_basis(toric18)
        support = sorted(basis.x_reps[0].pauli.support | basis.z_reps[0].pauli.support)
        verdict = correctability.is_correctable(toric18, support)
        assert not verdict.correctable
        assert verdict.witness.weight == 3  # no logical of weight < d fits

    def test_out_of_range_region(self, toric18):
        with pytest.raises(ValueError):
            correctability.is_correctable(toric18, [99])


class TestCleanLogical:
    def test_already_clean(self, toric18):
        basis = css.canonical_logical_basis(toric18)
        rep = basis.x_reps[0].pauli
        out = correctability.clean_logical(toric18, rep, Region.of([17]))
        assert (out.x, out.z) == (rep.x, rep.z)

    def test_clean_off_one_qubit(self, toric18):
        basis = css.canonical_logical_basis(toric18)
        rep = basis.x_reps[0].pauli
        target = min(rep.support)
        out = correctability.clean_logical(toric18, rep, Region.of([target]))
        assert target not in out.support
        # equivalence: difference lies in the X-stabilizer row space
        assert f2la.RowSpace(toric18.hx).contains(out.x ^ rep.x)

    def test_multi_row_solve(self, toric18):
        basis = css.canonical_logical_basis(toric18)
        rep = basis.z_reps[1].pauli
        region = sorted(rep.support)[:2]
        out = correctability.clean_logical(toric18, rep, Region.of(region))
        assert not (set(region) & out.support)
        assert f2la.RowSpace(toric18.hz).contains(out.z ^ rep.z)

    def test_clean_off_own_support_deforms(self, toric18):
        # cleaning a representative off its own support is legal: the result
        # is an equivalent representative elsewhere
        basis = css.canonical_logical_basis(toric18)
        rep = basis.x_reps[0].pauli
        out = correctability.clean_logical(toric18, rep, Region.of(rep.support))
        assert not (out.support & rep.support)
        assert f2la.RowSpace(toric18.hx).contains(out.x ^ rep.x)

    def test_uncleanable_region_raises(self, toric18):
        # no stabilizer can erase a nontrivial logical from every qubit
        basis = css.canonical_logical_basis(toric18)
        rep = basis.x_reps[0].pauli
        with pytest.raises(ValueError, match="cleanable"):
            correctability.clean_logical(toric18, rep, Region.of(range(18)))


class TestCleanLogicalMessages:
    """Each part is cleaned on its own, X before Z, and a part no
    stabilizer can clean off the region names its type."""

    @pytest.mark.parametrize("kind", ["X", "Z"])
    def test_an_uncleanable_part_names_its_type(self, toric18, kind):
        basis = css.canonical_logical_basis(toric18)
        rep = (basis.x_reps if kind == "X" else basis.z_reps)[0].pauli
        with pytest.raises(ValueError) as info:
            correctability.clean_logical(toric18, rep, range(18))
        assert str(info.value) == f"region is not cleanable for the {kind} part"

    def test_the_x_part_is_cleaned_first(self, toric18):
        basis = css.canonical_logical_basis(toric18)
        x, z = basis.x_reps[0].pauli.x, basis.z_reps[1].pauli.z
        both = PauliOperator(18, x=x, z=z)
        with pytest.raises(ValueError, match="^region is not cleanable for the X part$"):
            correctability.clean_logical(toric18, both, range(18))
        # an X stabilizer is cleaned off every qubit, so the Z part fails next
        stab_and_z = PauliOperator(18, x=toric18.hx.bits[0], z=z)
        with pytest.raises(ValueError, match="^region is not cleanable for the Z part$"):
            correctability.clean_logical(toric18, stab_and_z, range(18))

    def test_both_parts_are_cleaned_with_the_x_then_z_sign(self, toric18):
        basis = css.canonical_logical_basis(toric18)
        op = PauliOperator(18, x=basis.x_reps[0].pauli.x, z=basis.z_reps[0].pauli.z)
        region = [min(f2la.indices_of(op.x & op.z))]  # a qubit in both parts
        out = correctability.clean_logical(toric18, op, region)
        x_stab, z_stab = out.x ^ op.x, out.z ^ op.z
        expected = css.pauli_mul(
            css.pauli_mul(op, PauliOperator(18, x=x_stab)), PauliOperator(18, z=z_stab)
        )
        assert out == expected and not out.support & set(region)
        assert toric18.hx_space.contains(x_stab) and toric18.hz_space.contains(z_stab)


class TestUnionLemma:
    def test_geometrically_separated(self, toric18):
        # two far-apart single qubits in the same sector can share no weight-4 star
        r1, r2 = [0], [8]
        assert correctability.union_lemma_check(toric18, r1, r2)

    def test_empty_second_region(self, toric18):
        assert correctability.union_lemma_check(toric18, [0, 1], [])

    def test_adjacent_regions_share_generator(self, toric18):
        row = toric18.hx.bits[0]
        qubits = f2la.indices_of(row)
        assert not correctability.union_lemma_check(toric18, [qubits[0]], [qubits[1]])

    def test_overlap_rejected(self, toric18):
        with pytest.raises(ValueError, match="overlap"):
            correctability.union_lemma_check(toric18, [0, 1], [1, 2])

    def test_scan_matches_direct_oracle(self, toric18):
        rng = random.Random(61)
        for _ in range(40):
            r1 = set(rng.sample(range(18), rng.randrange(0, 4)))
            r2 = set(rng.sample(range(18), rng.randrange(0, 4))) - r1
            expected = True
            for mat in (toric18.hx, toric18.hz):
                for word in mat.bits:
                    sup = set(f2la.indices_of(word))
                    if sup & r1 and sup & r2:
                        expected = False
            assert correctability.union_lemma_check(toric18, r1, r2) == expected


class TestIndicesOutsideTheCode:
    """Every entry point refuses a qubit outside the code, with one message."""

    ENTRY_POINTS = {
        "is_correctable": lambda code, q: correctability.is_correctable(code, [0, q]),
        "clean_logical": lambda code, q: correctability.clean_logical(
            code, css.canonical_logical_basis(code).x_reps[0].pauli, [0, 1, 2, q]
        ),
        "union_lemma_check first": lambda code, q: correctability.union_lemma_check(
            code, [0, q], [1]
        ),
        "union_lemma_check second": lambda code, q: correctability.union_lemma_check(
            code, [1], [0, q]
        ),
    }

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    @pytest.mark.parametrize("qubit", [18, 100, -1])  # the code has 18 qubits
    def test_refused(self, toric18, entry, qubit):
        with pytest.raises(ValueError, match="region index out of range"):
            self.ENTRY_POINTS[entry](toric18, qubit)


class TestVerdictSerialization:
    def test_json_round_trip(self, toric18):
        verdict = correctability.is_correctable(toric18, [0])
        assert verdict.to_json() == {"correctable": True}
        basis = css.canonical_logical_basis(toric18)
        verdict = correctability.is_correctable(toric18, basis.x_reps[0].pauli.support)
        out = verdict.to_json()
        assert out["correctable"] is False
        assert out["witness_type"] == "X"
        assert out["witness"] == sorted(verdict.witness.support)


class TestWitnessDifferential:
    """The kernel-basis walk against a walk over the column subsets of the region."""

    @staticmethod
    def codes():
        rng = random.Random(16)
        hamming = classical.hamming_7_4().h
        out = [toric_code(2, length) for length in (3, 4, 5, 7)]
        out.append(toric_code(3, 3))
        out.append(css.assemble_css(product.build_product([hamming, f2la.transpose(hamming)]), 1))
        for _ in range(4):
            r, c = rng.randrange(2, 5), rng.randrange(3, 6)
            seed = f2la.BinaryMatrix(r, c, [rng.getrandbits(c) for _ in range(r)])
            out.append(css.assemble_css(product.build_product([seed, f2la.transpose(seed)]), 1))
        return out

    @staticmethod
    def regions(code, rng, count):
        """Random regions of 1..20 qubits, logical supports padded with up to
        two qubits, and regions of exactly 20 and 21 qubits."""
        basis = css.canonical_logical_basis(code)
        supports = [rep.pauli.support for rep in basis.x_reps + basis.z_reps]
        for i in range(count):
            if supports and i % 2:
                region = set(rng.choice(supports))
                region.update(rng.sample(range(code.n), rng.randrange(3)))
            else:
                region = set(rng.sample(range(code.n), rng.randrange(1, min(20, code.n) + 1)))
            yield region
        for size in (20, 21):
            if size <= code.n:
                yield set(rng.sample(range(code.n), size))

    def test_same_verdicts_as_the_column_subset_walk(self):
        rng = random.Random(2026)
        searches = 0
        sizes, witnessed = set(), 0
        for code in self.codes():
            for region in self.regions(code, rng, 100):
                verdict = correctability.is_correctable(code, region)
                got = (
                    verdict.correctable,
                    sorted(verdict.witness.support) if verdict.witness else None,
                    verdict.witness_type,
                )
                assert got == reference_verdict(code, region), (code.n, sorted(region))
                searches += 2
                sizes.add(len(region))
                witnessed += not verdict.correctable
        whole = toric_code(2, 3)
        everything = set(range(whole.n))
        verdict = correctability.is_correctable(whole, everything)
        assert (False, 3) == (verdict.correctable, verdict.witness.weight)
        assert (False, sorted(verdict.witness.support), verdict.witness_type) == reference_verdict(
            whole, everything
        )
        assert searches >= 2000
        assert {1, 20, 21} <= sizes and witnessed >= 400, (sorted(sizes), witnessed)

    def test_a_tie_summed_from_as_many_rows_as_its_weight(self):
        # Kernel basis of these checks: {0,1,2}, {3,4}, {0,1,5}.  The weight-2
        # words are the row {3,4} and the two-row sum {2,5}, which comes
        # first lexicographically, so the walk must finish the subsets of
        # the best weight's size.
        h = f2la.BinaryMatrix(3, 6, [0b100101, 0b100110, 0b011000])
        none = f2la.RowSpace(cols=6)
        expected = f2la.vector_from_indices([2, 5])
        assert column_subset_witness(h, none, range(6)) == expected
        assert correctability._witness(h, none, 0b111111) == expected


class TestWitnessReadsOnlyTheRegion:
    """`_witness` builds the kernel rows of the free columns inside the
    region alone; verdicts and witnesses equal those read off the whole
    kernel basis of the masked checks, filtered to the region."""

    def test_same_witnesses_as_the_filtered_kernel(self):
        rng = random.Random(34)
        codes = TestWitnessDifferential.codes() + [toric_code(2, 12), toric_code(3, 4)]
        compared, offending, sizes = 0, 0, set()
        for code in codes:
            for _ in range(40):
                size = rng.choice([1, rng.randrange(1, 21), 21, max(1, code.n // 4)])
                mask = f2la.vector_from_indices(rng.sample(range(code.n), min(size, code.n)))
                for h, space in ((code.hz, code.hx_space), (code.hx, code.hz_space)):
                    masked = f2la.mask_columns(h, mask)
                    whole = f2la.kernel_basis(masked).bits
                    inside = f2la.kernel_basis(masked, within=mask).bits
                    assert list(inside) == [v for v in whole if v & mask], (code.n, f2la.indices_of(mask))
                    got = correctability._witness(h, space, mask)
                    assert got == filtered_witness(h, space, mask), (code.n, f2la.indices_of(mask))
                    compared += 1
                    offending += got is not None
                    sizes.add(mask.bit_count())
        assert compared >= 800 and offending >= 150, (compared, offending)
        assert {1, 20, 21, 72} <= sizes, sorted(sizes)
