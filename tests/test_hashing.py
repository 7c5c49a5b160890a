"""Tests for the level-separated hash families."""

import random

import pytest

from crtdhss.fieldpoly import Poly
from crtdhss.hashing import TABLE_FIELD_LIMIT, HashFamily, family_from_params
from crtdhss.params import PublicParams


class TestDeterminismAndRange:
    def test_same_input_same_output(self):
        fam = HashFamily.crypto(101, 3)
        assert fam.hash_element(2, 55) == fam.hash_element(2, 55)

    def test_output_range_small_field(self):
        # 2**floor(log2 5) = 4, so every output lands in {0,1,2,3}
        fam = HashFamily.crypto(5, 2)
        for level in (1, 2):
            for v in range(5):
                assert 0 <= fam.hash_element(level, v) < 4

    def test_output_range_random_inputs_crypto(self):
        fam = HashFamily.crypto(2147483647, 2)
        bound = 1 << fam.output_bits
        rng = random.Random(0)
        for _ in range(10**6):
            assert fam.hash_element(1, rng.randrange(fam.p)) < bound

    def test_level_out_of_range(self):
        fam = HashFamily.crypto(11, 2)
        with pytest.raises(ValueError):
            fam.hash_element(0, 1)
        with pytest.raises(ValueError):
            fam.hash_element(3, 1)

    def test_input_must_be_field_element(self):
        fam = HashFamily.crypto(11, 2)
        with pytest.raises(ValueError):
            fam.hash_element(1, 11)


class TestTableBackend:
    def test_pinned_reference_table(self):
        # Regression fixture: full 2x3 table for p=3 with seed 7, as emitted
        # by a reference run of this implementation.
        fam = HashFamily.table(3, 2, 7)
        assert [fam.hash_element(1, v) for v in range(3)] == [0, 0, 0]
        assert [fam.hash_element(2, v) for v in range(3)] == [1, 1, 0]

    def test_equal_seeds_bit_identical(self):
        a = HashFamily.table(101, 3, 12345)
        b = HashFamily.table(101, 3, 12345)
        for level in (1, 2, 3):
            for v in range(101):
                assert a.hash_element(level, v) == b.hash_element(level, v)

    def test_levels_distinct_exactly(self):
        fam = HashFamily.table(101, 4, 9)
        for i in range(1, 5):
            for j in range(i + 1, 5):
                assert any(
                    fam.hash_element(i, v) != fam.hash_element(j, v)
                    for v in range(101)
                )

    def test_degenerate_seed_rejected(self):
        # seed 8 makes both level tables over F_3 coincide
        with pytest.raises(ValueError):
            HashFamily.table(3, 2, 8)

    def test_field_limit(self):
        with pytest.raises(ValueError):
            HashFamily.table(2147483647, 2, 1)
        assert TABLE_FIELD_LIMIT < 2147483647

    @pytest.mark.parametrize(
        "backend, p, levels, seed, message",
        [
            ("md5", 11, 2, None, "unknown hash backend"),
            ("crypto", 1, 2, None, "at least 2"),
            ("crypto", 11, 0, None, "at least one level"),
            ("table", 11, 2, None, "requires a seed"),
            ("table", 11, 2, 2**64, "64 bits"),
            ("crypto", 11, 2, 1, "takes no seed"),
        ],
    )
    def test_constructor_refusals(self, backend, p, levels, seed, message):
        with pytest.raises(ValueError, match=message):
            HashFamily(backend, p, levels, table_seed=seed)

    @pytest.mark.parametrize(
        "backend, p, seed, message",
        [
            ("md5", 11, None, "unknown hash backend 'md5'"),
            ("crypto", 11, 1, "the crypto backend takes no seed"),
            ("table", 11, None, "the table backend requires a seed"),
            ("table", 11, -1, "table seed must fit in 64 bits"),
            ("table", 11, 2**64, "table seed must fit in 64 bits"),
            ("table", 2**61 - 1, 5, "the table hash backend needs p <= 1048576"),
        ],
        ids=["unknown-backend", "crypto-seed", "table-no-seed", "seed-negative",
             "seed-2^64", "table-above-field-limit"],
    )
    def test_params_and_family_refuse_alike(self, backend, p, seed, message):
        with pytest.raises(ValueError) as from_params:
            PublicParams(p, 1, (Poly(p, [1, 1]),), hash_backend=backend, table_seed=seed)
        with pytest.raises(ValueError) as from_family:
            HashFamily(backend, p, 2, table_seed=seed)
        assert str(from_params.value) == str(from_family.value) == message

    def test_exhaustive_range_check(self):
        fam = HashFamily.table(257, 2, 3)
        bound = 1 << fam.output_bits
        for level in (1, 2):
            for v in range(257):
                assert 0 <= fam.hash_element(level, v) < bound


class TestCryptoDistinctness:
    def test_levels_differ_statistically(self):
        fam = HashFamily.crypto(2147483647, 3)
        rng = random.Random(1)
        samples = [rng.randrange(fam.p) for _ in range(64)]
        for i in (1, 2):
            for j in range(i + 1, 4):
                assert any(
                    fam.hash_element(i, v) != fam.hash_element(j, v) for v in samples
                )


class TestHashPoly:
    def test_single_coefficient(self):
        fam = HashFamily.crypto(11, 2)
        out = fam.hash_poly(1, (6,))
        assert out == Poly(11, [fam.hash_element(1, 6)])

    def test_all_zero_vector(self):
        fam = HashFamily.table(3, 2, 7)
        h0 = fam.hash_element(2, 0)
        assert fam.hash_poly(2, (0, 0, 0)) == Poly(3, [h0, h0, h0])

    def test_commutes_with_coefficient_projection(self):
        fam = HashFamily.table(101, 2, 5)
        vector = (13, 0, 87, 5)
        out = fam.hash_poly(2, vector)
        for j, c in enumerate(vector):
            assert out.coefficient(j) == fam.hash_element(2, c)

    def test_empty_vector_rejected(self):
        fam = HashFamily.crypto(11, 2)
        with pytest.raises(ValueError):
            fam.hash_poly(1, ())


class TestFamilyFromParams:
    def test_backend_selection(self):
        moduli = (Poly(11, [1, 1]),)
        crypto = family_from_params(PublicParams(11, 1, moduli), 2)
        assert crypto.backend == "crypto"
        table = family_from_params(
            PublicParams(11, 1, moduli, hash_backend="table", table_seed=4), 2
        )
        assert table.backend == "table"
        assert table.table_seed == 4
