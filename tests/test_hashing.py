"""Tests for the level-separated hash families."""

import hashlib
import importlib.util
import random
import subprocess
import sys
from itertools import combinations, product
from pathlib import Path

import pytest

import crtdhss
from crtdhss.fieldpoly import Poly
from crtdhss.hashing import TABLE_FIELD_LIMIT, HashFamily, family_from_params
from crtdhss.params import PublicParams


_CONTEXTS = {"crypto": b"crtdhss.level-hash.v1", "table": b"crtdhss.table-hash.v1"}


def reference_digest(backend, p, level, value, seed=None):
    """SHA-256(context ‖ [seed] ‖ level ‖ value), truncated to floor(log2 p) bits."""
    prefix = _CONTEXTS[backend] + (b"" if seed is None else seed.to_bytes(8, "big"))
    width, output_bits = (p.bit_length() + 7) // 8, p.bit_length() - 1
    data = prefix + level.to_bytes(4, "big") + value.to_bytes(width, "big")
    return int.from_bytes(hashlib.sha256(data).digest(), "big") >> (256 - output_bits)


def reference_coincidence(p, num_levels, seed):
    """The first level pair (i, j), i < j, whose table digests agree on all of F_p."""
    for i, j in combinations(range(1, num_levels + 1), 2):
        if all(
            reference_digest("table", p, i, v, seed) == reference_digest("table", p, j, v, seed)
            for v in range(p)
        ):
            return i, j
    return None


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


class TestDigestFormula:
    @pytest.mark.parametrize(
        "backend, p, levels, seed",
        [
            ("table", 3, 2, 7),
            ("table", 13, 3, 1),
            ("table", 1048573, 2, 5),
            ("crypto", 2**61 - 1, 3, None),
        ],
    )
    def test_hash_element_matches_the_formula(self, backend, p, levels, seed):
        fam = HashFamily(backend, p, levels, table_seed=seed)
        rng = random.Random(p)
        inputs = range(p) if p < 100 else [0, p - 1, *(rng.randrange(p) for _ in range(200))]
        for level in range(1, levels + 1):
            for v in inputs:
                assert fam.hash_element(level, v) == reference_digest(backend, p, level, v, seed)

    def test_table_construction_hashes_on_demand(self, monkeypatch):
        # building every entry up front would take 2 * 1048573 digests
        class CountingHashlib:
            calls = 0

            def sha256(self, data):
                self.calls += 1
                return hashlib.sha256(data)

        shim = CountingHashlib()
        monkeypatch.setattr("crtdhss.hashing.sha256", shim.sha256)
        HashFamily.table(1048573, 2, 5)
        assert 0 < shim.calls < 100

    @pytest.mark.parametrize("levels", [2, 3])
    def test_degenerate_verdict_is_exact(self, levels):
        refused = 0
        for seed in range(300):
            pair = reference_coincidence(3, levels, seed)
            if pair is None:
                HashFamily.table(3, levels, seed)
                continue
            refused += 1
            message = (
                f"degenerate table seed: levels {pair[0]} and {pair[1]} coincide; "
                "pick a different seed"
            )
            with pytest.raises(ValueError) as refusal:
                HashFamily.table(3, levels, seed)
            assert str(refusal.value) == message
        assert 0 < refused < 300


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

    @pytest.mark.parametrize(
        "backend, p, levels, seed",
        [("table", 3, 2, 7), ("table", 13, 3, 1), ("crypto", 2**61 - 1, 3, None),
         ("crypto", 2**64 - 59, 2, None)],
    )
    def test_equals_the_elementwise_hashes_trimmed(self, backend, p, levels, seed):
        fam = HashFamily(backend, p, levels, table_seed=seed)
        rng = random.Random(p)
        vectors = [(0,), (0,) * 4, (p - 1,) * 4, tuple(rng.randrange(p) for _ in range(6))]
        for level in range(1, levels + 1):
            for vector in vectors:
                expected = [fam.hash_element(level, c) for c in vector]
                while expected and not expected[-1]:
                    expected.pop()
                assert fam.hash_poly(level, vector).coeffs == tuple(expected)

    @pytest.mark.parametrize(
        "level, vector, message",
        [
            (1, (), "share vector must have at least one coefficient"),
            (0, (1,), "level 0 out of range 1..2"),
            (3, (1, 2), "level 3 out of range 1..2"),
            (1, (1, 11, 12), "input 11 is not an element of F_11"),
            (1, (-1,), "input -1 is not an element of F_11"),
        ],
    )
    def test_refusals(self, level, vector, message):
        fam = HashFamily.crypto(11, 2)
        for method in (fam.hash_poly, fam.hash_vector):
            with pytest.raises(ValueError) as refusal:
                method(level, vector)
            assert str(refusal.value) == message

    def test_one_digest_per_coefficient(self, monkeypatch):
        calls = []

        def counting(data):
            calls.append(data)
            return hashlib.sha256(data)

        fam = HashFamily.crypto(2**61 - 1, 2)
        monkeypatch.setattr("crtdhss.hashing.sha256", counting)
        for method in (fam.hash_poly, fam.hash_vector):
            for vector in ((5,), (0, 0, 0, 0), tuple(range(36))):
                calls.clear()
                method(2, vector)
                assert len(calls) == len(vector)


class TestHashVector:
    VECTORS = [(0,), (0,) * 4, (1, 0, 0), (2, 1, 0, 0, 0)]

    @pytest.mark.parametrize(
        "backend, p, levels, seed",
        [("table", 3, 2, 7), ("table", 13, 3, 1), ("crypto", 11, 2, None),
         ("crypto", 2**61 - 1, 3, None)],
    )
    def test_equals_hash_element_per_coefficient(self, backend, p, levels, seed):
        fam = HashFamily(backend, p, levels, table_seed=seed)
        rng = random.Random(p)
        vectors = [*self.VECTORS, (p - 1,) * 4, tuple(rng.randrange(p) for _ in range(6))]
        for level in range(1, levels + 1):
            for vector in vectors:
                expected = [fam.hash_element(level, c) for c in vector]
                assert fam.hash_vector(level, vector) == expected

    def test_length_is_the_vector_length(self):
        # at p = 3 a digest has one bit, so zero digests, trailing ones included, are common
        fam = HashFamily.table(3, 2, 7)
        zero_tops = 0
        for length in range(1, 7):
            for vector in product(range(3), repeat=length):
                for level in (1, 2):
                    digests = fam.hash_vector(level, vector)
                    assert len(digests) == length
                    zero_tops += digests[-1] == 0
        assert zero_tops > 0


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


class TestNoOpenSSL:
    @pytest.mark.skipif(
        not any(importlib.util.find_spec(name) for name in ("_sha256", "_sha2")),
        reason="this interpreter has no built-in SHA-256 module",
    )
    def test_importing_every_module_leaves_hashlib_backend_unloaded(self):
        # a fresh interpreter, so modules this test process loaded do not count
        code = (
            "import importlib, pkgutil, sys\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "import crtdhss\n"
            "for module in pkgutil.iter_modules(crtdhss.__path__):\n"
            "    importlib.import_module('crtdhss.' + module.name)\n"
            "print('_hashlib' in sys.modules)\n"
        )
        src = str(Path(crtdhss.__file__).resolve().parents[1])
        run = subprocess.run(
            [sys.executable, "-I", "-c", code, src], capture_output=True, text=True, check=True
        )
        assert run.stdout.split() == ["False"]
