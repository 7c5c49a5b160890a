"""Tests for access structures, parameter conditions, and moduli generation."""

import collections
import itertools
import pickle
import random
import re

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from crtdhss import fieldpoly
from crtdhss.cli import main
from crtdhss.errors import InsufficientIrreduciblesError, InvalidParametersError
from crtdhss.fieldpoly import Poly, is_pairwise_coprime, poly_gcd, vectors
from crtdhss.fileio import save_bulletin, save_params, save_share
from crtdhss.hashing import family_from_params
from crtdhss.params import (
    AccessStructure,
    PublicParams,
    ValidationReport,
    check_params,
    generate_moduli,
    information_rate,
    is_authorized,
    is_irreducible,
    min_authorized_level,
    monic_irreducible_count,
    validate_params,
)
from crtdhss.scheme import deal, reconstruct


def linear(p, a):
    """The monic modulus x - a."""
    return Poly(p, [-a, 1])


def params_with_degrees(p, d0, degrees, seed=0):
    moduli = generate_moduli(p, degrees, random.Random(seed))
    return PublicParams(p=p, d0=d0, moduli=moduli)


class TestAccessStructure:
    def test_prefix_counts(self):
        s = AccessStructure((3, 4), (2, 3))
        assert s.m == 2
        assert s.n == 7
        assert s.prefix_counts == (3, 7)
        assert s.level_of(3) == 1
        assert s.level_of(4) == 2

    def test_threshold_ordering_enforced(self):
        with pytest.raises(ValueError):
            AccessStructure((3, 4), (3, 2))
        with pytest.raises(ValueError):
            AccessStructure((3, 4), (2, 2))
        with pytest.raises(ValueError):
            AccessStructure((3,), (0,))

    def test_threshold_bounded_by_level_size(self):
        with pytest.raises(ValueError):
            AccessStructure((1, 2), (2, 3))

    def test_level_of_out_of_range(self):
        s = AccessStructure((2, 2), (1, 2))
        with pytest.raises(ValueError):
            s.level_of(5)

    # Four levels of size 1 cannot be built (t_l rises with l and t_l <= n_l), so the four-level
    # case takes the smallest sizes that can, n_l = l.
    @pytest.mark.parametrize(
        "sizes, thresholds",
        [((5,), (3,)), ((1, 2, 3, 4), (1, 2, 3, 4)), ((3, 4), (2, 3)), ((4, 8, 12), (3, 6, 9))],
        ids=["one_level", "four_levels", "two_levels", "wide_session"],
    )
    def test_level_of_matches_a_scan_of_the_prefix_counts(self, sizes, thresholds):
        s = AccessStructure(sizes, thresholds)
        for i in range(1, s.n + 1):
            scanned = next(l for l, bound in enumerate(s.prefix_counts, 1) if i <= bound)
            assert s.level_of(i) == scanned
        for i in (0, -1, s.n + 1):
            message = f"participant index {i} out of range 1..{s.n}"
            with pytest.raises(ValueError, match=re.escape(message)):
                s.level_of(i)


class TestValidateParams:
    def test_equal_degrees_satisfy_condition_iii_with_equality(self):
        s = AccessStructure((3, 4), (2, 3))
        params = params_with_degrees(11, 1, [1] * 7)
        assert validate_params(s, params).ok

    def test_modulus_with_zero_constant_term_violates_condition_i(self):
        s = AccessStructure((2,), (1,))
        params = PublicParams(5, 1, (Poly(5, [0, 1]), linear(5, 1)))
        report = validate_params(s, params)
        assert any(v.startswith("condition_i:") for v in report.violations)

    def test_degree_profile_violating_condition_iii(self):
        # degrees (1,1,2) with d0=1 and t=2: 1+2 <= 1+1 fails
        s = AccessStructure((3,), (2,))
        moduli = (linear(5, 1), linear(5, 2), Poly(5, [2, 0, 1]))
        report = validate_params(s, PublicParams(5, 1, moduli))
        assert any(v.startswith("condition_iii:") for v in report.violations)
        assert not report.ok

    def test_decreasing_degrees_violate_condition_ii(self):
        s = AccessStructure((2,), (1,))
        moduli = (Poly(5, [2, 0, 1]), linear(5, 1))
        report = validate_params(s, PublicParams(5, 1, moduli))
        assert any(v.startswith("condition_ii:") for v in report.violations)

    def test_shared_factor_reported(self):
        s = AccessStructure((2,), (1,))
        moduli = (linear(5, 1), linear(5, 1))
        report = validate_params(s, PublicParams(5, 1, moduli))
        assert any(v.startswith("pairwise_coprime:") for v in report.violations)

    def test_moduli_count_mismatch(self):
        s = AccessStructure((3,), (2,))
        report = validate_params(s, PublicParams(5, 1, (linear(5, 1),)))
        assert any(v.startswith("participant_count:") for v in report.violations)

    def test_all_violations_listed_not_just_first(self):
        s = AccessStructure((2,), (1,))
        moduli = (Poly(5, [0, 1]), Poly(5, [0, 2]))
        report = validate_params(s, PublicParams(5, 1, moduli))
        assert len([v for v in report.violations if v.startswith("condition_i")]) == 2

    def test_condition_iii_subset_domination(self):
        # With condition (iii) satisfied, any t_l - 1 participants plus the
        # secret slot fit under the first t_l degrees.
        s = AccessStructure((2, 3), (2, 3))
        params = params_with_degrees(11, 1, [2, 2, 2, 2, 3])
        assert validate_params(s, params).ok
        degrees = params.degrees
        for level, t in enumerate(s.thresholds, start=1):
            low = sum(degrees[:t])
            for subset in itertools.combinations(range(s.n), t - 1):
                assert params.d0 + sum(degrees[i] for i in subset) <= low


class TestPublicParamsConstruction:
    def test_composite_p_rejected(self):
        with pytest.raises(ValueError):
            PublicParams(9, 1, (Poly(9, [1, 1]),))

    def test_table_seed_pairing(self):
        with pytest.raises(ValueError):
            PublicParams(5, 1, (linear(5, 1),), hash_backend="table")
        with pytest.raises(ValueError):
            PublicParams(5, 1, (linear(5, 1),), hash_backend="crypto", table_seed=3)
        PublicParams(5, 1, (linear(5, 1),), hash_backend="table", table_seed=3)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_table_seed_outside_64_bits_rejected(self, seed):
        with pytest.raises(ValueError, match="64 bits"):
            PublicParams(5, 1, (linear(5, 1),), hash_backend="table", table_seed=seed)
        PublicParams(5, 1, (linear(5, 1),), hash_backend="table", table_seed=2**64 - 1)

    def test_table_backend_field_limit(self):
        big = 2**61 - 1
        with pytest.raises(ValueError, match="table hash backend needs p <= 1048576"):
            PublicParams(big, 1, (linear(big, 1),), hash_backend="table", table_seed=5)
        PublicParams(big, 1, (linear(big, 1),))
        PublicParams(1048573, 1, (linear(1048573, 1),), hash_backend="table", table_seed=5)

    @pytest.mark.parametrize(
        "moduli, message",
        [((), "at least one modulus"), ((Poly(7, [1, 1]),), "polynomial over F_p")],
    )
    def test_moduli_refused(self, moduli, message):
        with pytest.raises(ValueError, match=message):
            PublicParams(5, 1, moduli)

    def test_constant_modulus_rejected(self):
        with pytest.raises(ValueError):
            PublicParams(5, 1, (Poly(5, [2]),))


class TestGenerateModuli:
    # (3, 2) takes the whole linear class over F_3: x - 1 and x - 2.
    @pytest.mark.parametrize("p, count", [(11, 3), (3, 2)], ids=["f11", "f3_whole_class"])
    def test_distinct_linear_moduli(self, p, count):
        moduli = generate_moduli(p, [1] * count, random.Random(1))
        assert len(set(moduli)) == count
        assert {m.coeffs for m in moduli} <= {linear(p, a).coeffs for a in range(1, p)}
        assert is_pairwise_coprime(moduli)

    # The class has p - 1 members; 4099 is above the enumeration cutoff, so
    # it must refuse before its first rejection-sampling draw.
    @pytest.mark.parametrize(
        "p, count", [(3, 8), (3, 3), (4099, 4099)], ids=["f3", "f3_one_over", "f4099_one_over"]
    )
    def test_linear_class_exhaustion(self, p, count):
        rng = random.Random(1)
        with pytest.raises(InsufficientIrreduciblesError):
            generate_moduli(p, [1] * count, rng)
        assert rng.getrandbits(32) == random.Random(1).getrandbits(32)

    def test_quadratics_over_f5(self):
        s = AccessStructure((2,), (2,))
        moduli = generate_moduli(5, [2, 2], random.Random(7))
        report = validate_params(s, PublicParams(5, 2, moduli))
        assert report.ok
        assert all(is_irreducible(m) for m in moduli)

    def test_every_quadratic_over_f3(self):
        moduli = generate_moduli(3, [2, 2, 2], random.Random(1))
        assert {m.coeffs for m in moduli} == {(1, 0, 1), (2, 1, 1), (2, 2, 1)}

    # One more than the class: 3 quadratics over F_3, and 630 = (2^13 - 2)/13
    # of degree 13 over F_2, which is above the enumeration cutoff and must
    # refuse before its first rejection-sampling draw.
    @pytest.mark.parametrize("p, degree, count", [(3, 2, 4), (2, 13, 631)], ids=["f3", "f2_deg13"])
    def test_quadratic_class_exhaustion(self, p, degree, count):
        rng = random.Random(1)
        with pytest.raises(InsufficientIrreduciblesError):
            generate_moduli(p, [degree] * count, rng)
        assert rng.getrandbits(32) == random.Random(1).getrandbits(32)

    def test_output_satisfies_first_two_conditions_and_coprimality(self):
        for seed in range(5):
            moduli = generate_moduli(11, [1, 1, 2, 2, 3], random.Random(seed))
            degrees = [m.degree for m in moduli]
            assert degrees == [1, 1, 2, 2, 3]
            assert all(m.coefficient(0) != 0 for m in moduli)
            assert is_pairwise_coprime(moduli)

    def test_determinism_under_seed(self):
        a = generate_moduli(101, [1, 2, 3], random.Random(42))
        b = generate_moduli(101, [1, 2, 3], random.Random(42))
        assert a == b

    def test_large_prime_sampling(self):
        p = 2147483647
        moduli = generate_moduli(p, [1, 2, 3], random.Random(0))
        assert [m.degree for m in moduli] == [1, 2, 3]
        assert is_pairwise_coprime(moduli)

    # (p, degree profile, seed) -> moduli coefficients and the next
    # getrandbits(32) of the generator, recorded before the irreducible
    # search was rewritten: the moduli and the RNG draw order must not move.
    RECORDED = [
        ((5, (2, 2, 3), 7), [(1, 4, 1), (2, 1, 1), (4, 0, 3, 1)], 1599435267),
        ((3, (1, 2, 2, 3), 1), [(1, 1), (2, 1, 1), (1, 0, 1), (1, 1, 2, 1)], 3387541014),
        ((13, (1, 2, 2), 11), [(10, 1), (4, 12, 1), (7, 10, 1)], 3036610734),
        ((2, (3, 4, 4), 3), [(1, 0, 1, 1), (1, 0, 0, 1, 1), (1, 1, 0, 0, 1)], 1588945316),
        ((101, (1, 2, 3), 42), [(58, 1), (27, 72, 1), (82, 58, 18, 1)], 1137651678),
        (
            (2**61 - 1, (4, 4, 4), 0),
            [
                (227732760937485529, 170038471347814651, 1961059127498785820,
                 761382955877241386, 1),
                (1290842471401412695, 815787256865852916, 729099949088039586,
                 1476715823205914297, 1),
                (471493580871636924, 1274032851996869569, 1020781383185682438,
                 1202159644764861342, 1),
            ],
            1118805955,
        ),
        ((2147483647, (2, 3), 5),
         [(1592975436, 769949150, 1), (243107963, 798420159, 1007318097, 1)], 3729944832),
        # Each of the last two samples a candidate it has already chosen, and
        # must skip it: once for degree 1 and once for degree 13.
        ((4099, (1, 1, 1, 1), 21), [(2747, 1), (674, 1), (1794, 1), (174, 1)], 3621853979),
        (
            (2, (13, 13, 13), 12),
            [
                (1, 1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 0, 1, 1),
                (1, 1, 1, 1, 1, 0, 0, 0, 1, 0, 1, 0, 1, 1),
                (1, 1, 0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 1, 1),
            ],
            4199394388,
        ),
    ]

    @pytest.mark.parametrize("case, coeffs, next_draw", RECORDED)
    def test_recorded_outputs(self, case, coeffs, next_draw):
        # The first four cases enumerate (p**degree <= 4096), the rest sample;
        # each runs twice so the second call meets a warm irreducible cache.
        p, profile, seed = case
        for _ in range(2):
            rng = random.Random(seed)
            assert [m.coeffs for m in generate_moduli(p, profile, rng)] == coeffs
            assert rng.getrandbits(32) == next_draw

    def test_decreasing_profile_rejected(self):
        with pytest.raises(ValueError):
            generate_moduli(11, [2, 1], random.Random(0))


class TestIrreducibility:
    def brute_force_reducible(self, f):
        p = f.p
        for d in range(1, f.degree // 2 + 1):
            for low in vectors(p, d):
                if (f % Poly(p, low + (1,))).is_zero:
                    return True
        return False

    def test_matches_trial_division_small_fields(self):
        for p in (2, 3, 5):
            for degree in (2, 3, 4):
                for low in vectors(p, degree):
                    f = Poly(p, low + (1,))
                    assert is_irreducible(f) == (not self.brute_force_reducible(f))

    def test_matches_sympy_over_mersenne_61(self):
        p = 2**61 - 1
        rng = random.Random(2024)
        verdicts = []
        for _ in range(60):
            degree = rng.randint(2, 6)
            coeffs = [rng.randrange(p) for _ in range(degree)] + [1]
            expected = sympy.Poly(coeffs[::-1], sympy.Symbol("x"), modulus=p).is_irreducible
            assert is_irreducible(Poly(p, coeffs)) == expected
            verdicts.append(expected)
        assert True in verdicts and False in verdicts

    def test_reducible_without_linear_factor(self):
        # (x^2 + 1)(x^2 + x + 2) over F_3: both factors are irreducible
        # quadratics, so only the second Frobenius power exposes it.
        f = Poly(3, [1, 0, 1]) * Poly(3, [2, 1, 1])
        assert not is_irreducible(f)
        assert poly_gcd(f, Poly(3, [0, 1])) == Poly.one(3)

    def test_counts_match_formula(self):
        # degree 6 takes the Mobius function's branch for a composite with no square factor
        cases = [
            (2, 2, 1), (2, 3, 2), (2, 4, 3), (3, 2, 3), (3, 3, 8), (5, 2, 10), (2, 6, 9), (3, 6, 116)
        ]
        for p, degree, expected in cases:
            assert monic_irreducible_count(p, degree) == expected

    @pytest.mark.parametrize(
        "f, expected", [(Poly(5), False), (Poly(5, [3]), False), (Poly(5, [3, 1]), True)]
    )
    def test_degrees_below_two_decided_without_frobenius(self, f, expected):
        assert is_irreducible(f) is expected


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: AccessStructure((0, 2), (1, 2)), "every level must have at least one participant"),
        (lambda: monic_irreducible_count(2, 0), "degree must be positive"),
        (
            lambda: generate_moduli(11, [], random.Random(0)),
            "degree profile must be nonempty and positive",
        ),
        (
            lambda: generate_moduli(11, [0, 2], random.Random(0)),
            "degree profile must be nonempty and positive",
        ),
    ],
    ids=["empty level", "degree 0 count", "empty profile", "degree 0 modulus"],
)
def test_refused_with_its_message(call, message):
    with pytest.raises(ValueError) as caught:
        call()
    assert str(caught.value) == message


def test_validation_report_is_true_exactly_when_valid():
    assert ValidationReport()
    assert not ValidationReport(("pairwise_coprime: some moduli share a factor",))


class TestAuthorization:
    def setup_method(self):
        self.s = AccessStructure((3, 4), (2, 3))

    def test_bottom_level_pair_is_unauthorized(self):
        assert not is_authorized(self.s, {4, 5})
        assert min_authorized_level(self.s, {4, 5}) is None

    def test_empty_subset(self):
        assert not is_authorized(self.s, set())

    def test_top_level_pair_authorized_at_level_one(self):
        assert is_authorized(self.s, {1, 2})
        assert min_authorized_level(self.s, {1, 2}) == 1

    def test_full_set(self):
        assert min_authorized_level(self.s, set(range(1, 8))) == 1

    def test_mixed_coalition_authorized_at_level_two(self):
        assert min_authorized_level(self.s, {1, 4, 5}) == 2

    def test_out_of_range_index(self):
        with pytest.raises(ValueError):
            is_authorized(self.s, {0})
        with pytest.raises(ValueError):
            is_authorized(self.s, {8})

    @given(st.sets(st.integers(1, 7)), st.integers(1, 7))
    def test_monotone(self, subset, extra):
        s = AccessStructure((3, 4), (2, 3))
        if is_authorized(s, subset):
            assert is_authorized(s, subset | {extra})


class TestInformationRate:
    def test_equal_degrees_give_rate_one(self):
        s = AccessStructure((3, 4), (2, 3))
        params = params_with_degrees(11, 1, [1] * 7)
        assert information_rate(s, params) == 1

    def test_ratio_of_degree_bounds(self):
        s = AccessStructure((2,), (1,))
        moduli = (linear(5, 1), Poly(5, [2, 0, 1]))
        assert information_rate(s, PublicParams(5, 1, moduli)) == 0.5

    def test_equal_spaces(self):
        s = AccessStructure((2,), (2,))
        params = params_with_degrees(5, 2, [2, 2])
        assert information_rate(s, params) == 1

    def test_never_exceeds_one_for_valid_params(self):
        for seed in range(10):
            rng = random.Random(seed)
            degrees = sorted(rng.randint(1, 3) for _ in range(4))
            d0 = rng.randint(1, degrees[0])
            params = params_with_degrees(11, d0, degrees, seed=seed)
            s = AccessStructure((4,), (rng.randint(1, 4),))
            assert information_rate(s, params) <= 1


class TestValidateOnce:
    """validate_params is memoized: repeated calls on one pair do the work once."""

    @pytest.fixture
    def validations(self):
        """Number of validations actually run, starting from an empty memo."""
        validate_params.cache_clear()
        return lambda: validate_params.cache_info().misses

    def dealt(self):
        structure = AccessStructure((3, 4), (2, 3))
        params = params_with_degrees(11, 1, [1] * 7, seed=3)
        family = family_from_params(params, structure.m)
        shares, bulletin = deal(structure, params, family, (5,), random.Random(1))
        return structure, params, family, shares, bulletin

    def test_deal_and_three_reconstructs_validate_once(self, validations):
        structure, params, family, shares, bulletin = self.dealt()
        for coalition in (shares[:2], shares[3:6], shares):
            assert reconstruct(structure, params, family, bulletin, coalition) == (5,)
        assert validations() == 1
        assert validate_params.cache_info().hits == 3

    def test_cli_reconstruct_validates_once(self, validations, tmp_path, capsys):
        structure, params, _, shares, bulletin = self.dealt()
        save_params(tmp_path / "params.json", structure, params)
        save_bulletin(tmp_path / "bulletin.json", bulletin)
        for share in shares[:2]:
            save_share(tmp_path / f"share_{share.participant}.json", share)
        validate_params.cache_clear()
        code = main([
            "reconstruct", "--params", str(tmp_path / "params.json"),
            "--bulletin", str(tmp_path / "bulletin.json"),
            str(tmp_path / "share_1.json"), str(tmp_path / "share_2.json"),
        ])
        assert code == 0 and capsys.readouterr().out == "5\n"
        assert validations() == 1

    def test_shapes_derived_once_and_kept_out_of_equality(self, validations):
        structure = AccessStructure((3, 4), (2, 3))
        first = params_with_degrees(11, 1, [1] * 7, seed=3)
        second = params_with_degrees(11, 1, [1] * 7, seed=3)
        assert first == second and first is not second
        assert validate_params(structure, first).ok
        assert second.degrees == (1,) * 7
        assert second.degrees is second.degrees
        assert structure.prefix_counts is structure.prefix_counts
        assert validate_params(structure, second).ok
        assert validations() == 1
        assert hash(first) == hash(second)

    def test_hash_is_computed_once_and_keys_the_memo(self, validations, monkeypatch):
        structure = AccessStructure((3, 4), (2, 3))
        first = params_with_degrees(11, 1, [1] * 7, seed=3)
        second = params_with_degrees(11, 1, [1] * 7, seed=3)
        computed = []  # the (p, coeffs) keys whose hash Poly.__hash__ computes
        record = lambda key: computed.append(key) or hash(key)
        monkeypatch.setattr(fieldpoly, "hash", record, raising=False)
        assert hash(first) == hash(second) == hash(first) == hash(second)
        assert validate_params(structure, first).ok and validate_params(structure, second).ok
        assert validations() == 1
        moduli = first.moduli + second.moduli  # equal in value, distinct objects
        assert collections.Counter(computed) == collections.Counter((m.p, m.coeffs) for m in moduli)
        unused = next(a for a in range(1, 11) if linear(11, a) not in first.moduli)
        third = PublicParams(11, 1, first.moduli[:-1] + (linear(11, unused),))
        assert third != first
        assert validate_params(structure, third).ok
        assert validations() == 2

    def test_pickled_copies_hash_equal_and_share_the_memo(self, validations):
        structure = AccessStructure((3, 4), (2, 3))
        params = PublicParams(11, 1, generate_moduli(11, [1] * 7, random.Random(3)), "table", 5)
        assert validate_params(structure, params).ok
        for original in (params.moduli[0], params):
            kept = hash(original)  # computed before pickling
            copy = pickle.loads(pickle.dumps(original))
            assert copy == original and copy is not original
            assert hash(copy) == kept
        copy = pickle.loads(pickle.dumps(params))
        assert validate_params(structure, copy) is validate_params(structure, params)
        assert validations() == 1

    def test_invalid_pair_fails_on_every_call(self, validations):
        structure = AccessStructure((3,), (2,))
        moduli = (linear(5, 1), linear(5, 2), Poly(5, [2, 0, 1]))
        params = PublicParams(5, 1, moduli)  # degrees (1,1,2) violate (iii)
        for _ in range(3):
            with pytest.raises(InvalidParametersError):
                check_params(structure, params)
        assert validations() == 1
