"""Round trips, bulletin structure, and failure modes of the hierarchy scheme."""

import copy
import itertools
import random

import pytest
from conftest import dealt_masters

from crtdhss import oracle, scheme, yang
from crtdhss.errors import (
    FieldMismatchError,
    InconsistentSharesError,
    InvalidParametersError,
    MissingBulletinEntryError,
    UnauthorizedSubsetError,
)
from crtdhss.fieldpoly import Poly, _power_columns
from crtdhss.hashing import HashFamily, family_from_params
from crtdhss.params import (
    AccessStructure,
    PublicParams,
    generate_moduli,
    is_authorized,
    validate_params,
)
from crtdhss.scheme import (
    Bulletin,
    Share,
    deal,
    reconstruct,
    unmask_share,
)


def make_setup(p, level_sizes, thresholds, degrees, d0=1, seed=0, backend="crypto"):
    structure = AccessStructure(level_sizes, thresholds)
    moduli = generate_moduli(p, degrees, random.Random(seed))
    if backend == "table":
        params = PublicParams(p, d0, moduli, hash_backend="table", table_seed=seed + 1)
    else:
        params = PublicParams(p, d0, moduli)
    family = family_from_params(params, structure.m)
    assert validate_params(structure, params).ok
    return structure, params, family


def count_layout_calls(monkeypatch):
    """Count `scheme._layout` calls, through each module that imports the name."""
    calls, layout = [], scheme._layout

    def counted(*args):
        calls.append(args)
        return layout(*args)

    for module in (scheme, yang, oracle):
        monkeypatch.setattr(module, "_layout", counted)
    return calls


def random_secret(params, rng):
    return tuple(rng.randrange(params.p) for _ in range(params.d0))


class TestDeal:
    def test_single_level_has_empty_bulletin_and_residue_shares(self):
        structure, params, family = make_setup(11, (3,), (2,), [1, 1, 1])
        shares, bulletin = deal(structure, params, family, (7,), random.Random(5))
        assert bulletin.entries == {}
        (f,) = dealt_masters(structure, params, (7,), random.Random(5))
        for share in shares:
            assert share.poly(11) == f % params.moduli[share.participant - 1]

    def test_deterministic_under_seed(self):
        structure, params, family = make_setup(11, (3, 4), (2, 3), [1] * 7)
        a = deal(structure, params, family, (3,), random.Random(99))
        b = deal(structure, params, family, (3,), random.Random(99))
        assert a == b

    def test_bulletin_index_set_is_exact(self):
        structure, params, family = make_setup(
            11, (2, 2, 3), (1, 2, 3), [1] * 7, seed=3
        )
        _, bulletin = deal(structure, params, family, (4,), random.Random(0))
        expected = set()
        prefix = structure.prefix_counts
        for level in (1, 2):
            expected |= {(level, i) for i in range(1, prefix[level - 1] + 1)}
        expected |= {(3, i) for i in range(1, prefix[1] + 1)}
        assert set(bulletin.entries) == expected

    def test_bulletin_entries_unmask_to_master_residues(self):
        structure, params, family = make_setup(11, (3, 4), (2, 3), [1] * 7, seed=2)
        shares, bulletin = deal(structure, params, family, (9,), random.Random(8))
        masters = dealt_masters(structure, params, (9,), random.Random(8))
        for (level, i), w in bulletin.entries.items():
            expected = masters[level - 1] % params.moduli[i - 1]
            masked = family.hash_poly(level, shares[i - 1].coeffs)
            assert (w + masked) % params.moduli[i - 1] == expected

    def test_each_level_reduces_through_one_map_application(self):
        # 2 + 4 + 7 prefix residues over 3 levels, from 3 lookups of the map
        structure, params, family = make_setup(11, (2, 2, 3), (1, 2, 3), [1] * 7, seed=3)
        before = _power_columns.cache_info()
        deal(structure, params, family, (4,), random.Random(0))
        after = _power_columns.cache_info()
        assert after.hits + after.misses - before.hits - before.misses == structure.m

    def test_a_deal_lays_out_once(self, monkeypatch):
        calls = count_layout_calls(monkeypatch)
        structure, params, family = make_setup(11, (2, 2, 3), (1, 2, 3), [1] * 7, seed=3)
        deal(structure, params, family, (4,), random.Random(0))
        assert len(calls) == 1

    def test_a_yang_deal_lays_out_once(self, monkeypatch):
        calls = count_layout_calls(monkeypatch)
        structure, params, _ = make_setup(11, (3, 4), (2, 3), [1] * 7)
        yang.yang_deal(structure, params, (4,), random.Random(0))
        assert len(calls) == 1

    @pytest.mark.parametrize("mode", ["coalition", "full"])
    def test_enumeration_lays_out_the_same_for_any_coalition_size(self, monkeypatch, mode):
        # audit-size: p = 13, d0 = 1, table hash; {2, 3} is unauthorized under (1, 3)/(1, 3)
        structure, params, _ = make_setup(13, (1, 3), (1, 3), [1, 2, 2, 2], backend="table")
        calls, counts = count_layout_calls(monkeypatch), []
        for coalition in ({2}, {2, 3}):
            view, _ = oracle.observe_coalition(structure, params, coalition, mode, random.Random(1))
            calls.clear()
            oracle.enumerate_consistent(view)
            counts.append(len(calls))
        assert counts[0] == counts[1] > 0

    def test_degree_discipline(self):
        structure, params, family = make_setup(
            11, (2, 3), (2, 3), [2, 2, 2, 2, 3], seed=1
        )
        shares, bulletin = deal(structure, params, family, (1,), random.Random(4))
        masters = dealt_masters(structure, params, (1,), random.Random(4))
        degrees = params.degrees
        for share in shares:
            assert len(share.coeffs) == degrees[share.participant - 1]
        for (level, i), w in bulletin.entries.items():
            assert w.degree < degrees[i - 1]
        for level, f in enumerate(masters, start=1):
            t = structure.thresholds[level - 1]
            assert f.degree < sum(degrees[:t])

    def test_masters_stay_congruent_to_secret(self):
        structure, params, _ = make_setup(
            11, (2, 2), (1, 2), [2, 2, 2, 2], d0=2, seed=6
        )
        secret = (3, 8)
        masters = dealt_masters(structure, params, secret, random.Random(1))
        for f in masters:
            assert (f % params.secret_modulus).padded(2) == secret

    @pytest.mark.parametrize("p", [2, 3])
    def test_masters_are_the_secret_then_alpha_digits(self, p):
        # f_l = Poly(p, secret | alpha_l), alpha_l replayed from the deal's Random; at p = 2 and 3
        # many of these digit vectors end in zeros, so f_l has fewer coefficients than digits
        structure, params, family = make_setup(p, (1, 2), (1, 2), [2, 3, 3], d0=2)
        alpha_lens = [sum(params.degrees[:t]) - params.d0 for t in structure.thresholds]
        n_random = structure.prefix_counts[-2]
        trailing_zeros = 0
        for secret in itertools.product(range(p), repeat=params.d0):
            if all(secret):
                continue
            for seed in range(12):
                masters = dealt_masters(structure, params, secret, random.Random(seed))
                digit_counts = [len(secret) + n for n in alpha_lens]
                trailing_zeros += sum(len(f.coeffs) < k for f, k in zip(masters, digit_counts))

                residues = scheme._master_residues(
                    structure, params, alpha_lens, secret, random.Random(seed)
                )
                for f, bound, rows in zip(masters, structure.prefix_counts, residues):
                    assert len(rows) == bound
                    for m, row in zip(params.moduli, rows):
                        assert row == (f % m).padded(m.degree)

                # the bottom level's shares of a deal, and every share of a Yang deal
                shares = deal(structure, params, family, secret, random.Random(seed))[0][n_random:]
                shares += yang.yang_deal(structure, params, secret, random.Random(seed))[0]
                for share in shares:
                    m = params.moduli[share.participant - 1]
                    assert share.coeffs == (masters[share.level - 1] % m).padded(m.degree)
        assert trailing_zeros > 0

    def test_a_deal_draws_alphas_then_random_shares(self):
        # After alpha_1..alpha_m, participants 1..N_{m-1} take the next d_i draws each, in
        # participant order; the bottom level holds f_m mod m_i.
        structure, params, family = make_setup(11, (2, 2, 3), (1, 2, 3), [3, 3, 3, 4, 4, 4, 4])
        n_random = structure.prefix_counts[-2]
        for seed in range(8):
            secret = (seed,)
            replay = random.Random(seed)
            masters = dealt_masters(structure, params, secret, replay)
            shares, _ = deal(structure, params, family, secret, random.Random(seed))
            for share in shares:
                m = params.moduli[share.participant - 1]
                if share.participant <= n_random:
                    expected = tuple(replay.randrange(params.p) for _ in range(m.degree))
                else:
                    expected = (masters[-1] % m).padded(m.degree)
                assert share.coeffs == expected

    def test_wrong_secret_length(self):
        structure, params, family = make_setup(11, (3,), (2,), [1, 1, 1])
        with pytest.raises(ValueError):
            deal(structure, params, family, (1, 2), random.Random(0))

    def test_invalid_params_rejected(self):
        structure = AccessStructure((3,), (2,))
        moduli = (Poly(5, [1, 1]), Poly(5, [2, 1]), Poly(5, [2, 0, 1]))
        params = PublicParams(5, 1, moduli)  # degrees (1,1,2) violate (iii)
        family = HashFamily.crypto(5, 1)
        with pytest.raises(InvalidParametersError):
            deal(structure, params, family, (1,), random.Random(0))


class TestReconstruct:
    def test_round_trip_all_authorized_subsets_small(self):
        structure, params, family = make_setup(11, (2, 3), (1, 2), [1] * 5, seed=4)
        rng = random.Random(7)
        secret = random_secret(params, rng)
        shares, bulletin = deal(structure, params, family, secret, rng)
        count = 0
        for r in range(1, 6):
            for subset in itertools.combinations(range(1, 6), r):
                if not is_authorized(structure, subset):
                    continue
                picked = [shares[i - 1] for i in subset]
                assert reconstruct(structure, params, family, bulletin, picked) == secret
                count += 1
        assert count > 0

    def test_property_round_trip_random_configurations(self):
        # 200 random configurations; a sampled authorized subset each
        for trial in range(200):
            rng = random.Random(trial)
            m = rng.choice([1, 2, 3])
            sizes = tuple(rng.randint(1, 3) for _ in range(m))
            thresholds = []
            prev = 0
            for size in sizes:
                lo = prev + 1
                if lo > size:
                    break
                t = rng.randint(lo, size)
                thresholds.append(t)
                prev = t
            if len(thresholds) != m:
                continue
            structure = AccessStructure(sizes, tuple(thresholds))
            d = rng.randint(1, 2)
            d0 = rng.randint(1, d)
            p = rng.choice([11, 101])
            try:
                moduli = generate_moduli(p, [d] * structure.n, random.Random(trial))
            except Exception:
                continue
            params = PublicParams(p, d0, moduli)
            if not validate_params(structure, params).ok:
                continue
            family = family_from_params(params, m)
            secret = random_secret(params, rng)
            shares, bulletin = deal(structure, params, family, secret, rng)
            everyone = list(range(1, structure.n + 1))
            rng.shuffle(everyone)
            subset = []
            for i in everyone:
                subset.append(i)
                if is_authorized(structure, subset):
                    break
            got = reconstruct(
                structure, params, family, bulletin, [shares[i - 1] for i in subset]
            )
            assert got == secret

    def test_unauthorized_pair_rejected(self):
        structure, params, family = make_setup(11, (3, 4), (2, 3), [1] * 7)
        shares, bulletin = deal(structure, params, family, (6,), random.Random(3))
        with pytest.raises(UnauthorizedSubsetError):
            reconstruct(
                structure, params, family, bulletin, [shares[3], shares[4]]
            )

    def test_single_level_degenerates_to_plain_threshold(self):
        structure, params, family = make_setup(101, (3,), (2,), [1, 1, 1])
        secret = (42,)
        shares, bulletin = deal(structure, params, family, secret, random.Random(1))
        for pair in itertools.combinations(shares, 2):
            assert reconstruct(structure, params, family, bulletin, pair) == secret

    def test_subset_order_independent(self):
        structure, params, family = make_setup(11, (3, 4), (2, 3), [1] * 7, seed=9)
        secret = (5,)
        shares, bulletin = deal(structure, params, family, secret, random.Random(2))
        chosen = [shares[0], shares[3], shares[4]]
        for perm in itertools.permutations(chosen):
            assert reconstruct(structure, params, family, bulletin, perm) == secret

    def test_extra_shares_do_not_change_result(self):
        structure, params, family = make_setup(11, (3, 4), (2, 3), [1] * 7, seed=9)
        secret = (8,)
        shares, bulletin = deal(structure, params, family, secret, random.Random(2))
        assert (
            reconstruct(structure, params, family, bulletin, shares[:2])
            == reconstruct(structure, params, family, bulletin, shares)
            == secret
        )

    def test_tampered_share_detected_with_surplus(self):
        structure, params, family = make_setup(11, (3, 4), (2, 3), [1] * 7, seed=9)
        shares, bulletin = deal(structure, params, family, (8,), random.Random(2))
        bad = Share(2, 1, ((shares[1].coeffs[0] + 1) % 11,))
        with pytest.raises(InconsistentSharesError):
            reconstruct(
                structure, params, family, bulletin, [shares[0], bad, shares[2]]
            )

    def test_conflicting_duplicate_shares_rejected(self):
        structure, params, family = make_setup(11, (3, 4), (2, 3), [1] * 7, seed=9)
        shares, bulletin = deal(structure, params, family, (8,), random.Random(2))
        bad = Share(1, 1, ((shares[0].coeffs[0] + 1) % 11,))
        with pytest.raises(InconsistentSharesError):
            reconstruct(
                structure, params, family, bulletin, [shares[0], bad, shares[1]]
            )

    def test_table_backend_round_trip(self):
        structure, params, family = make_setup(
            11, (2, 2), (1, 2), [1] * 4, seed=1, backend="table"
        )
        secret = (9,)
        shares, bulletin = deal(structure, params, family, secret, random.Random(0))
        assert (
            reconstruct(structure, params, family, bulletin, shares[2:]) == secret
        )


class TestFamilyCheck:
    @pytest.mark.parametrize(
        "backend, other",
        [
            ("crypto", HashFamily.table(11, 2, 2)),
            ("crypto", HashFamily.crypto(13, 2)),
            ("crypto", HashFamily.crypto(11, 3)),
            ("table", HashFamily.table(11, 2, 5)),  # the published table seed is 2
        ],
        ids=["backend", "field", "level_count", "table_seed"],
    )
    def test_mismatched_family_rejected_by_deal_and_reconstruct(self, backend, other):
        structure, params, family = make_setup(
            11, (2, 2), (1, 2), [1] * 4, seed=1, backend=backend
        )
        shares, bulletin = deal(structure, params, family, (4,), random.Random(0))
        with pytest.raises(ValueError, match="hash family"):
            deal(structure, params, other, (4,), random.Random(0))
        with pytest.raises(ValueError, match="hash family"):
            reconstruct(structure, params, other, bulletin, shares)


class TestUnmask:
    def setup_shares(self):
        structure, params, family = make_setup(11, (2, 2), (1, 2), [1] * 4, seed=2)
        shares, bulletin = deal(structure, params, family, (4,), random.Random(11))
        masters = dealt_masters(structure, params, (4,), random.Random(11))
        return structure, params, family, shares, bulletin, masters

    def test_bottom_level_share_passes_through(self):
        _, params, family, shares, bulletin, _ = self.setup_shares()
        raw = unmask_share(family, bulletin, shares[3], 2)
        assert raw == shares[3].poly(params.p)

    def test_masked_share_reduces_to_master_residue(self):
        _, params, family, shares, bulletin, masters = self.setup_shares()
        for level in (1, 2):
            got = unmask_share(family, bulletin, shares[0], level)
            expected = masters[level - 1] % params.moduli[0]
            assert got % params.moduli[0] == expected

    def test_missing_entry(self):
        _, _, family, shares, bulletin, _ = self.setup_shares()
        with pytest.raises(MissingBulletinEntryError):
            unmask_share(family, bulletin, shares[3], 1)

    def test_higher_level_share_without_entry_raises(self):
        # A missing mask must not let the raw random vector stand in for a
        # residue of f_1: that opened (1,) for the secret (3,) here.
        structure, params, family = make_setup(11, (3, 4), (2, 3), [1] * 7, seed=1)
        shares, bulletin = deal(structure, params, family, (3,), random.Random(2))
        entries = dict(bulletin.entries)
        del entries[(1, 1)]
        gapped = Bulletin(entries)
        with pytest.raises(MissingBulletinEntryError):
            unmask_share(family, gapped, shares[0], 1)
        with pytest.raises(MissingBulletinEntryError):
            reconstruct(structure, params, family, gapped, shares[:2])

    def test_entry_from_another_field_is_refused(self):
        _, _, family, shares, bulletin, _ = self.setup_shares()
        foreign = Bulletin({**bulletin.entries, (1, 1): Poly(13, [12, 12])})
        with pytest.raises(FieldMismatchError, match="mixed fields F_11 and F_13"):
            unmask_share(family, foreign, shares[0], 1)


class TestMaskNormalization:
    """Masks and unmasked shares are normalized even where a top digest or residue is zero."""

    @pytest.mark.parametrize("backend", ["table", "crypto"])
    def test_entries_and_unmasked_shares(self, backend):
        structure, params, family = make_setup(
            11, (3, 3, 3), (1, 2, 3), [2] * 9, seed=4, backend=backend
        )
        p, untrimmed = params.p, 0
        for seed in range(40):
            rng = random.Random(seed)
            secret = random_secret(params, rng)
            masters = dealt_masters(structure, params, secret, copy.deepcopy(rng))
            shares, bulletin = deal(structure, params, family, secret, rng)
            for (level, i), entry in bulletin.entries.items():
                coeffs = shares[i - 1].coeffs
                digests = family.hash_vector(level, coeffs)
                residue = masters[level - 1] % params.moduli[i - 1]
                assert entry == residue - Poly(p, digests)
                unmasked = unmask_share(family, bulletin, shares[i - 1], level)
                assert unmasked == family.hash_poly(level, coeffs) + entry
                for f in (entry, unmasked):
                    assert f.coeffs == Poly(p, f.coeffs).coeffs
                untrimmed += len(entry.coeffs) < len(digests) and digests[-1] == 0
        # cases where untrimmed digests would leave a zero on top of the sum
        assert untrimmed > 0
