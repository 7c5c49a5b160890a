"""The insecure two-level scheme: honest paths and the working break."""

import itertools
import random

import pytest

from crtdhss.errors import (
    AttackNotApplicableError,
    InconsistentSharesError,
    MissingBulletinEntryError,
    UnauthorizedSubsetError,
)
from crtdhss.fieldpoly import Poly
from crtdhss.params import (
    AccessStructure,
    PublicParams,
    generate_moduli,
    is_authorized,
    min_authorized_level,
    validate_params,
)
from crtdhss.scheme import Bulletin, Share
from crtdhss.yang import (
    yang_attack,
    yang_deal,
    yang_deal_with_internals,
    yang_reconstruct,
)


def make_setup(p, level_sizes, thresholds, degrees, d0=1, seed=0):
    structure = AccessStructure(level_sizes, thresholds)
    moduli = generate_moduli(p, degrees, random.Random(seed))
    params = PublicParams(p, d0, moduli)
    assert validate_params(structure, params).ok
    return structure, params


class TestYangDeal:
    def test_deterministic_under_seed(self):
        structure, params = make_setup(11, (3, 4), (2, 3), [1] * 7)
        a = yang_deal(structure, params, (5,), random.Random(1))
        b = yang_deal(structure, params, (5,), random.Random(1))
        assert a == b

    def test_masks_encode_master_difference(self):
        structure, params = make_setup(11, (3, 4), (2, 3), [1] * 7, seed=3)
        shares, masks, masters = yang_deal_with_internals(
            structure, params, (2,), random.Random(7)
        )
        diff = masters[1] - masters[0]
        for i in range(1, 4):
            assert masks.entry(2, i) == diff % params.moduli[i - 1]

    def test_share_assignment_by_level(self):
        structure, params = make_setup(11, (3, 4), (2, 3), [1] * 7, seed=3)
        shares, _, masters = yang_deal_with_internals(
            structure, params, (2,), random.Random(7)
        )
        for share in shares:
            f = masters[0] if share.participant <= 3 else masters[1]
            assert share.poly(11) == f % params.moduli[share.participant - 1]

    def test_three_level_structure_rejected(self):
        structure = AccessStructure((1, 2, 3), (1, 2, 3))
        moduli = generate_moduli(11, [1] * 6, random.Random(0))
        params = PublicParams(11, 1, moduli)
        with pytest.raises(ValueError):
            yang_deal(structure, params, (1,), random.Random(0))


class TestYangReconstruct:
    def test_top_level_threshold_round_trip(self):
        structure, params = make_setup(11, (3, 4), (2, 3), [1] * 7, seed=5)
        for trial in range(20):
            rng = random.Random(trial)
            secret = (rng.randrange(11),)
            shares, masks = yang_deal(structure, params, secret, rng)
            for pair in itertools.combinations(shares[:3], 2):
                assert yang_reconstruct(structure, params, masks, pair) == secret

    def test_mixed_coalition_uses_masks(self):
        structure, params = make_setup(11, (3, 4), (2, 3), [1] * 7, seed=5)
        secret = (9,)
        shares, masks = yang_deal(structure, params, secret, random.Random(2))
        picked = [shares[0], shares[3], shares[4]]  # level-2 threshold via one mask
        assert yang_reconstruct(structure, params, masks, picked) == secret

    def test_mixed_coalition_needs_its_mask(self):
        structure, params = make_setup(11, (3, 4), (2, 3), [1] * 7, seed=5)
        shares, masks = yang_deal(structure, params, (9,), random.Random(2))
        picked = [shares[0], shares[3], shares[4]]
        assert min_authorized_level(structure, (1, 4, 5)) == 2
        assert yang_reconstruct(structure, params, masks, picked) == (9,)
        without = Bulletin({key: w for key, w in masks.entries.items() if key != (2, 1)})
        with pytest.raises(MissingBulletinEntryError):
            yang_reconstruct(structure, params, without, picked)

    def test_a_zero_mask_is_still_a_mask(self):
        # c_1 = f_2 mod m_1 publishes w_1 = 0, a falsy Poly that must not read as absent
        structure, params = make_setup(11, (3, 4), (2, 3), [1] * 7, seed=5)
        shares, masks, masters = yang_deal_with_internals(structure, params, (9,), random.Random(2))
        m1 = params.moduli[0]
        forged = Share(1, 1, (masters[1] % m1).padded(m1.degree))
        entries = {**masks.entries, (2, 1): Poly.zero(11)}
        picked = [forged, shares[3], shares[4]]
        assert yang_reconstruct(structure, params, Bulletin(entries), picked) == (9,)

    def test_unauthorized_pair_rejected_by_honest_path(self):
        structure, params = make_setup(11, (3, 4), (2, 3), [1] * 7, seed=5)
        shares, masks = yang_deal(structure, params, (3,), random.Random(2))
        with pytest.raises(UnauthorizedSubsetError):
            yang_reconstruct(structure, params, masks, [shares[3], shares[4]])


class TestYangAttack:
    def test_bottom_pair_recovers_secret_despite_being_unauthorized(self):
        structure, params = make_setup(11, (3, 4), (2, 3), [1] * 7, seed=5)
        coalition = {4, 5}
        assert not is_authorized(structure, coalition)
        for trial in range(50):
            rng = random.Random(trial)
            secret = (rng.randrange(11),)
            shares, masks = yang_deal(structure, params, secret, rng)
            got = yang_attack(
                structure, params, masks, [shares[i - 1] for i in coalition]
            )
            assert got == secret

    def test_master_difference_degree_bound(self):
        structure, params = make_setup(11, (3, 4), (2, 3), [1] * 7, seed=5)
        for trial in range(20):
            _, _, masters = yang_deal_with_internals(
                structure, params, (trial % 11,), random.Random(trial)
            )
            assert (masters[1] - masters[0]).degree < sum(params.degrees[:3])

    def test_exhaustive_over_all_secrets_tiny_fields(self):
        # Small two-level shape with n_1 >= t_2 and a singleton coalition
        per_field_degree = {2: 5, 3: 3, 5: 2}
        for p, degree in per_field_degree.items():
            structure, params = make_setup(
                p, (2, 2), (1, 2), [degree] * 4, d0=1, seed=1
            )
            coalition = {3}
            assert not is_authorized(structure, coalition)
            for secret in range(p):
                shares, masks = yang_deal(
                    structure, params, (secret,), random.Random(secret)
                )
                got = yang_attack(structure, params, masks, [shares[2]])
                assert got == (secret,)

    def test_not_applicable_when_top_level_too_small(self):
        structure, params = make_setup(11, (2, 4), (2, 3), [1] * 6, seed=5)
        shares, masks = yang_deal(structure, params, (3,), random.Random(2))
        with pytest.raises(AttackNotApplicableError):
            yang_attack(structure, params, masks, [shares[2], shares[3]])

    def test_top_level_shares_rejected(self):
        structure, params = make_setup(11, (3, 4), (2, 3), [1] * 7, seed=5)
        shares, masks = yang_deal(structure, params, (3,), random.Random(2))
        with pytest.raises(AttackNotApplicableError):
            yang_attack(structure, params, masks, [shares[0], shares[4]])

    def test_underweight_coalition_rejected(self):
        structure, params = make_setup(11, (3, 4), (2, 3), [1] * 7, seed=5)
        shares, masks = yang_deal(structure, params, (3,), random.Random(2))
        with pytest.raises(AttackNotApplicableError):
            yang_attack(structure, params, masks, [shares[4]])

    def test_empty_coalition_rejected_as_underweight(self):
        # an empty coalition's degree sum is 0, below any first-level threshold weight
        structure, params = make_setup(11, (3, 4), (2, 3), [1] * 7, seed=5)
        _, masks = yang_deal(structure, params, (3,), random.Random(2))
        with pytest.raises(AttackNotApplicableError) as caught:
            yang_attack(structure, params, masks, [])
        assert str(caught.value) == "coalition degree sum is below the first-level threshold weight"

    def test_deterministic_given_fixed_inputs(self):
        structure, params = make_setup(11, (3, 4), (2, 3), [1] * 7, seed=5)
        shares, masks = yang_deal(structure, params, (6,), random.Random(4))
        picked = [shares[3], shares[4]]
        assert yang_attack(structure, params, masks, picked) == yang_attack(
            structure, params, masks, picked
        )


class TestShareGate:
    """Malformed or conflicting shares raise instead of yielding a wrong secret."""

    def dealt(self):
        structure, params = make_setup(11, (3, 4), (2, 3), [1] * 7, seed=5)
        shares, masks = yang_deal(structure, params, (3,), random.Random(2))
        return structure, params, shares, masks

    @pytest.mark.parametrize(
        "forge, error",
        [
            (lambda c: Share(1, 1, (c, 1)), ValueError),  # too long
            (lambda c: Share(1, 2, (c,)), ValueError),  # wrong level
            (lambda c: Share(1, 1, (c + 12,)), ValueError),  # outside F_11
            (lambda c: Share(1, 1, ((c + 1) % 11,)), InconsistentSharesError),  # duplicate
        ],
        ids=["too_long", "wrong_level", "outside_field", "conflicting_duplicate"],
    )
    def test_reconstruct_rejects_bad_share(self, forge, error):
        structure, params, shares, masks = self.dealt()
        pooled = [shares[0], shares[1], forge(shares[0].coeffs[0])]
        with pytest.raises(error):
            yang_reconstruct(structure, params, masks, pooled)

    def test_attack_rejects_out_of_range_participant(self):
        structure, params, shares, masks = self.dealt()
        with pytest.raises(ValueError, match="out of range"):
            yang_attack(structure, params, masks, [shares[3], Share(99, 2, (0,))])


class TestTamperDetection:
    """With surplus weight, a tampered share raises instead of opening a wrong secret."""

    def dealt(self):
        structure, params = make_setup(11, (3, 4), (2, 3), [1] * 7, seed=5)
        shares, masks = yang_deal(structure, params, (3,), random.Random(2))
        return structure, params, shares, masks

    @staticmethod
    def bumped(share):
        return Share(share.participant, share.level, ((share.coeffs[0] + 1) % 11,))

    def test_reconstruct_detects_tampered_share(self):
        structure, params, shares, masks = self.dealt()
        pooled = [shares[0], self.bumped(shares[1]), shares[2]]
        with pytest.raises(InconsistentSharesError):
            yang_reconstruct(structure, params, masks, pooled)

    def test_attack_detects_tampered_share(self):
        structure, params, shares, masks = self.dealt()
        coalition = [shares[3], self.bumped(shares[4]), shares[5]]
        with pytest.raises(InconsistentSharesError):
            yang_attack(structure, params, masks, coalition)
        assert yang_attack(structure, params, masks, shares[3:6]) == (3,)
