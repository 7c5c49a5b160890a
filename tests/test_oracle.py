"""Exact-counting audits: preimage counts, histograms, entropy, CRT oracle."""

import dataclasses
import itertools
import math
import random
import re
from operator import mul

import pytest

from crtdhss import oracle, scheme
from crtdhss.errors import BudgetExceededError, FieldMismatchError, NoCrtSolutionError
from crtdhss.fieldpoly import Poly, crt_combine, vectors
from crtdhss.hashing import family_from_params
from crtdhss.oracle import (
    MODE_COALITION,
    MODE_FULL,
    CoalitionView,
    EnumerationBudget,
    count_consistent_tuples,
    count_fibers,
    count_secret_preimages,
    crt_bruteforce,
    enumerate_consistent,
    histogram_entropy_bits,
    loss_entropy,
    observe_coalition,
    preimage_exponent,
    state_count,
)
from crtdhss.params import (
    AccessStructure,
    PublicParams,
    generate_moduli,
    is_authorized,
    validate_params,
)
from crtdhss.scheme import Bulletin, Share, deal, unmask_share


def make_setup(p, level_sizes, thresholds, degrees, d0=1, seed=0, table_seed=1):
    structure = AccessStructure(level_sizes, thresholds)
    moduli = generate_moduli(p, degrees, random.Random(seed))
    params = PublicParams(p, d0, moduli, hash_backend="table", table_seed=table_seed)
    assert validate_params(structure, params).ok
    return structure, params


# p=3 setup with 4 participants: degrees (2,2,3,3) give exponent 1 for B={3}
def theta_one_setup():
    return make_setup(3, (2, 2), (1, 2), [2, 2, 3, 3])


# Four pairwise-coprime quadratics over F_3: there are only three monic
# irreducible ones, so (x+1)(x+2) = x^2 + 2 joins them.
def quad_setup_p3(table_seed=1):
    structure = AccessStructure((2, 2), (1, 2))
    moduli = (
        Poly(3, [2, 0, 1]),
        Poly(3, [1, 0, 1]),
        Poly(3, [2, 1, 1]),
        Poly(3, [2, 2, 1]),
    )
    params = PublicParams(3, 1, moduli, hash_backend="table", table_seed=table_seed)
    assert validate_params(structure, params).ok
    return structure, params


# p=3 setup whose full dealer space is exactly 81 states
def tiny_state_setup():
    return make_setup(3, (1, 2), (1, 2), [1, 2, 2])


# Levels (2,3)/(2,3) over F_3, so participants 1 and 2 hold random vectors
def two_random_setup():
    structure = AccessStructure((2, 3), (2, 3))
    moduli = [Poly(3, c) for c in ([1, 1], [1, 0, 1], [2, 1, 1], [2, 2, 1], [1, 1, 1])]
    params = PublicParams(3, 1, moduli, hash_backend="table", table_seed=1)
    assert validate_params(structure, params).ok
    return structure, params


class TestPreimageExponent:
    def test_reference_two_level_coalition(self):
        structure, params = make_setup(11, (3, 4), (2, 3), [1] * 7)
        assert preimage_exponent(structure, params, {4, 5}) == 1

    def test_empty_coalition(self):
        structure, params = make_setup(11, (3, 4), (2, 3), [1] * 7)
        # (2 - 1) + (3 - 1) with unit degrees
        assert preimage_exponent(structure, params, frozenset()) == 3

    def test_authorized_coalition_rejected(self):
        structure, params = make_setup(11, (3, 4), (2, 3), [1] * 7)
        with pytest.raises(ValueError):
            preimage_exponent(structure, params, {1, 2})

    def test_nonnegative_for_all_unauthorized_subsets(self):
        import itertools

        structure, params = theta_one_setup()
        from crtdhss.params import is_authorized

        for r in range(structure.n + 1):
            for subset in itertools.combinations(range(1, structure.n + 1), r):
                if not is_authorized(structure, subset):
                    assert preimage_exponent(structure, params, subset) >= 0


class TestCoalitionView:
    def test_authorized_coalition_rejected(self):
        structure, params = theta_one_setup()
        with pytest.raises(ValueError):
            observe_coalition(structure, params, {1})

    def test_full_mode_needs_table_backend(self):
        structure = AccessStructure((1, 2), (1, 2))
        moduli = generate_moduli(3, [1, 2, 2], random.Random(0))
        params = PublicParams(3, 1, moduli)  # crypto backend
        with pytest.raises(ValueError):
            observe_coalition(structure, params, {2}, mode=MODE_FULL)
        # coalition mode is fine under the crypto backend
        observe_coalition(structure, params, {2}, mode=MODE_COALITION)

    def test_share_selection_must_match_coalition(self):
        structure, params = theta_one_setup()
        view, _ = observe_coalition(structure, params, {3})
        with pytest.raises(ValueError):
            CoalitionView(
                structure,
                params,
                view.family,
                frozenset({3, 4}),
                view.shares,
                view.bulletin,
            )

    @pytest.mark.parametrize("outsider", [0, 5, 99])
    def test_member_out_of_range_rejected_before_dealing(self, outsider):
        # 99 used to raise IndexError; 0 used to deal and take the last share
        structure, params = theta_one_setup()
        rng = random.Random(3)
        state = rng.getstate()
        with pytest.raises(ValueError, match=f"participant index {outsider} out of range"):
            observe_coalition(structure, params, {3, outsider}, rng=rng)
        assert rng.getstate() == state

    def test_share_outside_field_rejected(self):
        structure, params = theta_one_setup()
        view, _ = observe_coalition(structure, params, {3})
        forged = (view.shares[3][0] + params.p,) + view.shares[3][1:]
        with pytest.raises(ValueError, match="not over F_3"):
            CoalitionView(
                structure, params, view.family, view.coalition, {3: forged}, view.bulletin
            )

    @pytest.mark.parametrize(
        "mode, key",
        [(MODE_FULL, (2, 3)), (MODE_COALITION, (2, 3)), (MODE_FULL, (0, 1)), (MODE_COALITION, (0, 1))],
    )
    def test_bulletin_key_no_deal_publishes_rejected(self, mode, key):
        # a deal publishes (l, i) for 1 <= l <= m and i <= min(N_l, N_{m-1}):
        # here (1, 1) and (2, 1) only; (2, 3) used to reach the walk and
        # raise KeyError: 3 there
        structure, params = tiny_state_setup()
        view, _ = observe_coalition(structure, params, {2}, mode=mode, rng=random.Random(0))
        with pytest.raises(ValueError, match=re.escape(f"bulletin entry {key} is not one")):
            with_entry(view, key, Poly(3, [1]))

    @pytest.mark.parametrize("mode", [MODE_COALITION, MODE_FULL])
    def test_missing_coalition_mask_rejected(self, mode):
        # every deal publishes (1, 1) for participant 1; without it the view
        # used to be accepted and the audits raised MissingBulletinEntryError
        structure = AccessStructure((2, 3), (2, 3))
        moduli = [Poly(3, c) for c in ([1, 1], [1, 0, 1], [2, 1, 1], [2, 2, 1], [1, 1, 1])]
        params = PublicParams(3, 1, moduli, hash_backend="table", table_seed=1)
        view, _ = observe_coalition(structure, params, {1}, mode=mode, rng=random.Random(1))
        entries = dict(view.bulletin.entries)
        del entries[(1, 1)]
        with pytest.raises(ValueError, match=re.escape("bulletin lacks entry (1, 1)")):
            CoalitionView(
                structure, params, view.family, view.coalition, view.shares, Bulletin(entries), mode
            )

    def test_full_mode_needs_every_published_mask(self):
        # full mode reads every mask a deal publishes; without participant 2's
        # (2, 2) the view used to be accepted and the walk left that mask
        # unconstrained, giving {0: 36, 1: 18, 2: 27} for coalition {3}
        structure, params = two_random_setup()
        for mode in (MODE_FULL, MODE_COALITION):
            view, _ = observe_coalition(structure, params, {3}, mode=mode, rng=random.Random(1))
            entries = dict(view.bulletin.entries)
            del entries[(2, 2)]
            fields = (structure, params, view.family, view.coalition, view.shares)
            if mode == MODE_FULL:
                with pytest.raises(ValueError, match=re.escape("bulletin lacks entry (2, 2)")):
                    CoalitionView(*fields, Bulletin(entries), mode)
            else:
                thinned = CoalitionView(*fields, Bulletin(entries), mode)
                assert enumerate_consistent(thinned) == enumerate_consistent(view)

    @pytest.mark.parametrize("mode", [MODE_COALITION, MODE_FULL])
    def test_entry_outside_field_rejected(self, mode):
        # used to be accepted: the walk found no state and the tuple count
        # raised FieldMismatchError
        structure, params = two_random_setup()
        view, _ = observe_coalition(structure, params, {1}, mode=mode, rng=random.Random(1))
        with pytest.raises(ValueError, match=re.escape("bulletin entry (1, 1) is not over F_3")):
            with_entry(view, (1, 1), Poly(5, [1]))

    def test_impossible_entry_value_still_accepted(self):
        # same-field values stay unchecked: a published key with an entry no deal makes
        structure, params = tiny_state_setup()
        view, _ = observe_coalition(structure, params, {2}, mode=MODE_FULL, rng=random.Random(0))
        assert with_entry(view, (2, 1), Poly(3, [1, 1])).bulletin.entries[(2, 1)] == Poly(3, [1, 1])


class TestEnumerateConsistent:
    def test_uniform_histogram_coalition_mode(self):
        structure, params = quad_setup_p3()
        view, dealt = observe_coalition(
            structure, params, {3}, rng=random.Random(5)
        )
        hist = enumerate_consistent(view)
        assert set(hist) == {(0,), (1,), (2,)}
        assert len(set(hist.values())) == 1
        assert hist[dealt] == hist[(0,)]

    def test_histogram_total_factorizes_through_tuple_count(self):
        structure, params = quad_setup_p3()
        view, _ = observe_coalition(structure, params, {3}, rng=random.Random(5))
        hist = enumerate_consistent(view)
        tuples = count_consistent_tuples(view)
        # free coefficients: the random vectors of non-coalition members
        free = sum(
            params.degrees[i - 1]
            for i in range(1, structure.prefix_counts[0] + 1)
            if i not in view.coalition
        )
        assert sum(hist.values()) == tuples * params.p**free

    def test_budget_guard_reports_exact_state_count(self):
        structure, params = tiny_state_setup()
        view, _ = observe_coalition(structure, params, {2})
        assert state_count(view) == 81
        with pytest.raises(BudgetExceededError) as err:
            enumerate_consistent(view, EnumerationBudget(10))
        assert err.value.state_count == 81

    def test_upper_level_coalition_member_constraints(self):
        # participant 1 sits in the top level, so its own masks constrain
        # the enumeration; participant 3 contributes a bottom-level residue
        structure, params = make_setup(7, (2, 3), (2, 3), [1] * 5)
        coalition = {1, 3}
        view, dealt = observe_coalition(
            structure, params, coalition, rng=random.Random(4)
        )
        hist = enumerate_consistent(view)
        assert len(set(hist.values())) == 1  # exactly uniform
        theta = preimage_exponent(structure, params, coalition)
        free = params.degrees[1]  # participant 2 is the only free vector
        assert hist[dealt] == params.p ** (theta + free)

    def test_six_billion_states_without_walking_them(self):
        # 5**14 dealer states, of which the walk visits the 5**8 (secret,
        # alpha) choices; three free random vectors weigh 5**6 each
        structure, params = make_setup(5, (3, 4), (2, 3), [2] * 7, d0=2)
        view, dealt = observe_coalition(structure, params, {4, 5}, rng=random.Random(1))
        assert state_count(view) == 5**14
        hist = enumerate_consistent(view, EnumerationBudget(5**14))
        theta = preimage_exponent(structure, params, {4, 5})
        assert set(hist.values()) == {5 ** (theta + 6)}
        assert len(hist) == 25 and dealt in hist

    def test_full_mode_only_narrows_the_histogram(self):
        structure, params = tiny_state_setup()
        coalition_view, _ = observe_coalition(
            structure, params, {2}, rng=random.Random(9)
        )
        full_view, _ = observe_coalition(
            structure, params, {2}, mode=MODE_FULL, rng=random.Random(9)
        )
        wide = enumerate_consistent(coalition_view)
        narrow = enumerate_consistent(full_view)
        assert all(narrow[s] <= wide[s] for s in wide)
        assert sum(narrow.values()) >= 1  # the true dealer state always matches


class ScriptedRng:
    """Stands in for the dealer's RNG: `randrange` hands out fixed digits in order."""

    def __init__(self, digits):
        self.digits = tuple(digits)
        self.drawn = 0

    def randrange(self, stop):
        digit = self.digits[self.drawn]
        assert 0 <= digit < stop
        self.drawn += 1
        return digit


def replay_histograms(views):
    """Per view of one setup: the (secret, draws) pairs whose real deal reproduces it.

    Every secret and every sequence of the dealer's `randrange` draws is fed
    through `scheme.deal`; a pair counts for a view when the dealt shares of
    its coalition and the bulletin entries its mode selects equal the view's.
    """
    structure, params, family = views[0].structure, views[0].params, views[0].family
    p, d0 = params.p, params.d0
    probe = ScriptedRng([0] * 100)
    deal(structure, params, family, (0,) * d0, probe)
    draws = probe.drawn
    selections = []
    for view in views:
        assert (view.structure, view.params, view.family) == (structure, params, family)
        assert state_count(view) == p ** (d0 + draws)
        keys = [k for k in view.bulletin.entries if view.mode == MODE_FULL or k[1] in view.coalition]
        selections.append(keys)
    histograms = [dict.fromkeys(vectors(p, d0), 0) for _ in views]
    for secret in vectors(p, d0):
        for digits in vectors(p, draws):
            rng = ScriptedRng(digits)
            shares, bulletin = deal(structure, params, family, secret, rng)
            assert rng.drawn == draws
            for view, keys, histogram in zip(views, selections, histograms):
                if all(shares[i - 1].coeffs == view.shares[i] for i in view.coalition) and all(
                    bulletin.entries[k] == view.bulletin.entries[k] for k in keys
                ):
                    histogram[secret] += 1
    return histograms


def with_entry(view, key, entry):
    """The view with one bulletin entry replaced."""
    entries = dict(view.bulletin.entries)
    entries[key] = entry
    return CoalitionView(
        view.structure, view.params, view.family, view.coalition, view.shares,
        Bulletin(entries), view.mode,
    )


class TestDealerReplay:
    """`enumerate_consistent` against replaying the real dealer on every state."""

    def check(self, views):
        expected = replay_histograms(views)
        for view, histogram in zip(views, expected):
            assert enumerate_consistent(view) == histogram, (view.coalition, view.mode)
        return expected

    def test_tiny_setup_both_modes(self):
        # 81 states; entry (2, 1) of degree 1 >= d_1 = 1 is never dealt
        structure, params = tiny_state_setup()
        views = [
            observe_coalition(structure, params, coalition, mode=mode, rng=random.Random(9))[0]
            for coalition, mode in [
                ({2}, MODE_COALITION),
                ({2}, MODE_FULL),
                ({3}, MODE_FULL),
                (set(), MODE_COALITION),
                (set(), MODE_FULL),
            ]
        ]
        views.append(with_entry(views[1], (2, 1), Poly(3, [1, 1])))
        expected = self.check(views)
        assert sum(expected[1].values()) >= 1
        assert set(expected[-1].values()) == {0}

    def test_two_coefficient_secret(self):
        # d0 = 2 over F_3: 729 states
        structure, params = make_setup(3, (1, 2), (1, 2), [2, 2, 2], d0=2)
        views = [
            observe_coalition(structure, params, coalition, mode=mode, rng=random.Random(2))[0]
            for coalition, mode in [({3}, MODE_COALITION), ({3}, MODE_FULL), (set(), MODE_FULL)]
        ]
        self.check(views)

    def test_member_above_the_bottom_level(self):
        # participant 1 sits in level 1 of (2,3)/(2,3), so its own random
        # vector and both its masks constrain the walk: 59,049 states
        structure = AccessStructure((2, 3), (2, 3))
        moduli = [Poly(3, c) for c in ([1, 1], [1, 0, 1], [2, 1, 1], [2, 2, 1], [1, 1, 1])]
        params = PublicParams(3, 1, moduli, hash_backend="table", table_seed=1)
        assert validate_params(structure, params).ok
        views = [
            observe_coalition(structure, params, coalition, mode=mode, rng=random.Random(1))[0]
            for coalition, mode in [({1}, MODE_COALITION), ({1, 3}, MODE_FULL), ({2, 4}, MODE_FULL)]
        ]
        views.append(with_entry(views[0], (1, 1), Poly(3, [0, 2])))
        expected = self.check(views)
        assert all(sum(h.values()) >= 1 for h in expected[:3])
        assert set(expected[-1].values()) == {0}


def reference_histogram(view):
    """Histogram over secrets from walking every one of the view's dealer states.

    A state's digits are secret | alpha_1..alpha_m | c_1..c_{N_{m-1}}. The
    coalition's random members must see their own c_i; a bottom member's
    residue of f_m must be its share; a selected mask (level, i) must equal
    f_level mod m_i minus h_level(c_i), coordinate-wise. Each residue of
    f_level is a dot product of the digits with rows of x**j mod m_i.
    """
    structure, params, family = view.structure, view.params, view.family
    p, d0, degrees, m = params.p, params.d0, params.degrees, structure.m
    n_random = structure.prefix_counts[m - 2] if m > 1 else 0
    alpha_lens = [sum(degrees[:t]) - d0 for t in structure.thresholds]
    c_start = d0 + sum(alpha_lens)
    total_digits = c_start + sum(degrees[:n_random])
    assert p**total_digits == state_count(view)

    def residue_rows(level, i):
        modulus = params.moduli[i - 1]
        start = d0 + sum(alpha_lens[: level - 1])
        positions = [*range(d0), *range(start, start + alpha_lens[level - 1])]
        rows = [[0] * total_digits for _ in range(modulus.degree)]
        for j, pos in enumerate(positions):
            for k, c in enumerate((Poly.x_power(p, j) % modulus).padded(modulus.degree)):
                rows[k][pos] = c
        return rows

    c_slices = {}
    for i in range(1, n_random + 1):
        c_slices[i] = slice(c_start, c_start + degrees[i - 1])
        c_start += degrees[i - 1]
    coalition = sorted(view.coalition)
    own_vectors = [(c_slices[i], view.shares[i]) for i in coalition if i <= n_random]
    checks = [
        (residue_rows(m, i), lambda digits, share=view.shares[i]: share)
        for i in coalition
        if i > n_random
    ]
    for level, i in sorted(view.bulletin.entries):
        if view.mode != MODE_FULL and i not in view.coalition:
            continue
        entry = view.bulletin.entries[(level, i)]
        if entry.p != p or entry.degree >= degrees[i - 1]:
            return dict.fromkeys(vectors(p, d0), 0)

        def target(digits, level=level, c_slice=c_slices[i], entry=entry.padded(degrees[i - 1])):
            hashed = (family.hash_element(level, v) for v in digits[c_slice])
            return [(e + h) % p for e, h in zip(entry, hashed)]

        checks.append((residue_rows(level, i), target))

    histogram = dict.fromkeys(vectors(p, d0), 0)
    for digits in vectors(p, total_digits):
        if all(digits[c_slice] == share for c_slice, share in own_vectors) and all(
            sum(map(mul, row, digits)) % p == want
            for rows, target in checks
            for row, want in zip(rows, target(digits))
        ):
            histogram[digits[:d0]] += 1
    return histogram


# (p, level sizes, thresholds, degrees, d0) for the reference sweep; a view
# is walked when its dealer space has at most REFERENCE_STATE_CAP states.
REFERENCE_SETUPS = [
    *[(p, (1, 2), (1, 2), [1, 2, 2], 1) for p in (3, 5, 7, 11, 13)],
    (3, (2, 2), (1, 2), [1, 2, 2, 2], 1),
    *[(p, (2, 2), (1, 2), [1, 1, 1, 1], 1) for p in (5, 7, 11, 13)],
    *[(p, (1, 3), (1, 3), [1, 1, 1, 1], 1) for p in (5, 7, 11)],
    (7, (2, 3), (1, 3), [1, 1, 1, 1, 1], 1),
    *[(p, (1, 2), (1, 2), [2, 2, 2], 2) for p in (3, 5)],
]
REFERENCE_STATE_CAP = 30_000


def reference_views():
    for p, sizes, thresholds, degrees, d0 in REFERENCE_SETUPS:
        structure, params = make_setup(p, sizes, thresholds, degrees, d0=d0, table_seed=2)
        for r in range(structure.n + 1):
            for coalition in itertools.combinations(range(1, structure.n + 1), r):
                if is_authorized(structure, coalition):
                    continue
                for mode in (MODE_COALITION, MODE_FULL):
                    view, _ = observe_coalition(
                        structure, params, coalition, mode=mode, rng=random.Random(4)
                    )
                    if state_count(view) <= REFERENCE_STATE_CAP:
                        yield view


class TestReferenceWalk:
    """`enumerate_consistent` against the walk over every dealer state."""

    def test_histograms_equal_on_every_small_view(self):
        views = list(reference_views())
        assert len(views) == 128
        for view in views:
            assert enumerate_consistent(view) == reference_histogram(view), (
                view.params.p, view.structure, view.coalition, view.mode
            )

    def test_random_members_in_the_coalition(self):
        # every setup above has threshold 1 at level 1, so no coalition there
        # holds a random vector; here participants 1 and 2 do (59,049 states),
        # and seed 2 deals a mask whose entry plus hash reaches p in both views
        structure = AccessStructure((2, 3), (2, 3))
        moduli = [Poly(3, c) for c in ([1, 1], [1, 0, 1], [2, 1, 1], [2, 2, 1], [1, 1, 1])]
        params = PublicParams(3, 1, moduli, hash_backend="table", table_seed=2)
        assert validate_params(structure, params).ok
        for coalition, mode in [({2}, MODE_COALITION), ({1, 5}, MODE_FULL)]:
            rng = random.Random(2)
            view, _ = observe_coalition(structure, params, coalition, mode=mode, rng=rng)
            assert enumerate_consistent(view) == reference_histogram(view), (coalition, mode)


class TestSolve:
    """The linear solve behind the walk, against brute force and closed forms."""

    def test_solution_set_equals_brute_force(self):
        rng = random.Random(11)
        for _ in range(300):
            p, n = rng.choice((2, 3, 5)), rng.randint(1, 4)
            checks = [
                (tuple(rng.randrange(p) for _ in range(n)), rng.randrange(p))
                for _ in range(rng.randint(0, n + 2))
            ]
            if checks and rng.random() < 0.5:  # a dependent row, consistent or not
                a, b = rng.randrange(1, p), rng.randrange(p)
                row, want = checks[0]
                checks.append((tuple(a * c % p for c in row), (a * want + b) % p))
            expected = {
                x for x in vectors(p, n)
                if all(sum(map(mul, row, x)) % p == want for row, want in checks)
            }
            solution = oracle._solve(checks, n, p)
            if solution is None:
                assert not expected, checks
                continue
            points = [
                tuple((c + sum(map(mul, w, t))) % p for c, w in solution)
                for t in vectors(p, len(solution[0][1]))
            ]
            assert len(set(points)) == len(points) and set(points) == expected, checks

    @pytest.mark.parametrize(
        "sizes, thresholds, degrees, coalition",
        [((2, 2, 3), (1, 2, 3), [1] * 7, {3, 5}), ((2, 3), (2, 3), [1, 2, 2, 2, 2], {1, 4})],
        ids=["three_levels", "two_levels"],
    )
    def test_the_dealt_digits_meet_every_check(self, sizes, thresholds, degrees, coalition):
        # A deal's own outer digits, secret | alpha_1..alpha_m, solve every check, and each
        # level's rows modulo any m_i give f_l mod m_i: the rows place every alpha_l where it is.
        structure, params = make_setup(11, sizes, thresholds, degrees)
        family = family_from_params(params, structure.m)
        p, d0 = params.p, params.d0
        alpha_lens = scheme._layout(structure, params)[0]
        for seed in range(5):
            shares, bulletin, masters = scheme.deal_with_internals(
                structure, params, family, (seed,), random.Random(seed)
            )
            digits = [seed]
            for f, alpha_len in zip(masters, alpha_lens):
                digits += f.padded(d0 + alpha_len)[d0:]
            view = CoalitionView(
                structure, params, family, coalition,
                {i: shares[i - 1].coeffs for i in coalition}, bulletin,
            )
            checks = oracle._checks(view)
            assert checks and all(sum(map(mul, row, digits)) % p == w for row, w in checks)
            for level, f in enumerate(masters, start=1):
                for m in params.moduli:
                    rows = oracle._residue_rows(d0, alpha_lens, level, m)
                    got = [sum(map(mul, row, digits)) % p for row in rows]
                    assert got == list((f % m).padded(m.degree))

    @pytest.mark.parametrize("mode", [MODE_COALITION, MODE_FULL])
    def test_overdetermined_level_with_a_tampered_share(self, mode, monkeypatch):
        # Valid parameters never overdetermine a level: condition iii keeps
        # the pinned rows within the blindings. Lifting the parameter check,
        # degrees (1, 1, 2, 3) give members 3 and 4 five rows over four
        # digits, so the pair opens the secret, and a tampered share leaves
        # the checks without a solution.
        monkeypatch.setattr(scheme, "check_params", lambda structure, params: None)
        structure = AccessStructure((1, 3), (1, 3))
        moduli = [Poly(3, c) for c in ([1, 1], [2, 1], [1, 0, 1], [1, 2, 0, 1])]
        params = PublicParams(3, 1, moduli, hash_backend="table", table_seed=1)
        assert not validate_params(structure, params).ok
        view, dealt = observe_coalition(structure, params, {3, 4}, mode=mode, rng=random.Random(1))
        honest = enumerate_consistent(view)
        assert honest == reference_histogram(view)
        assert [s for s, count in honest.items() if count] == [dealt]
        share = list(view.shares[4])
        share[1] = (share[1] + 1) % 3
        tampered = CoalitionView(
            structure, params, view.family, view.coalition, {**view.shares, 4: tuple(share)},
            view.bulletin, mode,
        )
        assert oracle._solve(oracle._checks(tampered), 4, 3) is None
        histogram = enumerate_consistent(tampered)
        assert set(histogram.values()) == {0}
        assert histogram == reference_histogram(tampered)

    def test_coalition_mode_closed_form(self):
        # every free weight is p in coalition mode: a secret counts
        # p**(kernel dimension with the secret pinned) * p**(free random
        # digits), or 0 when pinning it leaves no solution
        views = [v for v in reference_views() if v.mode == MODE_COALITION]
        assert len(views) == 64
        for view in views:
            structure, params = view.structure, view.params
            p, d0 = params.p, params.d0
            alpha_lens, n_random, _ = scheme._layout(structure, params)
            n = d0 + sum(alpha_lens)
            free = sum(params.degrees[i - 1] for i in range(1, n_random + 1) if i not in view.coalition)
            theta = preimage_exponent(structure, params, view.coalition)
            histogram = enumerate_consistent(view)
            closed = {}
            for secret in vectors(p, d0):
                pins = [(tuple(int(j == k) for j in range(n)), s) for k, s in enumerate(secret)]
                solution = oracle._solve(oracle._checks(view) + pins, n, p)
                kernel_dim = None if solution is None else len(solution[0][1])
                closed[secret] = 0 if solution is None else p ** (kernel_dim + free)
                assert kernel_dim == theta, (p, structure, view.coalition, secret)
            assert histogram == closed, (p, structure, view.coalition)
            assert sum(closed.values()) == count_consistent_tuples(view) * p**free


def reference_fiber(view, secret):
    """Consistent master tuples opening to `secret`, from one walk over the
    free coefficients of all levels at once, keeping every whole tuple.

    Each level's candidates are base + k * step, with the base the CRT
    solution of the secret and the members' residues; every tuple is
    re-verified against every constraint before it counts.
    """
    structure, params = view.structure, view.params
    p, degrees, m = params.p, params.degrees, structure.m
    x_d0 = params.secret_modulus
    residues = {}
    for i in sorted(view.coalition):
        share = Share(i, structure.level_of(i), view.shares[i])
        for level in range(share.level, m + 1):
            value = unmask_share(view.family, view.bulletin, share, level)
            residues[(level, i)] = value % params.moduli[i - 1]
    s_poly = Poly(p, secret)

    bases, steps, free_lens, bounds = [], [], [], []
    for bound, t in zip(structure.prefix_counts, structure.thresholds):
        members = [i for i in sorted(view.coalition) if i <= bound]
        level = len(bases) + 1
        mods = [x_d0] + [params.moduli[i - 1] for i in members]
        res = [s_poly] + [residues[(level, i)] for i in members]
        step = Poly.one(p)
        for mod in mods:
            step = step * mod
        degree_cap = sum(degrees[:t])
        bases.append(crt_combine(res, mods))
        steps.append(step)
        free_lens.append(max(0, degree_cap - step.degree))
        bounds.append(degree_cap)

    seen = set()
    for digits in vectors(p, sum(free_lens)):
        tuple_polys = []
        pos = 0
        for base, step, length in zip(bases, steps, free_lens):
            k = Poly(p, digits[pos : pos + length])
            pos += length
            tuple_polys.append(base + k * step)

        ok = all(g.degree < cap for g, cap in zip(tuple_polys, bounds))
        if ok:
            opened = tuple_polys[m - 1] % x_d0
            ok = all(g % x_d0 == opened for g in tuple_polys) and opened == s_poly % x_d0
        if ok:
            for (level, i), res in residues.items():
                if tuple_polys[level - 1] % params.moduli[i - 1] != res:
                    ok = False
                    break
        if ok:
            key = tuple(g.coeffs for g in tuple_polys)
            assert key not in seen, "free-coefficient parameterization collided"
            seen.add(key)
    return len(seen)


def free_levels(structure, params, coalition):
    """Number of levels whose master polynomial keeps free coefficients."""
    degrees = params.degrees
    return sum(
        sum(degrees[:t]) - params.d0 - sum(degrees[i - 1] for i in coalition if i <= bound) > 0
        for bound, t in zip(structure.prefix_counts, structure.thresholds)
    )


def tuple_count_cases():
    return [
        (theta_one_setup(), {3}),
        (theta_one_setup(), frozenset()),
        (tiny_state_setup(), {2}),
        (tiny_state_setup(), {3}),
        (make_setup(5, (3, 4), (2, 3), [2] * 7, d0=2), {4, 5}),
        (make_setup(11, (3, 4), (2, 3), [1] * 7), {4}),
    ]


class TestTupleCounts:
    def test_reference_exponent_one_counts(self):
        structure, params = theta_one_setup()
        assert preimage_exponent(structure, params, {3}) == 1
        view = observe_coalition(structure, params, {3})[0]
        for secret in [(0,), (1,), (2,)]:
            assert count_secret_preimages(view, secret) == 3
        assert count_consistent_tuples(view) == 9

    def test_counts_match_exponent_formula_across_configs(self):
        for (structure, params), coalition in tuple_count_cases():
            p, d0 = params.p, params.d0
            theta = preimage_exponent(structure, params, coalition)
            view, _ = observe_coalition(
                structure, params, coalition, rng=random.Random(1)
            )
            total = 0
            for secret in vectors(p, d0):
                got = count_secret_preimages(view, secret)
                assert got == p**theta
                total += got
            assert total == p ** (theta + d0)
            assert count_consistent_tuples(view) == total

    def test_level_by_level_scan_equals_whole_tuple_walk(self):
        spread = []
        for (structure, params), coalition in tuple_count_cases():
            view, _ = observe_coalition(structure, params, coalition, rng=random.Random(1))
            for secret in vectors(params.p, params.d0):
                got = count_secret_preimages(view, secret)
                assert got == reference_fiber(view, secret), (structure, coalition, secret)
            spread.append(free_levels(structure, params, coalition))
        assert max(spread) >= 2

    def test_candidate_breaking_a_pinned_residue_is_refused(self, monkeypatch):
        # A base that solves only the secret's congruence proposes s + k * step,
        # which meets member i's congruence exactly when s already does; the
        # re-check must refuse every other secret's candidates.
        structure, params = make_setup(11, (3, 4), (2, 3), [1] * 7)
        view, _ = observe_coalition(structure, params, {4}, rng=random.Random(1))
        share = Share(4, 2, view.shares[4])
        pinned = unmask_share(view.family, view.bulletin, share, 2) % params.moduli[3]
        theta = preimage_exponent(structure, params, {4})
        monkeypatch.setattr(oracle, "crt_combine", lambda residues, moduli: residues[0])
        counts = [
            count_secret_preimages(view, secret)
            for secret in vectors(params.p, params.d0)
        ]
        expected = [
            params.p**theta if Poly(params.p, secret) % params.moduli[3] == pinned else 0
            for secret in vectors(params.p, params.d0)
        ]
        assert counts == expected
        assert 0 in expected and sum(expected) == params.p**theta

    @pytest.mark.parametrize("mode", [MODE_COALITION, MODE_FULL])
    def test_unreduced_entry_counts_zero_in_both_counts(self, mode):
        # entry (1, 1) + m_1 has the entry's residue but degree >= d_1, so no
        # deal publishes it; the walk found no state while the tuple count,
        # reducing each unmasked residue, found 243 tuples
        structure, params = two_random_setup()
        view, _ = observe_coalition(structure, params, {1}, mode=mode, rng=random.Random(1))
        unreduced = with_entry(view, (1, 1), view.bulletin.entries[(1, 1)] + params.moduli[0])
        histogram = enumerate_consistent(unreduced)
        assert set(histogram.values()) == {0}
        assert count_consistent_tuples(unreduced) == 0
        assert count_fibers(unreduced) == {(0,): 0, (1,): 0, (2,): 0}
        if mode == MODE_COALITION:
            # each tuple stands for 3**2 states: participant 2's random vector
            assert sum(histogram.values()) == count_consistent_tuples(unreduced) * 3**2
            honest = sum(enumerate_consistent(view).values())
            assert honest == count_consistent_tuples(view) * 3**2 == 243 * 3**2

    def test_count_fibers_equals_the_per_secret_counts(self):
        # one pass per level over every secret against one scan per secret,
        # on every reference view and the tuple-count cases (d0 = 2 included)
        views = list(reference_views()) + [
            observe_coalition(*setup, coalition, rng=random.Random(1))[0]
            for setup, coalition in tuple_count_cases()
        ]
        assert any(view.params.d0 == 2 for view in views)
        for view in views:
            fibers = count_fibers(view)
            assert fibers == {
                secret: count_secret_preimages(view, secret)
                for secret in vectors(view.params.p, view.params.d0)
            }
            assert sum(fibers.values()) == count_consistent_tuples(view)

    @pytest.mark.parametrize("fault", ["residue dropped", "secret dropped", "degree overflow"])
    def test_count_fibers_re_verifies_every_candidate(self, fault, monkeypatch):
        # Mutant bases, each breaking one constraint that only the re-checks
        # catch. Solving the secret's congruence alone (the mutant of
        # test_candidate_breaking_a_pinned_residue_is_refused) or member 4's
        # alone leaves candidates that meet member 4's residue c, or open to
        # it, only for the secret c; adding x times the moduli's product
        # (degree = cap at both levels) cancels only where 1 + s = 0.
        structure, params = make_setup(11, (3, 4), (2, 3), [1] * 7)
        view, _ = observe_coalition(structure, params, {4}, rng=random.Random(1))
        share = Share(4, 2, view.shares[4])
        c = (unmask_share(view.family, view.bulletin, share, 2) % params.moduli[3]).coefficient(0)
        x = Poly(11, [0, 1])
        patched, opened = {
            "residue dropped": (lambda r, m: r[0], (c,)),
            "secret dropped": (lambda r, m: crt_combine(r[1:], m[1:]) if m[1:] else r[0], (c,)),
            "degree overflow": (lambda r, m: crt_combine(r, m) + x * math.prod(m), (10,)),
        }[fault]
        monkeypatch.setattr(oracle, "crt_combine", patched)
        expected = {s: 11**2 * (s == opened) for s in vectors(11, 1)}
        assert preimage_exponent(structure, params, {4}) == 2
        assert count_fibers(view) == expected
        assert {s: count_secret_preimages(view, s) for s in expected} == expected

    def test_count_fibers_refuses_a_colliding_parameterization(self):
        # a zero step maps every free coefficient to the same candidate
        structure, params = theta_one_setup()
        view = observe_coalition(structure, params, {3})[0]
        levels = tuple((mods, residues, Poly(3), cap) for mods, residues, _, cap in view._levels)
        view.__dict__["_levels"] = levels
        with pytest.raises(AssertionError, match="parameterization collided"):
            count_fibers(view)

    def test_zero_exponent_leaves_single_tuple_per_secret(self):
        structure, params = tiny_state_setup()
        assert preimage_exponent(structure, params, {2}) == 0
        view = observe_coalition(structure, params, {2})[0]
        assert count_secret_preimages(view, (1,)) == 1

    def test_budget_guard(self):
        structure, params = theta_one_setup()
        with pytest.raises(BudgetExceededError):
            count_consistent_tuples(
                observe_coalition(structure, params, {3})[0], budget=EnumerationBudget(8)
            )

    def test_count_fibers_checks_every_fiber_against_the_budget(self, monkeypatch):
        # 3 fibers of 3**1 tuples: a budget of 8 fits each fiber but not all 9
        structure, params = theta_one_setup()
        view = observe_coalition(structure, params, {3})[0]
        scans = []
        with monkeypatch.context() as patch:
            patch.setattr(oracle, "_scan_fibers", lambda *args: scans.append(args))
            with pytest.raises(BudgetExceededError, match="needs 9 states, budget allows 8"):
                count_fibers(view, EnumerationBudget(8))
        assert scans == []
        assert count_fibers(view, EnumerationBudget(9)) == {(0,): 3, (1,): 3, (2,): 3}

    def test_secret_outside_field_rejected(self):
        # (3,) used to be counted as the secret (0,) at p = 3
        structure, params = theta_one_setup()
        with pytest.raises(ValueError, match="field elements"):
            count_secret_preimages(observe_coalition(structure, params, {3})[0], (3,))


class TestLossEntropy:
    def test_coalition_mode_is_exactly_zero(self):
        structure, params = quad_setup_p3()
        view, _ = observe_coalition(structure, params, {3}, rng=random.Random(2))
        assert loss_entropy(view) == 0.0

    def test_full_mode_nonnegative(self):
        structure, params = tiny_state_setup()
        for seed in range(5):
            view, _ = observe_coalition(
                structure, params, {2}, mode=MODE_FULL, rng=random.Random(seed)
            )
            assert loss_entropy(view) >= -1e-9

    def test_view_no_dealer_state_reproduces_is_refused(self):
        # entry (2, 1) of degree 1 >= d_1 = 1 is never dealt; the view is
        # still accepted, but it has no entropy to report
        structure, params = tiny_state_setup()
        view, _ = observe_coalition(structure, params, {2}, mode=MODE_FULL, rng=random.Random(9))
        forged = with_entry(view, (2, 1), Poly(3, [1, 1]))
        with pytest.raises(ValueError, match="no dealer state reproduces this view"):
            loss_entropy(forged)

    def test_histogram_entropy_uniform_case(self):
        assert histogram_entropy_bits({(0,): 4, (1,): 4}) == 1.0
        assert histogram_entropy_bits({(0,): 3, (1,): 0, (2,): 3}) == 1.0

    def test_histogram_entropy_skewed_case(self):
        h = histogram_entropy_bits({(0,): 3, (1,): 1})
        expected = -(0.75 * math.log2(0.75) + 0.25 * math.log2(0.25))
        assert abs(h - expected) < 1e-12


class TestCrtBruteforce:
    def test_agrees_with_crt_combine(self):
        rng = random.Random(4)
        for p in (2, 3, 5):
            linears = [Poly(p, [a, 1]) for a in range(p)]
            for _ in range(10):
                chosen = rng.sample(linears, min(2, p))
                residues = [Poly(p, [rng.randrange(p)]) for _ in chosen]
                assert crt_bruteforce(residues, chosen) == crt_combine(
                    residues, chosen
                )

    def test_single_modulus_returns_residue(self):
        m = Poly(5, [2, 0, 1])
        r = Poly(5, [1, 3])
        assert crt_bruteforce([r], [m]) == r

    def test_inconsistent_non_coprime_system(self):
        f = Poly(5, [1, 1])
        with pytest.raises(NoCrtSolutionError):
            crt_bruteforce([Poly(5, [1]), Poly(5, [2])], [f, f])

    def test_consistent_non_coprime_system_is_ambiguous(self):
        f = Poly(5, [1, 1])
        with pytest.raises(ValueError):
            crt_bruteforce([Poly(5, [1]), Poly(5, [1])], [f, f])

    def test_budget(self):
        moduli = [Poly(5, [1, 0, 0, 0, 1]), Poly(5, [2, 0, 0, 0, 1])]
        residues = [Poly(5, [0]), Poly(5, [0])]
        with pytest.raises(BudgetExceededError):
            crt_bruteforce(residues, moduli, EnumerationBudget(100))

    @pytest.mark.parametrize(
        "residues, moduli, error, message",
        [
            ([], [], ValueError, "at least one congruence is required"),
            ([Poly(5, [1])], [], ValueError, "residue and modulus counts differ"),
            (
                [Poly(5, [1])],
                [Poly(5, [3])],
                ValueError,
                "every modulus must have degree at least 1",
            ),
            (
                [Poly(5, [1]), Poly(5, [1])],
                [Poly(5, [1, 1]), Poly(7, [1, 1])],
                FieldMismatchError,
                "mixed fields F_5 and F_7",
            ),
            ([Poly(7, [1])], [Poly(5, [1, 1])], FieldMismatchError, "mixed fields F_5 and F_7"),
        ],
        ids=["empty", "count-mismatch", "constant-modulus", "mixed-moduli", "mixed-residue"],
    )
    def test_malformed_system_refused_as_crt_combine_refuses(
        self, residues, moduli, error, message
    ):
        for solve in (crt_combine, crt_bruteforce):
            with pytest.raises(error) as caught:
                solve(residues, moduli)
            assert (type(caught.value), str(caught.value)) == (error, message)


class TestRefusals:
    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda view: EnumerationBudget(0), "budget must allow at least one state"),
            (lambda view: histogram_entropy_bits({}), "histogram is empty"),
            (
                lambda view: dataclasses.replace(view, mode="partial"),
                "mode must be one of ('coalition', 'full')",
            ),
            (
                lambda view: dataclasses.replace(view, shares={4: view.shares[3]}),
                "exactly the coalition members' shares are required",
            ),
        ],
        ids=["zero budget", "empty histogram", "unknown mode", "shares of another member"],
    )
    def test_refused_with_its_message(self, call, message):
        structure, params = theta_one_setup()
        view, _ = observe_coalition(structure, params, {3})
        with pytest.raises(ValueError) as caught:
            call(view)
        assert str(caught.value) == message
