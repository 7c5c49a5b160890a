"""The insecure two-level Yang scheme and the coalition attack that breaks it.

This scheme publishes bare masks w_i = (f_2 - c_i) mod m_i without any
hashing, so for top-level participants the masks equal (f_2 - f_1) mod m_i.
Whenever the top level is large enough to determine f_2 - f_1 by CRT
(n_1 >= t_2), a bottom-level coalition far below threshold recovers the
secret from public data plus its own shares. Both the honest protocol and
the attack are implemented so the break can be demonstrated end to end.

Masks are carried as a `Bulletin` keyed (2, i) for i in the top level: a
mask lets a top-level share stand in at the bottom trust level. `yang_deal`
returns exactly the shares and that bulletin; f_1 and f_2 never leave the call.

Both paths open f_l through the hierarchical scheme's degree-checked
`_open`, so weight beyond the threshold detects a tampered share here too.
"""

from __future__ import annotations

import random
from typing import Iterable, Sequence

from .errors import AttackNotApplicableError, MissingBulletinEntryError
from .fieldpoly import Poly, _poly, _sub, crt_combine
from .params import AccessStructure, PublicParams, check_params
from .scheme import (
    Bulletin,
    Share,
    _check_secret,
    _layout,
    _master_residues,
    _open,
    _pool_shares,
    _recover,
)

MASK_LEVEL = 2


def _check_two_level(structure: AccessStructure, params: PublicParams) -> None:
    if structure.m != 2:
        raise ValueError("this scheme is defined for exactly two levels")
    check_params(structure, params)


def yang_deal(
    structure: AccessStructure,
    params: PublicParams,
    secret: Sequence[int],
    rng: random.Random,
) -> tuple[tuple[Share, ...], Bulletin]:
    """Produce all n shares plus the published masks for the top level."""
    _check_two_level(structure, params)
    vector = _check_secret(params, secret)
    residues = _master_residues(structure, params, _layout(structure, params)[0], vector, rng)
    n1 = structure.level_sizes[0]

    shares = []
    for i in range(1, structure.n + 1):
        level = structure.level_of(i)
        shares.append(Share(i, level, residues[level - 1][i - 1]))

    # (f_2 - c_i) mod m_i, and c_i has degree below d_i already
    masks = {
        (MASK_LEVEL, i): _poly(params.p, _sub(residues[1][i - 1], shares[i - 1].coeffs, params.p))
        for i in range(1, n1 + 1)
    }
    return tuple(shares), Bulletin(masks)


def yang_reconstruct(
    structure: AccessStructure,
    params: PublicParams,
    masks: Bulletin,
    shares: Iterable[Share],
) -> tuple[int, ...]:
    """Honest reconstruction: requires an authorized coalition."""
    _check_two_level(structure, params)

    def unmask(share: Share, level: int) -> Poly:
        # An unmasked share is a residue of its own level's f_l; a mask moves it to another.
        entry = masks.entries.get(key := (level, share.participant))
        if entry is None and share.level != level:
            raise MissingBulletinEntryError(key)
        return share.poly(params.p) if entry is None else share.poly(params.p) + entry

    return _recover(structure, params, shares, unmask)


def yang_attack(
    structure: AccessStructure,
    params: PublicParams,
    masks: Bulletin,
    coalition_shares: Iterable[Share],
) -> tuple[int, ...]:
    """Recover the secret from public data plus a bottom-level coalition.

    Step 1: the masks of the top level are residues of f_2 - f_1, whose
    degree stays below the degree sum of any t_2 moduli; with n_1 >= t_2
    the difference is determined exactly by CRT over the whole top level.
    Step 2: subtracting it from the coalition's own shares turns them into
    residues of f_1, which CRT determines once the coalition's degree sum
    reaches that of the t_1 smallest moduli; any weight beyond that checks
    the coalition's shares, as in honest reconstruction.
    Step 3: the secret is f_1 reduced modulo x**d0.

    Only published values and the coalition's own shares are consumed.
    """
    _check_two_level(structure, params)
    degrees = params.degrees
    n1, t1, t2 = structure.level_sizes[0], *structure.thresholds
    f1_cap = sum(degrees[:t1])

    coalition = _pool_shares(structure, params, coalition_shares)
    if any(i <= n1 for i in coalition):
        raise AttackNotApplicableError("this attack uses bottom-level shares only")
    if n1 < t2:
        raise AttackNotApplicableError(
            f"top level holds {n1} < t_2 = {t2} moduli, too few to pin down f_2 - f_1"
        )
    if sum(degrees[i - 1] for i in coalition) < f1_cap:
        raise AttackNotApplicableError(
            "coalition degree sum is below the first-level threshold weight"
        )

    top_moduli = [params.moduli[i - 1] for i in range(1, n1 + 1)]
    top_masks = [masks.entry(MASK_LEVEL, i) for i in range(1, n1 + 1)]
    delta = crt_combine(top_masks, top_moduli)  # f_2 - f_1

    members = sorted(coalition)
    residues = [coalition[i].poly(params.p) - delta for i in members]
    return _open(params, residues, members, f1_cap)
