"""The insecure two-level Yang scheme and the coalition attack that breaks it.

This scheme publishes bare masks w_i = (f_2 - c_i) mod m_i without any
hashing, so for top-level participants the masks equal (f_2 - f_1) mod m_i.
Whenever the top level is large enough to determine f_2 - f_1 by CRT
(n_1 >= t_2), a bottom-level coalition far below threshold recovers the
secret from public data plus its own shares. Both the honest protocol and
the attack are implemented so the break can be demonstrated end to end.

Masks are carried as a `Bulletin` keyed (2, i) for i in the top level: a
mask lets a top-level share stand in at the bottom trust level.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import AttackNotApplicableError, UnauthorizedSubsetError
from .fieldpoly import Poly, crt_combine
from .params import AccessStructure, PublicParams, check_params, min_authorized_level
from .scheme import Bulletin, Share, _check_secret, _master_polys, _pool_shares

MASK_LEVEL = 2


@dataclass(frozen=True)
class YangMasterPolys:
    """Dealer-internal pair (f_1, f_2). Never published."""

    f1: Poly
    f2: Poly


def _check_two_level(structure: AccessStructure, params: PublicParams) -> None:
    if structure.m != 2:
        raise ValueError("this scheme is defined for exactly two levels")
    check_params(structure, params)


def yang_deal_with_internals(
    structure: AccessStructure,
    params: PublicParams,
    secret: Sequence[int],
    rng: random.Random,
) -> tuple[tuple[Share, ...], Bulletin, YangMasterPolys]:
    """Deal and also return f_1, f_2 (for audits/tests)."""
    _check_two_level(structure, params)
    vector = _check_secret(params, secret)
    f1, f2 = _master_polys(structure, params, vector, rng).polys

    p = params.p
    degrees = params.degrees
    n1 = structure.level_sizes[0]

    shares = []
    for i in range(1, structure.n + 1):
        f = f1 if i <= n1 else f2
        coeffs = (f % params.moduli[i - 1]).padded(degrees[i - 1])
        shares.append(Share(i, structure.level_of(i), coeffs))

    masks = {
        (MASK_LEVEL, i): (f2 - shares[i - 1].poly(p)) % params.moduli[i - 1]
        for i in range(1, n1 + 1)
    }
    return tuple(shares), Bulletin(masks), YangMasterPolys(f1, f2)


def yang_deal(
    structure: AccessStructure,
    params: PublicParams,
    secret: Sequence[int],
    rng: random.Random,
) -> tuple[tuple[Share, ...], Bulletin]:
    """Produce all n shares plus the published masks for the top level."""
    shares, masks, _ = yang_deal_with_internals(structure, params, secret, rng)
    return shares, masks


def yang_reconstruct(
    structure: AccessStructure,
    params: PublicParams,
    masks: Bulletin,
    shares: Iterable[Share],
) -> tuple[int, ...]:
    """Honest reconstruction: requires an authorized coalition."""
    _check_two_level(structure, params)
    by_owner = _pool_shares(structure, params, shares)
    level = min_authorized_level(structure, by_owner.keys())
    if level is None:
        raise UnauthorizedSubsetError("these participants do not meet any threshold")

    p = params.p
    n1 = structure.level_sizes[0]
    bound = structure.prefix_counts[level - 1]
    members = sorted(i for i in by_owner if i <= bound)
    residues = []
    for i in members:
        c = by_owner[i].poly(p)
        if level == 2 and i <= n1:
            c = (c + masks.entry(MASK_LEVEL, i)) % params.moduli[i - 1]
        residues.append(c)
    f = crt_combine(residues, [params.moduli[i - 1] for i in members])
    return (f % params.secret_modulus).padded(params.d0)


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
    Step 2: subtracting its residues from the coalition's own shares turns
    them into residues of f_1, which CRT determines once the coalition's
    degree sum reaches that of the t_1 smallest moduli.
    Step 3: the secret is f_1 reduced modulo x**d0.

    Only published values and the coalition's own shares are consumed.
    """
    _check_two_level(structure, params)
    p = params.p
    degrees = params.degrees
    n1, t1, t2 = structure.level_sizes[0], *structure.thresholds

    coalition = _pool_shares(structure, params, coalition_shares)
    if not coalition:
        raise AttackNotApplicableError("the coalition is empty")
    if any(i <= n1 for i in coalition):
        raise AttackNotApplicableError("this attack uses bottom-level shares only")
    if n1 < t2:
        raise AttackNotApplicableError(
            f"top level holds {n1} < t_2 = {t2} moduli, too few to pin down f_2 - f_1"
        )
    if sum(degrees[i - 1] for i in coalition) < sum(degrees[:t1]):
        raise AttackNotApplicableError(
            "coalition degree sum is below the first-level threshold weight"
        )

    top_moduli = [params.moduli[i - 1] for i in range(1, n1 + 1)]
    top_masks = [masks.entry(MASK_LEVEL, i) for i in range(1, n1 + 1)]
    delta = crt_combine(top_masks, top_moduli)  # f_2 - f_1

    members = sorted(coalition)
    residues = []
    for i in members:
        m_i = params.moduli[i - 1]
        residues.append((coalition[i].poly(p) - delta % m_i) % m_i)
    f1 = crt_combine(residues, [params.moduli[i - 1] for i in members])
    return (f1 % params.secret_modulus).padded(params.d0)
