"""Dealing and reconstruction for the hierarchical CRT scheme.

The dealer fixes one master polynomial f_l per level, all congruent to the
secret modulo x**d0. Participants above the bottom level hold uniformly
random vectors; bottom-level participants hold residues of f_m. Published
masks let a share act as a residue of f_l after hash-unmasking, so any
coalition meeting some level's threshold can CRT-reconstruct f_l and read
the secret off its low-order coefficients. `_layout` alone states what a
deal draws and publishes; the deal and the auditor (`oracle`) both read it.

Secrets and shares are fixed-length coefficient vectors, not normalized
polynomials: the coefficient-wise hash must cover trailing zeros too.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

from .errors import FieldMismatchError, InconsistentSharesError, MissingBulletinEntryError
from .errors import UnauthorizedSubsetError
from .fieldpoly import Poly, _add, _poly, _residues, _sub, _trim, crt_combine
from .hashing import HashFamily
from .params import AccessStructure, PublicParams, check_params, min_authorized_level


@dataclass(frozen=True)
class Share:
    """One participant's private coefficient vector of length d_i."""

    participant: int
    level: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(self.coeffs))

    def poly(self, p: int) -> Poly:
        return Poly(p, self.coeffs)


@dataclass(frozen=True)
class Bulletin:
    """Published masks indexed by (level, participant)."""

    entries: Mapping[tuple[int, int], Poly]

    def entry(self, level: int, participant: int) -> Poly:
        try:
            return self.entries[(level, participant)]
        except KeyError:
            raise MissingBulletinEntryError((level, participant)) from None

    def __contains__(self, key: tuple[int, int]) -> bool:
        return key in self.entries


def _check_setup(structure: AccessStructure, params: PublicParams, family: HashFamily) -> None:
    check_params(structure, params)
    published = (params.hash_backend, params.p, structure.m, params.table_seed)
    if (family.backend, family.p, family.num_levels, family.table_seed) != published:
        raise ValueError(
            "hash family does not match the published hash configuration, field or level count"
        )


def _pool_shares(
    structure: AccessStructure, params: PublicParams, shares: Iterable[Share]
) -> dict[int, Share]:
    """Shares by participant, each checked against the parameters first.

    A share must carry an index in 1..n, its participant's level, exactly
    d_i coefficients, and only elements of F_p; two different shares for one
    participant are inconsistent.
    """
    pooled = list(shares)
    for share in pooled:
        i = share.participant
        if share.level != structure.level_of(i):
            raise ValueError(f"share of participant {i} carries the wrong level")
        if len(share.coeffs) != params.degrees[i - 1]:
            raise ValueError(f"share of participant {i} has the wrong length")
        if any(not 0 <= c < params.p for c in share.coeffs):
            raise ValueError(f"share of participant {i} is not over F_{params.p}")
    by_owner: dict[int, Share] = {}
    for share in pooled:
        existing = by_owner.setdefault(share.participant, share)
        if existing != share:
            raise InconsistentSharesError(
                f"conflicting shares supplied for participant {share.participant}"
            )
    return by_owner


def _check_secret(params: PublicParams, secret: Sequence[int]) -> tuple[int, ...]:
    vector = tuple(secret)
    if len(vector) != params.d0:
        raise ValueError(f"secret must have exactly {params.d0} coefficients")
    if any(not 0 <= c < params.p for c in vector):
        raise ValueError("secret coefficients must be field elements")
    return vector


def _draw_vector(rng: random.Random, p: int, length: int) -> tuple[int, ...]:
    return tuple(rng.randrange(p) for _ in range(length))


def _layout(structure: AccessStructure, params: PublicParams) -> tuple[list, int, list]:
    """What a deal draws and publishes: alpha_l's length per level, N_{m-1} (random vectors
    go to 1..N_{m-1}) and each mask's key (l, i), i <= min(N_l, N_{m-1}), in publication order."""
    prefix, degrees = structure.prefix_counts, params.degrees
    n_random = prefix[-2] if structure.m > 1 else 0
    alpha_lens = [sum(degrees[:t]) - params.d0 for t in structure.thresholds]
    keys = [(l, i) for l, bound in enumerate(prefix, 1) for i in range(1, min(bound, n_random) + 1)]
    return alpha_lens, n_random, keys


def _master_polys(
    structure: AccessStructure,
    params: PublicParams,
    alpha_lens: Sequence[int],
    secret: tuple[int, ...],
    rng: random.Random,
) -> tuple[tuple[Poly, ...], list[list[tuple[int, ...]]]]:
    """f_1..f_m, and residues[l - 1][i - 1] = f_l mod m_i padded to d_i for each i <= N_l."""
    # Draw order: alpha_1..alpha_m, then the random share vectors (caller).
    polys, residues = [], []
    for alpha_len, bound in zip(alpha_lens, structure.prefix_counts):
        digits = secret + _draw_vector(rng, params.p, alpha_len)  # f_l = secret | alpha_l
        polys.append(Poly(params.p, digits))
        residues.append(_residues(digits, params.moduli[:bound], len(digits)))
    return tuple(polys), residues


def deal_with_internals(
    structure: AccessStructure,
    params: PublicParams,
    family: HashFamily,
    secret: Sequence[int],
    rng: random.Random,
) -> tuple[tuple[Share, ...], Bulletin, tuple[Poly, ...]]:
    """Deal and also return the dealer's master polynomials (for audits/tests)."""
    _check_setup(structure, params, family)
    vector = _check_secret(params, secret)
    alpha_lens, n_random, keys = _layout(structure, params)
    masters, residues = _master_polys(structure, params, alpha_lens, vector, rng)

    shares = []
    for i in range(1, structure.n + 1):
        if i <= n_random:
            coeffs = _draw_vector(rng, params.p, params.degrees[i - 1])
        else:
            coeffs = residues[-1][i - 1]
        shares.append(Share(i, structure.level_of(i), coeffs))

    entries: dict[tuple[int, int], Poly] = {}
    for level, i in keys:
        # (f_l - h_l(c_i)) mod m_i: f_l mod m_i and the digests of c_i both have d_i entries
        digests = family.hash_vector(level, shares[i - 1].coeffs)
        entries[(level, i)] = _poly(params.p, _sub(residues[level - 1][i - 1], digests, params.p))

    return tuple(shares), Bulletin(entries), masters


def deal(
    structure: AccessStructure,
    params: PublicParams,
    family: HashFamily,
    secret: Sequence[int],
    rng: random.Random,
) -> tuple[tuple[Share, ...], Bulletin]:
    """Produce all n shares and the public bulletin for the given secret."""
    shares, bulletin, _ = deal_with_internals(structure, params, family, secret, rng)
    return shares, bulletin


def unmask_share(family: HashFamily, bulletin: Bulletin, share: Share, use_level: int) -> Poly:
    """The residue of f_use_level modulo this participant's modulus.

    Masked shares are unmasked by adding the published entry to the hashed
    share vector; only a bottom-level share used at the bottom level is
    already the residue itself.
    """
    key, p = (use_level, share.participant), family.p
    entry = bulletin.entries.get(key)
    if entry is not None:
        if entry.p != p:
            raise FieldMismatchError(f"mixed fields F_{p} and F_{entry.p}")
        # `_add` keeps a longer operand as it is, so the digests are trimmed first
        return _poly(p, _add(_trim(family.hash_vector(use_level, share.coeffs)), entry.coeffs, p))
    if share.level == use_level == family.num_levels:
        return Poly(p, share.coeffs)
    raise MissingBulletinEntryError(key)


def _open(
    params: PublicParams, residues: Sequence[Poly], members: Sequence[int], degree_cap: int
) -> tuple[int, ...]:
    """The secret read off the CRT solution f of the members' residues.

    An honest f has degree below `degree_cap`; surplus congruences beyond
    that weight catch a tampered or mismatched share as a degree overflow.
    """
    f = crt_combine(residues, [params.moduli[i - 1] for i in members])
    if f.degree >= degree_cap:
        raise InconsistentSharesError(
            "reconstructed polynomial exceeds its degree bound; shares are "
            "tampered or mismatched"
        )
    return (f.coeffs + (0,) * params.d0)[: params.d0]  # f mod x**d0: the secret f_l carries


def _recover(
    structure: AccessStructure,
    params: PublicParams,
    shares: Iterable[Share],
    unmask: Callable[[Share, int], Poly],
) -> tuple[int, ...]:
    """Open f_l at the smallest authorized level l from the pooled shares.

    Every member within level l's prefix contributes `unmask(share, l)`, a
    residue of f_l; those beyond the threshold weight check the rest.
    """
    by_owner = _pool_shares(structure, params, shares)
    level = min_authorized_level(structure, by_owner.keys())
    if level is None:
        raise UnauthorizedSubsetError("these participants do not meet any threshold")
    bound = structure.prefix_counts[level - 1]
    members = sorted(i for i in by_owner if i <= bound)
    residues = [unmask(by_owner[i], level) for i in members]
    t = structure.thresholds[level - 1]
    return _open(params, residues, members, sum(params.degrees[:t]))


def reconstruct(
    structure: AccessStructure,
    params: PublicParams,
    family: HashFamily,
    bulletin: Bulletin,
    shares: Iterable[Share],
) -> tuple[int, ...]:
    """Recover the secret vector from an authorized coalition's shares.

    Uses the smallest authorized level and every coalition member within its
    prefix; the surplus congruences beyond the threshold double as a
    consistency check on the pooled shares.
    """
    _check_setup(structure, params, family)
    return _recover(structure, params, shares, functools.partial(unmask_share, family, bulletin))
