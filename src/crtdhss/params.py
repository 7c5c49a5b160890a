"""Access structures, public parameters, and their validity conditions.

Participants are globally indexed 1..n, sorted by level and then by
nondecreasing modulus degree, so the prefix sets [1, N_l] coincide with
"the first l levels". A coalition is authorized when, for some level l,
it holds at least t_l members inside that prefix.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .errors import InsufficientIrreduciblesError, InvalidParametersError
from .fieldpoly import (
    Poly,
    _compose_mod,
    is_pairwise_coprime,
    is_prime,
    poly_gcd,
    pow_mod,
    vectors,
)
from .hashing import check_config

MAX_PRIME = 2**64 - 1

# Exhaustive irreducible search is used below this candidate-space size;
# larger spaces fall back to rejection sampling.
_ENUMERATION_CUTOFF = 1 << 12


def _check_field(p: int) -> None:
    """Refuse p unless it is a prime that fits in 64 bits, checking the size first."""
    if p > MAX_PRIME:
        raise ValueError("field modulus must fit in 64 bits")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")


def _check_settings(p: int, d0: int, hash_backend: str, table_seed: Optional[int]) -> None:
    """Refuse the field, secret degree bound or hash settings of any parameter set."""
    _check_field(p)
    if d0 < 1:
        raise ValueError("secret degree bound must be at least 1")
    check_config(hash_backend, p, table_seed)


@dataclass(frozen=True)
class AccessStructure:
    """Level sizes n_1..n_m and strictly increasing thresholds t_1..t_m."""

    level_sizes: tuple[int, ...]
    thresholds: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "level_sizes", tuple(self.level_sizes))
        object.__setattr__(self, "thresholds", tuple(self.thresholds))
        sizes, thresholds = self.level_sizes, self.thresholds
        if not sizes or len(sizes) != len(thresholds):
            raise ValueError("level sizes and thresholds must align and be nonempty")
        if any(n < 1 for n in sizes):
            raise ValueError("every level must have at least one participant")
        if thresholds[0] < 1:
            raise ValueError("thresholds start at 1")
        if any(a >= b for a, b in zip(thresholds, thresholds[1:])):
            raise ValueError("thresholds must be strictly increasing")
        if any(t > n for t, n in zip(thresholds, sizes)):
            raise ValueError("each threshold must not exceed its own level size")

    @property
    def m(self) -> int:
        return len(self.level_sizes)

    @functools.cached_property
    def n(self) -> int:
        return sum(self.level_sizes)

    @functools.cached_property
    def prefix_counts(self) -> tuple[int, ...]:
        """N_l = number of participants in the first l levels, for l=1..m."""
        return tuple(itertools.accumulate(self.level_sizes))

    def level_of(self, participant: int) -> int:
        if not 1 <= participant <= self.n:
            raise ValueError(f"participant index {participant} out of range 1..{self.n}")
        return bisect.bisect_left(self.prefix_counts, participant) + 1


@dataclass(frozen=True)
class PublicParams:
    """Prime p, secret degree bound d0, the public moduli, and hash config."""

    p: int
    d0: int
    moduli: tuple[Poly, ...]
    hash_backend: str = "crypto"
    table_seed: Optional[int] = None

    def __post_init__(self):
        object.__setattr__(self, "moduli", tuple(self.moduli))
        _check_settings(self.p, self.d0, self.hash_backend, self.table_seed)
        if not self.moduli:
            raise ValueError("at least one modulus is required")
        for m in self.moduli:
            if not isinstance(m, Poly) or m.p != self.p:
                raise ValueError("every modulus must be a polynomial over F_p")
            if m.degree < 1:
                raise ValueError("every modulus must have degree at least 1")

    @functools.cached_property
    def degrees(self) -> tuple[int, ...]:
        return tuple(m.degree for m in self.moduli)

    @functools.cached_property
    def secret_modulus(self) -> Poly:
        """m_0(x) = x**d0."""
        return Poly.x_power(self.p, self.d0)


@dataclass(frozen=True)
class ValidationReport:
    """Named violations of the parameter conditions; empty means valid."""

    violations: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    def __bool__(self) -> bool:
        return self.ok


@functools.lru_cache(maxsize=256)
def validate_params(structure: AccessStructure, params: PublicParams) -> ValidationReport:
    """Check the three moduli conditions plus pairwise coprimality.

    Violations are reported by name rather than raised: parameter files are
    operator input and a full list beats failing on the first problem.
    Memoized: both arguments and the report are frozen, so each distinct
    pair is validated once per process.
    """
    violations = []
    degrees = params.degrees
    n = structure.n

    if len(params.moduli) != n:
        violations.append(
            f"participant_count: {len(params.moduli)} moduli for {n} participants"
        )

    for i, m in enumerate(params.moduli, start=1):
        if m.coefficient(0) == 0:
            violations.append(
                f"condition_i: modulus {i} shares the factor x with x^{params.d0}"
            )

    if any(d < params.d0 for d in degrees) or any(
        a > b for a, b in zip(degrees, degrees[1:])
    ):
        violations.append(
            "condition_ii: degrees must be nondecreasing and at least d0"
        )

    if len(params.moduli) == n:
        for level, t in enumerate(structure.thresholds, start=1):
            top = sum(degrees[n - t + 1 :])  # the t-1 largest degrees
            low = sum(degrees[:t])
            if params.d0 + top > low:
                violations.append(
                    f"condition_iii: level {level} needs d0 + {top} <= {low}"
                )

    if not is_pairwise_coprime(params.moduli):
        violations.append("pairwise_coprime: some moduli share a factor")

    return ValidationReport(tuple(violations))


def check_params(structure: AccessStructure, params: PublicParams) -> None:
    """Raise InvalidParametersError unless `validate_params` finds no violation."""
    report = validate_params(structure, params)
    if not report.ok:
        raise InvalidParametersError(report.violations)


def is_authorized(structure: AccessStructure, subset: Iterable[int]) -> bool:
    """True iff some level l sees at least t_l members within its prefix."""
    return min_authorized_level(structure, subset) is not None


def min_authorized_level(structure: AccessStructure, subset: Iterable[int]) -> Optional[int]:
    """Smallest level whose threshold the subset meets, or None."""
    members = set(subset)
    for i in members:
        structure.level_of(i)  # raises for an index outside 1..n
    for level, (bound, t) in enumerate(
        zip(structure.prefix_counts, structure.thresholds), start=1
    ):
        if sum(1 for i in members if i <= bound) >= t:
            return level
    return None


def information_rate(structure: AccessStructure, params: PublicParams) -> Fraction:
    """Secret-space bits over the largest share-space bits: d0 / max(d_i)."""
    return Fraction(params.d0, max(params.degrees))


# ---------------------------------------------------------------------------
# Irreducible polynomial machinery
# ---------------------------------------------------------------------------


def _mobius(n: int) -> int:
    result = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            result = -result
        d += 1
    if n > 1:
        result = -result
    return result


def monic_irreducible_count(p: int, degree: int) -> int:
    """Number of monic irreducible polynomials of the given degree over F_p."""
    if degree < 1:
        raise ValueError("degree must be positive")
    total = 0
    for e in range(1, degree + 1):
        if degree % e == 0:
            total += _mobius(e) * p ** (degree // e)
    return total // degree


def is_irreducible(f: Poly) -> bool:
    """Irreducibility over F_p via Frobenius powers (Ben-Or's test).

    f is reducible iff it has an irreducible factor of degree k <= deg(f)/2,
    which is detected by gcd(x^(p^k) - x, f) != 1, tried for k = 1, 2, ...
    so that most reducible candidates exit at k = 1, on x^p mod f from one
    `pow_mod`. Frobenius is F_p-linear, so if u(x) = x^(p^(k-1)) mod f then
    x^(p^k) = u(x)^p = u(x^p) mod f: each k >= 2 costs one composition.
    """
    d = f.degree
    if d < 1:
        return False
    if d == 1:
        return True
    p = f.p
    x = Poly.x_power(p, 1)
    u = frobenius = pow_mod(x, p, f)
    for _ in range(d // 2 - 1):
        if poly_gcd(u - x, f).degree:
            return False
        u = _compose_mod(u, frobenius, f)
    return not poly_gcd(u - x, f).degree


@functools.lru_cache(maxsize=64)
def _enumerated_irreducibles(p: int, degree: int) -> tuple[Poly, ...]:
    """Every monic irreducible of this degree over F_p, in index order.

    Only called with p**degree <= _ENUMERATION_CUTOFF, which 40 pairs with
    degree >= 2 meet, so the cache never evicts; all 40 together hold about
    1.8 MB.
    """
    monics = (Poly(p, low + (1,)) for low in vectors(p, degree))
    return tuple(f for f in monics if is_irreducible(f))


def _draw_moduli(p: int, degree: int, count: int, rng: random.Random) -> list[Poly]:
    """`count` distinct monic irreducibles of one degree over F_p, none equal to x."""
    linear = degree == 1
    available = p - 1 if linear else monic_irreducible_count(p, degree)
    if count > available:
        raise InsufficientIrreduciblesError(
            f"need {count} monic irreducibles of degree {degree} over F_{p} "
            f"other than x, only {available} exist"
        )
    if p**degree <= _ENUMERATION_CUTOFF:
        members = list(range(1, p) if linear else _enumerated_irreducibles(p, degree))
        rng.shuffle(members)
        return [Poly(p, [-a, 1]) for a in members[:count]] if linear else members[:count]
    chosen: list = []  # roots at degree 1, else low coefficients
    seen: set = set()
    while len(chosen) < count:
        key = rng.randrange(1, p) if linear else tuple([rng.randrange(p) for _ in range(degree)])
        if key not in seen and (linear or is_irreducible(Poly(p, key + (1,)))):
            seen.add(key)
            chosen.append(key)
    return [Poly(p, [-k, 1] if linear else k + (1,)) for k in chosen]


def generate_moduli(
    p: int, degree_profile: Sequence[int], rng: random.Random
) -> tuple[Poly, ...]:
    """Draw distinct monic irreducible moduli matching the degree profile.

    Irreducibility plus degree >= 1 guarantees pairwise coprimality, and no
    output equals x, so conditions on the constant term hold by construction.
    The profile must be nondecreasing; condition (iii) against a threshold
    sequence remains the caller's responsibility.

    Every degree class is drawn by `_draw_moduli`: refused if too small,
    shuffled whole when p**degree <= _ENUMERATION_CUTOFF, else sampled with
    repeats skipped before the irreducibility test. Degree 1 differs only in
    its members, the p - 1 roots a != 0 of x - a, drawn by randrange(1, p).
    """
    _check_field(p)
    profile = tuple(degree_profile)
    if not profile or any(d < 1 for d in profile):
        raise ValueError("degree profile must be nonempty and positive")
    if any(a > b for a, b in zip(profile, profile[1:])):
        raise ValueError("degree profile must be nondecreasing")

    moduli: list[Poly] = []
    for degree, run in itertools.groupby(profile):  # each degree draws once, in ascending order
        moduli += _draw_moduli(p, degree, len(list(run)), rng)
    return tuple(moduli)
