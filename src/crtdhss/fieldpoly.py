"""Exact arithmetic in F_p and in the polynomial ring F_p[x].

A polynomial is an immutable tuple of coefficients in ascending order of
power: index j holds the coefficient of x**j, each reduced into [0, p).
The tuple is always normalized (no trailing zeros), so the zero polynomial
is the empty tuple and its degree is the sentinel -1.

Primality of p is *not* re-checked by the arithmetic here; parameter
construction validates it once (see `params`).

Repeated products modulo one fixed modulus (`pow_mod`, and the Frobenius
compositions behind `params.is_irreducible`) run on a private kernel,
`_mulmod`, over plain int lists of exactly deg(modulus) coefficients: it
builds no `Poly`, checks no field, does not normalize, and reduces each
output coefficient modulo p once. Callers convert to and from `Poly` once
per call, so every public function still takes and returns `Poly`.
"""

from __future__ import annotations

import functools
import itertools
from typing import Iterable, Iterator, Sequence

from .errors import FieldMismatchError, NotCoprimeError, NotPairwiseCoprimeError

# Deterministic Miller-Rabin witnesses, exact for all n < 3.3 * 10**24.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test (exact for n < 2**64)."""
    if n < 2:
        return False
    for q in _MR_WITNESSES:
        if n == q:
            return True
        if n % q == 0:
            return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Poly:
    """Immutable polynomial over F_p, normalized ascending coefficient tuple."""

    __slots__ = ("p", "coeffs")

    def __init__(self, p: int, coeffs: Iterable[int] = ()):
        if p < 2:
            raise ValueError("field modulus must be at least 2")
        cs = [c % p for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, p: int) -> "Poly":
        return cls(p)

    @classmethod
    def one(cls, p: int) -> "Poly":
        return cls(p, (1,))

    @classmethod
    def x_power(cls, p: int, k: int) -> "Poly":
        """The monomial x**k."""
        return cls(p, (0,) * k + (1,))

    # -- structure -------------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, j: int) -> int:
        return self.coeffs[j] if j < len(self.coeffs) else 0

    def padded(self, length: int) -> tuple[int, ...]:
        """Coefficient vector of fixed length (requires degree < length)."""
        if len(self.coeffs) > length:
            raise ValueError(f"degree {self.degree} does not fit in {length} coefficients")
        return self.coeffs + (0,) * (length - len(self.coeffs))

    # -- arithmetic --------------------------------------------------------

    def _check_field(self, other: "Poly") -> None:
        if self.p != other.p:
            raise FieldMismatchError(f"mixed fields F_{self.p} and F_{other.p}")

    def __add__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        self._check_field(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        p = self.p
        for j, c in enumerate(b):
            out[j] = (out[j] + c) % p
        return Poly(p, out)

    def __neg__(self) -> "Poly":
        return Poly(self.p, (-c for c in self.coeffs))

    def __sub__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return Poly(self.p, (c * other for c in self.coeffs))
        if not isinstance(other, Poly):
            return NotImplemented
        self._check_field(other)
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly.zero(self.p)
        p = self.p
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    out[i + j] = (out[i + j] + ai * bj) % p
        return Poly(p, out)

    __rmul__ = __mul__

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        if not isinstance(other, Poly):
            return NotImplemented
        self._check_field(other)
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        p = self.p
        db = other.degree
        if self.degree < db:
            return Poly.zero(p), self
        div = other.coeffs
        if db == 1:
            # synthetic division by bx + c: root is -c/b
            lead_inv = pow(div[1], -1, p)
            root = -div[0] * lead_inv % p
            quot = [0] * (len(self.coeffs) - 1)
            acc = 0
            for k in range(len(self.coeffs) - 1, 0, -1):
                acc = (acc * root + self.coeffs[k]) % p
                quot[k - 1] = acc * lead_inv % p
            rem = (acc * root + self.coeffs[0]) % p
            return Poly(p, quot), Poly(p, (rem,))
        rem = list(self.coeffs)
        lead_inv = pow(div[-1], -1, p)
        qlen = len(rem) - db
        quot = [0] * qlen
        for k in range(qlen - 1, -1, -1):
            c = rem[k + db]
            if c:
                q = c * lead_inv % p
                quot[k] = q
                for j in range(db + 1):
                    rem[k + j] = (rem[k + j] - q * div[j]) % p
        return Poly(p, quot), Poly(p, rem[:db])

    def __floordiv__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    def monic(self) -> "Poly":
        """Scale so the leading coefficient is 1 (zero stays zero)."""
        if self.is_zero or self.coeffs[-1] == 1:
            return self
        inv = pow(self.coeffs[-1], -1, self.p)
        return Poly(self.p, (c * inv for c in self.coeffs))

    def shift(self, k: int) -> "Poly":
        """Multiply by x**k."""
        if self.is_zero:
            return self
        return Poly(self.p, (0,) * k + self.coeffs)

    # -- protocol ----------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Poly)
            and self.p == other.p
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.p, self.coeffs))

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __reduce__(self):
        return (Poly, (self.p, self.coeffs))

    def __repr__(self) -> str:
        return f"Poly({self.p}, {list(self.coeffs)})"

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        terms = []
        for j in range(self.degree, -1, -1):
            c = self.coeffs[j] if j < len(self.coeffs) else 0
            if not c:
                continue
            if j == 0:
                terms.append(str(c))
            else:
                xs = "x" if j == 1 else f"x^{j}"
                terms.append(xs if c == 1 else f"{c}{xs}")
        return " + ".join(terms)


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor."""
    a._check_field(b)
    while not b.is_zero:
        a, b = b, a % b
    return a.monic()


def poly_xgcd(a: Poly, b: Poly) -> tuple[Poly, Poly, Poly]:
    """Extended Euclid: returns (g, u, v) with u*a + v*b = g and g monic."""
    a._check_field(b)
    if a.is_zero and b.is_zero:
        raise ValueError("gcd(0, 0) is undefined")
    p = a.p
    r0, r1 = a, b
    s0, s1 = Poly.one(p), Poly.zero(p)
    t0, t1 = Poly.zero(p), Poly.one(p)
    while not r1.is_zero:
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    lead = r0.coeffs[-1]
    if lead != 1:
        inv = pow(lead, -1, p)
        r0, s0, t0 = r0 * inv, s0 * inv, t0 * inv
    return r0, s0, t0


def inverse_mod(a: Poly, m: Poly) -> Poly:
    """Inverse of a modulo m; requires gcd(a mod m, m) = 1 and deg m >= 1."""
    a._check_field(m)
    if m.degree < 1:
        raise ValueError("modulus must have degree at least 1")
    a = a % m
    g, u, _ = poly_xgcd(a, m)
    if g != Poly.one(a.p):
        raise NotCoprimeError(f"{a!r} is not invertible modulo {m!r}")
    return u % m


def vectors(p: int, length: int) -> Iterator[tuple[int, ...]]:
    """Every vector of F_p**length in index order.

    The k-th vector of F_p**length is the base-p digits of k, low digit first.
    """
    for digits in itertools.product(range(p), repeat=length):
        yield digits[::-1]


def is_pairwise_coprime(polys: Sequence[Poly]) -> bool:
    """True iff the gcd of every pair is a unit. Zero polynomials are rejected."""
    one = None
    for f in polys:
        if f.is_zero:
            raise ValueError("zero polynomial has no coprimality relation")
        one = Poly.one(f.p) if one is None else one
    for i in range(len(polys)):
        for j in range(i + 1, len(polys)):
            if poly_gcd(polys[i], polys[j]) != one:
                return False
    return True


@functools.lru_cache(maxsize=256)
def _crt_basis(moduli: tuple[Poly, ...]) -> tuple[Poly, tuple[Poly, ...]]:
    """(M, (lambda_i * M_i, ...)) for a pairwise-coprime modulus tuple.

    Cached because the basis depends only on the moduli, which repeat across
    reconstructions and exhaustive sweeps. 256 entries hold every coalition
    a session reuses, while a process that keeps drawing fresh parameters
    stays flat in memory: for seven degree-4 moduli over 2^61 - 1 one entry
    holds about 11 KB of `Poly` objects (3 KB for three, 21 KB for ten), so
    256 such entries take under 3 MB where 4096 would grow to about 45 MB.
    """
    p = moduli[0].p
    total = Poly.one(p)
    for m in moduli:
        total = total * m
    combiners = []
    for m in moduli:
        partial = total // m
        try:
            lam = inverse_mod(partial, m)
        except NotCoprimeError:
            # M/m_i is invertible modulo m_i exactly when the moduli are
            # pairwise coprime, so failure here is that precondition.
            raise NotPairwiseCoprimeError("moduli are not pairwise coprime") from None
        combiners.append(lam * partial)
    return total, tuple(combiners)


def crt_combine(residues: Sequence[Poly], moduli: Sequence[Poly]) -> Poly:
    """Solve y = residues[i] (mod moduli[i]) for all i.

    The moduli must be pairwise coprime with degree >= 1 each; the result is
    the unique solution of degree below sum(deg m_i), assembled as
    sum(lambda_i * M_i * y_i) mod M with M_i = M / m_i and
    lambda_i the inverse of M_i modulo m_i.
    """
    if len(residues) != len(moduli):
        raise ValueError("residue and modulus counts differ")
    if not moduli:
        raise ValueError("at least one congruence is required")
    for m in moduli:
        if m.degree < 1:
            raise ValueError("every modulus must have degree at least 1")
    if len(moduli) == 1:
        return residues[0] % moduli[0]
    total, combiners = _crt_basis(tuple(moduli))
    acc = Poly.zero(moduli[0].p)
    for r, m, combiner in zip(residues, moduli, combiners):
        acc = acc + combiner * (r % m)
    return acc % total


def _mulmod(a: list[int], b: list[int], m: list[int], p: int) -> list[int]:
    """a * b mod m over F_p, on plain int lists (the private kernel).

    m is monic of degree d >= 1, given as its d + 1 coefficients; a and b
    hold exactly d coefficients in [0, p), and so does the result. Products
    accumulate unreduced, each top coefficient is cleared with one multiple
    of m, and every output coefficient is reduced once.
    """
    d = len(m) - 1
    prod = [0] * (2 * d - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] += ai * bj
    for k in range(2 * d - 2, d - 1, -1):
        c = prod[k] % p
        if c:
            for j in range(d):
                prod[k - d + j] -= c * m[j]
    return [c % p for c in prod[:d]]


def _kernel_operands(f: Poly, modulus: Poly) -> tuple[list[int], list[int]]:
    """The monic modulus and f reduced modulo it, as kernel lists.

    A non-monic modulus is scaled by its leading inverse: it generates the
    same ideal, so every remainder is unchanged.
    """
    return list(modulus.monic().coeffs), list((f % modulus).padded(modulus.degree))


def _compose_mod(g: Poly, h: Poly, modulus: Poly) -> Poly:
    """g(h) mod `modulus` (degree >= 1) by Horner's rule on the kernel."""
    m, hl = _kernel_operands(h, modulus)
    p = modulus.p
    acc = [0] * modulus.degree
    for c in reversed(g.coeffs):
        acc = _mulmod(acc, hl, m, p)
        acc[0] = (acc[0] + c) % p
    return Poly(p, acc)


def pow_mod(base: Poly, exponent: int, modulus: Poly) -> Poly:
    """base**exponent reduced modulo `modulus` by square-and-multiply."""
    if exponent < 0:
        raise ValueError("negative exponents are not supported")
    if modulus.degree < 1:
        return base % modulus  # raises for a zero modulus; all else is 0 modulo a unit
    m, b = _kernel_operands(base, modulus)
    p = modulus.p
    result = [1] + [0] * (modulus.degree - 1)
    for bit in bin(exponent)[2:]:
        result = _mulmod(result, result, m, p)
        if bit == "1":
            result = _mulmod(result, b, m, p)
    return Poly(p, result)
