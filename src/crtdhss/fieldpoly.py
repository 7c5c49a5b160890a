"""Exact arithmetic in F_p and in the polynomial ring F_p[x].

A polynomial is an immutable tuple of coefficients in ascending order of
power: index j holds the coefficient of x**j, each reduced into [0, p).
The tuple is always normalized (no trailing zeros), so the zero polynomial
is the empty tuple and its degree is the sentinel -1.

Primality of p is *not* re-checked by the arithmetic here; parameter
construction validates it once (see `params`).

The work runs on private kernels over bare coefficient tuples (`_add`,
`_sub`, `_mul`, `_divmod`; `_mulmod_by` binds one modulus and multiplies
residues packed into single ints; `_residues` applies the cached, packed map
f -> (f mod m_i)_i of `_power_columns`, `_rows` unpacks it into the auditor's
dot-product rows, and `crt_combine` applies the inverse map residues -> f of
`_crt_basis`). A kernel
assumes normalized operands of one field, whose p its caller passes in
(`_divmod` also takes unreduced dividends), checks nothing, and reduces
lazily: products accumulate unreduced and each output coefficient is
reduced once. The public layer (`Poly` operators, module functions) checks
once that all operands share one field, raising `FieldMismatchError`
otherwise, and wraps kernel results with `_poly`, a trusted constructor
without the reduction pass and trailing-zero scan of `Poly(p, coeffs)`,
which stays the only checked entry point. Euclid (`poly_gcd`, `_resultant`)
loops on tuples.
"""

from __future__ import annotations

import functools
import itertools
from operator import lshift, mul
from typing import Callable, Iterable, Iterator, Sequence

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


def _trim(cs: list[int]) -> tuple[int, ...]:
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


def _add(a: tuple[int, ...], b: tuple[int, ...], p: int) -> tuple[int, ...]:
    if len(a) < len(b):
        a, b = b, a
    out = [(x + y) % p for x, y in zip(a, b)]
    return tuple(out) + a[len(b):] if len(a) > len(b) else _trim(out)


def _sub(a: tuple[int, ...], b: tuple[int, ...], p: int) -> tuple[int, ...]:
    """a - b in one pass."""
    out = [(x - y) % p for x, y in zip(a, b)]
    if len(a) != len(b):
        return tuple(out) + (a[len(b):] or tuple([-y % p for y in b[len(a):]]))
    return _trim(out)


def _mul(a: tuple[int, ...], b: tuple[int, ...], p: int) -> tuple[int, ...]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return _trim([c % p for c in out])


def _monic(a: tuple[int, ...], p: int) -> tuple[int, ...]:
    """a scaled to leading coefficient 1 (zero stays zero)."""
    if not a or a[-1] == 1:
        return a
    inv = pow(a[-1], -1, p)
    return tuple([c * inv % p for c in a])


def _divmod(a: Sequence[int], b: tuple[int, ...], p: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(a // b, a % b) for nonzero b and any ints a. Only the coefficient that
    fixes the next quotient term is reduced; the multiples of b are subtracted
    unreduced, skipping b's zero coefficients (dividing by x**k truncates)."""
    db = len(b) - 1
    n = len(a) - db
    rem = list(a)
    inv = 1 if n < 1 or b[-1] == 1 else pow(b[-1], -1, p)  # no quotient term, or monic b
    terms = [(j, bj) for j, bj in enumerate(b[:db]) if bj]
    quot = [0] * n
    for k in range(n - 1, -1, -1):
        c = rem[k + db] % p
        if c:
            q = c * inv % p
            quot[k] = q
            for j, bj in terms:
                rem[k + j] -= q * bj
    return _trim(quot), _trim([c % p for c in rem[:db]])


class Poly:
    """Immutable polynomial over F_p, normalized ascending coefficient tuple."""

    __slots__ = ("p", "coeffs", "_hash")

    def __init__(self, p: int, coeffs: Iterable[int] = ()):
        if p < 2:
            raise ValueError("field modulus must be at least 2")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "coeffs", _trim([c % p for c in coeffs]))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

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

    # -- arithmetic: the field check here, the work in the kernels --------

    def _check_field(self, other: "Poly") -> int:
        if self.p != other.p:
            raise FieldMismatchError(f"mixed fields F_{self.p} and F_{other.p}")
        return self.p

    def __add__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        p = self._check_field(other)
        return _poly(p, _add(self.coeffs, other.coeffs, p))

    def __neg__(self) -> "Poly":
        return _poly(self.p, tuple([-c % self.p for c in self.coeffs]))

    def __sub__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        p = self._check_field(other)
        return _poly(p, _sub(self.coeffs, other.coeffs, p))

    def __mul__(self, other):
        if isinstance(other, int):
            return Poly(self.p, (c * other for c in self.coeffs))
        if not isinstance(other, Poly):
            return NotImplemented
        p = self._check_field(other)
        return _poly(p, _mul(self.coeffs, other.coeffs, p))

    __rmul__ = __mul__

    def _check_divisor(self, other: "Poly") -> int:
        p = self._check_field(other)
        if not other.coeffs:
            raise ZeroDivisionError("polynomial division by zero")
        return p

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        if not isinstance(other, Poly):
            return NotImplemented
        p = self._check_divisor(other)
        quot, rem = _divmod(self.coeffs, other.coeffs, p)
        return _poly(p, quot), _poly(p, rem)

    def __floordiv__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        """The remainder alone: no quotient `Poly`, no hop through `divmod`."""
        if not isinstance(other, Poly):
            return NotImplemented
        p = self._check_divisor(other)
        return _poly(p, _divmod(self.coeffs, other.coeffs, p)[1])

    def monic(self) -> "Poly":
        """Scale so the leading coefficient is 1 (zero stays zero)."""
        return _poly(self.p, _monic(self.coeffs, self.p))

    def shift(self, k: int) -> "Poly":
        """Multiply by x**k."""
        if self.is_zero:
            return self
        return _poly(self.p, (0,) * k + self.coeffs)

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.p == other.p and self.coeffs == other.coeffs

    def __hash__(self) -> int:  # kept once computed: caches keyed by moduli tuples rehash them
        try:
            return self._hash
        except AttributeError:
            object.__setattr__(self, "_hash", hash((self.p, self.coeffs)))
            return self._hash

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __reduce__(self):
        return (Poly, (self.p, self.coeffs))

    def __repr__(self) -> str:
        return f"Poly({self.p}, {list(self.coeffs)})"

    def __str__(self) -> str:
        terms = []
        for j in range(self.degree, -1, -1):
            c, xs = self.coeffs[j], "" if j == 0 else "x" if j == 1 else f"x^{j}"
            if c:
                terms.append(f"{c}{xs}" if c != 1 or not xs else xs)
        return " + ".join(terms) or "0"


def _poly(p: int, coeffs: tuple[int, ...], _set_p=Poly.p.__set__, _set_c=Poly.coeffs.__set__) -> Poly:
    """The trusted constructor: wraps a kernel result, already normalized."""
    f = object.__new__(Poly)
    _set_p(f, p)
    _set_c(f, coeffs)
    return f


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor."""
    p = a._check_field(b)
    a, b = a.coeffs, b.coeffs
    while b:
        a, b = b, _divmod(a, b, p)[1]
    return _poly(p, _monic(a, p))


def _resultant(a: tuple[int, ...], b: tuple[int, ...], p: int) -> int:
    """Res(a, b) for nonzero a, b by Euclid: Res(a, b) = (-1)^(deg a deg b) lc(b)^(deg a - deg r)
    Res(b, r) with r = a mod b, down to Res(a, c) = c^(deg a) for a constant c; 0 if r = 0."""
    res = 1
    while len(b) > 1:
        r = _divmod(a, b, p)[1]
        if not r:
            return 0
        res = (-1) ** ((len(a) - 1) * (len(b) - 1)) * res * pow(b[-1], len(a) - len(r), p) % p
        a, b = b, r
    return res * pow(b[0], len(a) - 1, p) % p


def poly_xgcd(a: Poly, b: Poly) -> tuple[Poly, Poly, Poly]:
    """Extended Euclid: returns (g, u, v) with u*a + v*b = g and g monic."""
    p = a._check_field(b)
    if a.is_zero and b.is_zero:
        raise ValueError("gcd(0, 0) is undefined")
    r0, r1, s0, s1, t0, t1 = a.coeffs, b.coeffs, (1,), (), (), (1,)
    while r1:
        q, r = _divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _sub(s0, _mul(q, s1, p), p)
        t0, t1 = t1, _sub(t0, _mul(q, t1, p), p)
    inv = pow(r0[-1], -1, p)
    return tuple(_poly(p, tuple([c * inv % p for c in f])) for f in (r0, s0, t0))


def inverse_mod(a: Poly, m: Poly) -> Poly:
    """Inverse of a modulo m (gcd(a mod m, m) = 1, deg m >= 1): Euclid keeping a's cofactor."""
    p = a._check_field(m)
    if m.degree < 1:
        raise ValueError("modulus must have degree at least 1")
    a = a % m
    r0, r1, s0, s1 = m.coeffs, a.coeffs, (), (1,)
    while r1:
        q, r = _divmod(r0, r1, p)
        r0, r1, s0, s1 = r1, r, s1, _sub(s0, _mul(q, s1, p), p)
    if len(r0) != 1:
        raise NotCoprimeError(f"{a!r} is not invertible modulo {m!r}")
    inv = pow(r0[0], -1, p)
    return _poly(p, tuple([c * inv % p for c in s0]))


def vectors(p: int, length: int) -> Iterator[tuple[int, ...]]:
    """Every vector of F_p**length in index order: the k-th is k's base-p digits, low first."""
    for digits in itertools.product(range(p), repeat=length):
        yield digits[::-1]


def is_pairwise_coprime(polys: Sequence[Poly]) -> bool:
    """True iff the gcd of every pair is a unit, in one pass: F_p[x] is a PID, so f is coprime to
    each polynomial before it exactly when it is coprime to their product. Zero is rejected."""
    if any(f.is_zero for f in polys):
        raise ValueError("zero polynomial has no coprimality relation")
    product = Poly.one(polys[0].p) if polys else None
    for f in polys:
        if poly_gcd(product, f).degree:
            return False
        product *= f
    return True


def _pack(coeffs: Iterable[int], w: int) -> int:
    """Coefficients packed into one int, w bits per slot (Kronecker substitution)."""
    return sum(map(lshift, coeffs, itertools.count(0, w)))


def _unpack(v: int, w: int, count: int, p: int) -> list[int]:
    """The `count` low w-bit slots of v, each reduced into [0, p)."""
    mask = (1 << w) - 1
    return [(v >> s & mask) % p for s in range(0, count * w, w)]


def _x_multiples(starts: list, m: Sequence[int], w: int, p: int, reduce: bool = False) -> list[int]:
    """col, x col, ..., x**(count - 1) col mod the monic m in deg m slots of w bits, per (col,
    count) in `starts`: each shifts the one before up a slot and folds the slot leaving the top,
    reduced, through x**deg m mod m, adding at most (p - 1)**2 to a slot; `reduce` reduces all."""
    d = len(m) - 1
    low, below, columns = _pack([-c % p for c in m[:-1]], w), (1 << d * w) - 1, []
    for col, count in starts:
        columns.append(col)
        for _ in range(1, count):
            col <<= w
            col = (col & below) + (col >> d * w) % p * low
            col = _pack(_unpack(col, w, d, p), w) if reduce else col
            columns.append(col)
    return columns


@functools.lru_cache(maxsize=64)
def _crt_basis(moduli: tuple[Poly, ...]) -> tuple[int, tuple[int, ...]]:
    """(w, columns): the map residues -> CRT solution, packed, for pairwise-coprime moduli.

    With M = prod m_i of degree D and lambda_i = (M / m_i)**-1 mod m_i, column (i, k), k < deg
    m_i, is lambda_i (M / m_i) x**k mod M, folded by `_x_multiples` from column (i, 0) through
    monic(M), in D reduced slots of w = bits(D (p - 1)**2) bits: room for the D products
    `crt_combine` sums. Cached, without M: over 2**61 - 1 an entry of 3, 7, 12 and 24 degree-4
    moduli takes 2.8, 13.8, 39.7 and 157 KB, so the 64 entries hold at most 10 MB."""
    p = moduli[0].p
    total = functools.reduce(lambda acc, m: _mul(acc, m.coeffs, p), moduli, (1,))
    w = ((len(total) - 1) * (p - 1) ** 2).bit_length()
    starts = []
    for m in moduli:
        partial = _divmod(total, m.coeffs, p)[0]
        try:
            lam = inverse_mod(_poly(p, partial), m)
        except NotCoprimeError:
            # M/m_i is invertible mod m_i exactly when the moduli are pairwise coprime
            raise NotPairwiseCoprimeError("moduli are not pairwise coprime") from None
        starts.append((_pack(_mul(lam.coeffs, partial, p), w), m.degree))
    return w, tuple(_x_multiples(starts, _monic(total, p), w, p, reduce=True))


def _check_system(residues: Sequence[Poly], moduli: Sequence[Poly]) -> int:
    """p of a well-formed system: the one contract of `crt_combine` and `oracle.crt_bruteforce`."""
    if len(residues) != len(moduli):
        raise ValueError("residue and modulus counts differ")
    if not moduli:
        raise ValueError("at least one congruence is required")
    if any(m.degree < 1 for m in moduli):
        raise ValueError("every modulus must have degree at least 1")
    for f in (*moduli, *residues):
        p = moduli[0]._check_field(f)
    return p


def crt_combine(residues: Sequence[Poly], moduli: Sequence[Poly]) -> Poly:
    """Solve y = residues[i] (mod moduli[i]) for pairwise-coprime moduli of degree >= 1 each.

    The unique solution of degree below sum(deg m_i) is sum y_ik col_ik over the columns of
    `_crt_basis`, y_ik coefficient k of residue i reduced mod m_i: one packed sum, % p per slot."""
    p = _check_system(residues, moduli)
    w, columns = _crt_basis(tuple(moduli))
    ys = []
    for r, m in zip(residues, moduli):
        c = r.coeffs if len(r.coeffs) < len(m.coeffs) else _divmod(r.coeffs, m.coeffs, p)[1]
        ys += c + (0,) * (m.degree - len(c))
    return _poly(p, _trim(_unpack(sum(map(mul, ys, columns)), w, len(columns), p)))


@functools.lru_cache(maxsize=64)
def _power_columns(moduli: tuple[Poly, ...], length: int) -> tuple[int, tuple[int, ...]]:
    """(w, columns): column j < length is x**j mod every m_i (deg >= 1), packed side by side,
    modulus i's slots from slot sum_{k<i} deg m_k. Built unreduced by `_x_multiples`, a slot holds
    at most d_max (p - 1)**2, so w = bits(length d_max (p - 1)**3) holds the `length` products
    `_residues` sums. Keys: a level's prefix of moduli per deal (`wide_session`: 3, the largest 24
    degree-4 moduli x 36 columns, 89 KB at 2**61 - 1, 64 such 5.7 MB); in `oracle`, through
    `_rows`, a level's pinned moduli, one modulus, or a whole congruence system."""
    p = moduli[0].p
    w = (length * max(m.degree for m in moduli) * (p - 1) ** 3).bit_length()
    runs = [(_x_multiples([(1, length)], _monic(m.coeffs, p), w, p), m.degree * w) for m in moduli]
    while len(runs) > 1:  # merging neighbours copies each column log2(k) times, not k / 2
        pairs = zip(runs[::2], runs[1::2])
        merged = [([x | y << wa for x, y in zip(a, b)], wa + wb) for (a, wa), (b, wb) in pairs]
        runs = merged + runs[2 * len(merged):]
    return w, tuple(runs[0][0])


def _residues(coeffs: Sequence[int], moduli: tuple[Poly, ...], length: int) -> list[tuple[int, ...]]:
    """f mod each m_i, padded to deg m_i, for f's at most `length` coefficients `coeffs`."""
    w, columns = _power_columns(moduli, length)
    v, total = sum(map(mul, coeffs, columns)), sum(m.degree for m in moduli)
    slots = iter(_unpack(v, w, total, moduli[0].p))
    return [tuple(itertools.islice(slots, m.degree)) for m in moduli]


def _rows(moduli: tuple[Poly, ...], count: int) -> list[tuple[int, ...]]:
    """Row k dotted with f's `count` coefficients gives slot k of `_residues(f, moduli, count)`:
    the rows of every m_i stacked in order, from the map of `_power_columns` unpacked."""
    w, columns = _power_columns(moduli, count)
    total = sum(m.degree for m in moduli)
    return list(zip(*(_unpack(c, w, total, moduli[0].p) for c in columns)))


def _mulmod_by(modulus: Poly) -> tuple[Callable[[Poly], int], Callable[..., int], Callable[[int], Poly]]:
    """(pack, mulmod, unpack): the product kernel modulo `modulus` (degree d >= 1).

    A residue packs into one int at w = 2 bits(p) + bits(d) + 1 bits per
    coefficient (Kronecker substitution). mulmod(x, y, c=0, shift=False) is
    (x * y + c) x**shift mod `modulus`, packed: one big-int multiply, shifted up
    a slot if asked, leaves at most d (p - 1)**2 in a slot; from the top down,
    each of the d high slots is reduced once and folded into the d slots below
    it by x**k = x**(k - d) (x**d mod m). A slot then holds at most
    (2d - 1)(p - 1)**2 + c, shifted or not: the slot of d products takes d - 1
    folds and the slot of d folds holds d - 1 products. 2**(bits(d) + 1) > 2d,
    so no slot reaches 2**w; the d low slots then take one % p each. pack(f)
    reduces f modulo `modulus` first."""
    p = modulus.p
    m = _monic(modulus.coeffs, p)
    d = len(m) - 1
    w = 2 * p.bit_length() + d.bit_length() + 1
    mask, slots = (1 << w) - 1, range(0, d * w, w)

    def pack(f: Poly) -> int:
        return _pack((f % modulus).coeffs, w)

    low = _pack([-c % p for c in m[:-1]], w)  # x**d mod m
    folds = [(k * w, low << (k - d) * w) for k in range(2 * d - 1, d - 1, -1)]

    def mulmod(x: int, y: int, c: int = 0, shift: bool = False) -> int:
        prod = (x * y + c) << w * shift
        for s, row in folds:
            prod += (prod >> s & mask) % p * row
        v = 0
        for s in reversed(slots):
            v = v << w | (prod >> s & mask) % p
        return v

    def unpack(v: int) -> Poly:
        return _poly(p, _trim(_unpack(v, w, d, p)))

    return pack, mulmod, unpack


def _compose_mod(g: Poly, h: Poly, modulus: Poly) -> Poly:
    """g(h) mod `modulus` (degree >= 1) by Horner's rule on the kernel."""
    pack, mulmod, unpack = _mulmod_by(modulus)
    hv, acc = pack(h), 0
    for c in reversed(g.coeffs):
        acc = mulmod(acc, hv, c)
    return unpack(acc)


def pow_mod(base: Poly, exponent: int, modulus: Poly) -> Poly:
    """base**exponent reduced modulo `modulus` by square-and-multiply; when base is x mod
    `modulus`, a 1 bit shifts the square up a slot instead of multiplying by x."""
    if exponent < 0:
        raise ValueError("negative exponents are not supported")
    if modulus.degree < 1:
        return base % modulus  # raises for a zero modulus; all else is 0 modulo a unit
    pack, mulmod, unpack = _mulmod_by(modulus)
    b, result = pack(base), 1
    by_x = unpack(b).coeffs == (0, 1)
    for bit in bin(exponent)[2:]:
        one = bit == "1"
        result = mulmod(result, result, 0, one and by_x)
        if one and not by_x:
            result = mulmod(result, b)
    return unpack(result)
