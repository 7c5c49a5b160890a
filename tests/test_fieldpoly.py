"""Unit and property tests for the F_p[x] arithmetic core."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import (
    gf_compose_mod,
    gf_div,
    gf_gcdex,
    gf_mul,
    gf_pow_mod,
    gf_rem,
)

from crtdhss.errors import (
    FieldMismatchError,
    NotCoprimeError,
    NotPairwiseCoprimeError,
)
from crtdhss.fieldpoly import (
    Poly,
    _add,
    _compose_mod,
    _crt_basis,
    _divmod,
    _mul,
    _power_columns,
    _residues,
    _rows,
    crt_combine,
    inverse_mod,
    is_pairwise_coprime,
    is_prime,
    poly_gcd,
    poly_xgcd,
    pow_mod,
    vectors,
)


def all_polys(p, max_degree, include_zero=True):
    """Every polynomial over F_p of degree <= max_degree."""
    for coeffs in itertools.product(range(p), repeat=max_degree + 1):
        f = Poly(p, coeffs)
        if include_zero or not f.is_zero:
            yield f


small_primes = st.sampled_from([2, 3, 5, 11, 101])


@st.composite
def poly_pairs(draw, count=2, max_degree=5):
    p = draw(small_primes)
    polys = tuple(
        Poly(p, draw(st.lists(st.integers(0, p - 1), max_size=max_degree + 1)))
        for _ in range(count)
    )
    return (p,) + polys


class TestPolyBasics:
    def test_normalization_strips_trailing_zeros(self):
        assert Poly(5, [1, 2, 0, 0]).coeffs == (1, 2)
        assert Poly(5, [0, 0, 0]).coeffs == ()

    def test_zero_degree_sentinel(self):
        assert Poly(7).degree == -1
        assert Poly(7, [3]).degree == 0

    def test_coefficients_reduced_mod_p(self):
        assert Poly(5, [7, -1]).coeffs == (2, 4)

    def test_immutable(self):
        f = Poly(5, [1, 2])
        with pytest.raises(AttributeError):
            f.coeffs = (3,)

    def test_mixed_fields_rejected(self):
        with pytest.raises(FieldMismatchError):
            Poly(5, [1]) + Poly(7, [1])

    def test_padded(self):
        assert Poly(5, [1]).padded(3) == (1, 0, 0)
        with pytest.raises(ValueError):
            Poly(5, [1, 1, 1]).padded(2)

    def test_str(self):
        assert str(Poly(5, [1, 3, 1])) == "x^2 + 3x + 1"
        assert str(Poly(5)) == "0"

    def test_only_zero_is_falsy(self):
        assert not Poly(13)
        assert Poly(13, [0, 1])

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: Poly(1, [1]), "field modulus must be at least 2"),
            (
                lambda: inverse_mod(Poly(13, [2]), Poly(13, [3])),
                "modulus must have degree at least 1",
            ),
        ],
        ids=["field below 2", "inverse modulo a constant"],
    )
    def test_refusals(self, call, message):
        with pytest.raises(ValueError) as caught:
            call()
        assert str(caught.value) == message

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda f: f + 1, "unsupported operand type(s) for +: 'Poly' and 'int'"),
            (lambda f: f - 1, "unsupported operand type(s) for -: 'Poly' and 'int'"),
            (lambda f: f * "a", "can't multiply sequence by non-int of type 'Poly'"),
            (lambda f: f % 1, "unsupported operand type(s) for %: 'Poly' and 'int'"),
            (lambda f: divmod(f, 1), "unsupported operand type(s) for divmod(): 'Poly' and 'int'"),
        ],
        ids=["add", "sub", "mul", "mod", "divmod"],
    )
    def test_non_poly_operand_refused(self, call, message):
        # each operator returns NotImplemented, so Python raises its own TypeError
        with pytest.raises(TypeError) as caught:
            call(Poly(13, [1]))
        assert str(caught.value) == message


class TestAddMul:
    def test_additive_identity(self):
        f = Poly(5, [2, 0, 1])
        assert Poly.zero(5) + f == f

    def test_coefficientwise_sum_mod_p(self):
        # over F_5: (x+4) + (x+1) = 2x
        assert Poly(5, [4, 1]) + Poly(5, [1, 1]) == Poly(5, [0, 2])

    def test_additive_inverse(self):
        f = Poly(5, [2, 3, 4])
        assert f + (f * (5 - 1)) == Poly.zero(5)

    def test_multiplicative_identity(self):
        f = Poly(5, [2, 0, 1])
        assert f * Poly.one(5) == f

    def test_schoolbook_product(self):
        # over F_5: (x+1)(x+2) = x^2 + 3x + 2
        assert Poly(5, [1, 1]) * Poly(5, [2, 1]) == Poly(5, [2, 3, 1])

    def test_annihilator(self):
        f = Poly(5, [2, 0, 1])
        assert f * Poly.zero(5) == Poly.zero(5)

    def test_degree_adds_for_nonzero_factors(self):
        f, g = Poly(5, [1, 2]), Poly(5, [4, 0, 3])
        assert (f * g).degree == f.degree + g.degree


class TestDivmod:
    def test_self_division(self):
        f = Poly(5, [2, 3, 1])
        assert divmod(f, f) == (Poly.one(5), Poly.zero(5))

    def test_inverse_of_product_example(self):
        # x^2+3x+2 divided by (x+1) gives (x+2, 0) over F_5
        q, r = divmod(Poly(5, [2, 3, 1]), Poly(5, [1, 1]))
        assert q == Poly(5, [2, 1])
        assert r == Poly.zero(5)

    def test_low_degree_numerator(self):
        a, b = Poly(5, [3]), Poly(5, [1, 1])
        assert divmod(a, b) == (Poly.zero(5), a)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            divmod(Poly(5, [1]), Poly.zero(5))

    def test_exhaustive_division_identity_small_fields(self):
        # a = q*b + r with deg r < deg b, for every pair with deg <= 3
        for p in (2, 3, 5):
            for a in all_polys(p, 3):
                for b in all_polys(p, 3, include_zero=False):
                    q, r = divmod(a, b)
                    assert q * b + r == a
                    assert r.degree < b.degree


class TestXgcdInverse:
    def test_unit_gcd(self):
        f = Poly(5, [2, 3, 1])
        assert poly_xgcd(f, Poly.one(5)) == (Poly.one(5), Poly.zero(5), Poly.one(5))

    def test_bezout_for_coprime_linears(self):
        a, b = Poly(5, [1, 1]), Poly(5, [2, 1])
        g, u, v = poly_xgcd(a, b)
        assert g == Poly.one(5)
        assert u * a + v * b == g

    def test_gcd_of_equal_inputs(self):
        f = Poly(5, [2, 3, 4])
        g, u, v = poly_xgcd(f, f)
        assert g == f.monic()
        assert u * f + v * f == g

    def test_both_zero_rejected(self):
        with pytest.raises(ValueError):
            poly_xgcd(Poly.zero(5), Poly.zero(5))

    def test_inverse_example(self):
        # (x+1) mod (x+2) is the constant 4 over F_5, and 4*4 = 1
        inv = inverse_mod(Poly(5, [1, 1]), Poly(5, [2, 1]))
        assert inv == Poly(5, [4])

    def test_self_inverse_of_unity(self):
        m = Poly(5, [2, 3, 1])
        assert inverse_mod(Poly.one(5), m) == Poly.one(5)

    def test_zero_residue_not_invertible(self):
        m = Poly(5, [2, 1])
        with pytest.raises(NotCoprimeError):
            inverse_mod(m, m)

    @given(poly_pairs(count=2, max_degree=4))
    def test_inverse_roundtrip(self, data):
        p, a, m = data
        if m.degree < 1:
            return
        try:
            inv = inverse_mod(a, m)
        except NotCoprimeError:
            assert poly_gcd(a % m if not (a % m).is_zero else m, m) != Poly.one(p)
            return
        assert inv.degree < m.degree
        assert (a * inv) % m == Poly.one(p)


class TestPairwiseCoprime:
    def test_distinct_linear_moduli(self):
        assert is_pairwise_coprime([Poly(5, [1, 1]), Poly(5, [2, 1])])

    def test_repeated_modulus(self):
        f = Poly(5, [1, 1])
        assert not is_pairwise_coprime([f, f])

    def test_singleton_is_vacuous(self):
        assert is_pairwise_coprime([Poly(5, [0, 0, 1])])

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            is_pairwise_coprime([Poly.zero(5)])

    @staticmethod
    def pairwise(polys):
        # the definition: every pair has a unit gcd
        return all(poly_gcd(f, g).degree == 0 for f, g in itertools.combinations(polys, 2))

    def test_every_small_list_over_f2(self):
        # all 2,801 lists of 0-4 nonzero polynomials of degree <= 2 over F_2, units included
        nonzero = [Poly(2, c) for c in itertools.product(range(2), repeat=3) if any(c)]
        for size in range(5):
            for polys in itertools.product(nonzero, repeat=size):
                assert is_pairwise_coprime(polys) == self.pairwise(polys)

    @pytest.mark.parametrize("p", [3, 5])
    def test_seeded_sample(self, p):
        # 1,500 lists of 0-6 nonzero polynomials of degree <= 3, units included
        rng, verdicts = random.Random(p), []
        for _ in range(1500):
            polys = []
            for _ in range(rng.randrange(7)):
                low = [rng.randrange(p) for _ in range(rng.randrange(4))]
                polys.append(Poly(p, low + [rng.randrange(1, p)]))
            verdicts.append(is_pairwise_coprime(polys))
            assert verdicts[-1] == self.pairwise(polys)
        assert True in verdicts and False in verdicts

    def test_factor_shared_only_by_non_neighbours(self):
        # x + 1 divides the first and the third; each neighbouring pair is coprime
        polys = [Poly(5, [1, 1]), Poly(5, [2, 1]), Poly(5, [1, 1]) * Poly(5, [3, 1])]
        assert all(poly_gcd(f, g).degree == 0 for f, g in zip(polys, polys[1:]))
        assert not self.pairwise(polys)
        assert not is_pairwise_coprime(polys)

    def test_empty_list_is_vacuous(self):
        assert is_pairwise_coprime([])


class TestCrtCombine:
    def test_single_modulus_degenerates_to_reduction(self):
        # One modulus takes the packed map like any other set: its columns are x**k, k < deg m.
        r, m = Poly(5, [1, 2, 3]), Poly(5, [2, 1])
        assert crt_combine([r], [m]) == r % m
        rng = random.Random(26)
        for p in (2, 13, 2**61 - 1, 2**64 - 59):
            for degree in range(1, 7):
                for lead in {1, rng.randrange(1, p)}:  # monic, and non-monic when p > 2
                    m = Poly(p, [rng.randrange(p) for _ in range(degree)] + [lead])
                    # zero, shorter than m, and longer than m (top coefficient nonzero)
                    for length in (0, rng.randrange(1, degree + 1), degree + rng.randrange(2, 10)):
                        top = [rng.randrange(1, p)] if length else []
                        r = Poly(p, [rng.randrange(p) for _ in range(length - 1)] + top)
                        assert len(r.coeffs) == length
                        got = crt_combine([r], [m])
                        assert got == r % m
                        assert _desc(got) == gf_rem(_desc(r), _desc(m), p, ZZ)
                        assert got.degree < degree

    def test_two_point_example(self):
        # y = 2 (mod x+1), y = 3 (mod x+2) over F_5 has solution 4x+1
        y = crt_combine(
            [Poly(5, [2]), Poly(5, [3])],
            [Poly(5, [1, 1]), Poly(5, [2, 1])],
        )
        assert y == Poly(5, [1, 4])

    def test_consistent_residues_return_common_solution(self):
        g = Poly(5, [3, 2, 0, 1])
        moduli = [Poly(5, [1, 1]), Poly(5, [2, 1]), Poly(5, [2, 0, 1])]
        residues = [g % m for m in moduli]
        assert crt_combine(residues, moduli) == g

    def test_non_coprime_rejected(self):
        f = Poly(5, [1, 1])
        with pytest.raises(NotPairwiseCoprimeError):
            crt_combine([Poly(5, [1]), Poly(5, [2])], [f, f])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            crt_combine([Poly(5, [1])], [Poly(5, [1, 1]), Poly(5, [2, 1])])

    def test_matches_exhaustive_search_small_fields(self):
        # For p in {2, 3}: every pairwise-coprime pair of monic moduli with
        # total degree <= 3, every residue tuple; the unique low-degree
        # solution found by full enumeration equals crt_combine's output.
        for p in (2, 3):
            monic = [f for f in all_polys(p, 2) if f.coeffs and f.coeffs[-1] == 1]
            for m1, m2 in itertools.combinations(monic, 2):
                if m1.degree < 1 or m2.degree < 1 or m1.degree + m2.degree > 3:
                    continue
                if poly_gcd(m1, m2) != Poly.one(p):
                    continue
                total_deg = m1.degree + m2.degree
                for r1 in all_polys(p, m1.degree - 1):
                    for r2 in all_polys(p, m2.degree - 1):
                        matches = [
                            y
                            for y in all_polys(p, total_deg - 1)
                            if y % m1 == r1 and y % m2 == r2
                        ]
                        assert len(matches) == 1
                        assert crt_combine([r1, r2], [m1, m2]) == matches[0]


class TestRingAxioms:
    @given(poly_pairs(count=3))
    @settings(max_examples=200)
    def test_add_mul_axioms(self, data):
        p, a, b, c = data
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @given(poly_pairs(count=2))
    def test_sub_is_add_inverse(self, data):
        _, a, b = data
        assert (a - b) + b == a


@st.composite
def pow_mod_cases(draw):
    """(base, exponent, modulus) over p in {2, 3, 13, 2**61 - 1}.

    Moduli have degree 1 to 5 and any nonzero leading coefficient; bases
    reach two degrees above the modulus.
    """
    p = draw(st.sampled_from([2, 3, 13, 2**61 - 1]))
    coeff = st.integers(0, p - 1)
    degree = draw(st.integers(1, 5))
    modulus = Poly(p, draw(st.lists(coeff, min_size=degree, max_size=degree))
                   + [draw(st.integers(1, p - 1))])
    base = Poly(p, draw(st.lists(coeff, max_size=degree + 3)))
    return base, draw(st.integers(0, 12)), modulus


class TestPowMod:
    def test_matches_repeated_multiplication(self):
        m = Poly(5, [1, 0, 1])
        f = Poly(5, [2, 3])
        acc = Poly.one(5) % m
        for e in range(8):
            assert pow_mod(f, e, m) == acc
            acc = acc * f % m

    @given(pow_mod_cases())
    @settings(max_examples=300)
    def test_equals_repeated_mul_and_mod(self, case):
        base, exponent, modulus = case
        expected = Poly.one(base.p) % modulus
        for _ in range(exponent):
            expected = expected * base % modulus
        assert pow_mod(base, exponent, modulus) == expected

    @pytest.mark.parametrize("exponent", [0, 1, 2, 7])
    def test_non_monic_modulus_and_high_degree_base(self, exponent):
        p = 13
        modulus = Poly(p, [3, 0, 5])  # 5x^2 + 3
        base = Poly(p, [1, 2, 3, 4, 5])
        expected = Poly.one(p) % modulus
        for _ in range(exponent):
            expected = expected * base % modulus
        assert pow_mod(base, exponent, modulus) == expected

    def test_degree_one_modulus_evaluates_at_root(self):
        p = 2**61 - 1
        root = 123456789
        base = Poly(p, [5, 0, 7])
        value = (5 + 7 * root * root) % p
        assert pow_mod(base, 3, Poly(p, [-root, 1])) == Poly(p, [pow(value, 3, p)])

    def test_mixed_fields_raise(self):
        with pytest.raises(FieldMismatchError):
            pow_mod(Poly(5, [1, 1]), 3, Poly(7, [1, 0, 1]))

    def test_constant_and_zero_modulus(self):
        assert pow_mod(Poly(5, [2, 1]), 3, Poly(5, [4])) == Poly.zero(5)
        with pytest.raises(ZeroDivisionError):
            pow_mod(Poly(5, [2, 1]), 3, Poly.zero(5))

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            pow_mod(Poly(5, [2, 1]), -1, Poly(5, [1, 0, 1]))


# -- cross-check against sympy's galoistools ------------------------------

CROSS_PRIMES = (2, 3, 13, 2**31 - 1, 2**61 - 1)


def _desc(f):
    """sympy's dense form: descending coefficients over ZZ."""
    return [ZZ(c) for c in reversed(f.coeffs)]


def _cross_check_pairs():
    """Seeded (a, b) pairs over each prime, b nonzero, degrees up to 40.

    Besides random divisors of degree 0 to 40, b runs over monic and
    non-monic linear polynomials and monomials c * x**k, a is sometimes
    zero, and a third of the pairs share a random common factor (which
    lifts both degrees by up to 6).
    """
    rng = random.Random(1009)
    pairs = []
    for p in CROSS_PRIMES:
        def rand(degree, lead=None):
            if degree < 0:
                return Poly(p)
            lead = rng.randrange(1, p) if lead is None else lead
            return Poly(p, [rng.randrange(p) for _ in range(degree)] + [lead])

        for k in range(60):
            a = rand(rng.randint(-1, 40) if k % 10 else -1)
            kind = k % 5
            if kind == 0:
                b = rand(1, lead=1 if k % 2 else None)
            elif kind == 1:
                b = Poly.x_power(p, rng.randint(0, 12)) * rng.randrange(1, p)
            else:
                b = rand(rng.randint(0, 40))
            if k % 3 == 0 and not a.is_zero:
                common = rand(rng.randint(1, 6))
                a, b = a * common, b * common
            pairs.append((a, b))
    return pairs


CROSS_PAIRS = _cross_check_pairs()


class TestSympyCrossCheck:
    @pytest.mark.parametrize("p", CROSS_PRIMES)
    def test_pairs_cover_every_shape(self, p):
        pairs = [(a, b) for a, b in CROSS_PAIRS if a.p == p]
        assert any(a.is_zero for a, _ in pairs)
        assert any(b.degree == 1 and b.coeffs[-1] == 1 for _, b in pairs)
        assert p == 2 or any(b.degree >= 1 and b.coeffs[-1] != 1 for _, b in pairs)
        assert any(b.degree >= 2 and b.coeffs[:-1] == (0,) * b.degree for _, b in pairs)
        assert max(a.degree for a, _ in pairs) >= 40

    def test_product(self):
        for a, b in CROSS_PAIRS:
            assert _desc(a * b) == gf_mul(_desc(a), _desc(b), a.p, ZZ)

    def test_division(self):
        for a, b in CROSS_PAIRS:
            q, r = gf_div(_desc(a), _desc(b), a.p, ZZ)
            quot, rem = divmod(a, b)
            assert (_desc(quot), _desc(rem)) == (q, r)
            assert _desc(a // b) == q
            assert _desc(a % b) == r

    def test_gcd_and_cofactors(self):
        for a, b in CROSS_PAIRS:
            s, t, h = gf_gcdex(_desc(a), _desc(b), a.p, ZZ)
            g, u, v = poly_xgcd(a, b)
            assert (_desc(g), _desc(u), _desc(v)) == (h, s, t)
            assert _desc(poly_gcd(a, b)) == h

    def test_inverse(self):
        inverted = 0
        for a, m in CROSS_PAIRS:
            if m.degree < 1:
                continue
            p = a.p
            reduced = gf_rem(_desc(a), _desc(m), p, ZZ)
            s, _, h = gf_gcdex(reduced, _desc(m), p, ZZ)
            if h == [1]:
                assert _desc(inverse_mod(a, m)) == gf_rem(s, _desc(m), p, ZZ)
                inverted += 1
            else:
                with pytest.raises(NotCoprimeError):
                    inverse_mod(a, m)
        assert inverted >= 100

    def test_pow_mod(self):
        rng = random.Random(7)
        for a, m in CROSS_PAIRS:
            if m.is_zero:
                continue
            exponent = rng.choice([0, 1, 2, rng.randrange(3, 100), rng.randrange(m.p**2)])
            # gf_pow_mod leaves x**0 = 1 unreduced modulo a constant m
            expected = gf_rem(gf_pow_mod(_desc(a), exponent, _desc(m), a.p, ZZ), _desc(m), a.p, ZZ)
            assert _desc(pow_mod(a, exponent, m)) == expected

    def test_compose_mod(self):
        rng = random.Random(11)
        for g, m in CROSS_PAIRS:
            if m.degree < 1:
                continue
            p = g.p
            # h reaches three degrees above m, so the kernel reduces it first
            h = Poly(p, [rng.randrange(p) for _ in range(rng.randint(0, m.degree + 3))])
            expected = gf_compose_mod(_desc(g), _desc(h), _desc(m), p, ZZ)
            assert _desc(_compose_mod(g, h, m)) == expected


# -- the packed product kernel at its widest slots ----------------------------

WIDEST_P = 2**64 - 59  # the largest prime that params.MAX_PRIME = 2**64 - 1 admits


class TestPackingWidth:
    """A slot of the packed kernel must hold (2d - 1)(p - 1)**2: d products and
    d - 1 folds of the high slots. These cases come close to that bound at the
    largest admitted p, at every modulus degree from 1 to 8. At d = 3, 5, 6
    and 7 a slot one bit narrower overflows on the near-full cases; at d = 1,
    2, 4 and 8 it would still hold, as 2d - 1 < 2**bits(d) there."""

    @pytest.mark.parametrize("d", range(1, 9))
    def test_every_coefficient_p_minus_1(self, d):
        p = WIDEST_P
        full = Poly(p, [p - 1] * (d + 1))
        below = Poly(p, [p - 1] * d)
        for f in (full, below):
            for exponent in (2, 3, p - 1, p):
                assert _desc(pow_mod(f, exponent, full)) == gf_pow_mod(
                    _desc(f), exponent, _desc(full), p, ZZ
                )
            expected = gf_compose_mod(_desc(f), _desc(below), _desc(full), p, ZZ)
            assert _desc(_compose_mod(f, below, full)) == expected

    @pytest.mark.parametrize("d", range(1, 9))
    def test_near_full_operands(self, d):
        # Coefficients p - 1 - e with e below 2**32 keep every product near
        # (p - 1)**2 while the high slots reduce to arbitrary residues. A
        # monic modulus with low coefficients below 2**32 has x**d mod m near
        # p - 1 everywhere, so the folds land near (p - 1)**2 as well.
        p = WIDEST_P
        rng = random.Random(d)
        for k in range(60):
            low = [rng.randrange(2**32) if k % 2 else rng.randrange(p) for _ in range(d)]
            m = Poly(p, low + [1 if k % 2 else rng.randrange(1, p)])
            a, h = (Poly(p, [p - 1 - rng.randrange(2**32) for _ in range(d)]) for _ in "ah")
            assert _desc(pow_mod(a, 2, m)) == gf_pow_mod(_desc(a), 2, _desc(m), p, ZZ)
            expected = gf_compose_mod(_desc(a), _desc(h), _desc(m), p, ZZ)
            assert _desc(_compose_mod(a, h, m)) == expected

    @pytest.mark.parametrize("d", range(1, 9))
    def test_frobenius_over_mersenne_61(self, d):
        p = 2**61 - 1
        rng = random.Random(100 + d)
        x = Poly.x_power(p, 1)
        for _ in range(5):
            f = Poly(p, [rng.randrange(p) for _ in range(d)] + [1])
            assert _desc(pow_mod(x, p, f)) == gf_pow_mod(_desc(x), p, _desc(f), p, ZZ)


# -- reduction as a cached linear map: f mod m_i from the columns x**j mod m_i --


def _assert_reduces(coeffs, moduli, length):
    """`_residues` agrees with `_divmod` and with sympy on f = coeffs modulo each m_i."""
    got = _residues(coeffs, tuple(moduli), length)
    assert len(got) == len(moduli)
    for r, m in zip(got, moduli):
        p = m.p
        rem = _divmod(tuple(coeffs), m.coeffs, p)[1]
        assert r == rem + (0,) * (m.degree - len(rem))
        assert _desc(Poly(p, r)) == gf_rem(_desc(Poly(p, coeffs)), _desc(m), p, ZZ)


class TestPowerColumns:
    """A slot of a column holds up to d_max (p - 1)**2, and applying the map
    adds `length` products of such a slot and a field element. Operands of all
    p - 1 come closest to that bound, so they catch a slot too narrow for it;
    lengths past deg m catch a missing fold. Sets of moduli of mixed degrees
    catch a part placed at the wrong offset or in the wrong order."""

    def test_cross_pairs(self):
        # CROSS_PAIRS holds non-monic moduli and p = 2; lengths run below, at
        # and above deg m, and past the operand's own length
        for a, m in CROSS_PAIRS:
            if m.degree < 1:
                continue
            n = len(a.coeffs)
            for length in {1, m.degree, m.degree + 1, max(1, n), n + 5}:
                _assert_reduces(a.coeffs[:length], [m], length)

    @pytest.mark.parametrize("p", CROSS_PRIMES)
    @pytest.mark.parametrize("size", [2, 3])
    def test_coprime_sets_of_cross_pairs(self, p, size):
        pairs = [(a, b) for a, b in CROSS_PAIRS if a.p == p]
        sets = _coprime_sets([b for _, b in pairs], size)
        assert sets
        for k, moduli in enumerate(sets):
            a = pairs[k % len(pairs)][0]
            total = sum(m.degree for m in moduli)
            for length in {1, max(1, len(a.coeffs)), total, total + 5}:
                _assert_reduces(a.coeffs[:length], moduli, length)
                _assert_reduces([p - 1] * length, moduli, length)

    @pytest.mark.parametrize("d", range(1, 9))
    def test_widest_field(self, d):
        # 1 to 7 moduli of mixed degrees 1..8, monic and not, one of degree d first
        p = WIDEST_P
        rng = random.Random(200 + d)
        for k in range(12):
            degrees = [d] + [rng.randint(1, 8) for _ in range(k % 7)]
            moduli = [
                Poly(p, [rng.randrange(p) for _ in range(e)] + [1 if k % 2 else rng.randrange(1, p)])
                for e in degrees
            ]
            assert is_pairwise_coprime(moduli)
            for length in (1, d, d + 1, 4 * d + 3, sum(degrees) + 2):
                full = [p - 1] * length
                near = [p - 1 - rng.randrange(2**32) for _ in range(length)]
                drawn = [rng.randrange(p) for _ in range(length)]
                for coeffs in (full, near, drawn, full[: length // 2]):
                    _assert_reduces(coeffs, moduli[:1], length)
                    _assert_reduces(coeffs, moduli, length)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_every_small_modulus_on_full_operands(self, p):
        moduli = [m for m in all_polys(p, 3 if p < 5 else 2) if m.degree >= 1]
        for m in moduli:
            for length in range(1, 13):
                _assert_reduces([p - 1] * length, [m], length)
        for chosen in zip(moduli, moduli[1:], moduli[2:]):
            for length in range(1, 13):
                _assert_reduces([p - 1] * length, chosen, length)

    def test_cache_is_bounded_and_shared(self):
        assert _power_columns.cache_info().maxsize == 64
        m, n = Poly(13, [2, 0, 1]), Poly(13, [3, 1])
        assert _power_columns((m,), 5) is _power_columns((m,), 5)
        assert _power_columns((m, n), 5) is _power_columns((m, n), 5)
        assert _power_columns((m, n), 5) is not _power_columns((n, m), 5)

    @staticmethod
    def stacked_rows(moduli, count):
        """Row k of x**j mod m_i over j < count, for each m_i in turn."""
        rows = []
        for m in moduli:
            columns = [(Poly.x_power(m.p, j) % m).padded(m.degree) for j in range(count)]
            rows += [tuple(column[k] for column in columns) for k in range(m.degree)]
        return rows

    def test_rows_of_one_modulus(self):
        for a, m in CROSS_PAIRS[::5]:
            if m.degree < 1:
                continue
            count = max(1, len(a.coeffs))
            assert _rows((m,), count) == self.stacked_rows([m], count)

    @pytest.mark.parametrize("p, degrees", [(2, [1, 3, 2]), (13, [2, 1, 4, 1]), (2**61 - 1, [4, 1, 3])])
    def test_rows_of_mixed_degree_moduli_are_stacked(self, p, degrees):
        rng = random.Random(p)
        moduli = tuple(
            Poly(p, [rng.randrange(p) for _ in range(d)] + [rng.randrange(1, p)]) for d in degrees
        )
        for count in (1, max(degrees), sum(degrees) + 2):
            rows = _rows(moduli, count)
            assert rows == self.stacked_rows(moduli, count)
            coeffs = [rng.randrange(p) for _ in range(count)]
            slots = [c for residue in _residues(coeffs, moduli, count) for c in residue]
            assert [sum(r * c for r, c in zip(row, coeffs)) % p for row in rows] == slots


# -- CRT as a cached linear map: residues -> f from the columns of _crt_basis --


def _crt_reference(residues, moduli):
    """sum(lambda_i M_i y_i) mod M on the kernels: M_i = M / m_i, lambda_i its inverse mod m_i."""
    p = moduli[0].p
    total = (1,)
    for m in moduli:
        total = _mul(total, m.coeffs, p)
    acc = ()
    for r, m in zip(residues, moduli):
        partial = _divmod(total, m.coeffs, p)[0]
        lam = inverse_mod(Poly(p, partial), m).coeffs
        acc = _add(acc, _mul(_mul(lam, partial, p), r.coeffs, p), p)
    return _divmod(acc, total, p)[1]


def _assert_combines(residues, moduli):
    """`crt_combine` equals the reference, meets every residue (by sympy) and fits below D."""
    p = moduli[0].p
    got = crt_combine(residues, moduli)
    assert got.coeffs == _crt_reference(residues, moduli)
    assert got.degree < sum(m.degree for m in moduli)
    for r, m in zip(residues, moduli):
        assert gf_rem(_desc(got), _desc(m), p, ZZ) == gf_rem(_desc(r), _desc(m), p, ZZ)


def _full(moduli):
    """Residues of all p - 1 coefficients, one per modulus: they come closest to the slot bound."""
    return [Poly(m.p, [m.p - 1] * m.degree) for m in moduli]


def _coprime_sets(moduli, size):
    """Greedy pairwise-coprime sets of `size` moduli of degree >= 1, in the given order."""
    sets, current = [], []
    for m in moduli:
        if m.degree >= 1 and all(poly_gcd(m, n).degree == 0 for n in current):
            current.append(m)
            if len(current) == size:
                sets.append(current)
                current = []
    return sets


class TestCrtColumns:
    """Every slot of a column is reduced, and `crt_combine` adds D products of
    such a slot and a field element, at most D (p - 1)**2. All-(p - 1)
    residues come closest to that bound and catch a slot one bit too narrow;
    moduli of degree >= 2 catch a fold skipped on a later column, and
    non-monic sets catch folding through M instead of monic(M)."""

    @pytest.mark.parametrize("p", CROSS_PRIMES)
    @pytest.mark.parametrize("size", [2, 3])
    def test_cross_pairs(self, p, size):
        # CROSS_PAIRS holds non-monic moduli, monomials and p = 2; its a's are
        # mostly longer than the moduli they meet here
        pairs = [(a, b) for a, b in CROSS_PAIRS if a.p == p]
        sets = _coprime_sets([b for _, b in pairs], size)
        assert sets
        dividends = [a for a, _ in pairs]
        for k, moduli in enumerate(sets):
            longer = [dividends[(k + j) % len(dividends)] for j in range(size)]
            for residues in (_full(moduli), longer, [r % m for r, m in zip(longer, moduli)]):
                _assert_combines(residues, moduli)

    @pytest.mark.parametrize("d", range(1, 9))
    def test_widest_field(self, d):
        p = WIDEST_P
        rng = random.Random(300 + d)
        for k in range(8):
            degrees = [d] + [rng.randint(1, d) for _ in range(1 + k % 3)]
            moduli = [
                Poly(p, [rng.randrange(p) for _ in range(e)] + [1 if k % 2 else rng.randrange(1, p)])
                for e in degrees
            ]
            assert is_pairwise_coprime(moduli)
            near = [Poly(p, [p - 1 - rng.randrange(2**32) for _ in range(e)]) for e in degrees]
            drawn = [Poly(p, [rng.randrange(p) for _ in range(e)]) for e in degrees]
            longer = [Poly(p, [rng.randrange(p) for _ in range(e + 3)]) for e in degrees]
            for residues in (_full(moduli), near, drawn, longer):
                _assert_combines(residues, moduli)

    @pytest.mark.parametrize("p", [2, 3, 5, 13])
    def test_small_fields_on_full_residues(self, p):
        # every pairwise-coprime pair and triple of monic moduli of degree <= 2
        # (<= 1 at p = 13), and the same scaled by p - 1, non-monic for p > 2
        degree = 2 if p < 13 else 1
        moduli = [m for m in all_polys(p, degree) if m.degree >= 1 and m.coeffs[-1] == 1]
        for size in (2, 3):
            for chosen in itertools.combinations(moduli, size):
                if not is_pairwise_coprime(list(chosen)):
                    continue
                for scaled in {chosen, tuple(m * (p - 1) for m in chosen)}:
                    _assert_combines(_full(scaled), list(scaled))

    def test_residues_longer_than_their_moduli(self):
        rng = random.Random(17)
        for p in (2, 13):
            moduli = [Poly(p, [1, 1]), Poly(p, [1, 1, 1]), Poly(p, [1, 0, 1, 1])]
            assert is_pairwise_coprime(moduli)
            for length in range(1, 12):
                residues = [Poly(p, [rng.randrange(p) for _ in range(length)]) for _ in moduli]
                _assert_combines(residues, moduli)
                _assert_combines([Poly(p, [p - 1] * length) for _ in moduli], moduli)


class TestCrtBasisCache:
    """`_crt_basis` is the only CRT cache: perfbench clears it before each set-up
    and reads its hits and misses."""

    moduli = (Poly(13, [1, 1]), Poly(13, [2, 0, 1]), Poly(13, [3, 1]))
    residues = [Poly(13, [5]), Poly(13, [7, 11]), Poly(13, [12])]

    def test_bound_and_shared_entry(self):
        assert _crt_basis.cache_info().maxsize == 64
        assert _crt_basis(self.moduli) is _crt_basis(self.moduli)

    def test_non_coprime_set_raises_every_time_and_is_never_cached(self):
        shared = Poly(13, [1, 1])
        moduli = [shared, shared * Poly(13, [3, 1])]
        before = _crt_basis.cache_info()
        for _ in range(3):
            with pytest.raises(NotPairwiseCoprimeError):
                crt_combine(self.residues[:2], moduli)
        after = _crt_basis.cache_info()
        assert after.misses - before.misses == 3
        assert (after.hits, after.currsize) == (before.hits, before.currsize)

    def test_clearing_makes_the_next_call_cold(self):
        expected = crt_combine(self.residues, list(self.moduli))
        old = _crt_basis(self.moduli)
        _crt_basis.cache_clear()
        assert crt_combine(self.residues, list(self.moduli)) == expected
        info = _crt_basis.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 1, 1)
        assert _crt_basis(self.moduli) is not old


# -- the trusted constructor: every result is normalized --------------------


def _assert_normalized(f):
    assert type(f) is Poly and type(f.coeffs) is tuple
    assert all(type(c) is int and 0 <= c < f.p for c in f.coeffs)
    assert not f.coeffs or f.coeffs[-1] != 0
    assert f == Poly(f.p, f.coeffs)


@st.composite
def normalized_cases(draw):
    """(a, b, k, residues, moduli) over p in {2, 3, 13, 2**61 - 1}.

    b shares a's leading coefficients often enough that sums and
    differences cancel at the top. The moduli for `crt_combine` are x**j
    and distinct non-monic linears c * (x - r) with r nonzero.
    """
    p = draw(st.sampled_from([2, 3, 13, 2**61 - 1]))
    coeff = st.integers(0, p - 1)
    a = Poly(p, draw(st.lists(coeff, max_size=12)))
    b = Poly(p, draw(st.lists(coeff, max_size=12)))
    if draw(st.booleans()):
        b = Poly(p, b.coeffs[:2] + a.coeffs[2:])
    roots = draw(st.lists(st.integers(1, p - 1), unique=True, max_size=3))
    moduli = [Poly.x_power(p, draw(st.integers(1, 3)))]
    moduli += [Poly(p, [-r, 1]) * draw(st.integers(1, p - 1)) for r in roots]
    residues = [Poly(p, draw(st.lists(coeff, max_size=5))) for _ in moduli]
    return a, b, draw(st.integers(0, 30)), residues, moduli


class TestTrustedResults:
    @given(normalized_cases())
    @settings(max_examples=400)
    def test_every_public_result_is_normalized(self, case):
        a, b, k, residues, moduli = case
        results = [a + b, a - b, b - a, a + (-b), a * b, -a, a.monic(), a.shift(k % 4)]
        results.append(crt_combine(residues, moduli))
        if not b.is_zero:
            results += [*divmod(a, b), a // b, a % b, pow_mod(a, k, b)]
        if not (a.is_zero and b.is_zero):
            results += [poly_gcd(a, b), *poly_xgcd(a, b)]
        if b.degree >= 1:
            try:
                results.append(inverse_mod(a, b))
            except NotCoprimeError:
                pass
        for f in results:
            assert f.p == a.p
            _assert_normalized(f)

    def test_cancellation_leaves_no_trailing_zero(self):
        a = Poly(13, [1, 2, 3])
        assert (a - a).coeffs == () and (a + (-a)).coeffs == ()
        assert (a - Poly(13, [5, 2, 3])).coeffs == (9,)
        assert (Poly(2, [1, 1]) + Poly(2, [0, 1])).coeffs == (1,)


class TestFieldMismatch:
    a5, m5, n5 = Poly(5, [1, 2]), Poly(5, [1, 0, 1]), Poly(5, [1, 1])
    a7, m7 = Poly(7, [3, 1]), Poly(7, [1, 0, 1])

    @pytest.mark.parametrize(
        "call",
        [
            lambda s: s.a5 + s.a7,
            lambda s: s.a5 - s.a7,
            lambda s: s.a5 * s.a7,
            lambda s: divmod(s.a5, s.a7),
            lambda s: s.a5 // s.a7,
            lambda s: s.a5 % s.a7,
            lambda s: poly_gcd(s.a5, s.a7),
            lambda s: poly_xgcd(s.a5, s.a7),
            lambda s: inverse_mod(s.a5, s.m7),
            lambda s: pow_mod(s.a5, 3, s.m7),
            lambda s: is_pairwise_coprime([s.m5, s.m7]),
            lambda s: crt_combine([s.a5, s.a7], [s.m5, s.n5]),
            lambda s: crt_combine([s.a5, s.a5], [s.m5, s.m7]),
            lambda s: crt_combine([s.a7], [s.m5]),
        ],
    )
    def test_every_public_entry_refuses_mixed_fields(self, call):
        with pytest.raises(FieldMismatchError):
            call(self)


class TestIsPrime:
    def test_small_values(self):
        for n in [2, 3, 5, 7, 11, 101, 2147483647]:
            assert is_prime(n)
        for n in [0, 1, 4, 9, 15, 21, 1001, 2147483649]:
            assert not is_prime(n)

    def test_mersenne_and_carmichael(self):
        assert is_prime(2**61 - 1)
        assert not is_prime(561)
        assert not is_prime(341550071728321)


class TestVectors:
    @pytest.mark.parametrize("p, n", [(2, 0), (7, 0), (5, 1), (3, 2), (2, 4), (11, 2)])
    def test_kth_vector_is_base_p_digits_of_k(self, p, n):
        expected = [tuple(k // p**j % p for j in range(n)) for k in range(p**n)]
        assert list(vectors(p, n)) == expected
