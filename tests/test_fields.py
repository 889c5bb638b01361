import itertools
import os
import random
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

from conftest import LADDER_WITNESSES
from qbic import CostGuardError, fields, forms, moduli
from qbic.fields import (TABLE_CAP, _PolyRing, _poly_add, _poly_divmod,
                         _poly_gcd, _poly_mul, _poly_rem, _poly_trim, embed,
                         evaluate_at_zero, extension_field, field_make,
                         frobenius, parse_field_spec, qth_root)
from qbic.forms import QBicForm, type_report


# ---------------------------------------------------------------------------
# reference: polynomials over GF(p) as coefficient lists, low to high


def _pp_trim(a):
    n = len(a)
    while n and a[n - 1] == 0:
        n -= 1
    return a[:n]


def _pp_add(a, b, p):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = (out[i] + c) % p
    return _pp_trim(out)


def _pp_mul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _pp_trim(out)


def _pp_mod(a, m, p):
    a = list(a)
    dm = len(m) - 1
    inv_lead = pow(m[-1], p - 2, p)
    while len(_pp_trim(a)) - 1 >= dm:
        a = _pp_trim(a)
        d = len(a) - 1
        c = (a[-1] * inv_lead) % p
        for i, mi in enumerate(m):
            a[d - dm + i] = (a[d - dm + i] - c * mi) % p
        a = a[:-1]
    return _pp_trim(a)


def _pp_powmod(a, n, m, p):
    r = [1]
    a = _pp_mod(a, m, p)
    while n:
        if n & 1:
            r = _pp_mod(_pp_mul(r, a, p), m, p)
        a = _pp_mod(_pp_mul(a, a, p), m, p)
        n >>= 1
    return r


def _pp_gcd(a, b, p):
    a, b = _pp_trim(list(a)), _pp_trim(list(b))
    while b:
        a, b = b, _pp_mod(a, b, p)
    # normalize monic
    if a:
        inv = pow(a[-1], p - 2, p)
        a = [(c * inv) % p for c in a]
    return a


def gauss_count(p, d):
    """The number of monic irreducible polynomials of degree d over GF(p)."""
    def mobius(n):
        out = 1
        for ell in _prime_factors(n):
            if n % (ell * ell) == 0:
                return 0
            out = -out
        return out
    return sum(mobius(e) * p ** (d // e)
               for e in range(1, d + 1) if d % e == 0) // d


def _prime_factors(n):
    return [d for d in range(2, n + 1)
            if n % d == 0 and all(d % e for e in range(2, d))]


def _pp_is_irreducible(f, p):
    """Rabin test for a polynomial over GF(p).  Unlike the packed test it
    compares z^(p^d) mod f with the unreduced z, so it calls every
    polynomial of degree 1 reducible; field_make never asks about one."""
    f = _pp_trim(list(f))
    d = len(f) - 1
    if d < 1:
        return False
    x = [0, 1]
    xq = _pp_powmod(x, p ** d, f, p)
    if _pp_trim(_pp_add(xq, [(p - c) % p for c in x], p)):
        return False
    for ell in _prime_factors(d):
        xe = _pp_powmod(x, p ** (d // ell), f, p)
        g = _pp_gcd(_pp_add(xe, [(p - c) % p for c in x], p), f, p)
        if len(g) != 1:
            return False
    return True


GF4 = field_make(2, 1, 2)
GF9 = field_make(3, 1, 2)
GF16 = field_make(2, 2, 4)
GF25 = field_make(5, 1, 2)
GF81 = field_make(3, 2, 4)
GF256 = field_make(2, 4, 8)
GF1024 = field_make(2, 5, 10)
GF625 = field_make(5, 1, 4)
GF2_16 = field_make(2, 1, 16)
GF64 = field_make(2, 1, 6)
GF729 = field_make(3, 1, 6)
GF4096 = field_make(2, 1, 12)
GF3_10 = field_make(3, 1, 10)
GF251_2 = field_make(251, 1, 2)
# above TABLE_CAP: polynomial arithmetic
GF2_18 = field_make(2, 1, 18)
GF257_2 = field_make(257, 1, 2)
RF4 = field_make(2, 1, 2, kind="rational-function")

FIELDS = [GF4, GF9, GF16, GF25, GF81, GF256, GF1024, GF625, GF2_18, GF257_2]
TABLED = [GF4, GF9, GF16, GF25, GF81, GF256, GF1024, GF625, GF2_16, GF64,
          GF729, GF4096, GF3_10, GF251_2]


def elements_of(field):
    return st.integers(0, field.order - 1).map(field._make)


@st.composite
def field_and_elements(draw, count):
    field = draw(st.sampled_from(FIELDS))
    return field, [draw(elements_of(field)) for _ in range(count)]


def rf_elements(draw):
    num = draw(st.lists(st.integers(0, 3), min_size=1, max_size=4))
    den = draw(st.lists(st.integers(0, 3), min_size=1, max_size=4)
               .filter(lambda c: any(c)))
    npoly = sum(RF4._make(RF4._const(c)) * RF4.t_gen() ** i
                for i, c in enumerate(num))
    dpoly = sum(RF4._make(RF4._const(c)) * RF4.t_gen() ** i
                for i, c in enumerate(den))
    return npoly / dpoly


rf_element = st.composite(rf_elements)()


class TestFieldAxioms:
    @given(field_and_elements(3))
    def test_ring_axioms(self, data):
        field, (a, b, c) = data
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a + field.zero() == a
        assert a * field.one() == a
        assert a - a == field.zero()

    @given(field_and_elements(1))
    def test_inverses(self, data):
        field, (a,) = data
        if not a.is_zero():
            assert a * a.inverse() == field.one()
            assert (field.one() / a) * a == field.one()

    @given(field_and_elements(2))
    def test_frobenius_is_a_field_map(self, data):
        field, (a, b) = data
        assert frobenius(a + b, 1) == frobenius(a, 1) + frobenius(b, 1)
        assert frobenius(a * b, 1) == frobenius(a, 1) * frobenius(b, 1)
        assert frobenius(a, 1) == a ** field.q
        assert frobenius(a, 0) is a

    @given(field_and_elements(1))
    def test_qth_root_inverts_frobenius(self, data):
        field, (a,) = data
        assert qth_root(frobenius(a, 1)) == a
        assert frobenius(qth_root(a), 1) == a


class TestTableArithmetic:
    """The table ops of fields up to TABLE_CAP against the polynomial
    arithmetic over GF(p), on int encodings."""

    @staticmethod
    def ref_mul(F, a, b):
        return F._encode(_pp_mod(_pp_mul(F._decode(a), F._decode(b), F.p),
                                 list(F.modulus), F.p))

    @staticmethod
    def ref_add(F, a, b):
        return F._encode(_pp_add(F._decode(a), F._decode(b), F.p))

    def check_pair(self, F, a, b):
        p = F.p
        assert F._fmul(a, b) == self.ref_mul(F, a, b)
        assert F._fadd(a, b) == self.ref_add(F, a, b)
        assert F._fneg(a) == F._encode([(p - c) % p for c in F._decode(a)])
        if a:
            assert self.ref_mul(F, a, F._finv(a)) == 1
        else:
            with pytest.raises(ZeroDivisionError):
                F._finv(a)
        n = b % 7 + (b % 3) * F.order  # some exponents above order - 1
        r = 1
        for _ in range(n % (F.order - 1) if a else min(n, 1)):
            r = self.ref_mul(F, r, a)
        assert F._fpow(a, n) == r

    @pytest.mark.parametrize("F", [GF9, GF16, GF25, GF81,
                                   field_make(3, 1, 2, (2, 0, 2)), GF64],
                             ids=str)
    def test_every_pair(self, F):  # (2, 0, 2) is not monic
        for a, b in itertools.product(range(F.order), repeat=2):
            self.check_pair(F, a, b)

    # the last two are above TABLE_CAP: the packed polynomial arithmetic
    @pytest.mark.parametrize("F", [GF256, GF1024, GF2_16, GF4096, GF729,
                                   GF3_10, GF251_2, GF2_18, GF257_2],
                             ids=str)
    def test_seeded_sample(self, F):
        rng = random.Random(f"tables/{F.order}")
        for _ in range(1500):
            self.check_pair(F, rng.randrange(F.order), rng.randrange(F.order))
        for a in (0, 1, F.order - 1):
            self.check_pair(F, a, rng.randrange(F.order))

    def test_tables_stop_at_the_cap(self):
        assert GF2_16.order == TABLE_CAP and hasattr(GF2_16, "_exp")
        assert not hasattr(GF2_18, "_exp")

    @pytest.mark.parametrize("F", TABLED, ids=str)
    def test_generator_reaches_every_unit(self, F):
        # g = exp[1] is the first primitive element in encoding order, and
        # the walk is g^i: a permutation of the order-1 nonzero elements
        n1 = F.order - 1
        exp, g = F._exp, F._exp[1]
        assert sorted(exp[:n1]) == list(range(1, F.order))
        assert exp[n1:] == exp[:n1] and exp[0] == 1
        mod = list(F.modulus)
        cofactors = [n1 // ell for ell in _prime_factors(n1)]
        for v in range(F.p, g):
            assert any(_pp_powmod(F._decode(v), c, mod, F.p) == [1]
                       for c in cofactors)
        step = max(1, n1 // 500)
        for i in range(0, n1, step):
            assert exp[i + 1] == self.ref_mul(F, exp[i], g)


class TestPolynomialCore:
    """The packed GF(p)[z] core against the coefficient-list reference."""

    @pytest.mark.parametrize("p,top", [(2, 10), (3, 5)])
    def test_irreducibility_census(self, p, top):
        # every monic polynomial of degree 1..top: the number found per
        # degree is Gauss's count (1/d) sum_{e | d} mu(e) p^(d/e), and from
        # degree 2 on each verdict is the list reference's
        for d in range(1, top + 1):
            found = 0
            for rest in itertools.product(range(p), repeat=d):
                f = [*rest, 1]
                got = _PolyRing(p, f).irreducible()
                if d >= 2:
                    assert got == _pp_is_irreducible(f, p), f
                found += got
            assert found == gauss_count(p, d)

    @pytest.mark.parametrize("p,top", [(5, 4), (7, 3), (251, 1)])
    def test_counts_over_larger_primes(self, p, top):
        for d in range(1, top + 1):
            found = sum(_PolyRing(p, [*rest, 1]).irreducible()
                        for rest in itertools.product(range(p), repeat=d))
            assert found == gauss_count(p, d)

    def test_leading_coefficient_is_a_unit(self):
        for f in itertools.product(range(5), repeat=3):
            f = [*f, 3]
            assert _PolyRing(5, f).irreducible() == _pp_is_irreducible(f, 5)

    @settings(max_examples=60)
    @given(st.sampled_from([2, 3, 5, 7, 251, 257]), st.data())
    def test_mul_and_divmod(self, p, data):
        coeffs = st.lists(st.integers(0, p - 1), max_size=12)
        f = data.draw(coeffs) + [data.draw(st.integers(1, p - 1))]
        R = _PolyRing(p, f)
        a, b = _pp_trim(data.draw(coeffs)), _pp_trim(data.draw(coeffs))
        pack = lambda c: sum(x << (R.w * j) for j, x in enumerate(c))
        unpack = lambda x: _pp_trim([x >> (R.w * j) & (1 << R.w) - 1
                                     for j in range(2 * len(f) + 2)])
        ra, rb = _pp_mod(a, f, p), _pp_mod(b, f, p)
        assert unpack(R.mul(pack(ra), pack(rb))) == \
            _pp_mod(_pp_mul(ra, rb, p), f, p)
        if len(a) <= 2 * len(f) and rb:
            q, r = R.divmod(pack(a), pack(rb))
            assert unpack(r) == _pp_mod(a, rb, p)
            assert _pp_add(_pp_mul(unpack(q), rb, p), unpack(r), p) == a


class TestIdentity:
    def test_field_make_interns(self):
        assert field_make(2, 2, 4) is field_make(2, 2, 4)
        assert field_make(2, 1, 8, (1, 0, 0, 0, 1, 1, 0, 1, 1)) \
            is field_make(2, 1, 8)
        assert field_make(5, 1, 2, (6, 11, 1)) is GF25  # reduced mod p
        assert parse_field_spec(GF256.spec_string()) is GF256
        assert RF4.finite_part is GF4
        assert field_make(2, 1, 2) is not field_make(2, 1, 2, (1, 1, 1),
                                                      "rational-function")

    def test_reducible_modulus_refused_every_call(self):
        for _ in range(3):
            with pytest.raises(ValueError, match="reducible"):
                field_make(2, 1, 2, (1, 0, 1))
            with pytest.raises(ValueError, match="degree"):
                field_make(2, 1, 2, (1, 1, 1, 0))

    def test_default_moduli_pinned(self):
        # the moduli every earlier version chose; the search must not drift
        pinned = {
            (2, 6): (1, 0, 0, 0, 0, 1, 1),
            (2, 8): (1, 0, 0, 0, 1, 1, 0, 1, 1),
            (2, 10): (1, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1),
            (2, 12): (1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1),
            (3, 4): (1, 0, 1, 1, 1),
            (3, 6): (1, 0, 0, 0, 1, 1, 1),
            (5, 4): (1, 0, 1, 1, 1),
            (2, 16): (1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1, 0, 1, 1),
        }
        for (p, k), mod in pinned.items():
            assert field_make(p, 1, k).modulus == mod

    def test_equal_elements_hash_equal(self):
        for F in (GF9, GF256, GF2_18, RF4):
            x = F.parse("z+1")
            y = F.gen() + F.one()
            assert x == y and hash(x) == hash(y)
        assert len({GF16.parse("z^4"), GF16.parse("z+1")}) == 1

    def test_no_equality_with_ints(self):
        assert GF4.one() != 1
        assert GF4.zero() != 0
        assert GF4.one() + 1 == GF4.zero()  # int arithmetic still coerces
        assert 2 * GF9.gen() == GF9.gen() + GF9.gen()

    def test_field_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            GF4.one() + GF16.one()
        assert GF4.one() != GF16.one()

    def test_int_on_the_left(self):
        x = GF9.gen()
        assert 3 - x == -x and 2 - x == GF9.from_int(2) - x
        assert 1 / x == x.inverse() and 2 / x == GF9.from_int(2) / x
        with pytest.raises(TypeError):
            x + "a"
        with pytest.raises(TypeError):
            x - "a"
        with pytest.raises(TypeError):
            x * "a"
        with pytest.raises(TypeError):
            x / "a"


class TestRationalFunctionField:
    @settings(max_examples=40)
    @given(rf_element, rf_element)
    def test_arithmetic(self, a, b):
        assert (a + b) - b == a
        if not b.is_zero():
            assert (a / b) * b == a
        assert a * b == b * a

    @settings(max_examples=40)
    @given(rf_element)
    def test_str_parse_round_trip(self, a):
        assert RF4.parse(str(a)) == a

    def test_printing_canonical(self):
        t = RF4.t_gen()
        z = RF4.gen()
        assert str(t ** 2 + RF4.one()) == "t^2+1"
        assert str((z * t) / (t + RF4.one())) == "z*t/(t+1)"
        assert str(RF4.zero()) == "0"

    def test_qth_root_partial(self):
        t = RF4.t_gen()
        assert qth_root(t) is None
        assert qth_root(t * t) == t
        z = RF4.gen()
        assert qth_root(z * z * t * t) == z * t

    def test_evaluate_at_zero(self):
        t = RF4.t_gen()
        z = RF4.gen()
        x = (z * t + RF4.one()) / (t + RF4.one())
        assert evaluate_at_zero(x) == GF4.one()
        with pytest.raises(ZeroDivisionError):
            evaluate_at_zero(RF4.one() / t)
        # a finite field is its own finite part
        assert evaluate_at_zero(GF4.gen()) == GF4.gen()


class TestRationalFunctionZero:
    """GF(q)(t)'s zero scalar is (), the only false one, through every
    operation that can make or take it."""

    def test_zero_through_every_operation(self):
        t = RF4.t_gen()
        x = (RF4.gen() * t + 1) / (t + 1)
        zero = RF4.zero()
        assert zero.val == () and (x - x).val == ()
        assert not zero and zero.is_zero() and x
        assert (-zero).val == () and (zero + x) == x and (x + zero) == x
        assert (zero * x).val == () and (x * zero).val == ()
        assert zero ** 0 == RF4.one() and (zero ** 3).val == ()
        with pytest.raises(ZeroDivisionError):
            zero.inverse()
        with pytest.raises(ZeroDivisionError):
            x / zero
        assert frobenius(zero, 1).val == () and qth_root(zero).val == ()
        assert evaluate_at_zero(zero) == GF4.zero()
        assert str(zero) == "0"
        assert RF4.parse("0").val == () and RF4.parse("t-t").val == ()
        assert RF4._make(RF4._const(0)).val == ()

    def test_no_old_zero_literal_in_src(self):
        src = os.path.dirname(os.path.abspath(fields.__file__))
        for name in sorted(os.listdir(src)):
            if name.endswith(".py"):
                with open(os.path.join(src, name)) as fh:
                    assert "((), (1,))" not in fh.read(), name


# ---------------------------------------------------------------------------
# reference: schoolbook polynomials over a field's raw scalars, one _fadd
# and _fmul per coefficient pair, and Euclid on full divisions


def _ref_poly_mul(F, a, b):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] = F._fadd(out[i + j], F._fmul(ai, bj))
    return _poly_trim(out)


def _ref_poly_divmod(F, a, b):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(a)
    q = [0] * max(0, len(a) - len(b) + 1)
    inv_lead = F._finv(b[-1])
    while len(a) >= len(b):
        while a and a[-1] == 0:
            a.pop()
        if len(a) < len(b):
            break
        c = F._fmul(a[-1], inv_lead)
        sh = len(a) - len(b)
        q[sh] = c
        for i, bi in enumerate(b):
            a[sh + i] = F._fadd(a[sh + i], F._fneg(F._fmul(c, bi)))
        a.pop()
    return _poly_trim(q), _poly_trim(a)


def _ref_poly_gcd(F, a, b):
    a, b = _poly_trim(a), _poly_trim(b)
    while b:
        a, b = b, _ref_poly_divmod(F, a, b)[1]
    if a:
        inv = F._finv(a[-1])
        a = tuple(F._fmul(c, inv) for c in a)
    return a


def scalars_of(F):
    if F is RF4:
        return rf_element.map(lambda x: x.val)
    return st.integers(0, F.order - 1)


# the table kernels for p = 2 and odd p, then the add/mul loop above
# TABLE_CAP: the coefficient fields of GF(q)(t)
COEFFICIENT_FIELDS = [GF4, GF9, GF25, GF2_18, GF257_2]


class TestPolynomialKernels:
    """_axpy on every scalar core, and the polynomial loops built on it over
    every finite one."""

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_axpy_is_the_add_mul_loop(self, data):
        F = data.draw(st.sampled_from(COEFFICIENT_FIELDS
                                      + [GF256, GF81, RF4]))
        x = scalars_of(F)
        k = data.draw(st.integers(0, 3))
        v = data.draw(st.lists(x, max_size=5))
        acc = data.draw(st.lists(x, min_size=k + len(v),
                                 max_size=k + len(v) + 3))
        c = data.draw(x)
        want = list(acc)
        for j, y in enumerate(v, k):
            want[j] = F._fadd(want[j], F._fmul(c, y))
        got = list(acc)
        F._axpy(got, k, c, v)
        assert got == want
        end = k + len(v)
        assert got[:k] == acc[:k] and got[end:] == acc[end:]

    @pytest.mark.parametrize("F", [GF9, GF25], ids=["gf9", "gf25"])
    def test_odd_p_axpy_on_every_triple(self, F):
        """Every (acc, c, x) over GF(9) and GF(25): the sums whose log c +
        log x passes order - 1 onto a nonzero acc, and those that cancel to
        0, are among them."""
        n1, log = F.order - 1, F._log
        wrapped = cancelled = 0
        v = list(range(F.order))
        for c in range(F.order):
            for a in range(F.order):
                want = [F._fadd(a, F._fmul(c, x)) for x in v]
                got = [a] * F.order
                F._axpy(got, 0, c, v)
                assert got == want
                if c and a:
                    wrapped += sum(log[c] + log[x] >= n1 for x in v[1:])
                    cancelled += want.count(0)
        assert wrapped and cancelled == n1 * n1

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_division_and_gcd(self, data):
        F = data.draw(st.sampled_from(COEFFICIENT_FIELDS))
        poly = st.lists(scalars_of(F), max_size=6).map(_poly_trim)
        a, b = data.draw(poly), data.draw(poly.filter(bool))
        q, r = _poly_divmod(F, a, b)
        assert _poly_add(F, _ref_poly_mul(F, q, b), r) == a
        assert len(r) < len(b)
        assert (q, r) == _ref_poly_divmod(F, a, b)
        assert _poly_rem(F, a, b) == r
        assert _poly_mul(F, a, b) == _ref_poly_mul(F, a, b)
        g = _poly_gcd(F, a, b)
        assert g[-1] == 1 and g == _ref_poly_gcd(F, a, b)
        assert not _poly_rem(F, a, g) and not _poly_rem(F, b, g)


# ---------------------------------------------------------------------------
# reference: GF(q)(t) fractions reduced by a gcd of every result


def _rf_reduce(F, num, den):
    """Canonical form of a fraction: lowest terms, monic denominator; ()
    for zero."""
    num, den = _poly_trim(num), _poly_trim(den)
    if not num:
        return ()
    g = _ref_poly_gcd(F, num, den)
    if len(g) > 1:
        num = _ref_poly_divmod(F, num, g)[0]
        den = _ref_poly_divmod(F, den, g)[0]
    inv_lead = F._finv(den[-1])
    return (tuple(F._fmul(c, inv_lead) for c in num),
            tuple(F._fmul(c, inv_lead) for c in den))


def _fraction(x):
    """x's (numerator, denominator), zero included."""
    return x.val or ((), (1,))


def ref_add(x, y):
    FB = x.field.finite_part
    (n1, d1), (n2, d2) = _fraction(x), _fraction(y)
    num = _poly_add(FB, _ref_poly_mul(FB, n1, d2), _ref_poly_mul(FB, n2, d1))
    return x.field._make(_rf_reduce(FB, num, _ref_poly_mul(FB, d1, d2)))


def ref_mul(x, y):
    FB = x.field.finite_part
    (n1, d1), (n2, d2) = _fraction(x), _fraction(y)
    return x.field._make(_rf_reduce(FB, _ref_poly_mul(FB, n1, n2),
                                    _ref_poly_mul(FB, d1, d2)))


def ref_inverse(x):
    n, d = _fraction(x)
    return x.field._make(_rf_reduce(x.field.finite_part, d, n))


def ref_pow(x, n):
    r = x.field.one()
    for _ in range(n):
        r = ref_mul(r, x)
    return r


RF9 = field_make(3, 1, 2, kind="rational-function")
RF16 = field_make(2, 2, 4, kind="rational-function")
# above TABLE_CAP: the base _axpy loop
RF2_18 = field_make(2, 1, 18, kind="rational-function")


@st.composite
def rf_operands(draw):
    """Two reduced fractions over GF(4)(t), GF(9)(t), GF(16)(t) or
    GF(2^18)(t): x = a*s/(b*u) and a y that shares factors with it
    crosswise, has its denominator, is a constant or is zero."""
    K = draw(st.sampled_from([RF4, RF9, RF16, RF2_18]))
    FB = K.finite_part
    coeffs = st.lists(st.integers(0, FB.order - 1), min_size=1, max_size=3)
    nonzero = coeffs.filter(any)
    a, c = draw(coeffs), draw(coeffs)
    b, d, s, u = (draw(nonzero) for _ in range(4))

    def frac(*parts):
        num, den = (1,), (1,)
        for i, part in enumerate(parts):
            if i % 2:
                den = _ref_poly_mul(FB, den, tuple(part))
            else:
                num = _ref_poly_mul(FB, num, tuple(part))
        return K._make(_rf_reduce(FB, num, den))

    x = frac(a, b, s, u)
    shape = draw(st.sampled_from(["crosswise", "same denominator",
                                  "constant", "zero"]))
    if shape == "crosswise":
        y = frac(c, d, u, s)
    elif shape == "same denominator":
        y = x + frac(c[:1] or [1])
    elif shape == "constant":
        y = frac(c[:1])
    else:
        y = K.zero()
    return draw(st.permutations([x, y]))


class TestFractionsAgainstReference:
    """Cross-cancelled products and Henrici's sums give the same canonical
    fractions as a gcd of every result."""

    @settings(max_examples=300, deadline=None)
    @given(rf_operands())
    def test_ops(self, xy):
        x, y = xy
        assert (x + y).val == ref_add(x, y).val
        assert (x - y).val == ref_add(x, -y).val
        assert (x * y).val == ref_mul(x, y).val
        if y:
            assert y.inverse().val == ref_inverse(y).val
            assert (x / y).val == ref_mul(x, ref_inverse(y)).val
        for n in range(5):
            assert (x ** n).val == ref_pow(x, n).val
        if x:
            assert (x ** -2).val == ref_pow(ref_inverse(x), 2).val


def test_gcds_typing_the_ladder_witnesses(monkeypatch):
    """A deterministic work count: the polynomial gcds taken while typing
    the classify-ladder witnesses over GF(4)(t).  A gcd of every sum and
    product took 1843."""
    calls = []
    gcd = fields._poly_gcd

    def counted(*args):
        calls.append(None)
        return gcd(*args)

    monkeypatch.setattr(fields, "_poly_gcd", counted)
    for fam, s, t in LADDER_WITNESSES:
        gram = moduli._witness_gram(RF4, fam, s, t)
        type_report(QBicForm(RF4, gram))
    assert len(calls) == 156


def test_divisions_typing_the_ladder_witnesses(monkeypatch):
    """A deterministic work count: the polynomial long divisions made while
    typing the classify-ladder witnesses over GF(4)(t), split by whether
    they build a quotient.  When Euclid's steps built and dropped
    quotients too, there were 485, all with one."""
    calls = {"remainder": 0, "quotient": 0}
    rem = fields._poly_rem

    def counted(F, a, b, q=None):
        calls["remainder" if q is None else "quotient"] += 1
        return rem(F, a, b, q)

    monkeypatch.setattr(fields, "_poly_rem", counted)
    for fam, s, t in LADDER_WITNESSES:
        gram = moduli._witness_gram(RF4, fam, s, t)
        type_report(QBicForm(RF4, gram))
    assert calls == {"remainder": 173, "quotient": 312}


def test_filtration_work_typing_the_ladder_witnesses(monkeypatch):
    """A deterministic work count: the orthogonals and descent tests taken
    while typing the classify-ladder witnesses over GF(4)(t).  Building
    each perp-prime piece on V^[i] and descending it from level i took 77
    left orthogonals and 204 descent tests."""
    calls = {}

    def counting(name):
        fn = getattr(forms, name)

        def counted(*args):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args)
        return counted

    for name in ("left_orthogonal", "right_orthogonal", "descent_test"):
        monkeypatch.setattr(forms, name, counting(name))
    for fam, s, t in LADDER_WITNESSES:
        gram = moduli._witness_gram(RF4, fam, s, t)
        type_report(QBicForm(RF4, gram))
    assert calls == {"left_orthogonal": 75, "right_orthogonal": 75,
                     "descent_test": 97}


class TestRefusals:
    """Arguments a field call cannot take are refused with its own
    message."""

    @pytest.mark.parametrize("call, error, match", [
        (lambda: field_make(2, 0, 2), ValueError, "must be positive"),
        (lambda: field_make(2, 1, 2, kind="p-adic"), ValueError,
         "unknown field kind 'p-adic'"),
        (lambda: _poly_rem(GF4, [1, 1], []), ZeroDivisionError,
         "polynomial division by zero"),
        (lambda: RF4.elements(), ValueError,
         "cannot enumerate a rational function field"),
        (lambda: embed(GF4, GF16).apply(GF9.one()), ValueError,
         "not in the source field"),
        (lambda: embed(GF4, GF16).preimage(GF4.one()), ValueError,
         "not in the target field"),
        (lambda: extension_field(RF4, 2), ValueError,
         "finite fields only"),
        (lambda: embed(GF4, RF4), ValueError, "finite fields only"),
        (lambda: embed(GF16, GF4), ValueError, "degree mismatch"),
        (lambda: embed(GF4, GF9), ValueError, "degree mismatch"),
        (lambda: parse_field_spec("2^2 q=2 mod=[1,,1,1]"), ValueError,
         "bad field spec"),
        (lambda: parse_field_spec("2^2 q=2 mod=[1,1,1,]"), ValueError,
         "bad field spec"),
        (lambda: parse_field_spec("2^2 q=2 mod=[,1,1,1]"), ValueError,
         "bad field spec"),
        (lambda: parse_field_spec("3^2 q=3 mod=[2,1 0,1]"), ValueError,
         "bad field spec"),
    ], ids=["e-below-1", "kind", "poly-rem-zero", "rf-elements",
            "apply-source", "preimage-target", "extension-rf",
            "embed-kinds", "embed-degrees", "embed-characteristics",
            "mod-empty-entry", "mod-trailing-comma", "mod-leading-comma",
            "mod-space-inside-an-entry"])
    def test_refused(self, call, error, match):
        with pytest.raises(error, match=match):
            call()


class TestConstructionAndParsing:
    def test_field_make_validation(self):
        with pytest.raises(ValueError):
            field_make(4, 1, 2)       # p not prime
        with pytest.raises(ValueError):
            field_make(2, 1, 3)       # 2e does not divide k
        with pytest.raises(ValueError):
            field_make(2, 1, 2, (1, 0, 1))  # reducible modulus x^2+1

    def test_spec_round_trip(self):
        for field in FIELDS + [RF4]:
            assert parse_field_spec(field.spec_string()) == field

    def test_spec_examples(self):
        field = parse_field_spec("2^2 q=2 mod=[1,1,1]")
        assert field == GF4
        assert parse_field_spec("2^2(t) q=2") == RF4
        with pytest.raises(ValueError):
            parse_field_spec("2^2 q=3")

    @pytest.mark.parametrize("text", ["2^2 q=2 mod=[1, 1, 1]",
                                      "2^2 q=2 mod=[ 1,1,1 ]"])
    def test_spaces_around_modulus_entries(self, text):
        assert parse_field_spec(text) == GF4

    def test_finite_element_printing(self):
        z = GF4.gen()
        assert str(z) == "z" and repr(z) == "<z>"
        assert str(z + GF4.one()) == "z+1"
        assert GF4.parse("z+1") == z + GF4.one()
        z16 = GF16.gen()
        assert GF16.parse(str(z16 ** 3 + z16)) == z16 ** 3 + z16


class TestGuardsAndLimits:
    def test_nested_parentheses(self):
        assert GF4.parse("(" * 50 + "z+1" + ")" * 50) == GF4.parse("z+1")
        assert GF4.parse("(" * 100 + "z" + ")" * 100) == GF4.gen()
        for depth in (101, 3000):
            with pytest.raises(ValueError, match="nest deeper than 100"):
                GF4.parse("(" * depth + "z" + ")" * depth)

    @pytest.mark.parametrize("spec", [
        "2^400 q=2 mod=[1,1]", "2^258 q=2", "17592186044423^2 q=17592186044423",
        "1000000000000000000000007^2 q=1000000000000000000000007",
        "2^99999999999999999999999 q=2"])
    def test_spec_guards(self, spec):
        with pytest.raises(CostGuardError, match="guard is"):
            parse_field_spec(spec)

    def test_root_search_guard(self):
        # GF(2^14) has 2^14 > 4096 elements to scan for a root in GF(2^28)
        src = field_make(2, 1, 14)
        dst = extension_field(src, 2)
        with pytest.raises(CostGuardError, match="guard is <= 4096"):
            embed(src, dst)
        assert embed(GF4096, extension_field(GF4096, 2)).src is GF4096

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(
        st.text("0123456789^ q=mod[],(t)", max_size=24),
        st.builds("{}^{}{} q={}{}".format,
                  st.integers(0, 300) | st.sampled_from(
                      [2 ** 44 - 1, 2 ** 44, 10 ** 24 + 7]),
                  st.integers(0, 12) | st.sampled_from([64, 258, 10 ** 30]),
                  st.sampled_from(["", "(t)"]),
                  st.integers(0, 300) | st.sampled_from([4, 8, 9, 27, 81]),
                  st.none().map(lambda _: "") | st.lists(
                      st.integers(0, 9), max_size=14).map(
                      lambda c: f" mod=[{','.join(map(str, c))}]"))))
    def test_specs_raise_only_value_or_guard_errors(self, text):
        # a generous CPU bound, so a hanging kernel fails instead of stalling
        start = time.process_time()
        try:
            F = parse_field_spec(text)
        except (ValueError, CostGuardError):
            pass
        else:
            assert parse_field_spec(F.spec_string()) is F
        assert time.process_time() - start < 2.0

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from([GF4, GF9, RF4]), st.one_of(
        st.text("0123456789zt()+-*/^ ", max_size=20),
        st.recursive(
            st.sampled_from(["0", "1", "2", "12", "z", "t", " z "]),
            lambda inner: st.one_of(
                st.builds("{}{}{}".format, inner,
                          st.sampled_from("+-*/"), inner),
                st.builds("{}^{}".format, inner, st.integers(0, 40)),
                inner.map("({})".format),
                inner.map("-{}".format)),
            max_leaves=8)))
    def test_literals_raise_only_value_or_guard_errors(self, F, text):
        # a generous CPU bound, so a hanging kernel fails instead of stalling
        start = time.process_time()
        try:
            x = F.parse(text)
        except (ValueError, CostGuardError):
            pass
        else:
            assert F.parse(str(x)) == x
        assert time.process_time() - start < 2.0

    def test_division_by_zero_in_a_literal(self):
        for F, text in ((GF4, "1/0"), (GF9, "z/(z-z)"), (RF4, "t/(t+t)")):
            with pytest.raises(ValueError, match="division by zero"):
                F.parse(text)

    @pytest.mark.parametrize("p,k", [(3, 10), (251, 2)])
    def test_construction_time(self, p, k):
        # O(order) int operations: under 0.3 s of CPU in a fresh process
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        code = ("import time\n"
                "from qbic.fields import field_make\n"
                "t = time.process_time()\n"
                f"F = field_make({p}, 1, {k})\n"
                "print(time.process_time() - t, F.order)\n")
        proc = subprocess.run([sys.executable, "-c", code],
                              env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        seconds, order = proc.stdout.split()
        assert int(order) == p ** k and float(seconds) < 0.3


class TestExtensions:
    def test_embedding_is_a_field_map(self):
        K = extension_field(GF4, 3)
        assert K.order == 4 ** 3
        e = embed(GF4, K)
        z = GF4.gen()
        for a in GF4.elements():
            for b in GF4.elements():
                assert e.apply(a * b) == e.apply(a) * e.apply(b)
                assert e.apply(a + b) == e.apply(a) + e.apply(b)
        assert e.preimage(e.apply(z)) == z
        # z generates GF(4^3), so it lies in no proper subfield
        assert e.preimage(K.gen()) is None

    @pytest.mark.parametrize("src, r", [(GF4, 3), (GF9, 2), (GF16, 2)])
    def test_preimage_inverts_apply(self, src, r):
        K = extension_field(src, r)
        e = embed(src, K)
        for x in src.elements():
            assert e.preimage(e.apply(x)) == x
        # z generates K over GF(p), so it lies in no proper subfield
        assert e.preimage(K.gen()) is None

    def test_preimage_of_the_identity_embedding(self):
        e = embed(GF256, GF256)
        for x in GF256.elements():
            assert e.preimage(e.apply(x)) == x

    def test_embedding_deterministic(self):
        K = extension_field(GF4, 2)
        assert embed(GF4, K) is embed(GF4, K)

    def test_tower_compatibility(self):
        K2 = extension_field(GF4, 2)
        K4 = extension_field(GF4, 4)
        e24 = embed(K2, K4)
        e2 = embed(GF4, K2)
        e4 = embed(GF4, K4)
        for a in GF4.elements():
            assert e24.apply(e2.apply(a)) == e4.apply(a)

    def test_degree_one_extension_is_the_field(self):
        # a degree-1 extension keeps the base field's own modulus
        F = field_make(3, 1, 2, (2, 1, 1))
        assert extension_field(F, 1) is F
        assert extension_field(GF9, 1) is GF9
        e = embed(F, extension_field(F, 1))
        assert all(e.apply(x) == x for x in F.elements())


# ---------------------------------------------------------------------------
# references: the term printers and the embedding loop as separate copies,
# before each became one shared routine


def _ref_fin_str(F, v):
    if v == 0:
        return "0"
    digits = F._decode(v)
    terms = []
    for i in range(len(digits) - 1, -1, -1):
        c = digits[i]
        if not c:
            continue
        if i == 0:
            terms.append(str(c))
        else:
            var = "z" if i == 1 else f"z^{i}"
            terms.append(var if c == 1 else f"{c}*{var}")
    return "+".join(terms)


def _ref_tpoly_terms(F, poly):
    FB = F.finite_part
    terms = []
    for i in range(len(poly) - 1, -1, -1):
        c = poly[i]
        if not c:
            continue
        cs = FB._str(c)
        if i == 0:
            terms.append(cs)
            continue
        var = "t" if i == 1 else f"t^{i}"
        if c == 1:
            terms.append(var)
        else:
            if "+" in cs:
                cs = f"({cs})"
            terms.append(f"{cs}*{var}")
    return terms


def _ref_rf_str(K, x):
    if not x:
        return "0"
    num, den = x
    nterms = _ref_tpoly_terms(K, num)
    ns = "+".join(nterms)
    if den == (1,):
        return ns
    if len(nterms) > 1 or ("+" in ns and not ns.startswith("(")):
        ns = f"({ns})"
    dterms = _ref_tpoly_terms(K, den)
    ds = "+".join(dterms)
    if len(dterms) > 1 or "*" in ds:
        ds = f"({ds})"
    return f"{ns}/{ds}"


def _ref_apply(e, x):
    D = e.dst
    acc, w = 0, 1
    for c in e.src._decode(x.val):
        if c:
            acc = D._fadd(acc, D._fmul(c % D.p, w))
        w = D._fmul(w, e.gen_image)
    return acc


@st.composite
def rf_fractions(draw):
    """A reduced fraction over GF(4)(t) or GF(9)(t) of degree <= 4."""
    K = draw(st.sampled_from([RF4, RF9]))
    FB = K.finite_part
    coeffs = st.lists(st.integers(0, FB.order - 1), min_size=1, max_size=5)
    num, den = draw(coeffs), draw(coeffs.filter(any))
    return K._make(_rf_reduce(FB, num, den))


class TestPrintersAgainstReference:
    @pytest.mark.parametrize("F", [GF4, GF9, GF16, GF25, GF256], ids=str)
    def test_every_element_of_a_tabled_field(self, F):
        for x in F.elements():
            assert str(x) == _ref_fin_str(F, x.val)

    def test_seeded_elements_above_the_table_cap(self):
        rng = random.Random("printer-gf2^18")
        for _ in range(500):
            x = GF2_18.random_element(rng)
            assert str(x) == _ref_fin_str(GF2_18, x.val)

    @settings(max_examples=300, deadline=None)
    @given(rf_fractions())
    def test_rational_function_fields(self, x):
        assert str(x) == _ref_rf_str(x.field, x.val)
        if x:
            assert x.field.parse(str(x)) == x


class TestCoordinates:
    @pytest.mark.parametrize("F", [GF4, GF9, GF256, field_make(2, 1, 20)],
                             ids=["gf4", "gf9", "gf256", "gf2^20"])
    def test_coords_are_the_padded_digits(self, F):
        rng = random.Random(f"coords-{F.order}")
        for v in [0, 1, F.order - 1] + [rng.randrange(F.order)
                                         for _ in range(200)]:
            c = F._coords(v)
            assert len(c) == F.k and F._encode(c) == v


class TestEmbeddingImages:
    @pytest.mark.parametrize("src, r, image", [(GF4, 3, 56), (GF9, 2, 15),
                                               (GF16, 2, 62)],
                             ids=["gf4-gf64", "gf9-gf81", "gf16-gf256"])
    def test_pinned_generator_image(self, src, r, image):
        e = embed(src, extension_field(src, r))
        assert e.gen_image == image
        for x in src.elements():
            assert e.apply(x).val == _ref_apply(e, x)
