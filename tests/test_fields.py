import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from qbic.fields import (TABLE_CAP, _pp_add, _pp_mod, _pp_mul, embed,
                         evaluate_at_zero, extension_field, field_make,
                         frobenius, lift_constant, parse_field_spec, qth_root)

GF4 = field_make(2, 1, 2)
GF9 = field_make(3, 1, 2)
GF16 = field_make(2, 2, 4)
GF25 = field_make(5, 1, 2)
GF81 = field_make(3, 2, 4)
GF256 = field_make(2, 4, 8)
GF1024 = field_make(2, 5, 10)
GF625 = field_make(5, 1, 4)
GF2_16 = field_make(2, 1, 16)
GF2_18 = field_make(2, 1, 18)  # above TABLE_CAP: polynomial arithmetic
RF4 = field_make(2, 1, 2, kind="rational-function")

FIELDS = [GF4, GF9, GF16, GF25, GF81, GF256, GF1024, GF625, GF2_18]


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
    npoly = sum(RF4._make(((c,) if c else (), (1,)))
                * RF4.t_gen() ** i for i, c in enumerate(num))
    dpoly = sum(RF4._make(((c,) if c else (), (1,)))
                * RF4.t_gen() ** i for i, c in enumerate(den))
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
                                   field_make(3, 1, 2, (2, 0, 2))], ids=str)
    def test_every_pair(self, F):  # the last modulus is not monic
        for a, b in itertools.product(range(F.order), repeat=2):
            self.check_pair(F, a, b)

    @pytest.mark.parametrize("F", [GF256, GF1024, GF2_16], ids=str)
    def test_seeded_sample(self, F):
        rng = random.Random(f"tables/{F.order}")
        for _ in range(1500):
            self.check_pair(F, rng.randrange(F.order), rng.randrange(F.order))
        for a in (0, 1, F.order - 1):
            self.check_pair(F, a, rng.randrange(F.order))

    def test_tables_stop_at_the_cap(self):
        assert GF2_16.order == TABLE_CAP and hasattr(GF2_16, "_exp")
        assert not hasattr(GF2_18, "_exp")


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

    def test_lift_constant(self):
        z4 = GF4.gen()
        assert evaluate_at_zero(lift_constant(z4, RF4)) == z4


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

    def test_finite_element_printing(self):
        z = GF4.gen()
        assert str(z) == "z"
        assert str(z + GF4.one()) == "z+1"
        assert GF4.parse("z+1") == z + GF4.one()
        z16 = GF16.gen()
        assert GF16.parse(str(z16 ** 3 + z16)) == z16 ** 3 + z16


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
        assert e.preimage(K.gen()) is None or True  # preimage may not exist

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
