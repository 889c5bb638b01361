"""Exact arithmetic in GF(p^k) and in the rational function field GF(p^k)(t).

The distinguished power q = p^e drives everything semilinear downstream:
frobenius(x, i) = x^(q^i) and its partial inverse qth_root.  Finite
descriptors require 2e | k so that the quadratic extension F_{q^2} embeds.

Elements are kept in a unique canonical form (degree-reduced polynomial in
the generator z; fractions in lowest terms with monic denominator), so
equality is plain representation equality.
"""

from __future__ import annotations

import itertools
import math
import re
from functools import lru_cache

from . import CostGuardError

# ---------------------------------------------------------------------------
# polynomials over the prime field GF(p), coefficient lists low-to-high


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


def _prime_factors(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _pp_is_irreducible(f, p):
    """Rabin test for a polynomial over GF(p)."""
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


def _is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


# shipped default moduli, constant term first
_DEFAULT_MODULI = {
    (2, 2): (1, 1, 1),        # z^2+z+1
    (3, 2): (1, 0, 1),        # z^2+1
    (2, 4): (1, 1, 0, 0, 1),  # z^4+z+1
}


@lru_cache(maxsize=None)
def _default_modulus(p, k):
    got = _DEFAULT_MODULI.get((p, k))
    if got is not None:
        return got
    # deterministic search: the monic irreducible whose coefficient tuple,
    # constant term first, is lexicographically smallest (the coefficient
    # of z^(k-1) varies fastest).  A zero constant term makes z a factor,
    # so those candidates (k >= 2 always) are skipped untested.
    for c0 in range(1, p):
        for rest in itertools.product(range(p), repeat=k - 1):
            cand = [c0, *rest, 1]
            if _pp_is_irreducible(cand, p):
                return tuple(cand)
    raise ValueError(f"no irreducible polynomial of degree {k} over GF({p})")


# finite fields up to this order get log/antilog/Zech tables; larger ones
# multiply polynomials in z
TABLE_CAP = 1 << 16


class FieldDescriptor:
    """A coefficient field: GF(p^k) or GF(p^k)(t), with q = p^e marked.

    Immutable.  Built only through field_make, which hands out one
    descriptor per (p, e, k, modulus, kind), so equality is identity.
    Finite fields above TABLE_CAP use the polynomial arithmetic here;
    smaller ones are _ZechField.
    """

    __slots__ = ("p", "e", "k", "modulus", "kind", "q", "order", "_base",
                 "_spec", "__weakref__")

    def __init__(self, p, e, k, modulus, kind):
        self.p = p
        self.e = e
        self.k = k
        self.modulus = tuple(modulus)
        self.kind = kind
        self.q = p ** e
        self.order = p ** k
        self._base = None
        tail = "(t)" if kind == "rational-function" else ""
        mod = ",".join(str(c) for c in self.modulus)
        self._spec = f"{p}^{k}{tail} q={self.q} mod=[{mod}]"

    # -- construction helpers ------------------------------------------------

    def _decode(self, v):
        p = self.p
        out = []
        while v:
            out.append(v % p)
            v //= p
        return out

    def _encode(self, coeffs):
        v = 0
        for c in reversed(_pp_trim(list(coeffs))):
            v = v * self.p + c
        return v

    # -- identity ------------------------------------------------------------

    def __repr__(self):
        return f"FieldDescriptor({self.spec_string()!r})"

    def spec_string(self):
        return self._spec

    @property
    def finite_part(self):
        """The underlying finite field GF(p^k) descriptor."""
        if self.kind == "finite":
            return self
        if self._base is None:
            self._base = field_make(self.p, self.e, self.k, self.modulus,
                                    "finite")
        return self._base

    # -- scalar arithmetic on int encodings (finite part) --------------------

    def _fadd(self, a, b):
        p = self.p
        if p == 2:
            return a ^ b
        return self._encode(_pp_add(self._decode(a), self._decode(b), p))

    def _fneg(self, a):
        p = self.p
        if p == 2:
            return a
        return self._encode([(p - c) % p for c in self._decode(a)])

    def _fmul(self, a, b):
        return self._encode(_pp_mod(_pp_mul(self._decode(a), self._decode(b),
                                            self.p),
                                    list(self.modulus), self.p))

    def _finv(self, a):
        if a == 0:
            raise ZeroDivisionError("inversion of zero field element")
        return self._fpow(a, self.order - 2)

    def _fpow(self, a, n):
        if a == 0:
            return 0 if n else 1
        n %= self.order - 1
        r = 1
        while n:
            if n & 1:
                r = self._fmul(r, a)
            a = self._fmul(a, a)
            n >>= 1
        return r

    def _str(self, a):
        return _fin_str(self, a)

    # -- element constructors ------------------------------------------------

    def _make(self, val):
        return FieldElement(self, val)

    def _wrap_fin(self, v):
        if self.kind == "finite":
            return self._make(v)
        return self._make(((v,) if v else (), (1,)))

    def zero(self):
        return self._wrap_fin(0)

    def one(self):
        return self._wrap_fin(1)

    def from_int(self, n):
        return self._wrap_fin(n % self.p)

    def gen(self):
        """The generator z of GF(p^k) over GF(p)."""
        if self.k == 1:
            raise ValueError("prime field has no generator z")
        return self._wrap_fin(self.p)

    def t_gen(self):
        if self.kind != "rational-function":
            raise ValueError("t exists only in a rational function field")
        return self._make(((0, 1), (1,)))

    def elements(self):
        """All elements, finite fields only."""
        if self.kind != "finite":
            raise ValueError("cannot enumerate a rational function field")
        for v in range(self.order):
            yield self._make(v)

    def random_element(self, rng, degree=1):
        """Random element; for rational function fields a random fraction
        with numerator and denominator degrees at most `degree`."""
        if self.kind == "finite":
            return self._make(rng.randrange(self.order))
        num = [rng.randrange(self.order) for _ in range(degree + 1)]
        while True:
            den = [rng.randrange(self.order) for _ in range(degree + 1)]
            if any(den):
                break
        return self._make(_rf_reduce(self, num, den))

    def parse(self, text):
        return _parse_element(self, text)

    # polynomial-over-finite-part helpers used by the fraction representation
    # live at module level (_poly_* / _rf_*)


class _ZechField(FieldDescriptor):
    """GF(p^k) of order at most TABLE_CAP, with arithmetic by table lookup.

    Over a primitive element g: _exp[i] = g^i for 0 <= i < 2(order-1), so a
    sum of two logarithms needs no reduction; _log[g^i] = i; and
    _zech[i] = log(1 + g^i), None where 1 + g^i = 0 (K. Huber, "Some
    comments on Zech's logarithms", IEEE Trans. Inf. Theory 36, 1990).
    Then g^a + g^b = g^(a + zech[b - a]).  Elements keep the base-p int
    encoding; the tables only translate it.  Building them takes order-1
    multiplications by g.
    """

    __slots__ = ("_exp", "_log", "_zech", "_half", "_names")

    def __init__(self, p, e, k, modulus, kind):
        super().__init__(p, e, k, modulus, kind)
        n1 = self.order - 1
        # constants lie in GF(p), so the first candidate is z
        g = next(v for v in range(p, self.order) if self._is_primitive(v))
        gd = self._decode(g)
        exp = [0] * n1
        # g * v by Horner's rule over the digits of g: acc <- acc*z + g_j v
        if p == 2:
            top, red = 1 << k, self._encode(self.modulus)
            v = 1
            for i in range(n1):
                exp[i] = acc = v
                for gj in reversed(gd[:-1]):
                    acc <<= 1
                    if acc & top:
                        acc ^= red
                    if gj:
                        acc ^= v
                v = acc
        else:
            # on the base-p digits of v, low first; z^k = -sum low[j] z^j
            lead_inv = pow(self.modulus[-1], p - 2, p)
            low = [c * lead_inv % p for c in self.modulus[:-1]]
            weights = [p ** j for j in range(k)]
            d = [1] + [0] * (k - 1)
            for i in range(n1):
                exp[i] = sum(c * w for c, w in zip(d, weights))
                acc = [gd[-1] * c % p for c in d]
                for gj in reversed(gd[:-1]):
                    c = acc[-1]
                    acc = [0] + acc[:-1]
                    if c:
                        acc = [(a - c * r) % p for a, r in zip(acc, low)]
                    if gj:
                        acc = [(a + gj * b) % p for a, b in zip(acc, d)]
                d = acc
        log = [None] * self.order
        for i, x in enumerate(exp):
            log[x] = i
        if p == 2:
            zech = [log[x ^ 1] for x in exp]
        else:
            zech = [log[x - x % p + (x + 1) % p] for x in exp]
        self._exp = exp + exp
        self._log = log
        self._zech = zech
        self._half = n1 // 2
        self._names = {}

    def _is_primitive(self, v):
        n1 = self.order - 1
        x = self._decode(v)
        return all(_pp_powmod(x, n1 // ell, list(self.modulus), self.p) != [1]
                   for ell in _prime_factors(n1))

    def _fadd(self, a, b):
        if self.p == 2:
            return a ^ b
        if not a:
            return b
        if not b:
            return a
        log = self._log
        la = log[a]
        # a negative difference indexes from the end: zech has order-1
        # entries, so the index is taken mod order-1 for free
        z = self._zech[log[b] - la]
        return 0 if z is None else self._exp[la + z]

    def _fneg(self, a):
        if self.p == 2 or not a:
            return a
        # -1 = g^((order-1)/2) for odd p
        return self._exp[self._log[a] + self._half]

    def _fmul(self, a, b):
        if a and b:
            log = self._log
            return self._exp[log[a] + log[b]]
        return 0

    def _finv(self, a):
        if a == 0:
            raise ZeroDivisionError("inversion of zero field element")
        return self._exp[self.order - 1 - self._log[a]]

    def _fpow(self, a, n):
        if a == 0:
            return 0 if n else 1
        return self._exp[self._log[a] * n % (self.order - 1)]

    def _str(self, a):
        # printed once per element: repeated output shares the strings
        name = self._names.get(a)
        if name is None:
            name = self._names[a] = _fin_str(self, a)
        return name


# every descriptor field_make has handed out, by (p, e, k, modulus, kind)
_FIELDS = {}


def field_make(p, e, k, modulus=None, kind="finite"):
    """The validated field descriptor; one object per field.

    q = p^e; requires 2e | k so the field contains F_{q^2}.  When the
    modulus is omitted a fixed table of defaults is used for small (p, k),
    otherwise the lexicographically smallest monic irreducible is chosen.
    A descriptor is interned only after its modulus passed the checks, so
    a bad modulus is refused on every call.
    """
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    if e < 1 or k < 1:
        raise ValueError("e and k must be positive")
    if k % (2 * e) != 0:
        raise ValueError(f"2e = {2 * e} does not divide k = {k}")
    if kind not in ("finite", "rational-function"):
        raise ValueError(f"unknown field kind {kind!r}")
    if modulus is None:
        modulus = _default_modulus(p, k)
    else:
        modulus = tuple(c % p for c in modulus)
    key = (p, e, k, modulus, kind)
    got = _FIELDS.get(key)
    if got is not None:
        return got
    if len(modulus) != k + 1 or modulus[-1] == 0:
        raise ValueError("modulus must have degree k")
    if not _pp_is_irreducible(list(modulus), p):
        raise ValueError("modulus is reducible")
    tabled = kind == "finite" and p ** k <= TABLE_CAP
    F = (_ZechField if tabled else FieldDescriptor)(p, e, k, modulus, kind)
    # two threads building the same field both get the one stored first
    return _FIELDS.setdefault(key, F)


# ---------------------------------------------------------------------------
# polynomials in t over the finite part, coefficients = int encodings


def _poly_trim(a):
    n = len(a)
    while n and a[n - 1] == 0:
        n -= 1
    return tuple(a[:n])


def _poly_add(F, a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = F._fadd(out[i], c)
    return _poly_trim(out)


def _poly_neg(F, a):
    return tuple(F._fneg(c) for c in a)


def _poly_mul(F, a, b):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] = F._fadd(out[i + j], F._fmul(ai, bj))
    return _poly_trim(out)


def _poly_divmod(F, a, b):
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


def _poly_gcd(F, a, b):
    a, b = _poly_trim(a), _poly_trim(b)
    while b:
        a, b = b, _poly_divmod(F, a, b)[1]
    if a:
        inv = F._finv(a[-1])
        a = tuple(F._fmul(c, inv) for c in a)
    return a


def _rf_reduce(F, num, den):
    """Canonical form of a fraction: lowest terms, monic denominator."""
    num, den = _poly_trim(num), _poly_trim(den)
    if not den:
        raise ZeroDivisionError("zero denominator")
    if not num:
        return ((), (1,))
    g = _poly_gcd(F, num, den)
    if len(g) > 1:
        num = _poly_divmod(F, num, g)[0]
        den = _poly_divmod(F, den, g)[0]
    inv_lead = F._finv(den[-1])
    if den[-1] != 1:
        num = tuple(F._fmul(c, inv_lead) for c in num)
        den = tuple(F._fmul(c, inv_lead) for c in den)
    return (num, den)


class FieldElement:
    """An element of a FieldDescriptor, held in canonical form.

    Finite fields store the polynomial in z as a base-p integer encoding;
    rational function fields store a reduced (numerator, denominator) pair
    of coefficient tuples.  Immutable and hashable.
    """

    __slots__ = ("field", "val")

    def __init__(self, field, val):
        self.field = field
        self.val = val

    # -- helpers -------------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            if other.field is not self.field:
                raise ValueError("field mismatch")
            return other
        if isinstance(other, int):
            return self.field.from_int(other)
        return NotImplemented

    def is_zero(self):
        if self.field.kind == "finite":
            return self.val == 0
        return not self.val[0]

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        F = self.field
        if F.kind == "finite":
            return F._make(F._fadd(self.val, other.val))
        (n1, d1), (n2, d2) = self.val, other.val
        FB = F.finite_part
        num = _poly_add(FB, _poly_mul(FB, n1, d2), _poly_mul(FB, n2, d1))
        return F._make(_rf_reduce(FB, num, _poly_mul(FB, d1, d2)))

    __radd__ = __add__

    def __neg__(self):
        F = self.field
        if F.kind == "finite":
            return F._make(F._fneg(self.val))
        n, d = self.val
        return F._make((_poly_neg(F.finite_part, n), d))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        F = self.field
        if F.kind == "finite":
            return F._make(F._fmul(self.val, other.val))
        (n1, d1), (n2, d2) = self.val, other.val
        FB = F.finite_part
        return F._make(_rf_reduce(FB, _poly_mul(FB, n1, n2),
                                  _poly_mul(FB, d1, d2)))

    __rmul__ = __mul__

    def inverse(self):
        F = self.field
        if F.kind == "finite":
            return F._make(F._finv(self.val))
        n, d = self.val
        if not n:
            raise ZeroDivisionError("inversion of zero field element")
        return F._make(_rf_reduce(F.finite_part, d, n))

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        F = self.field
        if F.kind == "finite":
            return F._make(F._fpow(self.val, n))
        r = F.one()
        a = self
        while n:
            if n & 1:
                r = r * a
            a = a * a
            n >>= 1
        return r

    # -- identity ------------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, FieldElement)
                and self.field is other.field and self.val == other.val)

    def __hash__(self):
        return hash((self.field, self.val))

    def __repr__(self):
        return f"<{self}>"

    def __str__(self):
        if self.field.kind == "finite":
            return self.field._str(self.val)
        return _rf_str(self.field, self.val)

    def __bool__(self):
        return not self.is_zero()


# ---------------------------------------------------------------------------
# Frobenius and q-th roots


def frobenius(x, i):
    """x ** (q ** i), the i-fold q-power Frobenius."""
    F = x.field
    if i == 0:
        return x
    if F.kind == "finite":
        return F._make(F._fpow(x.val, F.q ** i))
    FB = F.finite_part
    qi = F.q ** i

    def tw(poly):
        out = [0] * ((len(poly) - 1) * qi + 1) if poly else []
        for j, c in enumerate(poly):
            if c:
                out[j * qi] = FB._fpow(c, qi)
        return _poly_trim(out)

    n, d = x.val
    return F._make((tw(n), tw(d)))


def qth_root(x):
    """The y with y^q = x, or None if x is not a q-th power.

    Over the finite part the Frobenius is an automorphism, so the root
    always exists: y = x^(p^(k-e)).  Over GF(p^k)(t) the root exists iff
    every exponent of t appearing in the reduced fraction is divisible by q.
    """
    F = x.field
    if F.kind == "finite":
        return F._make(F._fpow(x.val, F.p ** (F.k - F.e)))
    FB = F.finite_part
    q = F.q
    root_exp = FB.p ** (FB.k - FB.e)

    def rt(poly):
        out = [0] * ((len(poly) - 1) // q + 1) if poly else []
        for j, c in enumerate(poly):
            if c:
                if j % q != 0:
                    return None
                out[j // q] = FB._fpow(c, root_exp)
        return _poly_trim(out)

    n, d = x.val
    rn = rt(n)
    if rn is None:
        return None
    rd = rt(d)
    if rd is None:
        return None
    return F._make((rn, rd))


def evaluate_at_zero(x):
    """Substitute t = 0 in a rational function field element.

    Returns an element of the finite part; errors if the denominator
    vanishes at t = 0.
    """
    F = x.field
    if F.kind == "finite":
        return x
    n, d = x.val
    d0 = d[0] if d else 0
    if d0 == 0:
        raise ZeroDivisionError("denominator vanishes at t = 0")
    FB = F.finite_part
    n0 = n[0] if n else 0
    return FB._make(FB._fmul(n0, FB._finv(d0)))


def lift_constant(x, rational_field):
    """Embed a finite field element as a constant of GF(p^k)(t)."""
    if rational_field.finite_part != x.field:
        raise ValueError("field mismatch")
    return rational_field._make(((x.val,) if x.val else (), (1,)))


# ---------------------------------------------------------------------------
# printing


def _fin_str(F, v):
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


def _tpoly_terms(F, poly):
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


def _rf_str(F, val):
    num, den = val
    if not num:
        return "0"
    nterms = _tpoly_terms(F, num)
    ns = "+".join(nterms)
    if den == (1,):
        return ns
    if len(nterms) > 1 or ("+" in ns and not ns.startswith("(")):
        ns = f"({ns})"
    dterms = _tpoly_terms(F, den)
    ds = "+".join(dterms)
    if len(dterms) > 1 or "*" in ds:
        ds = f"({ds})"
    return f"{ns}/{ds}"


# ---------------------------------------------------------------------------
# parsing

_TOKEN_RE = re.compile(r"\s*(\d+|[zt()+\-*/^])")


def _tokenize(text):
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ValueError(
                    f"bad element literal at position {pos}: {text[pos:]!r}")
            break
        out.append(m.group(1))
        pos = m.end()
    return out


# a GF(q)(t) literal may not reach a higher degree in t; a product or power
# past it is refused before it is formed (dense products cost degree^2)
_LITERAL_DEGREE_CAP = 1024


def _t_degree(x):
    """The larger degree in t of x's numerator and denominator; 0 on a
    finite field, where powers reduce and products keep their size."""
    if x.field.kind == "finite":
        return 0
    num, den = x.val
    return max(len(num), len(den)) - 1


def _check_literal_degree(d):
    if d > _LITERAL_DEGREE_CAP:
        raise CostGuardError(f"element literal reaches degree {d} in t; "
                             f"guard is degree <= {_LITERAL_DEGREE_CAP}")


class _ElementParser:
    def __init__(self, field, tokens):
        self.field = field
        self.toks = tokens
        self.i = 0

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else None

    def take(self):
        t = self.peek()
        self.i += 1
        return t

    def expr(self):
        if self.peek() == "-":
            self.take()
            v = -self.term()
        else:
            v = self.term()
        while self.peek() in ("+", "-"):
            if self.take() == "+":
                v = v + self.term()
            else:
                v = v - self.term()
        return v

    def term(self):
        v = self.factor()
        while self.peek() in ("*", "/"):
            op = self.take()
            w = self.factor()
            _check_literal_degree(_t_degree(v) + _t_degree(w))
            v = v * w if op == "*" else v / w
        return v

    def factor(self):
        v = self.atom()
        while self.peek() == "^":
            self.take()
            t = self.take()
            if t is None or not t.isdigit():
                raise ValueError("expected integer exponent after '^'")
            n = int(t)
            _check_literal_degree(_t_degree(v) * n)
            v = v ** n
        return v

    def atom(self):
        t = self.take()
        if t is None:
            raise ValueError("unexpected end of element literal")
        if t.isdigit():
            return self.field.from_int(int(t))
        if t == "z":
            return self.field.gen() if self.field.k > 1 else \
                self._fail("z used in a prime field")
        if t == "t":
            return self.field.t_gen()
        if t == "(":
            v = self.expr()
            if self.take() != ")":
                raise ValueError("unbalanced parentheses in element literal")
            return v
        raise ValueError(f"unexpected token {t!r} in element literal")

    def _fail(self, msg):
        raise ValueError(msg)


def _parse_element(field, text):
    p = _ElementParser(field, _tokenize(text))
    v = p.expr()
    if p.peek() is not None:
        raise ValueError(f"trailing tokens in element literal: {p.peek()!r}")
    return v


# without mod=, field_make searches for the first irreducible modulus of
# degree k: about k candidates, each a Rabin test of k log2(p) squarings of
# degree-k polynomials.  A spec past this bound on k^4 log2(p) is refused
# before the search; it admits 2^64 and 3^40 and refuses 2^80 and 3^64.
_MODULUS_SEARCH_CAP = 2 ** 24

_SPEC_RE = re.compile(
    r"^\s*(\d+)\^(\d+)(\(t\))?\s+q=(\d+)(?:\s+mod=\[([\d,\s]*)\])?\s*$")


def parse_field_spec(text):
    """Parse a field spec string like '2^2 q=2 mod=[1,1,1]' or '2^2(t) q=2'."""
    m = _SPEC_RE.match(text)
    if not m:
        raise ValueError(f"bad field spec: {text!r}")
    p, k = int(m.group(1)), int(m.group(2))
    kind = "rational-function" if m.group(3) else "finite"
    q = int(m.group(4))
    if p < 2:
        raise ValueError(f"{p} is not prime")
    e = 0
    qq = q
    while qq > 1 and qq % p == 0:
        qq //= p
        e += 1
    if qq != 1 or e == 0:
        raise ValueError(f"q = {q} is not a positive power of p = {p}")
    modulus = None
    if m.group(5) is not None:
        modulus = tuple(int(c) for c in m.group(5).replace(" ", "").split(",")
                        if c != "")
    elif k ** 4 * math.log2(p) > _MODULUS_SEARCH_CAP:
        raise CostGuardError(
            f"field spec {p}^{k} without mod= needs a search for an "
            f"irreducible polynomial of degree {k}; guard is "
            f"k^4 * log2(p) <= {_MODULUS_SEARCH_CAP} without mod=")
    return field_make(p, e, k, modulus, kind)


# ---------------------------------------------------------------------------
# extensions and subfield embeddings (used by the Hermitian machinery)


class Embedding:
    """A field embedding GF(p^j) -> GF(p^k) given by the image of z."""

    __slots__ = ("src", "dst", "gen_image", "_matrix")

    def __init__(self, src, dst, gen_image):
        self.src = src
        self.dst = dst
        self.gen_image = gen_image  # int encoding in dst
        self._matrix = None

    def apply(self, x):
        if x.field != self.src:
            raise ValueError("element not in the source field")
        D = self.dst
        digits = self.src._decode(x.val)
        acc, w = 0, 1
        for c in digits:
            if c:
                acc = D._fadd(acc, D._fmul(c % D.p, w))
            w = D._fmul(w, self.gen_image)
        return D._make(acc)

    def _build_matrix(self):
        # columns: dst GF(p)-coordinates of gen_image^i, i < src.k
        D, S = self.dst, self.src
        cols = []
        w = 1
        for _ in range(S.k):
            dig = D._decode(w)
            cols.append([dig[r] if r < len(dig) else 0 for r in range(D.k)])
            w = D._fmul(w, self.gen_image)
        self._matrix = cols

    def preimage(self, y):
        """Inverse on the image subfield; None if y is not in the image."""
        from .linalg import _gfp_solve
        if y.field != self.dst:
            raise ValueError("element not in the target field")
        if self._matrix is None:
            self._build_matrix()
        D, S = self.dst, self.src
        p = D.p
        dig = D._decode(y.val)
        target = [dig[r] if r < len(dig) else 0 for r in range(D.k)]
        sol = _gfp_solve(self._matrix, target, p, D.k)
        if sol is None:
            return None
        return S._make(S._encode(sol))


@lru_cache(maxsize=None)
def extension_field(base, r):
    """GF(p^(k*r)) with the same (p, e), default modulus."""
    if base.kind != "finite":
        raise ValueError("extensions are taken of finite fields only")
    return field_make(base.p, base.e, base.k * r, None, "finite")


@lru_cache(maxsize=None)
def embed(src, dst):
    """The deterministic embedding GF(p^j) -> GF(p^k) for j | k.

    Chooses the first root of the source modulus inside dst, scanning the
    subfield of order p^j in a fixed order.
    """
    if src.kind != "finite" or dst.kind != "finite":
        raise ValueError("embeddings are between finite fields only")
    if src.p != dst.p or dst.k % src.k != 0:
        raise ValueError("no embedding: degree mismatch")
    if src == dst:
        return Embedding(src, dst, src.p if src.k > 1 else 1)
    p, j, k = src.p, src.k, dst.k
    # subfield of order p^j = fixed points of Frobenius^j; compute the
    # GF(p)-kernel of (x -> x^(p^j)) - id on dst
    cols = []
    for i in range(k):
        basis_elt = dst._encode([0] * i + [1])
        img = dst._fpow(basis_elt, p ** j)
        diff = dst._fadd(img, dst._fneg(basis_elt))
        dig = dst._decode(diff)
        cols.append([dig[r] if r < len(dig) else 0 for r in range(k)])
    from .linalg import _gfp_kernel
    kernel = _gfp_kernel(cols, p, k)
    if p ** len(kernel) > 4096:
        raise ValueError("subfield too large for root search")
    mod = list(src.modulus)
    for combo in itertools.product(range(p), repeat=len(kernel)):
        acc = 0
        for c, vec in zip(combo, kernel):
            if c:
                enc = dst._encode([(c * x) % p for x in vec])
                acc = dst._fadd(acc, enc)
        # evaluate src modulus at acc
        val, w = 0, 1
        for coeff in mod:
            if coeff:
                val = dst._fadd(val, dst._fmul(coeff, w))
            w = dst._fmul(w, acc)
        if val == 0 and (j == 1 or acc != 0):
            if j == 1:
                return Embedding(src, dst, 1)
            return Embedding(src, dst, acc)
    raise ValueError("no root of the source modulus found")
