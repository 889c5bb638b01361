"""Exact arithmetic in GF(p^k) and in the rational function field GF(p^k)(t).

The distinguished power q = p^e drives everything semilinear downstream:
frobenius(x, i) = x^(q^i) and its partial inverse qth_root.  Finite
descriptors require 2e | k so that the quadratic extension F_{q^2} embeds.

Every descriptor computes on raw scalars in a unique canonical form, so
equality is plain representation equality.  A finite field's scalar is the
base-p int encoding of a polynomial in the generator z; GF(p^k)(t)'s is ()
for zero, else a fraction in lowest terms with monic denominator, which
stays reduced without a gcd of every result (_RationalField).
FieldElement pairs a descriptor with one scalar.

Fields of order up to TABLE_CAP are _ZechField: log, antilog and Zech
tables over a primitive element g, built by a walk of order-1 steps of a
constant number of int operations each.  Everything else over GF(p) --
Rabin's irreducibility test of each modulus, the primitivity test of g,
the arithmetic of larger fields -- runs on one core, _PolyRing, which packs
a polynomial into an int and multiplies modulo f with three int products.
Building GF(3^10) takes 0.05 s and GF(2^16) 0.03 s on 2 shared CPUs.
"""

from __future__ import annotations

import itertools
import math
import re
from functools import lru_cache

from . import CostGuardError, InputError

# ---------------------------------------------------------------------------
# polynomials over the prime field GF(p), packed into ints


class _PolyRing:
    """GF(p)[z] modulo a polynomial f of degree k >= 1, on packed ints.

    Coefficient j of a polynomial sits in bits [j*w, (j+1)*w) of an int
    (Kronecker substitution).  The slots are wide enough that no sum of
    products spills into the next one, so a product of polynomials is one
    integer product, and `reduce` takes every coefficient mod p at once:
    x mod p = x - p*floor(x*m / 2^s) in each slot, m = ceil(2^s / p)
    (P. Barrett's method, run in all slots of one int).  A product is taken
    mod f by Barrett's method for polynomials, with mu = z^(2k) div f: two
    more integer products.  So a multiplication mod f is a constant number
    of int operations, whatever k is.  `pack` and `unpack` translate the
    base-p int encoding of field elements.
    """

    __slots__ = ("p", "k", "f", "w", "_m", "_s", "_ones", "_qmask",
                 "_pall", "_lowk", "_mu", "_fneg")

    def __init__(self, p, f):
        k = len(f) - 1
        self.p, self.k = p, k
        # the largest slot value any unreduced sum below reaches
        n = (k * (p - 1) ** 2 + p).bit_length()
        self._s = n + p.bit_length()
        self._m = -(-(1 << self._s) // p)
        self.w = w = n if p == 2 else n + self._s
        # slots enough for a product and for dividing z^(2k) by f
        ones = ((1 << (w * (2 * k + 2))) - 1) // ((1 << w) - 1)
        self._ones = ones
        self._qmask = ones * ((1 << n) - 1)
        self._pall = ones * p
        self._lowk = (1 << (w * k)) - 1
        self.f = sum(c << (w * j) for j, c in enumerate(f))
        self._fneg = self.reduce((self._pall & self._lowk)
                                 - (self.f & self._lowk))
        self._mu = self.divmod(1 << (w * 2 * k), self.f)[0]

    def reduce(self, x):
        """Every slot of x mod p, for slots up to the bound in __init__."""
        if self.p == 2:
            return x & self._ones
        return x - ((x * self._m >> self._s) & self._qmask) * self.p

    def pack(self, v):
        p, w = self.p, self.w
        x = sh = 0
        while v:
            v, d = divmod(v, p)
            x |= d << sh
            sh += w
        return x

    def unpack(self, x):
        p, w = self.p, self.w
        slot = (1 << w) - 1
        v = 0
        for sh in range((x.bit_length() - 1) // w * w, -1, -w):
            v = v * p + (x >> sh & slot)
        return v

    def degree(self, x):
        return (x.bit_length() - 1) // self.w

    def multiples(self, c, n):
        """The encodings of x*c mod f for every x < p^n, in order of x.  x*c
        is linear in the digits of x, so each product is one sum."""
        out = [0]
        zc = c
        for _ in range(n):
            out += [self.reduce(y + d * zc) for d in range(1, self.p)
                    for y in out]
            zc = self.mul(zc, 1 << self.w)
        return [self.unpack(x) for x in out]

    def sub(self, a, b):
        return self.reduce(a + self._pall - b)

    def mul(self, a, b):
        """a*b mod f, for a, b of degree below k."""
        wk, lowk = self.w * self.k, self._lowk
        c = self.reduce(a * b)
        q = self.reduce((c >> wk) * self._mu >> wk)
        return self.reduce((c & lowk) + (q * self._fneg & lowk))

    def pow(self, a, n):
        r = 1
        while n:
            if n & 1:
                r = self.mul(r, a)
            n >>= 1
            if n:
                a = self.mul(a, a)
        return r

    def divmod(self, a, b):
        """Quotient and remainder of a by a nonzero b, any degrees up to
        2k + 1."""
        p, w = self.p, self.w
        db = self.degree(b)
        inv = pow(b >> (w * db), p - 2, p)
        negb = self.reduce((self._pall & ((1 << (w * (db + 1))) - 1)) - b)
        q = 0
        while a:
            da = self.degree(a)
            if da < db:
                break
            c = (a >> (w * da)) * inv % p
            sh = w * (da - db)
            q |= c << sh
            a = self.reduce(a + (c * negb << sh))
        return q, a

    def irreducible(self):
        """Rabin's test (M. O. Rabin, SIAM J. Comput. 9, 1980): f of degree
        k is irreducible iff z^(p^k) = z mod f and gcd(z^(p^(k/l)) - z, f)
        = 1 for every prime l | k.  The z^(p^(k/l)) are met on the way to
        z^(p^k), one p-th power at a time."""
        p, k = self.p, self.k
        x = self.divmod(1 << self.w, self.f)[1]
        marks = {k // ell for ell in _prime_factors(k)}
        h, seen = x, []
        for j in range(1, k + 1):
            h = self.pow(h, p)
            if j in marks:
                seen.append(h)
        if h != x:
            return False
        for h in seen:
            a, b = self.f, self.sub(h, x)
            while b:
                a, b = b, self.divmod(a, b)[1]
            if self.degree(a) != 0:
                return False
        return True


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


def _is_prime(n):
    if n < 3:
        return n == 2
    return n % 2 == 1 and all(n % d for d in range(3, math.isqrt(n) + 1, 2))


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
    # so those candidates (k >= 2 always) are skipped untested.  The
    # coefficients of z .. z^(k-1) are the base-p digits of a counter, most
    # significant first, so no pool of p values is ever built.
    for c0 in range(1, p):
        for n in range(p ** (k - 1)):
            rest = []
            for _ in range(k - 1):
                n, c = divmod(n, p)
                rest.append(c)
            cand = [c0, *reversed(rest), 1]
            if _PolyRing(p, cand).irreducible():
                return tuple(cand)
    raise ValueError(f"no irreducible polynomial of degree {k} over GF({p})")


# finite fields up to this order get log/antilog/Zech tables; larger ones
# multiply polynomials in z
TABLE_CAP = 1 << 16


class FieldDescriptor:
    """A coefficient field: GF(p^k) or GF(p^k)(t), with q = p^e marked.

    Immutable.  Built only through field_make, which hands out one
    descriptor per (p, e, k, modulus, kind), so equality is identity.

    Every descriptor does its arithmetic on raw scalars through the same
    methods -- _fadd, _fneg, _fmul, _axpy (a row update in place),
    _finv, _fpow, _frob (a -> a^n for n = q^i, which the caller computes
    once), _root (the q-th root, None when there is none), _str, and
    _parse_scalar (a literal read straight to its scalar) -- and zero is
    the only false scalar.
    Finite fields above TABLE_CAP use the polynomial arithmetic here,
    smaller ones are _ZechField, and GF(p^k)(t) is _RationalField.
    """

    __slots__ = ("p", "e", "k", "modulus", "kind", "q", "order",
                 "finite_part", "_root_exp", "_spec", "_ring", "__weakref__")

    def __init__(self, p, e, k, modulus, kind):
        self.p = p
        self.e = e
        self.k = k
        self.modulus = tuple(modulus)
        self.kind = kind
        self.q = p ** e
        self.order = p ** k
        # the underlying finite field GF(p^k)
        self.finite_part = self
        # x -> x^q is onto GF(p^k), with inverse x -> x^(p^(k-e))
        self._root_exp = p ** (k - e)
        tail = "(t)" if kind == "rational-function" else ""
        mod = ",".join(str(c) for c in self.modulus)
        self._spec = f"{p}^{k}{tail} q={self.q} mod=[{mod}]"
        self._ring = _PolyRing(p, self.modulus)

    # -- construction helpers ------------------------------------------------

    def _decode(self, v):
        p = self.p
        out = []
        while v:
            out.append(v % p)
            v //= p
        return out

    def _coords(self, v):
        """The k base-p digits of v, low first, zero-padded."""
        dig = self._decode(v)
        return dig + [0] * (self.k - len(dig))

    def _encode(self, coeffs):
        v = 0
        for c in reversed(coeffs):
            v = v * self.p + c
        return v

    # -- identity ------------------------------------------------------------

    def __repr__(self):
        return f"FieldDescriptor({self.spec_string()!r})"

    def spec_string(self):
        return self._spec

    # -- scalar arithmetic ---------------------------------------------------

    def _fadd(self, a, b):
        if self.p == 2:
            return a ^ b
        R = self._ring
        return R.unpack(R.reduce(R.pack(a) + R.pack(b)))

    def _fneg(self, a):
        if self.p == 2:
            return a
        R = self._ring
        return R.unpack(R.sub(0, R.pack(a)))

    def _fmul(self, a, b):
        R = self._ring
        return R.unpack(R.mul(R.pack(a), R.pack(b)))

    def _axpy(self, acc, k, c, v):
        """acc[k + j] += c*v[j] for every nonzero v[j], in place: the row
        update of every matrix product and elimination, and the inner loop
        of GF(q)(t)'s polynomial products and divisions."""
        add, mul = self._fadd, self._fmul
        for j, x in enumerate(v, k):
            if x:
                acc[j] = add(acc[j], mul(c, x))

    def _finv(self, a):
        if a == 0:
            raise ZeroDivisionError("inversion of zero field element")
        return self._fpow(a, self.order - 2)

    def _fpow(self, a, n):
        if a == 0:
            return 0 if n else 1
        R = self._ring
        return R.unpack(R.pow(R.pack(a), n % (self.order - 1)))

    def _frob(self, a, n):
        return self._fpow(a, n)

    def _root(self, a):
        return self._fpow(a, self._root_exp)

    def _str(self, a):
        return "+".join(_terms(self._decode(a), "z", str)) if a else "0"

    def _const(self, v):
        """The scalar of the constant with finite-part encoding v."""
        return v

    def _degree(self, a):
        """The larger degree in t of a's numerator and denominator: 0 on a
        finite field, where powers reduce and products keep their size."""
        return 0

    def _at_zero(self, a):
        """The finite-part scalar of a at t = 0."""
        return a

    # -- element constructors ------------------------------------------------

    def _make(self, val):
        return FieldElement(self, val)

    def zero(self):
        return self._make(self._const(0))

    def one(self):
        return self._make(self._const(1))

    def from_int(self, n):
        return self._make(self._const(n % self.p))

    def gen(self):
        """The generator z of GF(p^k) over GF(p)."""
        return self._make(self._const(self.p))

    def t_gen(self):
        raise InputError("t exists only in a rational function field")

    def elements(self):
        """All elements, finite fields only."""
        for v in range(self.order):
            yield self._make(v)

    def random_element(self, rng):
        return self._make(rng.randrange(self.order))

    def _parse_scalar(self, text):
        """The scalar of the element literal text."""
        return _parse_element(self, text).val

    def parse(self, text):
        return self._make(self._parse_scalar(text))


class _ZechField(FieldDescriptor):
    """GF(p^k) of order at most TABLE_CAP, with arithmetic by table lookup.

    Over a primitive element g: _exp[i] = g^i for 0 <= i < 2(order-1), so a
    sum of two logarithms needs no reduction; _log[g^i] = i; and
    _zech[i] = log(1 + g^i), None where 1 + g^i = 0 (K. Huber, "Some
    comments on Zech's logarithms", IEEE Trans. Inf. Theory 36, 1990).
    Then g^a + g^b = g^(a + zech[b - a]).  Elements keep the base-p int
    encoding; the tables only translate it.

    g is the first primitive element in encoding order.  The tables come
    from order-1 multiplications by g, each a constant number of int
    operations: split v = hi*p^m + lo at m = k//2 digits, and
    v*g = (hi*z^m*g) + (lo*g), two lookups in tables of about sqrt(order)
    entries.  For p = 2 the sum is an xor; for odd p it is a digit-wise sum
    mod p, looked up half by half in a table of order entries.
    """

    __slots__ = ("_exp", "_log", "_zech", "_half", "_names", "_by_name")

    def __init__(self, p, e, k, modulus, kind):
        super().__init__(p, e, k, modulus, kind)
        R = self._ring
        n1 = self.order - 1
        cofactors = [n1 // ell for ell in _prime_factors(n1)]
        # constants lie in GF(p), so the first candidate is z
        g = next(v for v in range(p, self.order)
                 if all(R.pow(R.pack(v), c) != 1 for c in cofactors))
        m = k // 2
        h, H = p ** m, p ** (k - m)
        lo_g = R.multiples(R.pack(g), m)
        hi_g = R.multiples(R.mul(R.pack(g), R.pack(h)), k - m)
        exp = [0] * n1
        v = 1
        if p == 2:
            for i in range(n1):
                exp[i] = v
                v = hi_g[v >> m] ^ lo_g[v & h - 1]
        else:
            add = _digit_sums(p, k - m)
            # halves of the two products, as row and column of add
            ah = [x // h * H for x in hi_g]
            al = [x % h * H for x in hi_g]
            bh = [x // h for x in lo_g]
            bl = [x % h for x in lo_g]
            for i in range(n1):
                exp[i] = v
                hi, lo = divmod(v, h)
                v = add[ah[hi] + bh[lo]] * h + add[al[hi] + bl[lo]]
        log = [None] * self.order
        for i, x in enumerate(exp):
            log[x] = i
        # up[x] = log(x + 1): adding 1 steps the constant digit, mod p
        up = log[1:] + [None]
        up[p - 1::p] = log[::p]
        self._exp = exp + exp
        self._log = log
        self._zech = list(map(up.__getitem__, exp))
        self._half = n1 // 2
        self._names = {}
        self._by_name = {}

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

    def _axpy(self, acc, k, c, v):
        if not c:
            return
        # the tables read once per call
        exp, log = self._exp, self._log
        lc = log[c]
        if self.p == 2:
            # a sum is an xor
            for j, x in enumerate(v, k):
                if x:
                    acc[j] ^= exp[lc + log[x]]
            return
        # _fadd inlined; log(c*x) is reduced below order-1 first, since the
        # difference with log acc[j] must index zech from either end
        zech, n1 = self._zech, self.order - 1
        for j, x in enumerate(v, k):
            if x:
                lb = (lc + log[x]) % n1
                a = acc[j]
                if a:
                    la = log[a]
                    z = zech[lb - la]
                    acc[j] = 0 if z is None else exp[la + z]
                else:
                    acc[j] = exp[lb]

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
            name = self._names[a] = super()._str(a)
        return name

    def _parse_scalar(self, text):
        # a literal spelled as _str prints it is one lookup; only such
        # canonical names enter the table, so it holds at most order entries
        v = self._by_name.get(text)
        if v is None:
            v = super()._parse_scalar(text)
            if self._str(v) == text:
                self._by_name[text] = v
        return v


def _digit_sums(p, n):
    """add[a * p^n + b] = the digit-wise sum mod p of a, b < p^n in base p.

    Row a = a1*p + a0 is row a1 one digit shorter, shifted up a digit, plus
    the one-digit row a0; each entry is one addition."""
    one = [[(a + b) % p for b in range(p)] for a in range(p)]
    rows = one
    for _ in range(n - 1):
        up = [[x * p for x in row] for row in rows]
        rows = [[x + s for x in row for s in one[a0]]
                for row in up for a0 in range(p)]
    return list(itertools.chain.from_iterable(rows))


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
        raise InputError(f"{p} is not prime")
    if e < 1 or k < 1:
        raise InputError("e and k must be positive")
    if k % (2 * e) != 0:
        raise InputError(f"2e = {2 * e} does not divide k = {k}")
    if kind not in ("finite", "rational-function"):
        raise ValueError(f"unknown field kind {kind!r}")
    # a default modulus passed Rabin's test when it was chosen
    chosen = modulus is None
    if chosen:
        modulus = _default_modulus(p, k)
    else:
        modulus = tuple(c % p for c in modulus)
    key = (p, e, k, modulus, kind)
    got = _FIELDS.get(key)
    if got is not None:
        return got
    if len(modulus) != k + 1 or modulus[-1] == 0:
        raise InputError("modulus must have degree k")
    if not chosen and not _PolyRing(p, modulus).irreducible():
        raise InputError("modulus is reducible")
    if kind == "rational-function":
        cls = _RationalField
    else:
        cls = _ZechField if p ** k <= TABLE_CAP else FieldDescriptor
    F = cls(p, e, k, modulus, kind)
    # two threads building the same field both get the one stored first
    return _FIELDS.setdefault(key, F)


# ---------------------------------------------------------------------------
# polynomials in t over the finite part, coefficients = int encodings, as
# tuples with no trailing zero


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
    if len(a) == 1 and a[0] == 1:
        return b
    if len(b) == 1 and b[0] == 1:
        return a
    out = [0] * (len(a) + len(b) - 1)
    axpy = F._axpy
    for i, c in enumerate(a):
        if c:
            axpy(out, i, c, b)
    # the leading coefficients multiply to a nonzero one
    return tuple(out)


def _poly_rem(F, a, b, q=None):
    """The remainder of a by b, by long division on F._axpy.  The quotient
    is filled into q, a list of len(a) - len(b) + 1 zeros, only when one is
    passed: Euclid needs the remainders alone (Knuth, TAOCP vol. 2,
    4.6.1)."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    db = len(b) - 1
    if len(a) <= db:
        return a
    inv = F._finv(b[-1])
    low = b[:db]
    r = list(a)
    axpy = F._axpy
    # each step cancels the top coefficient, which is then never read again
    for sh in range(len(r) - 1 - db, -1, -1):
        c = r[sh + db]
        if c:
            c = F._fmul(c, inv)
            if q is not None:
                q[sh] = c
            axpy(r, sh, F._fneg(c), low)
    return _poly_trim(r[:db])


def _poly_divmod(F, a, b):
    q = [0] * max(0, len(a) - len(b) + 1)
    r = _poly_rem(F, a, b, q)
    return tuple(q), r


def _poly_gcd(F, a, b):
    """The monic gcd, by Euclid on remainders."""
    while len(b) > 1:
        a, b = b, _poly_rem(F, a, b)
    if b:
        # a nonzero constant divides everything
        return (1,)
    if a and a[-1] != 1:
        inv = F._finv(a[-1])
        a = tuple(F._fmul(c, inv) for c in a)
    return a


def _poly_cancel(F, a, b):
    """(g, a/g, b/g) for the monic g = gcd(a, b) of nonzero a and b."""
    if len(a) == 1 or len(b) == 1:
        return (1,), a, b
    g = _poly_gcd(F, a, b)
    if len(g) == 1:
        return g, a, b
    return g, _poly_divmod(F, a, g)[0], _poly_divmod(F, b, g)[0]


def _poly_pow(F, a, n):
    r = (1,)
    while n:
        if n & 1:
            r = _poly_mul(F, r, a)
        n >>= 1
        if n:
            a = _poly_mul(F, a, a)
    return r


class _RationalField(FieldDescriptor):
    """GF(p^k)(t), over the finite field held in finite_part.

    A scalar is () for zero, and otherwise the pair (num, den) of
    coefficient tuples over the finite part, in lowest terms with den
    monic.  The ops take reduced operands and return a reduced result,
    taking gcds only of the parts that can share a factor (P. Henrici,
    J. ACM 3, 1956; Knuth, TAOCP vol. 2, 4.5.1); a gcd against a constant
    is never taken.
    """

    __slots__ = ()

    def __init__(self, p, e, k, modulus, kind):
        super().__init__(p, e, k, modulus, kind)
        self.finite_part = field_make(p, e, k, modulus, "finite")

    def _fadd(self, x, y):
        """x + y = (n1*(d2/g) + n2*(d1/g)) / (d1*(d2/g)) for g = gcd(d1, d2);
        the numerator can share a factor with g only."""
        if not x:
            return y
        if not y:
            return x
        F = self.finite_part
        (n1, d1), (n2, d2) = x, y
        g, c1, c2 = _poly_cancel(F, d1, d2)
        num = _poly_add(F, _poly_mul(F, n1, c2), _poly_mul(F, n2, c1))
        if not num:
            return ()
        # the denominator is d1*c2 = g*c1*c2, with g divided by h = gcd(num, g)
        h, num, g_h = _poly_cancel(F, num, g)
        den = d1 if len(h) == 1 else _poly_mul(F, g_h, c1)
        return (num, _poly_mul(F, den, c2))

    def _fneg(self, x):
        return (_poly_neg(self.finite_part, x[0]), x[1]) if x else x

    def _fmul(self, x, y):
        """x*y: n1 cancelled against d2, n2 against d1, then multiplied."""
        if not x or not y:
            return ()
        F = self.finite_part
        (n1, d1), (n2, d2) = x, y
        _, n1, d2 = _poly_cancel(F, n1, d2)
        _, n2, d1 = _poly_cancel(F, n2, d1)
        return (_poly_mul(F, n1, n2), _poly_mul(F, d1, d2))

    def _finv(self, x):
        if not x:
            raise ZeroDivisionError("inversion of zero field element")
        n, d = x
        if n[-1] != 1:
            # coprime already: only the new denominator is made monic
            F = self.finite_part
            inv = F._finv(n[-1])
            n = tuple(F._fmul(c, inv) for c in n)
            d = tuple(F._fmul(c, inv) for c in d)
        return (d, n)

    def _fpow(self, x, n):
        if not x:
            return x if n else self._const(1)
        # powers of coprime polynomials stay coprime
        F = self.finite_part
        return (_poly_pow(F, x[0], n), _poly_pow(F, x[1], n))

    def _frob(self, x, n):
        """sum c_j t^j -> sum c_j^n t^(j n), on both polynomials."""
        F = self.finite_part

        def tw(poly):
            out = [0] * ((len(poly) - 1) * n + 1)
            for j, c in enumerate(poly):
                if c:
                    out[j * n] = F._frob(c, n)
            return tuple(out)

        return (tw(x[0]), tw(x[1])) if x else x

    def _root(self, x):
        """The root exists iff every exponent of t in the reduced fraction
        is divisible by q."""
        F, q = self.finite_part, self.q

        def rt(poly):
            out = [0] * ((len(poly) - 1) // q + 1)
            for j, c in enumerate(poly):
                if c:
                    if j % q != 0:
                        return None
                    out[j // q] = F._root(c)
            return tuple(out)

        if not x:
            return x
        rn, rd = rt(x[0]), rt(x[1])
        return None if rn is None or rd is None else (rn, rd)

    def _str(self, x):
        if not x:
            return "0"
        num, den = x
        nterms = _terms(num, "t", self.finite_part._str)
        ns = "+".join(nterms)
        if den == (1,):
            return ns
        if len(nterms) > 1 or ("+" in ns and not ns.startswith("(")):
            ns = f"({ns})"
        dterms = _terms(den, "t", self.finite_part._str)
        ds = "+".join(dterms)
        if len(dterms) > 1 or "*" in ds:
            ds = f"({ds})"
        return f"{ns}/{ds}"

    def _const(self, v):
        return ((v,), (1,)) if v else ()

    def _degree(self, x):
        return max(len(x[0]), len(x[1])) - 1 if x else 0

    def _at_zero(self, x):
        if not x:
            return 0
        n0, d0 = x[0][0], x[1][0]
        if d0 == 0:
            raise ZeroDivisionError("denominator vanishes at t = 0")
        F = self.finite_part
        return F._fmul(n0, F._finv(d0))

    def t_gen(self):
        return self._make(((0, 1), (1,)))

    def elements(self):
        raise ValueError("cannot enumerate a rational function field")

    def random_element(self, rng):
        """A random fraction with numerator and denominator of degree at
        most 1."""
        def poly():
            c = _poly_trim([rng.randrange(self.order) for _ in range(2)])
            return self._make((c, (1,)) if c else ())

        num = poly()
        while True:
            den = poly()
            if den:
                return num / den


class FieldElement:
    """An element of a FieldDescriptor: the field and its canonical scalar
    (see FieldDescriptor).  Immutable and hashable."""

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
        return not self.val

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        F = self.field
        return F._make(F._fadd(self.val, other.val))

    __radd__ = __add__

    def __neg__(self):
        F = self.field
        return F._make(F._fneg(self.val))

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
        return F._make(F._fmul(self.val, other.val))

    __rmul__ = __mul__

    def inverse(self):
        F = self.field
        return F._make(F._finv(self.val))

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
        return F._make(F._fpow(self.val, n))

    # -- identity ------------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, FieldElement)
                and self.field is other.field and self.val == other.val)

    def __hash__(self):
        return hash((self.field, self.val))

    def __repr__(self):
        return f"<{self}>"

    def __str__(self):
        return self.field._str(self.val)

    def __bool__(self):
        return not self.is_zero()


# ---------------------------------------------------------------------------
# Frobenius and q-th roots


def frobenius(x, i):
    """x ** (q ** i), the i-fold q-power Frobenius."""
    if i == 0:
        return x
    F = x.field
    return F._make(F._frob(x.val, F.q ** i))


def qth_root(x):
    """The y with y^q = x, or None if x is not a q-th power.

    Over the finite part the Frobenius is an automorphism, so the root
    always exists: y = x^(p^(k-e)).  Over GF(p^k)(t) the root exists iff
    every exponent of t appearing in the reduced fraction is divisible by q.
    """
    F = x.field
    r = F._root(x.val)
    return None if r is None else F._make(r)


def evaluate_at_zero(x):
    """Substitute t = 0 in a rational function field element.

    Returns an element of the finite part; errors if the denominator
    vanishes at t = 0.
    """
    F = x.field
    return F.finite_part._make(F._at_zero(x.val))


# ---------------------------------------------------------------------------
# printing


def _terms(coeffs, var, name):
    """The nonzero terms of sum(c_i var^i), highest power first; name(c)
    prints a coefficient, parenthesized when it is a sum."""
    terms = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if not c:
            continue
        cs = name(c)
        if i == 0:
            terms.append(cs)
            continue
        v = var if i == 1 else f"{var}^{i}"
        if c == 1:
            terms.append(v)
        else:
            terms.append(f"({cs})*{v}" if "+" in cs else f"{cs}*{v}")
    return terms


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
                raise InputError(
                    f"bad element literal at position {pos}: {text[pos:]!r}")
            break
        out.append(m.group(1))
        pos = m.end()
    return out


# a GF(q)(t) literal may not reach a higher degree in t; a product or power
# past it is refused before it is formed (dense products cost degree^2)
_LITERAL_DEGREE_CAP = 1024


def _check_literal_degree(deg, times=1):
    d = deg * times
    if d > _LITERAL_DEGREE_CAP:
        try:
            shown = str(d)
        except ValueError:  # d is past the int-to-str digit limit
            shown = f"{deg} * {times}"
        raise CostGuardError(f"element literal reaches degree {shown} in t; "
                             f"guard is degree <= {_LITERAL_DEGREE_CAP}")


def _parse_int(digits):
    """The int a run of input digits spells, refused past Python's limit."""
    try:
        return int(digits)
    except ValueError as ex:
        raise InputError(str(ex)) from None


# parentheses nest at most this deep in an element literal; the parser
# recurses once per level
_MAX_NESTING = 100


class _ElementParser:
    def __init__(self, field, tokens):
        self.field = field
        self.toks = tokens
        self.i = 0
        self.depth = 0

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
            if op == "/" and not w:
                raise InputError("division by zero in element literal")
            deg = self.field._degree
            _check_literal_degree(deg(v.val) + deg(w.val))
            v = v * w if op == "*" else v / w
        return v

    def factor(self):
        v = self.atom()
        while self.peek() == "^":
            self.take()
            t = self.take()
            if t is None or not t.isdigit():
                raise InputError("expected integer exponent after '^'")
            n = _parse_int(t)
            _check_literal_degree(self.field._degree(v.val), n)
            v = v ** n
        return v

    def atom(self):
        t = self.take()
        if t is None:
            raise InputError("unexpected end of element literal")
        if t.isdigit():
            return self.field.from_int(_parse_int(t))
        if t == "z":
            return self.field.gen()
        if t == "t":
            return self.field.t_gen()
        if t == "(":
            self.depth += 1
            if self.depth > _MAX_NESTING:
                raise InputError(f"parentheses nest deeper than "
                                 f"{_MAX_NESTING} in element literal")
            v = self.expr()
            if self.take() != ")":
                raise InputError("unbalanced parentheses in element literal")
            self.depth -= 1
            return v
        raise InputError(f"unexpected token {t!r} in element literal")


def _parse_element(field, text):
    p = _ElementParser(field, _tokenize(text))
    v = p.expr()
    if p.peek() is not None:
        raise InputError(f"trailing tokens in element literal: {p.peek()!r}")
    return v


# without mod=, field_make searches for the first irreducible modulus of
# degree k: about k candidates, each a Rabin test of k log2(p) squarings of
# degree-k polynomials.  A spec past this bound on k^4 log2(p) is refused
# before the search; it admits 2^64 and 3^40 and refuses 2^80 and 3^64.
# With mod=, field_make runs one such test, and a spec is refused past the
# same bound on k^3 log2(p): it admits degree 256 over GF(2) and refuses
# degree 400.
_MODULUS_SEARCH_CAP = 2 ** 24

# field_make tests p for primality by trial division up to sqrt(p); a spec
# with p past this bound is refused before the test.
_PRIME_CAP = 2 ** 44

# a modulus list is comma-separated digit runs, each with optional spaces
_SPEC_RE = re.compile(r"^\s*(\d+)\^(\d+)(\(t\))?\s+q=(\d+)"
                      r"(?:\s+mod=\[(\s*\d+\s*(?:,\s*\d+\s*)*)\])?\s*$")


def parse_field_spec(text):
    """Parse a field spec string like '2^2 q=2 mod=[1,1,1]' or '2^2(t) q=2'."""
    m = _SPEC_RE.match(text)
    if not m:
        raise InputError(f"bad field spec: {text!r}")
    p, k, q = map(_parse_int, m.group(1, 2, 4))
    kind = "rational-function" if m.group(3) else "finite"
    if p < 2:
        raise InputError(f"{p} is not prime")
    if p >= _PRIME_CAP:
        raise CostGuardError(
            f"field spec with p = {p} needs a primality test by trial "
            f"division; guard is p < 2^{_PRIME_CAP.bit_length() - 1}")
    e = 0
    qq = q
    while qq > 1 and qq % p == 0:
        qq //= p
        e += 1
    if qq != 1 or e == 0:
        raise InputError(f"q = {q} is not a positive power of p = {p}")
    modulus = None
    if m.group(5) is not None:
        modulus = tuple(map(_parse_int, m.group(5).split(",")))
        # a k this large is past the bound, and k^3 would not fit a float
        if k >= 2 ** 64 or k ** 3 * math.log2(p) > _MODULUS_SEARCH_CAP:
            raise CostGuardError(
                f"field spec {p}^{k} with mod= needs an irreducibility test "
                f"of degree {k}; guard is k^3 * log2(p) <= "
                f"{_MODULUS_SEARCH_CAP} with mod=")
    else:
        _check_modulus_search(p, k, f"field spec {p}^{k} without mod=")
    return field_make(p, e, k, modulus, kind)


def _check_modulus_search(p, k, what):
    """Refuse, before it starts, a search for a default modulus of degree k
    over GF(p) whose cost k^4 log2(p) is past _MODULUS_SEARCH_CAP."""
    # a k this large is past the bound, and k^4 would not fit a float
    if k >= 2 ** 64 or k ** 4 * math.log2(p) > _MODULUS_SEARCH_CAP:
        raise CostGuardError(
            f"{what} needs a search for an irreducible polynomial of degree "
            f"{k}; guard is k^4 * log2(p) <= {_MODULUS_SEARCH_CAP} without "
            f"mod=")


# ---------------------------------------------------------------------------
# extensions and subfield embeddings (used by the Hermitian machinery)


class Embedding:
    """A field embedding GF(p^j) -> GF(p^k) given by the image of z."""

    __slots__ = ("src", "dst", "gen_image", "_preimages")

    def __init__(self, src, dst, gen_image):
        self.src = src
        self.dst = dst
        self.gen_image = gen_image  # int encoding in dst
        self._preimages = None

    def apply(self, x):
        if x.field != self.src:
            raise ValueError("element not in the source field")
        D = self.dst
        return D._make(_evaluate(D, self.src._decode(x.val), self.gen_image))

    def preimage(self, y):
        """Inverse on the image subfield; None if y is not in the image."""
        if y.field != self.dst:
            raise ValueError("element not in the target field")
        if self.src is self.dst:
            return y
        if self._preimages is None:
            # embed refuses a proper subfield above _ROOT_SEARCH_CAP
            # elements, which bounds this table
            self._preimages = {self.apply(x).val: x
                               for x in self.src.elements()}
        return self._preimages.get(y.val)


def _evaluate(D, coeffs, x):
    """sum(c_i x^i) in D, for GF(p) coefficients c_i and x an encoding in
    D."""
    acc, w = 0, 1
    for c in coeffs:
        if c:
            acc = D._fadd(acc, D._fmul(c, w))
        w = D._fmul(w, x)
    return acc


@lru_cache(maxsize=None)
def extension_field(base, r):
    """The degree-r extension of base: base itself when r = 1, otherwise
    GF(p^(k*r)) with the same (p, e) and its default modulus, whose search
    has the bound of a spec without mod=."""
    if base.kind != "finite":
        raise ValueError("extensions are taken of finite fields only")
    if r == 1:
        return base
    _check_modulus_search(base.p, base.k * r,
                          f"the degree-{r} extension of GF({base.p}^{base.k})")
    return field_make(base.p, base.e, base.k * r, None, "finite")


# embed scans the image subfield for a root of the source modulus
_ROOT_SEARCH_CAP = 4096


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
        return Embedding(src, dst, src.p)
    p, j, k = src.p, src.k, dst.k
    # the subfield of order p^j is refused before its basis is computed
    if p ** j > _ROOT_SEARCH_CAP:
        raise CostGuardError(
            f"embedding GF({p}^{j}) into GF({p}^{k}) scans a subfield of "
            f"{p}^{j} elements for a root; guard is "
            f"<= {_ROOT_SEARCH_CAP} elements")
    # subfield of order p^j = fixed points of Frobenius^j; compute the
    # GF(p)-kernel of (x -> x^(p^j)) - id on dst
    cols = []
    for i in range(k):
        basis_elt = p ** i
        img = dst._fpow(basis_elt, p ** j)
        cols.append(dst._coords(dst._fadd(img, dst._fneg(basis_elt))))
    from .linalg import _gfp_kernel
    kernel = _gfp_kernel(cols, p, k)
    for combo in itertools.product(range(p), repeat=len(kernel)):
        acc = 0
        for c, vec in zip(combo, kernel):
            if c:
                enc = dst._encode([(c * x) % p for x in vec])
                acc = dst._fadd(acc, enc)
        if _evaluate(dst, src.modulus, acc) == 0:
            return Embedding(src, dst, acc)
    raise ValueError("no root of the source modulus found")
