"""Seeded inputs and output checks, with arithmetic of the benchmark's own.

Nothing here imports qbic: inputs are produced as matrix-file text by this
module's own field arithmetic, so a change to the program's element
representation, formatting or random helpers cannot change the workload,
and the checks do not trust the program's arithmetic either.
"""

import re

# The field ladder.  Every spec carries an explicit modulus, so a change to
# the program's default-modulus search cannot change the inputs.  Each
# finite field is F_{q^2} for its own q.
SPECS = {
    "gf4": "2^2 q=2 mod=[1,1,1]",
    "gf9": "3^2 q=3 mod=[1,0,1]",
    "gf16": "2^4 q=4 mod=[1,1,0,0,1]",
    "gf25": "5^2 q=5 mod=[1,1,1]",
    "gf256": "2^8 q=16 mod=[1,0,0,0,1,1,0,1,1]",
    "gf1024": "2^10 q=32 mod=[1,0,0,0,0,0,0,1,0,0,1]",
    "gf4t": "2^2(t) q=2 mod=[1,1,1]",
}

_SPEC_RE = re.compile(r"(\d+)\^(\d+)(\(t\))? q=(\d+) mod=\[([\d,]+)\]")


class GF:
    """GF(p^k) on base-p integer encodings (coefficient of z^i is digit i),
    the same encoding the matrix-file text spells out term by term."""

    def __init__(self, spec):
        m = _SPEC_RE.fullmatch(spec)
        self.spec = spec
        self.p, self.k = int(m.group(1)), int(m.group(2))
        self.rational = bool(m.group(3))
        self.q = int(m.group(4))
        self.mod = [int(c) for c in m.group(5).split(",")]
        self.order = self.p ** self.k
        self._exp, self._log = self._log_tables()

    def digits(self, a):
        out = []
        for _ in range(self.k):
            out.append(a % self.p)
            a //= self.p
        return out

    def encode(self, digits):
        v = 0
        for c in reversed(digits):
            v = v * self.p + c
        return v

    def add(self, a, b):
        if self.p == 2:
            return a ^ b
        return self.encode([(x + y) % self.p
                            for x, y in zip(self.digits(a), self.digits(b))])

    def _slow_mul(self, a, b):
        p, k = self.p, self.k
        da, db = self.digits(a), self.digits(b)
        prod = [0] * (2 * k - 1)
        for i, x in enumerate(da):
            if x:
                for j, y in enumerate(db):
                    prod[i + j] = (prod[i + j] + x * y) % p
        for d in range(2 * k - 2, k - 1, -1):
            c = prod[d]
            if c:
                for i, mi in enumerate(self.mod):
                    prod[d - k + i] = (prod[d - k + i] - c * mi) % p
        return self.encode(prod[:k])

    def _log_tables(self):
        n = self.order - 1
        for g in range(2, self.order):
            exp = [1]
            x = g
            while x != 1:
                exp.append(x)
                x = self._slow_mul(x, g)
            if len(exp) == n:
                log = [0] * self.order
                for i, v in enumerate(exp):
                    log[v] = i
                return exp, log
        raise ValueError(f"no primitive element in {self.spec}")

    def mul(self, a, b):
        if not a or not b:
            return 0
        return self._exp[(self._log[a] + self._log[b]) % (self.order - 1)]

    def power(self, a, e):
        if not a:
            return 0 if e else 1
        return self._exp[(self._log[a] * e) % (self.order - 1)]

    def text(self, a):
        """The program's canonical spelling: terms from high degree down."""
        if not a:
            return "0"
        terms = []
        for i, c in reversed(list(enumerate(self.digits(a)))):
            if not c:
                continue
            if i == 0:
                terms.append(str(c))
                continue
            var = "z" if i == 1 else f"z^{i}"
            terms.append(var if c == 1 else f"{c}*{var}")
        return "+".join(terms)

    _TERM_RE = re.compile(r"(?:(\d+)\*)?z(?:\^(\d+))?|(\d+)")

    def parse(self, s):
        """Inverse of text(), for the program's printed finite elements."""
        digits = [0] * self.k
        if s == "0":
            return 0
        for term in s.split("+"):
            m = self._TERM_RE.fullmatch(term)
            if m is None:
                raise ValueError(f"unexpected element text {s!r}")
            if m.group(3) is not None:
                digits[0] = (digits[0] + int(m.group(3))) % self.p
            else:
                i = int(m.group(2)) if m.group(2) else 1
                c = int(m.group(1)) if m.group(1) else 1
                digits[i] = (digits[i] + c) % self.p
        return self.encode(digits)


class PolyRing:
    """GF(p^k)[t] with coefficient lists, low degree first; the q-twist
    raises coefficients to the q-th power and t to t^q."""

    def __init__(self, F):
        self.F = F

    def trim(self, a):
        while a and a[-1] == 0:
            a = a[:-1]
        return a

    def add(self, a, b):
        F = self.F
        n = max(len(a), len(b))
        a, b = a + [0] * (n - len(a)), b + [0] * (n - len(b))
        return self.trim([F.add(x, y) for x, y in zip(a, b)])

    def mul(self, a, b):
        if not a or not b:
            return []
        F = self.F
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] = F.add(out[i + j], F.mul(x, y))
        return self.trim(out)

    def twist(self, a):
        F, q = self.F, self.F.q
        out = [0] * ((len(a) - 1) * q + 1) if a else []
        for i, c in enumerate(a):
            out[i * q] = F.power(c, q)
        return out

    def text(self, a):
        if not a:
            return "0"
        terms = []
        for i in range(len(a) - 1, -1, -1):
            c = a[i]
            if not c:
                continue
            cs = self.F.text(c)
            if i == 0:
                terms.append(cs)
                continue
            var = "t" if i == 1 else f"t^{i}"
            terms.append(var if c == 1 else f"({cs})*{var}")
        return "+".join(terms)


class Ring:
    """Uniform view used by the matrix helpers: scalars of GF(p^k), or
    polynomials in t over it for the rational-function field."""

    def __init__(self, spec):
        self.F = GF(spec)
        self.poly = PolyRing(self.F) if self.F.rational else None
        self.zero = [] if self.poly else 0
        self.one = [1] if self.poly else 1

    def add(self, a, b):
        return self.poly.add(a, b) if self.poly else self.F.add(a, b)

    def mul(self, a, b):
        return self.poly.mul(a, b) if self.poly else self.F.mul(a, b)

    def twist(self, a):
        return self.poly.twist(a) if self.poly else self.F.power(a, self.F.q)

    def text(self, a):
        return self.poly.text(a) if self.poly else self.F.text(a)

    def const(self, c):
        return ([c] if c else []) if self.poly else c

    def random(self, rng, nonzero=False):
        F = self.F
        while True:
            if self.poly:
                # a polynomial of degree <= 1: conjugates stay small enough
                # that one type computation costs milliseconds, not seconds
                a = self.poly.trim([rng.randrange(F.order) for _ in range(2)])
            else:
                a = rng.randrange(F.order)
            if a or not nonzero:
                return a


def matmul(R, A, B):
    n, m, l = len(A), len(B), len(B[0])
    out = [[R.zero] * l for _ in range(n)]
    for i in range(n):
        for j in range(l):
            acc = R.zero
            for s in range(m):
                if A[i][s] != R.zero and B[s][j] != R.zero:
                    acc = R.add(acc, R.mul(A[i][s], B[s][j]))
            out[i][j] = acc
    return out


def twisted_congruence(R, B, A):
    """transpose(A^[1]) . B . A"""
    At = [[R.twist(A[j][i]) for j in range(len(A))] for i in range(len(A))]
    return matmul(R, matmul(R, At, B), A)


def random_invertible(R, n, rng):
    """L . U . P with L unit lower, U upper with nonzero constant diagonal
    and P a permutation: invertible by construction, over any ring here."""
    L = [[R.one if i == j else (R.random(rng) if i > j else R.zero)
          for j in range(n)] for i in range(n)]
    U = [[R.const(rng.randrange(1, R.F.order)) if i == j
          else (R.random(rng) if i < j else R.zero)
          for j in range(n)] for i in range(n)]
    perm = list(range(n))
    rng.shuffle(perm)
    P = [[R.one if perm[i] == j else R.zero for j in range(n)]
         for i in range(n)]
    return matmul(R, matmul(R, L, U), P)


# -- types ------------------------------------------------------------------


def all_types(n):
    """Every type of dimension n as (a, {m: b_m}), in a fixed order."""
    out = []

    def go(rem, m, b):
        if m > n:
            out.append((rem, dict(b)))
            return
        for bm in range(rem // m + 1):
            if bm:
                b[m] = bm
            go(rem - m * bm, m + 1, b)
            if bm:
                del b[m]

    go(n, 1, {})
    out.sort(key=lambda t: (t[0],) + tuple(t[1].get(m, 0)
                                           for m in range(1, n + 1)))
    return out


def type_str(a, b):
    """The program's type notation, e.g. 0^2+1+N3."""
    terms = []
    if b.get(1):
        terms.append("0" if b[1] == 1 else f"0^{b[1]}")
    if a:
        terms.append("1" if a == 1 else f"1^{a}")
    for m in sorted(b):
        if m > 1:
            terms.append(f"N{m}" if b[m] == 1 else f"N{m}^{b[m]}")
    return "+".join(terms)


def parse_type(text):
    """'0^2+1+N3' -> (1, {1: 2, 3: 1}); the inverse of type_str."""
    a, b = 0, {}
    for term in text.split("+"):
        base, _, mult = term.partition("^")
        mult = int(mult) if mult else 1
        if base == "1":
            a += mult
        else:
            m = 1 if base == "0" else int(base[1:])
            b[m] = b.get(m, 0) + mult
    return a, b


def standard_gram(R, a, b):
    """1^a first, then N_m blocks with m increasing (zero diagonal Jordan
    blocks with ones on the superdiagonal)."""
    n = a + sum(m * bm for m, bm in b.items())
    G = [[R.zero] * n for _ in range(n)]
    for i in range(a):
        G[i][i] = R.one
    off = a
    for m in sorted(b):
        for _ in range(b[m]):
            for i in range(m - 1):
                G[off + i][off + i + 1] = R.one
            off += m
    return G


def matrix_text(R, M):
    lines = [f"field: {R.F.spec}", f"n: {len(M)}"]
    lines += [" ".join(R.text(x) for x in row) for row in M]
    return "\n".join(lines) + "\n"


def conjugate_text(R, a, b, rng):
    """Matrix-file text of a seeded twisted conjugate of the standard Gram
    matrix of type (a; b)."""
    S = standard_gram(R, a, b)
    A = random_invertible(R, len(S), rng)
    return matrix_text(R, twisted_congruence(R, S, A))


# Degeneration families over GF(q^2)(t): the Gram matrix of each family as
# (n, entries (i, j, "1" or "t")) and the generic type it must have.
def _chain(off, m):
    return [(off + i, off + i + 1, "1") for i in range(1, m)]


def witness_gram(family, s, t=None):
    if family == 1:
        n = 2 * s + 1
        ent = _chain(0, 2 * s - 1) + [(2 * s - 1, 2 * s, "t"),
                                      (2 * s, 2 * s + 1, "1"),
                                      (2 * s + 1, 2 * s, "1")]
        generic = (0, {2 * s + 1: 1})
    elif family == 2:
        n = 2 * s
        ent = _chain(0, 2 * s - 1) + [(2 * s - 1, 2 * s, "t"),
                                      (2 * s, 2 * s, "1")]
        generic = (0, {2 * s: 1})
    elif family == 3:
        n = 2 * s
        ent = _chain(0, 2 * s - 2) + [(2 * s - 1, 2 * s, "1"),
                                      (2 * s, 2 * s - 1, "t")]
        if s > 1:
            ent.append((2 * s - 2, 2 * s - 1, "1"))
        generic = (2, {2 * s - 2: 1} if s > 1 else {})
    elif family == 4:
        mid = 2 * s - 2 * t
        n = 2 * s + mid + 2
        ent = (_chain(0, 2 * s) + _chain(2 * s, mid)
               + [(n - 1, n, "1"), (2 * s, n - 1, "t")])
        if mid:
            ent.append((2 * s + mid, n - 1, "1"))
        generic = (0, _blocks(2 * s - 2 * t, 2 * s + 2))
    elif family == 5:
        n = 4 * s + 2 * t
        ent = (_chain(0, 2 * s - 1) + _chain(2 * s - 1, 2 * s + 2 * t - 1)
               + [(n - 1, n, "1"), (2 * s - 1, n - 1, "t"),
                  (n - 2, n - 1, "1")])
        generic = (0, _blocks(2 * s + 1, 2 * s + 2 * t - 1))
    elif family == 6:
        n = 2 * s + 1
        ent = _chain(0, n) + [(n, n, "t")]
        generic = (1, {2 * s: 1} if s else {})
    else:
        raise ValueError(family)
    rows = [["0"] * n for _ in range(n)]
    for i, j, v in ent:
        rows[i - 1][j - 1] = v
    return rows, generic


def _blocks(*ms):
    b = {}
    for m in ms:
        if m >= 1:
            b[m] = b.get(m, 0) + 1
    return b


def witness_text(spec, family, s, t=None):
    rows, generic = witness_gram(family, s, t)
    lines = [f"field: {spec}", f"n: {len(rows)}"] + [" ".join(r) for r in rows]
    return "\n".join(lines) + "\n", generic


# -- checks -----------------------------------------------------------------


def parse_matrix_text(F, rows):
    return [[F.parse(x) for x in row] for row in rows]


def is_normal_form(F, text, a, b, transform_rows):
    """Recompute transpose(U^[1]) . B . U == standard Gram of (a; b) over
    F with this module's arithmetic; B is read back from the input text."""
    R = Ring(F.spec)
    lines = [ln for ln in text.splitlines() if ln.strip()][2:]
    B = parse_matrix_text(F, [ln.split() for ln in lines])
    U = parse_matrix_text(F, transform_rows)
    return twisted_congruence(R, B, U) == standard_gram(R, a, b)


def unitary_order(q, n):
    """|U_n(F_q)| = q^(n(n-1)/2) prod_{i=1..n} (q^i - (-1)^i): the number of
    points of the automorphism group of the form 1^n over F_{q^2}."""
    out = q ** (n * (n - 1) // 2)
    for i in range(1, n + 1):
        out *= q ** i - (-1) ** i
    return out
