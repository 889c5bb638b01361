"""The q-bic form object and its intrinsic invariants.

A q-bic form on V = k^n is encoded by its Gram matrix B with
B[i][j] = beta(e_i^[1], e_j): linear in the second argument and
q-power-Frobenius-linear in the first.  This module computes the two
canonical filtrations, the type invariant (a; b_m), rank and radical,
the descent index nu, and the space of Hermitian vectors over finite
extensions.  A form builds its perp filtration once, on first use, and
keeps it.
"""

from __future__ import annotations

import re
import sys

from . import CostGuardError, InputError, _check
from .fields import (_check_modulus_search, _parse_int, embed,
                     extension_field, field_make)
from .linalg import (MatrixF, Subspace, _elements, _gfp_kernel, _gfp_pivots,
                     _kernel_rows, _ops, descent_test, intersect,
                     left_orthogonal, right_orthogonal, twist_matrix,
                     twist_subspace)


class QBicForm:
    __slots__ = ("field", "gram", "n", "_perp", "_residue", "_ext_degree")

    def __init__(self, field, gram):
        if gram.nrows != gram.ncols:
            raise ValueError("Gram matrix must be square")
        if gram.field != field:
            raise ValueError("Gram matrix field mismatch")
        self.field = field
        self.gram = gram
        self.n = gram.nrows
        self._perp = None  # built by perp_filtration on first use
        self._residue = None  # built by classify.residue on first use
        self._ext_degree = None  # read by classify._extension_degree

    def __eq__(self, other):
        return (isinstance(other, QBicForm) and self.field == other.field
                and self.gram == other.gram)

    def __hash__(self):
        return hash(self.gram)

    def __repr__(self):
        return f"QBicForm(n={self.n}, gram={self.gram!r})"


def _require_finite(f, what):
    """Refuse with InputError a form whose field is not finite; `what`
    names the computation that needs a finite one."""
    if f.field.kind != "finite":
        raise InputError(f"{what} needs a finite base field")


def direct_sum(f, g):
    if f.field != g.field:
        raise ValueError("field mismatch")
    return QBicForm(f.field,
                    MatrixF.block_diagonal(f.field, [f.gram, g.gram]))


# ---------------------------------------------------------------------------
# filtrations


def _perp_chain(f):
    """P_0 = V, P_1, ...: P_i is the right orthogonal of the twist of
    P_{i-1}."""
    P = Subspace.full(f.field, f.n)
    while True:
        yield P
        P = right_orthogonal(f.gram, twist_subspace(P, 1))


def _perp_prime_chain(f):
    """P'_0 = V, P'_1, ... as pairs (S, l): P'_i descends to S on V^[l],
    with l least.  Twisting commutes with orthogonals and echelon form, so
    P'_i V^[i] is S twisted i - l times, and P'_{i+1} is the left
    orthogonal of S under the l-twisted pairing, on V^[l+1]."""
    S, level = Subspace.full(f.field, f.n), 0
    while True:
        yield S, level
        S, level = left_orthogonal(twist_matrix(f.gram, level), S), level + 1
        # strip q-th roots as long as they exist
        while level:
            root = descent_test(S)
            if root is None:
                break
            S, level = root, level - 1


def _periodic(chain, n, what):
    """The items of a chain up to the first two that equal the two before
    them.  Each item is a function of the one before, so from there on
    the chain has period 2."""
    items = []
    for x in chain:
        items.append(x)
        if len(items) >= 4 and items[-2:] == items[-4:-2]:
            return items
        _check(len(items) <= n + 3, f"{what} failed to stabilize")


def _at(items, i):
    """Item i >= 0 of a chain stored by _periodic, also past the stored
    range."""
    if i < 0:
        raise ValueError("filtration index must be >= 0")
    if i >= len(items):
        i = len(items) - 2 + (i - len(items)) % 2
    return items[i]


class PerpFiltration:
    """The chain P_{-1} = 0, P_0 = V, P_i = right orthogonal of the twist
    of P_{i-1}.  Odd pieces increase to p_minus, even pieces decrease to
    p_plus."""

    __slots__ = ("_pieces",)

    def __init__(self, pieces):
        self._pieces = pieces  # P_0, P_1, ... up to where they repeat

    def piece(self, i):
        """P_i V for any i >= -1."""
        if i < -1:
            raise ValueError("filtration index must be >= -1")
        if i == -1:
            V = self._pieces[0]
            return Subspace.zero(V.field, V.n)
        return _at(self._pieces, i)

    @property
    def p_minus(self):
        return self.piece(2 * len(self._pieces) + 1)

    @property
    def p_plus(self):
        return self.piece(2 * len(self._pieces))


def perp_filtration(f):
    """The perp filtration of f, built on the first call and kept on f."""
    if f._perp is None:
        f._perp = PerpFiltration(
            _periodic(_perp_chain(f), f.n, "perp filtration"))
    return f._perp


class PerpPrimeFiltration:
    """The chain P'_0 = V, P'_i V^[i] = left orthogonal (under the
    (i-1)-twisted pairing) of the previous piece; each piece is stored at
    the least twist level it descends to."""

    __slots__ = ("_pieces",)

    def __init__(self, pieces):
        self._pieces = pieces  # (S, l) pairs of _perp_prime_chain

    def piece_on_twist(self, i):
        """P'_i V^[i] in V^[i] coordinates, for any i >= 0.  Only the
        tests read it, against their reference chain and filtrations."""
        S, level = _at(self._pieces, i)
        return twist_subspace(S, i - level)

    def descent_level(self, i):
        """Least twist level P'_i descends to.  Only the tests read it,
        against their reference chain; nu reads the levels directly."""
        return _at(self._pieces, i)[1]

    def nu(self):
        return max(level for _, level in self._pieces)


def perp_prime_filtration(f):
    return PerpPrimeFiltration(
        _periodic(_perp_prime_chain(f), f.n, "perp-prime filtration"))


# ---------------------------------------------------------------------------
# the type invariant


class TypeSignature:
    """The invariant (a; b_1, b_2, ...) with n = a + sum(m b_m)."""

    __slots__ = ("a", "b", "n")

    def __init__(self, a, b):
        # zero counts are allowed (generator_step leaves them) and dropped
        if a < 0 or any(m < 1 or bm < 0 for m, bm in b.items()):
            raise ValueError("invalid type data")
        self.a = a
        self.b = {m: bm for m, bm in sorted(b.items()) if bm > 0}
        self.n = a + sum(m * bm for m, bm in self.b.items())

    def b_m(self, m):
        return self.b.get(m, 0)

    @property
    def corank(self):
        return sum(self.b.values())

    @property
    def rank(self):
        return self.n - self.corank

    def max_block(self):
        """mu = max{m : b_m != 0}; None when nonsingular."""
        return max(self.b) if self.b else None

    def direct_sum(self, other):
        b = dict(self.b)
        for m, bm in other.b.items():
            b[m] = b.get(m, 0) + bm
        return TypeSignature(self.a + other.a, b)

    def key(self):
        maxm = max(self.b) if self.b else 0
        return (self.a,) + tuple(self.b_m(m) for m in range(1, maxm + 1))

    def __eq__(self, other):
        return (isinstance(other, TypeSignature)
                and self.a == other.a and self.b == other.b)

    def __hash__(self):
        return hash((self.a, tuple(sorted(self.b.items()))))

    def __str__(self):
        terms = []
        c = self.b_m(1)
        if c == 1:
            terms.append("0")
        elif c > 1:
            terms.append(f"0^{c}")
        if self.a == 1:
            terms.append("1")
        elif self.a > 1:
            terms.append(f"1^{self.a}")
        for m in sorted(self.b):
            if m == 1:
                continue
            bm = self.b[m]
            terms.append(f"N{m}" if bm == 1 else f"N{m}^{bm}")
        # interned: every report of a type shares one string
        return sys.intern("+".join(terms)) if terms else "(empty)"

    def __repr__(self):
        return f"TypeSignature({self})"


_TYPE_TERM_RE = re.compile(r"^(?:(0)|(1)|N(\d+))(?:\^(\d+))?$")

# what a type feeds (group_dim, the Psi profile, generator paths) grows
# as about n^2: `specialize N512 -> 1+N511` takes 3 ms of CPU and
# group_dim(N512) 20 ms (2 shared CPUs, Python 3.11.7)
_TYPE_DIM_CAP = 512


def parse_type(text):
    """Parse a type string: terms joined by '+'; term = 1^a | N<m> |
    N<m>^<b> | 0^c, with 0 meaning N1 and every exponent positive.  Other
    text is refused with InputError, and a type of dimension past
    _TYPE_DIM_CAP with CostGuardError."""
    a = 0
    b = {}
    n = 0
    for raw in text.split("+"):
        term = raw.strip()
        m = _TYPE_TERM_RE.match(term)
        if not m:
            raise InputError(f"bad type term {term!r}")
        mult = _parse_int(m.group(4)) if m.group(4) else 1
        size = _parse_int(m.group(3)) if m.group(3) else 1
        if size < 1:
            raise InputError(f"bad block size in {term!r}")
        if mult < 1:
            raise InputError(f"bad exponent in {term!r}")
        n += mult * size
        if n > _TYPE_DIM_CAP:
            raise CostGuardError(f"type has dimension over {_TYPE_DIM_CAP}; "
                                 f"guard is n <= {_TYPE_DIM_CAP}")
        if m.group(2):
            a += mult
        else:
            b[size] = b.get(size, 0) + mult
    return TypeSignature(a, b)


def type_of(f):
    """The type (a; b_m), computed from perp-filtration quotient dimensions
    only, so it is valid over imperfect fields as well."""
    filt = perp_filtration(f)
    n = f.n
    dims = {i: filt.piece(i).dim for i in range(-1, n + 2)}

    def a_m(m):
        eps = -1 if m % 2 else 1
        lo, hi = dims[m + eps - 1], dims[m - eps - 1]
        return hi - lo

    avals = {m: a_m(m) for m in range(1, n + 2)}
    b = {}
    for m in range(1, n + 1):
        bm = avals[m] - avals[m + 1]
        if bm:
            b[m] = bm
    a = filt.p_plus.dim - filt.p_minus.dim
    t = TypeSignature(a, b)
    _check(t.n == n, "type dimensions do not add up")
    return t


# ---------------------------------------------------------------------------
# radical, total orthogonal, descent index


def radical(f):
    """Vectors of V^[1] orthogonal to everything on both sides."""
    return total_orthogonal(f, Subspace.full(f.field, f.n))


def total_orthogonal(f, S):
    """The subspace of V^[1] orthogonal to S under beta and to S^[2] under
    the twisted pairing beta^[1]."""
    first = left_orthogonal(f.gram, S)
    second = right_orthogonal(twist_matrix(f.gram, 1), twist_subspace(S, 2))
    return intersect(first, second)


# Over GF(q)(t) the perp-prime chain twists the Gram up to level nu, and a
# twist to level l raises t-degrees q^l-fold, so the chain works on dense
# polynomials of degree up to q^nu0 * D.  On the F2 witness Grams over
# GF(4)(t) (type N_2s, nu0 = 2s - 1, D = 1) nu_index took 0.68 s at
# q^nu0 * D = 2^15 (s = 8) and 2.6 s at 2^17 (s = 9) on one shared CPU
# (Python 3.11.7); at 2^23 (s = 12) it ran past 120 s.
_NU_TWIST_CAP = 2 ** 16


def nu_index(f):
    """Minimal i such that the whole perp-prime filtration descends to
    V^[i]; zero over perfect (finite) fields.  Over GF(q)(t) a type with
    N blocks is refused with CostGuardError, before the chain is built,
    when q^nu0 * D passes _NU_TWIST_CAP, for nu0 = nu_zero_bound of its
    type and D the largest t-degree of a numerator or denominator of the
    Gram."""
    field = f.field
    if field.kind != "finite" and (t := type_of(f)).b:
        nu0 = nu_zero_bound(t)
        D = max(field._degree(x) for row in f.gram._e for x in row)
        if field.q ** nu0 * D > _NU_TWIST_CAP:
            # written as a power: the product can pass int's digit limit
            raise CostGuardError(
                f"the descent index twists t-degrees to q^nu0 * D = "
                f"{field.q}^{nu0} * {D}; guard is <= {_NU_TWIST_CAP}")
    return perp_prime_filtration(f).nu()


def nu_zero_bound(t):
    """The a-priori bound nu0 on the descent index, from the type alone.

    Requires a degenerate type; mu = max{m : b_m != 0}:
      - mu > 1 and no even blocks          -> mu - 2
      - mu odd, or (mu even and a = 0)     -> mu - 1
      - otherwise                          -> mu
    """
    mu = t.max_block()
    if mu is None:
        raise ValueError("nu0 is defined for degenerate types only")
    if mu > 1 and all(m % 2 for m in t.b):
        return mu - 2
    if mu % 2 == 1 or t.a == 0:
        return mu - 1
    return mu


# ---------------------------------------------------------------------------
# Hermitian vectors


class HermitianSpace:
    """The F_{q^2}-space of Hermitian vectors of f over the degree-r
    extension of its (finite) base field.

    A vector v over the extension K is Hermitian when
    B v = transpose(B^[1]) v^(q^2) exactly.
    """

    __slots__ = ("form", "r", "ext_field", "fq2", "fq2_embedding", "basis",
                 "d", "point_count", "gram_ext")

    def __init__(self, form, r, ext_field, fq2, fq2_embedding, basis,
                 gram_ext):
        self.form = form
        self.r = r
        self.ext_field = ext_field
        self.fq2 = fq2
        self.fq2_embedding = fq2_embedding
        self.basis = basis
        self.gram_ext = gram_ext
        self.d = len(basis)
        self.point_count = (form.field.q ** 2) ** self.d


def lift_matrix(M, emb):
    """M entrywise along the embedding emb, over emb.dst; M itself when
    emb is an identity."""
    if emb.src is emb.dst:
        return M
    return MatrixF(emb.dst, [[emb.apply(a) for a in r] for r in M.rows])


# Over F_{q^2} itself hermitian_space reduces one n-column matrix over
# the field; over a larger extension it solves a GF(p) system with n k r
# columns over GF(p^(k r)), and past this bound a solve takes over a
# second: over GF(4) with r = 32 on one shared CPU, 0.5-0.7 s at 256
# columns (n = 4) and 1.2 s at 320 (n = 5).  Over F_{q^2} the bound
# (n k <= 256) still caps n for the Hermitian Gram and a normal form's
# Gram-Schmidt on it: a GF(4) normal form of I_n takes 0.03 s at n = 32
# and 0.26 s at n = 64 (Python 3.11.7, one shared CPU).
_HERMITIAN_COLUMN_CAP = 256


def _check_hermitian_system(f, r):
    """Refuse with CostGuardError, before anything is built, the Hermitian
    system of f over the degree-r extension when it has more than
    _HERMITIAN_COLUMN_CAP columns or the extension's modulus search is past
    its guard."""
    base = f.field
    columns = f.n * base.k * r
    if columns > _HERMITIAN_COLUMN_CAP:
        raise CostGuardError(
            f"Hermitian vectors over the degree-{r} extension need a GF(p) "
            f"system of n*k*r = {columns} columns; guard is "
            f"<= {_HERMITIAN_COLUMN_CAP}")
    if r > 1:
        _check_modulus_search(base.p, base.k * r,
                              f"the degree-{r} extension of "
                              f"GF({base.p}^{base.k})")


def hermitian_space(f, r):
    """Solve for the Hermitian vectors of f over the degree-r extension K.

    The defining map x -> Bx - transpose(B^[1]) x^(q^2) is F_{q^2}-linear.
    Over K = F_{q^2} itself x^(q^2) = x, so the Hermitian vectors are one
    null space over K: the null vectors of B - transpose(B^[1]), one per
    free column.  Only a larger K restricts scalars to GF(p), along the
    fixed power basis of K, and picks an F_{q^2}-basis of the solutions.
    Refused with InputError when r < 1, and by _check_hermitian_system
    before the extension is built, over F_{q^2} too: its cap also bounds
    n for the Hermitian Gram and a normal form's Gram-Schmidt."""
    if r < 1:
        raise InputError(f"extension degree must be >= 1, got {r}")
    _require_finite(f, "Hermitian point counting")
    _check_hermitian_system(f, r)
    base = f.field
    K = extension_field(base, r)
    B = lift_matrix(f.gram, embed(base, K))
    C = twist_matrix(B, 1).transpose()
    n = f.n

    # F_{q^2} inside K
    if base.k == 2 * base.e:
        fq2 = base
    else:
        fq2 = field_make(base.p, base.e, 2 * base.e, None, "finite")
    fq2_emb = embed(fq2, K)
    if K is fq2:
        rows = [[K._fadd(b, K._fneg(c)) for b, c in zip(rb, rc)]
                for rb, rc in zip(B._e, C._e)]
        basis = [_elements(K, v) for v in _kernel_rows(rows, n, _ops(K))]
        return HermitianSpace(f, r, K, fq2, fq2_emb, basis, B)

    p, kK = K.p, K.k
    q2 = base.q ** 2

    # GF(p)-matrix of x -> Bx - C x^(q^2) on K^n
    cols = []
    for j in range(n):
        for i in range(kK):
            x = [K.zero()] * n
            x[j] = K._make(p ** i)
            xq2 = [K._make(K._fpow(v.val, q2)) for v in x]
            img = [u - w for u, w in zip(B.apply(x), C.apply(xq2))]
            cols.append([c for y in img for c in K._coords(y.val)])
    ker = _gfp_kernel(cols, p, n * kK)

    # decode GF(p)-kernel vectors back into K^n
    solutions = [[K._make(K._encode(v[j * kK:(j + 1) * kK]))
                  for j in range(n)] for v in ker]

    g = K._make(fq2_emb.gen_image)
    mults = [g ** i for i in range(fq2.k)]

    # greedy F_{q^2}-independent subset of the solution space: a solution
    # joins when one of its multiples is independent of the multiples
    # before it, that is, is a pivot column of their GF(p) matrix
    mcols = [[c for x in v for c in K._coords((mu * x).val)]
             for v in solutions for mu in mults]
    pivots = _gfp_pivots(mcols, p, n * kK)
    chosen = {c // len(mults) for c in pivots}
    basis = [v for s, v in enumerate(solutions) if s in chosen]
    expected = len(ker) // fq2.k
    _check(len(ker) % fq2.k == 0 and len(basis) == expected,
           "Hermitian solution space is not F_{q^2}-linear")
    return HermitianSpace(f, r, K, fq2, fq2_emb, basis, B)


def hermitian_gram(h):
    """Gram matrix of beta on the Hermitian basis, W^[1] B transpose(W) for
    the basis vectors as the rows of W; entries lie in F_{q^2} and satisfy
    transpose(H) = H^[1]."""
    W = MatrixF(h.ext_field, h.basis, ncols=h.form.n)
    G = twist_matrix(W, 1) @ h.gram_ext @ W.transpose()
    rows = [[h.fq2_embedding.preimage(x) for x in row] for row in G.rows]
    _check(all(x is not None for row in rows for x in row),
           "Hermitian pairing value outside F_{q^2}")
    return MatrixF(h.fq2, rows)


# ---------------------------------------------------------------------------
# JSON-facing report


def type_report(f):
    t = type_of(f)
    nu = nu_index(f)
    report = {
        "type": str(t),
        "n": f.n,
        "a": t.a,
        "b": {str(m): bm for m, bm in sorted(t.b.items())},
        "corank": t.corank,
        "rank": t.rank,
        "nu": nu,
        "nu0": nu_zero_bound(t) if t.b else None,
    }
    return report
