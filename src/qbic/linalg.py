"""Dense exact linear algebra over a field descriptor, plus the semilinear
extras: entrywise Frobenius twist, twisted congruence, subspace lattice
operations, one-sided orthogonals, and Frobenius-descent testing.

A MatrixF over any field stores its entries once, as the field's raw
scalars (see fields.FieldDescriptor): the int encodings of a finite
field's elements, or GF(q)(t)'s reduced (num, den) pairs with () for zero.
Every operation here runs on those scalars through the descriptor's
methods.  FieldElements are made only at the boundary: the public
constructor takes them, and `rows`, `columns()`, indexing, `apply`,
`solve` and `pairing` hand them out.  `solve` and `subspace_vectors`
have no caller in the package; they stay as the element-level faces of
the scalar core (`_solve_rows`, `_span_vectors`) that the tests' reference
searches and pins read.

Subspaces are held in reduced column echelon form (pivot rows strictly
increasing, pivots 1, pivot rows zero elsewhere), so subspace equality is
matrix equality.  Pivot selection is first-nonzero in row order, which makes
every output deterministic.  Every subspace operation refuses operands over
another field or ambient space, through `hstack`, `@` or `intersect`'s check.
"""

from __future__ import annotations

import functools
import itertools
from collections import namedtuple

from . import InputError
from .fields import FieldElement, parse_field_spec


class MatrixF:
    """An immutable dense matrix over a field, row-major.

    The entries are held in `_e`, a tuple of row tuples of the field's
    scalars (see the module docstring).  `rows` is the same matrix as
    FieldElements, built anew on each read.  MatrixF(field, rows)
    takes rows of FieldElements of `field` and unwraps them once; the
    module's own results are built by `_mat` from scalars, without a copy.
    """

    __slots__ = ("field", "nrows", "ncols", "_e")

    def __init__(self, field, rows, ncols=None):
        e = tuple(_scalars(field, r) for r in rows)
        if e:
            ncols = len(e[0])
        elif ncols is None:
            ncols = 0
        if any(len(r) != ncols for r in e):
            raise ValueError("ragged matrix rows")
        self.field = field
        self.nrows = len(e)
        self.ncols = ncols
        self._e = e

    @property
    def rows(self):
        """The entries as a tuple of row tuples of FieldElements."""
        make = _ops(self.field).make
        return tuple(tuple(map(make, r)) for r in self._e)

    # -- constructors --------------------------------------------------------

    @staticmethod
    def identity(field, n):
        ops = _ops(field)
        one, zero = ops.one, ops.zero
        return _mat(field, tuple(tuple(one if i == j else zero
                                       for j in range(n)) for i in range(n)),
                    n)

    @staticmethod
    def zero(field, nrows, ncols):
        return _mat(field, ((_ops(field).zero,) * ncols,) * nrows, ncols)

    @staticmethod
    def from_int_rows(field, rows):
        """Build from integer entries (reduced into the prime field)."""
        return MatrixF(field, [[field.from_int(v) for v in r] for r in rows])

    @staticmethod
    def block_diagonal(field, blocks):
        n = sum(b.nrows for b in blocks)
        zero = _ops(field).zero
        rows = []
        off = 0
        for b in blocks:
            if b.nrows != b.ncols:
                raise ValueError("block_diagonal needs square blocks")
            if b.field is not field:
                raise ValueError("field mismatch")
            left, right = (zero,) * off, (zero,) * (n - off - b.ncols)
            rows.extend(left + r + right for r in b._e)
            off += b.nrows
        return _mat(field, tuple(rows), n)

    # -- basic algebra -------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, MatrixF) and self.field is other.field
                and self.ncols == other.ncols and self._e == other._e)

    def __hash__(self):
        return hash((self.field, self.ncols, self._e))

    def __getitem__(self, ij):
        i, j = ij
        return FieldElement(self.field, self._e[i][j])

    def transpose(self):
        return _mat(self.field, _transposed(self._e, self.ncols), self.nrows)

    def __matmul__(self, other):
        if self.ncols != other.nrows:
            raise ValueError("dimension mismatch")
        F = self.field
        if other.field is not F:
            raise ValueError("field mismatch")
        rows, n, ops = other._e, other.ncols, _ops(F)
        return _mat(F, tuple(tuple(_comb(r, rows, n, ops)) for r in self._e),
                    n)

    def __neg__(self):
        neg = _ops(self.field).neg
        return _mat(self.field, tuple(tuple(map(neg, r)) for r in self._e),
                    self.ncols)

    def apply(self, vec):
        """Matrix times a column vector given as a list of elements."""
        if len(vec) != self.ncols:
            raise ValueError("dimension mismatch")
        F = self.field
        return _elements(F, _comb(_scalars(F, vec),
                                  _transposed(self._e, self.ncols),
                                  self.nrows, _ops(F)))

    def hstack(self, other):
        if self.nrows != other.nrows:
            raise ValueError("dimension mismatch")
        if other.field is not self.field:
            raise ValueError("field mismatch")
        return _mat(self.field,
                    tuple(r1 + r2 for r1, r2 in zip(self._e, other._e)),
                    self.ncols + other.ncols)

    def columns(self):
        F = self.field
        return [_elements(F, c) for c in _transposed(self._e, self.ncols)]

    def submatrix(self, row_idx, col_idx):
        col_idx = list(col_idx)
        e = self._e
        return _mat(self.field,
                    tuple(tuple(e[i][j] for j in col_idx) for i in row_idx),
                    len(col_idx))

    def is_invertible(self):
        return self.nrows == self.ncols and rank(self) == self.nrows

    def inverse(self):
        if self.nrows != self.ncols:
            raise ValueError("inverse of a non-square matrix")
        n = self.nrows
        ops = _ops(self.field)
        one, zero = ops.one, ops.zero
        aug = [list(r) + [one if i == j else zero for j in range(n)]
               for i, r in enumerate(self._e)]
        if _eliminate(aug, n, ops) != list(range(n)):
            raise ValueError("matrix is singular")
        return _mat(self.field, tuple(tuple(r[n:]) for r in aug), n)

    def __repr__(self):
        body = "; ".join(" ".join(str(e) for e in r) for r in self.rows)
        return f"MatrixF[{body}]"


def _mat(field, e, ncols):
    """The MatrixF whose stored scalars are e, a tuple of row tuples of
    length ncols, taken as they are."""
    M = object.__new__(MatrixF)
    M.field = field
    M.nrows = len(e)
    M.ncols = ncols
    M._e = e
    return M


def _transposed(e, ncols):
    """The row tuples of the transpose of rows e with ncols columns."""
    return tuple(zip(*e)) if e else ((),) * ncols


# ---------------------------------------------------------------------------
# scalars
#
# A field's scalars are its descriptor's raw values, with the descriptor's
# arithmetic; the GF(p) systems of the field and Hermitian code run on
# plain ints mod p.  Zero must be the only false scalar: the loops below
# skip zero products and choose pivots by truth.

_Ops = namedtuple("_Ops", "inv neg axpy zero one make")


@functools.cache
def _ops(F):
    """The scalar ops of field F, built once per descriptor.  `axpy` is
    the field's row update (fields.FieldDescriptor._axpy), and `make`
    wraps a scalar as a FieldElement."""
    return _Ops(F._finv, F._fneg, F._axpy, F.zero().val, F.one().val,
                functools.partial(FieldElement, F))


@functools.cache
def _gfp_ops(p):
    """The ops of GF(p) on plain ints; a row update makes no Python call
    per entry."""
    def axpy(acc, k, c, v):
        for j, x in enumerate(v, k):
            if x:
                acc[j] = (acc[j] + c * x) % p
    return _Ops(lambda a: pow(a, p - 2, p), lambda a: -a % p, axpy, 0, 1,
                None)


def _scalars(F, vec):
    """The scalars of a sequence of FieldElements of F, as a tuple."""
    out = tuple(x.val for x in vec if x.field is F)
    if len(out) != len(vec):
        raise ValueError("field mismatch")
    return out


def _elements(F, vals):
    """The FieldElements of a sequence of scalars of F, as a list."""
    return list(map(_ops(F).make, vals))


def _comb(coeffs, rows, ncols, ops):
    """The sum of coeffs[k]*rows[k], a list of ncols scalars: one row
    update per nonzero coefficient."""
    out = [ops.zero] * ncols
    axpy = ops.axpy
    for c, row in zip(coeffs, rows):
        if c:
            axpy(out, 0, c, row)
    return out


# ---------------------------------------------------------------------------
# row reduction core


def _eliminate(rows, ncols, ops):
    """Reduce the list of rows, mutable lists of scalars, in place to
    reduced row echelon form in their first ncols columns and return the
    pivot columns.  The pivot of a column is its first nonzero entry in
    row order.  Every row update is one ops.axpy."""
    inv, neg, axpy, zero = ops.inv, ops.neg, ops.axpy, ops.zero
    nrows = len(rows)
    pivots = []
    r = 0
    for c in range(ncols):
        sel = next((i for i in range(r, nrows) if rows[i][c]), None)
        if sel is None:
            continue
        piv = rows[sel]
        rows[sel] = rows[r]
        prow = rows[r] = [zero] * len(piv)
        axpy(prow, 0, inv(piv[c]), piv)
        for i, row in enumerate(rows):
            if i != r and row[c]:
                axpy(row, 0, neg(row[c]), prow)
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


def _kernel_rows(rows, ncols, ops):
    """A basis of the right null space of the rows (reduced in place):
    one vector per non-pivot column."""
    pivots = _eliminate(rows, ncols, ops)
    out = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        vec = [ops.zero] * ncols
        vec[fc] = ops.one
        for pr, pc in enumerate(pivots):
            vec[pc] = ops.neg(rows[pr][fc])
        out.append(vec)
    return out


def _solve_rows(aug, ncols, ops):
    """One solution x of A x = b for the augmented rows [A | b] (reduced
    in place), or None when the system is inconsistent."""
    pivots = _eliminate(aug, ncols + 1, ops)
    if ncols in pivots:
        return None
    x = [ops.zero] * ncols
    for pr, pc in enumerate(pivots):
        x[pc] = aug[pr][ncols]
    return x


def _gfp_kernel(cols, p, nrows):
    """Kernel basis of the GF(p) matrix with the given columns."""
    rows = [[col[r] for col in cols] for r in range(nrows)]
    return _kernel_rows(rows, len(cols), _gfp_ops(p))


def _gfp_pivots(cols, p, nrows):
    """The pivot columns of the GF(p) matrix with the given columns: each
    is independent of the columns before it."""
    rows = [[col[r] for col in cols] for r in range(nrows)]
    return _eliminate(rows, len(cols), _gfp_ops(p))


def rank(M):
    return len(_eliminate([list(r) for r in M._e], M.ncols, _ops(M.field)))


def kernel(M):
    """Right null space {x : Mx = 0} as a Subspace of k^ncols."""
    return _null_space(M.field, M.ncols, M._e)


def _null_space(F, n, rows):
    """The Subspace of k^n killed by the given rows of scalars.

    The rows are reduced with their columns in reverse order.  Then each
    null vector _kernel_rows gives has its 1 in a free column and its
    other entries in pivot columns to the right of it (left of it before
    the reversal), and the free columns hold zeros in every other vector:
    reversed back, the vectors are the reduced echelon basis as they stand.
    """
    null = _kernel_rows([list(r[::-1]) for r in rows], n, _ops(F))
    return _from_echelon(F, n, [tuple(v[::-1]) for v in reversed(null)])


def image(M):
    """Column span of M as a Subspace of k^nrows."""
    return _span(M.field, M.nrows,
                 [list(c) for c in _transposed(M._e, M.ncols)])


def solve(M, b):
    """One solution x of Mx = b; raises ValueError when inconsistent."""
    if len(b) != M.nrows:
        raise ValueError("dimension mismatch")
    F = M.field
    x = _solve_rows([list(r) + [v] for r, v in zip(M._e, _scalars(F, b))],
                    M.ncols, _ops(F))
    if x is None:
        raise ValueError("inconsistent linear system")
    return _elements(F, x)


# ---------------------------------------------------------------------------
# subspaces


class Subspace:
    """A subspace of k^n held as its unique reduced column echelon basis,
    an n x dim MatrixF; its field and n are read from that basis."""

    __slots__ = ("field", "n", "basis")

    def __init__(self, basis):
        self.field, self.n = basis.field, basis.nrows
        self.basis = basis

    @staticmethod
    def from_columns(field, n, cols):
        """Span of the given column vectors (lists of elements)."""
        if any(len(c) != n for c in cols):
            raise ValueError("dimension mismatch")
        return _span(field, n, [list(_scalars(field, c)) for c in cols])

    @staticmethod
    def zero(field, n):
        return _from_echelon(field, n, [])

    @staticmethod
    def full(field, n):
        return Subspace(MatrixF.identity(field, n))

    @property
    def dim(self):
        return self.basis.ncols

    def __eq__(self, other):
        return (isinstance(other, Subspace) and self.n == other.n
                and self.basis == other.basis)

    def __hash__(self):
        return hash((self.n, self.basis))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of k^{self.n})"

    def contains_vector(self, vec):
        return self.contains(Subspace.from_columns(self.field, self.n, [vec]))

    def contains(self, other):
        return subspace_sum(self, other).dim == self.dim


def _vectors(S):
    """The echelon basis vectors of S as fresh mutable rows."""
    return [list(c) for c in _transposed(S.basis._e, S.dim)]


def _from_echelon(F, n, vecs):
    """The Subspace whose reduced echelon basis vectors are vecs."""
    return Subspace(_mat(F, _transposed(vecs, n), len(vecs)))


def _span(F, n, vecs):
    """The span of vecs, mutable rows of n scalars (reduced in place)."""
    r = len(_eliminate(vecs, n, _ops(F)))
    return _from_echelon(F, n, [tuple(v) for v in vecs[:r]])


def subspace_vectors(S):
    """Every vector of S over a finite field, the zero vector first, in a
    fixed order: the coefficient tuples on the echelon basis run through
    itertools.product over the field's elements in encoding order."""
    F = S.field
    if F.kind != "finite":
        raise ValueError("cannot enumerate a rational function field")
    for v in _span_vectors(F, _vectors(S), [_ops(F).zero] * S.n):
        yield _elements(F, v)


def _span_vectors(F, vecs, start):
    """start + sum c_k vecs[k] for every coefficient tuple c, in the order
    of subspace_vectors, as fresh lists of scalars of the finite field F."""
    axpy = _ops(F).axpy
    for coeffs in itertools.product(range(F.order), repeat=len(vecs)):
        out = list(start)
        for c, v in zip(coeffs, vecs):
            if c:
                axpy(out, 0, c, v)
        yield out


def subspace_sum(S1, S2):
    """The span of S1 and S2, the image of [S1 basis | S2 basis]."""
    both = S1.basis.hstack(S2.basis)
    if S2.dim == 0 or S1.dim == S1.n:
        return S1
    if S1.dim == 0 or S2.dim == S2.n:
        return S2
    return image(both)


def intersect(S1, S2):
    """Intersection by Zassenhaus's algorithm: reduce the rows (u | u) for
    the basis u of S1 and (w | 0) for the basis w of S2.  The rows whose
    pivot lies in the right half have a zero left half, and their right
    halves are the reduced echelon basis of the intersection."""
    if S1.n != S2.n:
        raise ValueError("dimension mismatch")
    if S1.field is not S2.field:
        raise ValueError("field mismatch")
    n = S1.n
    if S1.dim == 0 or S2.dim == n:
        return S1
    if S2.dim == 0 or S1.dim == n:
        return S2
    zeros = [_ops(S1.field).zero] * n
    rows = [u + u for u in _vectors(S1)] + [w + zeros for w in _vectors(S2)]
    pivots = _eliminate(rows, 2 * n, _ops(S1.field))
    return _from_echelon(S1.field, n, [tuple(r[n:]) for r, pc
                                       in zip(rows, pivots) if pc >= n])


def complement(S, inside=None):
    """A deterministic complement of S inside `inside` (default: k^n).

    Completes the echelon basis of S by the basis columns of the ambient
    space, scanning in index order: one reduction of [S | ambient basis],
    whose pivot columns past S are the ambient columns outside the span of
    S and the columns before them.  Those columns are part of the ambient
    echelon basis, hence already the complement's echelon basis.
    """
    amb = inside if inside is not None else Subspace.full(S.field, S.n)
    d = S.dim
    rows = [list(r) for r in S.basis.hstack(amb.basis)._e]
    pivots = _eliminate(rows, d + amb.dim, _ops(S.field))
    if len(pivots) != amb.dim:
        raise ValueError("subspace is not inside the ambient space")
    return Subspace(amb.basis.submatrix(range(S.n),
                                        [c - d for c in pivots if c >= d]))


# ---------------------------------------------------------------------------
# semilinear extras


def twist_matrix(M, i):
    """Entrywise q^i-power Frobenius."""
    if i == 0:
        return M
    F = M.field
    frob, n = F._frob, F.q ** i
    return _mat(F, tuple(tuple([frob(a, n) for a in r]) for r in M._e),
                M.ncols)


def twist_subspace(S, i):
    """Frobenius twist of a subspace; echelon shape is preserved."""
    if i == 0:
        return S
    return Subspace(twist_matrix(S.basis, i))


def pairing(B, u, v):
    """beta(u, v) = transpose(u^[1]) . B . v."""
    if len(u) != B.nrows or len(v) != B.ncols:
        raise ValueError("dimension mismatch")
    F = B.field
    ops = _ops(F)
    u1 = [F._frob(a, F.q) for a in _scalars(F, u)]
    Bv = _comb(_scalars(F, v), _transposed(B._e, B.ncols), B.nrows, ops)
    return FieldElement(F, _comb(u1, [(x,) for x in Bv], 1, ops)[0])


def twisted_congruence(B, A):
    """Gram matrix after the basis change A: transpose(A^[1]) . B . A."""
    if B.nrows != B.ncols or A.nrows != A.ncols or B.nrows != A.nrows:
        raise ValueError("dimension mismatch")
    if not A.is_invertible():
        raise ValueError("basis change matrix is singular")
    return twist_matrix(A, 1).transpose() @ B @ A


def left_orthogonal(B, S):
    """{w : transpose(w) . B . s = 0 for all s in S}: the right orthogonal
    of S under transpose(B)."""
    return right_orthogonal(B.transpose(), S)


def right_orthogonal(B, T):
    """{v : transpose(t) . B . v = 0 for all t in T}: the null space of
    the rows t^T B, the rows of transpose(T basis) @ B."""
    if B.nrows != B.ncols:
        raise ValueError("dimension mismatch")
    rows = (T.basis.transpose() @ B)._e
    if T.dim == 0:
        return Subspace.full(B.field, B.ncols)
    return _null_space(B.field, B.ncols, rows)


def descent_test(S):
    """The subspace S' with twist(S', 1) = S, or None when S does not
    descend.  Works entrywise on the echelon basis: the twist of a reduced
    echelon basis is again reduced echelon with the same pivots."""
    F = S.field
    root = F._root
    rooted = []
    for r in S.basis._e:
        row = tuple(map(root, r))
        if None in row:
            return None
        rooted.append(row)
    return Subspace(_mat(F, tuple(rooted), S.dim))


# ---------------------------------------------------------------------------
# matrix file format


def format_matrix_file(M):
    """The matrix-file text of M.  Only the tests' round trips read it."""
    lines = [f"field: {M.field.spec_string()}", f"n: {M.nrows}"]
    for r in M.rows:
        lines.append(" ".join(str(e) for e in r))
    return "\n".join(lines) + "\n"


def parse_matrix_file(text):
    """Parse the CLI matrix format: 'field:' and 'n:' headers, then n rows
    of n whitespace-separated element literals."""
    lines = [ln for ln in text.splitlines() if ln.strip() != ""]
    if len(lines) < 2 or not lines[0].startswith("field:"):
        raise InputError("missing 'field:' header line")
    field = parse_field_spec(lines[0][len("field:"):].strip())
    if not lines[1].startswith("n:"):
        raise InputError("missing 'n:' header line")
    try:
        n = int(lines[1][len("n:"):].strip())
    except ValueError:
        raise InputError("bad dimension in 'n:' header") from None
    if n < 1:
        raise InputError("dimension in 'n:' header must be positive")
    if len(lines) != 2 + n:
        raise InputError(f"expected {n} matrix rows, found {len(lines) - 2}")
    # each distinct literal is parsed once, straight to its stored scalar
    parse, seen = field._parse_scalar, {}
    rows = []
    for li, ln in enumerate(lines[2:]):
        toks = ln.split()
        if len(toks) != n:
            raise InputError(f"row {li + 1}: expected {n} entries, "
                             f"found {len(toks)}")
        row = []
        for ti, tok in enumerate(toks):
            v = seen.get(tok)
            if v is None:
                try:
                    v = seen[tok] = parse(tok)
                except InputError as ex:
                    raise InputError(
                        f"row {li + 1}, entry {ti + 1}: {ex}") from None
            row.append(v)
        rows.append(tuple(row))
    return field, _mat(field, tuple(rows), n)
