"""Dense exact linear algebra over a field descriptor, plus the semilinear
extras: entrywise Frobenius twist, twisted congruence, subspace lattice
operations, one-sided orthogonals, and Frobenius-descent testing.

Subspaces are held in reduced column echelon form (pivot rows strictly
increasing, pivots 1, pivot rows zero elsewhere), so subspace equality is
matrix equality.  Pivot selection is first-nonzero in row order, which makes
every output deterministic.
"""

from __future__ import annotations

import itertools
import operator
from collections import namedtuple

from .fields import FieldElement, frobenius, qth_root


class MatrixF:
    """An immutable dense matrix of FieldElements, row-major."""

    __slots__ = ("field", "nrows", "ncols", "rows")

    def __init__(self, field, rows, ncols=None):
        self.field = field
        self.rows = tuple(tuple(r) for r in rows)
        self.nrows = len(self.rows)
        if self.rows:
            self.ncols = len(self.rows[0])
        else:
            self.ncols = 0 if ncols is None else ncols
        for r in self.rows:
            if len(r) != self.ncols:
                raise ValueError("ragged matrix rows")

    # -- constructors --------------------------------------------------------

    @staticmethod
    def identity(field, n):
        one, zero = field.one(), field.zero()
        return MatrixF(field, [[one if i == j else zero for j in range(n)]
                               for i in range(n)])

    @staticmethod
    def zero(field, nrows, ncols):
        z = field.zero()
        return MatrixF(field, [[z] * ncols for _ in range(nrows)])

    @staticmethod
    def from_int_rows(field, rows):
        """Build from integer entries (reduced into the prime field)."""
        return MatrixF(field, [[field.from_int(v) for v in r] for r in rows])

    @staticmethod
    def block_diagonal(field, blocks):
        n = sum(b.nrows for b in blocks)
        z = field.zero()
        rows = [[z] * n for _ in range(n)]
        off = 0
        for b in blocks:
            if b.nrows != b.ncols:
                raise ValueError("block_diagonal needs square blocks")
            for i in range(b.nrows):
                for j in range(b.ncols):
                    rows[off + i][off + j] = b.rows[i][j]
            off += b.nrows
        return MatrixF(field, rows)

    # -- basic algebra -------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, MatrixF) and self.field == other.field
                and self.rows == other.rows)

    def __hash__(self):
        return hash((self.field, self.rows))

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def transpose(self):
        return MatrixF(self.field,
                       [[self.rows[i][j] for i in range(self.nrows)]
                        for j in range(self.ncols)], ncols=self.nrows)

    def __add__(self, other):
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("dimension mismatch")
        return MatrixF(self.field,
                       [[a + b for a, b in zip(r1, r2)]
                        for r1, r2 in zip(self.rows, other.rows)])

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return MatrixF(self.field, [[-a for a in r] for r in self.rows])

    def __matmul__(self, other):
        if self.ncols != other.nrows:
            raise ValueError("dimension mismatch")
        F = self.field
        if other.field is not F:
            raise ValueError("field mismatch")
        cols, ops = _unwrap(F, other.transpose().rows), _ops(F)
        out = [_dot_rows(r, cols, ops) for r in _unwrap(F, self.rows)]
        return MatrixF(F, _wrap(F, out), ncols=other.ncols)

    def scale(self, c):
        return MatrixF(self.field, [[c * a for a in r] for r in self.rows])

    def apply(self, vec):
        """Matrix times a column vector given as a list of elements."""
        F = self.field
        out = _dot_rows(_unwrap(F, [vec])[0], _unwrap(F, self.rows), _ops(F))
        return _wrap(F, [out])[0]

    def hstack(self, other):
        if self.nrows != other.nrows:
            raise ValueError("dimension mismatch")
        return MatrixF(self.field,
                       [r1 + r2 for r1, r2 in zip(self.rows, other.rows)],
                       ncols=self.ncols + other.ncols)

    def columns(self):
        return [[self.rows[i][j] for i in range(self.nrows)]
                for j in range(self.ncols)]

    def submatrix(self, row_idx, col_idx):
        col_idx = list(col_idx)
        return MatrixF(self.field,
                       [[self.rows[i][j] for j in col_idx] for i in row_idx],
                       ncols=len(col_idx))

    def is_invertible(self):
        return self.nrows == self.ncols and rank(self) == self.nrows

    def inverse(self):
        if self.nrows != self.ncols:
            raise ValueError("inverse of a non-square matrix")
        n = self.nrows
        aug = self.hstack(MatrixF.identity(self.field, n))
        red, pivots = _rref(aug)
        if pivots != list(range(n)):
            raise ValueError("matrix is singular")
        return MatrixF(self.field, [r[n:] for r in red.rows])

    def __repr__(self):
        body = "; ".join(" ".join(str(e) for e in r) for r in self.rows)
        return f"MatrixF[{body}]"


# ---------------------------------------------------------------------------
# row reduction core
#
# Finite-field matrices are computed on the int encodings of their
# entries with the field's table arithmetic, unwrapped and wrapped once per
# operation; GF(q)(t) runs the same loops on FieldElements, and the GF(p)
# systems of the field and Hermitian code on plain ints mod p.

_Ops = namedtuple("_Ops", "inv mul add neg zero one")


def _ops(F):
    """The scalar ops on what _unwrap gives for field F."""
    if F.kind == "finite":
        return _Ops(F._finv, F._fmul, F._fadd, F._fneg, 0, 1)
    return _Ops(FieldElement.inverse, operator.mul, operator.add,
                operator.neg, F.zero(), F.one())


def _gfp_ops(p):
    return _Ops(lambda a: pow(a, p - 2, p), lambda a, b: a * b % p,
                lambda a, b: (a + b) % p, lambda a: -a % p, 0, 1)


def _unwrap(F, rows):
    """Fresh mutable rows of the scalars the loops work on."""
    if F.kind == "finite":
        return [[x.val for x in r] for r in rows]
    return [list(r) for r in rows]


def _wrap(F, rows):
    if F.kind == "finite":
        make = F._make
        return [[make(v) for v in r] for r in rows]
    return rows


def _dot_rows(row, cols, ops):
    """The dot products of one row with each column."""
    mul, add = ops.mul, ops.add
    out = []
    for c in cols:
        acc = ops.zero
        for a, b in zip(row, c):
            if a and b:
                acc = add(acc, mul(a, b))
        out.append(acc)
    return out


def _eliminate(rows, ncols, ops):
    """Reduce the list of rows in place to reduced row echelon form and
    return the pivot columns.  The pivot of a column is its first nonzero
    entry in row order.  Zero must be the only false scalar."""
    inv, mul, add, neg = ops.inv, ops.mul, ops.add, ops.neg
    nrows = len(rows)
    pivots = []
    r = 0
    for c in range(ncols):
        sel = next((i for i in range(r, nrows) if rows[i][c]), None)
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        s = inv(rows[r][c])
        prow = rows[r] = [mul(s, v) for v in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c]:
                f = neg(rows[i][c])
                rows[i] = [add(a, mul(f, b)) for a, b in zip(rows[i], prow)]
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


def _gfp_solve(cols, target, p, nrows):
    """Solve sum x_j cols[j] = target over GF(p); None if inconsistent."""
    aug = [[col[r] for col in cols] + [target[r] % p] for r in range(nrows)]
    return _solve_rows(aug, len(cols), _gfp_ops(p))


def _rref(M):
    """Reduced row echelon form; returns (MatrixF, pivot column list)."""
    F = M.field
    rows = _unwrap(F, M.rows)
    pivots = _eliminate(rows, M.ncols, _ops(F))
    return MatrixF(F, _wrap(F, rows), ncols=M.ncols), pivots


def rank(M):
    return len(_eliminate(_unwrap(M.field, M.rows), M.ncols, _ops(M.field)))


def kernel(M):
    """Right null space {x : Mx = 0} as a Subspace of k^ncols."""
    F = M.field
    cols = _kernel_rows(_unwrap(F, M.rows), M.ncols, _ops(F))
    return Subspace.from_columns(F, M.ncols, _wrap(F, cols))


def image(M):
    """Column span of M as a Subspace of k^nrows."""
    return Subspace.from_columns(M.field, M.nrows, M.columns())


def solve(M, b):
    """One solution x of Mx = b; raises ValueError when inconsistent."""
    if len(b) != M.nrows:
        raise ValueError("dimension mismatch")
    F = M.field
    x = _solve_rows(_unwrap(F, [r + (v,) for r, v in zip(M.rows, b)]),
                    M.ncols, _ops(F))
    if x is None:
        raise ValueError("inconsistent linear system")
    return _wrap(F, [x])[0]


# ---------------------------------------------------------------------------
# subspaces


class Subspace:
    """A subspace of k^n held as its unique reduced column echelon basis."""

    __slots__ = ("field", "n", "basis")

    def __init__(self, field, n, basis):
        self.field = field
        self.n = n
        self.basis = basis  # MatrixF, n x dim, reduced column echelon

    @staticmethod
    def from_columns(field, n, cols):
        """Span of the given column vectors (lists of elements)."""
        if not cols:
            return Subspace(field, n, MatrixF(field, [[] for _ in range(n)]))
        asrows = MatrixF(field, cols)  # each spanning vector as a row
        red, pivots = _rref(asrows)
        keep = [red.rows[i] for i in range(len(pivots))]
        basis = MatrixF(field, keep, ncols=n).transpose()
        return Subspace(field, n, basis)

    @staticmethod
    def zero(field, n):
        return Subspace.from_columns(field, n, [])

    @staticmethod
    def full(field, n):
        return Subspace(field, n, MatrixF.identity(field, n))

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
        if all(v.is_zero() for v in vec):
            return True
        try:
            solve(self.basis, vec)
            return True
        except ValueError:
            return False

    def contains(self, other):
        return all(self.contains_vector(c) for c in other.basis.columns())


def subspace_vectors(S):
    """Every vector of S over a finite field, the zero vector first, in a
    fixed order: the coefficient tuples on the echelon basis run through
    itertools.product over the field's elements."""
    field = S.field
    cols = S.basis.columns()
    scalars = list(field.elements())
    for coeffs in itertools.product(scalars, repeat=len(cols)):
        vec = [field.zero()] * S.n
        for c, col in zip(coeffs, cols):
            if not c.is_zero():
                vec = [a + c * b for a, b in zip(vec, col)]
        yield vec


def subspace_sum(S1, S2):
    if S1.n != S2.n:
        raise ValueError("ambient dimension mismatch")
    return Subspace.from_columns(S1.field, S1.n,
                                 S1.basis.columns() + S2.basis.columns())


def intersect(S1, S2):
    """Intersection via the kernel of the stacked system [B1 | -B2]."""
    if S1.n != S2.n:
        raise ValueError("ambient dimension mismatch")
    if S1.dim == 0 or S2.dim == 0:
        return Subspace.zero(S1.field, S1.n)
    stacked = S1.basis.hstack(-S2.basis)
    ker = kernel(stacked)
    cols = []
    for kv in ker.basis.columns():
        coeffs = kv[:S1.dim]
        cols.append(S1.basis.apply(coeffs))
    return Subspace.from_columns(S1.field, S1.n, cols)


def quotient_dim(S1, S2):
    """dim(S2 / S1) for S1 contained in S2."""
    if not S2.contains(S1):
        raise ValueError("first subspace is not contained in the second")
    return S2.dim - S1.dim


def complement(S, inside=None):
    """A deterministic complement of S inside `inside` (default: k^n).

    Completes the echelon basis of S by coordinate vectors / basis columns
    of the ambient space, scanning in index order.
    """
    amb = inside if inside is not None else Subspace.full(S.field, S.n)
    cur = S
    chosen = []
    for cand in amb.basis.columns():
        if cur.dim == amb.dim:
            break
        trial = subspace_sum(cur, Subspace.from_columns(S.field, S.n, [cand]))
        if trial.dim > cur.dim:
            chosen.append(cand)
            cur = trial
    return Subspace.from_columns(S.field, S.n, chosen)


# ---------------------------------------------------------------------------
# semilinear extras


def twist_matrix(M, i):
    """Entrywise q^i-power Frobenius."""
    if i == 0:
        return M
    return MatrixF(M.field,
                   [[frobenius(a, i) for a in r] for r in M.rows])


def twist_subspace(S, i):
    """Frobenius twist of a subspace; echelon shape is preserved."""
    if i == 0:
        return S
    return Subspace(S.field, S.n, twist_matrix(S.basis, i))


def pairing(B, u, v):
    """beta(u, v) = transpose(u^[1]) . B . v."""
    acc = B.field.zero()
    for a, c in zip(u, B.apply(v)):
        if a and c:
            acc = acc + frobenius(a, 1) * c
    return acc


def twisted_congruence(B, A):
    """Gram matrix after the basis change A: transpose(A^[1]) . B . A."""
    if B.nrows != B.ncols or A.nrows != A.ncols or B.nrows != A.nrows:
        raise ValueError("dimension mismatch")
    if not A.is_invertible():
        raise ValueError("basis change matrix is singular")
    return twist_matrix(A, 1).transpose() @ B @ A


def left_orthogonal(B, S):
    """{w : transpose(w) . B . s = 0 for all s in S}."""
    if B.nrows != B.ncols or S.n != B.ncols:
        raise ValueError("dimension mismatch")
    if S.dim == 0:
        return Subspace.full(B.field, B.nrows)
    return kernel((B @ S.basis).transpose())


def right_orthogonal(B, T):
    """{v : transpose(t) . B . v = 0 for all t in T}."""
    if B.nrows != B.ncols or T.n != B.nrows:
        raise ValueError("dimension mismatch")
    if T.dim == 0:
        return Subspace.full(B.field, B.ncols)
    return kernel(T.basis.transpose() @ B)


def descent_test(S):
    """The subspace S' with twist(S', 1) = S, or None when S does not
    descend.  Works entrywise on the echelon basis: the twist of a reduced
    echelon basis is again reduced echelon with the same pivots."""
    rooted = []
    for r in S.basis.rows:
        row = []
        for a in r:
            y = qth_root(a)
            if y is None:
                return None
            row.append(y)
        rooted.append(row)
    return Subspace(S.field, S.n, MatrixF(S.field, rooted))


# ---------------------------------------------------------------------------
# matrix file format


def format_matrix_file(M, field_spec=None):
    spec = field_spec if field_spec is not None else M.field.spec_string()
    lines = [f"field: {spec}", f"n: {M.nrows}"]
    for r in M.rows:
        lines.append(" ".join(str(e) for e in r))
    return "\n".join(lines) + "\n"


def parse_matrix_file(text):
    """Parse the CLI matrix format: 'field:' and 'n:' headers, then n rows
    of n whitespace-separated element literals."""
    from .fields import parse_field_spec

    lines = [ln for ln in text.splitlines() if ln.strip() != ""]
    if len(lines) < 2 or not lines[0].startswith("field:"):
        raise ValueError("missing 'field:' header line")
    field = parse_field_spec(lines[0][len("field:"):].strip())
    if not lines[1].startswith("n:"):
        raise ValueError("missing 'n:' header line")
    try:
        n = int(lines[1][len("n:"):].strip())
    except ValueError:
        raise ValueError("bad dimension in 'n:' header") from None
    if len(lines) != 2 + n:
        raise ValueError(f"expected {n} matrix rows, found {len(lines) - 2}")
    rows = []
    for li, ln in enumerate(lines[2:]):
        toks = ln.split()
        if len(toks) != n:
            raise ValueError(f"row {li + 1}: expected {n} entries, "
                             f"found {len(toks)}")
        row = []
        for ti, tok in enumerate(toks):
            try:
                row.append(field.parse(tok))
            except ValueError as ex:
                raise ValueError(
                    f"row {li + 1}, entry {ti + 1}: {ex}") from None
        rows.append(row)
    return field, MatrixF(field, rows)
