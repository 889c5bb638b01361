"""Automorphism groups of q-bic forms.

The automorphism group scheme of a q-bic form with Gram matrix B consists
of the invertible A with A^[1],T B A = B.  Its dimension and the dimension
of its Lie algebra are closed-form functions of the type invariant; this
module evaluates those formulas and, on tiny instances, counts the
rational points exactly as an independent check.

The count is a stabilizer chain over the standard basis (orbit-stabilizer;
C. Sims 1970; A. Seress, "Permutation Group Algorithms", 2003, ch. 4): one
existence search per orbit point, not one leaf per automorphism.  It runs
on the field's stored scalars through linalg's scalar core, with no
FieldElement: each node of the search reduces its fixed columns to echelon
once and reduces every candidate column against that echelon, and only
the sample matrices are built as MatrixF.  Its guard bounds n,
|field|^(n^2) and the candidate columns of the chain's levels, which are
known before any search; see enumerate_points.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator

from . import CostGuardError
from .forms import _require_finite
from .linalg import (Subspace, _comb, _eliminate, _mat, _null_space, _ops,
                     _solve_rows, _span_vectors, _transposed, _vectors,
                     kernel)

_ENUM_GUARD = 5 ** 9
# candidate columns summed over the chain's levels; GF(2^16) 1x1 has 2^16
_CHAIN_GUARD = 2 ** 16


def lie_dim(t):
    """Dimension of the Lie algebra: tangent vectors are the maps
    V -> P_1 V, so the dimension is n * corank."""
    return t.n * t.corank


def group_dim(t):
    """Dimension of the automorphism group scheme of a form of type t."""
    mu = t.max_block() or 0
    total = 0
    for k in range(1, mu // 2 + 2):
        b_odd = t.b_m(2 * k - 1)
        b_even = t.b_m(2 * k)
        total += k * (b_odd * b_odd + b_even * b_even)
        total += (t.a + sum(m * t.b_m(m) for m in range(2 * k, mu + 1))) * b_odd
        total += 2 * k * sum(t.b_m(m) for m in range(2 * k + 1, mu + 1)) * b_even
    return total


def _guard_text(field, n, candidates=None):
    # written as a power: past n = 84 over GF(4) it has over 4,300 digits
    seen = f"n = {n}, |field|^(n^2) = {field.order}^{n * n}"
    if candidates is not None:
        seen += f", {candidates} candidate columns on the chain's levels"
    return (f"point enumeration over GF({field.order}): {seen}; guard is "
            f"n <= 3, |field|^(n^2) <= {_ENUM_GUARD} and at most "
            f"{_CHAIN_GUARD} candidate columns")


def _check_enum_guard(f):
    _require_finite(f, "point enumeration")
    field = f.field
    if f.n > 3 or field.order ** (f.n * f.n) > _ENUM_GUARD:
        raise CostGuardError(_guard_text(field, f.n))


def _conditions(f, cols):
    """The linear system on the column x that follows cols, as the rows
    [M | rhs] of scalars.

    beta(a_i, x) = B_ij is linear in x, and so is beta(x, a_i) = B_ji
    after taking q-th roots of both sides."""
    F, B, n = f.field, f.gram._e, f.n
    ops, q, root = _ops(F), F.q, F._root
    Bt, j = _transposed(B, n), len(cols)
    rows = []
    for i, a in enumerate(cols):
        rows.append(_comb([F._frob(x, q) for x in a], B, n, ops)
                    + [B[i][j]])
        rows.append([root(c) for c in _comb(a, Bt, n, ops)]
                    + [root(B[j][i])])
    return rows


def _kernel(f, rows):
    """The reduced echelon basis vectors of the null space of M, given the
    rows [M | rhs] of a system, reduced or not."""
    n = f.n
    return _vectors(_null_space(f.field, n, [r[:n] for r in rows]))


def _columns(f, cols, x0, null):
    """The solutions x0 + k (k in the span of the vectors null) of the
    system after cols that also satisfy beta(x, x) = B_jj and are
    independent of cols.  cols are reduced to echelon once, and each
    solution is reduced against them."""
    F, B, n, j = f.field, f.gram._e, f.n, len(cols)
    ops, q = _ops(F), F.q
    frob, add, mul = F._frob, F._fadd, F._fmul
    Bt, target = _transposed(B, n), B[j][j]
    echelon = [list(a) for a in cols]
    reduced = list(zip(echelon, _eliminate(echelon, n, ops)))
    for x in _span_vectors(F, null, x0):
        # beta(x, x) = sum_r x_r^q (B x)_r
        beta = ops.zero
        for a, b in zip(x, _comb(x, Bt, n, ops)):
            if a and b:
                beta = add(beta, mul(frob(a, q), b))
        if beta != target:
            continue
        r = list(x)
        for row, c in reduced:
            if r[c]:
                ops.axpy(r, 0, ops.neg(r[c]), row)
        if any(r):
            yield x


def _first_leaf(f, cols):
    """The columns of one automorphism whose first columns are cols,
    found depth first; None when cols extends to none."""
    if len(cols) == f.n:
        return cols
    rows = _conditions(f, cols)
    # solving reduces the rows in place, which keeps the null space of M
    x0 = _solve_rows(rows, f.n, _ops(f.field))
    if x0 is None:
        return None
    for x in _columns(f, cols, x0, _kernel(f, rows)):
        leaf = _first_leaf(f, cols + [x])
        if leaf is not None:
            return leaf
    return None


def _chain_levels(f):
    """The chain's levels: for each j, e_{j+1} and the kernel of the system
    with prefix e_1..e_j, whose vectors added to e_{j+1} are the level's
    candidate columns.  Raises CostGuardError when the levels hold more
    than _CHAIN_GUARD candidates in all."""
    field, n = f.field, f.n
    basis = _vectors(Subspace.full(field, n))
    levels = [(basis[j], _kernel(f, _conditions(f, basis[:j])))
              for j in range(n)]
    candidates = sum(field.order ** len(null) for _, null in levels)
    if candidates > _CHAIN_GUARD:
        raise CostGuardError(_guard_text(field, n, candidates))
    return levels


def _transversals(f):
    """For each level j, the columns of one automorphism per point x of
    the orbit of e_j under the automorphisms fixing e_1..e_{j-1}."""
    levels = _chain_levels(f)
    out = []
    for j, (e, null) in enumerate(levels):
        prefix = [b for b, _ in levels[:j]]
        leaves = (_first_leaf(f, prefix + [x])
                  for x in _columns(f, prefix, e, null))
        out.append([cols for cols in leaves if cols is not None])
    return out


def enumerate_points(f):
    """Count the invertible A with A^[1],T B A = B over a small finite
    field, returning (count, samples) with at most 10 sample matrices.

    A stabilizer chain over the standard basis e_1, ..., e_n (the
    identity is an automorphism): level j holds the automorphisms fixing
    e_1..e_{j-1}, and its orbit of e_j is the set of columns x such that
    (e_1, ..., e_{j-1}, x) extends to an automorphism.  The candidates x
    are e_j plus the vectors of one kernel, filtered by beta(x, x) = B_jj
    and independence; a depth-first search per candidate stops at its
    first automorphism, which joins the level's transversal T_j.  By
    orbit-stabilizer the count is the product of the |T_j|, and every
    automorphism is exactly one product t_1 ... t_n, so the samples (the
    first such products in itertools.product order) are distinct.

    The search runs on the field's stored scalars: columns are lists of
    them, and only the samples are built as matrices.

    Guarded: refuses n > 3, |field|^(n^2) > 5^9, and chains whose levels
    hold more than 2^16 candidate columns in all."""
    _check_enum_guard(f)
    transversals = _transversals(f)
    count = math.prod(map(len, transversals))
    F, n = f.field, f.n
    samples = [functools.reduce(operator.matmul,
                                (_mat(F, _transposed(cols, n), n)
                                 for cols in ts))
               for ts in itertools.islice(itertools.product(*transversals),
                                          10)]
    return count, samples


def lie_points(f):
    """Count the matrices phi with B.phi = 0 over the base field; these
    are the tangent vectors id + eps*phi of the automorphism group, and
    the count is |field|^(n * corank)."""
    _require_finite(f, "Lie point counting")
    if f.n > 8:
        raise CostGuardError("Lie point counting is guarded at n <= 8")
    # B.phi = 0 holds iff every column of phi lies in the kernel of B.
    d = kernel(f.gram).dim
    return f.field.order ** (f.n * d)


def dimensions_report(t):
    """JSON-ready report on the automorphism group of a form of type t,
    with no point count."""
    return {"type": str(t), "lie_dim": lie_dim(t), "group_dim": group_dim(t),
            "points": None}

