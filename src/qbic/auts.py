"""Automorphism groups of q-bic forms.

The automorphism group scheme of a q-bic form with Gram matrix B consists
of the invertible A with A^[1],T B A = B.  Its dimension and the dimension
of its Lie algebra are closed-form functions of the type invariant; this
module evaluates those formulas and, on tiny instances, counts the
rational points exactly as an independent check.  The count builds A one
column at a time: all but one of the conditions on the next column are
linear, so each column's candidates come from one elimination.
"""

from __future__ import annotations

from . import CostGuardError
from .fields import frobenius, qth_root
from .forms import type_of
from .linalg import (MatrixF, Subspace, kernel, pairing, solve,
                     subspace_vectors)

_ENUM_GUARD = 5 ** 9


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


def phi(t, m):
    """Growth coefficient of group_dim under direct sums: adding one N_m
    summand to a fixed form of type t increases the dimension by phi(t, m)
    plus the contribution of the new summand itself."""
    if m < 1:
        raise ValueError("m must be positive")
    if m % 2 == 1:
        k = (m + 1) // 2
        return (t.n + t.b_m(2 * k - 1)
                + 2 * sum((k - l) * t.b_m(2 * l - 1) for l in range(1, k)))
    k = m // 2
    mu = t.max_block() or 0
    return (sum(2 * l * t.b_m(2 * l) for l in range(1, k))
            + 2 * k * (sum(t.b_m(2 * l - 1) for l in range(1, mu + 1))
                       + sum(t.b_m(2 * l) for l in range(k, mu + 1))))


def _check_enum_guard(f):
    field = f.field
    if field.kind != "finite":
        raise CostGuardError("point enumeration requires a finite field")
    if f.n > 3 or field.order ** (f.n * f.n) > _ENUM_GUARD:
        raise CostGuardError(
            f"point enumeration over GF({field.order}) needs "
            f"{field.order}^{f.n * f.n} candidates; guard is n <= 3 and "
            f"|field|^(n^2) <= {_ENUM_GUARD}")


def enumerate_points(f):
    """Count the invertible A with A^[1],T B A = B over a small finite
    field, returning (count, samples) with at most 10 sample matrices.

    The columns a_1, ..., a_n of A are chosen one at a time.  With
    a_1..a_{j-1} fixed, beta(a_i, x) = B_ij is linear in the next column
    x, and so is beta(x, a_i) = B_ji after taking q-th roots of both
    sides.  The candidates for a_j are one solution of that system plus
    the vectors of its kernel; they are filtered by beta(x, x) = B_jj and
    by independence from the earlier columns.  Guarded: refuses
    fields/dimensions where the candidate space exceeds the enumeration
    budget."""
    _check_enum_guard(f)
    field, B, n = f.field, f.gram, f.n
    Bt = B.transpose()
    count = 0
    samples = []

    def extend(cols):
        nonlocal count
        j = len(cols)
        if j == n:
            count += 1
            if len(samples) < 10:
                samples.append(MatrixF(field, cols).transpose())
            return
        rows, rhs = [], []
        for i, a in enumerate(cols):
            rows.append(Bt.apply([frobenius(x, 1) for x in a]))
            rhs.append(B[i, j])
            rows.append([qth_root(c) for c in B.apply(a)])
            rhs.append(qth_root(B[j, i]))
        M = MatrixF(field, rows, ncols=n)
        try:
            x0 = solve(M, rhs)
        except ValueError:
            return
        for k in subspace_vectors(kernel(M)):
            x = [a + b for a, b in zip(x0, k)]
            if (pairing(B, x, x) == B[j, j] and
                    Subspace.from_columns(field, n, cols + [x]).dim > j):
                extend(cols + [x])

    extend([])
    return count, samples


def lie_points(f):
    """Count the matrices phi with B.phi = 0 over the base field; these
    are the tangent vectors id + eps*phi of the automorphism group, and
    the count is |field|^(n * corank)."""
    if f.field.kind != "finite":
        raise CostGuardError("Lie point counting requires a finite field")
    if f.n > 8:
        raise CostGuardError("Lie point counting is guarded at n <= 8")
    # B.phi = 0 holds iff every column of phi lies in the kernel of B.
    d = kernel(f.gram).dim
    return f.field.order ** (f.n * d)


def aut_report(f, points=False):
    """JSON-ready report on the automorphism group of f."""
    t = type_of(f)
    report = {
        "type": str(t),
        "lie_dim": lie_dim(t),
        "group_dim": group_dim(t),
        "points": None,
    }
    if points:
        count, _ = enumerate_points(f)
        report["points"] = {"field": f"{f.field.p}^{f.field.k}",
                            "count": count}
    return report
