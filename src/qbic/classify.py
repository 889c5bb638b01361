"""Constructive normal forms under q-twisted conjugation.

Over a finite field every q-bic form is carried to its standard Gram matrix
1^a + sum_m N_m^(b_m) by an explicit basis change, possibly after a finite
extension for the nonsingular part.  The splitting of the N_m summands
follows the filtration seesaw; the nonsingular residue is orthonormalized
by one Gram-Schmidt pass over F_{q^2} on its Hermitian Gram matrix, the
one `qbic hermitian` prints.  Every certificate is verified exactly:
transpose(U^[1]) . B . U equals the standard Gram matrix entrywise.
"""

from __future__ import annotations

from itertools import islice

from . import _check
from .fields import embed, frobenius
from .forms import (QBicForm, _check_hermitian_system, _perp_prime_chain,
                    _require_finite, hermitian_gram, hermitian_space,
                    lift_matrix, perp_filtration, total_orthogonal, type_of,
                    TypeSignature)
from .linalg import (MatrixF, Subspace, complement, descent_test, image,
                     intersect, kernel, pairing, rank, right_orthogonal,
                     subspace_sum, twist_matrix, twist_subspace,
                     twisted_congruence)


def jordan_gram(field, m):
    """The m-by-m Jordan block with zero diagonal."""
    return MatrixF.from_int_rows(
        field, [[1 if j == i + 1 else 0 for j in range(m)]
                for i in range(m)])


def standard_gram(t, field):
    """Block diagonal 1^a + N_1^(b_1) + N_2^(b_2) + ...: identity block
    first, then block sizes increasing."""
    blocks = []
    if t.a:
        blocks.append(MatrixF.identity(field, t.a))
    for m in sorted(t.b):
        for _ in range(t.b[m]):
            blocks.append(jordan_gram(field, m))
    return MatrixF.block_diagonal(field, blocks)


class NormalFormCertificate:
    __slots__ = ("form", "target", "transform", "extension_degree",
                 "extension_field", "verified")

    def __init__(self, form, target, transform, extension_degree,
                 extension_field_, verified):
        self.form = form
        self.target = target
        self.transform = transform
        self.extension_degree = extension_degree
        self.extension_field = extension_field_
        self.verified = verified


class NeedsExtension(Exception):
    """Raised when allow_extension is off but the base field is too small."""

    def __init__(self, degree):
        self.degree = degree
        super().__init__(f"needs extension of degree {degree}")


# ---------------------------------------------------------------------------
# helpers


def _choose_matching(X, D, B, target, b):
    """A b-dimensional subspace Y of X with B.Y = target, linearly disjoint
    from D.

    With X' = {x in X : Bx in target}, Y is a complement inside X' of the
    sum of (X' meet ker B) and (X' meet D).  B is injective on Y and maps
    it into target, so dim Y <= b; where peel calls this, B kills
    X' meet D, so B.Y = B.X' = target exactly when some matching subspace
    exists."""
    BX = B @ X.basis
    sol = kernel(BX.hstack(-target.basis)).basis
    Xp = image(X.basis @ sol.submatrix(range(X.dim), range(sol.ncols)))
    K = image(X.basis @ kernel(BX).basis)
    Y = complement(subspace_sum(K, intersect(Xp, D)), inside=Xp)
    _check(Y.dim == b and intersect(Y, D).dim == 0
           and image(B @ Y.basis) == target,
           "no matching subspace found during peeling")
    return Y


# ---------------------------------------------------------------------------
# peeling one block size


def peel(f, m):
    """Split f = (N_m^(b_m) block) + (orthogonal rest) by an explicit basis
    change U; returns (U, rest), the block coming first in U's columns."""
    _require_finite(f, "a normal form")
    field, B, n = f.field, f.gram, f.n
    P = perp_filtration(f)
    b = type_of(f).b_m(m)
    if b == 0:
        raise ValueError(f"type has no N_{m} summand")
    # P'_i V for i <= m, the largest index read: over a finite field every
    # piece descends to V
    descended = list(islice(_perp_prime_chain(f), m + 1))
    _check(all(level == 0 for _, level in descended),
           "perp-prime piece does not descend to V")

    def Ppd(i):
        return descended[i][0] if i >= 0 else Subspace.zero(field, n)

    if m == 1:
        Vprime = intersect(P.piece(1), Ppd(1))
        _check(Vprime.dim == b, "wrong invariant count while peeling")
        block = Vprime.basis
        Vpp = complement(Vprime)
    else:
        eps = 1 if m % 2 == 0 else -1
        # V_1: a lift of the b-dimensional quotient inside P_1
        S_hi = intersect(P.piece(1), Ppd(m - eps - 1))
        S_lo = intersect(P.piece(1), Ppd(m + eps - 1))
        V1 = complement(S_lo, inside=S_hi)
        _check(V1.dim == b, "wrong invariant count while peeling")

        # V_2: the dual subspace to the image W_1 of V_1 under beta-dual,
        # v -> transpose(Qb) . transpose(B) . v^[1] in Q's coordinates
        Qb = Ppd(m + eps - 2).basis
        dual = Qb.transpose() @ B.transpose()
        W1 = image(dual @ twist_matrix(V1.basis, 1))
        _check(W1.dim == b, "beta-dual image of V_1 has the wrong dimension")
        K = Ppd(m + eps - 1)  # descent of the kernel of beta-dual
        C1 = complement(subspace_sum(V1, K))
        C2 = complement(intersect(V1, K), inside=K)
        V1pp = subspace_sum(C1, C2)
        Wimg = image(dual @ twist_matrix(V1pp.basis, 1))
        _check(intersect(Wimg, W1).dim == 0, "dual images of V_1 meet")
        W1p = subspace_sum(Wimg, complement(subspace_sum(Wimg, W1)))
        ann = kernel(W1p.basis.transpose())
        V2 = image(Qb @ ann.basis)
        _check(V2.dim == b and intersect(V2, Ppd(m - eps - 2)).dim == 0,
               "V_2 is not a complement of the lower piece")

        blocks = {1: V1, 2: V2}
        Btw = twist_matrix(B, 1).transpose()
        for i in range(3, m + 1):
            prev = blocks[i - 2]
            target = image(Btw @ twist_matrix(prev.basis, 2))
            if i % 2 == 1:
                X = intersect(P.piece(i), Ppd(m - eps - i))
                D = Ppd(m + eps - i)
            else:
                X = intersect(P.piece(i - 2), Ppd(m + eps - i))
                D = Ppd(m - eps - i)
            blocks[i] = _choose_matching(X, D, B, target, b)

        M = V1.basis
        for i in range(2, m + 1):
            M = M.hstack(blocks[i].basis)
        Vprime = image(M)
        _check(Vprime.dim == m * b, "peeled blocks are not disjoint")

        block = M @ _standardize_block(field, B, M, m, b)
        Vpp_twisted = total_orthogonal(f, Vprime)
        Vpp = descent_test(Vpp_twisted)
        _check(Vpp is not None, "total orthogonal does not descend")

    _check(Vpp.dim == n - m * b, "orthogonal rest has the wrong dimension")
    U = block.hstack(Vpp.basis)
    G = twisted_congruence(B, U)
    blockG = MatrixF.block_diagonal(field, [jordan_gram(field, m)] * b)
    restG = G.submatrix(range(m * b, n), range(m * b, n))
    expect = MatrixF.block_diagonal(field, [blockG, restG])
    _check(G == expect, "peeled Gram is not block diagonal")
    return U, QBicForm(field, restG)


def _standardize_block(field, B, M, m, b):
    """Adjust the decomposition spanned by the columns of M (m groups of b)
    until the restricted Gram is exactly N_m^(b) in a suitable basis;
    returns the mb-by-mb matrix C such that the columns of M . C are that
    basis."""
    # Gram of beta restricted to the column span of M
    G = twist_matrix(M, 1).transpose() @ B @ M
    mb = m * b
    one = MatrixF.identity(field, mb)
    # the i-th group of b unit vectors: already reduced echelon
    blocks = {i: Subspace(one.submatrix(range(mb), range((i - 1) * b, i * b)))
              for i in range(1, m + 1)}

    # recognition conditions, checked before the final adjustment
    _check(kernel(G) == blocks[1], "V_1 is not the right kernel")
    _check(kernel(G.transpose()) == blocks[m], "V_m is not the left kernel")
    pair12 = G.submatrix(range(b), range(b, 2 * b))
    _check(pair12.is_invertible(), "beta_{1,2} is not an isomorphism")
    Gtw = twist_matrix(G, 1).transpose()
    for i in range(2, m):
        lhs = image(G @ blocks[i + 1].basis)
        rhs = image(Gtw @ twist_matrix(blocks[i - 1].basis, 2))
        _check(lhs == rhs, "image matching fails in the middle range")

    # Gram-Schmidt-like adjustment of the even-indexed subspaces
    if m % 2 == 1:
        for k in range(1, (m + 1) // 2):
            Vsub = blocks[2 * k]
            for i in range(2 * k + 1, m + 1):
                Vsub = subspace_sum(Vsub, blocks[i])
            new2k = intersect(Vsub,
                              right_orthogonal(G, twist_subspace(Vsub, 1)))
            _check(new2k.dim == b, "adjusted V_2k has the wrong dimension")
            updates = {2 * k: new2k}
            orth = right_orthogonal(G, twist_subspace(new2k, 1))
            for i in range(2 * k + 2, m + 1, 2):
                Si = subspace_sum(blocks[2 * k + 1], blocks[i])
                newi = intersect(Si, orth)
                _check(newi.dim == b, "adjusted V_i has the wrong dimension")
                updates[i] = newi
            blocks.update(updates)
    else:
        updates = {}
        for k in range(1, m // 2 + 1):
            S = blocks[2 * k]
            R = None
            for ell in range(k + 1, m // 2 + 1):
                S = subspace_sum(S, blocks[2 * ell])
                R = blocks[2 * ell - 1] if R is None else \
                    subspace_sum(R, blocks[2 * ell - 1])
            if R is None:
                updates[2 * k] = blocks[2 * k]
            else:
                newk = intersect(S,
                                 right_orthogonal(G, twist_subspace(R, 1)))
                _check(newk.dim == b, "adjusted V_2k has the wrong dimension")
                updates[2 * k] = newk
        blocks.update(updates)

    # chain of dual bases: beta(v_i^[1], v_{i+1}) = identity per block
    chain = prev = blocks[1].basis
    for i in range(2, m + 1):
        nxt = blocks[i].basis
        prev = nxt @ (twist_matrix(prev, 1).transpose() @ G @ nxt).inverse()
        chain = chain.hstack(prev)

    # interleave: per copy s the chain v_1^(s), ..., v_m^(s)
    return chain.submatrix(range(mb),
                           [i * b + s for s in range(b) for i in range(m)])


# ---------------------------------------------------------------------------
# orthonormalizing the nonsingular residue


def _extension_degree(f):
    """The least r such that the Hermitian vectors of the nonsingular form f
    span over the degree-r extension.

    They are the fixed points of v -> A v^sigma, with A = B^-1
    transpose(B^[1]) and sigma the q^2-power Frobenius.  By Lang's theorem
    they span over the algebraic closure, and over the degree-r extension
    exactly when M^r = 1, where M = A A^sigma ... A^(sigma^(s-1)) and
    s = [k : F_{q^2}]: r is the order of M.  Each r is refused with
    CostGuardError, before M^r is formed, when hermitian_space would refuse
    it."""
    field, B = f.field, f.gram
    _check_hermitian_system(f, 1)
    A = B.inverse() @ twist_matrix(B, 1).transpose()
    M = A
    for i in range(1, field.k // (2 * field.e)):
        M = M @ twist_matrix(A, 2 * i)
    one = MatrixF.identity(field, f.n)
    r, power = 1, M
    while power != one:
        r += 1
        _check_hermitian_system(f, r)
        power = power @ M
    return r


def orthonormalize_nonsingular(f, allow_extension=True):
    """Carry a nonsingular form to the identity Gram matrix, over the
    smallest extension whose Hermitian vectors span: a Gram-Schmidt pass
    over F_{q^2} on their Gram H = hermitian_gram(h) gives coefficients C,
    and the transform is transpose(W) C for the Hermitian basis rows W."""
    _require_finite(f, "a normal form")
    field, n = f.field, f.n
    if n == 0:
        return NormalFormCertificate(f, TypeSignature(0, {}),
                                     MatrixF.identity(field, 0), 1, field,
                                     True)
    # a type has no N_m block exactly when its corank is 0
    if rank(f.gram) != n:
        raise ValueError("form is singular")
    r = _extension_degree(f)
    if r > 1 and not allow_extension:
        raise NeedsExtension(r)
    h = hermitian_space(f, r)
    _check(h.d == n, f"Hermitian vectors do not span over the degree-{r} "
                     f"extension")
    K, F, H, q = h.ext_field, h.fq2, hermitian_gram(h), h.fq2.q

    def add(u, c, w):
        return [a + c * b for a, b in zip(u, w)]

    # Hermitian Gram-Schmidt over F_{q^2} from the identity; h(u, w) =
    # pairing(H, u, w) and h(w, u) = h(u, w)^q
    vs = [list(row) for row in MatrixF.identity(F, n).rows]
    for i in range(n):
        piv = next((j for j in range(i, n)
                    if not pairing(H, vs[j], vs[j]).is_zero()), None)
        if piv is None:
            # h(u + lam w, u + lam w) = Tr(lam h(u, w)) when h(u, u) and
            # h(w, w) vanish; the rest of the form is nondegenerate, so u
            # pairs with some later w
            j = next((j for j in range(i + 1, n)
                      if not pairing(H, vs[i], vs[j]).is_zero()), None)
            _check(j is not None, "Hermitian Gram is degenerate")
            c = pairing(H, vs[i], vs[j])
            lam = next((x for x in F.elements()
                        if not (x * c + frobenius(x * c, 1)).is_zero()), None)
            _check(lam is not None, "no scalar of nonzero trace")
            vs[i] = add(vs[i], lam, vs[j])
            piv = i
        vs[i], vs[piv] = vs[piv], vs[i]
        cinv = pairing(H, vs[i], vs[i]).inverse()
        for j in range(i + 1, n):
            vs[j] = add(vs[j], -(cinv * pairing(H, vs[i], vs[j])), vs[i])
        # scale to h(v, v) = 1 through the norm equation x^(q+1) = c^-1
        x = next((x for x in F.elements() if not x.is_zero()
                  and x ** (q + 1) == cinv), None)
        _check(x is not None, "no norm solution for a Hermitian diagonal")
        vs[i] = [x * a for a in vs[i]]
    C = MatrixF(F, vs).transpose()
    U = MatrixF(K, h.basis).transpose() @ lift_matrix(C, h.fq2_embedding)
    verified = twisted_congruence(h.gram_ext, U) == MatrixF.identity(K, n)
    _check(verified, "orthonormalization certificate failed to verify")
    return NormalFormCertificate(f, TypeSignature(n, {}), U, r, K, verified)


# ---------------------------------------------------------------------------
# full normal form and isomorphism testing


def normal_form(f, allow_extension=True):
    """Peel block sizes in increasing order, then orthonormalize the
    nonsingular residue; returns a verified certificate carrying f to
    standard_gram(type_of(f))."""
    _require_finite(f, "a normal form")
    field, n = f.field, f.n
    t = type_of(f)
    U = MatrixF.identity(field, n)
    rest = f
    offset = 0
    for m in sorted(t.b):
        T, rest = peel(rest, m)
        lift = MatrixF.block_diagonal(
            field, [MatrixF.identity(field, offset), T])
        U = U @ lift
        offset += m * t.b[m]

    cert0 = orthonormalize_nonsingular(rest, allow_extension)
    K = cert0.extension_field
    emb = embed(field, K)
    B_K = lift_matrix(f.gram, emb)
    tail = MatrixF.block_diagonal(
        K, [MatrixF.identity(K, offset), cert0.transform])
    U_K = lift_matrix(U, emb) @ tail

    # move the identity block to the front: degenerate blocks were peeled
    # smallest first, so the current Gram is N_1^... then 1^a at the end
    U_K = U_K.submatrix(range(n), [*range(n - t.a, n), *range(n - t.a)])

    target = standard_gram(t, K)
    verified = twisted_congruence(B_K, U_K) == target
    _check(verified, "normal-form certificate failed to verify")
    return NormalFormCertificate(f, t, U_K, cert0.extension_degree, K,
                                 verified)


def is_isomorphic(f, g, mode="geometric"):
    """Isomorphism verdict.  Geometric mode compares types (a complete
    invariant over the algebraic closure).  Rational mode searches for an
    explicit witness over the common base field."""
    if f.n != g.n:
        raise ValueError("dimension mismatch")
    tf, tg = type_of(f), type_of(g)
    if mode == "geometric":
        return {"verdict": "yes" if tf == tg else "no",
                "type_from": str(tf), "type_to": str(tg)}
    if mode != "rational":
        raise ValueError(f"unknown mode {mode!r}")
    _require_finite(f, "isomorphism testing")
    _require_finite(g, "isomorphism testing")
    if f.field != g.field:
        raise ValueError("rational mode requires a common base field")
    if tf != tg:
        return {"verdict": "no", "type_from": str(tf), "type_to": str(tg)}
    try:
        cf = normal_form(f, allow_extension=False)
        cg = normal_form(g, allow_extension=False)
    except NeedsExtension:
        return {"verdict": "geometric-yes/rational-undetermined",
                "type_from": str(tf), "type_to": str(tg)}
    A = cf.transform @ cg.transform.inverse()
    _check(twisted_congruence(f.gram, A) == g.gram,
           "isomorphism witness does not carry f to g")
    return {"verdict": "yes", "type_from": str(tf), "type_to": str(tg),
            "witness": A}
