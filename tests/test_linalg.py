import contextlib
import io
import itertools
import os
import tempfile
import time

import pytest
from hypothesis import given, settings, strategies as st

from conftest import rng_for
from qbic import CostGuardError, InputError, fields
from qbic.cli import main

from qbic.fields import field_make, frobenius, qth_root
from qbic.forms import QBicForm, total_orthogonal
from qbic.linalg import (MatrixF, Subspace, _gfp_kernel, _gfp_ops,
                         _gfp_pivots, complement, descent_test, image,
                         intersect, kernel, left_orthogonal, pairing,
                         parse_matrix_file, format_matrix_file, rank,
                         right_orthogonal, solve, subspace_sum,
                         subspace_vectors, twist_matrix, twist_subspace,
                         twisted_congruence)

GF4 = field_make(2, 1, 2)
GF9 = field_make(3, 1, 2)
GF25 = field_make(5, 1, 2)
GF256 = field_make(2, 4, 8)
GF16 = field_make(2, 1, 4)
GF2_18 = field_make(2, 1, 18)  # above TABLE_CAP: polynomial arithmetic
RF4 = field_make(2, 1, 2, kind="rational-function")


def mat(draw, n, m):
    return MatrixF(GF4, [[GF4._make(draw(st.integers(0, 3)))
                          for _ in range(m)] for _ in range(n)])


@st.composite
def matrices(draw, n=None, m=None):
    if n is None:
        n = draw(st.integers(1, 4))
    if m is None:
        m = draw(st.integers(1, 4))
    return mat(draw, n, m)


@st.composite
def square_matrices(draw):
    n = draw(st.integers(1, 4))
    return mat(draw, n, n)


@st.composite
def two_square(draw):
    n = draw(st.integers(1, 4))
    return mat(draw, n, n), mat(draw, n, n)


class TestMatrixBasics:
    @given(two_square())
    def test_transpose_antihomomorphism(self, data):
        A, B = data
        assert (A @ B).transpose() == B.transpose() @ A.transpose()

    @given(square_matrices())
    def test_inverse(self, A):
        if A.is_invertible():
            n = A.nrows
            assert A @ A.inverse() == MatrixF.identity(GF4, n)
            assert A.inverse() @ A == MatrixF.identity(GF4, n)
        else:
            with pytest.raises(ValueError):
                A.inverse()

    @given(matrices())
    def test_rank_nullity(self, A):
        assert rank(A) + kernel(A).dim == A.ncols
        assert image(A).dim == rank(A)

    @given(matrices())
    def test_solve(self, A):
        b = [row[0] for row in (A @ MatrixF(GF4, [[GF4.one()]
             for _ in range(A.ncols)], ncols=1)).rows]
        x = solve(A, b)
        assert x is not None
        assert [sum((A[i, j] * x[j] for j in range(A.ncols)),
                    GF4.zero()) for i in range(A.nrows)] == b

    def test_empty_matrix_shapes(self):
        A = MatrixF(GF4, [], ncols=3)            # 0 x 3
        assert A.transpose().nrows == 3 and A.transpose().ncols == 0
        assert kernel(A).dim == 3                # no constraints
        S = Subspace.zero(GF4, 3)
        assert S.basis.ncols == 0 and S.basis.nrows == 3
        assert repr(A) == "MatrixF[]"
        assert repr(A.transpose()) == "MatrixF[; ; ]"
        assert repr(MatrixF.from_int_rows(GF4, [[1, 0], [0, 1]])) == \
            "MatrixF[1 0; 0 1]"


class TestDimensionChecks:
    """A vector or column of the wrong length is refused, not truncated."""

    def test_apply(self):
        A = MatrixF.from_int_rows(GF4, [[1, 0, 1], [0, 1, 1]])
        one = GF4.one()
        assert A.apply([one] * 3) == [GF4.zero()] * 2
        for n in (2, 4):
            with pytest.raises(ValueError, match="dimension mismatch"):
                A.apply([one] * n)

    def test_pairing(self):
        B, one = MatrixF.identity(GF4, 2), GF4.one()
        assert pairing(B, [one, one], [one, one]) == GF4.zero()
        for u, v in (([one], [one, one]), ([one, one], [one] * 3),
                     ([one] * 3, [one, one]), ([one, one], [])):
            with pytest.raises(ValueError, match="dimension mismatch"):
                pairing(B, u, v)

    def test_from_columns_and_contains_vector(self):
        S, one = Subspace.full(GF4, 2), GF4.one()
        assert S.contains_vector([one, one])
        for vec in ([one], [one] * 3, []):
            with pytest.raises(ValueError, match="dimension mismatch"):
                S.contains_vector(vec)
        with pytest.raises(ValueError, match="dimension mismatch"):
            Subspace.from_columns(GF4, 2, [[one, one], [one]])


def _gf4(rows):
    return MatrixF.from_int_rows(GF4, rows)


class TestRefusals:
    """Every shape or field a library call cannot take is refused with its
    own message."""

    @pytest.mark.parametrize("call, match", [
        (lambda: MatrixF(GF4, [[GF4.one()] * 2, [GF4.one()]]),
         "ragged matrix rows"),
        (lambda: MatrixF.block_diagonal(GF4, [_gf4([[1, 0]])]),
         "needs square blocks"),
        (lambda: _gf4([[1]]).hstack(_gf4([[1], [0]])), "dimension mismatch"),
        (lambda: _gf4([[1]]).hstack(MatrixF.identity(GF9, 1)),
         "field mismatch"),
        (lambda: _gf4([[1, 0]]) @ _gf4([[1, 0]]), "dimension mismatch"),
        (lambda: _gf4([[1, 0]]).inverse(), "non-square"),
        (lambda: solve(_gf4([[1, 0]]), [GF4.one()] * 2),
         "dimension mismatch"),
        (lambda: twisted_congruence(_gf4([[1, 0]]), _gf4([[1]])),
         "dimension mismatch"),
        (lambda: twisted_congruence(_gf4([[1]]), _gf4([[1, 0]])),
         "dimension mismatch"),
        (lambda: twisted_congruence(_gf4([[1]]), MatrixF.identity(GF4, 2)),
         "dimension mismatch"),
        (lambda: right_orthogonal(_gf4([[1, 0]]), Subspace.full(GF4, 2)),
         "dimension mismatch"),
        (lambda: intersect(Subspace.full(GF4, 1), Subspace.full(GF4, 2)),
         "dimension mismatch"),
        (lambda: parse_matrix_file("field: 2^2 q=2\nn: x\n0\n"),
         "bad dimension in 'n:' header"),
        (lambda: parse_matrix_file("field: 2^2 q=2\nn: 2\n0 0\n"),
         "expected 2 matrix rows, found 1"),
        (lambda: next(subspace_vectors(Subspace.full(RF4, 1))),
         "cannot enumerate a rational function field"),
    ], ids=["ragged", "block", "hstack-shape", "hstack-field", "matmul",
            "inverse", "solve", "congruence-b", "congruence-a",
            "congruence-sizes", "right-orthogonal", "intersect", "n-header",
            "row-count", "subspace-vectors"])
    def test_refused(self, call, match):
        with pytest.raises(ValueError, match=match):
            call()


class TestScalarPaths:
    """Every field runs matrix products and elimination on its raw scalars
    (int encodings, or GF(q)(t)'s reduced pairs with () for zero) in one
    loop."""

    def test_field_mismatch(self):
        GF16_Q4 = field_make(2, 2, 4)
        with pytest.raises(ValueError, match="field mismatch"):
            MatrixF.identity(GF4, 2) @ MatrixF.identity(GF16_Q4, 2)
        # GF(16) with q = 2 and with q = 4 share one table, so a subspace
        # operation that skips the field check answers over either one;
        # over GF(4) against GF(16) it reads past GF(4)'s table
        for F, G in ((GF16, GF16_Q4), (GF4, GF16)):
            S = Subspace.from_columns(F, 2, [[F.one(), F.gen()]])
            T = Subspace.from_columns(G, 2, [[G.gen(), G.one()]])
            B = MatrixF.from_int_rows(F, [[0, 1], [1, 1]])
            calls = [lambda: subspace_sum(S, T), lambda: subspace_sum(T, S),
                     lambda: intersect(S, T),
                     lambda: complement(S, inside=Subspace.full(G, 2)),
                     lambda: S.contains(T), lambda: right_orthogonal(B, T),
                     lambda: left_orthogonal(B, T),
                     lambda: total_orthogonal(QBicForm(F, B), T)]
            for call in calls:
                with pytest.raises(ValueError, match="field mismatch"):
                    call()

    def test_rational_function_elimination(self):
        t, z, one = RF4.t_gen(), RF4.gen(), RF4.one()
        A = MatrixF(RF4, [[t, z, one], [t * t, z * t, t]])
        assert rank(A) == 1 and kernel(A).dim == 2
        for v in kernel(A).basis.columns():
            assert all(x.is_zero() for x in A.apply(v))
        x = solve(A, [one, t])
        assert A.apply(x) == [one, t]
        B = MatrixF(RF4, [[t, z], [one, t]])
        assert B @ B.inverse() == MatrixF.identity(RF4, 2)

    def test_rational_function_zero_entries(self):
        t, one, zero = RF4.t_gen(), RF4.one(), RF4.zero()
        rows = [[zero, t, zero, t], [zero, zero, zero, zero],
                [zero, t * t + one, one / (t + one), zero]]
        M = MatrixF(RF4, rows)
        assert M._e[0][0] == () and M._e[1] == ((),) * 4
        assert M.rows[1][2] == zero and M[0, 2] == zero
        _, pivots = ref_rref(as_lists(M), 4)
        assert rank(M) == len(pivots) == 2
        assert kernel(M).basis.columns() == ref_kernel(RF4, as_lists(M), 4)
        assert kernel(M.transpose()).basis.columns() == \
            ref_kernel(RF4, as_lists(M.transpose()), 3)


class TestSubspaces:
    @given(matrices())
    def test_canonical_echelon_basis(self, A):
        S = Subspace.from_columns(GF4, A.nrows, A.columns())
        doubled = Subspace.from_columns(GF4, A.nrows,
                                        A.columns() + A.columns())
        assert S == doubled and hash(S) == hash(doubled)
        assert S.dim == rank(A)
        assert repr(S) == f"Subspace(dim {S.dim} of k^{A.nrows})"

    @given(matrices(n=4), matrices(n=4))
    def test_dimension_formula(self, A, B):
        U = Subspace.from_columns(GF4, 4, A.columns())
        W = Subspace.from_columns(GF4, 4, B.columns())
        assert (intersect(U, W).dim + subspace_sum(U, W).dim
                == U.dim + W.dim)
        assert U.contains(intersect(U, W))
        assert subspace_sum(U, W).contains(U)

    @given(matrices(n=4))
    def test_complement(self, A):
        U = Subspace.from_columns(GF4, 4, A.columns())
        C = complement(U)
        assert intersect(U, C).dim == 0
        assert subspace_sum(U, C).dim == 4


class TestTwists:
    @given(two_square())
    def test_twist_multiplicative(self, data):
        A, B = data
        assert twist_matrix(A @ B, 1) == twist_matrix(A, 1) @ twist_matrix(B, 1)
        assert twist_matrix(twist_matrix(A, 1), 1) == twist_matrix(A, 2)

    @given(square_matrices())
    def test_twisted_congruence_action(self, A):
        n = A.nrows
        B = MatrixF.identity(GF4, n)
        if A.is_invertible():
            C = twisted_congruence(B, A)
            # A^[1],T . B . A
            assert C == twist_matrix(A, 1).transpose() @ B @ A
        else:
            with pytest.raises(ValueError):
                twisted_congruence(B, A)

    @given(matrices(n=3))
    def test_orthogonals_have_complementary_dimension(self, A):
        B = MatrixF.identity(GF4, 3)
        S = Subspace.from_columns(GF4, 3, A.columns())
        assert left_orthogonal(B, S).dim == 3 - S.dim
        assert right_orthogonal(B, twist_subspace(S, 1)).dim == 3 - S.dim

    @given(matrices(n=3))
    def test_descent(self, A):
        S = Subspace.from_columns(GF4, 3, A.columns())
        T = twist_subspace(S, 1)
        D = descent_test(T)
        assert D == S
        # over GF(4)(t) a subspace spanned by (1, t) does not descend
        v = [RF4.one(), RF4.t_gen()]
        S2 = Subspace.from_columns(RF4, 2, [v])
        assert descent_test(S2) is None


class TestMatrixFiles:
    @given(square_matrices())
    def test_round_trip(self, A):
        field, M = parse_matrix_file(format_matrix_file(A))
        assert field == GF4 and M == A

    def test_rational_round_trip(self):
        t = RF4.t_gen()
        z = RF4.gen()
        A = MatrixF(RF4, [[t, (z + RF4.one()) / t],
                          [RF4.zero(), z * t ** 2]])
        field, M = parse_matrix_file(format_matrix_file(A))
        assert field == RF4 and M == A

    def test_errors_name_the_offender(self):
        with pytest.raises(ValueError, match="field"):
            parse_matrix_file("n: 1\n0\n")
        with pytest.raises(ValueError, match="row 2"):
            parse_matrix_file("field: 2^2 q=2\nn: 2\n0 0\n0\n")
        with pytest.raises(ValueError, match="entry 1"):
            parse_matrix_file("field: 2^2 q=2\nn: 1\n!\n")
        with pytest.raises(ValueError, match="must be positive"):
            parse_matrix_file("field: 2^2 q=2\nn: 0\n")

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(
               st.sampled_from(["field: 2^2 q=2", "field: 3^2 q=3",
                                "field: 2^2(t) q=2 mod=[1,1,1]",
                                "field: 5 q=5", "field:", "field: 2^2",
                                "field 2^2 q=2", "n: 1", ""]),
               st.text("0123456789^ q=mod[],(t)", max_size=16).map(
                   "field: {}".format)),
           st.one_of(
               st.integers(-2, 4).map("n: {}".format),
               st.sampled_from(["n: 100000", "n: 2_0", "n:", "n: x",
                                "n: 1.5", "n 2", "field: 2^2 q=2"])),
           st.lists(st.lists(st.sampled_from(
               ["0", "1", "2", "z", "t", "z^2+1", "(z+t)/t", "1/0", "(",
                "!", "z^1000", "t^1025", "t^600*t^600"]),
               max_size=4).map(" ".join), max_size=4))
    def test_hostile_files_are_refused_cleanly(self, header, dim, rows):
        text = "\n".join([header, dim, *rows]) + "\n"
        # a generous CPU bound, so a hanging kernel fails instead of stalling
        start = time.process_time()
        try:
            parse_matrix_file(text)
            parsed = True
        except (InputError, CostGuardError):
            parsed = False
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "gram.txt")
            with open(path, "w") as fh:
                fh.write(text)
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = main(["type", path])
        assert code in ((0,) if parsed else (2, 3))
        assert time.process_time() - start < 2.0


def _ref_parse_matrix_file(text):
    """The element-by-element reference for parse_matrix_file: every entry
    through field.parse, as FieldElements, into the public constructor."""
    from qbic.fields import parse_field_spec

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
    rows = []
    for li, ln in enumerate(lines[2:]):
        toks = ln.split()
        if len(toks) != n:
            raise InputError(f"row {li + 1}: expected {n} entries, "
                             f"found {len(toks)}")
        row = []
        for ti, tok in enumerate(toks):
            try:
                row.append(field.parse(tok))
            except InputError as ex:
                raise InputError(
                    f"row {li + 1}, entry {ti + 1}: {ex}") from None
        rows.append(row)
    return field, MatrixF(field, rows)


def _parse_outcome(parse, text):
    try:
        field, M = parse(text)
    except (ValueError, CostGuardError) as ex:
        return type(ex), str(ex)
    return field, M


# spellings of elements that are not their printed name, and literals that
# are refused, on every field below
_OTHER_LITERALS = ["z^4", "7", "(z+1)", "z*z", "-1", "z^2+1", "t",
                   "(z+t)/t", "t^2*z", "1/0", "!", "(", "t^1025"]


@st.composite
def literal_files(draw):
    F = draw(st.sampled_from([GF4, GF9, GF16, GF25, GF2_18, RF4]))
    printed = st.integers(0, F.finite_part.order - 1).map(
        lambda v: str(F._make(F._const(v))))
    # a small pool, so literals repeat within the file
    pool = draw(st.lists(printed | st.sampled_from(_OTHER_LITERALS),
                         min_size=1, max_size=4))
    n = draw(st.integers(1, 4))
    rows = [" ".join(draw(st.sampled_from(pool)) for _ in range(n))
            for _ in range(n)]
    return "\n".join([f"field: {F.spec_string()}", f"n: {n}", *rows]) + "\n"


class TestParseOncePerFile:
    @settings(max_examples=300, deadline=None)
    @given(literal_files())
    def test_matches_the_element_by_element_parse(self, text):
        assert (_parse_outcome(parse_matrix_file, text)
                == _parse_outcome(_ref_parse_matrix_file, text))
        for F in (GF4, GF9, GF16, GF25, RF4.finite_part):
            assert len(F._by_name) <= F.order
            assert all(F._str(v) == name for name, v in F._by_name.items())

    @pytest.mark.parametrize("F,text", [(GF16, "z^4"), (GF25, "7"),
                                        (GF4, "(z+1)"), (GF9, "z*z"),
                                        (GF4, " z"), (GF9, "-1")])
    def test_only_printed_names_enter_the_table(self, F, text):
        x = F.parse(text)
        _, M = parse_matrix_file(f"field: {F.spec_string()}\nn: 1\n"
                                     f"{text.strip()}\n")
        assert M[0, 0] == x
        assert text not in F._by_name
        assert F.parse(str(x)) == x and F._by_name[str(x)] == x.val
        assert len(F._by_name) <= F.order

    def test_a_refused_literal_is_not_kept(self):
        with pytest.raises(ValueError, match="row 2, entry 1"):
            parse_matrix_file(f"field: {GF16.spec_string()}\nn: 2\n"
                              "z z\nz^ z\n")
        assert "z^" not in GF16._by_name

    def test_a_second_parse_of_a_file_parses_no_literal(self, monkeypatch):
        rng = rng_for("parse-once")
        text = format_matrix_file(MatrixF(GF16, [
            [GF16.random_element(rng) for _ in range(5)] for _ in range(5)]))
        _, first = parse_matrix_file(text)
        calls = []
        real = fields._parse_element

        def counted(field, literal):
            calls.append(literal)
            return real(field, literal)

        monkeypatch.setattr(fields, "_parse_element", counted)
        _, second = parse_matrix_file(text)
        assert calls == [] and second == first


# ---------------------------------------------------------------------------
# the FieldElement-level reference: matrix products, row reduction and
# kernels written on field elements, which every operation on stored
# scalars must agree with; matrices here are lists of rows


def ref_matmul(field, A, B, ncols):
    return [[sum((a * B[k][j] for k, a in enumerate(row)), field.zero())
             for j in range(ncols)] for row in A]


def ref_rref(rows, ncols):
    rows = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        sel = next((i for i in range(r, len(rows))
                    if not rows[i][c].is_zero()), None)
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        s = rows[r][c].inverse()
        rows[r] = [s * v for v in rows[r]]
        for i in range(len(rows)):
            if i != r and not rows[i][c].is_zero():
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows, pivots


def ref_span(n, vecs):
    """The reduced echelon basis vectors of the span of vecs."""
    red, pivots = ref_rref(vecs, n)
    return red[:len(pivots)]


def ref_kernel(field, rows, ncols):
    red, pivots = ref_rref(rows, ncols)
    vecs = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        vec = [field.zero()] * ncols
        vec[fc] = field.one()
        for pr, pc in enumerate(pivots):
            vec[pc] = -red[pr][fc]
        vecs.append(vec)
    return ref_span(ncols, vecs)


def ref_intersect(field, n, U, W):
    """The intersection of the spans of U and W through the kernel of the
    stacked system [U | -W]."""
    rows = [[u[i] for u in U] + [-w[i] for w in W] for i in range(n)]
    vecs = []
    for c in ref_kernel(field, rows, len(U) + len(W)):
        vec = [field.zero()] * n
        for a, u in zip(c, U):
            vec = [x + a * y for x, y in zip(vec, u)]
        vecs.append(vec)
    return ref_span(n, vecs)


def loop_complement(S, inside=None):
    """complement as one subspace_sum per ambient basis column."""
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


LADDER = [GF4, GF9, GF25, GF256, GF2_18, RF4]
LADDER_IDS = ["gf4", "gf9", "gf25", "gf256", "gf2^18", "gf4t"]


def element(field):
    if field.kind == "finite":
        # 0 and 1 often, so that ranks drop and pivots move
        return st.one_of(st.sampled_from([0, 1]),
                         st.integers(0, field.order - 1)).map(field._make)
    const = st.integers(0, 3).map(
        lambda c: field._make(field._const(c)))
    t = field.t_gen()

    @st.composite
    def fraction(draw):
        num = draw(const) + draw(const) * t
        den = draw(const) + draw(const) * t
        return num / den if den else num

    return st.one_of(st.just(field.zero()), st.just(field.one()), fraction())


@st.composite
def matrix_over(draw, field, n=None, m=None):
    """An n x m matrix X.Y with an inner dimension of 0 to 4, so that every
    rank up to min(n, m) comes up."""
    n = draw(st.integers(0, 4)) if n is None else n
    m = draw(st.integers(0, 4)) if m is None else m
    k = draw(st.integers(0, 4))
    el = element(field)
    X = [[draw(el) for _ in range(k)] for _ in range(n)]
    Y = [[draw(el) for _ in range(m)] for _ in range(k)]
    return MatrixF(field, ref_matmul(field, X, Y, m), ncols=m)


def as_lists(M):
    return [list(r) for r in M.rows]


def span_of(M):
    return Subspace.from_columns(M.field, M.nrows, M.columns())


ladder = pytest.mark.parametrize("field", LADDER, ids=LADDER_IDS)
examples = settings(max_examples=30, deadline=None)


class TestAgainstReference:
    """Every operation on stored scalars agrees with the FieldElement-level
    reference over the field ladder, an untabled field and GF(4)(t)."""

    @ladder
    @examples
    @given(data=st.data())
    def test_matmul_rank_kernel_image(self, field, data):
        A = data.draw(matrix_over(field))
        B = data.draw(matrix_over(field, n=A.ncols))
        assert as_lists(A @ B) == ref_matmul(field, as_lists(A), as_lists(B),
                                             B.ncols)
        red, pivots = ref_rref(as_lists(A), A.ncols)
        assert rank(A) == len(pivots)
        assert kernel(A).basis.columns() == ref_kernel(field, as_lists(A),
                                                       A.ncols)
        assert image(A).basis.columns() == ref_span(A.nrows, A.columns())

    @ladder
    @examples
    @given(data=st.data())
    def test_solve_and_inverse(self, field, data):
        A = data.draw(matrix_over(field))
        x0 = [data.draw(element(field)) for _ in range(A.ncols)]
        b = [r[0] for r in ref_matmul(field, as_lists(A),
                                      [[v] for v in x0], 1)]
        x = solve(A, b)
        assert ref_matmul(field, as_lists(A), [[v] for v in x], 1) == \
            [[v] for v in b]
        c = [data.draw(element(field)) for _ in range(A.nrows)]
        aug = [list(r) + [v] for r, v in zip(A.rows, c)]
        if len(ref_rref(aug, A.ncols + 1)[1]) == rank(A):
            x = solve(A, c)
            assert [r[0] for r in ref_matmul(field, as_lists(A),
                                             [[v] for v in x], 1)] == c
        else:
            with pytest.raises(ValueError):
                solve(A, c)
        S = data.draw(matrix_over(field, n=A.nrows, m=A.nrows))
        n = S.nrows
        if rank(S) == n:
            eye = MatrixF.identity(field, n)
            assert as_lists(S @ S.inverse()) == as_lists(eye)
            assert ref_matmul(field, as_lists(S.inverse()), as_lists(S),
                              n) == as_lists(eye)
        else:
            with pytest.raises(ValueError):
                S.inverse()

    @ladder
    @examples
    @given(data=st.data())
    def test_subspace_operations(self, field, data):
        n = data.draw(st.integers(0, 4))
        U = span_of(data.draw(matrix_over(field, n=n)))
        W = span_of(data.draw(matrix_over(field, n=n)))
        Uc, Wc = U.basis.columns(), W.basis.columns()
        assert subspace_sum(U, W).basis.columns() == ref_span(n, Uc + Wc)
        assert intersect(U, W).basis.columns() == \
            ref_intersect(field, n, Uc, Wc)
        assert complement(U) == loop_complement(U)
        amb = subspace_sum(U, W)
        assert complement(U, inside=amb) == loop_complement(U, inside=amb)
        assert complement(intersect(U, W), inside=W) == \
            loop_complement(intersect(U, W), inside=W)
        if W.contains(U):
            assert complement(U, inside=W) == loop_complement(U, inside=W)
        else:
            with pytest.raises(ValueError, match="not inside"):
                complement(U, inside=W)

    @ladder
    @examples
    @given(data=st.data())
    def test_twist_and_descent(self, field, data):
        A = data.draw(matrix_over(field))
        for i in (1, 2):
            assert as_lists(twist_matrix(A, i)) == \
                [[frobenius(x, i) for x in r] for r in A.rows]
        S = span_of(A)
        D = descent_test(S)
        roots = [[qth_root(x) for x in r] for r in S.basis.rows]
        if any(y is None for r in roots for y in r):
            assert field.kind != "finite" and D is None
        else:
            assert as_lists(D.basis) == roots
            assert twist_subspace(D, 1) == S

    @ladder
    @examples
    @given(data=st.data())
    def test_rows_view_equality_and_hash(self, field, data):
        A = data.draw(matrix_over(field))
        rows = A.rows
        assert all(type(x).__name__ == "FieldElement" and x.field is field
                   for r in rows for x in r)
        B = MatrixF(field, [list(r) for r in rows], ncols=A.ncols)
        assert B.rows == rows and B == A and hash(B) == hash(A)
        assert A.transpose().transpose() == A
        assert [[A[i, j] for j in range(A.ncols)]
                for i in range(A.nrows)] == as_lists(A)

    @ladder
    @examples
    @given(data=st.data())
    def test_apply_pairing_and_orthogonals(self, field, data):
        A = data.draw(matrix_over(field))
        v = [data.draw(element(field)) for _ in range(A.ncols)]
        assert A.apply(v) == [r[0] for r in ref_matmul(
            field, as_lists(A), [[x] for x in v], 1)]
        n = data.draw(st.integers(0, 4))
        B = data.draw(matrix_over(field, n=n, m=n))
        u = [data.draw(element(field)) for _ in range(n)]
        v = [data.draw(element(field)) for _ in range(n)]
        Bv = ref_matmul(field, as_lists(B), [[x] for x in v], 1)
        assert pairing(B, u, v) == ref_matmul(
            field, [[frobenius(x, 1) for x in u]], Bv, 1)[0][0]
        S = span_of(data.draw(matrix_over(field, n=n)))
        # {w : w^T B s = 0}: the kernel of the rows (B s)^T
        rows = [[r[0] for r in ref_matmul(field, as_lists(B),
                                          [[x] for x in s], 1)]
                for s in S.basis.columns()]
        assert left_orthogonal(B, S).basis.columns() == \
            ref_kernel(field, rows, n)
        # {v : s^T B v = 0}: the kernel of the rows s^T B
        rows = [ref_matmul(field, [s], as_lists(B), n)[0]
                for s in S.basis.columns()]
        assert right_orthogonal(B, S).basis.columns() == \
            ref_kernel(field, rows, n)

    @pytest.mark.parametrize("field", [GF4, GF9], ids=["gf4", "gf9"])
    @examples
    @given(data=st.data())
    def test_subspace_vectors_order(self, field, data):
        """The coefficient tuples on the echelon basis run through
        itertools.product over the encodings: enumerate_points samples
        depend on this order."""
        S = span_of(data.draw(matrix_over(field, n=data.draw(
            st.integers(0, 3)), m=2)))
        cols = S.basis.columns()
        want = []
        for coeffs in itertools.product(range(field.order), repeat=S.dim):
            vec = [field.zero()] * S.n
            for c, col in zip(coeffs, cols):
                vec = [a + field._make(c) * b for a, b in zip(vec, col)]
            want.append(vec)
        assert list(subspace_vectors(S)) == want

    def test_subspace_vectors_pinned(self):
        z, one, zero = GF4.gen(), GF4.one(), GF4.zero()
        S = Subspace.from_columns(GF4, 3, [[one, zero, z], [zero, one, one]])
        assert [" ".join(map(str, v)) for v in subspace_vectors(S)] == [
            "0 0 0", "0 1 1", "0 z z", "0 z+1 z+1", "1 0 z", "1 1 z+1",
            "1 z 0", "1 z+1 1", "z 0 z+1", "z 1 z", "z z 1", "z z+1 0",
            "z+1 0 1", "z+1 1 0", "z+1 z z+1", "z+1 z+1 z"]
        z = GF9.gen()
        S = Subspace.from_columns(GF9, 2, [[GF9.one(), z]])
        assert [" ".join(map(str, v)) for v in subspace_vectors(S)] == [
            "0 0", "1 z", "2 2*z", "z 2", "z+1 z+2", "z+2 2*z+2", "2*z 1",
            "2*z+1 z+1", "2*z+2 2*z+1"]

    def test_zero_column_matrices(self):
        for field in LADDER:
            tall = MatrixF(field, [[], [], []])
            assert tall.nrows == 3 and tall.ncols == 0 and tall.rows == \
                ((), (), ())
            same = [MatrixF.zero(field, 3, 0),
                    MatrixF(field, [], ncols=3).transpose()]
            for M in same:
                assert M == tall and hash(M) == hash(tall)
            flat = MatrixF(field, [], ncols=3)
            others = [MatrixF(field, [[], []]), MatrixF(field, []), flat]
            for M in others:
                assert M != tall
            assert flat != MatrixF(field, []) and flat.rows == ()
            assert flat == MatrixF.zero(field, 0, 3)
            assert hash(flat) == hash(MatrixF.zero(field, 0, 3))

    def test_constructor_refuses_other_fields(self):
        with pytest.raises(ValueError, match="field mismatch"):
            MatrixF(GF4, [[GF4.one(), GF9.one()]])
        with pytest.raises(ValueError, match="field mismatch"):
            MatrixF.block_diagonal(GF4, [MatrixF.identity(GF9, 1)])


# ---------------------------------------------------------------------------
# GF(p) systems on plain ints, against a reduction written out here


def ref_gfp_rref(rows, ncols, p):
    rows = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        sel = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        s = pow(rows[r][c], -1, p)
        rows[r] = [s * v % p for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows, pivots


@st.composite
def gfp_columns(draw, p):
    """The columns of an nrows x ncols GF(p) matrix X.Y of rank at most an
    inner dimension of 0 to 4."""
    nrows, ncols, k = (draw(st.integers(0, 5)) for _ in range(3))
    el = st.integers(0, p - 1)
    X = [[draw(el) for _ in range(k)] for _ in range(nrows)]
    Y = [[draw(el) for _ in range(ncols)] for _ in range(k)]
    cols = [[sum(X[i][s] * Y[s][j] for s in range(k)) % p
             for i in range(nrows)] for j in range(ncols)]
    return nrows, cols


class TestGFpSystems:
    """The int-mod-p row update and the GF(p) kernel and pivots that the
    Hermitian systems and field embeddings solve."""

    @pytest.mark.parametrize("p", [2, 3, 5])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_axpy_kernel_and_pivots(self, p, data):
        el = st.integers(0, p - 1)
        k = data.draw(st.integers(0, 3))
        v = data.draw(st.lists(el, max_size=5))
        acc = data.draw(st.lists(el, min_size=k + len(v),
                                 max_size=k + len(v) + 2))
        c = data.draw(el)
        want = list(acc)
        for j, x in enumerate(v, k):
            want[j] = (want[j] + c * x) % p
        _gfp_ops(p).axpy(acc, k, c, v)
        assert acc == want

        nrows, cols = data.draw(gfp_columns(p))
        rows = [[col[r] for col in cols] for r in range(nrows)]
        red, pivots = ref_gfp_rref(rows, len(cols), p)
        assert _gfp_pivots(cols, p, nrows) == pivots
        ker = []
        for fc in range(len(cols)):
            if fc not in pivots:
                vec = [0] * len(cols)
                vec[fc] = 1
                for pr, pc in enumerate(pivots):
                    vec[pc] = -red[pr][fc] % p
                ker.append(vec)
        assert _gfp_kernel(cols, p, nrows) == ker
        for vec in ker:
            assert all(sum(a * x for a, x in zip(row, vec)) % p == 0
                       for row in rows)
