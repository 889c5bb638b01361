import pytest
from hypothesis import given, settings, strategies as st

from qbic.fields import field_make, frobenius
from qbic.linalg import (MatrixF, Subspace, complement, descent_test, image,
                         intersect, kernel, left_orthogonal,
                         parse_matrix_file, format_matrix_file, quotient_dim,
                         rank, right_orthogonal, solve, subspace_sum,
                         twist_matrix, twist_subspace, twisted_congruence)

GF4 = field_make(2, 1, 2)
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


class TestScalarPaths:
    """Finite fields run matrix products and elimination on int encodings,
    GF(q)(t) on FieldElements; both share one loop."""

    def test_field_mismatch(self):
        GF16 = field_make(2, 2, 4)
        with pytest.raises(ValueError, match="field mismatch"):
            MatrixF.identity(GF4, 2) @ MatrixF.identity(GF16, 2)

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


class TestSubspaces:
    @given(matrices())
    def test_canonical_echelon_basis(self, A):
        S = Subspace.from_columns(GF4, A.nrows, A.columns())
        doubled = Subspace.from_columns(GF4, A.nrows,
                                        A.columns() + A.columns())
        assert S == doubled
        assert S.dim == rank(A)

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

    @given(matrices(n=4))
    def test_quotient_dim(self, A):
        U = Subspace.from_columns(GF4, 4, A.columns())
        assert quotient_dim(U, Subspace.full(GF4, 4)) == 4 - U.dim


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
