import itertools

import pytest

from conftest import random_form, random_invertible, rng_for
from qbic import CostGuardError
from qbic.fields import field_make
from qbic.forms import (QBicForm, parse_type, perp_filtration,
                        perp_prime_filtration, type_of)
from qbic.classify import jordan_gram, standard_gram
from qbic.auts import (aut_report, enumerate_points, group_dim, lie_dim,
                       lie_points, phi)
from qbic.linalg import (MatrixF, Subspace, twist_matrix, twist_subspace,
                         twisted_congruence)
from qbic.moduli import enumerate_types

GF4 = field_make(2, 1, 2)


def form_of(text, field=GF4):
    return QBicForm(field, standard_gram(parse_type(text), field))


def brute_force_count(B):
    """Reference count, the scan the column search replaced: test every
    one of the |field|^(n^2) matrices."""
    field, n = B.field, B.nrows
    count = 0
    for entries in itertools.product(list(field.elements()), repeat=n * n):
        A = MatrixF(field, [entries[i * n:(i + 1) * n] for i in range(n)])
        if A.is_invertible() and twisted_congruence(B, A) == B:
            count += 1
    return count


def unitary_order(q, n):
    """Order of the unitary group U_n(q), the stabilizer of 1^n over
    F_{q^2}: q^(n(n-1)/2) * prod_{i=1}^{n} (q^i - (-1)^i)."""
    out = q ** (n * (n - 1) // 2)
    for i in range(1, n + 1):
        out *= q ** i - (-1) ** i
    return out


class TestDimensionFormulas:
    def test_lie_dim(self):
        assert lie_dim(parse_type("1^4")) == 0
        assert lie_dim(parse_type("N4")) == 4
        assert lie_dim(parse_type("0^3")) == 9

    def test_group_dim_examples(self):
        assert group_dim(parse_type("N5")) == 3
        for a in range(3):
            for b in range(1, 4):
                t = parse_type(f"1^{a}+N2^{b}" if a else f"N2^{b}")
                assert group_dim(t) == b * b
        assert group_dim(parse_type("0+1^2+N2")) == 6

    def test_group_dim_at_most_lie_dim(self):
        for n in range(1, 11):
            for t in enumerate_types(n):
                assert group_dim(t) <= lie_dim(t)

    def test_phi_examples(self):
        assert phi(parse_type("1^4"), 1) == 4
        assert phi(parse_type("N2"), 2) == 2

    def test_summation_identity(self):
        for n1 in range(1, 5):
            for n2 in range(1, 5):
                for t in enumerate_types(n1):
                    for s in enumerate_types(n2):
                        lhs = group_dim(t.direct_sum(s))
                        rhs = (group_dim(t) + group_dim(s)
                               + sum(t.b_m(2 * k - 1)
                                     for k in range(1, t.n + 1)) * s.a
                               + sum(phi(t, m) * s.b_m(m) for m in s.b))
                        assert lhs == rhs


class TestPointEnumeration:
    def test_unitary_counts(self):
        assert enumerate_points(form_of("1"))[0] == 3
        assert enumerate_points(form_of("1^2"))[0] == 18
        assert enumerate_points(
            QBicForm(GF4, MatrixF.zero(GF4, 2, 2)))[0] == 180

    def test_matches_brute_force_on_conjugates(self):
        rng = rng_for("points")
        for n in (1, 2):
            for t in enumerate_types(n):
                for _ in range(3):
                    A = random_invertible(GF4, n, rng)
                    B = twisted_congruence(standard_gram(t, GF4), A)
                    count, samples = enumerate_points(QBicForm(GF4, B))
                    assert count == brute_force_count(B)
                    assert len(samples) == min(count, 10)
                    for S in samples:
                        assert S.is_invertible()
                        assert twisted_congruence(B, S) == B

    @pytest.mark.parametrize("p,e,k", [(2, 1, 2), (3, 1, 2), (2, 2, 4),
                                       (5, 1, 2)])
    def test_unitary_closed_form(self, p, e, k):
        F = field_make(p, e, k)
        for n in (1, 2):
            identity = MatrixF.identity(F, n)
            count, samples = enumerate_points(QBicForm(F, identity))
            assert count == unitary_order(F.q, n)
            for S in samples:
                assert S.is_invertible()
                assert twisted_congruence(identity, S) == identity

    def test_dimension_three(self):
        assert enumerate_points(form_of("1^3"))[0] == 648
        assert unitary_order(2, 3) == 648
        assert enumerate_points(form_of("N3"))[0] == 12

    def test_sample_matrices_stabilize(self):
        f = form_of("0+1")
        count, samples = enumerate_points(f)
        assert 0 < len(samples) <= 10
        for A in samples:
            assert twisted_congruence(f.gram, A) == f.gram

    def test_points_preserve_filtrations(self):
        for text in ["N2", "0+1"]:
            f = form_of(text)
            filt = perp_filtration(f)
            pfilt = perp_prime_filtration(f)
            _, samples = enumerate_points(f)
            for A in samples:
                for i in range(f.n + 2):
                    P = filt.piece(i)
                    assert Subspace.from_columns(
                        GF4, f.n, [A.apply(v) for v in
                                   P.basis.transpose().rows]) == P
                    Pp = pfilt.piece_on_twist(i)
                    Ai = twist_matrix(A, i)
                    assert Subspace.from_columns(
                        GF4, f.n, [Ai.apply(v) for v in
                                   Pp.basis.transpose().rows]) == Pp

    def test_unitary_fixed_point_description(self):
        # for nonsingular B, membership can also be read as
        # g = B^{-1} . (g^[1],T)^{-1} . B
        f = form_of("1^2")
        B = f.gram
        _, samples = enumerate_points(f)
        for g in samples:
            gt = twist_matrix(g, 1).transpose()
            assert g == B.inverse() @ gt.inverse() @ B

    def test_cost_guard(self):
        with pytest.raises(CostGuardError):
            enumerate_points(QBicForm(GF4, MatrixF.identity(GF4, 4)))
        RF4 = field_make(2, 1, 2, kind="rational-function")
        with pytest.raises(CostGuardError):
            enumerate_points(QBicForm(RF4, MatrixF.identity(RF4, 1)))


class TestLiePoints:
    def test_identity_and_jordan(self):
        assert lie_points(form_of("1^3")) == 1
        assert lie_points(QBicForm(GF4, jordan_gram(GF4, 2))) == 16
        assert lie_points(QBicForm(GF4, jordan_gram(GF4, 3))) == 64

    def test_matches_lie_dim_on_random_forms(self):
        rng = rng_for("lie")
        for _ in range(30):
            f = random_form(GF4, rng.randint(1, 5), rng)
            assert lie_points(f) == 4 ** lie_dim(type_of(f))


class TestReport:
    def test_report_shape(self):
        rep = aut_report(form_of("1^2"), points=True)
        assert rep == {"type": "1^2", "lie_dim": 0, "group_dim": 0,
                       "points": {"field": "2^2", "count": 18}}
