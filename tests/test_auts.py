import functools
import itertools
import math
import operator
from fractions import Fraction

import pytest

from conftest import random_form, random_invertible, rng_for
from qbic import CostGuardError, auts
from qbic.fields import FieldElement, field_make, frobenius, qth_root
from qbic.forms import (QBicForm, parse_type, perp_filtration,
                        perp_prime_filtration, type_of)
from qbic.classify import jordan_gram, standard_gram
from qbic.auts import enumerate_points, group_dim, lie_dim, lie_points
from qbic.linalg import (MatrixF, Subspace, kernel, pairing, solve,
                         subspace_vectors, twist_matrix, twisted_congruence)
from qbic.moduli import enumerate_types, phi

GF4 = field_make(2, 1, 2)
GF9 = field_make(3, 1, 2)
GF16 = field_make(2, 2, 4)
GF25 = field_make(5, 1, 2)


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


def column_search_count(B):
    """Reference count, the search the stabilizer chain replaced: choose
    the columns of A one at a time, each from the solutions of a linear
    system, and visit every automorphism as a leaf."""
    field, n = B.field, B.nrows
    Bt = B.transpose()
    count = 0

    def extend(cols):
        nonlocal count
        j = len(cols)
        if j == n:
            count += 1
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
    return count


def reference_points(f):
    """Reference (count, samples), the stabilizer chain on FieldElements
    that the scalar chain replaced: the same levels, candidate order and
    depth-first order, each candidate built from elements and tested by
    `pairing` and a fresh `Subspace.from_columns`.  No guard."""
    B, field, n = f.gram, f.field, f.n
    Bt = B.transpose()

    def conditions(cols):
        j = len(cols)
        rows, rhs = [], []
        for i, a in enumerate(cols):
            rows.append(Bt.apply([frobenius(x, 1) for x in a]))
            rhs.append(B[i, j])
            rows.append([qth_root(c) for c in B.apply(a)])
            rhs.append(qth_root(B[j, i]))
        return MatrixF(field, rows, ncols=n), rhs

    def columns(cols, x0, null):
        j = len(cols)
        for k in subspace_vectors(null):
            x = [a + b for a, b in zip(x0, k)]
            if (pairing(B, x, x) == B[j, j] and
                    Subspace.from_columns(field, n, cols + [x]).dim > j):
                yield x

    def first_leaf(cols):
        if len(cols) == n:
            return cols
        M, rhs = conditions(cols)
        try:
            x0 = solve(M, rhs)
        except ValueError:
            return None
        for x in columns(cols, x0, kernel(M)):
            leaf = first_leaf(cols + [x])
            if leaf is not None:
                return leaf
        return None

    basis = MatrixF.identity(field, n).columns()
    transversals = []
    for j in range(n):
        prefix = basis[:j]
        null = kernel(conditions(prefix)[0])
        leaves = (first_leaf(prefix + [x])
                  for x in columns(prefix, basis[j], null))
        transversals.append([cols for cols in leaves if cols is not None])
    count = math.prod(map(len, transversals))
    samples = [functools.reduce(operator.matmul,
                                (MatrixF(field, cols).transpose()
                                 for cols in ts))
               for ts in itertools.islice(itertools.product(*transversals),
                                          10)]
    return count, samples


def general_linear_order(order, n):
    out = 1
    for i in range(n):
        out *= order ** n - order ** i
    return out


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

    def test_mass_identity(self):
        # the automorphism group of a form of type t over GF(Q) with split
        # residue has order Q^(group_dim - sum b_m^2) prod |GL_{b_m}(Q)| |U_a|;
        # summed over the classes of U_a, the forms of type t number
        # N(t) = |GL_n(Q)| / (Q^(group_dim - sum b_m^2) prod |GL_{b_m}(Q)|),
        # and every Gram matrix has one type.  Changing group_dim at any
        # one type breaks the sum.
        for n in range(1, 13):
            types = enumerate_types(n)
            for Q in (4, 9, 16, 25, 64):
                total = 0
                for t in types:
                    den = Q ** (group_dim(t)
                                - sum(b * b for b in t.b.values()))
                    for b in t.b.values():
                        den *= general_linear_order(Q, b)
                    count, rest = divmod(general_linear_order(Q, n), den)
                    assert rest == 0, (n, Q, str(t))
                    total += count
                assert total == Q ** (n * n), (n, Q)


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
                                       (2, 1, 4), (5, 1, 2)])
    def test_unitary_closed_form(self, p, e, k):
        F = field_make(p, e, k)
        for n in range(1, 4 if F.order == 4 else 3):
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
        with pytest.raises(CostGuardError, match="n <= 8"):
            lie_points(QBicForm(GF4, MatrixF.identity(GF4, 9)))
        # a form over GF(q)(t) is bad input, not a cost
        RF4 = field_make(2, 1, 2, kind="rational-function")
        f = QBicForm(RF4, MatrixF.identity(RF4, 1))
        with pytest.raises(ValueError, match="needs a finite base field"):
            enumerate_points(f)
        with pytest.raises(ValueError, match="needs a finite base field"):
            lie_points(f)


# Types whose reference search takes over 0.2 s: it visits one leaf per
# automorphism, and these have thousands.
SLOW_FOR_REFERENCE = {GF4: {"0^3", "0^2+1"}, GF9: {"0^2"}, GF16: {"0^2"},
                      GF25: {"0^2", "0+1"}}


def chain_cases():
    """Seeded conjugates of every type n <= 3 over GF(4) and n <= 2 over
    GF(9), GF(16) and GF(25)."""
    rng = rng_for("chain")
    for F, top in ((GF4, 3), (GF9, 2), (GF16, 2), (GF25, 2)):
        for n in range(1, top + 1):
            for t in enumerate_types(n):
                for _ in range(2):
                    A = random_invertible(F, n, rng)
                    yield F, t, twisted_congruence(standard_gram(t, F), A)


def assert_matches_reference(f):
    count, samples = enumerate_points(f)
    want_count, want_samples = reference_points(f)
    assert count == want_count
    assert len(samples) == len(want_samples)
    for S, W in zip(samples, want_samples):
        assert S == W


class TestAgainstElementChain:
    """The scalar chain returns what the chain on FieldElements returned:
    the same count and the same sample matrices in the same order."""

    def test_conjugates(self):
        for F, t, B in chain_cases():
            assert_matches_reference(QBicForm(F, B))

    def test_every_gf4_gram_of_size_two(self):
        elements = list(GF4.elements())
        for a, b, c, d in itertools.product(elements, repeat=4):
            assert_matches_reference(QBicForm(GF4, MatrixF(GF4, [[a, b],
                                                                 [c, d]])))

    @pytest.mark.parametrize("e", [1, 4])
    def test_every_gf256_form_of_size_one(self, e):
        F = field_make(2, e, 8)
        for x in F.elements():
            assert_matches_reference(QBicForm(F, MatrixF(F, [[x]])))


# Work of the chain on standard forms, (nodes, candidates): a node is one
# call of the depth-first search, leaves included, and a candidate is one
# column tested against beta(x, x) and independence.  Measured on the
# chain on FieldElements (reference_points); running on scalars must not
# change the search.
CHAIN_WORK = {(GF4, "0^2"): (42, 71), (GF4, "0+N2"): (370, 558),
              (GF4, "0^3"): (357, 978), (GF25, "0^2"): (1848, 3074)}


@pytest.mark.parametrize("F,text", list(CHAIN_WORK),
                         ids=[f"{F.order}:{t}" for F, t in CHAIN_WORK])
def test_chain_work_is_pinned(monkeypatch, F, text):
    work = [0, 0]
    first_leaf, span_vectors = auts._first_leaf, auts._span_vectors

    def counted_leaf(*args):
        work[0] += 1
        return first_leaf(*args)

    def counted_vectors(*args):
        for x in span_vectors(*args):
            work[1] += 1
            yield x

    monkeypatch.setattr(auts, "_first_leaf", counted_leaf)
    monkeypatch.setattr(auts, "_span_vectors", counted_vectors)
    enumerate_points(QBicForm(F, standard_gram(parse_type(text), F)))
    assert tuple(work) == CHAIN_WORK[F, text]


# FieldElement's arithmetic, as qbicbench/tracer.py counts it, and its
# constructor, comparisons and truth
ELEMENT_METHODS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                   "__rmul__", "__neg__", "__truediv__", "__rtruediv__",
                   "__pow__", "inverse", "__init__", "__eq__", "__hash__",
                   "__bool__")


@pytest.mark.parametrize("F,text", [(GF4, "0+N2"), (GF4, "1^3"),
                                    (GF25, "0+1"), (GF25, "N2")],
                         ids=["4:0+N2", "4:1^3", "25:0+1", "25:N2"])
def test_chain_makes_no_field_element(monkeypatch, F, text):
    f = QBicForm(F, standard_gram(parse_type(text), F))
    want = enumerate_points(f)  # builds the field's cached scalar ops
    calls = []
    for name in ELEMENT_METHODS:
        method = FieldElement.__dict__[name]

        def counted(*args, _method=method, _name=name):
            calls.append(_name)
            return _method(*args)

        monkeypatch.setattr(FieldElement, name, counted)
    got = enumerate_points(f)
    monkeypatch.undo()
    assert calls == []
    assert got == want


class TestStabilizerChain:
    def test_matches_column_search_on_conjugates(self):
        for F, t, B in chain_cases():
            if str(t) in SLOW_FOR_REFERENCE[F]:
                continue
            count, _ = enumerate_points(QBicForm(F, B))
            assert count == column_search_count(B), (F, str(t))

    def test_samples(self):
        for F, t, B in chain_cases():
            count, samples = enumerate_points(QBicForm(F, B))
            assert len(samples) == min(count, 10)
            assert len(set(samples)) == len(samples)
            for S in samples:
                assert S.is_invertible()
                assert twisted_congruence(B, S) == B

    @pytest.mark.parametrize("F,n,order", [(GF4, 3, 181440),
                                           (GF16, 2, 61200),
                                           (GF25, 2, 374400)])
    def test_general_linear_orders(self, F, n, order):
        # B = 0 is fixed by every invertible A; orbit j of the chain is
        # every vector outside span(e_1..e_{j-1})
        f = QBicForm(F, MatrixF.zero(F, n, n))
        # every level is e_j plus the whole space, as scalar rows
        basis = [list(c) for c in zip(*MatrixF.identity(F, n)._e)]
        assert auts._chain_levels(f) == [(e, basis) for e in basis]
        assert [len(T) for T in auts._transversals(f)] == [
            F.order ** n - F.order ** j for j in range(n)]
        assert enumerate_points(f)[0] == general_linear_order(F.order, n)
        assert general_linear_order(F.order, n) == order

    def test_group_dim_is_the_growth_rate(self):
        # q = 2 fixed and the base field run up GF(4), GF(16), GF(64),
        # past the static guard: count / |F|^group_dim levels off
        exact = {"0+1": lambda m: 3 * m * (m - 1), "N2": lambda m: m - 1,
                 "1^2": lambda m: 18}
        limit = {"0+1": 3, "N2": 1, "1^2": 18}
        for text, closed in exact.items():
            t = parse_type(text)
            gaps = []
            for k in (2, 4, 6):
                F = field_make(2, 1, k)
                f = QBicForm(F, standard_gram(t, F))
                count = math.prod(map(len, auts._transversals(f)))
                assert count == closed(F.order), (text, k)
                ratio = Fraction(count, F.order ** group_dim(t))
                gaps.append(abs(ratio - limit[text]))
            assert gaps[2] <= gaps[1] <= gaps[0]
            assert gaps[2] <= Fraction(limit[text], 60), text


class TestChainGuard:
    @pytest.mark.parametrize("k", [16, 18])
    def test_one_level_bound(self, k):
        # a 1x1 form's one level holds every vector of the field: GF(2^16)
        # is admitted, GF(2^18) refused before any search
        F = field_make(2, 1, k)
        for B in (MatrixF.identity(F, 1), MatrixF.zero(F, 1, 1)):
            f = QBicForm(F, B)
            if k == 16:
                levels = auts._chain_levels(f)
                assert [e for e, _ in levels] == [[F.one().val]]
                assert sum(F.order ** len(null)
                           for _, null in levels) == 2 ** 16
            else:
                with pytest.raises(CostGuardError, match="262144 candidate"):
                    enumerate_points(f)

    def test_static_bounds_stay(self):
        # GF(9) n = 3 has 9^9 > 5^9 matrices, n = 4 is refused outright
        f = QBicForm(GF9, MatrixF.identity(GF9, 3))
        with pytest.raises(CostGuardError, match=r"n <= 3, \|field\|"):
            enumerate_points(f)
        with pytest.raises(CostGuardError, match="1953125"):
            enumerate_points(QBicForm(GF4, MatrixF.zero(GF4, 4, 4)))


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
