"""Acceptance suite: one test (and one printed pass/fail line) per
criterion.  All checks are exact; runtimes are asserted against the
stated budgets."""

import itertools
import random
import time
from collections import Counter

from qbic.fields import field_make
from qbic.forms import (QBicForm, hermitian_space, nu_index, nu_zero_bound,
                        parse_type, perp_filtration, perp_prime_filtration,
                        type_of)
from qbic.classify import normal_form, standard_gram
from qbic.auts import group_dim, lie_dim, lie_points
from qbic.moduli import (build_poset, enumerate_types, generator_step,
                         necessary, phi, specialize_query, sufficient,
                         witness)
from qbic.linalg import MatrixF, intersect, twist_matrix, twist_subspace

GF4 = field_make(2, 1, 2)
P = parse_type

FIG5_TYPES = ["1^5", "1^3+N2", "1+N4", "N5", "1+N2^2", "1^2+N3", "N2+N3",
              "0+1^4", "0+1^2+N2"]
FIG5_DIMS = [25, 24, 23, 22, 21, 21, 20, 20, 19]
FIG5_EDGES = {
    ("1^5", "1^3+N2"), ("1^3+N2", "1+N4"), ("1+N4", "N5"),
    ("1+N4", "1+N2^2"), ("N5", "1^2+N3"), ("1+N2^2", "N2+N3"),
    ("1^2+N3", "N2+N3"), ("1^2+N3", "0+1^4"), ("N2+N3", "0+1^2+N2"),
    ("0+1^4", "0+1^2+N2")}

FIG6_TYPES = ["1^6", "1^4+N2", "1^2+N4", "N6", "1+N5", "1^3+N3", "0+1^5",
              "1^2+N2^2", "N2+N4", "1+N2+N3", "0+1^3+N2", "N3^2", "0+N5",
              "N2^3", "0+1+N2^2"]
# the published diagram, minus the edge 1+N2+N3 ~> N2^3 (it violates the
# necessary predicate: Psi_3 would drop from 1 to 0, and adding N_3^{+4}
# to both sides would make the automorphism group dimension drop 66 -> 65
# against upper semicontinuity)
FIG6_EDGES_CONSISTENT = {
    ("1^6", "1^4+N2"), ("1^4+N2", "1^2+N4"), ("1^2+N4", "N6"),
    ("N6", "1+N5"), ("1+N5", "1^3+N3"), ("1^3+N3", "0+1^5"),
    ("1^2+N4", "1^2+N2^2"), ("N6", "N2+N4"), ("1^3+N3", "1+N2+N3"),
    ("0+1^5", "0+1^3+N2"), ("1^2+N2^2", "N2+N4"), ("N2+N4", "1+N2+N3"),
    ("1+N2+N3", "0+1^3+N2"), ("1+N2+N3", "N3^2"), ("N3^2", "0+N5"),
    ("N2^3", "0+1+N2^2")}
# immediate edges the diagram truncates (its caption stops "up to the
# first few with nontrivial radical") or that replace the dropped edge
FIG6_EXTRA_EDGES = {
    ("N2+N4", "N2^3"), ("0+1^3+N2", "0+1+N2^2"), ("0+1^3+N2", "0+N5")}


def random_invertible(field, n, rng):
    while True:
        A = MatrixF(field, [[field.random_element(rng) for _ in range(n)]
                            for _ in range(n)])
        if A.is_invertible():
            return A


def report(num, label, elapsed, budget):
    print(f"CRITERION {num:2d} [{label}]: PASS ({elapsed:.2f}s "
          f"< {budget:.0f}s)")
    assert elapsed < budget


def test_criterion_01_figure5_dimensions():
    t0 = time.time()
    dims = [25 - group_dim(P(s)) for s in FIG5_TYPES]
    assert dims == FIG5_DIMS
    report(1, "figure n=5 dimension row", time.time() - t0, 1)


def test_criterion_02_figure_edges():
    t0 = time.time()
    poset5 = build_poset(5, restrict=[P(s) for s in FIG5_TYPES])
    got5 = {(str(e.src.t), str(e.dst.t)) for e in poset5.edges}
    assert got5 == FIG5_EDGES

    poset6 = build_poset(6, restrict=[P(s) for s in FIG6_TYPES])
    got6 = {(str(e.src.t), str(e.dst.t)) for e in poset6.edges}
    assert got6 == FIG6_EDGES_CONSISTENT | FIG6_EXTRA_EDGES
    # the one published edge left out is numerically impossible
    assert not necessary(P("1+N2+N3"), P("N2^3"))
    # N3^2 ~> 0+N5 is present through generator evidence alone
    edge = next(e for e in poset6.edges
                if (str(e.src.t), str(e.dst.t)) == ("N3^2", "0+N5"))
    assert edge.evidence == "G" and edge.path
    report(2, "figure n=5 and n=6 edge sets", time.time() - t0, 5)


def test_criterion_03_exhaustive_gf4_n2():
    t0 = time.time()
    els = list(GF4.elements())
    grams = [MatrixF(GF4, [[a, b], [c, d]])
             for a, b, c, d in itertools.product(els, repeat=4)]
    types = {B: str(type_of(QBicForm(GF4, B))) for B in grams}
    census = Counter(types.values())
    assert census == {"0^2": 1, "0+1": 15, "N2": 60, "1^2": 180}
    assert sum(census.values()) == 256 and len(census) == 4
    invertibles = [A for A in grams if A.is_invertible()]
    assert len(invertibles) == 180
    for A in invertibles:
        At = twist_matrix(A, 1).transpose()
        for B in grams:
            assert types[At @ B @ A] == types[B]
    report(3, "exhaustive GF(4) n=2 orbit invariance", time.time() - t0, 30)


def test_criterion_04_normal_form_round_trip():
    t0 = time.time()
    rng = random.Random("acceptance-4")
    for n in range(1, 6):
        for t in enumerate_types(n):
            base = standard_gram(t, GF4)
            for _ in range(50):
                A = random_invertible(GF4, n, rng)
                f = QBicForm(GF4,
                             twist_matrix(A, 1).transpose() @ base @ A)
                cert = normal_form(f)
                assert cert.verified and cert.target == t
    report(4, "normal-form round trip, 50 conjugates per type n<=5",
           time.time() - t0, 120)


def test_criterion_05_hermitian_counts():
    t0 = time.time()
    for n in range(1, 4):
        f = QBicForm(GF4, MatrixF.identity(GF4, n))
        assert hermitian_space(f, 1).point_count == 4 ** n
    f2 = QBicForm(GF4, standard_gram(P("N2"), GF4))
    for r in range(1, 4):
        assert hermitian_space(f2, r).point_count == 1
    f3 = QBicForm(GF4, standard_gram(P("N3"), GF4))
    for r in range(1, 4):
        assert hermitian_space(f3, r).point_count == 4 ** r
    report(5, "Hermitian point counts", time.time() - t0, 10)


def test_criterion_06_filtration_symmetry():
    t0 = time.time()
    rng = random.Random("acceptance-6")
    for _ in range(200):
        n = rng.randint(1, 6)
        f = QBicForm(GF4, MatrixF(GF4, [
            [GF4.random_element(rng) for _ in range(n)] for _ in range(n)]))
        filt = perp_filtration(f)
        pfilt = perp_prime_filtration(f)

        def d(i, j):
            return intersect(twist_subspace(filt.piece(i), j),
                             pfilt.piece_on_twist(j)).dim

        for i in range(n + 2):
            for j in range(i, n + 2):
                assert d(i, j) == d(j, i)
    report(6, "dim(P_i x P'_j) symmetry on 200 random forms",
           time.time() - t0, 60)


def test_criterion_07_lie_dimension_oracle():
    t0 = time.time()
    rng = random.Random("acceptance-7")
    for _ in range(100):
        n = rng.randint(1, 5)
        f = QBicForm(GF4, MatrixF(GF4, [
            [GF4.random_element(rng) for _ in range(n)] for _ in range(n)]))
        assert lie_points(f) == 4 ** lie_dim(type_of(f))
    for n in range(1, 11):
        for t in enumerate_types(n):
            assert group_dim(t) <= lie_dim(t)
    report(7, "Lie points = |field|^lie_dim; group_dim <= lie_dim",
           time.time() - t0, 60)


def test_criterion_08_summation_identity():
    t0 = time.time()
    for n1 in range(1, 8):
        for n2 in range(1, 9 - n1):
            for t in enumerate_types(n1):
                for s in enumerate_types(n2):
                    lhs = group_dim(t.direct_sum(s))
                    rhs = (group_dim(t) + group_dim(s)
                           + sum(t.b_m(2 * k - 1)
                                 for k in range(1, t.n + 1)) * s.a
                           + sum(phi(t, m) * s.b_m(m) for m in s.b))
                    assert lhs == rhs
    report(8, "dimension summation identity, combined n<=8",
           time.time() - t0, 30)


def test_criterion_09_dvr_witnesses():
    t0 = time.time()
    cases = []
    for s in range(1, 4):              # F1: n = 2s+1 <= 8
        cases.append((1, s, None))
    for s in range(1, 5):              # F2, F3: n = 2s <= 8
        cases.append((2, s, None))
        cases.append((3, s, None))
    for s in range(1, 4):              # F4: n = 4s-2t+2 <= 8
        for tp in range(1, s + 1):
            if 4 * s - 2 * tp + 2 <= 8:
                cases.append((4, s, tp))
    for s in range(1, 3):              # F5: n = 4s+2t <= 8
        for tp in range(1, 3):
            if 4 * s + 2 * tp <= 8:
                cases.append((5, s, tp))
    assert len(cases) >= 15
    for fam, s, tp in cases:
        w = witness(fam, s, tp, q=2)
        assert w.verified, (fam, s, tp)
        assert w.form.n <= 8
    report(9, "DVR witnesses, five families, total n<=8, q=2",
           time.time() - t0, 60)


def test_criterion_10_predicate_soundness():
    t0 = time.time()
    for n in range(1, 9):
        types = enumerate_types(n)
        for t in types:
            for s in types:
                if sufficient(t, s):
                    assert necessary(t, s)
            for (new, fam, sp, tp) in generator_step(t):
                assert necessary(t, new)
                assert group_dim(new) > group_dim(t)
    report(10, "sufficient => necessary; generator steps sound, n<=8",
           time.time() - t0, 120)


def test_criterion_11_nu_bounds():
    t0 = time.time()
    rng = random.Random("acceptance-11")
    for _ in range(50):
        f = QBicForm(GF4, MatrixF(GF4, [
            [GF4.random_element(rng) for _ in range(3)] for _ in range(3)]))
        assert nu_index(f) == 0
    RF4 = field_make(2, 1, 2, kind="rational-function")
    t = RF4.t_gen()
    z = RF4.gen()
    pool = [RF4.zero(), RF4.one(), t, z, z * t, t + RF4.one()]
    positive = 0
    for entries in itertools.product(range(len(pool)), repeat=4):
        B = MatrixF(RF4, [[pool[entries[0]], pool[entries[1]]],
                          [pool[entries[2]], pool[entries[3]]]])
        f = QBicForm(RF4, B)
        ty = type_of(f)
        nu = nu_index(f)
        if ty.b:
            assert nu <= nu_zero_bound(ty)
        else:
            assert nu == 0
        positive += nu > 0
    assert positive == 52   # the brute-force witness set is nonempty
    for _ in range(100):
        n = rng.randint(1, 4)
        f = QBicForm(RF4, MatrixF(RF4, [
            [RF4.random_element(rng) for _ in range(n)] for _ in range(n)]))
        ty = type_of(f)
        if ty.b:
            assert nu_index(f) <= nu_zero_bound(ty)
        else:
            assert nu_index(f) == 0
    report(11, "nu = 0 over finite fields; nu <= nu0 over GF(4)(t)",
           time.time() - t0, 120)


def test_criterion_12_open_pair():
    t0 = time.time()
    verdict = specialize_query(P("1+N3^2+N8"), P("0+N7^2"))
    assert verdict == ("unknown", None)
    report(12, "open pair at n=15 stays unknown", time.time() - t0, 1)
