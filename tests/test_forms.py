import time

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (LADDER_WITNESSES, random_form, random_invertible,
                      rng_for)
from qbic import (CostGuardError, InputError, VerificationError, _check,
                  forms, moduli)
from qbic.fields import field_make, parse_field_spec
from qbic.forms import (QBicForm, TypeSignature, direct_sum, hermitian_gram,
                        hermitian_space, nu_index, nu_zero_bound, parse_type,
                        perp_filtration, perp_prime_filtration, radical,
                        type_of, type_report)
from qbic.classify import jordan_gram, standard_gram
from qbic.linalg import (MatrixF, Subspace, _gfp_kernel, _gfp_pivots,
                         descent_test, intersect, left_orthogonal, pairing,
                         rank, twist_matrix, twist_subspace,
                         twisted_congruence)
from qbic.moduli import enumerate_types

GF4 = field_make(2, 1, 2)
GF9 = field_make(3, 1, 2)
RF4 = field_make(2, 1, 2, kind="rational-function")
RF9 = field_make(3, 1, 2, kind="rational-function")
GF16_Q4 = field_make(2, 2, 4)
GF25 = field_make(5, 1, 2)
GF2_18 = field_make(2, 9, 18)  # above TABLE_CAP: untabled scalars


def form_of(text, field=GF4):
    t = parse_type(text)
    return QBicForm(field, standard_gram(t, field))


def descended_piece(pfilt, i):
    """P'_i of a perp-prime filtration descended all the way to V, or None
    where a descent step fails."""
    S = pfilt.piece_on_twist(i)
    for _ in range(i):
        if S is None:
            break
        S = descent_test(S)
    return S


def reference_perp_prime_filtration(f):
    """The perp-prime filtration built on the twists themselves: P'_i V^[i]
    is the left orthogonal of P'_{i-1} V^[i-1] under the (i-1)-twisted
    pairing, its least descent level is found by stripping q-th roots from
    level i, and the chain stops where its last two pieces are the two
    before them twisted twice.  Returns piece_on_twist and descent_level
    as functions of i >= 0, and nu."""
    n = f.n
    pieces = [Subspace.full(f.field, n)]
    levels = [0]
    step = 1
    while True:
        nxt = left_orthogonal(twist_matrix(f.gram, step - 1), pieces[-1])
        pieces.append(nxt)
        S, lvl = nxt, step
        while lvl > 0:
            S2 = descent_test(S)
            if S2 is None:
                break
            S = S2
            lvl -= 1
        levels.append(lvl)
        if len(pieces) >= 5:
            a = twist_subspace(pieces[-3], 2)
            b = twist_subspace(pieces[-4], 2)
            if pieces[-1] == a and pieces[-2] == b:
                break
        step += 1
        _check(step <= n + 3, "perp-prime filtration failed to stabilize")

    def stored(i):
        # past the stored range P'_i is P'_j twisted i - j times
        j = i
        while j >= len(pieces):
            j -= 2
        return j

    def piece_on_twist(i):
        return twist_subspace(pieces[stored(i)], i - stored(i))

    def descent_level(i):
        return levels[stored(i)]

    return piece_on_twist, descent_level, max(levels)


class TestPerpPrimeAgainstReference:
    """Pieces kept at their least descent level give the pieces, levels
    and nu of the filtration built on the twists V^[i]."""

    def check(self, f):
        piece_on_twist, descent_level, nu = \
            reference_perp_prime_filtration(f)
        pfilt = perp_prime_filtration(f)
        for i in range(f.n + 5):
            assert pfilt.piece_on_twist(i) == piece_on_twist(i)
            assert pfilt.descent_level(i) == descent_level(i)
        assert pfilt.nu() == nu
        return nu

    @pytest.mark.parametrize("field", [GF4, GF9, RF4, RF9],
                             ids=["gf4", "gf9", "gf4t", "gf9t"])
    def test_random_forms_and_conjugates(self, field):
        rng = rng_for(f"perp-prime-reference/{field.q}/{field.kind}")
        # conjugates over GF(q^2)(t) grow large fractions past n = 3
        for n in range(1, 5 if field.kind == "finite" else 4):
            for t in enumerate_types(n):
                A = random_invertible(field, n, rng)
                self.check(QBicForm(field, twisted_congruence(
                    standard_gram(t, field), A)))
        for _ in range(20):
            self.check(random_form(field, rng.randint(1, 4), rng))

    @pytest.mark.parametrize("field", [RF4, RF9], ids=["gf4t", "gf9t"])
    def test_ladder_witnesses(self, field):
        nus = [self.check(QBicForm(field, moduli._witness_gram(field, *w)))
               for w in LADDER_WITNESSES]
        assert sorted(set(nus)) == [0, 1, 2, 3, 4, 5]


class TestPerpFiltration:
    def test_jordan_block_chain(self):
        # for N_n the odd pieces are e_1, e_1+e_3, ... and the even pieces
        # shrink by the complementary pattern
        for n in range(1, 7):
            f = QBicForm(GF4, jordan_gram(GF4, n))
            filt = perp_filtration(f)
            for i in range(0, n + 2):
                if i % 2:
                    assert filt.piece(i).dim == min((i + 1) // 2,
                                                    (n + 1) // 2)
                else:
                    assert filt.piece(i).dim == n - min(i // 2, n // 2)

    def test_built_once_per_form(self):
        f = form_of("0+N3")
        assert perp_filtration(f) is perp_filtration(f)
        # an equal form is another object, with a filtration of its own
        g = form_of("0+N3")
        assert g == f and hash(g) == hash(f) and g is not f
        assert repr(f) == ("QBicForm(n=4, gram=MatrixF[0 0 0 0; 0 0 1 0; "
                           "0 0 0 1; 0 0 0 0])")

    def test_nonsingular_stabilizes_immediately(self):
        f = form_of("1^4")
        filt = perp_filtration(f)
        assert filt.p_minus.dim == 0 and filt.p_plus.dim == 4

    def test_pieces_nest(self):
        rng = rng_for("nest")
        for _ in range(25):
            f = random_form(GF4, rng.randint(1, 5), rng)
            filt = perp_filtration(f)
            for i in range(1, f.n + 2):
                if i >= 2:
                    odd, even = (i, i - 1) if i % 2 else (i - 1, i)
                    assert filt.piece(even).contains(filt.piece(odd))


class TestRefusals:
    @pytest.mark.parametrize("call, match", [
        (lambda: QBicForm(GF4, MatrixF.from_int_rows(GF4, [[1, 0]])),
         "must be square"),
        (lambda: QBicForm(GF4, MatrixF.identity(GF9, 1)),
         "Gram matrix field mismatch"),
        (lambda: direct_sum(form_of("1"), form_of("1", GF9)),
         "field mismatch"),
    ], ids=["non-square", "gram-field", "direct-sum-fields"])
    def test_refused(self, call, match):
        with pytest.raises(ValueError, match=match):
            call()


class TestType:
    def test_standard_forms_have_their_type(self):
        for text in ["1", "0", "1^3", "N2", "N3", "0+N5", "1^2+N3",
                     "1+N2^2", "0+1^4", "N2^2+N4", "0^2+1+N3"]:
            t = parse_type(text)
            f = QBicForm(GF4, standard_gram(t, GF4))
            assert type_of(f) == t
            assert str(t) == text

    def test_parse_round_trip_all_small_types(self):
        from qbic.moduli import enumerate_types
        for n in range(1, 7):
            for t in enumerate_types(n):
                assert parse_type(str(t)) == t
                assert repr(t) == f"TypeSignature({t})"

    def test_type_additive_under_direct_sum(self):
        rng = rng_for("dsum")
        for _ in range(20):
            f = random_form(GF4, rng.randint(1, 3), rng)
            g = random_form(GF4, rng.randint(1, 3), rng)
            assert type_of(direct_sum(f, g)) == \
                type_of(f).direct_sum(type_of(g))

    def test_rank_and_radical(self):
        f = form_of("0^2+1+N3")
        r = rank(f.gram)
        assert (r, f.n - r) == (3, 3)
        t = type_of(f)
        assert t.corank == 3          # corank counts all blocks
        assert radical(f).dim == 2    # but only N_1 blocks are radical

    def test_type_signature_validation(self):
        with pytest.raises(ValueError):
            TypeSignature(-1, {})
        with pytest.raises(ValueError):
            TypeSignature(0, {0: 1})
        with pytest.raises(ValueError):
            parse_type("banana")

    def test_negative_counts_are_refused(self):
        # checked before zero counts are dropped, which stay allowed
        with pytest.raises(ValueError, match="invalid type data"):
            TypeSignature(1, {2: -1})
        assert TypeSignature(1, {2: 0}) == TypeSignature(1, {})

    @pytest.mark.parametrize("text", ["1^0", "0^0", "N2^0+1", "N3+1^0"])
    def test_zero_exponent_is_refused(self, text):
        with pytest.raises(ValueError, match="bad exponent"):
            parse_type(text)

    def test_type_dimension_guard(self):
        assert parse_type("N500+1^12").n == 512
        for text in ("N513", "1^512+0", "N2^257", "N256+N256+1",
                     "N10^1000000000000"):
            with pytest.raises(CostGuardError, match="guard is n <= 512"):
                parse_type(text)

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(
        st.text("01N^+ 2345", max_size=16),
        st.lists(st.builds("{}{}{}{}".format,
                           st.sampled_from(["", " "]),
                           st.sampled_from(["0", "1", "N", "N0", "N1",
                                            "N7", "N12", "2", "N-1"]),
                           st.sampled_from(["", "^0", "^1", "^3", "^",
                                            "^x", "^12"]),
                           st.sampled_from(["", " "])),
                 max_size=5).map("+".join)))
    def test_type_strings_raise_only_value_or_guard_errors(self, text):
        # a generous CPU bound, so a hanging kernel fails instead of stalling
        start = time.process_time()
        try:
            t = parse_type(text)
        except (InputError, CostGuardError):
            pass
        else:
            if t.n:
                assert parse_type(str(t)) == t
            else:
                assert str(t) == "(empty)"
        assert time.process_time() - start < 2.0


class TestDescentIndex:
    def test_nu_zero_over_finite_fields(self):
        rng = rng_for("nu-finite")
        for _ in range(30):
            f = random_form(GF4, rng.randint(1, 4), rng)
            assert nu_index(f) == 0

    def test_finite_fields_build_no_perp_prime_chain(self, monkeypatch):
        def refuse(f):
            raise AssertionError("perp-prime chain built")
        monkeypatch.setattr(forms, "_perp_prime_chain", refuse)
        rng = rng_for("nu-no-chain")
        for field in (GF4, GF9, GF16_Q4, GF25, GF2_18):
            for text in ("0+1+N2", "N3", "1^2+N2"):
                t = parse_type(text)
                f = QBicForm(field, twisted_congruence(
                    standard_gram(t, field), random_invertible(field, t.n,
                                                               rng)))
                assert nu_index(f) == 0
                assert type_report(f)["nu"] == 0
        f = QBicForm(RF4, moduli.witness(2, 1).form.gram)
        with pytest.raises(AssertionError, match="perp-prime chain built"):
            nu_index(f)

    def test_descended_pieces_follow_the_recurrence(self):
        # over a finite field every P'_i descends, and its descent to V is
        # D_i = descent(left orthogonal of D_{i-1}), D_0 = V; this holds
        # beyond the stored range of the filtration too.  The chain is the
        # oracle for nu_index, which reads nu = 0 off the field.
        rng = rng_for("descended-pieces")
        for field in (GF4, GF9, GF16_Q4, GF2_18):
            for n in range(1, 5):
                for t in enumerate_types(n):
                    A = random_invertible(field, n, rng)
                    f = QBicForm(field, twisted_congruence(
                        standard_gram(t, field), A))
                    pfilt = perp_prime_filtration(f)
                    assert pfilt.nu() == 0 == nu_index(f)
                    D = Subspace.full(field, n)
                    for i in range(n + 4):
                        assert pfilt.descent_level(i) == 0
                        assert descended_piece(pfilt, i) == D
                        D = descent_test(left_orthogonal(f.gram, D))

    def test_negative_index_is_refused(self):
        pfilt = perp_prime_filtration(form_of("N3"))
        for read in (pfilt.piece_on_twist, pfilt.descent_level):
            with pytest.raises(ValueError, match="must be >= 0"):
                read(-1)
        with pytest.raises(ValueError, match="must be >= -1"):
            perp_filtration(form_of("N3")).piece(-2)

    @pytest.mark.parametrize("power, D", [(0, 1), (3, 4)])
    def test_twist_guard_at_its_bound(self, monkeypatch, power, D):
        # the F2 witness at s = 3 is N6 over GF(4)(t): nu = nu0 = 5, D = 1;
        # scaled by t^3 it keeps its type and has D = 4
        t = RF4.t_gen() ** power
        gram = moduli.witness(2, 3).form.gram
        f = QBicForm(RF4, MatrixF(RF4, [[t * x for x in row]
                                        for row in gram.rows]))
        assert type_of(f) == parse_type("N6")
        monkeypatch.setattr(forms, "_NU_TWIST_CAP", 2 ** 5 * D)
        assert nu_index(f) == 5
        monkeypatch.setattr(forms, "_NU_TWIST_CAP", 2 ** 5 * D - 1)
        with pytest.raises(CostGuardError, match=f"= 2\\^5 \\* {D};"):
            nu_index(f)

    def test_nu_zero_bound_cases(self):
        assert nu_zero_bound(parse_type("0+N5")) == 3   # all blocks odd
        assert nu_zero_bound(parse_type("1+N3")) == 1   # all blocks odd
        assert nu_zero_bound(parse_type("N4")) == 3     # mu even, a = 0
        assert nu_zero_bound(parse_type("1+N4")) == 4   # mu even, a > 0
        assert nu_zero_bound(parse_type("0^2")) == 0
        with pytest.raises(ValueError):
            nu_zero_bound(parse_type("1^3"))

    def test_nu_positive_example_over_function_field(self):
        # beta(x, y) = t on a 2-dim space with a radical line mixed in by
        # a basis change with entries involving t
        t = RF4.t_gen()
        one = RF4.one()
        zero = RF4.zero()
        gram = MatrixF(RF4, [[t, t * t], [zero, zero]])
        f = QBicForm(RF4, gram)
        nu = nu_index(f)
        ty = type_of(f)
        assert nu <= nu_zero_bound(ty)

    def test_nu_bound_on_random_function_field_forms(self):
        rng = rng_for("nu-rational")
        for _ in range(20):
            n = rng.randint(1, 3)
            f = QBicForm(RF4, MatrixF(RF4, [
                [RF4.random_element(rng) for _ in range(n)]
                for _ in range(n)]))
            ty = type_of(f)
            if ty.b:
                assert nu_index(f) <= nu_zero_bound(ty)
            else:
                assert nu_index(f) == 0


class TestFiltrationSymmetry:
    def test_dim_intersections_symmetric(self):
        rng = rng_for("symmetry")
        for _ in range(30):
            f = random_form(GF4, rng.randint(1, 5), rng)
            filt = perp_filtration(f)
            pfilt = perp_prime_filtration(f)
            hi = f.n + 2

            def d(i, j):
                return intersect(twist_subspace(filt.piece(i), j),
                                 pfilt.piece_on_twist(j)).dim

            for i in range(hi):
                for j in range(i, hi):
                    assert d(i, j) == d(j, i)


def reference_fq2_hermitian_basis(f):
    """The Hermitian basis of a form over F = F_{q^2} by restriction of
    scalars: the GF(p) kernel of x -> Bx - transpose(B^[1]) x^(q^2) on
    F^n, in the coordinates of the power basis z^i, then a greedy
    F-independent subset of the solutions, where a solution joins when
    one of its multiples by z^0, ..., z^(k-1) is a pivot column of the
    GF(p) matrix of all those multiples."""
    F, B, n = f.field, f.gram, f.n
    C = twist_matrix(B, 1).transpose()
    p, k, q2 = F.p, F.k, F.q ** 2
    cols = []
    for j in range(n):
        for i in range(k):
            x = [F.zero()] * n
            x[j] = F._make(p ** i)
            img = [u - w for u, w in zip(B.apply(x),
                                         C.apply([v ** q2 for v in x]))]
            cols.append([c for y in img for c in F._coords(y.val)])
    solutions = [[F._make(F._encode(v[j * k:(j + 1) * k])) for j in range(n)]
                 for v in _gfp_kernel(cols, p, n * k)]
    mults = [F._make(p) ** i for i in range(k)]
    mcols = [[c for x in v for c in F._coords((mu * x).val)]
             for v in solutions for mu in mults]
    chosen = {c // k for c in _gfp_pivots(mcols, p, n * k)}
    return [v for s, v in enumerate(solutions) if s in chosen]


def seeded_forms(field, n, rng):
    """Three seeded forms of dimension n: random, Hermitian-structured
    (B = transpose(B^[1]), so every vector is Hermitian), and random with
    a zero row."""
    q = field.q
    rand = random_form(field, n, rng)
    rows = [list(r) for r in random_form(field, n, rng).gram.rows]
    for i in range(n):
        rows[i][i] = rows[i][i] + rows[i][i] ** q
        for j in range(i + 1, n):
            rows[j][i] = rows[i][j] ** q
    herm = QBicForm(field, MatrixF(field, rows))
    rows = [list(r) for r in random_form(field, n, rng).gram.rows]
    rows[rng.randrange(n)] = [field.zero()] * n
    return rand, herm, QBicForm(field, MatrixF(field, rows))


class TestHermitian:
    def test_nonsingular_counts(self):
        for n in range(1, 4):
            f = QBicForm(GF4, MatrixF.identity(GF4, n))
            h = hermitian_space(f, 1)
            assert h.point_count == 4 ** n

    def test_jordan_counts(self):
        f2 = QBicForm(GF4, jordan_gram(GF4, 2))
        for r in range(1, 4):
            assert hermitian_space(f2, r).point_count == 1
        f3 = QBicForm(GF4, jordan_gram(GF4, 3))
        for r in range(1, 4):
            assert hermitian_space(f3, r).point_count == 4 ** r

    @pytest.mark.parametrize("p,e,k", [(2, 1, 2), (3, 1, 2), (2, 1, 4),
                                       (2, 2, 4), (5, 1, 2)])
    def test_dimension_is_the_fixed_space_of_lang_matrix(self, p, e, k):
        # Hermitian vectors are the fixed points of v -> A v^sigma, with
        # A = B^-1 transpose(B^[1]) and sigma the q^2-power Frobenius; over
        # the degree-r extension they span the fixed space of M^r, where
        # M = A A^sigma ... A^(sigma^(s-1)) and s = [k : F_{q^2}] (s = 2
        # for GF(16) with q = 2, else 1)
        field = field_make(p, e, k)
        one = field.one()
        rng = rng_for(f"hermitian-lang-{p}-{e}-{k}")
        for n in range(1, 4):
            for _ in range(4):
                B = random_invertible(field, n, rng)
                A = B.inverse() @ twist_matrix(B, 1).transpose()
                M = A
                for i in range(1, k // (2 * e)):
                    M = M @ twist_matrix(A, 2 * i)
                power = MatrixF.identity(field, n)
                for r in range(1, 4):
                    power = power @ M
                    moved = MatrixF(field, [
                        [x - one if i == j else x for j, x in enumerate(row)]
                        for i, row in enumerate(power.rows)])
                    h = hermitian_space(QBicForm(field, B), r)
                    assert h.d == n - rank(moved)

    @pytest.mark.parametrize("p,e,k", [(2, 1, 2), (3, 1, 2), (2, 1, 4)])
    def test_gram_matches_the_pairing_reference(self, p, e, k):
        # the Gram entry by entry: beta(v_i, v_j), read back in F_{q^2}
        field = field_make(p, e, k)
        rng = rng_for(f"hermitian-gram-{p}-{e}-{k}")
        spans = 0
        for n in range(1, 4):
            for r in range(1, 4):
                for f in (random_form(field, n, rng),
                          QBicForm(field, random_invertible(field, n, rng))):
                    h = hermitian_space(f, r)
                    ref = [[h.fq2_embedding.preimage(
                                pairing(h.gram_ext, vi, vj))
                            for vj in h.basis] for vi in h.basis]
                    assert [list(row) for row in hermitian_gram(h).rows] \
                        == ref
                    spans += h.d > 0
        assert spans >= 5

    @pytest.mark.parametrize("spec", [
        "2^2 q=2", "3^2 q=3", "3^2 q=3 mod=[2,1,1]", "2^4 q=4", "5^2 q=5",
        "7^2 q=7", "2^6 q=8", "2^8 q=16", "2^18 q=512"])
    def test_fq2_basis_matches_the_restriction_reference(self, spec):
        # over F_{q^2} itself the basis is the field's own null space, and
        # equals the one restriction of scalars to GF(p) picks; GF(2^18)
        # is above TABLE_CAP
        field = parse_field_spec(spec)
        rng = rng_for(f"hermitian-fq2-{spec}")
        spans = 0
        for n in range(1, 5):
            for _ in range(3):
                for f in seeded_forms(field, n, rng):
                    h = hermitian_space(f, 1)
                    assert h.basis == reference_fq2_hermitian_basis(f)
                    spans += h.d == n
        assert spans >= 12

    def test_fq2_builds_no_gfp_system(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("GF(p) system built")
        monkeypatch.setattr(forms, "_gfp_kernel", refuse)
        monkeypatch.setattr(forms, "_gfp_pivots", refuse)
        f = QBicForm(GF4, MatrixF.identity(GF4, 3))
        assert hermitian_space(f, 1).d == 3
        with pytest.raises(AssertionError, match="GF\\(p\\) system built"):
            hermitian_space(f, 2)

    @pytest.mark.parametrize("r", [0, -1])
    def test_extension_degree_below_one_is_refused(self, r):
        f = QBicForm(GF4, MatrixF.identity(GF4, 2))
        with pytest.raises(InputError, match=f"extension degree.*got {r}"):
            hermitian_space(f, r)

    def test_hermitian_gram_is_hermitian(self):
        f = QBicForm(GF4, MatrixF.identity(GF4, 2))
        h = hermitian_space(f, 2)
        H = hermitian_gram(h)
        q = h.fq2.q
        for i in range(H.nrows):
            for j in range(H.ncols):
                assert H[i, j] == H[j, i] ** q


class TestTypeReport:
    def test_report_shape(self):
        rep = type_report(form_of("0+N5"))
        assert rep == {"type": "0+N5", "n": 6, "a": 0,
                       "b": {"1": 1, "5": 1}, "corank": 2, "rank": 4,
                       "nu": 0, "nu0": 3}

    def test_nonsingular_report(self):
        rep = type_report(form_of("1^3"))
        assert rep["b"] == {} and rep["nu0"] is None


class TestExplicitChecks:
    """The invariant checks raise VerificationError, also under -O."""

    def test_type_dimensions_must_add_up(self, monkeypatch):
        other = perp_filtration(form_of("N2"))
        monkeypatch.setattr(forms, "perp_filtration", lambda f: other)
        with pytest.raises(VerificationError, match="do not add up"):
            type_of(form_of("1+N2"))
