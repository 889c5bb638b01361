import time

import pytest

from conftest import random_invertible, rng_for
from qbic import CostGuardError, classify, forms, moduli
from qbic.fields import embed, field_make, frobenius
from qbic.forms import (QBicForm, direct_sum, hermitian_gram,
                        hermitian_space, parse_type, type_of)
from qbic.classify import (NeedsExtension, is_isomorphic, jordan_gram,
                           normal_form, peel, standard_gram)
from qbic.linalg import (MatrixF, Subspace, image, intersect,
                         subspace_vectors, twisted_congruence)
from qbic.moduli import enumerate_types

GF4 = field_make(2, 1, 2)
GF9 = field_make(3, 1, 2)
GF16 = field_make(2, 2, 4)
GF16_Q2 = field_make(2, 1, 4)
GF25 = field_make(5, 1, 2)
GF256 = field_make(2, 4, 8)
GF1024 = field_make(2, 5, 10)
RF4 = field_make(2, 1, 2, kind="rational-function")


def form_of(text, field=GF4):
    return QBicForm(field, standard_gram(parse_type(text), field))


class TestStandardGram:
    def test_block_layout(self):
        t = parse_type("0+1^2+N3")
        G = standard_gram(t, GF4)
        # identity part first, then N_1, then N_3
        assert G == MatrixF.block_diagonal(GF4, [
            MatrixF.identity(GF4, 2), jordan_gram(GF4, 1),
            jordan_gram(GF4, 3)])

    def test_jordan_gram(self):
        J = jordan_gram(GF4, 3)
        assert [[int(not J[i, j].is_zero()) for j in range(3)]
                for i in range(3)] == [[0, 1, 0], [0, 0, 1], [0, 0, 0]]


class TestNormalForm:
    def test_standard_forms_are_fixed_points(self):
        for text in ["1^3", "N3", "0^2", "0+1+N2", "N2^2", "N4", "N5",
                     "0+N2+N3"]:
            f = form_of(text)
            cert = normal_form(f)
            assert cert.verified
            assert cert.extension_degree == 1
            assert str(cert.target) == text

    def test_round_trip_under_conjugation(self):
        rng = rng_for("classify-roundtrip")
        for text in ["1+N2", "1^2+N3", "0+N5", "N2+N3", "0^2+N2", "1+N4"]:
            t = parse_type(text)
            base = standard_gram(t, GF4)
            for _ in range(4):
                A = random_invertible(GF4, t.n, rng)
                f = QBicForm(GF4, twisted_congruence(base, A))
                cert = normal_form(f)
                assert cert.verified and cert.target == t
                # the transform really carries f to the standard Gram
                assert twisted_congruence(cert.form.gram, cert.transform) \
                    == standard_gram(t, cert.extension_field) \
                    or cert.extension_degree > 1

    def test_certificate_verifies_over_extension(self):
        # [[z]] needs the cubic extension of GF(4): x^{q+1} = z^{-1} has a
        # solution only once 3 | r
        z = GF4.gen()
        f = QBicForm(GF4, MatrixF(GF4, [[z]]))
        cert = normal_form(f)
        assert cert.verified and cert.extension_degree == 3
        assert cert.extension_field.order == 4 ** 3

    @pytest.mark.parametrize("field, rows, degree", [
        (GF16, [["z^3"]], 5),
        (GF4, [["0", "z+1"], ["z+1", "1"]], 6)], ids=["gf16-z^3", "gf4-1^2"])
    def test_extension_degree_past_the_old_search(self, field, rows, degree):
        # r is the order of M; a search over r <= max(2n, 4) missed both
        f = QBicForm(field, MatrixF(field, [[field.parse(x) for x in row]
                                            for row in rows]))
        cert = normal_form(f)
        assert cert.verified and cert.extension_degree == degree
        assert cert.target == parse_type(f"1^{f.n}")

    def test_needs_extension(self):
        z = GF4.gen()
        f = QBicForm(GF4, MatrixF(GF4, [[z]]))
        with pytest.raises(NeedsExtension) as exc:
            normal_form(f, allow_extension=False)
        assert exc.value.degree == 3

    def test_gf9(self):
        rng = rng_for("gf9")
        t = parse_type("1+N2")
        base = standard_gram(t, GF9)
        A = random_invertible(GF9, 3, rng)
        cert = normal_form(QBicForm(GF9, twisted_congruence(base, A)))
        assert cert.verified and cert.target == t


class TestIsomorphism:
    def test_geometric(self):
        rng = rng_for("iso")
        f = form_of("N2")
        A = random_invertible(GF4, 2, rng)
        g = QBicForm(GF4, twisted_congruence(f.gram, A))
        assert is_isomorphic(f, g)["verdict"] == "yes"
        assert is_isomorphic(f, form_of("1^2"))["verdict"] == "no"

    def test_unknown_mode(self):
        f = form_of("N2")
        with pytest.raises(ValueError, match="unknown mode 'bogus'"):
            is_isomorphic(f, f, mode="bogus")

    def test_other_dimension_or_field(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            is_isomorphic(form_of("N2"), form_of("N3"))
        with pytest.raises(ValueError, match="common base field"):
            is_isomorphic(form_of("N2"), form_of("N2", GF9), mode="rational")

    def test_geometric_over_a_rational_function_field(self):
        # geometric mode compares types, which need no finite field
        f = QBicForm(RF4, MatrixF.identity(RF4, 2))
        g = QBicForm(RF4, moduli._witness_gram(RF4, 2, 1, None))
        assert is_isomorphic(f, f)["verdict"] == "yes"
        assert is_isomorphic(f, g) == {"verdict": "no", "type_from": "1^2",
                                       "type_to": "N2"}
        with pytest.raises(ValueError,
                           match="isomorphism testing needs a finite base"):
            is_isomorphic(f, f, mode="rational")

    def test_rational_witness(self):
        rng = rng_for("iso-rational")
        f = form_of("N2+N3")
        A = random_invertible(GF4, 5, rng)
        g = QBicForm(GF4, twisted_congruence(f.gram, A))
        out = is_isomorphic(f, g, mode="rational")
        assert out["verdict"] == "yes"
        W = out["witness"]
        assert twisted_congruence(f.gram, W) == g.gram
        out = is_isomorphic(f, form_of("1^2+N3"), mode="rational")
        assert out == {"verdict": "no", "type_from": "N2+N3",
                       "type_to": "1^2+N3"}

    def test_rational_over_a_non_default_modulus(self):
        # both forms classify over their own GF(9), mod=[2,1,1]
        F = field_make(3, 1, 2, (2, 1, 1))
        z = F.gen()
        f = QBicForm(F, MatrixF(F, [[F.one(), z], [z ** 3, F.one()]]))
        g = QBicForm(F, MatrixF.identity(F, 2))
        out = is_isomorphic(f, g, mode="rational")
        assert out["verdict"] == "yes"
        assert twisted_congruence(f.gram, out["witness"]) == g.gram

    def test_rational_undetermined(self):
        z = GF4.gen()
        f = QBicForm(GF4, MatrixF(GF4, [[z]]))
        g = QBicForm(GF4, MatrixF(GF4, [[GF4.one()]]))
        out = is_isomorphic(f, g, mode="rational")
        assert out["verdict"] == "geometric-yes/rational-undetermined"


def search_matching(field, X, D, B, target, b):
    """Reference for classify._choose_matching: the depth-first search over
    the vectors of X that peel used before the elimination.  Returns a
    b-dimensional Y in X with B.Y = target and Y meet D = 0, or None."""
    n = X.n
    candidates = list(subspace_vectors(X))[1:]  # all but the zero vector

    def span(cols):
        return Subspace.from_columns(field, n, cols)

    def extend(chosen, start):
        if len(chosen) == b:
            imgs = span([B.apply(v) for v in chosen])
            return span(chosen) if imgs == target else None
        for idx in range(start, len(candidates)):
            trial = chosen + [candidates[idx]]
            if span(trial).dim != len(trial):
                continue
            if intersect(span(trial), D).dim != 0:
                continue
            imgs = span([B.apply(u) for u in trial])
            if imgs.dim != len(trial) or not target.contains(imgs):
                continue
            got = extend(trial, idx + 1)
            if got is not None:
                return got
        return None

    return extend([], 0)


def conjugate(t, field, rng):
    A = random_invertible(field, t.n, rng)
    return QBicForm(field, twisted_congruence(standard_gram(t, field), A))


def assert_normal_form(f, t):
    cert = normal_form(f)
    assert cert.verified and cert.target == t
    assert cert.extension_degree == 1
    assert twisted_congruence(f.gram, cert.transform) == \
        standard_gram(t, f.field)


class TestPeelByElimination:
    def test_matches_the_search(self, monkeypatch):
        calls = []
        real = classify._choose_matching

        def recording(X, D, B, target, b):
            Y = real(X, D, B, target, b)
            calls.append((B.field, X, D, B, target, b, Y))
            return Y

        monkeypatch.setattr(classify, "_choose_matching", recording)
        rng = rng_for("peel-vs-search")
        for n in range(1, 6):
            for t in enumerate_types(n):
                for _ in range(3):
                    assert_normal_form(conjugate(t, GF4, rng), t)
        # a block N_m makes m - 2 calls; 16 per round over the n <= 5 types
        assert len(calls) == 3 * 16
        for field, X, D, B, target, b, Y in calls:
            assert search_matching(field, X, D, B, target, b) is not None
            assert Y.dim == b and X.contains(Y)
            assert intersect(Y, D).dim == 0
            assert image(B @ Y.basis) == target

    @pytest.mark.parametrize("field", [GF16, GF25, GF256],
                             ids=["gf16", "gf25", "gf256"])
    def test_round_trip_over_larger_fields(self, field):
        rng = rng_for(f"peel-round-trip-{field.order}")
        types = [t for n in range(1, 7) for t in enumerate_types(n)]
        types += [parse_type(s) for s in ("N5", "N3^2", "1+N2^2+N4")]
        for t in types:
            assert_normal_form(conjugate(t, field, rng), t)

    @pytest.mark.parametrize("field, text", [
        (GF16, "1+N2+N5"), (GF1024, "N3^2"), (GF1024, "1+N2^2+N4"),
        (GF25, "1+N2+N5")], ids=["gf16-1+N2+N5", "gf1024-N3^2",
                                 "gf1024-1+N2^2+N4", "gf25-1+N2+N5"])
    def test_former_search_blow_ups_take_under_a_second(self, field, text):
        t = parse_type(text)
        f = conjugate(t, field, rng_for(f"blow-up-{text}"))
        t0 = time.perf_counter()
        assert_normal_form(f, t)
        assert time.perf_counter() - t0 < 1.0


    @pytest.mark.parametrize("text", ["0+N2+N3", "1+N2^2"])
    def test_perp_chain_starts_once_per_peel(self, monkeypatch, text):
        # the first peel reads f's filtration; each later rest builds its own
        starts = []
        real = forms._perp_chain

        def counting(f):
            starts.append(f)
            return real(f)

        monkeypatch.setattr(forms, "_perp_chain", counting)
        t = parse_type(text)
        assert_normal_form(conjugate(t, GF4, rng_for(f"chain-{text}")), t)
        assert len(starts) == len(t.b)

    def test_missing_block_is_refused(self):
        with pytest.raises(ValueError, match="type has no N_3 summand"):
            peel(form_of("N2"), 3)


class TestOrthonormalize:
    def test_nonsingular_type_from_the_rank(self):
        rng = rng_for("orthonormalize")
        for n in range(1, 4):
            f = conjugate(parse_type(f"1^{n}"), GF9, rng)
            cert = classify.orthonormalize_nonsingular(f)
            assert cert.verified and cert.target == type_of(f)

    @pytest.mark.parametrize("text", ["0", "N2", "1+N3", "0+1^2"])
    def test_singular_forms_are_refused(self, text):
        f = conjugate(parse_type(text), GF4, rng_for(f"singular-{text}"))
        with pytest.raises(ValueError, match="form is singular"):
            classify.orthonormalize_nonsingular(f)


def reference_orthonormalize(f):
    """Reference for classify.orthonormalize_nonsingular: the search over
    r <= max(2n, 4) and the congruence-by-congruence diagonalization of the
    Hermitian Gram over F_{q^2} that it used before the extension degree
    was read from the order of M.  Returns (transform, r), or None when no
    r in the search spans."""
    n = f.n
    h = next((h for h in (hermitian_space(f, r)
                          for r in range(1, max(2 * n, 4) + 1))
              if h.d == n), None)
    if h is None:
        return None
    K, fq2 = h.ext_field, h.fq2
    H = hermitian_gram(h)
    A = reference_diagonalize_hermitian(H)
    HA = twisted_congruence(H, A)
    scales = []
    for i in range(n):
        target = HA.rows[i][i].inverse()
        scales.append(next(u for u in fq2.elements() if not u.is_zero()
                           and u ** (fq2.q + 1) == target))
    D = MatrixF(fq2, [[scales[i] if i == j else fq2.zero()
                       for j in range(n)] for i in range(n)])
    A = A @ D
    emb2 = embed(fq2, K)
    A_K = MatrixF(K, [[emb2.apply(a) for a in row] for row in A.rows])
    return MatrixF(K, h.basis).transpose() @ A_K, h.r


def reference_diagonalize_hermitian(H):
    """Congruence transform A with transpose(A^[1]) H A diagonal, for H
    nondegenerate Hermitian over F_{q^2}: one full congruence per step."""
    fq2, n = H.field, H.nrows
    A = MatrixF.identity(fq2, n)
    work = H
    done = 0
    while done < n:
        idx = list(range(done, n))
        piv = next((j for j in idx if not work.rows[j][j].is_zero()), None)
        if piv is None:
            # mix two columns: h(u + lam w, u + lam w) = Tr(lam h(u, w))
            i, j = next(((i, j) for i in idx for j in idx
                         if i != j and not work.rows[i][j].is_zero()))
            lam = next(lv for lv in fq2.elements()
                       if not (lv * work.rows[i][j]
                               + frobenius(lv * work.rows[i][j], 1)).is_zero())
            rows = [list(r) for r in MatrixF.identity(fq2, n).rows]
            rows[j][i] = lam
            A = A @ MatrixF(fq2, rows)
            work = twisted_congruence(H, A)
            continue
        if piv != done:
            rows = [list(r) for r in MatrixF.identity(fq2, n).rows]
            rows[done][done] = rows[piv][piv] = fq2.zero()
            rows[done][piv] = rows[piv][done] = fq2.one()
            A = A @ MatrixF(fq2, rows)
            work = twisted_congruence(H, A)
        cinv = work.rows[done][done].inverse()
        rows = [list(r) for r in MatrixF.identity(fq2, n).rows]
        for j in range(done + 1, n):
            rows[done][j] = -(cinv * work.rows[done][j])
        A = A @ MatrixF(fq2, rows)
        work = twisted_congruence(H, A)
        done += 1
    return A


ORTHONORMALIZE_FIELDS = [GF4, GF9, GF16_Q2, GF16, GF25]
ORTHONORMALIZE_IDS = ["gf4", "gf9", "gf16-q2", "gf16-q4", "gf25"]


def random_nonsingular_forms(field, counts):
    """Seeded random nonsingular forms, counts[n] of each dimension n."""
    rng = rng_for(f"nonsingular-{field.spec_string()}")
    return [QBicForm(field, random_invertible(field, n, rng))
            for n, count in counts.items() for _ in range(count)]


class TestOrthonormalizeAgainstReference:
    @pytest.mark.parametrize("field", ORTHONORMALIZE_FIELDS,
                             ids=ORTHONORMALIZE_IDS)
    def test_same_transform_where_the_search_succeeds(self, field):
        degrees = set()
        for f in random_nonsingular_forms(field, {1: 8, 2: 6, 3: 3, 4: 1}):
            ref = reference_orthonormalize(f)
            if ref is None:
                continue
            cert = classify.orthonormalize_nonsingular(f)
            assert cert.verified
            assert (cert.transform, cert.extension_degree) == ref
            degrees.add(ref[1])
        assert 1 in degrees and max(degrees) > 1

    @pytest.mark.parametrize("field", ORTHONORMALIZE_FIELDS,
                             ids=ORTHONORMALIZE_IDS)
    def test_extension_degree_is_the_least_spanning_one(self, field):
        for f in random_nonsingular_forms(field, {1: 6, 2: 3, 3: 1, 4: 1}):
            try:
                r0 = classify._extension_degree(f)
            except CostGuardError:
                r0 = None
            for r in range(1, 13):
                if r0 is not None and r > r0:
                    break
                try:
                    spans = hermitian_space(f, r).d == f.n
                except CostGuardError:
                    break
                assert spans == (r == r0)


class TestOrthonormalizeOnTheHermitianGram:
    @pytest.mark.parametrize("field", [GF4, GF16_Q2], ids=["gf4", "gf16-q2"])
    def test_one_gram_and_every_pairing_over_fq2(self, monkeypatch, field):
        # one hermitian_gram call per nonsingular residue with n > 0, and
        # every pairing of the Gram-Schmidt over the F_{q^2} of that call
        grams, pairings = [], []
        real_gram, real_pairing = classify.hermitian_gram, classify.pairing

        def recording_gram(h):
            grams.append(h)
            return real_gram(h)

        def recording_pairing(B, u, v):
            pairings.append(B.field)
            return real_pairing(B, u, v)

        monkeypatch.setattr(classify, "hermitian_gram", recording_gram)
        monkeypatch.setattr(classify, "pairing", recording_pairing)
        rng = rng_for(f"one-gram-{field.spec_string()}")
        forms_ = [conjugate(parse_type(text), field, rng)
                  for text in ("1", "1^3", "N2", "1+N2", "1^2+N3", "0+N2")]
        forms_ += random_nonsingular_forms(field, {1: 4, 2: 3, 3: 2})
        forms_ += [direct_sum(f, form_of("N2", field))
                   for f in random_nonsingular_forms(field, {2: 2})]
        degrees = set()
        for f in forms_:
            del grams[:], pairings[:]
            t = type_of(f)
            cert = normal_form(f)
            assert cert.verified and cert.target == t
            degrees.add(cert.extension_degree)
            assert len(grams) == (1 if t.a else 0)
            if t.a:
                fq2 = grams[0].fq2
                assert pairings and set(pairings) == {fq2}
                assert fq2.k == 2 * field.e
            else:
                assert pairings == []
        assert 1 in degrees and max(degrees) > 1
