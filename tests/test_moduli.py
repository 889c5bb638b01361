import json
import re
import time

import pytest

from qbic import CostGuardError, VerificationError
from qbic.fields import field_make
from qbic.forms import TypeSignature, parse_type
from qbic.auts import group_dim
from qbic.cli import main
from qbic import moduli
from qbic.moduli import (ModuliPoset, SpecEdge, StratumNode, build_poset,
                         enumerate_types, generator_path, generator_step,
                         necessary, phi, psi, specialize_query, sufficient,
                         theta, witness)

P = parse_type

# ---------------------------------------------------------------------------
# reference: the functionals as the paper writes them, the per-pair
# predicates on them, and the list Floyd-Warshall closure of the sufficient
# predicate and the basic moves that the path-certified Psi relation
# replaced


def reference_psi(t, m):
    if m % 2 == 1:
        k = (m + 1) // 2
        return (t.b_m(2 * k - 1)
                + 2 * sum((k - l) * t.b_m(2 * l - 1) for l in range(1, k)))
    k = m // 2
    mu = t.max_block() or 0
    return (sum(l * t.b_m(2 * l) for l in range(1, k))
            + k * (sum(t.b_m(2 * l - 1) for l in range(1, mu + 1))
                   + sum(t.b_m(2 * l) for l in range(k, mu + 1))))


def reference_theta(t, m):
    return sum(t.b_m(2 * k - 1) for k in range(1, m + 1))


def reference_theta_inf(t):
    return sum(bm for m, bm in t.b.items() if m % 2 == 1)


def reference_phi(t, m):
    if m % 2 == 1:
        k = (m + 1) // 2
        return (t.n + t.b_m(2 * k - 1)
                + 2 * sum((k - l) * t.b_m(2 * l - 1) for l in range(1, k)))
    k = m // 2
    mu = t.max_block() or 0
    return (sum(2 * l * t.b_m(2 * l) for l in range(1, k))
            + 2 * k * (sum(t.b_m(2 * l - 1) for l in range(1, mu + 1))
                       + sum(t.b_m(2 * l) for l in range(k, mu + 1))))


def reference_witness_dim(family, s, t):
    """The dimension of the family's witness; ValueError on parameters
    outside the family."""
    if family in (1, 2, 3):
        if s < 1:
            raise ValueError(f"family {family} needs s >= 1")
        return 2 * s + 1 if family == 1 else 2 * s
    if family == 4:
        if t is None or not (s >= t >= 1):
            raise ValueError("family 4 needs s >= t >= 1")
        return 4 * s - 2 * t + 2
    if family == 5:
        if t is None or s < 1 or t < 1:
            raise ValueError("family 5 needs s >= 1 and t >= 1")
        return 4 * s + 2 * t
    if family == 6:
        if s < 0:
            raise ValueError("family 6 needs s >= 0")
        return 2 * s + 1
    raise ValueError(f"unknown family {family}")


def reference_necessary(tA, tB):
    n = tA.n
    if any(reference_psi(tA, m) > reference_psi(tB, m)
           for m in range(1, 2 * n + 3)):
        return False
    return reference_theta_inf(tA) <= reference_theta_inf(tB)


def reference_sufficient(tA, tB):
    if not reference_necessary(tA, tB):
        return False
    return all(reference_theta(tA, m) <= reference_theta(tB, m)
               for m in range(1, tA.n + 2))


def reference_specialize_query(tA, tB):
    if tA == tB:
        return ("yes", {"kind": "equal"})
    if not reference_necessary(tA, tB):
        m = 1
        while reference_psi(tA, m) <= reference_psi(tB, m):
            m += 1
        return ("no", m)
    if reference_sufficient(tA, tB):
        return ("yes", {"kind": "sufficient"})
    path = generator_path(tA, tB)
    if path is not None:
        steps = [{"family": f"F{family}", "s": s, "t": tp,
                  "result": str(new)} for (family, s, tp, new) in path]
        return ("yes", {"kind": "generator-path", "steps": steps})
    return ("unknown", None)


def reference_build_poset(n, restrict=None):
    """The closure poset, the closure's pairs, and its unknown-candidate
    pairs (necessary but not in the closure)."""
    universe = enumerate_types(n)
    index = {t.key(): i for i, t in enumerate(universe)}
    m = len(universe)
    reach = [[False] * m for _ in range(m)]
    for i, t in enumerate(universe):
        reach[i][i] = True
        for j, s in enumerate(universe):
            if i != j and reference_sufficient(t, s):
                reach[i][j] = True
        for (new, _, _, _) in reference_generator_step(t):
            reach[i][index[new.key()]] = True
    for k in range(m):
        for i in range(m):
            if reach[i][k]:
                for j in range(m):
                    if reach[k][j]:
                        reach[i][j] = True
    for i in range(m):
        for j in range(m):
            assert i == j or not (reach[i][j] and reach[j][i])
    chosen = universe if restrict is None else list(restrict)
    nodes = [StratumNode(t) for t in chosen]
    idx = [index[t.key()] for t in chosen]
    c = len(chosen)
    proven = {(str(chosen[i]), str(chosen[j]))
              for i in range(c) for j in range(c)
              if i != j and reach[idx[i]][idx[j]]}
    edges, unknown = [], []
    for i, src in enumerate(nodes):
        for j, dst in enumerate(nodes):
            if i == j:
                continue
            if reach[idx[i]][idx[j]]:
                if any(k != i and k != j and reach[idx[i]][idx[k]]
                       and reach[idx[k]][idx[j]] for k in range(c)):
                    continue
                assert src.stratum_dim > dst.stratum_dim
                evidence = "S" if reference_sufficient(src.t, dst.t) else ""
                path = generator_path(src.t, dst.t)
                if path is not None:
                    evidence += "G"
                edges.append(SpecEdge(src, dst, evidence, path))
            elif reference_necessary(src.t, dst.t):
                unknown.append((src.t, dst.t))
    return ModuliPoset(n, nodes, edges), proven, unknown


def reference_generator_step(t):
    """The basic moves with each family's removed and added blocks written
    out by hand; generator_step reads them from the families' claims."""
    results = []

    def emit(family, s, tp, da, removals, additions):
        # callers check that the removed blocks exist; N_0 is no block
        b = dict(t.b)
        for m in removals:
            if m:
                b[m] -= 1
        for m in additions:
            b[m] = b.get(m, 0) + 1
        new = TypeSignature(t.a + da, b)
        assert necessary(t, new)
        results.append((new, family, s, tp))

    mu = t.max_block() or 0
    n = t.n
    # F1: N_{2s+1} ~> 1^2 + N_{2s-1}
    for s in range(1, mu // 2 + 1):
        if t.b_m(2 * s + 1):
            emit(1, s, None, 2, [2 * s + 1], [2 * s - 1])
    # F2: N_{2s} ~> 1 + N_{2s-1}
    for s in range(1, mu // 2 + 1):
        if t.b_m(2 * s):
            emit(2, s, None, 1, [2 * s], [2 * s - 1])
    # F3: 1^2 + N_{2s-2} ~> N_{2s}
    if t.a >= 2:
        for s in range(1, n // 2 + 1):
            if s == 1 or t.b_m(2 * s - 2):
                emit(3, s, None, -2, [2 * s - 2], [2 * s])
    # F4: N_{2s-2t} + N_{2s+2} ~> N_{2s-2t+2} + N_{2s}
    for s in range(1, mu // 2 + 1):
        if not t.b_m(2 * s + 2):
            continue
        for tp in range(1, s + 1):
            if s == tp or t.b_m(2 * s - 2 * tp):
                emit(4, s, tp, 0, [2 * s + 2, 2 * s - 2 * tp],
                     [2 * s - 2 * tp + 2, 2 * s])
    # F5: N_{2s+1} + N_{2s+2t-1} ~> N_{2s-1} + N_{2s+2t+1}
    for s in range(1, mu // 2 + 1):
        if not t.b_m(2 * s + 1):
            continue
        for tp in range(1, (mu - 2 * s + 2) // 2 + 1):
            hi = 2 * s + 2 * tp - 1
            if t.b_m(hi) >= (2 if tp == 1 else 1):
                emit(5, s, tp, 0, [2 * s + 1, hi],
                     [2 * s - 1, 2 * s + 2 * tp + 1])
    # F6 composite: 1^{2t-2s-1} + N_{2s} ~> N_{2t-1}; expands into F3
    # steps followed by the core move 1 + N_{2t-2} ~> N_{2t-1}
    for s in range(0, mu // 2 + 1):
        if s and not t.b_m(2 * s):
            continue
        for tp in range(s + 1, (n + 1) // 2 + 1):
            ones = 2 * tp - 2 * s - 1
            if t.a < ones:
                break
            emit(6, s, tp, -ones, [2 * s], [2 * tp - 1])
    return results


@pytest.fixture
def claim_caches():
    """Empty the caches that read _family_claim before and after a test
    that patches it, so that no test sees another's claims."""
    caches = (moduli._move, moduli._verify_f6_core)
    for cached in caches:
        cached.cache_clear()
    yield
    for cached in caches:
        cached.cache_clear()


FIG5_TYPES = ["1^5", "1^3+N2", "1^2+N3", "1+N4", "N5", "1+N2^2", "N2+N3",
              "0+1^4", "0+1^2+N2"]
FIG5_EDGES = {
    ("1^5", "1^3+N2"), ("1^3+N2", "1+N4"), ("1+N4", "N5"),
    ("1+N4", "1+N2^2"), ("N5", "1^2+N3"), ("1+N2^2", "N2+N3"),
    ("1^2+N3", "N2+N3"), ("1^2+N3", "0+1^4"), ("N2+N3", "0+1^2+N2"),
    ("0+1^4", "0+1^2+N2")}


class TestEnumeration:
    def test_small_counts(self):
        assert {str(t) for t in enumerate_types(1)} == {"1", "0"}
        assert {str(t) for t in enumerate_types(2)} == \
            {"1^2", "0+1", "0^2", "N2"}
        assert len(enumerate_types(5)) == 19
        assert len(enumerate_types(8)) == 67

    def test_order_is_lexicographic_and_total(self):
        for n in (3, 5, 6):
            ts = enumerate_types(n)
            keys = [t.key() for t in ts]
            assert keys == sorted(keys)
            assert len(set(keys)) == len(ts)
            assert all(t.n == n for t in ts)

    def test_figure_types_enumerated(self):
        names = {str(t) for t in enumerate_types(5)}
        assert set(FIG5_TYPES) <= names


class TestFunctionals:
    def test_psi_two_is_corank(self):
        for t in enumerate_types(6):
            assert psi(t, 2) == t.corank

    def test_theta_examples(self):
        assert theta(P("N3^2"), 2) == 2
        assert theta(P("0+N5"), 2) == 1

    def test_nonsingular_vanishing(self):
        t = P("1^5")
        assert all(psi(t, m) == 0 for m in range(1, 10))
        assert theta(t, 4) == 0

    def test_block_sums_match_reference(self):
        # past 2n+2 too, where only the reference "no" loop reads Psi
        for n in range(1, 15):
            for t in enumerate_types(n):
                for m in range(1, 2 * n + 7):
                    assert psi(t, m) == reference_psi(t, m), (t, m)
                    assert theta(t, m) == reference_theta(t, m), (t, m)
                    assert phi(t, m) == reference_phi(t, m), (t, m)

    def test_phi_psi_identities(self):
        for n in range(1, 7):
            for t in enumerate_types(n):
                for m in range(1, 2 * n + 3):
                    if m % 2:
                        assert phi(t, m) == psi(t, m) + t.n
                    else:
                        assert phi(t, m) == 2 * psi(t, m)


class TestPredicates:
    def test_examples(self):
        assert not necessary(P("N5"), P("1+N2^2"))
        assert necessary(P("N3^2"), P("0+N5"))
        assert not sufficient(P("N3^2"), P("0+N5"))
        assert sufficient(P("1+N4"), P("N5"))
        for t in enumerate_types(4):
            assert necessary(t, t) and sufficient(t, t)

    def test_mismatch(self):
        with pytest.raises(ValueError):
            necessary(P("1"), P("1^2"))
        with pytest.raises(ValueError, match="same dimension"):
            specialize_query(P("1"), P("1^2"))

    def test_nonpositive_arguments(self):
        with pytest.raises(ValueError, match="n must be positive"):
            list(enumerate_types(0))
        with pytest.raises(ValueError, match="m must be positive"):
            psi(P("N2"), 0)

    def test_sufficient_implies_necessary(self):
        for n in range(1, 7):
            for t in enumerate_types(n):
                for s in enumerate_types(n):
                    if sufficient(t, s):
                        assert necessary(t, s)

    def test_psi_to_2n_plus_2_implies_theta_inf(self):
        # why necessary() compares no Theta_inf: Psi_{2n+1} implies it
        for n in range(1, 13):
            ts = enumerate_types(n)
            for tA in ts:
                for tB in ts:
                    if necessary(tA, tB):
                        assert (reference_theta_inf(tA)
                                <= reference_theta_inf(tB)), (tA, tB)

    def test_predicates_transitive(self):
        ts = enumerate_types(5)
        for t in ts:
            for s in ts:
                if not necessary(t, s):
                    continue
                for u in ts:
                    if necessary(s, u):
                        assert necessary(t, u)


class TestGeneratorSteps:
    def test_examples(self):
        steps = {(str(new), fam, s, tp)
                 for (new, fam, s, tp) in generator_step(P("N5"))}
        assert ("1^2+N3", 1, 2, None) in steps
        steps = {(str(new), fam) for (new, fam, _, _)
                 in generator_step(P("N3^2"))}
        assert ("0+N5", 5) in steps
        steps = {(str(new), fam) for (new, fam, _, _)
                 in generator_step(P("1^2"))}
        assert ("N2", 3) in steps

    def test_steps_strictly_decrease_stratum_dim(self):
        for n in range(1, 7):
            for t in enumerate_types(n):
                for (new, fam, s, tp) in generator_step(t):
                    assert necessary(t, new)
                    assert group_dim(new) > group_dim(t), (t, new, fam)

    def test_moves_are_the_reference_moves(self):
        # the same steps in the same order, for every type with n <= 12
        # and for types with a long block
        types = [t for n in range(1, 13) for t in enumerate_types(n)]
        assert len(types) == 889
        for t in types + [P("1+N3^2+N8+N100"), P("0+N7^2+N100"),
                          P("N512")]:
            assert generator_step(t) == reference_generator_step(t), t

    def test_path_search(self):
        path = generator_path(P("1^5"), P("0^5"))
        assert path is not None and len(path) >= 1
        assert generator_path(P("0+1^4"), P("1^2+N3")) is None
        assert generator_path(P("1^5"), P("1^5")) == []


class TestWitnesses:
    def test_all_families_small(self):
        cases = ([(1, s, None) for s in (1, 2, 3)]
                 + [(2, s, None) for s in (1, 2, 3, 4)]
                 + [(3, s, None) for s in (1, 2, 3, 4)]
                 + [(4, 1, 1), (4, 2, 1), (4, 2, 2), (4, 3, 3)]
                 + [(5, 1, 1), (5, 1, 2)]
                 + [(6, s, None) for s in (0, 1, 2, 3)])
        for fam, s, tp in cases:
            w = witness(fam, s, tp)
            assert w.verified, (fam, s, tp, w)
            assert w.form.n <= 8

    def test_witness_gram_over_gf9(self):
        w = witness(3, 1, q=3)
        assert w.verified
        assert repr(w) == "SpecializationWitness(F3, s=1, t=None, 1^2 ~> N2)"
        assert w.form.field.p == 3

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            witness(4, 1, 2)
        with pytest.raises(ValueError):
            witness(7, 1)
        with pytest.raises(ValueError):
            witness(1, 0)
        for family in (1, 2, 3, 6):
            for tp in (1, 5, 0, -3):
                with pytest.raises(ValueError,
                                   match=f"family {family} takes no t"):
                    witness(family, 1, tp)

    def test_wrong_claim_raises(self, monkeypatch, claim_caches):
        # building a witness checks it: no caller can hold one whose
        # fibers miss the claim
        monkeypatch.setattr(moduli, "_family_claim", lambda *args: (
            P("0+N5"), P("N3^2")))
        with pytest.raises(VerificationError, match=re.escape(
                "witness F5 has fiber types N3^2 ~> 0+N5, not the claimed "
                "0+N5 ~> N3^2")):
            witness(5, 1, 1)

    def test_claims_give_the_witness_dimension(self):
        # the claim refuses exactly the parameters the reference refuses,
        # with its text, and otherwise both claimed types and the Gram
        # matrix have the reference dimension
        field = field_make(2, 1, 2, kind="rational-function")
        for family in range(8):
            for s in range(-1, moduli._WITNESS_DIM_CAP // 2 + 2):
                tps = ([None] if family in (1, 2, 3, 6)
                       else [None] + list(range(-1, s + 2)))
                for tp in tps:
                    try:
                        n = reference_witness_dim(family, s, tp)
                    except ValueError as ex:
                        with pytest.raises(ValueError, match=re.escape(
                                str(ex))):
                            moduli._family_claim(family, s, tp)
                        continue
                    gen, spec = moduli._family_claim(family, s, tp)
                    assert gen.n == spec.n == n, (family, s, tp)
                    if n <= moduli._WITNESS_DIM_CAP:
                        gram = moduli._witness_gram(field, family, s, tp)
                        assert (gram.nrows, gram.ncols) == (n, n)


class TestPoset:
    def test_n1(self):
        poset = build_poset(1)
        assert [(str(e.src.t), str(e.dst.t)) for e in poset.edges] == \
            [("1", "0")]
        assert repr(poset.nodes) == "[StratumNode(0, dim=0), " \
                                    "StratumNode(1, dim=1)]"
        assert repr(poset.edges) == "[SpecEdge(1 ~> 0, SG)]"

    def test_figure_five(self):
        poset = build_poset(5, restrict=[P(s) for s in FIG5_TYPES])
        got = {(str(e.src.t), str(e.dst.t)) for e in poset.edges}
        assert got == FIG5_EDGES
        dims = {str(node.t): node.stratum_dim for node in poset.nodes}
        assert [dims[s] for s in FIG5_TYPES] == \
            [25, 24, 21, 23, 22, 21, 20, 20, 19]

    def test_cap(self):
        with pytest.raises(CostGuardError):
            build_poset(9)

    def test_restrict_validation(self):
        with pytest.raises(ValueError, match="does not have dimension 5"):
            build_poset(5, restrict=[P("1^4")])
        with pytest.raises(ValueError, match="named twice"):
            build_poset(3, restrict=[P("1^3"), P("N3"), P("1^3")])

    def test_antisymmetry_and_dim_decrease(self):
        poset = build_poset(6)
        ts = [node.t for node in poset.nodes]
        for a in ts:
            for b in ts:
                assert a == b or not (necessary(a, b) and necessary(b, a))
        for e in poset.edges:
            assert e.src.stratum_dim > e.dst.stratum_dim
            assert e.evidence in ("G", "SG") and e.path

    def test_monotonicity_transport(self):
        # proven(tA ~> tB) stays proven after adding any summand
        samples = [("1+N4", "N5", "N3"), ("N3^2", "0+N5", "1^2"),
                   ("1^2", "N2", "0+N2")]
        for a, b, s in samples:
            tA, tB, tS = P(a), P(b), P(s)
            assert specialize_query(tA, tB)[0] == "yes"
            assert specialize_query(tA.direct_sum(tS),
                                    tB.direct_sum(tS))[0] == "yes"

    def test_dot_and_json(self):
        poset = build_poset(5, restrict=[P(s) for s in FIG5_TYPES])
        dot = poset.to_dot()
        assert 'digraph' in dot
        assert '"1^5" [label="1^5\\ndim 25"];' in dot
        assert dot.count("->") == 10
        data = json.loads(poset.to_json())
        assert len(data["nodes"]) == 9 and len(data["edges"]) == 10
        assert data["unknown"] == []


class TestSpecializeQuery:
    def test_yes_paths(self):
        assert specialize_query(P("1^5"), P("0^5"))[0] == "yes"
        verdict, ev = specialize_query(P("N3^2"), P("0+N5"))
        assert verdict == "yes" and ev["kind"] == "generator-path"
        assert ev["steps"][0]["family"] == "F5"

    def test_no_with_violated_index(self):
        verdict, m = specialize_query(P("0+1^4"), P("1^2+N3"))
        assert verdict == "no" and m == 1
        verdict, m = specialize_query(P("1+N2+N3"), P("N2^3"))
        assert verdict == "no" and m == 3

    def test_open_pair_is_unknown(self):
        tA = P("1+N3^2+N8")
        tB = P("0+N7^2")
        assert tA.n == tB.n == 15
        assert specialize_query(tA, tB) == ("unknown", None)

    def test_path_budget(self):
        # the open pair plus a common N100 runs past 20 s unbounded
        for cached in (moduli._block_profile, moduli._profile):
            cached.cache_clear()
        start = time.process_time()
        with pytest.raises(CostGuardError, match="budget of 2000"):
            specialize_query(P("1+N3^2+N8+N100"), P("0+N7^2+N100"))
        assert time.process_time() - start < 1.0
        # the pair with n <= 13 whose path search generates the most moves
        # (100), with a common N100
        verdict, ev = specialize_query(P("1^4+N3^3+N100"),
                                       P("0^2+N2+N4+N5+N100"))
        assert verdict == "yes" and ev["kind"] == "generator-path"

    def test_largest_types_are_cheap(self):
        for cached in (moduli._block_profile, moduli._profile):
            cached.cache_clear()
        start = time.process_time()
        assert specialize_query(P("N512"), P("1+N511"))[0] == "yes"
        assert time.process_time() - start < 0.1


def test_generator_step_checks_the_necessary_predicate(monkeypatch):
    monkeypatch.setattr(moduli, "necessary", lambda s, t: False)
    with pytest.raises(VerificationError, match="necessary predicate"):
        generator_step(P("1^3"))


def test_move_closure_is_the_psi_relation():
    # the theorem build_poset rests on: closing the basic moves gives
    # exactly the necessary (Psi) relation, for n <= 14.  Moves raise
    # group_dim, so one pass in decreasing group_dim order closes them.
    # At n = 15 five Psi pairs are reached by no move; the first is a Psi
    # cover, and the other four reach it by F3 moves.
    for n in range(1, 16):
        ts = sorted(enumerate_types(n), key=group_dim, reverse=True)
        index = {t: i for i, t in enumerate(ts)}
        reach = []
        for i, t in enumerate(ts):
            bits = 1 << i
            for (new, _, _, _) in generator_step(t):
                bits |= reach[index[new]]
            reach.append(bits)
        nec = moduli._dominance(ts)
        assert all(r & ~c == 0 for r, c in zip(reach, nec)), n
        missed = {(str(ts[i]), str(ts[j])) for i, c in enumerate(nec)
                  for j in moduli._bits(c & ~reach[i])}
        if n < 15:
            assert missed == set(), n
        else:
            assert missed == {(src, "0+N7^2") for src in (
                "1+N3^2+N8", "1^3+N3^2+N6", "1^5+N3^2+N4", "1^7+N2+N3^2",
                "1^9+N3^2")}


def test_cover_without_a_path_raises(monkeypatch, capsys):
    cover = build_poset(3).edges[0]
    real = moduli.generator_path
    monkeypatch.setattr(
        moduli, "generator_path",
        lambda a, b: None if (a, b) == (cover.src.t, cover.dst.t)
        else real(a, b))
    with pytest.raises(VerificationError, match="no path of basic moves"):
        build_poset(3)
    assert main(["moduli", "--dim", "3"]) == 4
    out = capsys.readouterr()
    assert out.out == "" and "no path of basic moves" in out.err


def test_failed_f6_witness_raises(monkeypatch, claim_caches):
    # a composite move whose core witness fails is an error, not a move
    # to leave out
    # F6's claim, swapped, is one its witness cannot meet
    real = moduli._family_claim
    monkeypatch.setattr(moduli, "_family_claim", lambda family, s, t: (
        real(family, s, t)[::-1] if family == 6 else real(family, s, t)))
    for _ in range(2):
        # a failed check is not cached: it raises each time
        with pytest.raises(VerificationError,
                           match="witness F6 has fiber types"):
            generator_path(P("1^3"), P("N3"))
    assert generator_path(P("N3"), P("0+1^2")) == [(1, 1, None, P("0+1^2"))]


class TestAgainstReference:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_predicates_and_queries(self, n):
        ts = enumerate_types(n)
        for tA in ts:
            for tB in ts:
                assert necessary(tA, tB) == reference_necessary(tA, tB)
                assert sufficient(tA, tB) == reference_sufficient(tA, tB)
                assert (specialize_query(tA, tB)
                        == reference_specialize_query(tA, tB)), (tA, tB)

    @pytest.mark.parametrize("n,restrict", [(n, None) for n in range(1, 9)]
                             + [(5, FIG5_TYPES), (6, ["1+N2+N3", "N2^3"])])
    def test_build_poset(self, n, restrict):
        types = None if restrict is None else [P(s) for s in restrict]
        got = build_poset(n, restrict=types)
        ref, proven, unknown = reference_build_poset(n, restrict=types)
        assert unknown == []
        assert got.to_json() == ref.to_json()
        assert got.to_dot() == ref.to_dot()
        ts = [node.t for node in got.nodes]
        assert proven == {(str(a), str(b)) for a in ts for b in ts
                          if a != b and necessary(a, b)}
        assert [(e.src.t, e.dst.t, e.evidence, e.path) for e in got.edges] \
            == [(e.src.t, e.dst.t, e.evidence, e.path) for e in ref.edges]


class TestPosetCost:
    """CPU-time tripwires, measured with the profile and witness caches
    emptied; build_poset(8) took 0.5-0.7 s and n = 12 11.7-12.6 s when
    every pair recomputed Psi and Theta."""

    @pytest.mark.parametrize("n,seconds", [(8, 0.3), (12, 3.0)])
    def test_build_time(self, monkeypatch, n, seconds):
        for cached in (moduli._block_profile, moduli._profile,
                       moduli._verify_f6_core):
            cached.cache_clear()
        monkeypatch.setattr(moduli, "_POSET_CAP", n)
        start = time.process_time()
        poset = build_poset(n)
        assert time.process_time() - start < seconds
        assert len(poset.nodes) == len(enumerate_types(n))
