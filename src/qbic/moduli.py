"""Specialization order on the moduli of q-bic forms of dimension n.

Types of q-bic forms stratify the space of Gram matrices; a type tA
specializes to tB when the orbit closure of tA contains tB.  This module
enumerates all types of a given dimension, evaluates the numerical
necessary and sufficient conditions for specialization, and assembles
the Hasse diagram of the necessary (Psi) relation, certifying each cover
by a path of basic degeneration moves.  It also constructs explicit
one-parameter degeneration witnesses over GF(q^2)(t).  A move takes its
generic and special type from its family's witness claim, and applies to
a type that contains the generic one, replacing it by the special one.
"""

from __future__ import annotations

import functools
import json
from collections import deque
from operator import le

from . import CostGuardError, InputError, VerificationError, _check
from .fields import _prime_factors, evaluate_at_zero, field_make
from .forms import QBicForm, TypeSignature, type_of
from .auts import group_dim
from .linalg import MatrixF

_POSET_CAP = 8
# the moves generator_path may generate before it is refused: every pair
# with n <= 13 needs at most 100, while a common summand makes the search
# grow with it (1+N3^2+N8+N100 ~> 0+N7^2+N100 is refused in 0.15 s of
# CPU; 2 shared CPUs, Python 3.11.7)
_PATH_BUDGET = 2000

# ---------------------------------------------------------------------------
# type enumeration and the numerical functionals


def enumerate_types(n):
    """All types (a; b) with a + sum(m b_m) = n, ordered lexicographically
    by (a, b_1, b_2, ...)."""
    if n < 1:
        raise InputError("n must be positive")
    out = []

    def go(rem, m, b):
        if m > n:
            if rem >= 0:
                out.append(TypeSignature(rem, dict(b)))
            return
        for bm in range(rem // m + 1):
            if bm:
                b[m] = bm
            go(rem - m * bm, m + 1, b)
            if bm:
                del b[m]

    go(n, 1, {})
    out.sort(key=lambda t: t.key())
    return out


def _block_psi(m, j):
    """Psi_j of a single N_m block.  Psi_j is linear in the block counts
    and `a` does not enter it, so Psi_j of a type is the sum of this over
    its blocks."""
    if j % 2 == 0:
        return j // 2 if m % 2 == 1 else min(m, j) // 2
    if m % 2 == 0:
        return 0
    return 1 if m == j else max(j - m, 0)


def psi(t, m):
    """The specialization functional Psi_m."""
    if m < 1:
        raise ValueError("m must be positive")
    return sum(bm * _block_psi(j, m) for j, bm in t.b.items())


def phi(t, m):
    """Growth coefficient of group_dim under direct sums: adding one N_m
    summand to a fixed form of type t increases the dimension by phi(t, m)
    plus the contribution of the new summand itself.  It is Psi_m(t) + n
    for odd m and 2 Psi_m(t) for even m."""
    return psi(t, m) + t.n if m % 2 == 1 else 2 * psi(t, m)


def theta(t, m):
    """Theta_m = b_1 + b_3 + ... + b_{2m-1}."""
    return sum(bm for j, bm in t.b.items() if j % 2 == 1 and j < 2 * m)


@functools.cache
def _block_profile(m, n):
    """(Psi_1, ..., Psi_{2n+2}) of a single N_m block."""
    return tuple(_block_psi(m, j) for j in range(1, 2 * n + 3))


@functools.cache
def _profile(t):
    """The tuple (Psi_1, ..., Psi_{2n+2}) that necessary() compares: the
    sum of the profiles of t's blocks."""
    rows = [_block_profile(m, t.n) if bm == 1
            else [bm * x for x in _block_profile(m, t.n)]
            for m, bm in t.b.items()]
    return tuple(map(sum, zip(*rows))) if rows else (0,) * (2 * t.n + 2)


def necessary(tA, tB):
    """Necessary condition for a specialization tA ~> tB: Psi_m(tA) <=
    Psi_m(tB) for all m.  No block is longer than n, so for m > n
    Psi_{2k-1} = (2k-1) Theta_inf - S and Psi_{2k} = k Theta_inf + E/2,
    where S and E, the dimensions of the odd and even blocks, are at most
    n.  So Psi_{2n+1}(tA) <= Psi_{2n+1}(tB) forces Theta_inf(tA) <=
    Theta_inf(tB), Psi_m(tA) - Psi_m(tB) does not rise past 2n+2 in
    either parity, and checking m <= 2n+2 is exact."""
    if tA.n != tB.n:
        raise InputError(f"types must have the same dimension, not {tA.n} "
                         f"and {tB.n}")
    return all(map(le, _profile(tA), _profile(tB)))


def sufficient(tA, tB):
    """Sufficient condition: the Psi inequalities of necessary() together
    with Theta_m(tA) <= Theta_m(tB) for all m."""
    return necessary(tA, tB) and all(theta(tA, m) <= theta(tB, m)
                                     for m in range(1, tA.n + 2))


# ---------------------------------------------------------------------------
# degeneration witnesses over GF(q^2)(t)


class SpecializationWitness:
    """A Gram matrix over GF(q^2)(t) whose generic fiber has one type and
    whose fiber at t = 0 has another, exhibiting a specialization."""

    __slots__ = ("family", "s", "t", "form", "claimed_generic",
                 "claimed_special", "generic_type", "special_type",
                 "verified")

    def __init__(self, family, s, t, form, claimed_generic, claimed_special):
        self.family = family
        self.s = s
        self.t = t
        self.form = form
        self.claimed_generic = claimed_generic
        self.claimed_special = claimed_special
        self.generic_type = type_of(form)
        self.special_type = type_of(special_fiber(form))
        self.verified = (self.generic_type == claimed_generic
                         and self.special_type == claimed_special)
        _check(self.verified,
               f"witness F{family} has fiber types {self.generic_type} ~> "
               f"{self.special_type}, not the claimed {claimed_generic} ~> "
               f"{claimed_special}")

    def __repr__(self):
        return (f"SpecializationWitness(F{self.family}, s={self.s}, "
                f"t={self.t}, {self.generic_type} ~> {self.special_type})")


def special_fiber(form):
    """Evaluate a form over GF(q^2)(t) at t = 0."""
    K = form.field
    F = K.finite_part
    rows = [[evaluate_at_zero(form.gram[i, j]) for j in range(form.n)]
            for i in range(form.n)]
    return QBicForm(F, MatrixF(F, rows))


def _witness_gram(field, family, s, t):
    """The degeneration Gram matrix of the given family over GF(q^2)(t),
    with the field's variable t playing the uniformizer."""
    one = field.one()
    pi = field.t_gen()
    n = _family_claim(family, s, t)[0].n

    def chain(offset, m):
        # superdiagonal of an N_m block occupying rows/cols offset+1..offset+m
        return [(offset + i, offset + i + 1, one) for i in range(1, m)]

    if family == 1:
        entries = chain(0, 2 * s - 1) + [(2 * s - 1, 2 * s, pi),
                                         (2 * s, 2 * s + 1, one),
                                         (2 * s + 1, 2 * s, one)]
    elif family == 2:
        entries = chain(0, 2 * s - 1) + [(2 * s - 1, 2 * s, pi),
                                         (2 * s, 2 * s, one)]
    elif family == 3:
        entries = chain(0, 2 * s - 2) + [(2 * s - 1, 2 * s, one),
                                         (2 * s, 2 * s - 1, pi)]
        if s > 1:
            entries.append((2 * s - 2, 2 * s - 1, one))
    elif family == 4:
        mid = 2 * s - 2 * t
        entries = (chain(0, 2 * s) + chain(2 * s, mid)
                   + [(n - 1, n, one), (2 * s, n - 1, pi)])
        if mid:
            entries.append((2 * s + mid, n - 1, one))
    elif family == 5:
        entries = (chain(0, 2 * s - 1) + chain(2 * s - 1, 2 * s + 2 * t - 1)
                   + [(n - 1, n, one), (2 * s - 1, n - 1, pi),
                      (n - 2, n - 1, one)])
    else:
        # core move 1 + N_{2s} ~> N_{2s+1} of the composite family
        entries = chain(0, n) + [(n, n, pi)]
    rows = [[field.zero() for _ in range(n)] for _ in range(n)]
    for (i, j, v) in entries:
        rows[i - 1][j - 1] = v
    return MatrixF(field, rows)


def _family_claim(family, s, t):
    """(generic type, special type) the family's Gram matrix must realize;
    InputError on parameters outside the family."""
    def N(*ms):
        b = {}
        for m in ms:
            if m >= 1:
                b[m] = b.get(m, 0) + 1
        return TypeSignature(0, b)

    if family in (1, 2, 3, 6) and t is not None:
        raise InputError(f"family {family} takes no t")
    if family in (1, 2, 3) and s < 1:
        raise InputError(f"family {family} needs s >= 1")
    if family == 1:
        # N_{2s+1} ~> 1^2 + N_{2s-1}
        return N(2 * s + 1), TypeSignature(2, {2 * s - 1: 1})
    if family == 2:
        # N_{2s} ~> 1 + N_{2s-1}
        return N(2 * s), TypeSignature(1, {2 * s - 1: 1})
    if family == 3:
        # 1^2 + N_{2s-2} ~> N_{2s}
        gen = TypeSignature(2, {2 * s - 2: 1} if s > 1 else {})
        return gen, N(2 * s)
    if family == 4:
        # N_{2s-2t} + N_{2s+2} ~> N_{2s-2t+2} + N_{2s}
        if t is None or not (s >= t >= 1):
            raise InputError("family 4 needs s >= t >= 1")
        return (N(2 * s - 2 * t, 2 * s + 2), N(2 * s - 2 * t + 2, 2 * s))
    if family == 5:
        # N_{2s+1} + N_{2s+2t-1} ~> N_{2s-1} + N_{2s+2t+1}
        if t is None or s < 1 or t < 1:
            raise InputError("family 5 needs s >= 1 and t >= 1")
        return (N(2 * s + 1, 2 * s + 2 * t - 1),
                N(2 * s - 1, 2 * s + 2 * t + 1))
    if family == 6:
        # the core 1 + N_{2s} ~> N_{2s+1} of the composite moves
        if s < 0:
            raise InputError("family 6 needs s >= 0")
        return TypeSignature(1, {2 * s: 1} if s else {}), N(2 * s + 1)
    raise InputError(f"unknown family {family}")


# witnesses are typed over GF(q^2)(t) with q^2 <= 2^16, where the finite
# part has Zech tables, and in dimension n <= 40: every admitted witness
# types in under 0.9 s of CPU (2 shared CPUs, Python 3.11.7; n = 40 at
# q = 2 in 0.3-0.7 s).  The time grows as about n^3, and with q past the
# tables: at q = 1024 n = 40 takes 1.2 s, at q = 2 n = 64 takes 2-4 s.
_WITNESS_DIM_CAP = 40
_WITNESS_Q_CAP = 256


def witness(family, s, t=None, q=2):
    """Build the degeneration witness of the given family; building it
    checks its fibers.

    Refused with InputError when q <= _WITNESS_Q_CAP is not a prime power,
    then with CostGuardError, before anything is built, when the dimension
    passes _WITNESS_DIM_CAP or q passes _WITNESS_Q_CAP.  Raises
    VerificationError when a fiber's type misses the family's claim."""
    claimed_generic, claimed_special = _family_claim(family, s, t)
    n = claimed_generic.n
    primes = _prime_factors(q) if q <= _WITNESS_Q_CAP else None
    if primes is not None and len(primes) != 1:
        raise InputError(f"q = {q} is not a prime power")
    if n > _WITNESS_DIM_CAP or primes is None:
        raise CostGuardError(
            f"witness F{family} has dimension {n} over GF({q}^2)(t); guard "
            f"is n <= {_WITNESS_DIM_CAP} and q <= {_WITNESS_Q_CAP}")
    p, e = primes[0], 1
    while p ** e < q:
        e += 1
    K = field_make(p, e, 2 * e, kind="rational-function")
    gram = _witness_gram(K, family, s, t)
    return SpecializationWitness(family, s, t, QBicForm(K, gram),
                                 claimed_generic, claimed_special)


@functools.cache
def _verify_f6_core(s):
    """Composite-family instances reduce to the move 1 + N_{2s} ~>
    N_{2s+1}; each core is backed by a degeneration witness over q = 2,
    built once per s.  A witness that fails raises VerificationError each
    time, as the cache keeps no exceptions."""
    witness(6, s)


# ---------------------------------------------------------------------------
# generator steps and paths


@functools.cache
def _move(family, s, tp):
    """(generic type, special type) of a basic move: the family's claim,
    except that an F6 move is the composite 1^{2tp-2s-1} + N_{2s} ~>
    N_{2tp-1}, which expands into F3 moves followed by the core move
    1 + N_{2tp-2} ~> N_{2tp-1}."""
    if family != 6:
        return _family_claim(family, s, tp)
    return (TypeSignature(2 * tp - 2 * s - 1, {2 * s: 1} if s else {}),
            TypeSignature(0, {2 * tp - 1: 1}))


def generator_step(t):
    """All types reachable from t by a single basic degeneration move.

    Returns (new type, family id, s, t-parameter) tuples.  A move applies
    where t contains its generic type, and leads to t - generic + special;
    every emitted step satisfies the necessary predicate.  Composite
    family-6 moves are backed by their core witness only where
    generator_path returns them.
    """
    mu, n = t.max_block() or 0, t.n
    # each family's parameters, pruned by the block its generic type needs
    half = range(1, mu // 2 + 1)
    params = [(1, s, None) for s in half if t.b_m(2 * s + 1)]
    params += [(2, s, None) for s in half if t.b_m(2 * s)]
    if t.a >= 2:
        params += [(3, s, None) for s in range(1, n // 2 + 1)]
    params += [(4, s, tp) for s in half if t.b_m(2 * s + 2)
               for tp in range(1, s + 1)]
    params += [(5, s, tp) for s in half if t.b_m(2 * s + 1)
               for tp in range(1, (mu - 2 * s + 2) // 2 + 1)]
    # a composite takes 2tp - 2s - 1 of t's a lines
    params += [(6, s, tp) for s in range(mu // 2 + 1) if not s or t.b_m(2 * s)
               for tp in range(s + 1, min(n + 1, 2 * s + t.a + 1) // 2 + 1)]
    results = []
    for family, s, tp in params:
        gen, spec = _move(family, s, tp)
        if t.a < gen.a or any(t.b_m(m) < c for m, c in gen.b.items()):
            continue
        b = dict(t.b)
        for m, c in gen.b.items():
            b[m] -= c
        for m, c in spec.b.items():
            b[m] = b.get(m, 0) + c
        new = TypeSignature(t.a - gen.a + spec.a, b)
        if not necessary(t, new):
            raise VerificationError(
                f"move {t} ~> {new} (family {family}, s={s}, t={tp}) "
                f"violates the necessary predicate")
        results.append((new, family, s, tp))
    return results


# ---------------------------------------------------------------------------
# the specialization poset


class StratumNode:
    __slots__ = ("t", "stratum_dim", "codim")

    def __init__(self, t):
        self.t = t
        self.codim = group_dim(t)
        self.stratum_dim = t.n * t.n - self.codim

    def __repr__(self):
        return f"StratumNode({self.t}, dim={self.stratum_dim})"


class SpecEdge:
    __slots__ = ("src", "dst", "evidence", "path")

    def __init__(self, src, dst, evidence, path):
        self.src = src
        self.dst = dst
        self.evidence = evidence   # "G", or "SG" when sufficient holds too
        self.path = path           # the generator steps from src to dst

    def __repr__(self):
        return f"SpecEdge({self.src.t} ~> {self.dst.t}, {self.evidence})"


class ModuliPoset:
    def __init__(self, n, nodes, edges):
        self.n = n
        self.nodes = nodes
        self.edges = edges         # Hasse edges, each certified by a path

    def to_dot(self):
        lines = ["digraph qbics {", "  rankdir=LR;"]
        for node in self.nodes:
            lines.append(f'  "{node.t}" [label="{node.t}\\n'
                         f'dim {node.stratum_dim}"];')
        for edge in self.edges:
            lines.append(f'  "{edge.src.t}" -> "{edge.dst.t}" '
                         f'[label="{edge.evidence}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"

    def to_json(self):
        data = {
            "n": self.n,
            "nodes": [{"type": str(node.t),
                       "stratum_dim": node.stratum_dim,
                       "codim": node.codim} for node in self.nodes],
            "edges": [{"from": str(edge.src.t), "to": str(edge.dst.t),
                       "evidence": edge.evidence, "status": "proven"}
                      for edge in self.edges],
            "unknown": [],
        }
        return json.dumps(data, indent=2, sort_keys=True) + "\n"


def generator_path(tA, tB):
    """Shortest sequence of basic moves from tA to tB, or None.  The
    search prunes states that cannot numerically specialize to tB, and
    is refused with CostGuardError once it has generated more than
    _PATH_BUDGET moves."""
    if tA == tB:
        return []
    seen = {tA: None}
    queue = deque([tA])
    moves = 0
    while queue:
        cur = queue.popleft()
        steps = generator_step(cur)
        moves += len(steps)
        if moves > _PATH_BUDGET:
            raise CostGuardError(
                f"move search {tA} ~> {tB} passed its budget of "
                f"{_PATH_BUDGET} generated moves")
        for (new, family, s, tp) in steps:
            if new in seen or not necessary(new, tB):
                continue
            seen[new] = (cur, (family, s, tp, new))
            if new == tB:
                path = []
                node = new
                while seen[node] is not None:
                    prev, step = seen[node]
                    path.append(step)
                    node = prev
                path.reverse()
                # composite moves rely on a verified core witness
                for step in path:
                    if step[0] == 6:
                        _verify_f6_core(step[2] - 1)
                return path
            queue.append(new)
    return None


def _bits(x):
    """The positions of the set bits of x, in increasing order."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


def _dominance(types):
    """Bitsets over positions in types: bit j of nec[i] is set when
    necessary holds for types[i] ~> types[j]."""
    psis = [_profile(t) for t in types]
    return [sum(1 << j for j, psi_j in enumerate(psis)
                if all(map(le, psi_i, psi_j)))
            for psi_i in psis]


def build_poset(n, restrict=None):
    """Nodes and Hasse edges of the specialization order in dimension n,
    on all types or on the types of `restrict`.

    The relation is the necessary (Psi) predicate, held as one int bitset
    per type.  Each Hasse cover must be joined by a path of basic moves,
    or VerificationError is raised.  Moves satisfy Psi and Psi is
    transitive, so the moves then reach exactly the reported relation.
    """
    if n > _POSET_CAP:
        raise CostGuardError(f"poset construction guarded at n <= "
                             f"{_POSET_CAP}")
    if restrict is None:
        chosen = enumerate_types(n)
    else:
        chosen = list(restrict)
        seen = set()
        for t in chosen:
            if t.n != n:
                raise InputError(f"type {t} does not have dimension {n}")
            if t in seen:
                raise InputError(f"type {t} is named twice")
            seen.add(t)
    nec = _dominance(chosen)
    # in a reflexive transitive relation, i and j reach each other exactly
    # when they reach the same set
    _check(len(set(nec)) == len(chosen), "specialization order has a 2-cycle")

    nodes = [StratumNode(t) for t in chosen]

    edges = []
    for i, src in enumerate(nodes):
        below = nec[i] & ~(1 << i)
        # Hasse reduction: drop j when some other k below i reaches it
        covered = 0
        for k in _bits(below):
            covered |= nec[k] & ~(1 << k)
        for j in _bits(below & ~covered):
            dst = nodes[j]
            if src.stratum_dim <= dst.stratum_dim:
                raise VerificationError(
                    f"edge {src.t} -> {dst.t} does not lower the "
                    f"stratum dimension")
            path = generator_path(src.t, dst.t)
            if path is None:
                raise VerificationError(
                    f"cover {src.t} -> {dst.t} has no path of basic moves")
            evidence = "SG" if sufficient(src.t, dst.t) else "G"
            edges.append(SpecEdge(src, dst, evidence, path))
    return ModuliPoset(n, nodes, edges)


def specialize_query(tA, tB):
    """Decide whether tA specializes to tB.

    Returns ("yes", evidence), ("no", smallest violated Psi index), or
    ("unknown", None).  Types of different dimensions are refused with
    InputError by necessary().
    """
    if tA == tB:
        return ("yes", {"kind": "equal"})
    if not necessary(tA, tB):
        return ("no", next(m for m, (x, y) in
                           enumerate(zip(_profile(tA), _profile(tB)), 1)
                           if x > y))
    if sufficient(tA, tB):
        return ("yes", {"kind": "sufficient"})
    path = generator_path(tA, tB)
    if path is not None:
        steps = [{"family": f"F{family}", "s": s, "t": tp,
                  "result": str(new)} for (family, s, tp, new) in path]
        return ("yes", {"kind": "generator-path", "steps": steps})
    return ("unknown", None)
