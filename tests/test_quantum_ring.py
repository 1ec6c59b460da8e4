import collections
import functools
import hashlib
import itertools
import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from multcone import quantum_ring
from multcone.exact import as_int, poly_mul, solve
from multcone.quantum_ring import (QuantumTable, _classical_sub_table,
                                   _restrictions, build_structure_table,
                                   chevalley_operator, gw_invariant)
from multcone.root_system import build_root_system
from multcone.weyl import minimal_reps

from weyl_reference import get_weyl_group


def _ctx(t, r, ip):
    return minimal_reps(build_root_system(t, r), {ip})


@pytest.fixture(scope="module")
def p1_table():
    return build_structure_table(_ctx("A", 1, 1))


@pytest.fixture(scope="module")
def gr24_table():
    return build_structure_table(_ctx("A", 3, 2))


@pytest.fixture(scope="module")
def quadric_table():
    return build_structure_table(_ctx("B", 2, 1))


def _by_word(ctx):
    return {w.word: w for w in ctx.wp}


# --- independent Littlewood-Richardson oracle -------------------------------

def _lr_tableaux(nu, lam, mu):
    """Count fillings of nu/lam with content mu: rows weakly increase,
    columns strictly increase, reverse reading word is a lattice word.
    Shapes here have at most two rows, entries at most 2."""
    nu = tuple(nu) + (0,) * (2 - len(nu))
    lam = tuple(lam) + (0,) * (2 - len(lam))
    mu = tuple(mu) + (0,) * (2 - len(mu))
    cells = [(r, c) for r in range(2) for c in range(lam[r], nu[r])]
    count = 0
    for fill in itertools.product((1, 2), repeat=len(cells)):
        val = dict(zip(cells, fill))
        if sum(1 for v in fill if v == 1) != mu[0]:
            continue
        if sum(1 for v in fill if v == 2) != mu[1]:
            continue
        ok = True
        for (r, c), v in val.items():
            if (r, c + 1) in val and val[(r, c + 1)] < v:
                ok = False
            if (r + 1, c) in val and val[(r + 1, c)] <= v:
                ok = False
        if not ok:
            continue
        # reverse reading word: right to left along each row, top down
        word = []
        for r in range(2):
            row = [(rr, cc) for (rr, cc) in cells if rr == r]
            for cell in sorted(row, key=lambda x: -x[1]):
                word.append(val[cell])
        ones = twos = 0
        for v in word:
            if v == 1:
                ones += 1
            else:
                twos += 1
            if twos > ones:
                ok = False
                break
        count += ok
    return count


def _lr_coeff(lam, mu, nu):
    if sum(nu) != sum(lam) + sum(mu):
        return 0
    nu = tuple(nu) + (0,) * (2 - len(nu))
    lam = tuple(lam) + (0,) * (2 - len(lam))
    if any(n < l for n, l in zip(nu, lam)):
        return 0
    return _lr_tableaux(nu, lam, mu)


PARTITIONS = [(), (1,), (2,), (1, 1), (2, 1), (2, 2)]


def test_gr24_classical_constants_match_tableau_count(gr24_table):
    # both box-partition labelings of the two codimension-2 classes must
    # reproduce the tableau counts: transposition is a ring symmetry
    ctx = gr24_table.ctx
    words = _by_word(ctx)
    for two_word, oneone_word in [((1, 2), (3, 2)), ((3, 2), (1, 2))]:
        to_elt = {(): words[()], (1,): words[(2,)],
                  (2,): words[two_word], (1, 1): words[oneone_word],
                  (2, 1): words[(1, 3, 2)], (2, 2): words[(2, 1, 3, 2)]}
        part_of = {elt: p for p, elt in to_elt.items()}
        for lam in PARTITIONS:
            for mu in PARTITIONS:
                prod = gr24_table.tau_product(to_elt[lam], to_elt[mu])
                classical = {part_of[y]: c for (y, d), c in prod.items()
                             if not any(d)}
                expect = {nu: _lr_coeff(lam, mu, nu) for nu in PARTITIONS}
                expect = {nu: c for nu, c in expect.items() if c}
                assert classical == expect, (lam, mu, classical, expect)


def test_gr24_not_generated_in_degree_two(gr24_table):
    # the two codimension-2 classes are separated only by associativity,
    # not by divisor multiplication alone; both must still be present
    assert len(gr24_table.ctx.by_length(2)) == 2


# --- quantum values against enumerative counts ------------------------------

def test_p1_point_products(p1_table):
    # sigma is dual-indexed: the point class on the line is sigma_e
    ctx = p1_table.ctx
    e, s1 = ctx.wp
    assert p1_table.tau_product(s1, s1) == {(e, (1,)): 1}
    assert p1_table.gw(e, e, e, (1,)) == 1
    assert gw_invariant(p1_table, (e, e, e), (1,)) == 1


def test_p2_line_counts():
    table = build_structure_table(_ctx("A", 2, 1))
    ctx = table.ctx
    words = _by_word(ctx)
    pt_tau, line_tau = words[(2, 1)], words[(1,)]
    # one line through two general points
    assert table.tau_product(pt_tau, pt_tau) == {(line_tau, (1,)): 1}
    assert gw_invariant(
        table, (ctx.dual(pt_tau), ctx.dual(pt_tau), ctx.dual(line_tau)),
        (1,)) == 1


def test_p3_two_point_plane():
    table = build_structure_table(_ctx("A", 3, 1))
    ctx = table.ctx
    words = _by_word(ctx)
    pt = ctx.dual(words[(3, 2, 1)])
    plane = ctx.dual(words[(1,)])
    assert table.gw(pt, pt, plane, (1,)) == 1


def test_quadric_conic_through_three_points(quadric_table):
    # a plane section is the unique conic through three general points
    ctx = quadric_table.ctx
    pt = ctx.dual(_by_word(ctx)[(1, 2, 1)])
    assert quadric_table.gw(pt, pt, pt, (2,)) == 1


def test_gr24_four_lines(gr24_table):
    ctx = gr24_table.ctx
    divisor = ctx.dual(ctx.by_length(1)[0])
    tup = (divisor, divisor, divisor, divisor)
    assert gw_invariant(gr24_table, tup, (0,)) == 2
    assert gw_invariant(gr24_table, tup, (1,)) == 0


# --- structure and laws -----------------------------------------------------

def test_gw_symmetric_in_all_slots(gr24_table):
    ctx = gr24_table.ctx
    classes = [ctx.by_length(1)[0], ctx.by_length(2)[0], ctx.by_length(2)[1]]
    for d in [(0,), (1,)]:
        vals = {gw_invariant(gr24_table, perm, d)
                for perm in itertools.permutations(classes)}
        assert len(vals) == 1


def test_tau_sigma_duality(quadric_table):
    ctx = quadric_table.ctx
    for u in ctx.wp:
        for v in ctx.wp:
            tau = quadric_table.tau_product(u, v)
            sig = quadric_table.sigma_product(ctx.dual(u), ctx.dual(v))
            assert sig == {(ctx.dual(w), d): c for (w, d), c in tau.items()}
    # gw reads the sigma product at the dual of its third class
    degrees = {d for poly in quadric_table.tau.values() for (_, d) in poly}
    for u, v in itertools.product(ctx.wp, repeat=2):
        sig = quadric_table.sigma_product(u, v)
        for w, d in itertools.product(ctx.wp, degrees):
            assert quadric_table.gw(u, v, w, d) == sig.get((ctx.dual(w), d), 0)


def test_chevalley_against_classical_flag():
    # degree-zero Chevalley terms must agree with the classical constants
    rs = build_root_system("B", 2)
    ctx = minimal_reps(rs, {1, 2})
    classical = _classical_sub_table(ctx)
    for i in (1, 2):
        op = chevalley_operator(ctx, i)
        si = get_weyl_group(ctx.rs).simple(i)
        for v in ctx.wp:
            from_op = {w: c for (w, d), c in op[v].items() if not any(d)}
            assert classical[(si, v)] == from_op


def test_grading_of_all_terms(gr24_table):
    qd = gr24_table.q_degrees[0]
    for (u, v), poly in gr24_table.tau.items():
        for (y, d), c in poly.items():
            assert c > 0
            assert y.length == u.length + v.length - qd * d[0]


def test_gw_invariant_validates_input(p1_table):
    ctx = p1_table.ctx
    e, s1 = ctx.wp
    with pytest.raises(ValueError):
        gw_invariant(p1_table, (s1,), (0,))
    with pytest.raises(ValueError):
        gw_invariant(p1_table, (s1, s1), (0, 0))


def _assert_same_sigma_products(table, other):
    for u, v in itertools.product(table.ctx.wp, repeat=2):
        assert table.sigma_product(u, v) == other.sigma_product(u, v)


def test_preset_tau_rebuild_matches(quadric_table):
    rebuilt = build_structure_table(quadric_table.ctx,
                                    preset_tau=dict(quadric_table.tau))
    assert rebuilt.tau == quadric_table.tau
    _assert_same_sigma_products(rebuilt, quadric_table)


def test_restored_table_skips_chevalley_operators(quadric_table, monkeypatch):
    # only the solve reads the operators; a restored table must not pay for them
    def refuse(ctx, i):
        raise AssertionError("Chevalley operator computed for a restored table")

    monkeypatch.setattr(quantum_ring, "chevalley_operator", refuse)
    rebuilt = build_structure_table(quadric_table.ctx,
                                    preset_tau=dict(quadric_table.tau))
    _assert_same_sigma_products(rebuilt, quadric_table)


# --- associativity: commuting operators against every ordered triple --------

ASSOCIATIVITY_CASES = [(t, r, ip) for t, r in [("B", 2), ("G", 2), ("A", 3),
                                              ("B", 3), ("C", 3), ("A", 4)]
                       for ip in range(1, r + 1)]


def _associative_by_triples(wp, tau):
    """The reference check: (uv)w = u(vw) over every ordered triple."""
    return all(poly_mul(tau[(u, v)], tau, w) == poly_mul(tau[(v, w)], tau, u)
               for u, v, w in itertools.product(wp, repeat=3))


def _tampered(table):
    """tau with its first constant whose factors both have length >= 2
    raised by one, in both factor orders: still commutative, graded and
    positive."""
    tau = dict(table.tau)
    u, v, key = next((u, v, key) for (u, v), poly in tau.items()
                     if u.length >= 2 and v.length >= 2 for key in poly)
    tau[(u, v)] = tau[(v, u)] = {**tau[(u, v)], key: tau[(u, v)][key] + 1}
    return tau


@pytest.mark.parametrize("t,r,ip", ASSOCIATIVITY_CASES)
def test_associativity_check_matches_triples(t, r, ip):
    # the constructor has passed the table through the operator check
    table = build_structure_table(_ctx(t, r, ip))
    assert _associative_by_triples(table.ctx.wp, table.tau)
    # a non-associative table is refused by both checks, and by the
    # associativity assertion: its message names a triple of classes
    tau = _tampered(table)
    assert not _associative_by_triples(table.ctx.wp, tau)
    with pytest.raises(AssertionError) as exc:
        build_structure_table(table.ctx, preset_tau=tau)
    (triple,) = exc.value.args
    assert len(triple) == 3 and all(type(x) is str for x in triple)


_Class = collections.namedtuple("_Class", "name length")


class _GradedContext:
    """A stand-in for ParabolicContext: graded classes and no quantum
    parameter, enough for QuantumTable to verify a preset table."""
    s_p, q_degrees = (), {}

    def __init__(self, lengths):
        self.wp = [_Class(f"x{k}", n) for k, n in enumerate(lengths)]

    def q_codim(self, d):
        return 0


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_associativity_check_matches_triples_on_random_rings(data):
    # commutative, graded, positive tables with a unit, mostly not
    # associative: the table is refused exactly when some triple fails
    ctx = _GradedContext([0, 1, 1, 1, 2, 2, 3])
    tau = {}
    for a, u in enumerate(ctx.wp):
        for v in ctx.wp[a:]:
            if u.length == 0:
                poly = {(v, ()): 1}
            else:
                poly = {(w, ()): c for w in ctx.wp
                        if w.length == u.length + v.length
                        for c in [data.draw(st.sampled_from([0, 0, 1, 2]))]
                        if c}
            tau[(u, v)] = tau[(v, u)] = poly
    try:
        QuantumTable(ctx, preset_tau=tau)
    except AssertionError:
        accepted = False
    else:
        accepted = True
    assert accepted == _associative_by_triples(ctx.wp, tau)


# --- classical constants: localization against an independent route ---------

@functools.lru_cache(maxsize=None)
def _flag_table_reference(t, r):
    """Classical constants of the full flag variety G/B, solved level by
    level from the classical Chevalley rule: tau[s_i] * (tau[v] * tau[x]) =
    (tau[s_i] * tau[v]) * tau[x], every x carried in one right-hand side.
    H^*(G/B) is generated by divisors, so each level is determined."""
    rs = build_root_system(t, r)
    fctx = minimal_reps(rs, range(1, r + 1))
    ops = {i: {w: {w2: c for (w2, d), c in terms.items() if not any(d)}
               for w, terms in chevalley_operator(fctx, i).items()}
           for i in range(1, r + 1)}
    table = {}
    for x in fctx.wp:
        table[(get_weyl_group(fctx.rs).identity, x)] = {x: 1}
        for i in ops:
            table[(get_weyl_group(fctx.rs).simple(i), x)] = ops[i][x]
    for k in range(2, fctx.dim + 1):
        unknowns = fctx.by_length(k)
        idx = {w: n for n, w in enumerate(unknowns)}
        rows = []
        for i in ops:
            for v in fctx.by_length(k - 1):
                rhs = {}
                for x in fctx.wp:
                    for y, c in table[(v, x)].items():
                        for y2, c2 in ops[i][y].items():
                            rhs[(x, y2)] = rhs.get((x, y2), 0) + c * c2
                rows.append(({idx[w]: c for w, c in ops[i][v].items()}, rhs))
        sols = solve(rows, len(unknowns), lambda: f"level {k} underdetermined")
        for w, sol in zip(unknowns, sols):
            for x in fctx.wp:
                table[(w, x)] = {}
            for (x, y), c in sol.items():
                table[(w, x)][y] = as_int(c)
    return table


def _restricted_reference(ctx):
    """The flag-variety constants restricted to minimal representatives;
    the restriction is a ring map, so nothing may land outside them."""
    flag = _flag_table_reference(ctx.rs.type_label, ctx.rs.rank)
    sub = {}
    for u in ctx.wp:
        for v in ctx.wp:
            poly = {w: c for w, c in flag[(u, v)].items() if c}
            assert all(w in ctx.wp_index for w in poly), (str(u), str(v))
            sub[(u, v)] = poly
    return sub


REFERENCE_CASES = (
    [(t, r, (ip,)) for t, r in [("B", 2), ("G", 2), ("A", 3), ("B", 3),
                                ("C", 3), ("A", 4)]
     for ip in range(1, r + 1)]
    + [(t, r, tuple(range(1, r + 1)))
       for t, r in [("B", 2), ("G", 2), ("A", 3)]])


@pytest.mark.parametrize("t,r,s_p", REFERENCE_CASES, ids=[
    f"{t}{r}-P{''.join(map(str, s_p))}" for t, r, s_p in REFERENCE_CASES])
def test_localization_matches_flag_table(t, r, s_p):
    ctx = minimal_reps(build_root_system(t, r), s_p)
    assert _classical_sub_table(ctx) == _restricted_reference(ctx)


# the types of test_root_system with rank at most 4
LOCALIZATION_TYPES = [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3),
                      ("C", 2), ("C", 3), ("D", 4), ("F", 4), ("G", 2)]


def _localization_contexts(t, r):
    rs = build_root_system(t, r)
    ctxs = [minimal_reps(rs, {ip}) for ip in range(1, r + 1)]
    if t != "F":
        # the Borel: W^P is all of W (F4's 1152 elements are left out)
        ctxs.append(minimal_reps(rs, range(1, r + 1)))
    return ctxs


@pytest.mark.parametrize("t,r", LOCALIZATION_TYPES)
def test_localization_values(t, r):
    for ctx in _localization_contexts(t, r):
        g = get_weyl_group(ctx.rs)
        xi = _restrictions(ctx)
        for w in ctx.wp:
            # xi^e is the unit class
            assert xi[w][g.identity] == 1, str(w)
            # xi^w(w): the product of the heights of the positive roots
            # that w^{-1} sends negative, so never zero
            winv = g.inverse(w)
            inversions = [beta for beta in ctx.rs.positive_roots
                          if g.root_sign(winv, beta) < 0]
            assert len(inversions) == w.length
            assert xi[w][w] == math.prod(sum(beta) for beta in inversions)
            # upper triangular: xi^u(w) = 0 unless u = w or l(u) < l(w)
            for u, val in xi[w].items():
                assert u in ctx.wp_index and val > 0
                assert u == w or u.length < w.length, (str(u), str(w))


def _degree_by_borel_hirzebruch(ctx, ip):
    """deg G/P_i in the embedding of omega_i: dim! times the product over
    positive roots of (omega_i, alpha^vee) / (rho, alpha^vee)."""
    out = Fraction(math.factorial(ctx.dim))
    for alpha in ctx.rs.positive_roots:
        cov = ctx.rs.coroot(alpha)
        if cov[ip - 1]:
            out *= Fraction(cov[ip - 1]) / sum(cov)
    return as_int(out)


def _degree_from_constants(ctx, ip):
    """The coefficient of the point class in tau[s_ip]^dim."""
    classical = _classical_sub_table(ctx)
    divisor = get_weyl_group(ctx.rs).simple(ip)
    poly = {divisor: 1}
    for _ in range(ctx.dim - 1):
        out = {}
        for w, c in poly.items():
            for w2, c2 in classical[(w, divisor)].items():
                out[w2] = out.get(w2, 0) + c * c2
        poly = out
    (top, deg), = poly.items()
    assert top.length == ctx.dim
    return deg


@pytest.mark.parametrize("t,r,ip", [("B", 3, 2), ("C", 3, 2), ("A", 4, 2),
                                    ("D", 4, 2), ("F", 4, 1), ("F", 4, 4)])
def test_classical_degree_matches_borel_hirzebruch(t, r, ip):
    ctx = minimal_reps(build_root_system(t, r), {ip})
    assert _degree_from_constants(ctx, ip) == _degree_by_borel_hirzebruch(ctx, ip)


def test_f4_p4_is_a_hyperplane_section_of_the_cayley_plane():
    # the Cayley plane E6/P1 has degree 78 in P^26, and F4/P4 is a smooth
    # hyperplane section of it
    ctx = minimal_reps(build_root_system("F", 4), {4})
    assert ctx.dim == 15
    assert _degree_from_constants(ctx, 4) == 78


@pytest.mark.parametrize("ip", [1, 4])
def test_f4_tables_build_and_verify(ip):
    # the constructor runs _verify, associativity included
    table = build_structure_table(_ctx("F", 4, ip))
    assert len(table.ctx.wp) == 24
    assert any(any(d) for poly in table.tau.values() for (_, d) in poly)


# sha256 of every constant of the full-flag tables, classes by wp_index;
# no CLI command renders a table with several quantum parameters.  The A3
# full flag (6053285d...e10d075) takes several seconds and is left out
FULL_FLAG_DIGESTS = {
    ("A", 2): "f23ccfb71f0e2aa61c95272066e9e5ea01ade37a64139f2600c291a0e12d4f60",
    ("B", 2): "06f30df95dc8b5877c01be0112bf2b5fee857556a621801492ff1d0f242dfaca",
    ("G", 2): "4fa528fdf2a19814a786d5673b8172441beb7f19d35dd0032c9bfcc6df496512",
}


@pytest.mark.parametrize("t,r", list(FULL_FLAG_DIGESTS))
def test_full_flag_table_digest(t, r):
    ctx = minimal_reps(build_root_system(t, r), range(1, r + 1))
    table = build_structure_table(ctx)
    idx = ctx.wp_index
    terms = sorted([idx[u], idx[v], idx[y], list(d), c]
                   for (u, v), poly in table.tau.items()
                   for (y, d), c in poly.items())
    digest = hashlib.sha256(json.dumps(terms).encode()).hexdigest()
    assert digest == FULL_FLAG_DIGESTS[(t, r)]
