import itertools

import pytest

from multcone.quantum_ring import (build_structure_table, chevalley_operator,
                                   classical_flag_table, gw_invariant)
from multcone.root_system import build_root_system
from multcone.weyl import minimal_reps


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


def test_chevalley_against_classical_flag():
    # degree-zero Chevalley terms must agree with the classical table
    rs = build_root_system("B", 2)
    ctx = minimal_reps(rs, {1, 2})
    classical = classical_flag_table(rs)
    for i in (1, 2):
        op = chevalley_operator(ctx, i)
        si = ctx.group.simple(i)
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


def test_preset_tau_rebuild_matches(quadric_table):
    rebuilt = build_structure_table(quadric_table.ctx,
                                    preset_tau=dict(quadric_table.tau))
    assert rebuilt.tau == quadric_table.tau
    assert rebuilt.sigma == quadric_table.sigma
