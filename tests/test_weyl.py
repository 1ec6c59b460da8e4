import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from multcone.root_system import CartanPoint, build_root_system
from multcone.weyl import (chi, enumerate_weyl, minimal_reps, render_word,
                           s_matrix, weyl_order)

from weyl_reference import get_weyl_group

F = Fraction

GROUP_ORDERS = {
    ("A", 1): 2, ("A", 2): 6, ("A", 3): 24,
    ("B", 2): 8, ("C", 2): 8, ("B", 3): 48, ("C", 3): 48,
    ("D", 4): 192, ("G", 2): 12,
}


@pytest.mark.parametrize("t,r", sorted(GROUP_ORDERS))
def test_group_orders(t, r):
    assert len(enumerate_weyl(build_root_system(t, r))) == GROUP_ORDERS[(t, r)]


@pytest.mark.parametrize("t,r", sorted(GROUP_ORDERS))
def test_longest_element(t, r):
    rs = build_root_system(t, r)
    g = get_weyl_group(rs)
    assert g.longest.length == len(rs.positive_roots)
    # w_o is an involution
    sq = g.mult(g.longest, g.longest)
    assert sq == g.identity


def test_words_are_reduced_and_lex_minimal():
    g = get_weyl_group(build_root_system("B", 2))
    for w in g.elements:
        assert g.length_by_inversions(w) == len(w.word)
    words = sorted(w.word for w in g.elements)
    assert words == [(), (1,), (1, 2), (1, 2, 1), (1, 2, 1, 2), (2,),
                     (2, 1), (2, 1, 2)]


@pytest.mark.parametrize("t,r", sorted(GROUP_ORDERS))
def test_inverse_and_products(t, r):
    g = get_weyl_group(build_root_system(t, r))
    for w in g.elements:
        assert g.mult(w, g.inverse(w)) == g.identity
        assert g.inverse(w).length == w.length


def test_reflection_matches_word_conjugation():
    rs = build_root_system("G", 2)
    g = get_weyl_group(rs)
    for root in rs.positive_roots:
        s = g.reflection(root)
        # a reflection fixes its own wall: it negates the root
        moved = s.act(rs.weight_from_root_coords(root))
        assert rs.root_coords(moved) == tuple(-F(c) for c in root)
        assert g.mult(s, s) == g.identity


WP_WORDS = {
    ("B", 2, 2): [(), (2,), (1, 2), (2, 1, 2)],
    ("G", 2, 1): [(), (1,), (2, 1), (1, 2, 1), (2, 1, 2, 1), (1, 2, 1, 2, 1)],
    ("G", 2, 2): [(), (2,), (1, 2), (2, 1, 2), (1, 2, 1, 2), (2, 1, 2, 1, 2)],
}


@pytest.mark.parametrize("t,r,ip", sorted(WP_WORDS))
def test_minimal_representatives(t, r, ip):
    ctx = minimal_reps(build_root_system(t, r), {ip})
    assert [w.word for w in ctx.wp] == WP_WORDS[(t, r, ip)]
    assert ctx.dim == len(WP_WORDS[(t, r, ip)]) - 1 or \
        ctx.dim == max(len(w) for w in WP_WORDS[(t, r, ip)])


def test_dimensions():
    assert minimal_reps(build_root_system("B", 2), {2}).dim == 3
    assert minimal_reps(build_root_system("B", 2), {1}).dim == 3
    assert minimal_reps(build_root_system("G", 2), {1}).dim == 5
    assert minimal_reps(build_root_system("G", 2), {2}).dim == 5
    assert minimal_reps(build_root_system("A", 3), {2}).dim == 4
    # full flag variety of A2
    assert minimal_reps(build_root_system("A", 2), {1, 2}).dim == 3


def test_q_degrees():
    assert minimal_reps(build_root_system("G", 2), {1}).q_degrees[1] == 5
    assert minimal_reps(build_root_system("G", 2), {2}).q_degrees[2] == 3
    assert minimal_reps(build_root_system("A", 1), {1}).q_degrees[1] == 2
    assert minimal_reps(build_root_system("B", 2), {2}).q_degrees[2] == 4
    assert minimal_reps(build_root_system("B", 2), {1}).q_degrees[1] == 3
    assert minimal_reps(build_root_system("A", 3), {2}).q_degrees[2] == 4


@pytest.mark.parametrize("t,r,ip", [("B", 2, 2), ("G", 2, 1), ("G", 2, 2),
                                    ("A", 3, 2), ("C", 2, 1)])
def test_duality_involution(t, r, ip):
    ctx = minimal_reps(build_root_system(t, r), {ip})
    for w in ctx.wp:
        dd = ctx.dual(ctx.dual(w))
        assert dd == w
        assert ctx.dual(w).length == ctx.codim(w)


@pytest.mark.parametrize("t,r,ip", [("B", 2, 2), ("G", 2, 1), ("A", 3, 2)])
def test_chi_values_integral_on_quantum_nodes(t, r, ip):
    ctx = minimal_reps(build_root_system(t, r), {ip})
    for w in ctx.wp:
        val = chi(ctx, w)
        # chi of the unit evaluates on the dropped coroot to the q-degree
        assert val.coords[ip - 1].denominator == 1
    assert chi(ctx, get_weyl_group(ctx.rs).identity).coords[ip - 1] == ctx.q_degrees[ip]


def test_chi_rejects_non_representatives():
    ctx = minimal_reps(build_root_system("B", 2), {2})
    s1 = get_weyl_group(ctx.rs).simple(1)
    with pytest.raises(ValueError):
        ctx.chi(s1)


def test_s_matrix_values():
    assert s_matrix(minimal_reps(build_root_system("A", 2), {1, 2})) == \
        ((3, 0), (0, 3))
    assert s_matrix(minimal_reps(build_root_system("G", 2), {1})) == ((12,),)
    assert s_matrix(minimal_reps(build_root_system("G", 2), {2})) == ((4,),)
    assert s_matrix(minimal_reps(build_root_system("B", 2), {2})) == ((6,),)


def test_point_action_orientation():
    # alpha_j(w mu) = (w^{-1} alpha_j)(mu); check on a B2 rotation
    rs = build_root_system("B", 2)
    ctx = minimal_reps(rs, {2})
    g = get_weyl_group(ctx.rs)
    p = CartanPoint((F(1, 5), F(1, 7)))
    s1 = g.simple(1)
    moved = ctx.point_action(s1, p)
    # s1 fixes alpha_2-height along its reflection: m1 -> -m1, m2 -> m2 + m1
    assert moved.coords == (-F(1, 5), F(1, 7) + F(1, 5))


def _simple_root(rs, i):
    return tuple(int(j == i - 1) for j in range(rs.rank))


def _delta_p(ctx):
    return [i for i in range(1, ctx.rs.rank + 1) if i not in ctx.s_p]


def _reference_wp(ctx):
    # w is a minimal representative iff w(alpha_i) > 0 for alpha_i in Delta_P
    g = get_weyl_group(ctx.rs)
    return [w for w in g.elements
            if all(g.root_sign(w, _simple_root(ctx.rs, i)) > 0
                   for i in _delta_p(ctx))]


def _reference_min_rep(ctx, v):
    # strip right descents in Delta_P until none is left
    g = get_weyl_group(ctx.rs)
    cur = v
    moved = True
    while moved:
        moved = False
        for i in _delta_p(ctx):
            if g.root_sign(cur, _simple_root(ctx.rs, i)) < 0:
                cur = g.mult_simple(cur, i)
                moved = True
                break
    return cur


def _reference_levi(ctx):
    # closure of the identity under the generators s_i, i in Delta_P
    g = get_weyl_group(ctx.rs)
    levi = {g.identity}
    frontier = [g.identity]
    while frontier:
        nxt = []
        for x in frontier:
            for i in _delta_p(ctx):
                y = g.mult_simple(x, i)
                if y not in levi:
                    levi.add(y)
                    nxt.append(y)
        frontier = nxt
    return levi


def _reference_parabolics():
    # every parabolic of rank <= 3, every maximal parabolic of rank 4
    out = []
    for t, r in [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3),
                 ("C", 2), ("C", 3), ("G", 2)]:
        for k in range(1, r + 1):
            out += [(t, r, s_p) for s_p in itertools.combinations(range(1, r + 1), k)]
    for t in "ABCDF":
        out += [(t, 4, (ip,)) for ip in range(1, 5)]
    return out


REFERENCE_PARABOLICS = _reference_parabolics()


@pytest.mark.parametrize("t,r,s_p", REFERENCE_PARABOLICS, ids=[
    f"{t}{r}-P{''.join(map(str, s_p))}" for t, r, s_p in REFERENCE_PARABOLICS])
def test_orbit_cosets_match_the_closures(t, r, s_p):
    ctx = minimal_reps(build_root_system(t, r), s_p)
    g = get_weyl_group(ctx.rs)
    assert ctx.wp == _reference_wp(ctx)
    for v in g.elements:
        assert ctx.min_rep(v) == _reference_min_rep(ctx, v)
    levi = _reference_levi(ctx)
    assert len(levi) == weyl_order(ctx.levi_pos)
    assert ctx.w_o_p == max(levi, key=lambda e: e.length)


def test_min_rep_strips_levi_descents():
    ctx = minimal_reps(build_root_system("G", 2), {2})
    g = get_weyl_group(ctx.rs)
    for v in g.elements:
        rep = ctx.min_rep(v)
        assert rep in ctx.wp_index
        # v and its representative differ by the Levi generator on the right
        diff = g.mult(g.inverse(rep), v)
        assert diff.word in ((), (1,))


def test_render_word():
    assert render_word(()) == "e"
    assert render_word((2, 1, 2)) == "s2 s1 s2"


def test_parabolic_validation():
    rs = build_root_system("B", 2)
    with pytest.raises(ValueError):
        minimal_reps(rs, set())
    with pytest.raises(ValueError):
        minimal_reps(rs, {3})


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_group_action_is_isometry(data):
    rs = build_root_system("B", 3)
    g = get_weyl_group(rs)
    w = data.draw(st.sampled_from(g.elements))
    a = data.draw(st.sampled_from(rs.positive_roots))
    moved = w.act(rs.weight_from_root_coords(a))
    c = rs.root_coords(moved)
    assert rs.form_on_root_coords(c, c) == rs.form_on_root_coords(a, a)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_length_is_inversion_count(data):
    rs = build_root_system("C", 3)
    g = get_weyl_group(rs)
    w = data.draw(st.sampled_from(g.elements))
    v = data.draw(st.sampled_from(g.elements))
    prod = g.mult(w, v)
    assert prod.length == g.length_by_inversions(prod)
    assert abs(w.length - v.length) <= prod.length <= w.length + v.length
