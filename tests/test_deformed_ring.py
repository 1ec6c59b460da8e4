import functools
import itertools
import json
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from multcone.deformed_ring import (_tau_zero_products, a_exponent,
                                    deformed_coeff_tuple, deformed_product,
                                    is_levi_movable, render_table)
from multcone.quantum_ring import build_structure_table
from multcone.root_system import build_root_system
from multcone.weyl import minimal_reps

from weyl_reference import get_weyl_group

FIXTURES = Path(__file__).parent / "fixtures"


def _ctx(t, r, ip):
    return minimal_reps(build_root_system(t, r), {ip})


@pytest.fixture(scope="module")
def b2p2():
    return build_structure_table(_ctx("B", 2, 2))


@pytest.fixture(scope="module")
def g2p1():
    return build_structure_table(_ctx("G", 2, 1))


@pytest.fixture(scope="module")
def g2p2():
    return build_structure_table(_ctx("G", 2, 2))


def _normalize(text):
    lines = [re.sub(r" +", " ", ln).rstrip() for ln in text.splitlines()]
    while lines and not lines[-1]:
        lines.pop()
    return "\n".join(lines)


def _by_codim(ctx):
    # codim of dual(w) equals length of w
    return {w.length: ctx.dual(w) for w in ctx.wp}


@pytest.mark.parametrize("fixture_name,name", [
    ("b2p2", "b2p2.txt"), ("g2p1", "g2p1.txt"), ("g2p2", "g2p2.txt")])
def test_golden_tables(fixture_name, name, request):
    table = request.getfixturevalue(fixture_name)
    want = _normalize((FIXTURES / name).read_text())
    got = _normalize(render_table(table, "text"))
    assert got == want


def test_b2p2_individual_entries(b2p2):
    ctx = b2p2.ctx
    cls = _by_codim(ctx)
    prod = deformed_product(b2p2, cls[1], cls[1])
    assert prod.terms == {(cls[2], (0,), (1,)): 1}
    # the middle square is purely quantum and carries no deformation
    prod = deformed_product(b2p2, cls[2], cls[2])
    assert prod.terms == {(cls[0], (1,), (0,)): 1}
    prod = deformed_product(b2p2, cls[1], cls[3])
    assert prod.terms == {(cls[0], (1,), (1,)): 1}


def test_every_pair_multiplies(b2p2, g2p1, g2p2):
    # deformed_product recomputes each exponent two ways and asserts they
    # agree, so a full sweep pins both routes on three spaces
    for table in (b2p2, g2p1, g2p2):
        ctx = table.ctx
        for u in ctx.wp:
            for v in ctx.wp:
                deformed_product(table, u, v)


def test_a_exponent_validation(b2p2):
    e = get_weyl_group(b2p2.ctx.rs).identity
    with pytest.raises(ValueError, match="degree must have"):
        a_exponent(b2p2.ctx, e, e, e, (0, 0))
    with pytest.raises(ValueError, match="nonnegative"):
        a_exponent(b2p2.ctx, e, e, e, (-1,))


DEGREE_TERM_SPACES = [
    (t, r, {ip}) for t, r in [("B", 2), ("G", 2), ("A", 3), ("B", 3), ("C", 3)]
    for ip in range(1, r + 1)
] + [(t, r, set(range(1, r + 1))) for t, r in [("A", 2), ("B", 2), ("G", 2)]]


@pytest.mark.parametrize("t,r,s_p", DEGREE_TERM_SPACES)
def test_degree_term_matches_both_formulas(t, r, s_p):
    # the degree part of a_exponent is read off the S-matrix; check it
    # per degree against the closed form 2 d_i g* / <alpha_i, alpha_i>
    # and against the sum of alpha(x_i) alpha(d~) over the roots outside
    # the Levi, d~ being the degree on the simple coroots
    rs = build_root_system(t, r)
    ctx = minimal_reps(rs, s_p)
    qs = sorted(s_p)
    e = get_weyl_group(ctx.rs).identity
    base = a_exponent(ctx, e, e, e, (0,) * len(qs))
    top = 2 * ctx.dim if len(qs) == 1 else 2
    for d in itertools.product(range(top + 1), repeat=len(qs)):
        term = [a - b for a, b in zip(a_exponent(ctx, e, e, e, d), base)]
        for pos, i in enumerate(qs):
            unit = tuple(int(k == i - 1) for k in range(r))
            closed = Fraction(2 * d[pos] * rs.dual_coxeter) / \
                rs.form_on_root_coords(unit, unit)
            by_roots = sum(Fraction(root[i - 1]) * sum(
                a * rs.root_pairing(root, j) for a, j in zip(d, qs))
                for root in ctx.outside_pos)
            assert term[pos] == closed == by_roots, (i, d)


EXPONENT_SPACES = DEGREE_TERM_SPACES + [("A", 4, {ip}) for ip in range(1, 5)]


@functools.lru_cache(maxsize=None)
def _table(t, r, s_p):
    return build_structure_table(minimal_reps(build_root_system(t, r), s_p))


@pytest.mark.parametrize("t,r,s_p", EXPONENT_SPACES)
def test_a_exponent_matches_fraction_reference(t, r, s_p):
    # the reference evaluates the weight chi_e - chi_u - chi_v - chi_w at
    # each coweight x_i through the inverse Cartan matrix, in Fractions
    table = _table(t, r, frozenset(s_p))
    ctx, rs = table.ctx, table.ctx.rs
    for (u, v), poly in table.tau.items():
        su, sv = ctx.dual(u), ctx.dual(v)
        for y, d in poly:
            deficit = ctx.chi_e() - ctx.chi(su) - ctx.chi(sv) - ctx.chi(y)
            want = tuple(
                rs.weight_value(deficit, rs.x_point(i))
                + ctx.s_matrix[pos][pos] * d[pos]
                for pos, i in enumerate(sorted(ctx.s_p)))
            got = a_exponent(ctx, su, sv, y, d)
            assert got == want, (str(u), str(v), str(y), d)
            assert all(type(a) is int for a in got)


@pytest.mark.parametrize("t,r,s_p", EXPONENT_SPACES)
def test_tau_zero_products_match_deformed_product(t, r, s_p):
    # the inequality generator's specialized products against the
    # exponent-free part of the sigma product of the duals
    table = _table(t, r, frozenset(s_p))
    ctx = table.ctx
    products = _tau_zero_products(table)
    for u in ctx.wp:
        for v in ctx.wp:
            kept = deformed_product(table, ctx.dual(u), ctx.dual(v)).at_tau_zero()
            want = {(ctx.dual(x), d): c for (x, d), c in kept.items()}
            assert products[(u, v)] == want, (str(u), str(v))


COMINUSCULE = [("A", 2, 1), ("A", 3, 2), ("B", 2, 1)]


@pytest.mark.parametrize("t,r,ip", COMINUSCULE)
def test_cominuscule_collapse(t, r, ip):
    table = build_structure_table(_ctx(t, r, ip))
    ctx = table.ctx
    for u in ctx.wp:
        for v in ctx.wp:
            for (_x, _d, e), c in deformed_product(table, u, v).terms.items():
                assert c > 0
                assert e == (0,)


@pytest.mark.parametrize("fixture_name", ["b2p2", "g2p1", "g2p2"])
def test_specializations(fixture_name, request):
    table = request.getfixturevalue(fixture_name)
    ctx = table.ctx
    for u in ctx.wp:
        for v in ctx.wp:
            prod = deformed_product(table, u, v)
            assert prod.at_tau_one() == table.sigma_product(u, v)
            kept = prod.at_tau_zero()
            assert set(kept) <= set(prod.at_tau_one())
            for key, c in kept.items():
                assert c == prod.at_tau_one()[key]


def test_triple_coefficient_g2p2(g2p2):
    cls = _by_codim(g2p2.ctx)
    assert deformed_coeff_tuple(g2p2, (cls[1], cls[1], cls[3]), (0,)) == 3
    assert is_levi_movable(g2p2, (cls[1], cls[1], cls[3]), (0,))


def test_triple_killed_by_deformation(b2p2):
    # the divisor cube pairs to the point class only through a deformed
    # entry, so its specialized coefficient vanishes while the plain
    # invariant does not
    cls = _by_codim(b2p2.ctx)
    triple = (cls[1], cls[1], cls[1])
    assert b2p2.gw(cls[1], cls[1], cls[1], (0,)) == 1
    assert deformed_coeff_tuple(b2p2, triple, (0,)) == 0
    assert not is_levi_movable(b2p2, triple, (0,))


def test_four_factor_chain():
    table = build_structure_table(_ctx("A", 1, 1))
    e, s1 = sorted(table.ctx.wp, key=lambda w: w.length)
    # point, point, point, unit on the projective line, one line through
    assert deformed_coeff_tuple(table, (e, e, e, s1), (1,)) == 1
    assert is_levi_movable(table, (e, e, e, s1), (1,))


def test_four_factor_blocked(b2p2):
    cls = _by_codim(b2p2.ctx)
    quad = (cls[1], cls[1], cls[2], cls[3])
    assert deformed_coeff_tuple(b2p2, quad, (1,)) == 0
    assert not is_levi_movable(b2p2, quad, (1,))


def test_coeff_tuple_validation(b2p2):
    e = get_weyl_group(b2p2.ctx.rs).identity
    with pytest.raises(ValueError, match="at least three"):
        deformed_coeff_tuple(b2p2, (e, e), (0,))
    with pytest.raises(ValueError, match="degree must have"):
        deformed_coeff_tuple(b2p2, (e, e, e), (0, 0))
    levi = get_weyl_group(b2p2.ctx.rs).simple(1)
    with pytest.raises(ValueError, match="minimal representative"):
        deformed_coeff_tuple(b2p2, (e, e, levi), (0,))


def test_render_table_needs_single_parameter():
    rs = build_root_system("A", 2)
    full = build_structure_table(minimal_reps(rs, {1, 2}))
    with pytest.raises(ValueError):
        render_table(full, "text")
    with pytest.raises(ValueError):
        render_table(build_structure_table(_ctx("A", 1, 1)), "html")


def test_render_json_shape(b2p2):
    obj = json.loads(render_table(b2p2, "json"))
    assert obj["space"] == {"type": "B", "rank": 2, "parabolic": 2,
                            "dimension": 3, "q_degree": 4}
    assert [c["codim"] for c in obj["classes"]] == [0, 1, 2, 3]
    by_pair = {(p["left"], p["right"]): p["terms"] for p in obj["products"]}
    assert by_pair[("s1", "s1")] == [
        {"coeff": 1, "t": 1, "q": 0, "class": "s2"}]
    assert by_pair[("s3", "s3")] == [
        {"coeff": 1, "t": 1, "q": 1, "class": "s2"}]


@pytest.mark.parametrize("fixture_name", ["b2p2", "g2p1", "g2p2"])
def test_multigrading(fixture_name, request):
    table = request.getfixturevalue(fixture_name)
    ctx = table.ctx
    qd = table.q_degrees[0]
    for u in ctx.wp:
        for v in ctx.wp:
            for (x, d, e), c in deformed_product(table, u, v).terms.items():
                assert ctx.codim(x) == ctx.codim(u) + ctx.codim(v) - qd * d[0]
                assert isinstance(e[0], int) and e[0] >= 0
                assert isinstance(c, int) and c > 0


def test_unit_row_carries_no_deformation(g2p1):
    ctx = g2p1.ctx
    unit = ctx.dual(get_weyl_group(ctx.rs).identity)
    for u in ctx.wp:
        prod = deformed_product(g2p1, unit, u)
        assert prod.terms == {(u, (0,), (0,)): 1}


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_tuple_coeff_permutation_symmetry(g2p2, data):
    ctx = g2p2.ctx
    classes = tuple(data.draw(st.sampled_from(ctx.wp)) for _ in range(3))
    d = (data.draw(st.integers(min_value=0, max_value=2)),)
    base = deformed_coeff_tuple(g2p2, classes, d)
    flipped = (classes[1], classes[2], classes[0])
    assert deformed_coeff_tuple(g2p2, flipped, d) == base
