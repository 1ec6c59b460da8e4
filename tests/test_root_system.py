import pickle
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from multcone.root_system import (CartanPoint, Weight, build_root_system,
                                  kappa, kappa_inv, killing_form)
from multcone import weyl
from multcone.weyl import (enumerate_weyl, minimal_reps, simple_weyl_order,
                           weyl_order)

from exact_reference import invert_reference
from weyl_reference import WeylGroup, get_weyl_group

F = Fraction

# at rank 8 and in type E by the closed forms |Phi+| = n(n+1)/2, n^2, n^2,
# n(n-1), 36, 63, 120 and g* = n+1, 2n-1, n+1, 2n-2, 12, 18, 30
POS_ROOT_COUNTS = {
    ("A", 1): 1, ("A", 2): 3, ("A", 3): 6, ("A", 8): 36,
    ("B", 2): 4, ("B", 3): 9, ("B", 8): 64,
    ("C", 2): 4, ("C", 3): 9, ("C", 8): 64,
    ("D", 4): 12, ("D", 8): 56,
    ("E", 6): 36, ("E", 7): 63, ("E", 8): 120,
    ("F", 4): 24,
    ("G", 2): 6,
}

DUAL_COXETER = {
    ("A", 1): 2, ("A", 2): 3, ("A", 3): 4, ("A", 8): 9,
    ("B", 2): 3, ("B", 3): 5, ("B", 8): 15,
    ("C", 2): 3, ("C", 3): 4, ("C", 8): 9,
    ("D", 4): 6, ("D", 8): 14,
    ("E", 6): 12, ("E", 7): 18, ("E", 8): 30,
    ("F", 4): 9,
    ("G", 2): 4,
}

# the types whose Weyl groups the tests enumerate, and whose root pairs
# they walk, in full
SMALL_TYPES = [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 2),
               ("C", 3), ("D", 4), ("F", 4), ("G", 2)]


@pytest.mark.parametrize("t,r", sorted(POS_ROOT_COUNTS))
def test_positive_root_counts(t, r):
    rs = build_root_system(t, r)
    assert len(rs.positive_roots) == POS_ROOT_COUNTS[(t, r)]


@pytest.mark.parametrize("t,r", sorted(DUAL_COXETER))
def test_dual_coxeter_numbers(t, r):
    assert build_root_system(t, r).dual_coxeter == DUAL_COXETER[(t, r)]


def test_cartan_matrix_conventions():
    # row i holds the values of the simple roots on the i-th coroot
    b2 = build_root_system("B", 2)
    assert b2.cartan == ((2, -1), (-2, 2))
    g2 = build_root_system("G", 2)
    assert g2.cartan == ((2, -3), (-1, 2))
    c2 = build_root_system("C", 2)
    assert c2.cartan == ((2, -2), (-1, 2))


def test_highest_roots():
    assert build_root_system("B", 2).highest_root == (1, 2)
    assert build_root_system("G", 2).highest_root == (3, 2)
    assert build_root_system("C", 2).highest_root == (2, 1)
    assert build_root_system("A", 3).highest_root == (1, 1, 1)


@pytest.mark.parametrize("t,r", sorted(POS_ROOT_COUNTS))
def test_form_normalization(t, r):
    # the invariant form is scaled so long roots have square length 2
    rs = build_root_system(t, r)
    assert rs.form_on_root_coords(rs.highest_root, rs.highest_root) == 2
    norms = set(rs.form_norm)
    assert max(norms) == 2
    assert norms <= {F(2, 3), 1, 2}


@pytest.mark.parametrize("t,r", [("A", 8), ("B", 8), ("C", 8), ("D", 8), ("E", 6),
                                 ("E", 7), ("E", 8), ("F", 4), ("G", 2)])
def test_coroots_match_the_form(t, r):
    # the closure's coroots against the form: beta(beta^vee) = 2 and
    # beta^vee_j = beta_j * 2 d_j / <beta, beta>, the formula the closure
    # replaced
    rs = build_root_system(t, r)
    for beta in rs.positive_roots:
        cov = rs.coroot(beta)
        assert sum(c * rs.root_pairing(beta, j)
                   for j, c in enumerate(cov, 1)) == 2
        norm = rs.form_on_root_coords(beta, beta)
        assert cov == tuple(b * 2 * d / norm for b, d in zip(beta, rs._d))


def test_coroot_of_a_non_root_is_refused():
    b2 = build_root_system("B", 2)
    assert b2.coroot((1, 1)) == (2, 1)
    assert b2.coroot([-1, -1]) == (-2, -1)
    for v in ((0, 0), (1, 3), (-1, 1), (2, 2)):
        with pytest.raises(ValueError, match=re.escape(f"{v} is not a root")):
            b2.coroot(v)


def test_simple_root_lengths_g2():
    g2 = build_root_system("G", 2)
    a1 = tuple(int(i == 0) for i in range(2))
    a2 = tuple(int(i == 1) for i in range(2))
    assert g2.form_on_root_coords(a1, a1) == F(2, 3)
    assert g2.form_on_root_coords(a2, a2) == 2


def test_invalid_types_rejected():
    with pytest.raises(ValueError):
        build_root_system("E", 5)
    with pytest.raises(ValueError):
        build_root_system("F", 3)
    with pytest.raises(ValueError):
        build_root_system("G", 3)
    with pytest.raises(ValueError):
        build_root_system("A", 0)


@pytest.mark.parametrize("t,r", sorted(POS_ROOT_COUNTS))
def test_coweights_dual_to_simple_roots(t, r):
    rs = build_root_system(t, r)
    for j in range(1, r + 1):
        x = rs.x_point(j)
        for i in range(1, r + 1):
            assert x.coords[i - 1] == (1 if i == j else 0)


@pytest.mark.parametrize("t,r", sorted(POS_ROOT_COUNTS))
def test_rho_pairs_to_one_with_simple_coroots(t, r):
    rs = build_root_system(t, r)
    for i in range(r):
        cov = tuple(int(k == i) for k in range(r))
        assert rs.pair_weight_coroot(rs.rho, cov) == 1


@pytest.mark.parametrize("t,r", sorted(POS_ROOT_COUNTS))
def test_kappa_roundtrip_and_fundamental_images(t, r):
    rs = build_root_system(t, r)
    for i in range(1, r + 1):
        w = rs.fundamental_weight(i)
        pt = kappa(rs, w)
        assert kappa_inv(rs, pt) == w
        # kappa sends omega_i to half its root length times the coweight x_i
        ai = tuple(int(k == i - 1) for k in range(r))
        half = rs.form_on_root_coords(ai, ai) / 2
        assert pt.coords == tuple(half * c for c in rs.x_point(i).coords)


@pytest.mark.parametrize("t,r", SMALL_TYPES)
def test_killing_form_matches_root_form(t, r):
    rs = build_root_system(t, r)
    for a in rs.positive_roots:
        for b in rs.positive_roots:
            wa = rs.weight_from_root_coords(a)
            wb = rs.weight_from_root_coords(b)
            assert killing_form(rs, wa, wb) == rs.form_on_root_coords(a, b)


def test_alcove_membership():
    b2 = build_root_system("B", 2)
    assert b2.in_alcove(CartanPoint((F(1, 4), F(1, 4))))
    # theta = alpha_1 + 2 alpha_2, so theta(mu) = m_1 + 2 m_2
    assert b2.theta_value(CartanPoint((F(1, 4), F(1, 4)))) == F(3, 4)
    assert not b2.in_alcove(CartanPoint((F(1, 2), F(1, 2))))
    assert not b2.in_alcove(CartanPoint((F(-1, 8), F(1, 4))))
    assert b2.in_alcove(CartanPoint((1, 0)))


def test_weight_value_is_linear_in_alcove_coords():
    a2 = build_root_system("A", 2)
    w = Weight((F(2), F(-1)))
    p = CartanPoint((F(1, 3), F(1, 6)))
    q = CartanPoint((F(1, 12), F(1, 4)))
    assert a2.weight_value(w, p + q) == a2.weight_value(w, p) + a2.weight_value(w, q)
    assert a2.weight_value(w, 3 * p) == 3 * a2.weight_value(w, p)


@st.composite
def _weights(draw, rank):
    coords = draw(st.tuples(*[st.integers(-6, 6) for _ in range(rank)]))
    return Weight(tuple(F(c) for c in coords))


@settings(max_examples=60, deadline=None)
@given(w1=_weights(3), w2=_weights(3))
def test_killing_form_bilinear_symmetric(w1, w2):
    rs = build_root_system("B", 3)
    assert killing_form(rs, w1, w2) == killing_form(rs, w2, w1)
    assert killing_form(rs, w1 + w2, w1 + w2) == (
        killing_form(rs, w1, w1) + 2 * killing_form(rs, w1, w2)
        + killing_form(rs, w2, w2))


@settings(max_examples=60, deadline=None)
@given(w=_weights(3))
def test_kappa_inverse_pair(w):
    rs = build_root_system("C", 3)
    assert kappa_inv(rs, kappa(rs, w)) == w


@pytest.mark.parametrize("t,r", sorted(POS_ROOT_COUNTS))
def test_root_coords_roundtrip(t, r):
    rs = build_root_system(t, r)
    for a in rs.positive_roots:
        w = rs.weight_from_root_coords(a)
        assert rs.root_coords(w) == tuple(F(c) for c in a)


@pytest.mark.parametrize("t,r", sorted(POS_ROOT_COUNTS))
def test_inverse_cartan(t, r):
    rs = build_root_system(t, r)
    ident = tuple(tuple(F(int(i == j)) for j in range(r)) for i in range(r))
    prod = tuple(tuple(sum(rs.cartan[i][k] * rs.inverse_cartan[k][j]
                           for k in range(r)) for j in range(r))
                 for i in range(r))
    assert prod == ident
    assert rs.inverse_cartan == invert_reference(rs.cartan)


@pytest.mark.parametrize("t,r", SMALL_TYPES)
def test_weyl_elements_hash_by_value(t, r):
    # two groups built independently, bypassing get_weyl_group's cache
    rs = build_root_system(t, r)
    first, second = WeylGroup(rs), WeylGroup(rs)
    index = {e: k for k, e in enumerate(first.elements)}
    for k, e in enumerate(second.elements):
        assert e is not first.elements[k]
        assert e == first.elements[k] and hash(e) == hash(first.elements[k])
        assert index[e] == k


@pytest.mark.parametrize("t,r", sorted(POS_ROOT_COUNTS))
def test_weight_pickle_keeps_hash_and_equality(t, r):
    rs = build_root_system(t, r)
    weights = [rs.rho, rs.weight_from_root_coords(rs.highest_root),
               F(1, 3) * rs.fundamental_weight(r)]
    for w in weights:
        table = {w: True}   # fills the cached hash before pickling
        back = pickle.loads(pickle.dumps(w))
        fresh = Weight(tuple(w.coords))
        assert back == w and hash(back) == hash(w) == hash(fresh)
        assert table[back] and table[fresh]


@pytest.mark.parametrize("t,r", SMALL_TYPES)
def test_duality_swaps_length_and_codimension(t, r):
    rs = build_root_system(t, r)
    for ip in range(1, r + 1):
        ctx = minimal_reps(rs, {ip})
        for w in ctx.wp:
            v = ctx.dual(w)
            assert v in ctx.wp_index and ctx.dual(v) == w
            assert v.length == ctx.codim(w) and ctx.codim(v) == w.length
        # a representative set short of the whole group leaves an element out
        outside = [e for e in get_weyl_group(ctx.rs).elements if e not in ctx.wp_index]
        for e in outside[:1]:
            with pytest.raises(ValueError, match="not a minimal coset"):
                ctx.dual(e)


@pytest.mark.parametrize("t,r", SMALL_TYPES)
def test_weyl_order_matches_enumeration(t, r):
    rs = build_root_system(t, r)
    assert weyl_order(rs.positive_roots) == len(enumerate_weyl(rs))


@pytest.mark.parametrize("t,r", SMALL_TYPES)
def test_orbit_of_rho_matches_the_closure(t, r):
    # the same matrices and words in the same (length, lex word) order
    rs = build_root_system(t, r)
    assert [(e.matrix, e.word) for e in enumerate_weyl(rs)] == \
        [(e.matrix, e.word) for e in get_weyl_group(rs).elements]


@pytest.mark.parametrize("t,r", sorted(POS_ROOT_COUNTS))
def test_closed_form_order_matches_kostant(t, r):
    assert simple_weyl_order(t, r) == \
        weyl_order(build_root_system(t, r).positive_roots)


def test_weyl_order_of_type_e_without_enumerating(monkeypatch):
    def no_products(a, b):
        raise AssertionError("a Weyl matrix product was computed")
    monkeypatch.setattr(weyl, "_matmul", no_products)
    orders = {6: 51840, 7: 2903040, 8: 696729600}
    for r, order in orders.items():
        assert weyl_order(build_root_system("E", r).positive_roots) == order
    for r in (7, 8):
        with pytest.raises(RuntimeError, match=f"E{r} has {orders[r]} elements"):
            minimal_reps(build_root_system("E", r), {r})
