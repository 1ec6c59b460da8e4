"""Weyl groups, parabolic quotients and the boundary characters chi_w.

Elements are stored by their exact integer action matrix on the
fundamental-weight basis and their lexicographically minimal reduced word.
W^P is walked as the orbit of lambda_P, each point w(lambda_P) naming the
minimal representative w of its coset, and W as the orbit of rho; a group
above DEFAULT_GROUP_BOUND is refused before any element is built.  Words
render as "s1 s2 s1", the identity as "e".
"""

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .root_system import RootSystem, Weight, CartanPoint, check_simple_type

__all__ = [
    "WeylElement", "ParabolicContext", "enumerate_weyl", "minimal_reps",
    "chi", "s_matrix", "render_word", "weyl_order", "simple_weyl_order",
    "check_group_order",
]

DEFAULT_GROUP_BOUND = 10 ** 6


def render_word(word):
    return "e" if not word else " ".join(f"s{i}" for i in word)


def weyl_order(positive_roots):
    """Order of the Weyl group of a (possibly reducible) root system, given
    its positive roots in simple-root coordinates: Kostant's product
    prod (m + 1) over the exponents m, where exactly n_k - n_{k+1} exponents
    equal k for n_k the number of positive roots of height k."""
    n = Counter(sum(r) for r in positive_roots)
    return math.prod((k + 1) ** (n[k] - n[k + 1]) for k in n)


@dataclass(frozen=True)
class WeylElement:
    """A Weyl group element: integer matrix on the fundamental-weight basis
    plus its lexicographically minimal reduced word (1-indexed generators)."""
    matrix: tuple
    word: tuple

    # elements key every table of the quantum layer, so the matrix is
    # hashed once per object, not on every lookup
    _hash = None

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.matrix, self.word))
            object.__setattr__(self, "_hash", h)
        return h

    def __reduce__(self):
        return (WeylElement, (self.matrix, self.word))

    @property
    def length(self):
        return len(self.word)

    def act(self, w: Weight) -> Weight:
        return Weight(_apply(self.matrix, w.coords))

    def act_fund(self, coords):
        """Action on an integer vector of fundamental coordinates."""
        return _apply(self.matrix, coords)

    def __repr__(self):
        return f"W[{render_word(self.word)}]"

    def __str__(self):
        return render_word(self.word)


def _matmul(a, b):
    n = len(a)
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(n) if a[i][k])
                       for j in range(n)) for i in range(n))


def _apply(m, coords):
    return tuple(sum(row[j] * coords[j] for j in range(len(row)) if row[j])
                 for row in m)


def _reflect(cartan, k, p):
    """s_{k+1} on fundamental coordinates: p minus p_k times alpha_{k+1}."""
    c = p[k]
    return tuple(x - row[k] * c for x, row in zip(p, cartan)) if c else p


def _left_simple(cartan, k, m):
    """The action matrix of s_{k+1} w from that of w: a row operation."""
    mk = m[k]
    return tuple(tuple(a - row[k] * b for a, b in zip(mr, mk)) if row[k] else mr
                 for mr, row in zip(m, cartan))


def _orbit(rs: RootSystem, lam):
    """The orbit of a dominant integral weight lam as a dict from each
    point q to the minimal representative w with w(lam) = q, named by
    _element_at, in (length, lex word) order.  A point p reaches s_i p one
    length up iff p_i > 0."""
    orbit, level = {}, {lam}
    while level:
        new = {q: _element_at(rs, q) for q in level}
        orbit.update(sorted(new.items(), key=lambda item: item[1].word))
        level = {_reflect(rs.cartan, i, p) for p in new
                 for i, c in enumerate(p) if c > 0}
    return orbit


def _element_at(rs: RootSystem, x):
    """The minimal representative w with w(lam) = x, for x in the orbit of
    a dominant weight lam.  The left descents of w are the indices where x
    is negative, so walking x down to lam along its least negative index
    spells w's lexicographically minimal reduced word.  With lam = rho
    every element is its own representative."""
    word = []
    while any(c < 0 for c in x):
        i = next(k for k, c in enumerate(x) if c < 0)
        word.append(i + 1)
        x = _reflect(rs.cartan, i, x)
    m = tuple(tuple(int(i == j) for j in range(rs.rank)) for i in range(rs.rank))
    for i in reversed(word):
        m = _left_simple(rs.cartan, i - 1, m)
    return WeylElement(m, tuple(word))


def simple_weyl_order(type_label, rank):
    """Order of the Weyl group of a simple type by its closed form, with no
    root system built (Bourbaki, Lie Groups, ch. VI, Plates I-IX)."""
    n, f = rank, math.factorial(rank)
    return {"A": (n + 1) * f, "B": 2 ** n * f, "C": 2 ** n * f,
            "D": 2 ** (n - 1) * f, "F": 1152, "G": 12,
            "E": {6: 51840, 7: 2903040, 8: 696729600}.get(n)}[type_label]


def check_group_order(type_label, rank):
    """The order of the Weyl group of a simple type, read off its closed
    form with nothing built.  Raises ValueError for an invalid type and
    RuntimeError above DEFAULT_GROUP_BOUND; above rank 1000, where every
    family has more than 10^rank elements, the order is not worked out."""
    check_simple_type(type_label, rank)
    order = simple_weyl_order(type_label, rank) if rank <= 1000 else None
    if order is None or order > DEFAULT_GROUP_BOUND:
        raise RuntimeError(
            f"the Weyl group of {type_label}{rank} has "
            f"{order or f'more than 10^{rank}'} elements, "
            f"above the bound {DEFAULT_GROUP_BOUND}")
    return order


def enumerate_weyl(rs: RootSystem):
    """All Weyl group elements, sorted by (length, lex word): the orbit of
    rho, whose stabilizer is trivial."""
    check_group_order(rs.type_label, rs.rank)
    return list(_orbit(rs, (1,) * rs.rank).values())


class ParabolicContext:
    """A standard parabolic P given by the simple roots S_P it drops from the Levi.

    Carries the minimal coset representatives of W/W_P sorted by
    (length, lex word), one per point of the orbit W lambda_P, the
    dimension of the flag variety, the Levi half-sum rho_L, the longest
    elements of W and W_P, the boundary character chi_w of each
    representative (stored once, as its integer simple-root vector), the
    degrees of the quantum parameters and the S-matrix (see s_matrix).
    """

    def __init__(self, rs: RootSystem, s_p):
        s_p = frozenset(int(i) for i in s_p)
        if not s_p:
            raise ValueError("S_P must be a nonempty set of simple-root indices "
                             "(the full group gives a point, not a flag variety)")
        if not all(1 <= i <= rs.rank for i in s_p):
            raise ValueError(f"S_P indices out of range 1..{rs.rank}: {sorted(s_p)}")
        self.rs = rs
        self.s_p = s_p
        order = check_group_order(rs.type_label, rs.rank)

        # Levi positive roots: support inside Delta_P
        self.levi_pos = tuple(r for r in rs.positive_roots
                              if all(r[i - 1] == 0 for i in s_p))
        levi_set = set(self.levi_pos)
        self.outside_pos = tuple(r for r in rs.positive_roots if r not in levi_set)
        self.dim = len(self.outside_pos)

        # 2 rho_L on the simple coroots, the sum of the Levi's positive roots
        self._two_rho_l = tuple(sum(rs.root_fund[r][i] for r in self.levi_pos)
                                for i in range(rs.rank))
        self.rho_l = Weight(tuple(Fraction(c, 2) for c in self._two_rho_l))

        # W_P fixes exactly lambda_P = sum of omega_i over S_P, so w W_P is
        # the point w(lambda_P): W^P is the orbit of lambda_P
        self._lambda_p = tuple(int(i in s_p) for i in range(1, rs.rank + 1))
        self._coset = _orbit(rs, self._lambda_p)
        self.wp = list(self._coset.values())
        assert len(self.wp) == order // weyl_order(self.levi_pos), \
            "coset representative count mismatch"
        self.wp_index = {w: k for k, w in enumerate(self.wp)}

        # w_o = w^P w_o^P with w^P the longest minimal representative;
        # both are read off their points in the regular orbit of rho
        self.w_o = _element_at(rs, (-1,) * rs.rank)
        self.w_o_p = _element_at(rs, self.inverse_act(self.wp[-1], (-1,) * rs.rank))
        assert self.w_o_p.length == len(self.levi_pos), "w_o^P is not the Levi's longest"

        self._dual = {}
        for w in self.wp:
            m = _matmul(_matmul(self.w_o.matrix, w.matrix), self.w_o_p.matrix)
            out = self.coset(m)
            assert out.matrix == m, "duality left the representative set"
            self._dual[w] = out

        self._chi = {w: self._chi_both_ways(w) for w in self.wp}

        self.q_degrees = {}
        chi_e = self._chi[self.wp[0]]
        for i in sorted(s_p):
            deg = 2 - self._two_rho_l[i - 1]
            assert deg == rs.root_pairing(chi_e, i) > 0, (i, deg)
            self.q_degrees[i] = deg
        self._q_degree_row = tuple(self.q_degrees[i] for i in sorted(s_p))

        self.s_matrix = self._s_matrix()

    def _s_matrix(self):
        rs = self.rs
        theta, theta_cov = rs.highest_root, rs.coroot(rs.highest_root)
        idx = sorted(self.s_p)
        out = []
        for i in idx:
            row = []
            for j in idx:
                val = sum(r[i - 1] * rs.root_pairing(r, j)
                          for r in self.outside_pos)
                # 2 g* / <alpha_i, alpha_i> = g* theta_i / theta^vee_i
                assert (val * theta_cov[i - 1] == rs.dual_coxeter * theta[i - 1]
                        if i == j else val == 0), (i, j, val)
                row.append(val)
            out.append(tuple(row))
        return tuple(out)

    def _chi_both_ways(self, w):
        """chi_w in simple-root coordinates: the sum of the roots outside
        the Levi that w keeps positive, checked on the simple coroots against
        rho - 2 rho_L + w^-1 rho."""
        rs = self.rs
        acc = [0] * rs.rank
        for r in self.outside_pos:
            if w.act_fund(rs.root_fund[r]) in rs.fund_root:
                for j, c in enumerate(r):
                    acc[j] += c
        via_rho = [1 - a + b for a, b in zip(self._two_rho_l,
                                             self.inverse_act(w, (1,) * rs.rank))]
        assert [rs.root_pairing(acc, i) for i in range(1, rs.rank + 1)] == via_rho, \
            f"chi formulas disagree at {w}"
        return tuple(acc)

    # --- queries -----------------------------------------------------------

    def codim(self, w):
        return self.dim - w.length

    def chi(self, w) -> Weight:
        return self.rs.weight_from_root_coords(self.chi_root_coords(w))

    def chi_root_coords(self, w):
        """chi_w as its integer vector of simple-root coordinates."""
        try:
            return self._chi[w]
        except KeyError:
            raise ValueError(
                f"{w} is not a minimal coset representative here") from None

    def chi_e(self) -> Weight:
        return self.chi(self.wp[0])

    def dual(self, w) -> WeylElement:
        """The involution w -> w_o w w_o^P of the representative set; swaps
        length and codimension."""
        try:
            return self._dual[w]
        except KeyError:
            raise ValueError(
                f"{w} is not a minimal coset representative here") from None

    def min_rep(self, v) -> WeylElement:
        """Minimal representative of the coset v W_P, read off v(lambda_P)."""
        return self._coset[v.act_fund(self._lambda_p)]

    def coset(self, m) -> WeylElement:
        """min_rep of the element with action matrix m, which lies in W^P
        iff the representative's matrix is m."""
        return self._coset[_apply(m, self._lambda_p)]

    def inverse_act(self, w, coords):
        """w^{-1} on fundamental coordinates: reflect along w's word."""
        for i in w.word:
            coords = _reflect(self.rs.cartan, i - 1, coords)
        return coords

    def q_codim(self, d):
        """The codimension sum_i d_i deg(q_i) of q^d, d indexed by sorted S_P."""
        return sum(a * b for a, b in zip(d, self._q_degree_row))

    def by_length(self, ell):
        return [w for w in self.wp if w.length == ell]

    def point_action(self, w, pt: CartanPoint) -> CartanPoint:
        """w acting on the Cartan subalgebra: alpha_j(w.mu) = (w^{-1} alpha_j)(mu)."""
        rs = self.rs
        out = []
        for j in range(rs.rank):
            alpha = rs.simple_root(j + 1)
            moved = Weight(self.inverse_act(w, alpha.coords))
            out.append(rs.weight_value(moved, pt))
        return CartanPoint(tuple(out))


_CONTEXTS = {}


def minimal_reps(rs: RootSystem, s_p) -> ParabolicContext:
    key = (rs.type_label, rs.rank, frozenset(int(i) for i in s_p))
    if key not in _CONTEXTS:
        _CONTEXTS[key] = ParabolicContext(rs, s_p)
    return _CONTEXTS[key]


def chi(ctx: ParabolicContext, w: WeylElement) -> Weight:
    return ctx.chi(w)


def s_matrix(ctx: ParabolicContext):
    """The integer matrix sum_{alpha outside the Levi} alpha(x_i) alpha(alpha_j^vee)
    over i, j in S_P, computed once per context.  Diagonal entries equal
    2 g* / <alpha_i, alpha_i> and the others vanish; both are asserted when
    the context is built.  Applied to a curve degree d it gives the degree
    term of every deformation exponent, so that term is checked once per
    context rather than once per degree."""
    return ctx.s_matrix
