"""Weyl groups, parabolic quotients and the boundary characters chi_w.

Elements are stored by their exact integer action matrix on the
fundamental-weight basis; reduced words are the lexicographically minimal
ones, found by breadth-first closure.  Group orders come from Kostant's
formula, so a group above DEFAULT_GROUP_BOUND is refused before any
element is built, and a coset w W_P is read off the weight w(lambda_P).
Words render as "s1 s2 s1", the identity as "e".
"""

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .exact import as_int
from .root_system import RootSystem, Weight, CartanPoint

__all__ = [
    "WeylElement", "WeylGroup", "ParabolicContext",
    "enumerate_weyl", "get_weyl_group", "minimal_reps", "chi", "s_matrix",
    "render_word", "weyl_order",
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
        return Weight(tuple(
            sum(row[j] * w.coords[j] for j in range(len(row)) if row[j])
            for row in self.matrix))

    def act_fund(self, coords):
        """Action on an integer vector of fundamental coordinates."""
        return tuple(sum(row[j] * coords[j] for j in range(len(row)) if row[j])
                     for row in self.matrix)

    def __repr__(self):
        return f"W[{render_word(self.word)}]"

    def __str__(self):
        return render_word(self.word)


def _simple_matrices(rs: RootSystem):
    n = rs.rank
    mats = []
    for k in range(n):
        # s_k: f |-> f - f_k * (fundamental coordinates of alpha_k)
        mats.append(tuple(tuple((1 if i == j else 0) - (rs.cartan[i][k] if j == k else 0)
                                for j in range(n)) for i in range(n)))
    return tuple(mats)


def _matmul(a, b):
    n = len(a)
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(n) if a[i][k])
                       for j in range(n)) for i in range(n))


class WeylGroup:
    """The full Weyl group of a root system, enumerated once and indexed by matrix."""

    def __init__(self, rs: RootSystem):
        order = weyl_order(rs.positive_roots)
        if order > DEFAULT_GROUP_BOUND:
            raise RuntimeError(
                f"the Weyl group of {rs.type_label}{rs.rank} has {order} "
                f"elements, above the bound {DEFAULT_GROUP_BOUND}")
        self.rs = rs
        n = rs.rank
        self.simple_matrices = _simple_matrices(rs)
        self.identity_matrix = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))

        # fundamental coordinates of every root, for sign lookups
        self.roots_fund = {}
        for r, f in rs.root_fund.items():
            self.roots_fund[f] = (1, r)
            self.roots_fund[tuple(-x for x in f)] = (-1, r)

        # breadth-first closure; words are appended on the right in ascending
        # generator order, so the first word reaching an element is its
        # lexicographically minimal reduced word
        seen = {self.identity_matrix: ()}
        level = [(self.identity_matrix, ())]
        ordered = [(self.identity_matrix, ())]
        while level:
            nxt = []
            for mat, word in level:
                for k in range(n):
                    m2 = _matmul(mat, self.simple_matrices[k])
                    if m2 not in seen:
                        w2 = word + (k + 1,)
                        seen[m2] = w2
                        nxt.append((m2, w2))
            level = nxt
            ordered.extend(nxt)
        assert len(ordered) == order, (rs, len(ordered), order)

        self.elements = [WeylElement(m, w) for m, w in ordered]
        self.by_matrix = {e.matrix: e for e in self.elements}
        self.identity = self.elements[0]
        self.longest = self.elements[-1]
        assert all(e.length < self.longest.length for e in self.elements[:-1]), \
            "longest element must be unique"

    def simple(self, i):
        """The generator s_i, 1-indexed."""
        return self.by_matrix[self.simple_matrices[i - 1]]

    def mult(self, a: WeylElement, b: WeylElement) -> WeylElement:
        return self.by_matrix[_matmul(a.matrix, b.matrix)]

    def mult_simple(self, a: WeylElement, i) -> WeylElement:
        return self.by_matrix[_matmul(a.matrix, self.simple_matrices[i - 1])]

    def inverse(self, a: WeylElement) -> WeylElement:
        m = self.identity_matrix
        for i in reversed(a.word):
            m = _matmul(m, self.simple_matrices[i - 1])
        return self.by_matrix[m]

    def root_sign(self, w: WeylElement, root):
        """Sign of w(alpha) for a positive root alpha in root coordinates."""
        return self.roots_fund[w.act_fund(self.rs.root_fund[root])][0]

    def length_by_inversions(self, w: WeylElement):
        return sum(1 for f in self.rs.root_fund.values()
                   if self.roots_fund[w.act_fund(f)][0] < 0)

    def reflection(self, root):
        """The reflection s_beta for a positive root in root coordinates."""
        n = self.rs.rank
        cov = self.rs.coroot(root)
        fund = self.rs.root_fund[root]
        mat = tuple(tuple((1 if i == j else 0) - as_int(cov[j] * fund[i])
                          for j in range(n)) for i in range(n))
        return self.by_matrix[mat]


_GROUPS = {}


def get_weyl_group(rs: RootSystem) -> WeylGroup:
    key = (rs.type_label, rs.rank)
    if key not in _GROUPS:
        _GROUPS[key] = WeylGroup(rs)
    return _GROUPS[key]


def enumerate_weyl(rs: RootSystem):
    """All Weyl group elements, sorted by (length, lex word)."""
    return list(get_weyl_group(rs).elements)


class ParabolicContext:
    """A standard parabolic P given by the simple roots S_P it drops from the Levi.

    Carries the minimal coset representatives of W/W_P sorted by
    (length, lex word), one per point of the orbit W lambda_P, the
    dimension of the flag variety, the Levi half-sum rho_L, the longest
    elements of W and W_P, an eagerly built chi table, the degrees of the
    quantum parameters and the S-matrix (see s_matrix).
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
        self.group = get_weyl_group(rs)

        # Levi positive roots: support inside Delta_P
        self.levi_pos = tuple(r for r in rs.positive_roots
                              if all(r[i - 1] == 0 for i in s_p))
        levi_set = set(self.levi_pos)
        self.outside_pos = tuple(r for r in rs.positive_roots if r not in levi_set)
        self.dim = len(self.outside_pos)

        half = [Fraction(0)] * rs.rank
        for r in self.levi_pos:
            for j, c in enumerate(r):
                half[j] += Fraction(c, 2)
        self.rho_l = rs.weight_from_root_coords(half)

        # W_P fixes exactly lambda_P = sum of omega_i over S_P, so w W_P is
        # the point w(lambda_P); in (length, lex word) order the first
        # element to reach a point is its minimal representative
        g = self.group
        self._lambda_p = tuple(int(i in s_p) for i in range(1, rs.rank + 1))
        self._coset = {}
        for w in g.elements:
            self._coset.setdefault(w.act_fund(self._lambda_p), w)
        self.wp = list(self._coset.values())
        assert len(self.wp) == len(g.elements) // weyl_order(self.levi_pos), \
            "coset representative count mismatch"
        self.wp_index = {w: k for k, w in enumerate(self.wp)}

        # w_o = w^P w_o^P with w^P the longest minimal representative
        self.w_o = g.longest
        self.w_o_p = g.mult(g.inverse(self.wp[-1]), self.w_o)
        assert self.w_o_p.length == len(self.levi_pos), "w_o^P is not the Levi's longest"

        self._dual = {}
        for w in self.wp:
            out = g.mult(g.mult(self.w_o, w), self.w_o_p)
            assert out in self.wp_index, "duality left the representative set"
            self._dual[w] = out

        self._chi = {}
        for w in self.wp:
            self._chi[w] = self._chi_both_ways(w)

        self.q_degrees = {}
        chi_e = self._chi[self.group.identity]
        for i in sorted(s_p):
            via_rho = 2 - 2 * self.rho_l.coords[i - 1]
            via_chi = chi_e.coords[i - 1]
            assert via_rho == via_chi, (i, via_rho, via_chi)
            deg = as_int(via_rho)
            assert deg > 0
            self.q_degrees[i] = deg
        self._q_degree_row = tuple(self.q_degrees[i] for i in sorted(s_p))

        self.s_matrix = self._s_matrix()

    def _s_matrix(self):
        rs = self.rs
        idx = sorted(self.s_p)
        out = []
        for i in idx:
            row = []
            for j in idx:
                tot = Fraction(0)
                for r in self.outside_pos:
                    tot += Fraction(r[i - 1]) * rs.root_pairing(r, j)
                val = as_int(tot)
                assert val >= 0, (i, j, val)
                unit = _unit(rs.rank, i - 1)
                norm_i = rs.form_on_root_coords(unit, unit)
                expect = Fraction(2 * rs.dual_coxeter) / norm_i if i == j else Fraction(0)
                assert Fraction(val) == expect, (i, j, val, expect)
                row.append(val)
            out.append(tuple(row))
        return tuple(out)

    def _chi_both_ways(self, w):
        rs, g = self.rs, self.group
        acc = [Fraction(0)] * rs.rank
        for r in self.outside_pos:
            if g.root_sign(w, r) > 0:
                for j, c in enumerate(r):
                    acc[j] += c
        via_sum = rs.weight_from_root_coords(acc)
        winv = g.inverse(w)
        via_rho = rs.rho - 2 * self.rho_l + winv.act(rs.rho)
        assert via_sum == via_rho, f"chi formulas disagree at {w}"
        return via_sum

    # --- queries -----------------------------------------------------------

    def codim(self, w):
        return self.dim - w.length

    def chi(self, w) -> Weight:
        if w not in self._chi:
            raise ValueError(f"{w} is not a minimal coset representative here")
        return self._chi[w]

    def chi_e(self) -> Weight:
        return self._chi[self.group.identity]

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

    def q_codim(self, d):
        """The codimension sum_i d_i deg(q_i) of q^d, d indexed by sorted S_P."""
        return sum(a * b for a, b in zip(d, self._q_degree_row))

    def by_length(self, ell):
        return [w for w in self.wp if w.length == ell]

    def point_action(self, w, pt: CartanPoint) -> CartanPoint:
        """w acting on the Cartan subalgebra: alpha_j(w.mu) = (w^{-1} alpha_j)(mu)."""
        rs = self.rs
        winv = self.group.inverse(w)
        out = []
        for j in range(rs.rank):
            alpha = rs.simple_root(j + 1)
            moved = winv.act(alpha)
            out.append(rs.weight_value(moved, pt))
        return CartanPoint(tuple(out))


def _unit(n, k):
    return tuple(int(j == k) for j in range(n))


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
