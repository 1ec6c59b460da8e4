"""Small quantum cohomology of a flag variety G/P, over exact integers.

Two Schubert-basis conventions are used side by side.  sigma[u] is the class
of codimension dim - length(u); tau[w] = sigma[dual(w)] has codimension
length(w), which is the convenient grading for the Chevalley recursion.
Quantum parameters carry one exponent per index in S_P (sorted order);
a product is a dict mapping (basis element, exponent tuple) to an integer.
A table stores the tau products only, tau[(u, v)] = {(w, d): coeff}; a
sigma product is the tau product of the duals, relabelled by ctx.dual.

Products by the codimension-one classes tau[s_i] are given in closed form by
the quantum Chevalley rule and written into tau whole; its classical part
is cross-checked against the classical constants.  The rest of the table
comes in two steps:

  * classical constants: localized on W^P alone.  Billey's formula gives
    each equivariant class tau[u] at each fixed point w at the point where
    every simple root is 1, and the triangular Kostant-Kumar recursion
    over w in increasing length turns those values into structure
    constants, keeping the terms of degree l(u) + l(v);
  * quantum constants: solved one exponent vector at a time, in increasing
    total degree, from the linear relations obtained by expanding both sides
    of tau[s_i] * (tau[b] * tau[c]) = (tau[s_i] * tau[b]) * tau[c] and
    extracting one q-power coefficient, all lower degrees being known.

The quantum linear system can be rank-deficient: on B4/P3, divisor
associativity alone does not pin the constants of degree (1,).  That raises
an error naming the degree instead of guessing.  Every built table is
re-verified: grading, commutativity, integrality, nonnegativity, unit, and
(on small spaces) associativity, checked as the commuting of the
multiplication operators by the Schubert classes.
"""

import itertools
from operator import gt, sub

from .exact import as_int, poly_add, poly_mul, solve
from .weyl import (ParabolicContext, _element_at, _left_simple, _matmul,
                   _reflect)

__all__ = [
    "chevalley_operator", "build_structure_table", "QuantumTable",
    "gw_invariant",
]


def chevalley_operator(ctx: ParabolicContext, i):
    """Expansion of tau[s_i] * tau[w] for every minimal representative w.

    Returns a dict w -> {(w', d): coeff}.  Classical terms step the length up
    by one inside the representative set; quantum terms pick up q^d with d the
    S_P part of the coroot of the reflecting root, subject to the usual
    length-drop condition.
    """
    if i not in ctx.s_p:
        raise ValueError(f"index {i} is not in S_P = {sorted(ctx.s_p)}")
    rs = ctx.rs
    qs = sorted(ctx.s_p)
    zero = (0,) * len(qs)
    # (coefficient, q-degree, reflection, q-codimension) per root; roots
    # whose coroot misses alpha_i^vee contribute nothing
    reflections = []
    for alpha in ctx.outside_pos:
        cov = rs.coroot(alpha)
        coeff = cov[i - 1]
        if coeff:
            d = tuple(cov[j - 1] for j in qs)
            # s_alpha is the element taking rho to rho - rho(alpha^vee) alpha
            refl = _element_at(rs, tuple(1 - sum(cov) * f
                                         for f in rs.root_fund[alpha]))
            reflections.append((coeff, d, refl.matrix, ctx.q_codim(d)))
    out = {}
    for w in ctx.wp:
        terms = {}
        for coeff, d, refl, degq in reflections:
            ws = _matmul(w.matrix, refl)
            wmin = ctx.coset(ws)
            if wmin.matrix == ws and wmin.length == w.length + 1:
                poly_add(terms, {(wmin, zero): coeff})
            if wmin.length == w.length + 1 - degq:
                poly_add(terms, {(wmin, d): coeff})
        out[w] = terms
    return out


def _restrictions(ctx):
    """xi[w][u] = xi^u(w) for u, w in W^P: the localization of the
    equivariant Schubert class tau[u] at the fixed point w, evaluated at
    the point t with alpha_i(t) = 1 for every simple root.

    Billey's formula sums, over the reduced subwords of a reduced word of
    w whose product is u, the product of the roots beta_j = s_{i_1} ...
    s_{i_{j-1}} alpha_{i_j} at the chosen letters; at t each beta_j is its
    height.  The subwords are built right to left, so every partial
    product is a suffix of u and stays in W^P.  Only nonzero values are
    kept.
    """
    rs = ctx.rs
    # the height of beta_j is <alpha_{i_j}, u^{-1} rho^vee> for u the prefix
    # s_{i_1} ... s_{i_{j-1}}: walk rho^vee along the word in coweights
    cocartan = tuple(zip(*rs.cartan))
    xi = {}
    for w in ctx.wp:
        heights, v = [], (1,) * rs.rank
        for i in w.word:
            assert v[i - 1] > 0, ("word is not reduced", str(w))
            heights.append(v[i - 1])
            v = _reflect(cocartan, i - 1, v)
        vals = {ctx.wp[0]: 1}
        for i, h in zip(reversed(w.word), reversed(heights)):
            for x, val in list(vals.items()):
                m = _left_simple(rs.cartan, i - 1, x.matrix)
                y = ctx.coset(m)
                if y.matrix == m and y.length > x.length:
                    vals[y] = vals.get(y, 0) + val * h
        xi[w] = vals
    return xi


def _classical_sub_table(ctx):
    """Classical constants of G/P in the length-graded basis: dict
    (u, v) -> {w: coeff} over minimal representatives, by the Kostant-Kumar
    recursion on localizations,

        c^w = (xi^u(w) xi^v(w) - sum_{y < w} c^y xi^y(w)) / xi^w(w),

    over w in increasing length.  At t the c^w are the equivariant
    constants evaluated at a point where every simple root is 1, so each
    division is exact and each c^w is nonnegative (Graham positivity);
    both are asserted, as is c^w = 0 above the degree l(u) + l(v).  The
    terms of that degree are the classical constants.
    """
    xi = _restrictions(ctx)
    sub = {}
    for a, u in enumerate(ctx.wp):
        for v in ctx.wp[a:]:
            top = u.length + v.length
            equiv = {}
            for w in ctx.wp:
                xw = xi[w]
                num = xw.get(u, 0) * xw.get(v, 0) - sum(
                    c * xw.get(y, 0) for y, c in equiv.items())
                c, rem = divmod(num, xw[w])
                assert rem == 0 and c >= 0, (str(u), str(v), str(w), num)
                if c:
                    assert w.length <= top, (str(u), str(v), str(w))
                    equiv[w] = c
            poly = {w: c for w, c in equiv.items() if w.length == top}
            sub[(u, v)] = poly
            sub[(v, u)] = dict(poly)
    return sub


class QuantumTable:
    """Full multiplication table of the small quantum cohomology ring:
    tau[(u, v)] = {(w, d): coeff} over every pair of minimal
    representatives."""

    def __init__(self, ctx: ParabolicContext, preset_tau=None):
        self.ctx = ctx
        self.q_index = tuple(sorted(ctx.s_p))
        self.q_degrees = tuple(ctx.q_degrees[j] for j in self.q_index)
        self.zero_d = (0,) * len(self.q_index)
        if preset_tau is None:
            self._build()
        else:
            # restored from storage: skip the solve, keep all checks
            self.tau = dict(preset_tau)
        self._verify()

    # --- construction ------------------------------------------------------

    def _degree_vectors(self):
        """All nonzero exponent vectors reachable inside a single product,
        sorted by total degree."""
        bound = 2 * self.ctx.dim
        ranges = [range(bound // qd + 1) for qd in self.q_degrees]
        vecs = [d for d in itertools.product(*ranges)
                if 0 < self.ctx.q_codim(d) <= bound]
        vecs.sort(key=lambda d: (self.ctx.q_codim(d), d))
        return vecs

    def _build(self):
        ctx = self.ctx
        zero = self.zero_d
        # the Chevalley rule of each divisor class tau[s_i], i in S_P
        simple = {si.word[0]: si for si in ctx.by_length(1)}
        chevalley = {simple[i]: chevalley_operator(ctx, i) for i in self.q_index}
        classical = _classical_sub_table(ctx)

        # every product starts from its classical constants; a product
        # whose shorter factor is a divisor is its Chevalley rule, written
        # whole (tau[s_i] * tau[s_j] from the rule of s_i)
        self.tau = tau = {
            (u, v): {(y, zero): c for y, c in classical[(u, v)].items()}
            for u in ctx.wp for v in ctx.wp}
        # the Chevalley terms indexed by the class they land on
        rev_chev = {si: {} for si in chevalley}
        for si, rule in chevalley.items():
            for y, terms in rule.items():
                # the two classical sources must agree where they overlap
                from_chev = {w: c for (w, dd), c in terms.items() if not any(dd)}
                assert classical[(si, y)] == from_chev, (str(si), str(y))
                tau[(si, y)], tau[(y, si)] = dict(terms), dict(terms)
                for (x, e), c in terms.items():
                    rev_chev[si].setdefault(x, {})[(y, e)] = c

        # the other products, one nonzero degree at a time in increasing
        # codimension
        done = {zero}
        for d in self._degree_vectors():
            for (u, v, y), c in self._solve_degree(d, rev_chev, done):
                tau[(u, v)][(y, d)] = tau[(v, u)][(y, d)] = c
            done.add(d)

    def _solve_degree(self, d, rev_chev, done):
        """Pin down every degree-d constant not already given by the
        Chevalley rule, using divisor associativity.  Every known constant
        is read off tau; done holds the degrees already filled in.
        Returns ((u, v, y), coeff) per nonzero solved constant."""
        ctx = self.ctx
        tau = self.tau
        degq = ctx.q_codim(d)

        # unknowns: one per (u, v, y) with both factors of length >= 2;
        # shorter factors are covered by the unit and the Chevalley rule.
        # index holds each under both factor orders
        unknowns = []
        index = {}
        for a, u in enumerate(ctx.wp):
            for v in ctx.wp[a:]:
                if u.length < 2 or v.length < 2:
                    continue
                ly = u.length + v.length - degq
                if 0 <= ly <= ctx.dim:
                    for y in ctx.by_length(ly):
                        index[(u, v, y)] = index[(v, u, y)] = len(unknowns)
                        unknowns.append((u, v, y))
        if not unknowns:
            return []

        def term(u, v, y, e, k):
            # k * c_{d-e}(u, v; y) on the left of the row being built: a
            # degree-d unknown, or a constant of tau moved to the right
            nonlocal rhs
            if any(map(gt, e, d)):
                return
            dd = tuple(map(sub, d, e))
            if dd != d:
                assert dd in done, "dependency on an unsolved degree; internal error"
            elif y.length != u.length + v.length - degq:
                return
            elif u.length >= 2 and v.length >= 2:
                col = index[(u, v, y)]
                coeffs[col] = coeffs.get(col, 0) + k
                return
            rhs -= k * tau[(u, v)].get((y, dd), 0)

        rows = []
        for si, into in rev_chev.items():
            for b in ctx.wp:
                for c in ctx.wp:
                    for x in ctx.by_length(b.length + 1 + c.length - degq):
                        coeffs, rhs = {}, 0
                        # sum over y of chev(y -> x) * c_{d-e}(b, c; y)
                        for (y, e), k in into.get(x, {}).items():
                            term(b, c, y, e, k)
                        # minus sum over b' of chev(b -> b') * c_{d-e}(b', c; x)
                        for (b2, e), k in tau[(si, b)].items():
                            term(b2, c, x, e, -k)
                        if coeffs:
                            rows.append((coeffs, {None: rhs}))
                        else:
                            assert rhs == 0, (str(si), str(b), str(c), str(x), d)

        def fail():
            return (f"quantum products of {ctx.rs.type_label}{ctx.rs.rank}"
                    f"/P{sorted(ctx.s_p)} are underdetermined at degree {d} "
                    f"(codimension level {degq}); this space is unsupported")

        sols = solve(rows, len(unknowns), fail)
        return [(key, as_int(rhs[None])) for key, rhs in zip(unknowns, sols)
                if rhs.get(None, 0)]

    # --- verification ------------------------------------------------------

    def _verify(self):
        ctx = self.ctx
        e = ctx.wp[0]
        for x in ctx.wp:
            assert self.tau[(e, x)] == {(x, self.zero_d): 1}, str(x)
        for (u, x), poly in self.tau.items():
            assert self.tau[(x, u)] == poly
            want = u.length + x.length
            for (w, d), c in poly.items():
                got = w.length + ctx.q_codim(d)
                assert got == want, ((str(u), str(x)), (str(w), d), c)
                assert c > 0, ((str(u), str(x)), (str(w), d), c)
        if len(ctx.wp) <= 32:
            # given commutativity, (uv)w = u(vw) for every triple is
            # u(vw) = v(uw) for u < v and every w: the multiplication
            # operators commute.  Each such equation compares products x(yz)
            # of one multiset {x, y, z}, and each product belongs to one
            # multiset, so walking the multisets makes each product once
            mul = self.multiply_tau_poly
            for u, v, w in itertools.combinations_with_replacement(ctx.wp, 3):
                if u == w:
                    continue
                u_vw = mul(self.tau[(v, w)], u)
                if u != v:
                    assert mul(self.tau[(u, w)], v) == u_vw, \
                        (str(u), str(v), str(w))
                if v != w:
                    assert mul(self.tau[(u, v)], w) == u_vw, \
                        (str(u), str(w), str(v))

    # --- queries -----------------------------------------------------------

    def tau_product(self, u, v):
        """tau[u] * tau[v] as {(w, d): coeff}."""
        return dict(self.tau[(u, v)])

    def sigma_product(self, u, v):
        """sigma[u] * sigma[v] as {(w, d): coeff}: the tau product of the
        duals, relabelled."""
        dual = self.ctx.dual
        return {(dual(w), d): c
                for (w, d), c in self.tau[(dual(u), dual(v))].items()}

    def gw(self, u, v, w, d):
        """The three-point invariant <sigma_u, sigma_v, sigma_w> at degree d:
        the coefficient of q^d tau[w] in tau[dual(u)] * tau[dual(v)]."""
        dual = self.ctx.dual
        return self.tau[(dual(u), dual(v))].get((w, tuple(d)), 0)

    def multiply_tau_poly(self, poly, u):
        """Multiply a {(w, d): coeff} combination of tau classes by tau[u]."""
        return poly_mul(poly, self.tau, u)


def build_structure_table(ctx: ParabolicContext, preset_tau=None) -> QuantumTable:
    return QuantumTable(ctx, preset_tau)


def gw_invariant(table: QuantumTable, classes, degree):
    """The n-point genus-zero invariant <sigma_{u_1}, ..., sigma_{u_n}> at
    the given degree: the coefficient of q^degree sigma[dual(u_n)] in the
    product of the first n-1 classes.
    """
    if len(classes) < 2:
        raise ValueError("need at least two classes")
    degree = _check_degree(table.ctx, degree, classes)
    return _tuple_coeff(table, table.tau, classes, degree)


def _check_degree(ctx: ParabolicContext, degree, classes=()):
    """The curve degree as a tuple of ints, one nonnegative entry per index
    in S_P; every class given must be a minimal representative.  Raises
    ValueError otherwise."""
    degree = tuple(int(a) for a in degree)
    if len(degree) != len(ctx.s_p):
        raise ValueError(f"degree must have {len(ctx.s_p)} components")
    if any(a < 0 for a in degree):
        raise ValueError("degree components must be nonnegative")
    for u in classes:
        if u not in ctx.wp_index:
            raise ValueError(f"{u} is not a minimal representative here")
    return degree


def _tuple_coeff(table, products, classes, degree):
    """The coefficient of q^degree sigma[dual(u_n)] in the product of the
    sigma classes u_1, ..., u_{n-1}, products[(w, x)] giving each product of
    two tau classes: the product of tau[dual(u_1)], ..., tau[dual(u_{n-1})]
    is read at q^degree tau[u_n].  Zero unless the codimensions balance."""
    ctx = table.ctx
    codim_sum = sum(ctx.codim(u) for u in classes)
    need = ctx.dim + ctx.q_codim(degree)
    if codim_sum != need:
        return 0
    poly = {(ctx.dual(classes[0]), table.zero_d): 1}
    for u in classes[1:-1]:
        poly = poly_mul(poly, products, ctx.dual(u), degree)
    return poly.get((classes[-1], degree), 0)
