"""Small quantum cohomology of a flag variety G/P, over exact integers.

Two Schubert-basis conventions are used side by side.  sigma[u] is the class
of codimension dim - length(u); tau[w] = sigma[dual(w)] has codimension
length(w), which is the convenient grading for the Chevalley recursion.
Quantum parameters carry one exponent per index in S_P (sorted order);
a product is a dict mapping (basis element, exponent tuple) to an integer.

Products by the codimension-one classes tau[s_i] are given in closed form by
the quantum Chevalley rule.  The rest of the table is forced from those:

  * classical constants: the classical Chevalley rule determines the full
    flag variety G/B level by level (its cohomology is generated by divisor
    classes), one exact solve per level with every second factor carried
    in a single right-hand side, and the products of G/P restrict from G/B
    along the ring injection that matches Schubert classes of equal
    codimension;
  * quantum constants: solved one exponent vector at a time, in increasing
    total degree, from the linear relations obtained by expanding both sides
    of tau[s_i] * (tau[b] * tau[c]) = (tau[s_i] * tau[b]) * tau[c] and
    extracting one q-power coefficient, all lower degrees being known.

Either linear system can in principle be rank-deficient on spaces outside
the supported range; that raises an error naming the offending level or
degree instead of guessing.  Every built table is re-verified: grading,
commutativity, integrality, nonnegativity, unit, and (on small spaces)
exhaustive associativity.
"""

import itertools

from .exact import as_int, poly_add, poly_mul, solve
from .weyl import ParabolicContext, minimal_reps

__all__ = [
    "chevalley_operator", "build_structure_table", "QuantumTable",
    "classical_flag_table", "gw_invariant",
]


_CHEV_CACHE = {}


def chevalley_operator(ctx: ParabolicContext, i):
    """Expansion of tau[s_i] * tau[w] for every minimal representative w.

    Returns a dict w -> {(w', d): coeff}.  Classical terms step the length up
    by one inside the representative set; quantum terms pick up q^d with d the
    S_P part of the coroot of the reflecting root, subject to the usual
    length-drop condition.
    """
    if i not in ctx.s_p:
        raise ValueError(f"index {i} is not in S_P = {sorted(ctx.s_p)}")
    key = (ctx.rs.type_label, ctx.rs.rank, frozenset(ctx.s_p), i)
    if key in _CHEV_CACHE:
        return _CHEV_CACHE[key]
    rs, g = ctx.rs, ctx.group
    qs = sorted(ctx.s_p)
    zero = (0,) * len(qs)
    # (coefficient, q-degree, reflection, q-codimension) per root; roots
    # whose coroot misses alpha_i^vee contribute nothing
    reflections = []
    for alpha in ctx.outside_pos:
        cov = rs.coroot(alpha)
        coeff = as_int(cov[i - 1])
        if coeff:
            d = tuple(as_int(cov[j - 1]) for j in qs)
            degq = sum(dj * ctx.q_degrees[j] for dj, j in zip(d, qs))
            reflections.append((coeff, d, g.reflection(alpha), degq))
    out = {}
    for w in ctx.wp:
        terms = {}
        for coeff, d, refl, degq in reflections:
            ws = g.mult(w, refl)
            if ws in ctx.wp_index and ws.length == w.length + 1:
                poly_add(terms, {(ws, zero): coeff})
            wmin = ctx.min_rep(ws)
            if wmin.length == w.length + 1 - degq:
                poly_add(terms, {(wmin, d): coeff})
        out[w] = terms
    _CHEV_CACHE[key] = out
    return out


def _full_flag_context(rs):
    return minimal_reps(rs, set(range(1, rs.rank + 1)))


def _classical_operator(ctx, i):
    """Classical part of the Chevalley operator: {w: {w2: coeff}}."""
    out = {}
    for w, terms in chevalley_operator(ctx, i).items():
        out[w] = {w2: c for (w2, d), c in terms.items() if not any(d)}
    return out


_FLAG_TABLES = {}


def classical_flag_table(rs):
    """Classical cup-product constants of the full flag variety, in the
    length-graded basis: dict (u, v) -> {w: coeff} over the whole Weyl group.
    """
    key = (rs.type_label, rs.rank)
    if key in _FLAG_TABLES:
        return _FLAG_TABLES[key]
    fctx = _full_flag_context(rs)
    ops = {i: _classical_operator(fctx, i) for i in range(1, rs.rank + 1)}
    levels = {}
    for w in fctx.wp:
        levels.setdefault(w.length, []).append(w)

    # tau[s_i] * (tau[v] * tau[x]) = (tau[s_i] * tau[v]) * tau[x]: the
    # coefficient matrix of a level does not depend on x, so every column x
    # rides along as part of one right-hand side keyed by (x, y)
    table = {}
    for x in fctx.wp:
        table[(fctx.group.identity, x)] = {x: 1}
        for i in range(1, rs.rank + 1):
            table[(fctx.group.simple(i), x)] = dict(ops[i][x])
    for k in range(2, max(levels) + 1):
        unknowns = levels[k]
        idx = {w: n for n, w in enumerate(unknowns)}
        rows = []
        for i in range(1, rs.rank + 1):
            for v in levels[k - 1]:
                coeffs = {idx[w]: c for w, c in ops[i][v].items()}
                rhs = {}
                for x in fctx.wp:
                    for y, c in table[(v, x)].items():
                        for y2, c2 in ops[i][y].items():
                            rhs[(x, y2)] = rhs.get((x, y2), 0) + c * c2
                rows.append((coeffs, rhs))
        sols = solve(
            rows, len(unknowns),
            lambda k=k: f"cup products of the {rs.type_label}{rs.rank} flag "
                        f"variety are underdetermined at level {k}")
        for w, rhs in zip(unknowns, sols):
            for x in fctx.wp:
                table[(w, x)] = {}
            for (x, y), c in rhs.items():
                table[(w, x)][y] = as_int(c)
    for (u, x), poly in table.items():
        assert table[(x, u)] == poly, (str(u), str(x))
        for w, c in poly.items():
            assert w.length == u.length + x.length and c > 0, (str(u), str(x))
    _FLAG_TABLES[key] = table
    return table


def _classical_sub_table(ctx):
    """Classical constants of G/P: restriction of the flag-variety table to
    minimal representatives.  Components outside the representative set must
    vanish; that is asserted, not assumed.
    """
    flag = classical_flag_table(ctx.rs)
    sub = {}
    for u in ctx.wp:
        for v in ctx.wp:
            poly = flag[(u, v)]
            assert all(w in ctx.wp_index for w in poly), (str(u), str(v))
            sub[(u, v)] = dict(poly)
    return sub


class QuantumTable:
    """Full multiplication table of the small quantum cohomology ring."""

    def __init__(self, ctx: ParabolicContext, preset_tau=None):
        self.ctx = ctx
        self.q_index = tuple(sorted(ctx.s_p))
        self.q_degrees = tuple(ctx.q_degrees[j] for j in self.q_index)
        self.zero_d = (0,) * len(self.q_index)
        self.chevalley = {i: chevalley_operator(ctx, i) for i in self.q_index}
        if preset_tau is None:
            self._build()
        else:
            # restored from storage: skip the solve, keep all checks
            self.tau = dict(preset_tau)
            self._derive_sigma()
        self._verify()

    # --- construction ------------------------------------------------------

    def _pair(self, u, v):
        iu, iv = self.ctx.wp_index[u], self.ctx.wp_index[v]
        return (u, v) if iu <= iv else (v, u)

    def _degree_vectors(self):
        """All nonzero exponent vectors reachable inside a single product,
        sorted by total degree."""
        bound = 2 * self.ctx.dim
        ranges = [range(bound // qd + 1) for qd in self.q_degrees]
        vecs = [d for d in itertools.product(*ranges)
                if 0 < sum(a * b for a, b in zip(d, self.q_degrees)) <= bound]
        vecs.sort(key=lambda d: (sum(a * b for a, b in zip(d, self.q_degrees)), d))
        return vecs

    def _build(self):
        ctx = self.ctx
        classical = _classical_sub_table(ctx)
        # solved[d][(u, v)] = {y: coeff}, keys (u, v) normalized by wp order
        solved = {self.zero_d: {}}
        for u in ctx.wp:
            for v in ctx.wp:
                if ctx.wp_index[u] <= ctx.wp_index[v]:
                    solved[self.zero_d][(u, v)] = classical[(u, v)]

        # the Chevalley terms indexed by the class they land on
        rev_chev = {i: {} for i in self.q_index}
        for i in self.q_index:
            for y, terms in self.chevalley[i].items():
                for (x, e), c in terms.items():
                    rev_chev[i].setdefault(x, {})[(y, e)] = c

        # the two classical sources must agree where they overlap
        for i in self.q_index:
            si = ctx.group.simple(i)
            for v in ctx.wp:
                from_chev = {w: c for (w, dd), c in self.chevalley[i][v].items()
                             if not any(dd)}
                assert classical[(si, v)] == from_chev, (i, str(v))

        degs = self._degree_vectors()
        for d in degs:
            solved[d] = self._solve_degree(d, solved, rev_chev)

        self.tau = {}
        for u in ctx.wp:
            for v in ctx.wp:
                poly = {}
                for d in [self.zero_d] + degs:
                    part = self._known_product(solved, d, u, v)
                    for y, c in part.items():
                        if c:
                            poly[(y, d)] = as_int(c)
                self.tau[(u, v)] = poly

        self._derive_sigma()

    def _derive_sigma(self):
        ctx = self.ctx
        self.sigma = {}
        for (u, x), poly in self.tau.items():
            self.sigma[(ctx.dual(u), ctx.dual(x))] = {
                (ctx.dual(w), d): c for (w, d), c in poly.items()}

    def _known_product(self, solved, d, u, v):
        """The degree-d part of tau[u] * tau[v] if already determined:
        a {y: coeff} dict, or None if (u, v) is still an unknown at d."""
        if u.length > v.length:
            u, v = v, u
        degq = sum(a * b for a, b in zip(d, self.q_degrees))
        if not 0 <= u.length + v.length - degq <= self.ctx.dim:
            return {}
        if u.length == 0:
            return {v: 1} if not any(d) else {}
        if u.length == 1:
            i = u.word[0]
            return {w: c for (w, dd), c in self.chevalley[i][v].items() if dd == d}
        sector = solved.get(d)
        if sector is not None:
            return sector.get(self._pair(u, v), {})
        return None

    def _solve_degree(self, d, solved, rev_chev):
        """Pin down every degree-d constant not already given by the
        Chevalley rule, using divisor associativity."""
        ctx = self.ctx
        degq = sum(a * b for a, b in zip(d, self.q_degrees))

        # unknowns: one per (u, v, y) with both factors of length >= 2;
        # shorter factors are covered by the unit and the Chevalley rule
        unknowns = []
        index = {}
        for u in ctx.wp:
            for v in ctx.wp:
                if ctx.wp_index[u] > ctx.wp_index[v] or u.length < 2 or v.length < 2:
                    continue
                ly = u.length + v.length - degq
                if 0 <= ly <= ctx.dim:
                    for y in ctx.wp:
                        if y.length == ly:
                            index[(u, v, y)] = len(unknowns)
                            unknowns.append((u, v, y))
        if not unknowns:
            return {}

        def lookup(dd, u, v, y):
            if any(a < 0 for a in dd):
                return 0
            poly = self._known_product(solved, dd, u, v)
            assert poly is not None, "dependency on an unsolved degree; internal error"
            return poly.get(y, 0)

        rows = []
        for i in self.q_index:
            for b in ctx.wp:
                for c in ctx.wp:
                    lx = b.length + 1 + c.length - degq
                    for x in ctx.wp:
                        if x.length != lx:
                            continue
                        coeffs = {}
                        rhs = 0

                        def add(u, v, y, scale):
                            nonlocal rhs
                            uu, vv = (v, u) if u.length > v.length else (u, v)
                            if y.length != uu.length + vv.length - degq:
                                return
                            if uu.length >= 2 and vv.length >= 2:
                                col = index[self._pair(uu, vv) + (y,)]
                                coeffs[col] = coeffs.get(col, 0) + scale
                            else:
                                rhs -= scale * lookup(d, uu, vv, y)

                        # quantum Chevalley terms (e nonzero) land at
                        # strictly lower degree, so they are known.
                        # sum over y of chev(y -> x) * c_{d-e}(b, c; y)
                        for (y, e), k in rev_chev[i].get(x, {}).items():
                            if any(e):
                                rhs -= k * lookup(tuple(m - n for m, n in zip(d, e)),
                                                  b, c, y)
                            else:
                                add(b, c, y, k)
                        # minus sum over b' of chev(b -> b') * c_{d-e}(b', c; x)
                        for (b2, e), k in self.chevalley[i][b].items():
                            if any(e):
                                rhs += k * lookup(tuple(m - n for m, n in zip(d, e)),
                                                  b2, c, x)
                            else:
                                add(b2, c, x, -k)

                        if coeffs:
                            rows.append((coeffs, {None: rhs}))
                        else:
                            assert rhs == 0, (i, str(b), str(c), str(x), d)

        def fail():
            return (f"quantum products of {ctx.rs.type_label}{ctx.rs.rank}"
                    f"/P{sorted(ctx.s_p)} are underdetermined at degree {d} "
                    f"(codimension level {degq}); this space is unsupported")

        sols = solve(rows, len(unknowns), fail)
        out = {}
        for (u, v, y), rhs in zip(unknowns, sols):
            val = rhs.get(None, 0)
            if val:
                out.setdefault((u, v), {})[y] = val
        return out

    # --- verification ------------------------------------------------------

    def _verify(self):
        ctx = self.ctx
        e = ctx.group.identity
        for x in ctx.wp:
            assert self.tau[(e, x)] == {(x, self.zero_d): 1}, str(x)
        for (u, x), poly in self.tau.items():
            assert self.tau[(x, u)] == poly
            want = u.length + x.length
            for (w, d), c in poly.items():
                got = w.length + sum(a * b for a, b in zip(d, self.q_degrees))
                assert got == want, ((str(u), str(x)), (str(w), d), c)
                assert c > 0, ((str(u), str(x)), (str(w), d), c)
        if len(ctx.wp) <= 12:
            for u, v, w in itertools.product(ctx.wp, repeat=3):
                lhs = self.multiply_tau_poly(self.tau[(u, v)], w)
                rhs = self.multiply_tau_poly(self.tau[(v, w)], u)
                assert lhs == rhs, (str(u), str(v), str(w))

    # --- queries -----------------------------------------------------------

    def tau_product(self, u, v):
        """tau[u] * tau[v] as {(w, d): coeff}."""
        return dict(self.tau[(u, v)])

    def sigma_product(self, u, v):
        """sigma[u] * sigma[v] as {(w, d): coeff}."""
        return dict(self.sigma[(u, v)])

    def gw(self, u, v, w, d):
        """The three-point invariant <sigma_u, sigma_v, sigma_w> at degree d."""
        return self.sigma[(u, v)].get((self.ctx.dual(w), tuple(d)), 0)

    def multiply_tau_poly(self, poly, u, cap=None):
        """Multiply a {(w, d): coeff} combination of tau classes by tau[u]."""
        return poly_mul(poly, self.tau, u, cap)

    def multiply_sigma_poly(self, poly, u, cap=None):
        """Multiply a {(w, d): coeff} combination of sigma classes by
        sigma[u], dropping exponents beyond the componentwise bound cap."""
        return poly_mul(poly, self.sigma, u, cap)


def build_structure_table(ctx: ParabolicContext, preset_tau=None) -> QuantumTable:
    return QuantumTable(ctx, preset_tau)


def gw_invariant(table: QuantumTable, classes, degree):
    """The n-point genus-zero invariant <sigma_{u_1}, ..., sigma_{u_n}> at
    the given degree: the coefficient of q^degree sigma[dual(u_n)] in the
    product of the first n-1 classes.
    """
    if len(classes) < 2:
        raise ValueError("need at least two classes")
    degree = tuple(int(a) for a in degree)
    if len(degree) != len(table.q_index):
        raise ValueError(f"degree must have {len(table.q_index)} components")
    if any(a < 0 for a in degree):
        raise ValueError("degree components must be nonnegative")
    ctx = table.ctx
    for u in classes:
        if u not in ctx.wp_index:
            raise ValueError(f"{u} is not a minimal representative here")
    return _tuple_coeff(table, table.sigma, classes, degree)


def _tuple_coeff(table, products, classes, degree):
    """The coefficient of q^degree [dual(u_n)] in the product of the first
    n-1 classes, products[(w, u)] giving each two-class product; zero
    unless the codimensions balance."""
    ctx = table.ctx
    codim_sum = sum(ctx.codim(u) for u in classes)
    need = ctx.dim + sum(a * b for a, b in zip(degree, table.q_degrees))
    if codim_sum != need:
        return 0
    poly = {(classes[0], table.zero_d): 1}
    for u in classes[1:-1]:
        poly = poly_mul(poly, products, u, degree)
    return poly.get((ctx.dual(classes[-1]), degree), 0)
