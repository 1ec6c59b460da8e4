"""The deformed quantum product and its degree-zero specialization.

Each term of a quantum product picks up one extra exponent per quantum
parameter, measuring how far the triple of boundary characters falls short
of the identity character on the fractional coweights x_i.  Setting every
deformation variable t_i to 1 recovers the quantum product; setting them
all to 0 keeps only the exponent-free terms, which is the coefficient the
inequality generator consumes.

An exponent is an integer sum: the simple-root coordinates of the
boundary characters, stored once per class by the context, plus a degree
part read off the context's S-matrix, whose two independent formulas (a
closed form through the dual Coxeter number and a sum over the positive
roots outside the Levi) are checked against each other once per context.
"""

import json
from dataclasses import dataclass
from weakref import WeakKeyDictionary

from .quantum_ring import QuantumTable, _tuple_coeff, _check_degree
from .weyl import ParabolicContext, render_word

__all__ = [
    "DeformedElement", "a_exponent", "deformed_product",
    "deformed_coeff_tuple", "is_levi_movable", "render_table",
]


def a_exponent(ctx: ParabolicContext, u, v, w, d):
    """Deformation exponents of the (u, v, w) constant at curve degree d.

    Returns one nonnegative-or-not integer per index in sorted S_P; callers
    decide what to do with negative values (they never occur on terms with
    a nonzero structure constant).  Index i adds the value at the coweight
    x_i of chi_e - chi_u - chi_v - chi_w, its i-th simple-root coordinate,
    to the degree term S[i][i] * d_i with S = s_matrix(ctx), whose closed
    form and sum over the roots outside the Levi were checked once when the
    context was built.  A class outside W^P raises ValueError.
    """
    d = _check_degree(ctx, d)
    chi = ctx.chi_root_coords
    ce, cu, cv, cw = chi(ctx.wp[0]), chi(u), chi(v), chi(w)
    return tuple(ce[i - 1] - cu[i - 1] - cv[i - 1] - cw[i - 1]
                 + ctx.s_matrix[pos][pos] * d[pos]
                 for pos, i in enumerate(sorted(ctx.s_p)))


@dataclass(frozen=True)
class DeformedElement:
    """A sum of Schubert classes with quantum and deformation exponents.

    terms maps (class, q-exponent tuple, deformation-exponent tuple) to an
    integer coefficient.
    """
    terms: dict

    def at_tau_one(self):
        """Forget the deformation exponents: the plain quantum product."""
        out = {}
        for (x, d, _e), c in self.terms.items():
            out[(x, d)] = out.get((x, d), 0) + c
        return {k: v for k, v in out.items() if v}

    def at_tau_zero(self):
        """Keep only the exponent-free terms."""
        return {(x, d): c for (x, d, e), c in self.terms.items()
                if not any(e) and c}


def deformed_product(table: QuantumTable, u, v) -> DeformedElement:
    """sigma[u] * sigma[v] with every term carrying its deformation exponents.

    Exponents are attached at the pairing index (the dual of the displayed
    class) and asserted nonnegative wherever the coefficient is nonzero.
    """
    ctx = table.ctx
    terms = {}
    for (y, d), c in table.tau[(ctx.dual(u), ctx.dual(v))].items():
        exps = a_exponent(ctx, u, v, y, d)
        x = ctx.dual(y)
        assert all(e >= 0 for e in exps), \
            (str(u), str(v), str(x), d, exps)
        terms[(x, d, exps)] = c
    return DeformedElement(terms=terms)


_TZ_CACHE = WeakKeyDictionary()


def _tau_zero_products(table):
    """Degree-zero-specialized products of tau classes keyed by class pair:
    (u, v) -> {(class, d): coeff}, exponent-free terms only, the exponents
    being those of the sigma product of the duals.  Filled for every pair
    once per table."""
    if table not in _TZ_CACHE:
        ctx = table.ctx
        _TZ_CACHE[table] = {
            (u, v): {(y, d): c for (y, d), c in poly.items()
                     if not any(a_exponent(ctx, ctx.dual(u), ctx.dual(v), y, d))}
            for (u, v), poly in table.tau.items()}
    return _TZ_CACHE[table]


def _specialized_tuple_coeff(table, classes, degree):
    # no arity guard: the 2-point case degenerates to extracting a
    # coefficient of a single class, which the inequality enumeration uses
    return _tuple_coeff(table, _tau_zero_products(table), classes, degree)


def deformed_coeff_tuple(table: QuantumTable, classes, degree):
    """The n-point coefficient of the degree-zero specialization: the
    coefficient of q^degree sigma[dual(u_n)] in the specialized product of
    the first n-1 classes.
    """
    classes = tuple(classes)
    if len(classes) < 3:
        raise ValueError("need at least three classes")
    degree = _check_degree(table.ctx, degree, classes)
    return _specialized_tuple_coeff(table, classes, degree)


def _witness_chain(table, classes, degree):
    """A chain of intermediate tau classes threading the specialized
    products, every step exponent-free with a nonzero coefficient; None if
    no chain reaches the target."""
    ctx = table.ctx
    products = _tau_zero_products(table)
    target = (classes[-1], degree)

    def rec(state, k):
        if k == len(classes) - 1:
            return [] if state == target else None
        for (x, nd0), c in products[(state[0], ctx.dual(classes[k]))].items():
            nd = tuple(a + b for a, b in zip(state[1], nd0))
            if any(a > b for a, b in zip(nd, degree)):
                continue
            sub = rec((x, nd), k + 1)
            if sub is not None:
                return [(x, nd)] + sub
        return None

    return rec((ctx.dual(classes[0]), table.zero_d), 1)


def is_levi_movable(table: QuantumTable, classes, degree):
    """Whether the specialized n-point coefficient is nonzero.

    For triples the answer is cross-checked against the two-part criterion
    (nonzero plain invariant and vanishing exponent vector); for longer
    tuples against an explicit chain of exponent-free factorizations.  All
    structure constants are positive, so a nonzero iterated coefficient and
    the existence of a chain must agree.
    """
    classes = tuple(classes)
    degree = tuple(int(a) for a in degree)
    val = deformed_coeff_tuple(table, classes, degree)
    ctx = table.ctx
    if len(classes) == 3:
        u1, u2, u3 = classes
        gw = table.gw(u1, u2, u3, degree)
        grading = sum(ctx.codim(u) for u in classes) == \
            ctx.dim + ctx.q_codim(degree)
        alt = bool(gw) and grading and \
            not any(a_exponent(ctx, u1, u2, u3, degree))
        assert (val != 0) == alt, (tuple(map(str, classes)), degree, val, gw)
    else:
        chain = _witness_chain(table, classes, degree)
        assert (val != 0) == (chain is not None), \
            (tuple(map(str, classes)), degree, val)
    return val != 0


def _render_terms(table, i, j):
    """Terms of the product of the codim-ordered classes nr. i and j, as
    (q-exponent, deformation exponent, class position, coeff), sorted."""
    ctx = table.ctx
    u, v = ctx.dual(ctx.wp[i]), ctx.dual(ctx.wp[j])
    out = []
    for (x, d, e), c in deformed_product(table, u, v).terms.items():
        out.append((d[0], e[0], ctx.wp_index[ctx.dual(x)], c))
    out.sort(key=lambda t: t[:3])
    return out


def render_table(table: QuantumTable, fmt="text"):
    """Render the full deformed multiplication table of a space with one
    quantum parameter, classes in codimension order, as text or JSON.

    Text terms read coefficient, t-power, q-power, class, with factors
    equal to 1 suppressed; lines are single-spaced with no trailing blanks.
    """
    ctx = table.ctx
    if len(table.q_index) != 1:
        raise ValueError(
            "table rendering needs a single quantum parameter (a maximal "
            f"parabolic); got S_P = {sorted(ctx.s_p)}")
    ip = table.q_index[0]
    n = len(ctx.wp)
    if fmt == "text":
        lines = [
            f"# deformed multiplication table: {ctx.rs.type_label}{ctx.rs.rank} / P{ip}",
            "# classes in codimension order, each named by its coset representative",
        ]
        for k, w in enumerate(ctx.wp):
            lines.append(f"# s{k}: {render_word(w.word)} (codimension {w.length})")
        for i in range(n):
            for j in range(i, n):
                terms = []
                for d, e, k, c in _render_terms(table, i, j):
                    parts = []
                    if c != 1:
                        parts.append(str(c))
                    if e:
                        parts.append("t" if e == 1 else f"t^{e}")
                    if d:
                        parts.append("q" if d == 1 else f"q^{d}")
                    parts.append(f"s{k}")
                    terms.append(" ".join(parts))
                lines.append(f"s{i}*s{j} = " + " + ".join(terms))
        return "\n".join(lines) + "\n"
    if fmt == "json":
        obj = {
            "space": {
                "type": ctx.rs.type_label, "rank": ctx.rs.rank,
                "parabolic": ip, "dimension": ctx.dim,
                "q_degree": table.q_degrees[0],
            },
            "classes": [
                {"label": f"s{k}", "representative": render_word(w.word),
                 "codim": w.length}
                for k, w in enumerate(ctx.wp)
            ],
            "products": [
                {"left": f"s{i}", "right": f"s{j}",
                 "terms": [
                     {"coeff": c, "t": e, "q": d, "class": f"s{k}"}
                     for d, e, k, c in _render_terms(table, i, j)
                 ]}
                for i in range(n) for j in range(i, n)
            ],
        }
        return json.dumps(obj, indent=2) + "\n"
    raise ValueError(f"unknown format {fmt!r}")
