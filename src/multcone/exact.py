"""Exact arithmetic shared by every layer.

Polynomials are dicts mapping a key (for products, a (class, q-exponent
tuple) pair) to a nonzero integer or Fraction coefficient.  Linear systems
are lists of sparse rows ({column: coeff}, rhs) whose right sides are such
dicts, so one elimination in solve finds the unique solution for any number
of right-hand sides at once.
"""

from fractions import Fraction

__all__ = ["as_int", "poly_add", "poly_mul", "solve"]


def as_int(x):
    if type(x) is int:
        return x
    f = Fraction(x)
    if f.denominator != 1:
        raise AssertionError(f"expected an integer, got {f}")
    return int(f)


def poly_add(dst, src, scale=1):
    """dst += scale * src in place, dropping coefficients that cancel."""
    for key, c in src.items():
        v = dst.get(key, 0) + scale * c
        if v:
            dst[key] = v
        else:
            dst.pop(key, None)
    return dst


def poly_mul(poly, products, u, cap=None):
    """Multiply a {(w, d): coeff} combination of classes by the class u.

    products[(w, u)] is the product of the basis classes w and u as a
    {(w', d'): coeff} dict.  cap, if given, is a componentwise bound on the
    exponents; terms beyond it are dropped (they cannot contribute to the
    coefficients being extracted).
    """
    out = {}
    for (w, d), c in poly.items():
        for (w2, d2), c2 in products[(w, u)].items():
            nd = tuple(a + b for a, b in zip(d, d2))
            if cap is not None and any(a > b for a, b in zip(nd, cap)):
                continue
            key = (w2, nd)
            v = out.get(key, 0) + c * c2
            if v:
                out[key] = v
            else:
                del out[key]
    return out


def solve(rows, ncols, fail_msg):
    """The unique solution of a square-or-overdetermined system by
    Gauss-Jordan elimination over the rationals: one rhs-shaped dict per
    unknown.

    rows is a list of (coeffs, rhs): coeffs a {column: coeff} map over
    columns 0..ncols-1, rhs a dict-valued right side.  Columns are taken in
    order, each pivoting on the sparsest unused row that has it (which
    keeps fill-in down).  Raises RuntimeError(fail_msg()) at the first
    column with no nonzero entry left among the unused rows, and
    AssertionError if the system is inconsistent.
    """
    rows = [({j: c for j, c in coeffs.items() if c},
             {k: v for k, v in rhs.items() if v}) for coeffs, rhs in rows]
    pivots = []
    for j in range(ncols):
        pr = min((r for r, (coeffs, _) in enumerate(rows) if j in coeffs),
                 key=lambda r: len(rows[r][0]), default=None)
        if pr is None:
            raise RuntimeError(fail_msg())
        coeffs, rhs = rows.pop(pr)
        inv = Fraction(1) / coeffs[j]
        coeffs = {k: c * inv for k, c in coeffs.items()}
        rhs = {k: v * inv for k, v in rhs.items()}
        targets = [row for row in rows if j in row[0]]
        targets += [row for row in pivots if j in row[0]]
        for tc, trhs in targets:
            f = tc[j]
            poly_add(tc, coeffs, -f)
            poly_add(trhs, rhs, -f)
        pivots.append((coeffs, rhs))
    # the unused rows now have all-zero coefficients
    assert not any(any(rhs.values()) for _, rhs in rows), \
        "inconsistent linear relations; internal error"
    return [rhs for _, rhs in pivots]
