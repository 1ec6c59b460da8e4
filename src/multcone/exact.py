"""Exact arithmetic shared by every layer.

Polynomials are dicts mapping a key (for products, a (class, q-exponent
tuple) pair) to a nonzero integer or Fraction coefficient.  Linear systems
are lists of sparse integer rows ({column: coeff}, rhs) whose right sides
are such dicts, so one fraction-free elimination in solve finds the unique
solution, as Fractions, for any number of right-hand sides at once.
"""

from fractions import Fraction
from math import gcd
from operator import add, gt

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
            nd = tuple(map(add, d, d2))
            if cap is not None and any(map(gt, nd, cap)):
                continue
            key = (w2, nd)
            v = out.get(key, 0) + c * c2
            if v:
                out[key] = v
            else:
                del out[key]
    return out


def solve(rows, ncols, fail_msg):
    """The unique solution of a square-or-overdetermined integer system by
    fraction-free Gauss-Jordan elimination: one rhs-shaped dict of
    Fractions per unknown.

    rows is a list of (coeffs, rhs): coeffs a {column: coeff} map over
    columns 0..ncols-1, rhs a dict-valued right side, every entry an
    integer.  Columns are taken in order, each pivoting on the sparsest
    unused row that has it, first in list order (which keeps fill-in down).
    A row t with entry f in the pivot column of a row p with pivot a
    becomes t*(a/g) - p*(f/g), g = gcd(a, f), and is then divided by the
    gcd of its entries, so every row stays an integer multiple of the row
    that elimination over the rationals would hold, with the same nonzero
    entries, and the pivots are the same.  Raises RuntimeError(fail_msg())
    at the first column with no nonzero entry left among the unused rows,
    and AssertionError if the system is inconsistent.
    """
    rows = [({j: c for j, c in coeffs.items() if c},
             {k: v for k, v in rhs.items() if v}) for coeffs, rhs in rows]
    pivots = []
    for j in range(ncols):
        # the unused rows that hold column j, found in one pass
        holding = [r for r, row in enumerate(rows) if j in row[0]]
        if not holding:
            raise RuntimeError(fail_msg())
        pr = min(holding, key=lambda r: len(rows[r][0]))
        targets = [rows[r] for r in holding if r != pr]
        targets += [row for row in pivots if j in row[0]]
        coeffs, rhs = rows.pop(pr)
        a = coeffs[j]
        for tc, trhs in targets:
            f = tc[j]
            g = gcd(a, f)
            ta, tf = a // g, f // g
            if ta != 1:
                for k in tc:
                    tc[k] *= ta
                for k in trhs:
                    trhs[k] *= ta
            poly_add(tc, coeffs, -tf)
            poly_add(trhs, rhs, -tf)
            g = gcd(*tc.values(), *trhs.values())
            if g > 1:
                for k in tc:
                    tc[k] //= g
                for k in trhs:
                    trhs[k] //= g
        pivots.append((coeffs, rhs))
    # the unused rows now have all-zero coefficients
    assert not any(any(rhs.values()) for _, rhs in rows), \
        "inconsistent linear relations; internal error"
    # each pivot row now reads coeffs[j] * x_j = rhs
    return [{k: Fraction(v, coeffs[j]) for k, v in rhs.items()}
            for j, (coeffs, rhs) in enumerate(pivots)]
