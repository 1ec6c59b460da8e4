"""Gauss-Jordan elimination over Fractions: the reference that the
fraction-free multcone.exact.solve is checked against.

Same interface, column order and pivot rule (the sparsest unused row that
has the column, first in list order), but each pivot row is scaled to a
leading 1 and every other row reduced by a rational multiple of it.  This
module is test-only.
"""

from fractions import Fraction

from multcone.exact import poly_add


def solve_reference(rows, ncols, fail_msg):
    rows = [({j: Fraction(c) for j, c in coeffs.items() if c},
             {k: Fraction(v) for k, v in rhs.items() if v})
            for coeffs, rhs in rows]
    pivots = []
    for j in range(ncols):
        pr = min((r for r, (coeffs, _) in enumerate(rows) if j in coeffs),
                 key=lambda r: len(rows[r][0]), default=None)
        if pr is None:
            raise RuntimeError(fail_msg())
        coeffs, rhs = rows.pop(pr)
        inv = 1 / coeffs[j]
        coeffs = {k: c * inv for k, c in coeffs.items()}
        rhs = {k: v * inv for k, v in rhs.items()}
        for tc, trhs in [row for row in rows + pivots if j in row[0]]:
            f = tc[j]
            poly_add(tc, coeffs, -f)
            poly_add(trhs, rhs, -f)
        pivots.append((coeffs, rhs))
    assert not any(any(rhs.values()) for _, rhs in rows), \
        "inconsistent linear relations; internal error"
    return [rhs for _, rhs in pivots]


def invert_reference(mat):
    """The inverse of a square integer matrix, column by column."""
    n = len(mat)
    rows = [(dict(enumerate(row)), {i: 1}) for i, row in enumerate(mat)]
    cols = solve_reference(rows, n, lambda: "singular matrix")
    return tuple(tuple(Fraction(col.get(i, 0)) for i in range(n))
                 for col in cols)
