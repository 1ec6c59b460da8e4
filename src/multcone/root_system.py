"""Exact root-system data for the simple types A-G.

Everything is integer or Fraction arithmetic; no floats. Simple roots are
indexed 1..rank following the Bourbaki planches (so e.g. in type B the last
root is short, in type C the last root is long, in G2 the first root is
short). Weights are stored in fundamental-weight coordinates, points of the
Cartan subalgebra in "simple-root value" coordinates m_j = alpha_j(mu).
"""

from dataclasses import dataclass
from fractions import Fraction

from .exact import solve

__all__ = [
    "Weight", "CartanPoint", "RootSystem", "build_root_system",
    "check_simple_type", "killing_form", "kappa", "kappa_inv",
]


@dataclass(frozen=True)
class Weight:
    """A weight in fundamental-weight coordinates: coords[i] = lambda(alpha_{i+1}^vee)."""
    coords: tuple

    # weights key the compiled-coordinate table, one lookup per factor of
    # every inequality, so the Fraction tuple is hashed once per object
    _hash = None

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.coords,))
            object.__setattr__(self, "_hash", h)
        return h

    def __reduce__(self):
        return (Weight, (self.coords,))

    def __add__(self, other):
        return Weight(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other):
        return Weight(tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __rmul__(self, c):
        return Weight(tuple(Fraction(c) * a for a in self.coords))

    def __neg__(self):
        return Weight(tuple(-a for a in self.coords))


@dataclass(frozen=True)
class CartanPoint:
    """A point mu of the Cartan subalgebra, stored as m_j = alpha_j(mu).

    mu = sum_j m_j x_j where the x_j are the coweights dual to the simple
    roots, so lambda(mu) = sum_j m_j * (coefficient of alpha_j in lambda).
    """
    coords: tuple

    def __add__(self, other):
        return CartanPoint(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other):
        return CartanPoint(tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __rmul__(self, c):
        return CartanPoint(tuple(Fraction(c) * a for a in self.coords))


# height of the highest root, by type; doubles as the closure cap for the
# root-string enumeration (no root lives above this height)
_THETA_HEIGHT = {
    "A": lambda n: n,
    "B": lambda n: 2 * n - 1,
    "C": lambda n: 2 * n - 1,
    "D": lambda n: 2 * n - 3,
    "E": lambda n: {6: 11, 7: 17, 8: 29}[n],
    "F": lambda n: 11,
    "G": lambda n: 5,
}

_VALID_RANK = {
    "A": lambda n: n >= 1,
    "B": lambda n: n >= 2,
    "C": lambda n: n >= 2,
    "D": lambda n: n >= 3,
    "E": lambda n: n in (6, 7, 8),
    "F": lambda n: n == 4,
    "G": lambda n: n == 2,
}


def _bonds(type_label, n):
    """Dynkin bonds as (i, j, a_ij, a_ji) with a_ij = alpha_j(alpha_i^vee), 0-indexed."""
    simple = lambda i, j: (i, j, -1, -1)
    if type_label == "A":
        return [simple(k, k + 1) for k in range(n - 1)]
    if type_label == "B":
        # alpha_n short: alpha_{n-1}(alpha_n^vee) = -2
        out = [simple(k, k + 1) for k in range(n - 2)]
        out.append((n - 2, n - 1, -1, -2))
        return out
    if type_label == "C":
        # alpha_n long: alpha_n(alpha_{n-1}^vee) = -2
        out = [simple(k, k + 1) for k in range(n - 2)]
        out.append((n - 2, n - 1, -2, -1))
        return out
    if type_label == "D":
        out = [simple(k, k + 1) for k in range(n - 2)]
        out.append(simple(n - 3, n - 1))
        return out
    if type_label == "E":
        # chain 1-3-4-5-6(-7-8), node 2 hangs off node 4
        chain = [0, 2, 3, 4, 5, 6, 7][: n - 1]
        out = [simple(a, b) for a, b in zip(chain, chain[1:])]
        out.append(simple(1, 3))
        return out
    if type_label == "F":
        # alpha_1, alpha_2 long; alpha_3, alpha_4 short
        return [simple(0, 1), (1, 2, -1, -2), simple(2, 3)]
    if type_label == "G":
        # alpha_1 short, alpha_2 long: alpha_2(alpha_1^vee) = -3
        return [(0, 1, -3, -1)]
    raise AssertionError(type_label)


def check_simple_type(type_label, rank):
    """Raise ValueError unless (type_label, rank) names a simple type."""
    if type_label not in _VALID_RANK or not _VALID_RANK[type_label](rank):
        raise ValueError(f"unknown or invalid simple type ({type_label!r}, {rank})")


def _invert(mat):
    """Exact inverse of a square matrix: one solve against the identity."""
    n = len(mat)
    rows = [(dict(enumerate(row)), {i: 1}) for i, row in enumerate(mat)]
    cols = solve(rows, n, lambda: "singular matrix")
    return tuple(tuple(Fraction(col.get(i, 0)) for i in range(n)) for col in cols)


class RootSystem:
    """Immutable container for one simple type at a fixed rank.

    cartan[i][j] = alpha_{j+1}(alpha_{i+1}^vee), so row i collects the values
    of all simple roots on the i-th simple coroot. positive_roots hold
    simple-root coordinates (integer tuples).
    """

    def __init__(self, type_label, rank):
        check_simple_type(type_label, rank)
        self.type_label = type_label
        self.rank = rank
        n = rank

        cartan = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
        for i, j, aij, aji in _bonds(type_label, n):
            cartan[i][j] = aij
            cartan[j][i] = aji
        self.cartan = tuple(tuple(row) for row in cartan)

        self.positive_roots = self._close_roots()
        self.highest_root = self._find_theta()

        # symmetrizer: d_i = <alpha_i,alpha_i>/2, fixed by d_i*a_ij = d_j*a_ji
        # along bonds, then scaled so that <theta,theta> = 2
        d = [None] * n
        d[0] = Fraction(1)
        pending = [0]
        bonds = _bonds(type_label, n)
        while pending:
            i = pending.pop()
            for a, b, *_ in bonds:
                for p, q in ((a, b), (b, a)):
                    if p == i and d[q] is None:
                        d[q] = d[p] * Fraction(cartan[p][q], cartan[q][p])
                        pending.append(q)
        # the form is linear in d, so <theta,theta> under the unscaled d
        # gives the scale
        self._d = tuple(d)
        scale = Fraction(2) / self.form_on_root_coords(self.highest_root,
                                                        self.highest_root)
        self._d = tuple(x * scale for x in d)
        self.form_norm = tuple(self.form_on_root_coords(a, a) for a in self.positive_roots)
        # beta(alpha_i^vee) for every positive root beta, read by the Weyl layer
        self.root_fund = {r: tuple(self.root_pairing(r, i) for i in range(1, n + 1))
                          for r in self.positive_roots}
        # and back: a root is positive iff its coordinates are a key here
        self.fund_root = {f: r for r, f in self.root_fund.items()}

        self.inverse_cartan = _invert(self.cartan)

        self.rho = Weight(tuple(Fraction(1) for _ in range(n)))
        theta_cov = self.coroot(self.highest_root)
        gstar = 1 + sum(theta_cov)
        if gstar.denominator != 1:
            raise AssertionError("dual Coxeter number must be an integer")
        self.dual_coxeter = int(gstar)

    def _close_roots(self):
        n = self.rank
        cap = _THETA_HEIGHT[self.type_label](n)
        roots = {tuple(int(i == j) for j in range(n)) for i in range(n)}
        by_height = {1: sorted(roots)}
        for h in range(1, cap):
            nxt = []
            for beta in by_height.get(h, ()):
                for i in range(n):
                    # root string: beta + alpha_i is a root iff p - beta(alpha_i^vee) > 0
                    p = 0
                    while True:
                        down = list(beta)
                        down[i] -= p + 1
                        if min(down) < 0 or tuple(down) not in roots:
                            break
                        p += 1
                    pairing = sum(c * self.cartan[i][j] for j, c in enumerate(beta))
                    if p - pairing > 0:
                        up = list(beta)
                        up[i] += 1
                        up = tuple(up)
                        if up not in roots:
                            roots.add(up)
                            nxt.append(up)
            if nxt:
                by_height[h + 1] = sorted(nxt)
        return tuple(sorted(roots, key=lambda r: (sum(r), r)))

    def _find_theta(self):
        top = max(self.positive_roots, key=sum)
        h = sum(top)
        if sum(1 for r in self.positive_roots if sum(r) == h) != 1:
            raise AssertionError("highest root is not unique")
        for r in self.positive_roots:
            if any(t - c < 0 for t, c in zip(top, r)):
                raise AssertionError("highest root not dominant over all roots")
        return top

    def form_on_root_coords(self, c1, c2):
        # <beta,gamma> for simple-root coordinates; (alpha_i,alpha_j) = d_i*a_ij
        tot = Fraction(0)
        for i, a in enumerate(c1):
            if a == 0:
                continue
            for j, b in enumerate(c2):
                if b == 0:
                    continue
                tot += a * b * self._d[i] * self.cartan[i][j]
        return tot

    # --- coordinate conversions -------------------------------------------

    def root_coords(self, w: Weight):
        """Simple-root coordinates of a weight (exact, via the inverse Cartan matrix)."""
        return tuple(sum(self.inverse_cartan[i][j] * w.coords[j]
                         for j in range(self.rank)) for i in range(self.rank))

    def weight_from_root_coords(self, c):
        return Weight(tuple(sum(Fraction(c[j]) * self.cartan[i][j]
                                for j in range(self.rank)) for i in range(self.rank)))

    def fundamental_weight(self, i):
        """omega_i, 1-indexed."""
        return Weight(tuple(Fraction(int(j == i - 1)) for j in range(self.rank)))

    def simple_root(self, i):
        """alpha_i as a Weight, 1-indexed."""
        return self.weight_from_root_coords(tuple(int(j == i - 1) for j in range(self.rank)))

    def coroot(self, root):
        """Coordinates of beta^vee on the simple coroots: c_j * <a_j,a_j>/<b,b>."""
        norm = self.form_on_root_coords(root, root)
        return tuple(Fraction(c) * 2 * self._d[j] / norm for j, c in enumerate(root))

    def pair_weight_coroot(self, w: Weight, coroot_coords):
        """lambda(beta^vee) from coroot coordinates; lambda(alpha_i^vee) = coords[i]."""
        return sum(f * c for f, c in zip(w.coords, coroot_coords))

    def root_pairing(self, root, i):
        """beta(alpha_i^vee) for beta in root coordinates, i 1-indexed."""
        return sum(c * self.cartan[i - 1][j] for j, c in enumerate(root))

    # --- evaluation on Cartan points --------------------------------------

    def weight_value(self, w: Weight, pt: CartanPoint):
        """lambda(mu) = sum_j m_j * (j-th simple-root coordinate of lambda)."""
        c = self.root_coords(w)
        return sum(a * m for a, m in zip(c, pt.coords))

    def theta_value(self, pt: CartanPoint):
        return sum(Fraction(t) * m for t, m in zip(self.highest_root, pt.coords))

    def in_alcove(self, pt: CartanPoint):
        """mu lies in the fundamental alcove: alpha_j(mu) >= 0 and theta(mu) <= 1."""
        return all(m >= 0 for m in pt.coords) and self.theta_value(pt) <= 1

    def x_point(self, j):
        """x_j as a CartanPoint (all coordinates 0 except m_j = 1), 1-indexed."""
        return CartanPoint(tuple(Fraction(int(i == j - 1)) for i in range(self.rank)))

    def __repr__(self):
        return f"RootSystem({self.type_label}{self.rank})"


def build_root_system(type_label, rank):
    """Construct the root system; raises ValueError on an invalid (type, rank) pair."""
    return RootSystem(type_label, rank)


def killing_form(rs: RootSystem, lam: Weight, mu: Weight):
    """The invariant form on weights, normalized so the highest root has norm 2."""
    c = rs.root_coords(lam)
    # <lam,mu> = sum_i c_i(lam) * d_i * mu(alpha_i^vee)
    return sum(ci * di * fi for ci, di, fi in zip(c, rs._d, mu.coords))


def kappa(rs: RootSystem, lam: Weight):
    """Form identification of weights with Cartan points: alpha_j(kappa(lam)) = <alpha_j, lam>."""
    return CartanPoint(tuple(d * f for d, f in zip(rs._d, lam.coords)))


def kappa_inv(rs: RootSystem, pt: CartanPoint):
    return Weight(tuple(m / d for d, m in zip(rs._d, pt.coords)))
