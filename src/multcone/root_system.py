"""Exact root-system data for the simple types A-G.

Everything is integer or Fraction arithmetic; no floats. Simple roots are
indexed 1..rank following the Bourbaki planches (so e.g. in type B the last
root is short, in type C the last root is long, in G2 the first root is
short). Weights are stored in fundamental-weight coordinates, points of the
Cartan subalgebra in "simple-root value" coordinates m_j = alpha_j(mu).

The root data is read off the Cartan matrix.  The positive roots and
their coroots, integer vectors both, come from one closure of the simple
roots under the simple reflections that raise the height: every positive
root is reached that way, and beta -> beta^vee commutes with the
reflections (Humphreys, Introduction to Lie Algebras and Representation
Theory, section 10).  The symmetrizer d_i = <alpha_i, alpha_i>/2 is
theta^vee_i / theta_i for the highest root theta, because <theta, theta> = 2
makes theta^vee = sum_i theta_i d_i alpha_i^vee, and the dual Coxeter
number is 1 + sum_i theta^vee_i.
"""

from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .exact import solve

__all__ = [
    "Weight", "CartanPoint", "RootSystem", "build_root_system",
    "check_simple_type", "killing_form", "kappa", "kappa_inv",
]


@dataclass(frozen=True)
class Weight:
    """A weight in fundamental-weight coordinates: coords[i] = lambda(alpha_{i+1}^vee)."""
    coords: tuple

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

        self._coroots = self._close_roots()
        self.positive_roots = tuple(sorted(self._coroots, key=lambda r: (sum(r), r)))
        self.highest_root = theta = self._find_theta()
        theta_cov = self._coroots[theta]

        # symmetrizer: d_i = <alpha_i,alpha_i>/2 = theta^vee_i/theta_i
        self._d = tuple(Fraction(c, t) for c, t in zip(theta_cov, theta))
        self.form_norm = tuple(self.form_on_root_coords(a, a) for a in self.positive_roots)
        # beta(alpha_i^vee) for every positive root beta, read by the Weyl layer
        self.root_fund = {r: tuple(self.root_pairing(r, i) for i in range(1, n + 1))
                          for r in self.positive_roots}
        # and back: a root is positive iff its coordinates are a key here
        self.fund_root = {f: r for r, f in self.root_fund.items()}

        self.inverse_cartan = _invert(self.cartan)

        self.rho = Weight((1,) * n)
        self.dual_coxeter = 1 + sum(theta_cov)

    def _close_roots(self):
        """Every positive root beta, in simple-root coordinates, mapped to
        its coroot on the simple coroots: the simple roots closed under
        beta -> s_i beta = beta - beta(alpha_i^vee) alpha_i wherever
        beta(alpha_i^vee) < 0, the coroot carried along as
        s_i beta^vee = beta^vee - alpha_i(beta^vee) alpha_i^vee."""
        n, cartan = self.rank, self.cartan
        cocartan = tuple(zip(*cartan))
        units = [tuple(int(i == j) for j in range(n)) for i in range(n)]
        coroots = dict(zip(units, units))
        todo = list(units)
        while todo:
            beta = todo.pop()
            cov = coroots[beta]
            for i, row in enumerate(cartan):
                p = sum(map(mul, row, beta))
                if p >= 0:
                    continue
                up = beta[:i] + (beta[i] - p,) + beta[i + 1:]
                if up not in coroots:
                    q = sum(map(mul, cocartan[i], cov))
                    coroots[up] = cov[:i] + (cov[i] - q,) + cov[i + 1:]
                    todo.append(up)
        return coroots

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
        return Weight(tuple(int(j == i - 1) for j in range(self.rank)))

    def simple_root(self, i):
        """alpha_i as a Weight, 1-indexed."""
        return self.weight_from_root_coords(tuple(int(j == i - 1) for j in range(self.rank)))

    def coroot(self, root):
        """Coordinates of beta^vee on the simple coroots, for a root beta in
        simple-root coordinates; raises ValueError for any other vector."""
        root = tuple(root)
        if root in self._coroots:
            return self._coroots[root]
        neg = tuple(-c for c in root)
        if neg in self._coroots:
            return tuple(-c for c in self._coroots[neg])
        raise ValueError(f"{root} is not a root of {self!r}")

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
