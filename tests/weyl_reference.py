"""The full Weyl group by breadth-first closure of matrix products: the
independent reference the orbit walk of multcone.weyl is checked against.

Words are appended on the right in ascending generator order, one length
at a time, so the first word to reach an element is its lexicographically
minimal reduced word.  This module is test-only; the program never builds
the whole group.
"""

from multcone.exact import as_int
from multcone.root_system import RootSystem
from multcone.weyl import (DEFAULT_GROUP_BOUND, WeylElement, _matmul,
                           weyl_order)


def _simple_matrices(rs: RootSystem):
    n = rs.rank
    mats = []
    for k in range(n):
        # s_k: f |-> f - f_k * (fundamental coordinates of alpha_k)
        mats.append(tuple(tuple((1 if i == j else 0) - (rs.cartan[i][k] if j == k else 0)
                                for j in range(n)) for i in range(n)))
    return tuple(mats)


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
