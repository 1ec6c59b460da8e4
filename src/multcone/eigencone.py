"""Inequality systems for the multiplicative eigenvalue polytope.

A point of the polytope is an n-tuple of alcove points; the defining
inequalities pair a maximal parabolic, a tuple of coset representatives and
a curve degree, and are generated exactly when the degree-zero-specialized
n-point coefficient equals 1.  The undeformed enumeration (plain n-point
invariant equal to 1) is kept alongside as the baseline; the deformed list
is always a subset of it.

Everything here runs on exact rationals, including the simplex solver used
for the irredundancy certificates.
"""

import itertools
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

from .exact import row_reduce
from .root_system import RootSystem, Weight, CartanPoint
from .weyl import minimal_reps
from .quantum_ring import build_structure_table, gw_invariant
from .deformed_ring import _specialized_tuple_coeff

__all__ = [
    "Inequality", "Alcove", "alcove", "structure_table",
    "generate_inequalities", "baseline_inequalities",
    "membership", "MembershipVerdict",
    "irredundancy_check", "IrredundancyReport", "Certificate",
    "distinctness_check", "DistinctnessReport",
    "inequality_to_obj", "inequality_from_obj",
    "points_to_obj", "points_from_obj",
]


@dataclass(frozen=True)
class Inequality:
    """One linear condition on an n-tuple of alcove points.

    Evaluates as sum_k (u_k omega_P)(mu_k) <= d; the weights are stored
    already moved by the u_k, the words identify the generating tuple.
    """
    parabolic: int
    words: tuple
    d: int
    lhs_weights: tuple
    rhs: int

    def slack(self, rs: RootSystem, points):
        """rhs minus the left side; negative means violated."""
        total = Fraction(0)
        for wgt, pt in zip(self.lhs_weights, points):
            total += rs.weight_value(wgt, pt)
        return Fraction(self.rhs) - total

    def key(self):
        return (self.parabolic, self.d, self.words)

    def __str__(self):
        from .weyl import render_word
        tup = ", ".join(render_word(w) for w in self.words)
        return f"P{self.parabolic}; ({tup}); d={self.d}"


@dataclass(frozen=True)
class Alcove:
    """The closed fundamental alcove as a list of <=-constraints on the
    coordinates m_j: nonnegativity of each m_j and the highest-root bound.
    """
    rs: RootSystem
    constraints: tuple  # ((coeffs, rhs), ...) meaning sum coeffs*m <= rhs

    def barycenter(self):
        theta = self.rs.highest_root
        c = Fraction(1, 2 * sum(theta))
        return CartanPoint(tuple(c for _ in range(self.rs.rank)))


def alcove(rs: RootSystem) -> Alcove:
    n = rs.rank
    cons = []
    for j in range(n):
        cons.append((tuple(Fraction(-int(k == j)) for k in range(n)), Fraction(0)))
    cons.append((tuple(Fraction(t) for t in rs.highest_root), Fraction(1)))
    out = Alcove(rs, tuple(cons))
    assert len(out.constraints) == n + 1
    bary = out.barycenter()
    for coeffs, rhs in out.constraints:
        val = sum(a * m for a, m in zip(coeffs, bary.coords))
        assert val < rhs, "barycenter must be strictly interior"
    return out


_TABLES = {}


def structure_table(rs: RootSystem, ip):
    """The quantum table of the maximal parabolic dropping alpha_ip, cached
    per (type, rank, ip) for reuse across enumerations."""
    key = (rs.type_label, rs.rank, int(ip))
    if key not in _TABLES:
        _TABLES[key] = build_structure_table(minimal_reps(rs, {int(ip)}))
    return _TABLES[key]


def register_table(table):
    """Install an externally constructed table (e.g. one restored from
    disk) so later enumerations reuse it."""
    ctx = table.ctx
    (ip,) = sorted(ctx.s_p)
    rs = ctx.group.rs
    _TABLES[(rs.type_label, rs.rank, ip)] = table
    return table


def _enumerate_system(rs, n, keep):
    if n < 2:
        raise ValueError("need n >= 2 tensor factors")
    out = []
    for ip in range(1, rs.rank + 1):
        table = structure_table(rs, ip)
        ctx = table.ctx
        qdeg = table.q_degrees[0]
        omega = rs.fundamental_weight(ip)
        # forced cap: total codimension is at most n*dim
        cap = ((n - 1) * ctx.dim) // qdeg
        for d in range(cap + 1):
            need = ctx.dim + d * qdeg
            for tup in itertools.product(ctx.wp, repeat=n):
                if sum(ctx.codim(u) for u in tup) != need:
                    continue
                if not keep(table, tup, (d,)):
                    continue
                out.append(Inequality(
                    parabolic=ip,
                    words=tuple(u.word for u in tup),
                    d=d,
                    lhs_weights=tuple(u.act(omega) for u in tup),
                    rhs=d))
    out.sort(key=lambda q: q.key())
    return out


def generate_inequalities(rs: RootSystem, n):
    """All inequalities whose specialized n-point coefficient is exactly 1,
    over every maximal parabolic, sorted by (parabolic, d, words)."""
    return _enumerate_system(
        rs, n, lambda t, tup, dd: _specialized_tuple_coeff(t, tup, dd) == 1)


def baseline_inequalities(rs: RootSystem, n):
    """The undeformed enumeration: plain n-point invariant exactly 1.  The
    deformed list is a subset of this one."""
    return _enumerate_system(
        rs, n, lambda t, tup, dd: gw_invariant(t, tup, dd) == 1)


# --- membership -------------------------------------------------------------

@dataclass(frozen=True)
class MembershipVerdict:
    status: str          # "inside" | "boundary" | "outside"
    violated: tuple
    tight: tuple


def membership(rs: RootSystem, n, points, inequalities) -> MembershipVerdict:
    """Exact verdict for an n-tuple of alcove points against a list of
    inequalities; every point must lie in the closed alcove."""
    points = tuple(points)
    if len(points) != n:
        raise ValueError(f"expected {n} points, got {len(points)}")
    for k, p in enumerate(points):
        if len(p.coords) != rs.rank:
            raise ValueError(f"point {k + 1} has {len(p.coords)} coordinates, "
                             f"expected {rs.rank}")
        if not rs.in_alcove(p):
            raise ValueError(f"point {k + 1} is not in the fundamental alcove")
    violated, tight = [], []
    for q in inequalities:
        s = q.slack(rs, points)
        if s < 0:
            violated.append(q)
        elif s == 0:
            tight.append(q)
    status = "outside" if violated else ("boundary" if tight else "inside")
    return MembershipVerdict(status, tuple(violated), tuple(tight))


# --- exact simplex ----------------------------------------------------------

class _Simplex:
    """Primal simplex over the rationals with Bland's anti-cycling rule.

    Constraints A x <= b with x >= 0 and b >= 0, so the slack basis starts
    feasible and no phase-1 is needed.  maximize() can be called repeatedly
    with different objectives; freezing the nonbasic columns that carry a
    negative reduced cost restricts later calls to the current optimal face.
    """

    MAX_PIVOTS = 200000

    def __init__(self, a_rows, b):
        self.nvars = len(a_rows[0]) if a_rows else 0
        self.m = len(a_rows)
        assert all(v >= 0 for v in b), "single-phase start needs b >= 0"
        self.rows = []
        for i, row in enumerate(a_rows):
            r = [Fraction(v) for v in row]
            r += [Fraction(int(k == i)) for k in range(self.m)]
            r.append(Fraction(b[i]))
            self.rows.append(r)
        self.total = self.nvars + self.m
        self.basis = list(range(self.nvars, self.total))
        self.obj = None

    def _pivot(self, pr, pc):
        row = self.rows[pr]
        inv = Fraction(1) / row[pc]
        row = [v * inv for v in row]
        self.rows[pr] = row
        for r in range(self.m):
            if r != pr and self.rows[r][pc]:
                f = self.rows[r][pc]
                self.rows[r] = [a - f * b for a, b in zip(self.rows[r], row)]
        if self.obj[pc]:
            f = self.obj[pc]
            self.obj = [a - f * b for a, b in zip(self.obj, row)]
        self.basis[pr] = pc

    def maximize(self, costs, frozen=frozenset()):
        obj = [Fraction(v) for v in costs]
        obj += [Fraction(0)] * (self.m + 1)
        for r, bj in enumerate(self.basis):
            if obj[bj]:
                f = obj[bj]
                obj = [a - f * b for a, b in zip(obj, self.rows[r])]
        self.obj = obj
        for _ in range(self.MAX_PIVOTS):
            pc = next((j for j in range(self.total)
                       if j not in frozen and self.obj[j] > 0), None)
            if pc is None:
                return -self.obj[-1]
            best = None
            for r in range(self.m):
                a = self.rows[r][pc]
                if a > 0:
                    ratio = self.rows[r][-1] / a
                    cand = (ratio, self.basis[r], r)
                    if best is None or cand[:2] < best[:2]:
                        best = cand
            if best is None:
                raise RuntimeError("linear program unbounded; the alcove "
                                   "constraints should make it compact")
            self._pivot(best[2], pc)
        raise RuntimeError("simplex pivot guard exceeded")

    def frozen_nonbasic(self):
        basic = set(self.basis)
        return frozenset(j for j in range(self.total)
                         if j not in basic and self.obj[j] < 0)

    def solution(self):
        x = [Fraction(0)] * self.nvars
        for r, bj in enumerate(self.basis):
            if bj < self.nvars:
                x[bj] = self.rows[r][-1]
        return tuple(x)


def _affine_rank(points):
    if len(points) < 2:
        return 0
    base = points[0]
    rows = [({j: a - b for j, (a, b) in enumerate(zip(p, base))}, {})
            for p in points[1:]]
    pivots, _ = row_reduce(rows, len(base))
    return len(pivots)


# --- irredundancy -----------------------------------------------------------

@dataclass(frozen=True)
class Certificate:
    inequality: Inequality
    certified: bool
    method: str        # "separating-point" | "facet-witness" | "dominated" | "uncertified"
    optimum: Fraction
    witness: tuple     # flat coordinates of a point violating only this one, or ()


@dataclass(frozen=True)
class IrredundancyReport:
    certificates: tuple

    @property
    def failures(self):
        return tuple(c for c in self.certificates if not c.certified)

    @property
    def all_certified(self):
        return not self.failures


def _ineq_row(rs, q, n):
    row = [Fraction(0)] * (n * rs.rank)
    for k, wgt in enumerate(q.lhs_weights):
        for j, c in enumerate(rs.root_coords(wgt)):
            row[k * rs.rank + j] += c
    return row


def _certify_payload(payload):
    """Certify one inequality from plain row data (safe to run in a worker).

    payload = (objective row, constraint rows, rhs column, own rhs, nvars).
    First try to exceed the hyperplane while honoring every other
    constraint; if the optimum only reaches it, fall back to certifying the
    tight face as a facet by spanning it with stage-2 vertices.
    """
    obj, a_rows, b, rhs, nvars = payload
    lp = _Simplex(a_rows, b)
    opt = lp.maximize(obj)
    if opt > rhs:
        return (True, "separating-point", opt, lp.solution())
    if opt < rhs:
        return (False, "dominated", opt, ())
    face_lp = _Simplex(a_rows + [obj], b + [Fraction(rhs)])
    top = face_lp.maximize(obj)
    assert top == rhs
    frozen = face_lp.frozen_nonbasic()
    seen = []
    for j in range(nvars):
        for sign in (1, -1):
            direction = [Fraction(0)] * nvars
            direction[j] = Fraction(sign)
            face_lp.maximize(direction, frozen=frozen)
            pt = face_lp.solution()
            if pt not in seen:
                seen.append(pt)
    if _affine_rank(seen) == nvars - 1:
        return (True, "facet-witness", opt, ())
    return (False, "uncertified", opt, ())


def irredundancy_check(rs: RootSystem, n, inequalities, workers=None) -> IrredundancyReport:
    """One exact LP per inequality: maximize its left side subject to all
    the others plus the alcove constraints.  An optimum beyond the right
    side yields a point violating only that inequality; an optimum exactly
    on it falls back to a facet certificate."""
    if n < 3:
        warnings.warn("with fewer than three factors the region can have "
                      "empty interior; irredundancy certificates are then "
                      "meaningless", stacklevel=2)
    inequalities = list(inequalities)
    alc = alcove(rs)
    theta = [Fraction(t) for t in rs.highest_root]
    nvars = n * rs.rank

    payloads = []
    for j, q in enumerate(inequalities):
        a_rows, b = [], []
        for k in range(n):
            row = [Fraction(0)] * nvars
            for jj in range(rs.rank):
                row[k * rs.rank + jj] = theta[jj]
            a_rows.append(row)
            b.append(Fraction(1))
        for i, other in enumerate(inequalities):
            if i != j:
                a_rows.append(_ineq_row(rs, other, n))
                b.append(Fraction(other.rhs))
        payloads.append((_ineq_row(rs, q, n), a_rows, b, Fraction(q.rhs), nvars))

    if workers and workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_certify_payload, payloads))
    else:
        results = [_certify_payload(p) for p in payloads]

    certs = tuple(
        Certificate(q, ok, method, opt, witness)
        for q, (ok, method, opt, witness) in zip(inequalities, results))
    return IrredundancyReport(certs)


# --- distinctness -----------------------------------------------------------

@dataclass(frozen=True)
class DistinctnessReport:
    pairs: tuple   # index pairs with proportional (lhs, rhs) vectors

    @property
    def passed(self):
        return not self.pairs


def distinctness_check(inequalities) -> DistinctnessReport:
    """Report every pair of inequalities whose full coefficient vectors
    (all weight coordinates plus the right side) are proportional over the
    rationals."""
    canon = {}
    pairs = []
    for idx, q in enumerate(inequalities):
        vec = [c for wgt in q.lhs_weights for c in wgt.coords]
        vec.append(Fraction(q.rhs))
        scale = next((v for v in vec if v != 0), None)
        assert scale is not None, "inequality with an all-zero form"
        key = tuple(Fraction(v) / scale for v in vec)
        if key in canon:
            pairs.append((canon[key], idx))
        else:
            canon[key] = idx
    return DistinctnessReport(tuple(pairs))


# --- JSON forms -------------------------------------------------------------

def inequality_to_obj(rs: RootSystem, n, q: Inequality):
    return {
        "type": rs.type_label,
        "rank": rs.rank,
        "n": n,
        "parabolic": q.parabolic,
        "u": [list(w) for w in q.words],
        "d": q.d,
        "lhs": [[str(c) for c in wgt.coords] for wgt in q.lhs_weights],
        "rhs": q.rhs,
    }


def inequality_from_obj(rs: RootSystem, obj) -> Inequality:
    if obj.get("type") != rs.type_label or obj.get("rank") != rs.rank:
        raise ValueError("inequality belongs to a different root system")
    words = tuple(tuple(int(i) for i in w) for w in obj["u"])
    weights = tuple(Weight(tuple(Fraction(c) for c in row)) for row in obj["lhs"])
    return Inequality(parabolic=int(obj["parabolic"]), words=words,
                      d=int(obj["d"]), lhs_weights=weights, rhs=int(obj["rhs"]))


def points_to_obj(points):
    return {"points": [[str(m) for m in p.coords] for p in points]}


def points_from_obj(rs: RootSystem, obj):
    if not isinstance(obj, dict) or "points" not in obj:
        raise ValueError('point file must be an object with a "points" list')
    out = []
    for k, row in enumerate(obj["points"]):
        if len(row) != rs.rank:
            raise ValueError(f"point {k + 1} has {len(row)} coordinates, "
                             f"expected {rs.rank}")
        try:
            coords = tuple(Fraction(str(v)) for v in row)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"point {k + 1}: {exc}") from exc
        out.append(CartanPoint(coords))
    return out
