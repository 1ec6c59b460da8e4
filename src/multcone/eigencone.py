"""Inequality systems for the multiplicative eigenvalue polytope.

A point of the polytope is an n-tuple of alcove points; the defining
inequalities pair a maximal parabolic, a tuple of coset representatives and
a curve degree, and are generated exactly when the degree-zero-specialized
n-point coefficient equals 1.  The undeformed enumeration (plain n-point
invariant equal to 1) is kept alongside as the baseline; the deformed list
is always a subset of it.

Everything here is exact.  An inequality list is compiled once, to integer
rows held as ids of their factor blocks, and every row is evaluated through
those ids: in membership, in row generation and in the re-check of every
separating point.  A generated list is enumerated and compiled once per
process and set of structure tables (generated_system).  The certificates' simplex pivots the rows in place, as a
fraction-free tableau whose pivots are those of a rational one.
"""

import itertools
import os
import re
import warnings
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from math import gcd, lcm
from operator import add, itemgetter, mul

from .root_system import RootSystem, Weight, CartanPoint
from .weyl import minimal_reps, render_word
from .quantum_ring import build_structure_table, gw_invariant
from .deformed_ring import _specialized_tuple_coeff

__all__ = [
    "Inequality", "structure_table",
    "generate_inequalities", "generated_system", "baseline_inequalities",
    "membership", "MembershipVerdict", "CompiledSystem", "compile_system",
    "irredundancy_check", "IrredundancyReport", "Certificate",
    "check_certificate",
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
        tup = ", ".join(render_word(w) for w in self.words)
        return f"P{self.parabolic}; ({tup}); d={self.d}"


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
    rs = ctx.rs
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
        codims = [ctx.codim(u) for u in ctx.wp]
        words = [u.word for u in ctx.wp]
        # one Weight object per class, shared by every inequality using it
        moved = [u.act(omega) for u in ctx.wp]
        # the n-point coefficients are symmetric under S_n (acceptance
        # criterion 10 checks this), so keep is asked once per multiset of
        # classes and its verdict holds for every ordering; the total
        # codimension dim + d * qdeg fixes the degree d
        for ms in itertools.combinations_with_replacement(
                range(len(ctx.wp)), n):
            d, rest = divmod(sum(codims[k] for k in ms) - ctx.dim, qdeg)
            if rest or d < 0 or not keep(
                    table, tuple(ctx.wp[k] for k in ms), (d,)):
                continue
            for perm in _distinct_orderings(ms):
                pick = itemgetter(*perm)
                out.append(Inequality(ip, pick(words), d, pick(moved), d))
    out.sort(key=Inequality.key)
    return out


def _distinct_orderings(ms):
    """Every distinct ordering of the sorted tuple ms, in lexicographic
    order (Knuth's algorithm L): each step costs O(len(ms)), so the work is
    proportional to the output, not to len(ms)!."""
    perm = list(ms)
    while True:
        yield tuple(perm)
        i = len(perm) - 2
        while i >= 0 and perm[i] >= perm[i + 1]:
            i -= 1
        if i < 0:
            return
        j = len(perm) - 1
        while perm[j] <= perm[i]:
            j -= 1
        perm[i], perm[j] = perm[j], perm[i]
        perm[i + 1:] = perm[:i:-1]


# (type, rank, n) -> [tables, inequalities, CompiledSystem or None]: the
# generated system of the tables structure_table returned when it was
# enumerated, compiled on the first generated_system request
_SYSTEMS = {}


def _generated(rs, n):
    """The memo entry of the generated system for n factors, enumerated
    afresh when structure_table no longer returns the tables it came from,
    so a replaced table never serves a stale system."""
    if n < 2:
        raise ValueError("need n >= 2 tensor factors")
    tables = tuple(structure_table(rs, ip) for ip in range(1, rs.rank + 1))
    key = (rs.type_label, rs.rank, n)
    entry = _SYSTEMS.get(key)
    if entry is None or entry[0] != tables:
        ineqs = _enumerate_system(
            rs, n,
            lambda t, tup, dd: _specialized_tuple_coeff(t, tup, dd) == 1)
        entry = _SYSTEMS[key] = [tables, tuple(ineqs), None]
    return entry


def generate_inequalities(rs: RootSystem, n):
    """All inequalities whose specialized n-point coefficient is exactly 1,
    over every maximal parabolic, sorted by (parabolic, d, words): a fresh
    list each call, enumerated once per process and set of tables."""
    return list(_generated(rs, n)[1])


def generated_system(rs: RootSystem, n):
    """The CompiledSystem of generate_inequalities(rs, n), compiled once per
    process and set of tables: every member, verify and oracle-compare
    call on one system reads the same compiled rows."""
    entry = _generated(rs, n)
    if entry[2] is None:
        entry[2] = compile_system(rs, n, entry[1])
    return entry[2]


def baseline_inequalities(rs: RootSystem, n):
    """The undeformed enumeration: plain n-point invariant exactly 1.  The
    deformed list is a subset of this one."""
    return _enumerate_system(
        rs, n, lambda t, tup, dd: gw_invariant(t, tup, dd) == 1)


# --- compiled system --------------------------------------------------------

@dataclass(frozen=True)
class CompiledSystem:
    """An inequality list compiled to integer rows over the n*rank alcove
    coordinates of an n-tuple.  row(i) = (coeffs, rhs) reads coeffs . x <=
    rhs and is inequalities[i] in simple-root coordinates times scales[i],
    the least positive integer that makes every coefficient integral.  It
    is n blocks, one per factor, and keys[i] = (rhs, id_0, ..., id_{n-1})
    its right side and block ids (48 distinct blocks at D4 n=4, for 8320
    rows).  A left half is a key's first n // 2 + 1 entries, a right half
    the others; left and right hold the distinct halves as columns (1200
    and 518 at D4 n=4), halves the columns of each row's two half numbers.
    membership and irredundancy_check take one in place of the list, so a
    caller checking many tuples against one list compiles it once, and
    generated_system compiles each generated list once per process."""
    n: int
    rank: int
    theta: tuple
    blocks: tuple
    keys: tuple
    left: tuple
    right: tuple
    halves: tuple
    scales: tuple
    inequalities: tuple

    def __len__(self):
        return len(self.inequalities)

    @cached_property
    def weights(self):
        """weights[i] is the lcm of the rows' nonzero squared norms over row
        i's, so excess**2 * weights[i] orders rows as excess**2 / norm
        does.  Taken on first use: only row generation ranks rows."""
        squares = [sum(c * c for c in block) for block in self.blocks]
        norms = [sum(map(squares.__getitem__, key[1:])) for key in self.keys]
        common = lcm(*{v for v in norms if v})
        return tuple(common // v if v else 0 for v in norms)

    def row(self, i):
        """Row i as the flat (coeffs, rhs) it stands for."""
        rhs, *ids = self.keys[i]
        return tuple(c for b in ids for c in self.blocks[b]), rhs


def compile_system(rs: RootSystem, n, inequalities) -> CompiledSystem:
    """The CompiledSystem of an inequality list, in integer arithmetic.

    The inverse Cartan matrix is cleared once per call to integer rows over
    one common denominator.  Each distinct weight goes through it once, to
    its simple-root coordinates as integers over one denominator in lowest
    terms, and it keeps the id of its block at every row scale it meets; a
    row is then one lookup per factor, one lcm and its halves.  Raises
    ValueError for an inequality without n factors or a weight without
    rank coordinates."""
    inequalities = tuple(inequalities)
    rank = rs.rank
    flat, inv_den = _integral([c for row in rs.inverse_cartan for c in row])
    inverse = [flat[i * rank:(i + 1) * rank] for i in range(rank)]
    # block -> id; fundamental coordinates -> (den, simple-root coordinates
    # times den, {scale: id of those coordinates times scale})
    ids, by_weight = {}, {}
    keys, scales = [], []
    left, right, halves = {}, {}, []
    for k, q in enumerate(inequalities):
        if len(q.lhs_weights) != n:
            raise ValueError(f"inequality {k + 1} has {len(q.lhs_weights)} "
                             f"factors, expected n={n}")
        entries = []
        for wgt in q.lhs_weights:
            entry = by_weight.get(wgt.coords)
            if entry is None:
                if len(wgt.coords) != rank:
                    raise ValueError(
                        f"inequality {k + 1} has a weight with "
                        f"{len(wgt.coords)} coordinates, expected {rank}")
                entry = by_weight[wgt.coords] = (
                    *_root_block(wgt.coords, inverse, inv_den), {})
            entries.append(entry)
        scale = lcm(*[den for den, _, _ in entries])
        key = [q.rhs * scale]
        for den, block, by_scale in entries:
            b = by_scale.get(scale)
            if b is None:
                b = by_scale[scale] = ids.setdefault(
                    tuple(c * (scale // den) for c in block), len(ids))
            key.append(b)
        key = tuple(key)
        keys.append(key)
        scales.append(scale)
        halves.append((left.setdefault(key[:n // 2 + 1], len(left)),
                       right.setdefault(key[n // 2 + 1:], len(right))))
    return CompiledSystem(
        n, rank, tuple(rs.highest_root), tuple(ids), tuple(keys),
        _columns(left, n // 2 + 1), _columns(right, n - n // 2),
        _columns(halves, 2), tuple(scales), inequalities)


def _compiled(rs, n, inequalities):
    """inequalities itself when it is a CompiledSystem, which must be one
    for n factors at rs's rank, else the CompiledSystem of the list."""
    if not isinstance(inequalities, CompiledSystem):
        return compile_system(rs, n, inequalities)
    system = inequalities
    if (system.n, system.rank) != (n, rs.rank):
        raise ValueError(f"system compiled for n={system.n}, rank "
                         f"{system.rank}; expected n={n}, rank {rs.rank}")
    return system


def _columns(tuples, width):
    """The width columns of a sequence of width-tuples."""
    return tuple(zip(*tuples)) or ((),) * width


def _root_block(coords, inverse, inv_den):
    """(den, ints) with ints / den the simple-root coordinates of the
    weight with fundamental coordinates coords, in lowest terms, through
    the integer inverse Cartan rows inverse / inv_den."""
    ints, den = _integral(coords)
    nums = [sum(map(mul, row, ints)) for row in inverse]
    den *= inv_den
    g = gcd(den, *nums)
    return den // g, tuple(v // g for v in nums)


def _integral(values):
    """(ints, den) with values[i] == ints[i] / den, for ints and Fractions."""
    den = lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


# --- membership -------------------------------------------------------------

@dataclass(frozen=True)
class MembershipVerdict:
    status: str          # "inside" | "boundary" | "outside"
    violated: tuple
    tight: tuple


def membership(rs: RootSystem, n, points, inequalities) -> MembershipVerdict:
    """Exact verdict for an n-tuple of alcove points against a list of
    inequalities, or the CompiledSystem of one; every point must lie in the
    closed alcove."""
    points = tuple(points)
    if len(points) != n:
        raise ValueError(f"expected {n} points, got {len(points)}")
    for k, p in enumerate(points):
        if len(p.coords) != rs.rank:
            raise ValueError(f"point {k + 1} has {len(p.coords)} coordinates, "
                             f"expected {rs.rank}")
        if not rs.in_alcove(p):
            raise ValueError(f"point {k + 1} is not in the fundamental alcove")
    system = _compiled(rs, n, inequalities)
    x, den = _integral([m for p in points for m in p.coords])
    left, right = _halves(system, _block_dots(system, x), den, range(n))
    # each row's excess times scale * den, which keeps the excess's sign
    excess = [left[p] + right[q] for p, q in zip(*system.halves)]
    violated = tuple(q for q, e in zip(system.inequalities, excess) if e > 0)
    tight = tuple(q for q, e in zip(system.inequalities, excess) if e == 0)
    status = "outside" if violated else ("boundary" if tight else "inside")
    return MembershipVerdict(status, violated, tight)


# --- exact simplex ----------------------------------------------------------

class _Simplex:
    """Primal simplex over the rationals with Bland's anti-cycling rule.

    The integer rows [a_1, ..., a_N, b] read a . x <= b with x >= 0 and
    b >= 0, so the slack basis starts feasible and no phase-1 is needed;
    they are pivoted in place.  Variable j < N is x_j and variable N + i is
    the slack of row i; Bland's rule picks both the entering and the
    leaving variable by this numbering.  The tableau is condensed: row r
    reads x[basis[r]] + sum_c rows[r][c] x[nonbasic[c]] = rows[r][-1], and
    a pivot swaps basis[r] with nonbasic[c].
    The tableau is fraction-free: row r holds integers over one positive
    denominator dens[r], and the objective row integers over obj_den, each
    divided by the gcd of its entries after every update (Bareiss, Math.
    Comp. 22, 1968).  Every test Bland's rule makes is a sign or a
    cross-multiplied ratio, so the pivots are those of a Fraction tableau.
    Each tableau is maximized once, from its slack basis, where the
    objective row is the integer costs themselves.
    """

    MAX_PIVOTS = 200000

    def __init__(self, rows):
        assert all(row[-1] >= 0 for row in rows), \
            "single-phase start needs b >= 0"
        self.nvars = len(rows[0]) - 1 if rows else 0
        self.m = len(rows)
        self.rows = rows
        self.dens = [1] * self.m
        self.basis = list(range(self.nvars, self.nvars + self.m))
        self.nonbasic = list(range(self.nvars))
        self.obj = None
        self.obj_den = 1

    def _pivot(self, pr, pc):
        row = self.rows[pr]
        p = row[pc]     # positive: the ratio test only takes a > 0
        # row / p, with the column now holding the leaving variable; the
        # entries are those of the old row and denominator, so their gcd
        # stays 1
        row[pc] = self.dens[pr]
        self.dens[pr] = p
        for r, other in enumerate(self.rows):
            if r != pr and other[pc]:
                self.rows[r], self.dens[r] = _eliminate(
                    other, self.dens[r], row, p, pc)
        if self.obj[pc]:
            self.obj, self.obj_den = _eliminate(
                self.obj, self.obj_den, row, p, pc)
        self.basis[pr], self.nonbasic[pc] = self.nonbasic[pc], self.basis[pr]

    def maximize(self, costs):
        assert self.obj is None, "a tableau is maximized once"
        self.obj = [*costs, 0]
        for _ in range(self.MAX_PIVOTS):
            obj = self.obj
            entering = [(j, c) for c, j in enumerate(self.nonbasic)
                        if obj[c] > 0]
            if not entering:
                return Fraction(-obj[-1], self.obj_den)
            pc = min(entering)[1]
            # the least ratio rows[r][-1] / rows[r][pc] over a > 0, compared
            # by cross-multiplication (the row denominators cancel), ties
            # to the lower basis index
            pr = None
            for r, row in enumerate(self.rows):
                a = row[pc]
                if a > 0:
                    if pr is None:
                        pr, pa, pb = r, a, row[-1]
                        continue
                    lhs, rhs = row[-1] * pa, pb * a
                    if lhs < rhs or (lhs == rhs
                                     and self.basis[r] < self.basis[pr]):
                        pr, pa, pb = r, a, row[-1]
            if pr is None:
                raise RuntimeError("linear program unbounded; the alcove "
                                   "constraints should make it compact")
            self._pivot(pr, pc)
        raise RuntimeError("simplex pivot guard exceeded")

    def solution(self):
        x = [Fraction(0)] * self.nvars
        for r, bj in enumerate(self.basis):
            if bj < self.nvars:
                x[bj] = Fraction(self.rows[r][-1], self.dens[r])
        return tuple(x)


def _eliminate(other, den, row, p, pc):
    """Row other / den after the pivot on column pc: other / den minus
    other[pc] / den times row / p, the pivot row whose entry at pc already
    holds the leaving variable's.  Returns (ints, den) reduced; other is
    overwritten."""
    f = other[pc]
    other[pc] = 0
    g = gcd(f, p)
    f, q = f // g, p // g
    return _reduced([a * q - f * b for a, b in zip(other, row)], den * q)


def _reduced(row, den):
    """(row, den) divided by the gcd of all its entries."""
    g = gcd(den, *row)
    if g == 1:
        return row, den
    return [v // g for v in row], den // g


# --- irredundancy -----------------------------------------------------------

@dataclass(frozen=True)
class Certificate:
    inequality: Inequality
    certified: bool
    method: str        # "separating-point" | "dominated" | "uncertified"
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


def check_certificate(rs: RootSystem, n, rows, j, witness):
    """Exact check, without the simplex, that witness (the flat n*rank
    coordinates of an n-tuple) separates row j from the others: it lies in
    the closed alcove^n, violates row j strictly and satisfies every other
    row.  rows holds (coeffs, rhs) pairs meaning coeffs . x <= rhs.
    irredundancy_check reaches the same verdicts through block ids
    (_separated); this plain form, fed the rows of CompiledSystem.row, is
    their reference."""
    rank = rs.rank
    if len(witness) != n * rank:
        return False
    x, den = _integral(witness)
    # each block in the closed alcove: m >= 0 and theta(m) <= 1
    if any(v < 0 for v in x) or any(
            sum(map(mul, rs.highest_root, x[k * rank:(k + 1) * rank])) > den
            for k in range(n)):
        return False
    return all((sum(map(mul, coeffs, x)) > rhs * den) == (i == j)
               for i, (coeffs, rhs) in enumerate(rows))


def _permute(flat, perm, rank):
    """Block t of the result is block perm[t] of the flat vector."""
    return tuple(v for k in perm for v in flat[k * rank:(k + 1) * rank])


def _permute_key(key, perm):
    """The key of the row whose block t is block perm[t] of key's row."""
    return (key[0], *(key[1 + k] for k in perm))


def _block_symmetries(system):
    """Generators of the group of factor-block permutations that map the
    row multiset onto itself: the two generators of S_n when both qualify,
    as they do for every generated system, else every qualifying one."""
    n = system.n
    count = Counter(system.keys)

    def keeps(perm):
        return count == Counter(_permute_key(key, perm) for key in system.keys)

    swap = (1, 0) + tuple(range(2, n))
    cycle = tuple(range(1, n)) + (0,)
    if n >= 2 and keeps(swap) and keeps(cycle):
        return [swap, cycle]
    return [p for p in itertools.permutations(range(n)) if keeps(p)]


def _orbits(system):
    """The rows' orbits under the block symmetries, as [(member, perm),
    ...] with row member equal to the representative's row permuted by
    perm; the representative, first, is the orbit's lowest index, and equal
    rows share an orbit."""
    gens = _block_symmetries(system)
    by_key = {}
    for i, key in enumerate(system.keys):
        by_key.setdefault(key, []).append(i)
    placed = set()
    out = []
    for i, key in enumerate(system.keys):
        if i in placed:
            continue
        perms = {key: tuple(range(system.n))}
        queue = [key]
        while queue:
            cur = queue.pop()
            for g in gens:
                nxt = _permute_key(cur, g)
                if nxt not in perms:
                    perms[nxt] = tuple(perms[cur][t] for t in g)
                    queue.append(nxt)
        members = sorted((k, perm) for r, perm in perms.items()
                         for k in by_key[r])
        placed.update(k for k, _ in members)
        out.append(members)
    return out


def _block_dots(system, x):
    """dots[k][b]: block b times block k of the integer point x."""
    rank = system.rank
    return [[sum(map(mul, b, x[k * rank:(k + 1) * rank]))
             for b in system.blocks] for k in range(system.n)]


def _halves(system, dots, den, perm):
    """The values of the left halves, less rhs * den, and of the right
    halves at y, where block t of the point y is block perm[t] of the point
    whose _block_dots are dots; a row's two values sum to coeffs . y -
    rhs * den, which has the sign of its excess at y / den."""
    rhs, *cols = system.left
    left = _lookups(map(mul, rhs, itertools.repeat(-den)), cols, dots, perm)
    right = _lookups(itertools.repeat(0), system.right, dots,
                     perm[len(cols):])
    return left, right


def _lookups(total, cols, dots, factors):
    """total plus what each column of block ids looks up in the dots of its
    factor."""
    for col, k in zip(cols, factors):
        total = map(add, total, map(dots[k].__getitem__, col))
    return list(total)


def _violated(system, left, right):
    """The rows whose halves' values sum to a positive excess."""
    return [i for i, p, q in zip(itertools.count(), *system.halves)
            if left[p] + right[q] > 0]


def _separated(system, witness, members):
    """check_certificate's verdict through the block ids, for each (k, perm)
    of members: whether the witness with its blocks permuted by perm
    separates row k.  The alcove test does not see the order of the blocks,
    so it is made once."""
    n, rank = system.n, system.rank
    if len(witness) != n * rank:
        return [False] * len(members)
    x, den = _integral(witness)
    if any(v < 0 for v in x) or any(
            sum(map(mul, system.theta, x[k * rank:(k + 1) * rank])) > den
            for k in range(n)):
        return [False] * len(members)
    dots = _block_dots(system, x)
    return [_violated(system, *_halves(system, dots, den, perm)) == [k]
            for k, perm in members]


# rows added to the relaxation per round of row generation
_ADD = 8


def _most_violated(system, violated, left, right):
    """The _ADD rows of violated with the largest excess**2 / norm, ties to
    the lower index, from the values of the halves."""
    p, q = system.halves
    return sorted(violated, key=lambda i: (
        -(left[p[i]] + right[q[i]]) ** 2 * system.weights[i], i))[:_ADD]


def _certify_row(system, j):
    """Certify row j: maximize its left side subject to every other row
    plus the alcove constraints.  An optimum beyond the right side is
    attained at a vertex violating only row j; one that reaches no further
    than the right side shows the others imply it.  The optimum comes back
    in the inequality's own units.

    The LP is solved by row generation (Kelley's cutting planes).  The
    first relaxation holds the n alcove rows alone; after each, every other
    row is evaluated at its maximizer in integers, through the block ids,
    and the _ADD most violated rows join the relaxation.  Each relaxation's
    optimum bounds the full one from above, and the first maximizer that
    satisfies every row attains it; that maximizer is the witness."""
    n, rank = system.n, system.rank
    coeffs, rhs = system.row(j)
    active = []
    while True:
        rows = [[0] * (k * rank) + list(system.theta)
                + [0] * ((n - 1 - k) * rank) + [1] for k in range(n)]
        rows += [[*c, b] for c, b in map(system.row, active)]
        lp = _Simplex(rows)
        opt = lp.maximize(coeffs)
        point = lp.solution()
        x, den = _integral(point)
        halves = _halves(system, _block_dots(system, x), den, range(n))
        violated = [i for i in _violated(system, *halves) if i != j]
        if not violated:
            break
        added = _most_violated(system, violated, *halves)
        # the relaxation's maximizer satisfies every row it holds
        assert not set(added) & set(active), "a relaxation row is violated"
        active = sorted(active + added)
    if opt > rhs:
        return True, "separating-point", opt / system.scales[j], point
    return False, "dominated", opt / system.scales[j], ()


def _certify_orbit(system, members):
    """(certified, method, optimum, witness) for each (member, perm) of an
    orbit: the representative's _certify_row verdict with the witness
    permuted by perm, once _separated has re-checked it."""
    ok, method, opt, witness = _certify_row(system, members[0][0])
    checks = (_separated(system, witness, members) if ok
              else [True] * len(members))
    return [(ok, method, opt, _permute(witness, perm, system.rank)) if checked
            else (False, "uncertified", opt, ())
            for (_, perm), checked in zip(members, checks)]


_WORKER_SYSTEM = None


def _init_worker(system):
    global _WORKER_SYSTEM
    _WORKER_SYSTEM = system


def _certify_in_worker(members):
    return _certify_orbit(_WORKER_SYSTEM, members)


def irredundancy_check(rs: RootSystem, n, inequalities, workers=None) -> IrredundancyReport:
    """One exact LP per orbit of the factor-block symmetries: maximize the
    representative's left side subject to all the other inequalities plus
    the alcove constraints, by row generation (_certify_row).  An optimum
    beyond the right side yields a point violating only that inequality;
    any other optimum shows the others imply it, and it is reported
    dominated.  The other members of the orbit take over the optimum and
    method, and the witness with its blocks permuted.  Every member's
    separating point is re-checked in integers against every row, with
    check_certificate's verdict, through the block ids (_separated); one
    that fails the check is reported uncertified.  Each orbit's LP and
    re-checks are one task (_certify_orbit); workers > 1 spreads the tasks
    over at most os.cpu_count() spawned processes.  inequalities is a list
    or its CompiledSystem, as for membership; the certificates are the
    same either way."""
    if n < 3:
        warnings.warn("with fewer than three factors the region can have "
                      "empty interior; irredundancy certificates are then "
                      "meaningless", stacklevel=2)
    system = _compiled(rs, n, inequalities)
    inequalities = system.inequalities
    orbits = _orbits(system)
    # the pool starts a process per pending orbit up to max_workers, so
    # more workers than cores would only pay more spawn start-ups
    workers = min(workers or 1, os.cpu_count() or 1)
    if workers > 1:
        # imported here: the pool machinery costs every CLI start about
        # 20 ms, and a serial run never uses it
        from concurrent.futures import ProcessPoolExecutor
        from multiprocessing import get_context
        with ProcessPoolExecutor(max_workers=workers,
                                 mp_context=get_context("spawn"),
                                 initializer=_init_worker,
                                 initargs=(system,)) as pool:
            results = list(pool.map(_certify_in_worker, orbits))
    else:
        results = [_certify_orbit(system, members) for members in orbits]

    certs = [None] * len(inequalities)
    for members, verdicts in zip(orbits, results):
        for (k, _), verdict in zip(members, verdicts):
            certs[k] = Certificate(inequalities[k], *verdict)
    return IrredundancyReport(tuple(certs))


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
        vec, _ = _integral([c for wgt in q.lhs_weights for c in wgt.coords]
                           + [q.rhs])
        # the primitive integer vector on the ray, its first nonzero
        # entry positive
        lead = next((v for v in vec if v != 0), None)
        assert lead is not None, "inequality with an all-zero form"
        g = gcd(*vec) if lead > 0 else -gcd(*vec)
        key = tuple(v // g for v in vec)
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
    n = int(obj["n"])
    for name in ("u", "lhs"):
        if len(obj[name]) != n:
            raise ValueError(f'inequality has {len(obj[name])} "{name}" '
                             f'factors, expected n={n}')
    for k, row in enumerate(obj["lhs"]):
        if len(row) != rs.rank:
            raise ValueError(f"factor {k + 1} has {len(row)} coordinates, "
                             f"expected {rs.rank}")
    words = tuple(tuple(int(i) for i in w) for w in obj["u"])
    weights = tuple(Weight(tuple(Fraction(c) for c in row))
                    for row in obj["lhs"])
    return Inequality(parabolic=int(obj["parabolic"]), words=words,
                      d=int(obj["d"]), lhs_weights=weights, rhs=int(obj["rhs"]))


def points_to_obj(points):
    return {"points": [[str(m) for m in p.coords] for p in points]}


# Fraction expands a decimal exponent into a power of ten, so a coordinate
# is refused before it is built if its numerator or denominator would have
# more digits than Python's default limit on int strings.
MAX_COORD_DIGITS = 4300
_DECIMAL = re.compile(r"\s*[-+]?([\d_]*)(?:\.([\d_]*))?"
                      r"(?:e([-+]?\d+(?:_\d+)*))?\s*", re.IGNORECASE)


def _coordinate(text):
    m = _DECIMAL.fullmatch(text)
    if m:
        whole, frac = (len((g or "").replace("_", "")) for g in m.group(1, 2))
        shift = int(m.group(3) or 0)
        if max(whole + frac + shift, 1 + frac - shift) > MAX_COORD_DIGITS:
            raise ValueError(
                f"a coordinate has more than {MAX_COORD_DIGITS} digits")
    return Fraction(text)


def points_from_obj(rs: RootSystem, obj):
    if not isinstance(obj, dict) or not isinstance(obj.get("points"), list):
        raise ValueError('point file must be an object with a "points" list')
    out = []
    for k, row in enumerate(obj["points"]):
        if not isinstance(row, list):
            raise ValueError(f"point {k + 1} is not a list of coordinates")
        if len(row) != rs.rank:
            raise ValueError(f"point {k + 1} has {len(row)} coordinates, "
                             f"expected {rs.rank}")
        try:
            coords = tuple(_coordinate(str(v)) for v in row)
        except ZeroDivisionError:
            raise ValueError(f"point {k + 1}: zero denominator") from None
        except ValueError as exc:
            raise ValueError(f"point {k + 1}: {exc}") from exc
        out.append(CartanPoint(coords))
    return out
