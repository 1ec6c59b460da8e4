"""Numerical membership oracle in a faithful unitary representation.

A tuple of alcove points is feasible when the identity can be written as a
product of matrices drawn from the corresponding conjugacy classes of
SU(r+1) for A_r or Sp(2r) for C_r, where the class of mu has the phases
w(mu) over the orbit of omega_1.  Seeded random restarts of gradient
descent over the conjugating unitaries search for a witness, each step
along the Cayley map (Wen and Yin, Math. Program. 142, 2013) of the
projected gradient in u(N) or sp(2r), taken as one linear solve against
the unitaries themselves; each restart backtracks on its own.  The starts
are the Cayley images of projected skew parts of Gaussian matrices, drawn
from one stream seeded by `seed`, one block per restart, so restart k's
start depends on (seed, k) alone.  On unitaries the gradient of
|M_1 ... M_n - I|^2 in the k-th conjugating unitary is the skew-Hermitian
part of R_k - R_{k+1}, with no prefix or suffix products:
R_k = M_k ... M_n M_1 ... M_{k-1} are the cyclic rotations of the
residual's product P = R_1 and R_{k+1} = M_k^dag R_k M_k.

Candidates are polished by cyclically re-solving one factor at a time from
the eigenvectors of what the other factors force it to be, the adjoint of
their cyclic rotation M_{k+1} ... M_n M_1 ... M_{k-1}, for Sp(2r) in a
frame whose first r columns are made isotropic: the best restart at
iterations 0, 1, 2, 4, 8, ..., stopping the search at the first checked
witness far below tolerance, and otherwise the ten best at the end.  The
descent ends after ITERS iterations, or sooner once the best value has
stalled (fallen by at most STALL_RTOL of itself over STALL_WINDOW
iterations); since that follows the best restart, the iteration it ends
on depends on the whole batch.

The search is one-sided: a witness below tolerance certifies feasibility,
failure to find one proves nothing.  The SU(2) case also has an exact
closed form (the odd-subset inequalities) used as a cross-check.
"""

import functools
import math
import re
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .root_system import RootSystem, Weight, build_root_system
from .weyl import _orbit

__all__ = [
    "GroupRep", "group_rep", "rep_for_root_system", "phases_exact",
    "class_matrix", "OracleVerdict", "check_search_settings",
    "numeric_membership", "su2_reference_membership",
]


@dataclass(frozen=True)
class GroupRep:
    """A compact group given by its defining matrix representation."""
    label: str
    rs: RootSystem
    dim: int
    weights: tuple      # simple-root coordinates, one per diagonal entry
    symplectic: bool    # whether it preserves J = [[0, I], [-I, 0]]


def group_rep(label) -> GroupRep:
    """SU<N> (N >= 2) or Sp<2r> (r >= 2), built from A_{N-1} or C_r."""
    m = re.fullmatch(r"SU([2-9]|[1-9]\d+)|Sp([468]|[1-9]\d*[02468])", label)
    if not m:
        raise ValueError(f"unknown group {label!r}; choose SU<N> with N >= 2 "
                         f"or Sp<2r> with r >= 2")
    t, r = ("A", int(m[1]) - 1) if m[1] else ("C", int(m[2]) // 2)
    return rep_for_root_system(build_root_system(t, r))


def rep_for_root_system(rs: RootSystem) -> GroupRep:
    """SU(r+1) for A_r or Sp(2r) for C_r, holding `rs` itself.  Its weights
    are the orbit of omega_1 in (length, lex word) order; for C_r the first
    r of them, then their negatives, so phase k + r is minus phase k."""
    if rs.type_label not in ("A", "C"):
        raise ValueError(f"no unitary model wired for {rs.type_label}{rs.rank}")
    orbit = [rs.root_coords(Weight(p))
             for p in _orbit(rs, rs.fundamental_weight(1).coords)]
    symplectic = rs.type_label == "C"
    if symplectic:
        orbit[rs.rank:] = [tuple(-c for c in w) for w in orbit[:rs.rank]]
    label = ("Sp" if symplectic else "SU") + str(len(orbit))
    return GroupRep(label, rs, len(orbit), tuple(orbit), symplectic)


def phases_exact(rep: GroupRep, pt):
    """Exact rational exponents e_i of the class representative
    Exp(2 pi i mu) = diag(exp(2 pi i e_i)): e_i = w_i(mu) over rep.weights."""
    m = [Fraction(c) for c in pt.coords]
    return tuple(sum((c * x for c, x in zip(w, m)), Fraction(0))
                 for w in rep.weights)


def class_matrix(rep: GroupRep, pt):
    """The diagonal class representative as a complex matrix."""
    return np.diag(np.exp(2j * np.pi * np.array(
        [float(e) for e in phases_exact(rep, pt)])))


@dataclass(frozen=True)
class OracleVerdict:
    feasible: bool
    residual: float


def _cayley(a, b):
    """Cayley step Cayley(a) b of batched matrices b, where Cayley(a) =
    (I - a/2)^-1 (I + a/2) for batched skew-Hermitian a.

    Cayley(a) agrees with exp to second order and maps u(N) into U(N), and
    sp(2r) into Sp(2r), exactly up to rounding.  Since I + a/2 is
    2I - (I - a/2), the step is 2 (I - a/2)^-1 b - b: one batched linear
    solve against b, with no product after it."""
    return np.linalg.solve(np.eye(a.shape[-1]) - 0.5 * a, 2 * b) - b


def _dagger(a):
    return np.conj(np.swapaxes(a, -1, -2))


@functools.cache
def _form(dim):
    """J = [[0, I], [-I, 0]], kept by Sp(dim); shared, so never written."""
    return np.kron([[0, 1], [-1, 0]], np.eye(dim // 2))


def _project(rep, s):
    """Tangent projection of skew-Hermitian matrices onto the group's Lie
    algebra: the identity for u(N), (s + J s^T J) / 2 for sp(2r); for the
    r x r blocks [[A, B], [C, D]] of s^T, J s^T J is [[-D, C], [B, -A]]."""
    if not rep.symplectic:
        return s
    r = rep.dim // 2
    t = np.swapaxes(s, -1, -2)
    jtj = np.empty_like(s)
    jtj[..., :r, :r] = -t[..., r:, r:]
    jtj[..., :r, r:] = t[..., r:, :r]
    jtj[..., r:, :r] = t[..., :r, r:]
    jtj[..., r:, r:] = -t[..., :r, :r]
    return 0.5 * (s + jtj)


def _mm(a, b):
    """Batched product of small matrices, one broadcast multiply-add per
    inner index; on the 2x2 to 4x4 blocks of a search this is at least as
    fast as `@`, which makes one BLAS call per matrix."""
    out = a[..., :, :1] * b[..., :1, :]
    for j in range(1, a.shape[-1]):
        out += a[..., :, j:j + 1] * b[..., j:j + 1, :]
    return out


def _conjugate(us, ds):
    # us: (r, n, N, N), ds: (n, N) diagonal phases -> class matrices (r, n, N, N)
    return _mm(us * ds[None, :, None, :], _dagger(us))


def _product(mats):
    """The product M_1 ... M_n of each restart's class matrices."""
    p = mats[:, 0]
    for k in range(1, mats.shape[1]):
        p = _mm(p, mats[:, k])
    return p


def _residual_sq(prod):
    diff = prod - np.eye(prod.shape[-1])
    return np.sum(np.abs(diff) ** 2, axis=(-2, -1))


def _gradient(rep, mats, prod):
    """Riemannian gradients of the residual in each factor's conjugating
    unitary, batched over restarts; returns (grad, squared norm per restart).

    With pre_k = M_1 ... M_{k-1} and suf_k = M_{k+1} ... M_n, the Euclidean
    gradient gives c_k = M_k m_k - m_k M_k for m_k = suf_k (P - I)^dag pre_k.
    On unitaries m_k = M_k^dag - suf_k pre_k, so c_k = R_{k+1} - R_k for the
    cyclic rotations R_k = M_k ... M_n M_1 ... M_{k-1} of the product P:
    R_1 = R_{n+1} = P and R_{k+1} = M_k^dag R_k M_k.  The gradient in the
    k-th unitary is the skew-Hermitian part of -c_k."""
    n = mats.shape[1]
    rots = [prod]
    for k in range(n - 1):
        m = mats[:, k]
        rots.append(_mm(_dagger(m), _mm(rots[-1], m)))
    rots.append(prod)
    c = np.stack(rots[1:], axis=1) - np.stack(rots[:-1], axis=1)
    g = _project(rep, 0.5 * (_dagger(c) - c))
    return g, np.sum(np.abs(g) ** 2, axis=(-3, -2, -1))


def _descent(rep, ds, restarts, seed, iters, stop_below, checkpoint):
    """Batched gradient descent; returns (values, unitaries) sorted best first.

    At iterations 0, 1, 2, 4, 8, ... the class matrices of the best restart
    go to `checkpoint`, and the descent stops as soon as it returns True.
    It also stops once the best value has fallen by at most STALL_RTOL of
    itself over the last STALL_WINDOW iterations.  Each restart keeps its
    own step size and backtracks on its own, so its path does not depend on
    the other restarts in the batch; where the stall stop ends the descent
    does, since it follows the best restart."""
    n, bigN = ds.shape
    # restart-major: restart k's real and imaginary parts are the k-th block
    # of one seeded stream, so they depend on (seed, k) alone
    z = np.random.default_rng(seed).standard_normal(
        (restarts, 2, n, bigN, bigN))
    h = z[:, 0] + 1j * z[:, 1]
    us = _cayley(_project(rep, 0.5 * (h - _dagger(h))), np.eye(bigN))

    eta = np.full(restarts, 0.2)
    mats = _conjugate(us, ds)
    prod = _product(mats)
    f = _residual_sq(prod)
    history = []    # best value at the start of each iteration
    for it in range(iters):
        best = np.argmin(f)
        history.append(f[best])
        if f[best] < stop_below:
            break
        if (it >= STALL_WINDOW and history[it - STALL_WINDOW] - f[best]
                <= STALL_RTOL * f[best]):
            break
        if it & (it - 1) == 0 and checkpoint(mats[best]):
            break
        grad, norm2 = _gradient(rep, mats, prod)

        # backtracking: halve the step until the Armijo bound holds, stepping
        # again only the restarts whose last candidate was refused
        live = np.arange(restarts)
        for _ in range(10):
            if not live.size:
                break
            cand_us = _cayley(-eta[live, None, None, None] * grad[live],
                              us[live])
            cand_mats = _conjugate(cand_us, ds)
            cand_prod = _product(cand_mats)
            cand_f = _residual_sq(cand_prod)
            good = cand_f <= f[live] - 1e-4 * eta[live] * norm2[live]
            took = live[good]
            us[took], mats[took] = cand_us[good], cand_mats[good]
            prod[took], f[took] = cand_prod[good], cand_f[good]
            live = live[~good]
            eta[live] /= 2
        accepted = np.ones(restarts, dtype=bool)
        accepted[live] = False
        eta[accepted] = np.minimum(eta[accepted] * 1.5, 2.0)

    order = np.argsort(f)
    return f[order], us[order]


def _match_eigs(vals, targets):
    """Greedy assignment of computed eigenvalues to target phases; returns
    (permutation, worst angular error).  Each target in turn takes the
    nearest unused eigenvalue, the first one on a tie."""
    errs = np.abs(np.angle(vals[None, :] / targets[:, None])).tolist()
    free = list(range(len(vals)))
    perm, worst = [], 0.0
    for row in errs:
        j = min(free, key=row.__getitem__)
        free.remove(j)
        perm.append(j)
        worst = max(worst, row[j])
    return perm, worst


def _rebuild_factor(rep, target, diag):
    """The class member nearest to the unitary `target`: keep its
    eigenvectors, replace its eigenvalues by the prescribed phases.
    Returns None when the spectra are too far apart to match."""
    vals, vecs = np.linalg.eig(target)
    perm, worst = _match_eigs(vals, diag)
    if worst > 0.5:
        return None
    v = vecs[:, perm]
    if rep.symplectic:
        # symplectic frame: column k + r is -J conj of column k, and
        # Gram-Schmidt takes each of the first r columns off both earlier
        # halves, so they span an isotropic subspace even where two first-r
        # phases are both 0 or both 1/2 and eig mixes their eigenspace
        r = rep.dim // 2
        form = _form(rep.dim)
        for k in range(r):
            for j in range(k):
                for f in (v[:, j], v[:, j + r]):
                    v[:, k] -= (np.conj(f) @ v[:, k]) * f
            v[:, k] /= np.linalg.norm(v[:, k])
            v[:, k + r] = -form @ np.conj(v[:, k])
    else:
        v, _ = np.linalg.qr(v)
    return (v * diag[None, :]) @ np.conj(v.T)


def _polish(rep, ds, mats, cycles):
    """Cyclic exact-resolve: replace one factor at a time by the nearest
    class member to what the others force, keeping the best product seen.

    M_1 ... M_n = I forces M_k to be the inverse of the cyclic rotation
    M_{k+1} ... M_n M_1 ... M_{k-1}, so that rotation's adjoint is factor
    k's target; it is the empty product I when n = 1."""
    n = len(ds)
    eye = np.eye(rep.dim)
    mats = [np.array(m) for m in mats]

    def res():
        return float(np.linalg.norm(functools.reduce(np.matmul, mats) - eye))

    best = res()
    best_mats = [m.copy() for m in mats]
    stalls = 0
    for _ in range(cycles):
        for k in range(n):
            rot = (functools.reduce(np.matmul, mats[k + 1:] + mats[:k])
                   if n > 1 else eye)
            target = np.conj(rot.T)
            nxt = _rebuild_factor(rep, target, ds[k])
            if nxt is not None:
                mats[k] = nxt
        cur = res()
        if cur < best:
            best = cur
            best_mats = [m.copy() for m in mats]
            stalls = 0
        else:
            stalls += 1
        if best < 1e-14 or stalls >= 3:
            break
    return best, best_mats


def _valid_witness(rep, mats, ds):
    """Witness sanity: unitary, right spectrum came by construction; for
    Sp(2r) the form must be preserved to close to machine precision."""
    form = _form(rep.dim) if rep.symplectic else None
    for m in mats:
        if np.linalg.norm(np.conj(m.T) @ m - np.eye(rep.dim)) > 1e-9:
            return False
        if form is not None and np.linalg.norm(m.T @ form @ m - form) > 1e-8:
            return False
    return True


# descent iterations per search; the descent ends early once the best value
# has fallen by at most STALL_RTOL of itself over STALL_WINDOW iterations
ITERS = 150
STALL_WINDOW = 16
STALL_RTOL = 1e-6
# polish cycles per candidate, and the most restarts one search may batch
POLISH_CYCLES = 60
MAX_RESTARTS = 10_000


def check_search_settings(tol, restarts):
    """Raise ValueError unless tol is a positive finite number and restarts
    lies in 1..MAX_RESTARTS; nothing is allocated before this check."""
    if restarts < 1:
        raise ValueError(f"restarts must be at least 1, got {restarts}")
    if restarts > MAX_RESTARTS:
        raise ValueError(
            f"restarts must be at most {MAX_RESTARTS}, got {restarts}")
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be a positive finite number, got {tol}")


def numeric_membership(rep: GroupRep, points, tol=1e-8, restarts=200,
                       seed=0) -> OracleVerdict:
    """Search for unitaries U_k with prod_k U_k Exp(2 pi i mu_k) U_k^-1 = I.

    The descent starts from the Cayley images of `restarts` random
    elements of the Lie algebra, read restart by restart from one stream
    seeded by `seed`, so a smaller `restarts` searches a prefix of the same
    starts.  It steps along the Cayley map, which keeps every iterate in
    the group.  At iterations 0, 1, 2, 4, 8, ... the best restart is
    polished, and the search ends as soon as a polished candidate that
    passes the witness checks lies below tol * 1e-2.  The descent runs at
    most ITERS iterations and ends sooner once the best restart's value has
    stalled (see `_descent`), so where an uncertified search stops depends
    on the whole batch of restarts; such a search polishes its ten best
    restarts at the end.  Feasible iff some candidate reaches a residual
    below tol; the reported residual is the best Frobenius distance found.
    The whole run is deterministic for a fixed (seed, restarts) pair, and
    each polish runs at most POLISH_CYCLES cycles.  Settings that
    `check_search_settings` refuses raise ValueError before any work.
    """
    check_search_settings(tol, restarts)
    points = tuple(points)
    rs = rep.rs
    for k, p in enumerate(points):
        if len(p.coords) != rs.rank:
            raise ValueError(f"point {k + 1} has {len(p.coords)} coordinates, "
                             f"expected {rs.rank}")
        if not rs.in_alcove(p):
            raise ValueError(f"point {k + 1} is not in the fundamental alcove")
    exact = [phases_exact(rep, p) for p in points]

    # a central class is a scalar and conjugation cannot move it; when all
    # classes are central the residual is a closed-form number
    if all(len({e % 1 for e in row}) == 1 for row in exact):
        frac = sum(row[0] % 1 for row in exact) % 1
        if frac == 0:
            return OracleVerdict(0.0 < tol, 0.0)
        z = np.exp(2j * np.pi * float(frac))
        residual = float(abs(z - 1) * np.sqrt(rep.dim))
        return OracleVerdict(residual < tol, residual)

    ds = np.array([[np.exp(2j * np.pi * float(e)) for e in row] for row in exact])
    best = np.inf

    def polish(mats):
        # True once a checked witness lies far enough below tol to stop
        nonlocal best
        residual, polished = _polish(rep, ds, list(mats), POLISH_CYCLES)
        if residual < best and _valid_witness(rep, polished, ds):
            best = residual
        return best < tol * 1e-2

    # descent only needs to land inside the polish basin
    vals, us = _descent(rep, ds, restarts, seed, ITERS,
                        stop_below=max((tol * 1e-2) ** 2, 1e-8),
                        checkpoint=polish)
    if best >= tol * 1e-2:      # no checkpoint ended the search
        best = min(best, float(np.sqrt(vals[0])))
        for r in range(min(10, len(vals))):
            if polish(_conjugate(us[r:r + 1], ds)[0]):
                break
    return OracleVerdict(best < tol, best)


def su2_reference_membership(ts) -> bool:
    """Closed form for SU(2): feasible iff every odd subset S satisfies
    sum_S t - sum_out t <= (|S| - 1) / 2."""
    ts = [Fraction(t) for t in ts]
    for t in ts:
        if not 0 <= t <= Fraction(1, 2):
            raise ValueError(f"t = {t} outside [0, 1/2]")
    n = len(ts)
    total = sum(ts)
    for mask in range(1 << n):
        size = mask.bit_count()
        if size % 2 == 0:
            continue
        inside = sum(t for k, t in enumerate(ts) if mask >> k & 1)
        if inside - (total - inside) > Fraction(size - 1, 2):
            return False
    return True
