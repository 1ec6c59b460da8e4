import functools
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from multcone import eigencone as ec
from multcone import unitary_oracle as uo
from multcone.root_system import CartanPoint, build_root_system


def cp(*coords):
    return CartanPoint(tuple(Fraction(c) for c in coords))


def test_group_catalogue():
    for label, dim in [("SU2", 2), ("SU3", 3), ("SU4", 4), ("SU5", 5),
                       ("SU12", 12), ("Sp4", 4), ("Sp6", 6), ("Sp8", 8),
                       ("Sp10", 10)]:
        rep = uo.group_rep(label)
        assert rep.label == label and rep.dim == dim == len(rep.weights)
        assert rep.symplectic == label.startswith("Sp")
    for bad in ["SO5", "Sp5", "SU1", "Sp2", "SU0", "SU05", "Sp", "G2"]:
        with pytest.raises(ValueError, match="unknown group"):
            uo.group_rep(bad)


def test_rep_for_root_system():
    for t, r, label in [("A", 1, "SU2"), ("A", 2, "SU3"), ("A", 3, "SU4"),
                        ("A", 4, "SU5"), ("C", 2, "Sp4"), ("C", 3, "Sp6")]:
        rs = build_root_system(t, r)
        rep = uo.rep_for_root_system(rs)
        assert rep.label == label and rep.rs is rs
        assert rep.dim == uo.group_rep(label).dim
    for t, r in [("B", 2), ("B", 3), ("D", 4), ("G", 2), ("F", 4)]:
        with pytest.raises(ValueError,
                           match=f"^no unitary model wired for {t}{r}$"):
            uo.rep_for_root_system(build_root_system(t, r))


def test_weights_are_the_orbit_of_omega_1():
    # epsilon_1 ... epsilon_N for SU(N); epsilon_1 ... epsilon_r and then
    # their negatives for Sp(2r), in simple-root coordinates
    f = Fraction
    assert uo.group_rep("SU3").weights == (
        (f(2, 3), f(1, 3)), (f(-1, 3), f(1, 3)), (f(-1, 3), f(-2, 3)))
    assert uo.group_rep("Sp4").weights == (
        (1, f(1, 2)), (0, f(1, 2)), (-1, f(-1, 2)), (0, f(-1, 2)))
    for label in ["SU2", "SU3", "SU4", "SU5"]:
        rep = uo.group_rep(label)
        assert all(sum(w[i] for w in rep.weights) == 0
                   for i in range(rep.rs.rank))
    for label in ["Sp4", "Sp6", "Sp8"]:
        rep = uo.group_rep(label)
        r = rep.dim // 2
        assert all(tuple(-c for c in rep.weights[k]) == rep.weights[k + r]
                   for k in range(r))


def _partial_sum_phases(m):
    # the closed form SU(N) had before its phases came from the weights:
    # recentered partial sums of the alcove coordinates
    s = [sum(m[i:], Fraction(0)) for i in range(len(m))] + [Fraction(0)]
    mean = sum(s) / len(s)
    return tuple(v - mean for v in s)


def _sp4_phases(m):
    # and Sp(4)'s: coordinates on the two standard phases, then negatives
    e1 = m[0] + m[1] / 2
    e2 = m[1] / 2
    return (e1, e2, -e1, -e2)


@pytest.mark.parametrize("label", ["SU2", "SU3", "SU4", "Sp4"])
def test_phases_match_the_closed_forms(label):
    rep = uo.group_rep(label)
    closed = _sp4_phases if label == "Sp4" else _partial_sum_phases
    grid = [Fraction(k, 6) for k in range(7)]
    for m in itertools.product(grid, repeat=rep.rs.rank):
        ph = uo.phases_exact(rep, cp(*m))
        assert ph == closed(m) and all(isinstance(p, Fraction) for p in ph)


def test_phases_su():
    rep = uo.group_rep("SU2")
    assert uo.phases_exact(rep, cp(1)) == (Fraction(1, 2), Fraction(-1, 2))
    rep = uo.group_rep("SU3")
    assert uo.phases_exact(rep, cp("1/2", "1/4")) == (
        Fraction(5, 12), Fraction(-1, 12), Fraction(-1, 3))
    for m1 in range(4):
        for m2 in range(4):
            ph = uo.phases_exact(rep, cp(Fraction(m1, 5), Fraction(m2, 5)))
            assert sum(ph) == 0
            assert all(isinstance(p, Fraction) for p in ph)
            assert sorted(ph, reverse=True) == list(ph)


def test_phases_sp4():
    rep = uo.group_rep("Sp4")
    assert uo.phases_exact(rep, cp("1/3", "1/6")) == (
        Fraction(5, 12), Fraction(1, 12), Fraction(-5, 12), Fraction(-1, 12))
    for m1 in range(3):
        for m2 in range(3):
            ph = uo.phases_exact(rep, cp(Fraction(m1, 7), Fraction(m2, 7)))
            assert ph[2] == -ph[0] and ph[3] == -ph[1]


def test_class_matrices_live_in_the_group():
    su3 = uo.group_rep("SU3")
    m = uo.class_matrix(su3, cp("1/3", "1/5"))
    assert np.allclose(m @ m.conj().T, np.eye(3))
    assert np.isclose(np.linalg.det(m), 1.0)
    sp4 = uo.group_rep("Sp4")
    j = np.block([[np.zeros((2, 2)), np.eye(2)],
                  [-np.eye(2), np.zeros((2, 2))]])
    m = uo.class_matrix(sp4, cp("1/3", "1/6"))
    assert np.allclose(m @ m.conj().T, np.eye(4))
    assert np.allclose(m @ j @ m.T, j)


def test_central_shortcut_exact():
    rep = uo.group_rep("SU2")
    v = uo.numeric_membership(rep, [cp(1)] * 3)
    assert not v.feasible
    assert v.residual == pytest.approx(2 * math.sqrt(2), abs=1e-12)
    v = uo.numeric_membership(rep, [cp(1), cp(1), cp(0)])
    assert v.feasible and v.residual == 0.0


def test_su2_generic_feasible():
    rep = uo.group_rep("SU2")
    v = uo.numeric_membership(rep, [cp("1/2")] * 3, restarts=50)
    assert v.feasible and v.residual < 1e-10


def test_su3_both_sides():
    rep = uo.group_rep("SU3")
    v = uo.numeric_membership(rep, [cp("1/4", "1/4")] * 3, restarts=50)
    assert v.feasible and v.residual < 1e-10
    outside = [cp("3/4", "0"), cp("3/4", "0"), cp("0", "3/4")]
    v = uo.numeric_membership(rep, outside, restarts=40)
    assert not v.feasible and v.residual > 0.5


def test_sp4_both_sides():
    rep = uo.group_rep("Sp4")
    v = uo.numeric_membership(rep, [cp("1/8", "1/8")] * 3, restarts=50)
    assert v.feasible and v.residual < 1e-10
    v = uo.numeric_membership(rep, [cp("1/4", "1/2")] * 3, restarts=40)
    assert not v.feasible and v.residual > 0.5


def test_one_point_search_keeps_its_residual():
    # a single factor's class cannot contain I; the polish's rotation for
    # n = 1 is the empty product, so its target is I itself
    v = uo.numeric_membership(uo.group_rep("SU3"), [cp("1/4", "1/4")],
                              restarts=20)
    assert not v.feasible
    assert abs(v.residual - 2) <= 1e-9


def test_numeric_deterministic():
    rep = uo.group_rep("SU3")
    pts = [cp("1/4", "1/4")] * 3
    a = uo.numeric_membership(rep, pts, restarts=30, seed=7)
    b = uo.numeric_membership(rep, pts, restarts=30, seed=7)
    assert a == b


def test_numeric_rejects_points_off_the_alcove():
    rep = uo.group_rep("SU2")
    with pytest.raises(ValueError, match="point 2 is not in the fundamental"):
        uo.numeric_membership(rep, [cp(0), cp(2), cp(0)])


@pytest.mark.parametrize("restarts", [0, -3])
def test_numeric_rejects_restarts_below_one(restarts):
    rep = uo.group_rep("SU3")
    with pytest.raises(ValueError,
                       match=f"restarts must be at least 1, got {restarts}"):
        uo.numeric_membership(rep, [cp("1/4", "1/4")] * 3, restarts=restarts)


@pytest.mark.parametrize("tol", [-1.0, 0.0, float("nan"), float("inf")])
def test_numeric_rejects_meaningless_tol(tol):
    # an inside tuple whose residual is about 3e-16 must not come back
    # infeasible because tol cannot be met
    rep = uo.group_rep("SU2")
    with pytest.raises(ValueError,
                       match="tol must be a positive finite number"):
        uo.numeric_membership(rep, [cp("1/2")] * 3, tol=tol)


def test_numeric_refuses_restarts_above_the_maximum(monkeypatch):
    # the refusal comes before any search allocates its restarts
    def no_search(*args, **kwargs):
        raise AssertionError("search started")
    monkeypatch.setattr(uo, "_descent", no_search)
    rep = uo.group_rep("SU3")
    with pytest.raises(ValueError, match=f"restarts must be at most "
                                         f"{uo.MAX_RESTARTS}, got {10**9}"):
        uo.numeric_membership(rep, [cp("1/4", "1/4")] * 3, restarts=10**9)
    uo.check_search_settings(1e-8, uo.MAX_RESTARTS)


def _block_sp4_project(s):
    # the Sp(4) projection before it was written for every rank: for the
    # blocks [[A, B], [C, D]] of s^T, J s^T J is [[-D, C], [B, -A]]
    t = np.swapaxes(s, -1, -2)
    jtj = np.empty_like(s)
    jtj[..., :2, :2] = -t[..., 2:, 2:]
    jtj[..., :2, 2:] = t[..., 2:, :2]
    jtj[..., 2:, :2] = t[..., :2, 2:]
    jtj[..., 2:, 2:] = -t[..., :2, :2]
    return 0.5 * (s + jtj)


def _form(r):
    return np.block([[np.zeros((r, r)), np.eye(r)],
                     [-np.eye(r), np.zeros((r, r))]])


@pytest.mark.parametrize("label, coords", [
    ("SU2", ()), ("SU2", ("1/4", "1/4")),
    ("SU3", ("1/4",)), ("SU3", ("1/4", "1/4", "1/4")),
    ("Sp4", ("1/4",)), ("Sp4", ("1/8", "1/8", "1/8")),
])
def test_numeric_refuses_points_of_the_wrong_length(monkeypatch, label,
                                                    coords):
    # the refusal names the point and comes before any search starts
    def no_search(*args, **kwargs):
        raise AssertionError("search started")
    monkeypatch.setattr(uo, "_descent", no_search)
    rep = uo.group_rep(label)
    good = cp(*["1/8"] * rep.rs.rank)
    want = f"^point 2 has {len(coords)} coordinates, expected {rep.rs.rank}$"
    with pytest.raises(ValueError, match=want):
        uo.numeric_membership(rep, [good, cp(*coords), good])


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), batch=st.integers(1, 60),
       r=st.sampled_from([2, 3, 4]))
def test_sp_project_matches_the_matrix_form(seed, batch, r):
    rng = np.random.default_rng(seed)
    shape = (batch, 3, 2 * r, 2 * r)
    s = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    j = _form(r)
    want = 0.5 * (s + j @ np.swapaxes(s, -1, -2) @ j)
    got = uo._project(uo.group_rep(f"Sp{2 * r}"), s)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    if r == 2:
        old = _block_sp4_project(s)
        assert np.array_equal(got.view(np.uint64), old.view(np.uint64))
    assert uo._project(uo.group_rep(f"SU{2 * r}"), s) is s


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       label=st.sampled_from(["SU2", "SU3", "SU4", "SU5", "Sp4", "Sp6"]),
       step=st.floats(0, 2))
def test_cayley_step_stays_in_the_group(seed, label, step):
    rep = uo.group_rep(label)
    big = rep.dim
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((5, big, big)) + 1j * rng.standard_normal((5, big, big))
    a = uo._project(rep, 0.5 * (z - np.conj(np.swapaxes(z, -1, -2))))
    eye = np.eye(big)
    r = uo._cayley(-step * a, eye)
    for m in r:
        assert np.linalg.norm(np.conj(m.T) @ m - eye) <= 1e-12
        if rep.symplectic:
            j = _form(big // 2)
            assert np.linalg.norm(m.T @ j @ m - j) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       label=st.sampled_from(["SU2", "SU3", "SU4", "SU5", "Sp4", "Sp6"]),
       step=st.floats(0, 2))
def test_cayley_step_matches_the_two_step_form(seed, label, step):
    # the fused step agrees with the map's own solve and a product after it
    rep = uo.group_rep(label)
    big = rep.dim
    rng = np.random.default_rng(seed)
    z = (rng.standard_normal((5, 3, big, big))
         + 1j * rng.standard_normal((5, 3, big, big)))
    a = -step * uo._project(rep, 0.5 * (z - uo._dagger(z)))
    b = _random_group_batch(label, (5, 3), seed)
    eye = np.eye(big)
    want = uo._mm(np.linalg.solve(eye - 0.5 * a, eye + 0.5 * a), b)
    assert np.abs(uo._cayley(a, b) - want).max() <= 1e-12


@pytest.mark.parametrize("label", ["SU2", "SU3", "SU4", "SU5", "Sp4", "Sp6"])
def test_cayley_step_of_length_zero_returns_its_argument(label):
    rep = uo.group_rep(label)
    big = rep.dim
    rng = np.random.default_rng(7)
    z = (rng.standard_normal((5, 3, big, big))
         + 1j * rng.standard_normal((5, 3, big, big)))
    grad = uo._project(rep, 0.5 * (z - uo._dagger(z)))
    b = _random_group_batch(label, (5, 3), 8)
    for a in (0.0 * grad, -0.0 * grad):
        assert np.array_equal(uo._cayley(a, b), b)


def _expm_skew(s):
    # exp of skew-Hermitian matrices through the Hermitian eigensolver
    lam, v = np.linalg.eigh(-1j * s)
    return (v * np.exp(1j * lam)[..., None, :]) @ uo._dagger(v)


def _random_group_batch(label, shape, seed):
    # group elements exp(s) for random s in the Lie algebra
    rep = uo.group_rep(label)
    big = rep.dim
    rng = np.random.default_rng(seed)
    z = (rng.standard_normal(shape + (big, big))
         + 1j * rng.standard_normal(shape + (big, big)))
    s = uo._project(rep, 0.5 * (z - np.conj(np.swapaxes(z, -1, -2))))
    return _expm_skew(s)


def _class_target(label, coords, seed):
    # a class member U D U^dag for a random group element U, and D's phases
    rep = uo.group_rep(label)
    diag = np.diag(uo.class_matrix(rep, cp(*coords)))
    u = _random_group_batch(label, (1,), seed)[0]
    return rep, (u * diag[None, :]) @ np.conj(u.T), diag


def _sp4_frame_rebuild(target, diag):
    # the isotropic Sp(4) frame written out: v2 is taken off v1 and off
    # w1 = -J conj(v1), then w2 = -J conj(v2)
    vals, vecs = np.linalg.eig(target)
    perm, _ = uo._match_eigs(vals, diag)
    v = vecs[:, perm]
    j = _form(2)
    v1 = v[:, 0] / np.linalg.norm(v[:, 0])
    w1 = -j @ np.conj(v1)
    v2 = v[:, 1] - (np.conj(v1) @ v[:, 1]) * v1
    v2 = v2 - (np.conj(w1) @ v2) * w1
    v2 = v2 / np.linalg.norm(v2)
    u = np.stack([v1, v2, w1, -j @ np.conj(v2)], axis=1)
    return (u * diag[None, :]) @ np.conj(u.T)


@pytest.mark.parametrize("seed", range(5))
def test_rebuild_factor_keeps_the_symplectic_form(seed):
    rep, target, diag = _class_target("Sp6", ("1/7", "1/5", "1/4"), seed)
    m = uo._rebuild_factor(rep, target, diag)
    j = _form(3)
    assert np.linalg.norm(np.conj(m.T) @ m - np.eye(6)) <= 1e-12
    assert np.linalg.norm(m.T @ j @ m - j) <= 1e-12
    assert np.abs(m - target).max() <= 1e-12
    assert uo._valid_witness(rep, [m], None)
    # at rank 2 the frame takes exactly the steps written out above
    rep, target, diag = _class_target("Sp4", ("1/7", "1/5"), seed)
    got = uo._rebuild_factor(rep, target, diag)
    want = _sp4_frame_rebuild(target, diag)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def _reference_gradient(rep, mats):
    # the Euclidean gradient m_k = suf_k (P - I)^dag pre_k from the prefix
    # and suffix products around each factor, then the skew part of
    # M_k m_k - m_k M_k; it does not assume the factors are unitary
    restarts, n, big, _ = mats.shape
    eye = np.eye(big)
    pre = [np.broadcast_to(eye, mats[:, 0].shape)]
    for k in range(n - 1):
        pre.append(pre[-1] @ mats[:, k])
    suf = [np.broadcast_to(eye, mats[:, 0].shape)]
    for k in range(n - 1, 0, -1):
        suf.append(mats[:, k] @ suf[-1])
    suf.reverse()
    pm1d = uo._dagger(pre[-1] @ mats[:, -1] - eye)
    grads = []
    norm2 = np.zeros(restarts)
    for k in range(n):
        m = suf[k] @ pm1d @ pre[k]
        c = mats[:, k] @ m - m @ mats[:, k]
        g = uo._project(rep, 0.5 * (uo._dagger(c) - c))
        grads.append(g)
        norm2 += np.sum(np.abs(g) ** 2, axis=(-2, -1))
    return np.stack(grads, axis=1), norm2


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("label", ["SU2", "SU3", "SU4", "SU5", "Sp4", "Sp6"])
def test_gradient_matches_prefix_suffix_reference(label, n):
    rep = uo.group_rep(label)
    for seed in range(5):
        mats = _random_group_batch(label, (7, n), seed)
        grad, norm2 = uo._gradient(rep, mats, uo._product(mats))
        want, want_norm2 = _reference_gradient(rep, mats)
        assert grad.shape == want.shape
        assert np.abs(grad - want).max() <= 1e-12
        assert np.abs(norm2 - want_norm2).max() <= 1e-12 * want_norm2.max()


@pytest.mark.parametrize("label", ["SU3", "Sp4"])
def test_gradient_is_the_slope_along_the_cayley_step(label):
    # d/dt f(cayley(-t G) U) at t = 0 is -2 |G|^2 for the residual f
    rep = uo.group_rep(label)
    coords = {"SU3": [("3/4", "0"), ("3/4", "0"), ("0", "3/4")],
              "Sp4": [("1/4", "1/2")] * 3}[label]
    ds = np.array([[np.exp(2j * np.pi * float(e))
                    for e in uo.phases_exact(rep, cp(*c))] for c in coords])
    us = _random_group_batch(label, (6, 3), 11)
    mats = uo._conjugate(us, ds)
    grad, norm2 = uo._gradient(rep, mats, uo._product(mats))

    def f(t):
        step = uo._cayley(-t * grad, us)
        return uo._residual_sq(uo._product(uo._conjugate(step, ds)))
    h = 1e-5
    slope = (f(h) - f(-h)) / (2 * h)
    assert np.all(norm2 > 1e-3)
    assert np.abs(slope + 2 * norm2).max() <= 1e-6 * norm2.max()


@pytest.mark.parametrize("shape", [(6, 2, 2), (6, 3, 3), (6, 4, 4),
                                   (6, 3, 3, 3), (6, 3, 4, 4), (6, 4, 4, 4)])
def test_mm_matches_matmul(shape):
    big = shape[-1]
    label = {2: "SU2", 3: "SU3", 4: "SU4"}[big]
    a = _random_group_batch(label, shape[:-2], 1)
    b = _random_group_batch(label, shape[:-2], 2)
    got = uo._mm(a, b)
    assert got.shape == shape
    assert np.abs(got - a @ b).max() <= 1e-14


def _reference_match_eigs(vals, targets):
    used = [False] * len(vals)
    perm, worst = [], 0.0
    for t in targets:
        best_j, best_err = None, None
        for j, v in enumerate(vals):
            if used[j]:
                continue
            err = abs(np.angle(v / t))
            if best_err is None or err < best_err:
                best_j, best_err = j, err
        used[best_j] = True
        perm.append(best_j)
        worst = max(worst, best_err)
    return perm, worst


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), big=st.sampled_from([2, 3, 4]),
       ties=st.booleans())
def test_match_eigs_matches_the_scalar_loop(seed, big, ties):
    rng = np.random.default_rng(seed)
    vals = np.exp(2j * np.pi * rng.random(big))
    targets = vals[rng.permutation(big)] * np.exp(0.1j * rng.standard_normal(big))
    if ties:
        # repeated eigenvalues and targets: the first nearest one wins
        vals[-1] = vals[0]
        targets[-1] = targets[0]
    perm, worst = uo._match_eigs(vals, targets)
    want_perm, want_worst = _reference_match_eigs(vals, targets)
    assert perm == want_perm and worst == want_worst


@pytest.mark.parametrize("label, coords", [
    ("SU3", [("3/4", "0"), ("3/4", "0"), ("0", "3/4")]),
    ("Sp4", [("1/4", "1/2")] * 3),
])
def test_descent_stops_where_the_reference_gradient_does(monkeypatch, label,
                                                        coords):
    rep = uo.group_rep(label)
    pts = [cp(*c) for c in coords]
    steps = _count_steps(monkeypatch)
    got = uo.numeric_membership(rep, pts, restarts=40)
    stop = len(steps)
    steps.clear()

    def reference(rep, mats, prod):
        steps.append(1)
        return _reference_gradient(rep, mats)
    monkeypatch.setattr(uo, "_gradient", reference)
    want = uo.numeric_membership(rep, pts, restarts=40)
    assert stop == len(steps) < uo.ITERS
    assert not got.feasible and not want.feasible
    assert abs(got.residual - want.residual) <= 1e-9 * want.residual


def _outside_su3():
    rep = uo.group_rep("SU3")
    pts = [cp("3/4", "0"), cp("3/4", "0"), cp("0", "3/4")]
    ds = np.array([[np.exp(2j * np.pi * float(e))
                    for e in uo.phases_exact(rep, p)] for p in pts])
    return rep, pts, ds


def test_descent_restarts_do_not_interact(monkeypatch):
    # one seeded stream, read restart-major, gives restarts=3 the first
    # three starts of restarts=8; each must then follow the same path in
    # either batch.
    # The stall stop follows the best restart, so it could end the two
    # batches at different iterations; it is switched off, and both run
    # all 40.  The values meet at one minimum within 40 iterations, so
    # restarts are paired by their unitaries, which stay apart.
    monkeypatch.setattr(uo, "STALL_WINDOW", uo.ITERS)
    steps = _count_steps(monkeypatch)
    rep, _, ds = _outside_su3()
    vals3, us3 = uo._descent(rep, ds, 3, 5, 40, stop_below=0,
                             checkpoint=lambda mats: False)
    steps3 = len(steps)
    steps.clear()
    vals8, us8 = uo._descent(rep, ds, 8, 5, 40, stop_below=0,
                             checkpoint=lambda mats: False)
    assert steps3 == len(steps) == 40
    for v, u in zip(vals3, us3):
        j = np.argmin(np.abs(us8 - u).reshape(len(us8), -1).max(axis=1))
        assert abs(vals8[j] - v) <= 1e-12 * v
        assert np.abs(us8[j] - u).max() <= 1e-12


def _starts(label, restarts, seed):
    # with no iterations the descent returns its starts, sorted by value
    rep = uo.group_rep(label)
    pts = [cp(*["1/8"] * rep.rs.rank), cp(*["1/5"] * rep.rs.rank),
           cp(*["1/7"] * rep.rs.rank)]
    ds = np.array([[np.exp(2j * np.pi * float(e))
                    for e in uo.phases_exact(rep, p)] for p in pts])
    return rep, uo._descent(rep, ds, restarts, seed, 0, stop_below=0,
                            checkpoint=lambda mats: False)


@pytest.mark.parametrize("label", ["SU3", "Sp4"])
@pytest.mark.parametrize("seed", [0, 7])
def test_fewer_restarts_take_a_prefix_of_the_starts(label, seed):
    # restarts=3 draws the first three blocks of the stream restarts=8
    # reads, so its starts and values are three of restarts=8's, bit for bit
    _, (vals3, us3) = _starts(label, 3, seed)
    _, (vals8, us8) = _starts(label, 8, seed)
    assert us3.shape == (3, 3) + us8.shape[2:]
    matched = set()
    for v, u in zip(vals3, us3):
        j = int(np.argmin(np.abs(us8 - u).reshape(len(us8), -1).max(axis=1)))
        assert np.array_equal(us8[j].view(np.uint64), u.view(np.uint64))
        assert vals8[j] == v
        matched.add(j)
    assert len(matched) == 3
    # and a different seed draws different starts
    _, (_, other) = _starts(label, 3, seed + 1)
    assert np.abs(other - us3).max() > 0.1


@pytest.mark.parametrize("label", ["SU5", "Sp6"])
def test_starts_lie_in_the_group(label):
    rep, (vals, us) = _starts(label, 20, 3)
    assert us.shape == (20, 3, rep.dim, rep.dim)
    assert np.all(np.diff(vals) >= 0)
    eye = np.eye(rep.dim)
    j = _form(rep.dim // 2)
    for u in us.reshape(-1, rep.dim, rep.dim):
        assert np.linalg.norm(np.conj(u.T) @ u - eye) <= 1e-12
        if rep.symplectic:
            assert np.linalg.norm(u.T @ j @ u - j) <= 1e-12


def _count_steps(monkeypatch):
    # one gradient per descent iteration that takes a step, so the count is
    # the iteration the descent stopped at
    steps = []
    gradient = uo._gradient

    def counted(*args):
        steps.append(1)
        return gradient(*args)
    monkeypatch.setattr(uo, "_gradient", counted)
    return steps


def _checkpoints_before(stop):
    return sum(1 for it in range(stop) if it & (it - 1) == 0)


def test_polish_checkpoints_keep_the_witness_check(monkeypatch):
    calls = []

    def fake_polish(rep, ds, mats, cycles):
        calls.append(1)
        return 0.0, [2 * np.eye(rep.dim)] * len(mats)
    monkeypatch.setattr(uo, "_polish", fake_polish)
    steps = _count_steps(monkeypatch)
    rep, pts, _ = _outside_su3()
    v = uo.numeric_membership(rep, pts, restarts=10)
    assert not v.feasible and v.residual > 0.5
    # the stall stop ends the descent early; every checkpoint at iterations
    # 0, 1, 2, 4, ... before it was polished, then the ten best restarts
    stop = len(steps)
    assert stop < uo.ITERS
    assert len(calls) == _checkpoints_before(stop) + 10


@pytest.mark.parametrize("label, coords", [
    ("SU3", [("3/4", "0"), ("3/4", "0"), ("0", "3/4")]),
    ("Sp4", [("1/4", "1/2")] * 3),
])
def test_stall_stop_keeps_the_outside_residual(monkeypatch, label, coords):
    rep = uo.group_rep(label)
    pts = [cp(*c) for c in coords]
    steps = _count_steps(monkeypatch)
    stalled = uo.numeric_membership(rep, pts, restarts=40)
    stop = len(steps)
    steps.clear()
    monkeypatch.setattr(uo, "STALL_WINDOW", uo.ITERS)
    full = uo.numeric_membership(rep, pts, restarts=40)
    assert len(steps) == uo.ITERS and stop < uo.ITERS
    assert not stalled.feasible and not full.feasible
    assert abs(stalled.residual - full.residual) <= 1e-6 * full.residual


@pytest.mark.parametrize("label, coords", [
    ("SU3", ("1/4", "1/4")), ("Sp4", ("1/8", "1/8"))])
def test_inside_search_ends_at_a_checkpoint(monkeypatch, label, coords):
    calls = []
    polish = uo._polish

    def counted(*args):
        calls.append(1)
        return polish(*args)
    monkeypatch.setattr(uo, "_polish", counted)
    steps = _count_steps(monkeypatch)
    v = uo.numeric_membership(uo.group_rep(label), [cp(*coords)] * 3,
                              restarts=50)
    assert v.feasible and v.residual < 1e-10
    # the checkpoint at the stop iteration certified; no closing polish ran
    stop = len(steps)
    assert stop < uo.STALL_WINDOW and stop & (stop - 1) == 0
    assert len(calls) == _checkpoints_before(stop) + 1


@pytest.mark.parametrize("label, coords", [
    ("SU3", [("1/4", "1/4"), ("3/4", "0"), ("0", "3/4"), ("1/6", "1/3")]),
    ("Sp4", [("1/8", "1/8"), ("1/4", "1/2"), ("1/20", "9/20"),
             ("7/30", "9/20")]),
])
def test_polish_targets_are_the_cyclic_rotations(monkeypatch, label, coords):
    # one cycle on a random n = 4 candidate: factor k's target is the
    # adjoint of M_{k+1} ... M_n M_1 ... M_{k-1}, with the factors before
    # k already replaced in this cycle (here by fresh class members, since
    # a random candidate's spectra are too far apart to rebuild)
    rep = uo.group_rep(label)
    ds = np.array([np.diag(uo.class_matrix(rep, cp(*c))) for c in coords])
    us = _random_group_batch(label, (1, 4), 5)
    mats = list(uo._conjugate(us, ds)[0])
    fresh = list(uo._conjugate(_random_group_batch(label, (1, 4), 6), ds)[0])
    targets = []

    def recorded(rep, target, diag):
        targets.append(target.copy())
        return fresh[len(targets) - 1]
    monkeypatch.setattr(uo, "_rebuild_factor", recorded)
    uo._polish(rep, ds, mats, 1)
    assert len(targets) == 4
    eye = np.eye(rep.dim)
    cur = list(mats)
    for k in range(4):
        left = functools.reduce(np.matmul, cur[:k], eye)
        right = functools.reduce(np.matmul, cur[k + 1:], eye)
        want = np.conj(left.T) @ np.conj(right.T)
        assert np.abs(targets[k] - want).max() <= 1e-12
        cur[k] = fresh[k]


# The first three inside tuples and the first outside one that a seeded
# draw (random.Random(2026 + rank), three points of the alcove grid with
# denominator 12) gave at least 1/20 away from every inequality, with the
# verdict each search reaches.
_CONCORDANCE = {
    ("A", 4): [
        ("inside", True, [("1/12", "1/6", "1/6", "1/6"),
                          ("1/12", "1/4", "1/12", "5/12"),
                          ("5/12", "0", "0", "1/3")]),
        ("inside", True, [("1/12", "1/3", "1/12", "1/3"),
                          ("1/3", "1/12", "5/12", "1/6"),
                          ("1/4", "5/12", "1/6", "1/6")]),
        ("inside", True, [("1/3", "1/6", "1/12", "5/12"),
                          ("1/6", "1/4", "1/6", "0"),
                          ("1/3", "0", "5/12", "1/6")]),
        ("outside", False, [("0", "1/12", "5/12", "1/4"),
                            ("1/12", "1/3", "0", "1/2"),
                            ("1/4", "1/6", "0", "1/2")]),
    ],
    ("C", 3): [
        ("inside", True, [("0", "1/3", "1/3"), ("1/6", "1/6", "1/4"),
                          ("1/3", "1/12", "1/6")]),
        ("inside", True, [("1/4", "1/12", "1/6"), ("1/6", "1/6", "0"),
                          ("1/3", "0", "1/12")]),
        ("inside", True, [("0", "1/6", "1/6"), ("1/6", "1/12", "1/2"),
                          ("1/12", "1/6", "1/4")]),
        ("outside", False, [("5/12", "1/12", "0"), ("1/6", "1/12", "0"),
                            ("0", "1/12", "0")]),
    ],
}


@pytest.mark.parametrize("t, r", list(_CONCORDANCE))
def test_concordance_on_su5_and_sp6(t, r):
    # no outside tuple of A4 or C3 is certified
    rs = build_root_system(t, r)
    qs = ec.generate_inequalities(rs, 3)
    rep = uo.rep_for_root_system(rs)
    for status, feasible, coords in _CONCORDANCE[(t, r)]:
        pts = [cp(*c) for c in coords]
        assert ec.membership(rs, 3, pts, qs).status == status
        v = uo.numeric_membership(rep, pts, restarts=40, seed=0)
        assert v.feasible == feasible, (status, coords, v)
        assert status == "inside" or v.residual > 0.1


def test_su2_reference_validation():
    with pytest.raises(ValueError, match="outside"):
        uo.su2_reference_membership([Fraction(3, 4), Fraction(0), Fraction(0)])
    assert uo.su2_reference_membership([Fraction(1, 4)] * 3)
    assert not uo.su2_reference_membership([Fraction(1, 2)] * 3)
    assert uo.su2_reference_membership(
        [Fraction(1, 2), Fraction(1, 2), Fraction(0)])


@pytest.mark.parametrize("n,step", [(3, Fraction(1, 4)), (4, Fraction(1, 2)),
                                    (5, Fraction(1, 2))])
def test_su2_reference_matches_inequalities(n, step):
    rs = build_root_system("A", 1)
    qs = ec.generate_inequalities(rs, n)
    grid = [step * k for k in range(int(1 / step) + 1)]
    for ms in itertools.product(grid, repeat=n):
        want = ec.membership(rs, n, [cp(m) for m in ms], qs).status != "outside"
        got = uo.su2_reference_membership([m / 2 for m in ms])
        assert got == want, ms
