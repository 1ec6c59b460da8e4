import dataclasses
import itertools
import random
import time
from fractions import Fraction
from math import lcm
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

from multcone import eigencone as ec
from multcone.deformed_ring import deformed_coeff_tuple
from multcone.quantum_ring import build_structure_table, gw_invariant
from multcone.root_system import (CartanPoint, RootSystem, Weight,
                                  build_root_system)
from multcone.weyl import minimal_reps

A1 = build_root_system("A", 1)
B2 = build_root_system("B", 2)


def pt(*coords):
    return CartanPoint(tuple(Fraction(c) for c in coords))


def _rows(system):
    """Every row of a compiled system as the flat (coeffs, rhs) pair."""
    return tuple(map(system.row, range(len(system))))


def _system(rs, n, rows):
    """compile_system of inequalities whose compiled rows are rows: each
    block of integer simple-root coordinates becomes the weight it stands
    for, so every row comes back at scale 1."""
    rank = rs.rank
    qs = [ec.Inequality(1, ((),) * n, 0, tuple(
        Weight(tuple(sum(map(mul, cartan, coeffs[k * rank:(k + 1) * rank]))
                     for cartan in rs.cartan)) for k in range(n)), rhs)
        for coeffs, rhs in rows]
    system = ec.compile_system(rs, n, qs)
    assert _rows(system) == tuple(rows) and set(system.scales) <= {1}
    return system


@pytest.fixture(scope="module")
def a1_n3():
    return ec.generate_inequalities(A1, 3)


def test_a1_counts():
    assert len(ec.generate_inequalities(A1, 3)) == 4
    assert len(ec.generate_inequalities(A1, 4)) == 8
    assert len(ec.generate_inequalities(A1, 5)) == 16


@pytest.mark.parametrize("n", [3, 4, 5])
def test_a1_odd_subset_shape(n):
    # each inequality flips an odd-size subset of factors to +1 and the
    # rest to -1, with right side (size-1)/2; all such sign patterns occur
    seen = set()
    for q in ec.generate_inequalities(A1, n):
        signs = tuple(w.coords[0] for w in q.lhs_weights)
        assert set(signs) <= {1, -1}
        plus = signs.count(1)
        assert plus % 2 == 1
        assert q.rhs == (plus - 1) // 2
        assert q.d == q.rhs
        seen.add(signs)
    assert len(seen) == 2 ** (n - 1)


def test_generation_deterministic(a1_n3):
    assert ec.generate_inequalities(A1, 3) == a1_n3


def test_membership_verdicts(a1_n3):
    v = ec.membership(A1, 3, [pt("1/2")] * 3, a1_n3)
    assert v == ec.MembershipVerdict("inside", (), ())
    v = ec.membership(A1, 3, [pt(1)] * 3, a1_n3)
    assert v.status == "outside"
    assert [(q.words, q.d) for q in v.violated] == [(((), (), ()), 1)]
    v = ec.membership(A1, 3, [pt(1), pt(1), pt(0)], a1_n3)
    assert v.status == "boundary"
    assert len(v.tight) == 3


def test_membership_validation(a1_n3):
    with pytest.raises(ValueError, match="expected 3 points, got 1"):
        ec.membership(A1, 3, [pt(0)], a1_n3)
    with pytest.raises(ValueError, match="point 1 is not in the fundamental"):
        ec.membership(A1, 3, [pt(2), pt(0), pt(0)], a1_n3)
    with pytest.raises(ValueError, match="has 2 coordinates"):
        ec.membership(A1, 3, [pt(0, 0), pt(0), pt(0)], a1_n3)


def test_membership_refuses_a_system_of_another_shape(a1_n3):
    # (+, -, -) with right side 0 is strict at (1, 1, 1); cut to its first
    # two factors it would read tight there
    q = next(q for q in a1_n3 if _signs(q) == (1, -1, -1))
    points = [pt(1)] * 3
    assert ec.membership(A1, 3, points, [q]).status == "inside"
    cut = dataclasses.replace(q, words=q.words[:2],
                              lhs_weights=q.lhs_weights[:2])
    with pytest.raises(ValueError, match="2 factors, expected n=3"):
        ec.membership(A1, 3, points, [cut])
    wide = dataclasses.replace(
        q, lhs_weights=(Weight((1, 0)),) + q.lhs_weights[1:])
    with pytest.raises(ValueError, match="weight with 2 coordinates, "
                                         "expected 1"):
        ec.compile_system(A1, 3, [wide])


def _reference_compile(rs, qs):
    """rows and scales by the Fraction formula: each weight through
    rs.root_coords, each row scaled by the lcm of its blocks' denominators."""
    rows, scales = [], []
    for q in qs:
        blocks = [ec._integral(rs.root_coords(w)) for w in q.lhs_weights]
        scale = lcm(*(den for _, den in blocks))
        rows.append((tuple(c * (scale // den) for ints, den in blocks
                           for c in ints), q.rhs * scale))
        scales.append(scale)
    return tuple(rows), tuple(scales)


def _hand_built(rs, n):
    qs = ec.generate_inequalities(rs, n)
    # Fraction coordinates, rows scaled by 2, by 1/3 and by -1, and a copy
    read = [ec.inequality_from_obj(rs, ec.inequality_to_obj(rs, n, q))
            for q in qs]
    return (read + [_scaled(q, f) for q in qs[:6]
                    for f in (2, Fraction(1, 3), -1)] + [qs[0]])


@pytest.mark.parametrize("t, r, n, hand", [
    ("B", 2, 3, False), ("G", 2, 3, False), ("C", 2, 3, False),
    ("B", 3, 3, False), ("C", 3, 3, False), ("A", 2, 4, False),
    ("A", 3, 4, False), ("B", 2, 3, True), ("G", 2, 3, True),
    ("A", 2, 4, True),
])
def test_compile_matches_fraction_reference(t, r, n, hand):
    rs = build_root_system(t, r)
    qs = _hand_built(rs, n) if hand else ec.generate_inequalities(rs, n)
    system = ec.compile_system(rs, n, qs)
    assert (_rows(system), system.scales) == _reference_compile(rs, qs)


def test_compile_and_membership_skip_root_coords(monkeypatch):
    A3 = build_root_system("A", 3)
    qs = ec.generate_inequalities(A3, 4)
    expected = ec.compile_system(A3, 4, qs)

    def refuse(self, w):
        raise AssertionError("root_coords called on the integer path")
    monkeypatch.setattr(RootSystem, "root_coords", refuse)
    assert ec.compile_system(A3, 4, qs) == expected
    points = [pt(0, "1/4", 0), pt("1/4", "1/4", 0), pt("1/4", 0, "1/4"),
              pt(0, "1/4", "3/4")]
    assert ec.membership(A3, 4, points, qs).status == "boundary"


def test_slack_values(a1_n3):
    points = [pt("1/2")] * 3
    by_shape = {(q.words, q.d): q for q in a1_n3}
    assert by_shape[(((), (), ()), 1)].slack(A1, points) == Fraction(1, 4)
    assert by_shape[((((), (1,), (1,))), 0)].slack(A1, points) == \
        Fraction(1, 4)


def test_irredundancy_a1(a1_n3):
    rep = ec.irredundancy_check(A1, 3, a1_n3)
    assert len(rep.certificates) == 4
    assert all(c.certified for c in rep.certificates)
    assert all(c.method == "separating-point" for c in rep.certificates)
    for c in rep.certificates:
        # the witness is a flat coordinate vector violating its own
        # inequality and no other
        points = [CartanPoint((m,)) for m in c.witness]
        v = ec.membership(A1, 3, points, a1_n3)
        assert v.status == "outside"
        assert v.violated == (c.inequality,)


def test_irredundancy_detects_slack_inequality(a1_n3):
    loose = dataclasses.replace(a1_n3[-1], rhs=2)
    rep = ec.irredundancy_check(A1, 3, list(a1_n3) + [loose])
    by_q = {c.inequality: c for c in rep.certificates}
    assert not by_q[loose].certified
    assert by_q[loose].method == "dominated"
    # the genuine sum inequality stays in the pool and caps the optimum
    assert by_q[loose].optimum == 1
    assert all(c.certified for q, c in by_q.items() if q != loose)


def test_irredundancy_workers_match(a1_n3):
    for rs, qs in [(A1, a1_n3), (B2, ec.generate_inequalities(B2, 3))]:
        seq = ec.irredundancy_check(rs, 3, qs)
        par = ec.irredundancy_check(rs, 3, qs, workers=2)
        assert seq == par


@pytest.mark.parametrize("t, r, n", [("B", 2, 3), ("G", 2, 3), ("A", 2, 4)])
def test_irredundancy_takes_the_compiled_system(t, r, n):
    # the certify systems: the memoized CompiledSystem gives the list's
    # verdict, method, optimum and witness for every inequality
    rs = build_root_system(t, r)
    qs = ec.generate_inequalities(rs, n)
    from_list = ec.irredundancy_check(rs, n, qs).certificates
    from_system = ec.irredundancy_check(
        rs, n, ec.generated_system(rs, n)).certificates
    assert [dataclasses.astuple(c) for c in from_system] == \
        [dataclasses.astuple(c) for c in from_list]
    assert all(c.certified for c in from_system)
    with pytest.raises(ValueError, match=f"system compiled for n={n}"):
        ec.irredundancy_check(rs, n + 1, ec.generated_system(rs, n))


@pytest.fixture()
def private_memo(monkeypatch):
    # a replaced table must not reach the memos other tests share
    monkeypatch.setattr(ec, "_TABLES", dict(ec._TABLES))
    monkeypatch.setattr(ec, "_SYSTEMS", {})


def test_generated_system_is_compiled_once(private_memo, monkeypatch):
    compiled = []
    real = ec.compile_system

    def counting(*args):
        compiled.append(args)
        return real(*args)
    monkeypatch.setattr(ec, "compile_system", counting)
    qs = ec.generate_inequalities(B2, 3)
    assert compiled == [], "generating a list compiled it"
    system = ec.generated_system(B2, 3)
    assert ec.generated_system(B2, 3) is system and len(compiled) == 1
    assert system == real(B2, 3, qs)


def test_a_replaced_table_regenerates_the_system(private_memo):
    A2 = build_root_system("A", 2)
    old = ec.generated_system(A2, 4)
    ec.register_table(build_structure_table(minimal_reps(A2, {2})))
    new = ec.generated_system(A2, 4)
    assert new is not old and new.inequalities is not old.inequalities
    assert new == ec.compile_system(A2, 4, ec.generate_inequalities(A2, 4))
    assert ec.generated_system(A2, 4) is new


def test_generated_lists_do_not_alias_the_memo(private_memo):
    first = ec.generate_inequalities(B2, 3)
    expected = list(first)
    system = ec.generated_system(B2, 3)
    first.reverse()
    first.append(first[0])
    del first[:3]
    assert ec.generate_inequalities(B2, 3) == expected
    again = ec.generate_inequalities(B2, 3)
    assert again is not ec.generate_inequalities(B2, 3)
    assert ec.generated_system(B2, 3) is system
    assert list(system.inequalities) == expected


class _InProcessPool:
    """Stands in for ProcessPoolExecutor: records max_workers and runs the
    initializer and every task in this process."""

    asked = []

    def __init__(self, max_workers, mp_context, initializer, initargs):
        self.asked.append(max_workers)
        initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.mark.parametrize("cpus, pool", [(4, [4]), (1, []), (None, [])])
def test_irredundancy_workers_capped_at_cpu_count(cpus, pool, monkeypatch):
    import concurrent.futures
    qs = ec.generate_inequalities(B2, 3)
    serial = ec.irredundancy_check(B2, 3, qs)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        _InProcessPool)
    monkeypatch.setattr(_InProcessPool, "asked", [])
    monkeypatch.setattr(ec, "_WORKER_SYSTEM", None)
    monkeypatch.setattr(ec.os, "cpu_count", lambda: cpus)
    # one process per core at most, and none when there is one core
    assert ec.irredundancy_check(B2, 3, qs, workers=10**6) == serial
    assert _InProcessPool.asked == pool


def test_irredundancy_workers_recheck_in_the_pool_task(monkeypatch):
    # each pool task re-checks its orbit's witnesses: every re-check runs
    # while the pool maps its tasks, and one that refuses every witness
    # leaves every certificate uncertified
    import concurrent.futures
    events = []

    class Pool(_InProcessPool):
        def map(self, fn, items):
            events.append("map")
            out = list(map(fn, items))
            events.append("done")
            return out

    def refuse(system, witness, members):
        events.append("check")
        return [False] * len(members)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    monkeypatch.setattr(_InProcessPool, "asked", [])
    monkeypatch.setattr(ec, "_WORKER_SYSTEM", None)
    monkeypatch.setattr(ec.os, "cpu_count", lambda: 4)
    monkeypatch.setattr(ec, "_separated", refuse)
    qs = ec.generate_inequalities(B2, 3)
    report = ec.irredundancy_check(B2, 3, qs, workers=2)
    assert _InProcessPool.asked == [2]
    assert events == ["map"] + ["check"] * len(ec._orbits(
        ec.compile_system(B2, 3, qs))) + ["done"]
    assert len(report.certificates) == len(qs)
    assert all((c.certified, c.method, c.witness) == (False, "uncertified", ())
               for c in report.certificates)


def test_empty_system():
    # no inequality is violated or tight, and none needs a certificate
    points = [pt("1/2"), pt(0), pt(1)]
    assert ec.membership(A1, 3, points, []) == ec.MembershipVerdict(
        "inside", (), ())
    system = ec.compile_system(A1, 3, [])
    assert len(system) == 0
    assert ec.membership(A1, 3, points, system).status == "inside"
    assert ec.irredundancy_check(A1, 3, []).certificates == ()


def _one_lp_per_inequality(rs, n, qs):
    system = ec.compile_system(rs, n, qs)
    return [ec._certify_row(system, j)[:3] for j in range(len(qs))]


def _verdicts(report):
    return [(c.certified, c.method, c.optimum) for c in report.certificates]


@pytest.mark.parametrize("t, r, n, orbits", [("B", 2, 3, 8), ("A", 2, 4, 10)])
def test_orbit_reduction_matches_one_lp_per_inequality(t, r, n, orbits):
    rs = build_root_system(t, r)
    qs = ec.generate_inequalities(rs, n)
    system = ec.compile_system(rs, n, qs)
    assert len(ec._orbits(system)) == orbits
    report = ec.irredundancy_check(rs, n, qs)
    assert _verdicts(report) == _one_lp_per_inequality(rs, n, qs)
    for j, c in enumerate(report.certificates):
        assert ec.check_certificate(rs, n, _rows(system), j, c.witness)


def _signs(q):
    return tuple(w.coords[0] for w in q.lhs_weights)


def test_irredundancy_with_duplicate_row(a1_n3):
    qs = list(a1_n3) + [a1_n3[0]]
    system = ec.compile_system(A1, 3, qs)
    # the copy breaks the symmetry of the row multiset down to the
    # permutations that fix the copied row, and shares its orbit
    assert ec._block_symmetries(system) == [(0, 1, 2), (0, 2, 1)]
    assert ec._orbits(system)[0] == [(0, (0, 1, 2)), (4, (0, 1, 2))]
    report = ec.irredundancy_check(A1, 3, qs)
    assert _verdicts(report) == _one_lp_per_inequality(A1, 3, qs)
    # each copy bounds the other, so neither can be separated and both
    # are dominated; distinctness_check is what flags the pair
    for k in (0, 4):
        c = report.certificates[k]
        assert (c.certified, c.method, c.optimum) == (False, "dominated", 0)


def test_irredundancy_on_a_list_that_is_not_invariant(a1_n3):
    # dropping the row with the plus sign on the first factor leaves only
    # the swap of the last two factors as a symmetry
    qs = [q for q in a1_n3 if _signs(q) != (1, -1, -1)]
    system = ec.compile_system(A1, 3, qs)
    assert ec._block_symmetries(system) == [(0, 1, 2), (0, 2, 1)]
    assert len(ec._orbits(system)) == 2
    report = ec.irredundancy_check(A1, 3, qs)
    assert _verdicts(report) == _one_lp_per_inequality(A1, 3, qs)
    assert report.all_certified


def test_check_certificate_rejects_tampered_witnesses():
    # x0 <= 1/2, x1 <= 1/2 and x0 + x1 <= 1 on two A1 alcove points
    rows = [((2, 0), 1), ((0, 2), 1), ((1, 1), 1)]
    F = Fraction

    def check(*w):
        return ec.check_certificate(A1, 2, rows, 0, tuple(F(v) for v in w))

    assert check("3/4", 0)
    assert not check("5/4", "-1/2")   # separates, but leaves the alcove
    assert not check("3/4", "1/2")    # also violates x0 + x1 <= 1
    assert not check("1/2", 0)        # only reaches its own bound
    assert not check("3/4")           # one coordinate short
    # A2: both coordinates nonnegative but theta(m) = 5/4 > 1
    a2 = build_root_system("A", 2)
    assert not ec.check_certificate(a2, 1, [((2, 0), 1)], 0, (F(3, 4), F(1, 2)))
    assert ec.check_certificate(a2, 1, [((2, 0), 1)], 0, (F(3, 4), F(1, 4)))


def test_small_n_warns(a1_n3):
    qs = ec.generate_inequalities(A1, 2)
    with pytest.warns(UserWarning, match="fewer than three factors"):
        ec.irredundancy_check(A1, 2, qs)


def _scaled(q, factor):
    return dataclasses.replace(
        q,
        lhs_weights=tuple(Weight(tuple(factor * c for c in w.coords))
                          for w in q.lhs_weights),
        rhs=factor * q.rhs)


def test_distinctness(a1_n3):
    assert ec.distinctness_check(a1_n3).pairs == ()
    q = a1_n3[0]
    assert ec.distinctness_check([q, q]).pairs == ((0, 1),)
    assert ec.distinctness_check([q, _scaled(q, 2)]).pairs == ((0, 1),)
    # a fractional or a negative factor is still proportional
    third, negated = _scaled(q, Fraction(1, 3)), _scaled(q, -1)
    assert ec.distinctness_check([q, third, negated]).pairs == ((0, 1), (0, 2))


def test_baseline_superset():
    key = lambda q: (q.parabolic, q.words, q.d)
    a1_base = {key(q) for q in ec.baseline_inequalities(A1, 3)}
    a1_def = {key(q) for q in ec.generate_inequalities(A1, 3)}
    assert a1_def == a1_base
    b2_base = {key(q) for q in ec.baseline_inequalities(B2, 3)}
    b2_def = {key(q) for q in ec.generate_inequalities(B2, 3)}
    assert b2_def < b2_base


def _ordered_tuple_reference(rs, n, coeff):
    """The enumeration without the S_n symmetry: every ordered n-tuple of
    classes at every degree, kept when coeff(table, tuple, degree) is 1."""
    out = []
    for ip in range(1, rs.rank + 1):
        table = ec.structure_table(rs, ip)
        ctx = table.ctx
        qdeg = table.q_degrees[0]
        omega = rs.fundamental_weight(ip)
        for d in range((n - 1) * ctx.dim // qdeg + 1):
            for tup in itertools.product(ctx.wp, repeat=n):
                if (sum(ctx.codim(u) for u in tup) == ctx.dim + d * qdeg
                        and coeff(table, tup, (d,)) == 1):
                    out.append(ec.Inequality(
                        ip, tuple(u.word for u in tup), d,
                        tuple(u.act(omega) for u in tup), d))
    out.sort(key=lambda q: q.key())
    return out


@pytest.mark.parametrize("t, r, n", [
    ("B", 2, 3), ("G", 2, 3), ("A", 2, 3), ("C", 2, 3), ("A", 2, 4),
    ("A", 2, 5), ("A", 3, 3), ("A", 3, 4), ("B", 3, 3), ("C", 3, 3),
    ("A", 1, 9)])
def test_generation_matches_ordered_tuple_reference(t, r, n):
    rs = build_root_system(t, r)
    assert ec.generate_inequalities(rs, n) == _ordered_tuple_reference(
        rs, n, deformed_coeff_tuple)
    assert ec.baseline_inequalities(rs, n) == _ordered_tuple_reference(
        rs, n, gw_invariant)
    # at A1 n=9, expanding each multiset through all n! orderings takes
    # seconds; its distinct orderings take milliseconds
    t0 = time.monotonic()
    ec.generate_inequalities(rs, n)
    assert time.monotonic() - t0 < 0.5


@settings(max_examples=60, deadline=None)
@given(ms=st.lists(st.integers(0, 3), min_size=1, max_size=6))
def test_distinct_orderings(ms):
    ms = tuple(sorted(ms))
    out = list(ec._distinct_orderings(ms))
    assert out == sorted(set(itertools.permutations(ms)))


def test_structure_table_cached():
    assert ec.structure_table(B2, 1) is ec.structure_table(B2, 1)


def test_inequality_json_round_trip(a1_n3):
    for q in a1_n3:
        obj = ec.inequality_to_obj(A1, 3, q)
        assert ec.inequality_from_obj(A1, obj) == q
    with pytest.raises(ValueError, match="different root system"):
        ec.inequality_from_obj(B2, ec.inequality_to_obj(A1, 3, a1_n3[0]))


def test_inequality_from_obj_refuses_a_misshapen_lhs(a1_n3):
    obj = ec.inequality_to_obj(A1, 3, a1_n3[0])
    with pytest.raises(ValueError, match='2 "lhs" factors, expected n=3'):
        ec.inequality_from_obj(A1, dict(obj, lhs=obj["lhs"][:2]))
    with pytest.raises(ValueError, match='2 "u" factors, expected n=3'):
        ec.inequality_from_obj(A1, dict(obj, u=obj["u"][:2]))
    with pytest.raises(ValueError, match="factor 2 has 2 coordinates, "
                                         "expected 1"):
        ec.inequality_from_obj(
            A1, dict(obj, lhs=[obj["lhs"][0], ["1", "0"], obj["lhs"][2]]))


def test_points_json_round_trip():
    points = [pt("1/3"), pt("2/3")]
    assert ec.points_from_obj(A1, ec.points_to_obj(points)) == points
    with pytest.raises(ValueError, match='"points" list'):
        ec.points_from_obj(A1, {"pts": []})
    with pytest.raises(ValueError, match="has 2 coordinates"):
        ec.points_from_obj(A1, {"points": [["1/3", "1/3"]]})
    with pytest.raises(ValueError, match="point 1"):
        ec.points_from_obj(A1, {"points": ["x"]})


@pytest.mark.parametrize("text, value", [
    ("1e4299", Fraction(10) ** 4299), ("1e-4299", Fraction(1, 10 ** 4299)),
    ("1_0.2_5E-1", Fraction(1025, 1000)), ("-0.5", Fraction(-1, 2)),
])
def test_coordinates_up_to_the_digit_limit_are_read(text, value):
    assert ec.points_from_obj(A1, {"points": [[text]]})[0].coords == (value,)


@pytest.mark.parametrize("text", [
    "1e4300", "1e-4300", "0.5e4300", "1" + "0" * 4300, "1e" + "9" * 30,
])
def test_coordinates_past_the_digit_limit_are_refused(text):
    with pytest.raises(ValueError, match="point 1: a coordinate has more "
                                         "than 4300 digits"):
        ec.points_from_obj(A1, {"points": [[text]]})


RATIONAL = st.fractions(min_value=0, max_value=1, max_denominator=8)


@settings(max_examples=60, deadline=None)
@given(ms=st.tuples(*[RATIONAL] * 6), lam=RATIONAL)
def test_region_is_convex(ms, lam):
    qs = ec.generate_inequalities(A1, 3)
    p = [pt(m) for m in ms[:3]]
    q = [pt(m) for m in ms[3:]]
    vp = ec.membership(A1, 3, p, qs)
    vq = ec.membership(A1, 3, q, qs)
    if "outside" in (vp.status, vq.status):
        return
    mix = [CartanPoint((lam * a.coords[0] + (1 - lam) * b.coords[0],))
           for a, b in zip(p, q)]
    assert ec.membership(A1, 3, mix, qs).status != "outside"


@settings(max_examples=40, deadline=None)
@given(ms=st.tuples(*[RATIONAL] * 3), perm=st.permutations([0, 1, 2]))
def test_membership_symmetric_in_points(ms, perm):
    qs = ec.generate_inequalities(A1, 3)
    points = [pt(m) for m in ms]
    base = ec.membership(A1, 3, points, qs).status
    shuffled = [points[i] for i in perm]
    assert ec.membership(A1, 3, shuffled, qs).status == base


@settings(max_examples=40, deadline=None)
@given(ms=st.tuples(*[st.fractions(min_value=0, max_value=Fraction(1, 3),
                                   max_denominator=12)] * 8))
def test_membership_matches_slack_reference(ms):
    # B2's weights have half-integer root coordinates, so the compiled rows
    # are scaled; the verdict must still follow the plain slacks.  At n=3 a
    # row's left half holds its right side and one block, at n=4 two
    for n in (3, 4):
        qs = ec.generate_inequalities(B2, n)
        points = [pt(*ms[k:k + 2]) for k in range(0, 2 * n, 2)]
        slacks = [q.slack(B2, points) for q in qs]
        v = ec.membership(B2, n, points, qs)
        assert v.violated == tuple(q for q, s in zip(qs, slacks) if s < 0)
        assert v.tight == tuple(q for q, s in zip(qs, slacks) if s == 0)


@pytest.mark.parametrize("n, theta", [
    # two rank-1 blocks, whose alcove rows make the unit square, where
    # x1 = 1 is a whole edge
    (2, (1,)),
    # one rank-2 block with theta = (1, 1), the triangle x >= 0,
    # x1 + x2 <= 1, where x1 = 1 is one vertex
    (1, (1, 1)),
], ids=["square", "triangle"])
def test_certify_row_bound_only_reached_is_dominated(n, theta):
    # maximizing x1 against x1 <= 1 reaches the bound but cannot pass it,
    # so the other rows imply it, facet of the region or not
    system = _system(build_root_system("A", len(theta)), n, [((1, 0), 1)])
    assert system.theta == theta
    assert ec._certify_row(system, 0) == (False, "dominated", 1, ())


def _full_tableau_certify_row(system, j):
    """_certify_row as it ran before row generation, kept as the reference:
    one LP over the n alcove rows and every other row of the system."""
    n, rank = system.n, system.rank
    rows = [[0] * (k * rank) + list(system.theta) + [0] * ((n - 1 - k) * rank)
            + [1] for k in range(n)]
    rows += [[*coeffs, rhs] for i, (coeffs, rhs) in enumerate(_rows(system))
             if i != j]
    coeffs, rhs = system.row(j)
    lp = ec._Simplex(rows)
    opt = lp.maximize(coeffs)
    if opt > rhs:
        return True, "separating-point", opt / system.scales[j], lp.solution()
    return False, "dominated", opt / system.scales[j], ()


def _hand_built_lists(a1_n3):
    dup = list(a1_n3) + [a1_n3[0]]
    not_invariant = [q for q in a1_n3 if _signs(q) != (1, -1, -1)]
    slack = list(a1_n3) + [dataclasses.replace(a1_n3[-1], rhs=2)]
    return [ec.compile_system(A1, 3, qs)
            for qs in (dup, not_invariant, slack)] + [
        # the square and the triangle of the dominated test above
        _system(A1, 2, [((1, 0), 1)]),
        _system(build_root_system("A", 2), 1, [((1, 0), 1)])]


@pytest.mark.parametrize("t, r, n", [
    ("B", 2, 3), ("G", 2, 3), ("A", 2, 4), ("A", 3, 3), ("B", 3, 3),
    ("C", 3, 3)])
def test_row_generation_matches_the_full_tableau(t, r, n):
    rs = build_root_system(t, r)
    system = ec.compile_system(rs, n, ec.generate_inequalities(rs, n))
    for (j, _), *_ in ec._orbits(system):
        got = ec._certify_row(system, j)
        assert got[:3] == _full_tableau_certify_row(system, j)[:3]
        # the final relaxation's maximizer separates row j from every row
        assert ec.check_certificate(rs, n, _rows(system), j, got[3])


def test_row_generation_matches_the_full_tableau_on_hand_built_lists(a1_n3):
    for system in _hand_built_lists(a1_n3):
        for j in range(len(system)):
            assert ec._certify_row(system, j)[:3] == \
                _full_tableau_certify_row(system, j)[:3]


def test_no_lp_gets_the_full_system(monkeypatch):
    # a guard against the full tableau coming back: row generation starts
    # from the alcove rows and adds only violated rows
    B3 = build_root_system("B", 3)
    qs = ec.generate_inequalities(B3, 3)
    sizes = []

    class Recording(ec._Simplex):
        def __init__(self, rows):
            sizes.append(len(rows))
            super().__init__(rows)
    monkeypatch.setattr(ec, "_Simplex", Recording)
    assert ec.irredundancy_check(B3, 3, qs).all_certified
    # the n alcove rows and every row but the one maximized
    full = 3 + len(qs) - 1
    assert sizes and max(sizes) < full
    assert min(sizes) == 3


@pytest.mark.parametrize("t, r", [("B", 3), ("D", 4)])
def test_rows_join_by_violation_over_norm(t, r):
    # at every vertex of the alcove^3 (x / 60, each block 0 or a vertex
    # e_m / theta_m), the rows added are those of largest excess**2 /
    # |a|**2 as Fractions, ties to the lower index
    rs = build_root_system(t, r)
    system = ec.compile_system(rs, 3, ec.generate_inequalities(rs, 3))
    rows = _rows(system)
    vertices = [[0] * r] + [[60 // rs.highest_root[m] * (i == m)
                             for i in range(r)] for m in range(r)]
    ranked = 0
    for blocks in itertools.product(vertices, repeat=3):
        x = [v for block in blocks for v in block]
        left, right = ec._halves(system, ec._block_dots(system, x), 60,
                                 (0, 1, 2))
        violated = ec._violated(system, left, right)
        excess = [sum(map(mul, coeffs, x)) - rhs * 60 for coeffs, rhs in rows]
        assert violated == [i for i, e in enumerate(excess) if e > 0]
        expected = sorted(violated, key=lambda i: (-Fraction(
            excess[i] ** 2, sum(c * c for c in rows[i][0])), i))
        assert ec._most_violated(system, violated, left, right) == \
            expected[:ec._ADD]
        ranked += len(violated) > ec._ADD
    assert ranked


def _members_and_strangers(system, members):
    """The members of an orbit, and each one's perm paired with the next
    row's index, which its witness does not separate."""
    return members + [((k + 1) % len(system), perm)
                      for k, perm in members]


@pytest.mark.parametrize("t, r", [("B", 3), ("C", 3), ("D", 4)])
def test_block_id_check_matches_check_certificate(t, r):
    rs = build_root_system(t, r)
    qs = ec.generate_inequalities(rs, 3)
    report = ec.irredundancy_check(rs, 3, qs)
    system = ec.compile_system(rs, 3, qs)
    for members in ec._orbits(system):
        witness = report.certificates[members[0][0]].witness
        pairs = _members_and_strangers(system, members)
        expected = [ec.check_certificate(
            rs, 3, _rows(system), k, ec._permute(witness, perm, rs.rank))
            for k, perm in pairs]
        assert ec._separated(system, witness, pairs) == expected
        assert expected == [True] * len(members) + [False] * len(members)


def test_block_id_check_rejects_tampered_witnesses():
    # the rows and witnesses of test_check_certificate_rejects_tampered_
    # witnesses, through the block ids
    F = Fraction
    rows = (((2, 0), 1), ((0, 2), 1), ((1, 1), 1))
    system = _system(A1, 2, rows)
    # ("3/4", "-1/4") leaves the alcove by its sign alone
    for w in [("3/4", 0), ("5/4", "-1/2"), ("3/4", "-1/4"), ("3/4", "1/2"),
              ("1/2", 0), ("3/4",), (0, "3/4")]:
        w = tuple(F(v) for v in w)
        for perm in [(0, 1), (1, 0)]:
            assert ec._separated(system, w, [(0, perm)]) == [
                ec.check_certificate(A1, 2, rows, 0,
                                     ec._permute(w, perm, 1))]
    assert ec._separated(system, (F(3, 4), 0), [(0, (0, 1)), (0, (1, 0))]) \
        == [True, False]
    assert ec._separated(system, (F(3, 4), F(-1, 4)), [(0, (0, 1))]) == [False]
    a2 = build_root_system("A", 2)
    system = _system(a2, 1, [((2, 0), 1)])
    assert ec._separated(system, (F(3, 4), F(1, 2)), [(0, (0,))]) == [False]
    assert ec._separated(system, (F(3, 4), F(1, 4)), [(0, (0,))]) == [True]
    assert ec.check_certificate(a2, 1, _rows(system), 0, (F(3, 4), F(1, 4)))


class _FractionSimplex:
    """The simplex as it ran on a Fraction tableau, kept as the reference
    for the integer one: the same Bland's rule, ratio test and condensed
    tableau, with every entry a Fraction."""

    def __init__(self, rows):
        self.nvars = len(rows[0]) - 1 if rows else 0
        self.m = len(rows)
        self.rows = [[Fraction(v) for v in row] for row in rows]
        self.basis = list(range(self.nvars, self.nvars + self.m))
        self.nonbasic = list(range(self.nvars))
        self.obj = None

    def _pivot(self, pr, pc):
        row = self.rows[pr]
        inv = 1 / row[pc]
        row = [v * inv for v in row]
        row[pc] = inv
        self.rows[pr] = row
        nonzero = [(c, v) for c, v in enumerate(row) if v]
        for other in itertools.chain(self.rows, (self.obj,)):
            f = other[pc]
            if f and other is not row:
                other[pc] = 0
                for c, v in nonzero:
                    other[c] -= f * v
        self.basis[pr], self.nonbasic[pc] = self.nonbasic[pc], self.basis[pr]

    def maximize(self, costs):
        costs = [Fraction(v) for v in costs] + [Fraction(0)] * self.m
        obj = [costs[j] for j in self.nonbasic] + [Fraction(0)]
        for r, bj in enumerate(self.basis):
            if costs[bj]:
                f = costs[bj]
                obj = [a - f * b for a, b in zip(obj, self.rows[r])]
        self.obj = obj
        while True:
            entering = [(j, c) for c, j in enumerate(self.nonbasic)
                        if obj[c] > 0]
            if not entering:
                return -obj[-1]
            pc = min(entering)[1]
            best = None
            for r, row in enumerate(self.rows):
                a = row[pc]
                if a > 0:
                    cand = (row[-1] / a, self.basis[r], r)
                    if best is None or cand < best:
                        best = cand
            assert best is not None, "unbounded"
            self._pivot(best[2], pc)

    def solution(self):
        x = [Fraction(0)] * self.nvars
        for r, bj in enumerate(self.basis):
            if bj < self.nvars:
                x[bj] = self.rows[r][-1]
        return tuple(x)


def _count_pivots(lp):
    count = [0]
    pivot = lp._pivot

    def counted(pr, pc):
        count[0] += 1
        pivot(pr, pc)
    lp._pivot = counted
    return count


def _random_lp(rng):
    """The [a_1, ..., a_N, b] rows of a bounded LP with b >= 0: random rows
    plus a box on every variable; about a third of the right sides are 0,
    which makes it degenerate."""
    nvars = rng.randint(2, 6)
    a_rows = [[rng.randint(-4, 4) for _ in range(nvars)]
              for _ in range(rng.randint(1, 12))]
    a_rows += [[int(i == j) for i in range(nvars)] for j in range(nvars)]
    return [row + [0 if rng.random() < 1 / 3 else rng.randint(1, 9)]
            for row in a_rows]


@pytest.mark.parametrize("seed", range(40))
def test_integer_simplex_matches_fraction_reference(seed):
    rng = random.Random(seed)
    rows = _random_lp(rng)
    nvars = len(rows[0]) - 1
    for _ in range(4):
        # each objective on a fresh pair of tableaux, from the slack basis;
        # the integer one pivots its rows in place, so it gets a copy
        costs = [rng.randint(-5, 5) for _ in range(nvars)]
        lp = ec._Simplex([row[:] for row in rows])
        ref = _FractionSimplex(rows)
        pivots, ref_pivots = _count_pivots(lp), _count_pivots(ref)
        opt = lp.maximize(costs)
        assert type(opt) is Fraction
        assert opt == ref.maximize(costs)
        assert lp.solution() == ref.solution()
        assert (lp.basis, lp.nonbasic) == (ref.basis, ref.nonbasic)
        assert pivots == ref_pivots
    with pytest.raises(AssertionError, match="maximized once"):
        lp.maximize(costs)


def test_simplex_refuses_a_negative_right_side():
    with pytest.raises(AssertionError,
                       match="single-phase start needs b >= 0"):
        ec._Simplex([[1, 0, 1], [0, 1, -1]])


def test_simplex_refuses_an_unbounded_lp():
    # x1 - x2 <= 1 leaves x2, and with it x1 + x2, unbounded above
    with pytest.raises(RuntimeError, match="unbounded"):
        ec._Simplex([[1, -1, 1]]).maximize([1, 1])


def test_simplex_pivot_guard(monkeypatch):
    # the unit square needs two pivots to reach (1, 1)
    lp = ec._Simplex([[1, 0, 1], [0, 1, 1]])
    pivots = _count_pivots(lp)
    assert lp.maximize([1, 1]) == 2 and pivots == [2]
    monkeypatch.setattr(ec._Simplex, "MAX_PIVOTS", 1)
    with pytest.raises(RuntimeError, match="simplex pivot guard exceeded"):
        ec._Simplex([[1, 0, 1], [0, 1, 1]]).maximize([1, 1])


@pytest.mark.parametrize("t, r, n", [
    ("B", 2, 3), ("G", 2, 3), ("A", 2, 4), ("B", 3, 3), ("C", 3, 3)])
def test_irredundancy_matches_fraction_reference(t, r, n, monkeypatch):
    rs = build_root_system(t, r)
    qs = ec.generate_inequalities(rs, n)
    report = ec.irredundancy_check(rs, n, qs)
    monkeypatch.setattr(ec, "_Simplex", _FractionSimplex)
    assert report == ec.irredundancy_check(rs, n, qs)
