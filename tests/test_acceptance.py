"""Acceptance gate: ten numbered end-to-end checks, one PASS line each.

Each test prints "criterion NN <label>: PASS (<detail>)" when it holds and
fails loudly otherwise.  Stated runtime budgets are asserted, not assumed.
"""
import itertools
import random
import re
import time
from fractions import Fraction
from pathlib import Path

import pytest

from multcone import eigencone as ec
from multcone import unitary_oracle as uo
from multcone.deformed_ring import (a_exponent, deformed_coeff_tuple,
                                    deformed_product, render_table)
from multcone.quantum_ring import build_structure_table, gw_invariant
from multcone.root_system import (CartanPoint, build_root_system, kappa,
                                  kappa_inv, killing_form)
from multcone.weyl import minimal_reps

from weyl_reference import get_weyl_group

FIXTURES = Path(__file__).parent / "fixtures"


def _report(num, label, ok, detail=""):
    line = f"criterion {num:02d} {label}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def _ctx(t, r, ip):
    return minimal_reps(build_root_system(t, r), {ip})


TABLE_KEYS = [("A", 1, 1), ("A", 2, 1), ("A", 3, 2), ("B", 2, 1),
              ("B", 2, 2), ("G", 2, 1), ("G", 2, 2)]


@pytest.fixture(scope="module")
def tables():
    return {k: build_structure_table(_ctx(*k)) for k in TABLE_KEYS}


def _normalize(text):
    lines = [re.sub(r" +", " ", ln).rstrip() for ln in text.splitlines()]
    while lines and not lines[-1]:
        lines.pop()
    return "\n".join(lines)


def test_criterion_01_golden_tables():
    t0 = time.monotonic()
    cases = [(("B", 2, 2), "b2p2.txt", 10), (("G", 2, 1), "g2p1.txt", 21),
             (("G", 2, 2), "g2p2.txt", 21)]
    entries = 0
    for key, fixture, count in cases:
        rendered = _normalize(render_table(build_structure_table(_ctx(*key)),
                                           "text"))
        assert rendered == _normalize((FIXTURES / fixture).read_text()), key
        got = sum(1 for ln in rendered.splitlines() if "*" in ln)
        assert got == count, (key, got)
        entries += got
    elapsed = time.monotonic() - t0
    _report(1, "golden tables", elapsed < 10,
            f"{entries} entries, {elapsed:.2f}s")


IDENTITY_TYPES = [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3),
                  ("C", 3), ("G", 2)]


def test_criterion_02_exact_identities():
    checked = 0
    for t, r in IDENTITY_TYPES:
        rs = build_root_system(t, r)
        basis = [rs.x_point(i) for i in range(1, r + 1)]
        pos = [rs.weight_from_root_coords(a) for a in rs.positive_roots]
        for h in basis:
            for h2 in basis:
                lhs = 2 * sum(rs.weight_value(a, h) * rs.weight_value(a, h2)
                              for a in pos)
                rhs = 2 * rs.dual_coxeter * \
                    rs.weight_value(kappa_inv(rs, h), h2)
                assert lhs == rhs, (t, r)
                checked += 1
        for i in range(1, r + 1):
            w = rs.fundamental_weight(i)
            ai = tuple(int(k == i - 1) for k in range(r))
            half = rs.form_on_root_coords(ai, ai) / 2
            assert kappa(rs, w).coords == tuple(
                half * c for c in rs.x_point(i).coords), (t, r, i)
            checked += 1
        for ip in range(1, r + 1):
            ctx = minimal_reps(rs, {ip})
            for w in ctx.wp:
                winv = get_weyl_group(ctx.rs).inverse(w)
                acc = [Fraction(0)] * r
                for root in ctx.outside_pos:
                    if get_weyl_group(ctx.rs).root_sign(w, root) > 0:
                        for j, c in enumerate(root):
                            acc[j] += c
                via_sum = rs.weight_from_root_coords(acc)
                via_rho = rs.rho - 2 * ctx.rho_l + winv.act(rs.rho)
                assert via_sum == via_rho == ctx.chi(w), (t, r, ip, w)
                checked += 1
    for (t, r, ip), want in [(("G", 2, 1), 5), (("G", 2, 2), 3),
                             (("A", 1, 1), 2)]:
        rs = build_root_system(t, r)
        ctx = minimal_reps(rs, {ip})
        coroot = tuple(int(k == ip - 1) for k in range(r))
        assert ctx.q_degrees[ip] == want
        assert 2 - 2 * rs.pair_weight_coroot(ctx.rho_l, coroot) == want
        assert rs.pair_weight_coroot(ctx.chi_e(), coroot) == want
        checked += 1
    _report(2, "exact identities", True, f"{checked} equalities")


def test_criterion_03_exponents_nonnegative(tables):
    keys = [("B", 2, 1), ("B", 2, 2), ("G", 2, 1), ("G", 2, 2),
            ("A", 2, 1), ("A", 3, 2)]
    constants = 0
    for key in keys:
        table = tables[key]
        ctx = table.ctx
        for u in ctx.wp:
            for v in ctx.wp:
                for (_x, _d, e), c in deformed_product(
                        table, u, v).terms.items():
                    assert c > 0 and all(a >= 0 for a in e), key
                    constants += 1
    _report(3, "exponents nonnegative", True,
            f"{constants} nonzero constants")


def test_criterion_04_cominuscule_collapse(tables):
    flat = 0
    for key in [("A", 2, 1), ("A", 3, 2), ("B", 2, 1)]:
        table = tables[key]
        ctx = table.ctx
        for u in ctx.wp:
            for v in ctx.wp:
                prod = deformed_product(table, u, v)
                assert all(e == (0,) for (_x, _d, e) in prod.terms), key
                assert prod.at_tau_zero() == prod.at_tau_one(), key
                flat += len(prod.terms)
    _report(4, "cominuscule collapse", True, f"{flat} terms, all exponent 0")


def test_criterion_05_four_line_count(tables):
    table = tables[("A", 3, 2)]
    ctx = table.ctx
    divisor = ctx.dual(ctx.by_length(1)[0])
    quadruple = (divisor,) * 4
    # four divisor conditions already saturate the dimension, so the two
    # lines meeting four general lines appear at curve degree zero here
    # and the degree-one coefficient vanishes on grading
    count = gw_invariant(table, quadruple, (0,))
    above = gw_invariant(table, quadruple, (1,))
    _report(5, "four-line count", count == 2 and above == 0,
            f"count={count} at q-degree 0, {above} at q-degree 1")


def test_criterion_06_su2_closed_form():
    rs = build_root_system("A", 1)
    for n in (3, 4, 5):
        expected = set()
        for bits in itertools.product((1, -1), repeat=n):
            plus = bits.count(1)
            if plus % 2 == 1:
                expected.add((bits, (plus - 1) // 2))
        got = set()
        for q in ec.generate_inequalities(rs, n):
            signs = tuple(int(w.coords[0]) for w in q.lhs_weights)
            assert q.d == q.rhs
            got.add((signs, q.rhs))
        assert got == expected, n
        assert len(got) == 2 ** (n - 1)
    _report(6, "closed-form rank-one systems", True, "n=3,4,5: 4/8/16")


def test_criterion_07_irredundancy():
    t0 = time.monotonic()
    cases = [("A", 1, 3), ("A", 1, 4), ("A", 1, 5), ("A", 2, 3), ("B", 2, 3)]
    summary = []
    for t, r, n in cases:
        rs = build_root_system(t, r)
        qs = ec.generate_inequalities(rs, n)
        rep = ec.irredundancy_check(rs, n, qs, workers=2)
        assert len(rep.certificates) == len(qs)
        assert all(c.certified for c in rep.certificates), (t, r, n)
        assert ec.distinctness_check(qs).pairs == (), (t, r, n)
        summary.append(f"{t}{r} n={n}: {len(qs)}")
    elapsed = time.monotonic() - t0
    _report(7, "irredundancy", elapsed < 600,
            "; ".join(summary) + f"; {elapsed:.1f}s")


def test_criterion_08_deformation_saving():
    detail = []
    for t, r in [("B", 2), ("G", 2)]:
        rs = build_root_system(t, r)
        key = lambda q: (q.parabolic, q.words, q.d)
        base = {key(q) for q in ec.baseline_inequalities(rs, 3)}
        kept = {key(q) for q in ec.generate_inequalities(rs, 3)}
        assert kept < base, (t, r)
        dropped = base - kept
        witnessed = 0
        for ip, words, d in dropped:
            ctx = minimal_reps(rs, {ip})
            by_word = {w.word: w for w in ctx.wp}
            u1, u2, u3 = (by_word[w] for w in words)
            if any(a > 0 for a in a_exponent(ctx, u1, u2, u3, (d,))):
                witnessed += 1
        assert witnessed > 0, (t, r)
        detail.append(f"{t}{r}: {len(base)}->{len(kept)}, "
                      f"{witnessed} dropped by positive exponent")
    _report(8, "deformation saving", True, "; ".join(detail))


def _sampled_tuples(rs, qs, n, count, rng, denom):
    margin = Fraction(1, 20)
    out, tries = [], 0
    while len(out) < count:
        tries += 1
        assert tries < 500000, "sampling stalled"
        pts = [CartanPoint(tuple(Fraction(rng.randrange(denom + 1), denom)
                                 for _ in range(rs.rank)))
               for _ in range(n)]
        if not all(rs.in_alcove(p) for p in pts):
            continue
        if min(min(p.coords) for p in pts) < margin:
            continue
        if min(1 - rs.theta_value(p) for p in pts) < margin:
            continue
        slacks = [q.slack(rs, pts) for q in qs]
        if min(abs(s) for s in slacks) < margin:
            continue
        out.append((pts, min(slacks) > 0))
    return out


def test_criterion_09_oracle_concordance():
    t0 = time.monotonic()
    rng = random.Random(20260822)
    detail = []

    rs = build_root_system("A", 1)
    qs = ec.generate_inequalities(rs, 3)
    rep = uo.group_rep("SU2")
    inside_n = 0
    for idx, (pts, inside) in enumerate(
            _sampled_tuples(rs, qs, 3, 50, rng, 60)):
        assert ec.membership(rs, 3, pts, qs).status == \
            ("inside" if inside else "outside")
        ref = uo.su2_reference_membership([p.coords[0] / 2 for p in pts])
        assert ref == inside, pts
        v = uo.numeric_membership(rep, pts, restarts=150, seed=9000 + idx)
        assert v.feasible == inside, (pts, v)
        inside_n += inside
    detail.append(f"SU2 50/50 agree ({inside_n} inside)")

    for label, t in [("SU3", "A"), ("Sp4", "C")]:
        rs = build_root_system(t, 2)
        qs = ec.generate_inequalities(rs, 3)
        rep = uo.group_rep(label)
        certified, inside_n = 0, 0
        for idx, (pts, inside) in enumerate(
                _sampled_tuples(rs, qs, 3, 50, rng, 60)):
            v = uo.numeric_membership(rep, pts, restarts=150,
                                      seed=17000 + idx)
            if inside:
                inside_n += 1
                certified += bool(v.feasible and v.residual < 1e-8)
            else:
                assert not v.feasible, (label, pts, v)
        assert inside_n == 0 or certified >= 0.95 * inside_n, label
        detail.append(f"{label} {certified}/{inside_n} inside certified, "
                      "0 false-feasible")
    elapsed = time.monotonic() - t0
    _report(9, "oracle concordance", elapsed < 900,
            "; ".join(detail) + f"; {elapsed:.0f}s")


def test_criterion_10_ring_laws(tables):
    checked = 0
    for key, table in tables.items():
        ctx = table.ctx
        wp = ctx.wp
        unit_tau = get_weyl_group(ctx.rs).identity
        unit_sigma = ctx.dual(unit_tau)
        qd = table.q_degrees[0]
        for u in wp:
            assert table.tau_product(unit_tau, u) == {(u, table.zero_d): 1}
            assert table.sigma_product(unit_sigma, u) == \
                {(u, table.zero_d): 1}
            for v in wp:
                tp = table.tau_product(u, v)
                assert tp == table.tau_product(v, u)
                assert table.sigma_product(u, v) == \
                    table.sigma_product(v, u)
                for (y, d), c in tp.items():
                    assert isinstance(c, int) and c > 0
                    assert y.length == u.length + v.length - qd * d[0]
                checked += 1
        for u, v, w in itertools.product(wp, repeat=3):
            lhs = table.multiply_tau_poly(table.tau_product(u, v), w)
            rhs = table.multiply_tau_poly(table.tau_product(v, w), u)
            assert lhs == rhs, (key, u, v, w)
            checked += 1

    for key in [("B", 2, 2), ("G", 2, 2)]:
        table = tables[key]
        wp = table.ctx.wp
        for u, v, w in itertools.product(wp, repeat=3):
            for d in ((0,), (1,), (2,)):
                base_gw = gw_invariant(table, (u, v, w), d)
                base_dc = deformed_coeff_tuple(table, (u, v, w), d)
                for perm in itertools.permutations((u, v, w)):
                    assert gw_invariant(table, perm, d) == base_gw
                    assert deformed_coeff_tuple(table, perm, d) == base_dc
                checked += 1
    a1 = tables[("A", 1, 1)]
    for quad in itertools.product(a1.ctx.wp, repeat=4):
        for d in ((0,), (1,), (2,)):
            base = deformed_coeff_tuple(a1, quad, d)
            for perm in itertools.permutations(quad):
                assert deformed_coeff_tuple(a1, perm, d) == base
            checked += 1
    _report(10, "ring laws", True, f"{checked} law instances")
