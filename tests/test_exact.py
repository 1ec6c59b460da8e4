import copy
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from multcone.exact import as_int, poly_mul, solve

from exact_reference import solve_reference


def test_solve_multiple_right_sides():
    # [[2, 1], [1, 1]] x = b for b = e_0 and b = e_1 at once
    rows = [({0: 2, 1: 1}, {"e0": 1}), ({0: 1, 1: 1}, {"e1": 1})]
    x0, x1 = solve(rows, 2, lambda: "singular")
    assert x0 == {"e0": 1, "e1": -1}
    assert x1 == {"e0": -1, "e1": 2}
    assert all(isinstance(v, Fraction) for v in (*x0.values(), *x1.values()))


def test_solver_reports_deficiency():
    # an underdetermined exact system must fail loudly, not guess
    rows = [({0: 1, 1: 1}, {"b": 1})]
    with pytest.raises(RuntimeError, match="stuck"):
        solve(rows, 2, lambda: "solver stuck: column without pivot")


def test_solver_rejects_inconsistent_system():
    # x = 1 and 2x = 3 cannot both hold
    rows = [({0: 1}, {"b": 1}), ({0: 2}, {"b": 3})]
    with pytest.raises(AssertionError, match="inconsistent"):
        solve(rows, 1, lambda: "unused")


def test_solver_accepts_redundant_consistent_rows():
    rows = [({0: 1}, {"b": 1}), ({0: 2}, {"b": 2}), ({0: 0}, {"b": 0})]
    assert solve(rows, 1, lambda: "unused") == [{"b": 1}]


@st.composite
def _integer_systems(draw):
    """Random integer systems with one to three right-hand-side keys:
    ncols or ncols - 1 drawn rows, then integer combinations of them whose
    right sides are kept (consistent, overdetermined) or nudged (mostly
    inconsistent), in a drawn order."""
    ncols = draw(st.integers(1, 5))
    keys = draw(st.lists(st.sampled_from(["a", "b", None]), min_size=1,
                         max_size=3, unique=True))
    nbase = draw(st.sampled_from([ncols, ncols, ncols, max(1, ncols - 1)]))
    rows = [({j: draw(st.integers(-4, 4)) for j in range(ncols)},
             {k: draw(st.integers(-6, 6)) for k in keys})
            for _ in range(nbase)]
    for _ in range(draw(st.integers(0, 3))):
        mult = [draw(st.integers(-2, 2)) for _ in rows]
        rows.append((
            {j: sum(m * c.get(j, 0) for m, (c, _) in zip(mult, rows))
             for j in range(ncols)},
            {k: sum(m * b[k] for m, (_, b) in zip(mult, rows))
             + draw(st.sampled_from([0, 0, 0, 1])) for k in keys}))
    return draw(st.permutations(rows)), ncols


def _outcome(solver, rows, ncols):
    try:
        return solver(copy.deepcopy(rows), ncols, lambda: "no pivot")
    except (RuntimeError, AssertionError) as exc:
        return type(exc), str(exc)


@settings(max_examples=150, deadline=None)
@given(_integer_systems())
def test_solve_matches_fraction_reference(system):
    # same solutions, and the same refusal of rank-deficient and
    # inconsistent systems, as Gauss-Jordan over the rationals
    rows, ncols = system
    got = _outcome(solve, rows, ncols)
    assert got == _outcome(solve_reference, rows, ncols)
    if isinstance(got, list):
        assert all(type(v) is Fraction for sol in got for v in sol.values())


def test_as_int():
    assert as_int(Fraction(6, 3)) == 2 and type(as_int(Fraction(6, 3))) is int
    with pytest.raises(AssertionError, match="expected an integer"):
        as_int(Fraction(1, 2))


def test_poly_mul_truncates_and_cancels():
    # classes "a", "b" with b*b = q^1 a and a acting as the unit
    products = {("a", "b"): {("b", (0,)): 1},
                ("b", "b"): {("a", (1,)): 1}}
    poly = {("a", (0,)): 1, ("b", (0,)): -1}
    assert poly_mul(poly, products, "b") == {("b", (0,)): 1, ("a", (1,)): -1}
    assert poly_mul(poly, products, "b", cap=(0,)) == {("b", (0,)): 1}
    products[("b", "b")] = {("b", (0,)): 1}
    assert poly_mul(poly, products, "b") == {}
