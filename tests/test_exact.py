from fractions import Fraction

import pytest

from multcone.exact import as_int, poly_mul, solve


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
