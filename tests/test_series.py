import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphcensus import graphs as G
from graphcensus import oracle as O
from graphcensus.series import (
    TruncatedSeries,
    class_egf,
    family_egf,
    lagrange_identity_check,
    solve_tree_like,
)


def series_strategy(variables=("x", "y"), cap=3, max_terms=4):
    coeff = st.fractions(min_value=-4, max_value=4, max_denominator=3)
    expo = st.tuples(*[st.integers(0, cap) for _ in variables])
    return st.dictionaries(expo, coeff, max_size=max_terms).map(
        lambda d: TruncatedSeries(variables, (cap,) * len(variables), d)
    )


def test_arithmetic_examples():
    z = TruncatedSeries.monomial({"z": 1}, 1, {"z": 2})
    p = (z + 1) * (z + 1)
    assert [p.extract({"z": k}) for k in range(3)] == [1, 2, 1]
    zw = TruncatedSeries.monomial({"z": 1, "w": 1}, 1, {"z": 3, "w": 0})
    assert zw.is_zero()
    w = TruncatedSeries.monomial({"w": 1}, 1, {"w": 3})
    assert w.scale(Fraction(1, 2)).extract({"w": 1}) == Fraction(1, 2)


@settings(max_examples=60, deadline=None)
@given(series_strategy(), series_strategy(), series_strategy())
def test_ring_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


def test_exp_examples():
    z = TruncatedSeries.monomial({"z": 1}, 1, {"z": 4})
    e = z.exp()
    assert e.extract({"z": 4}) == Fraction(1, 24)
    w = TruncatedSeries.monomial({"w": 1}, 2, {"w": 2})  # n^2 w / 2 at n = 2
    assert [w.exp().extract({"w": k}) for k in range(3)] == [1, 2, 2]
    u = TruncatedSeries.monomial({"u": 1, "z": 3, "w": 3}, Fraction(1, 6), {"u": 1, "z": 3, "w": 3})
    assert u.exp().extract({"u": 1, "z": 3, "w": 3}) == Fraction(1, 6)
    with pytest.raises(ValueError):
        (z + 1).exp()


@settings(max_examples=40, deadline=None)
@given(series_strategy(("x",), cap=4, max_terms=3), series_strategy(("x",), cap=4, max_terms=3))
def test_exp_homomorphism(a, b):
    a = a - TruncatedSeries.constant(a.constant_term(), a.variables, a.caps)
    b = b - TruncatedSeries.constant(b.constant_term(), b.variables, b.caps)
    assert (a + b).exp() == a.exp() * b.exp()


def test_substitution_w_over_1pw():
    w = TruncatedSeries.monomial({"w": 1}, 1, {"w": 3})
    s = w.substitute_w_over_1pw()
    assert [s.extract({"w": k}) for k in range(4)] == [0, 1, -1, 1]
    s2 = TruncatedSeries.monomial({"w": 2}, 1, {"w": 3}).substitute_w_over_1pw()
    assert s2.extract({"w": 2}) == 1 and s2.extract({"w": 3}) == -2
    one = TruncatedSeries.constant(1, ("w",), (3,))
    assert one.substitute_w_over_1pw() == one


def _substitute_w_over_1mw(series, var="w"):
    # inverse substitution w -> w/(1-w)
    idx = series.variables.index(var)
    cap = series.caps[idx]
    out = TruncatedSeries.zero(series.variables, series.caps)
    for expo, c in series.coeffs.items():
        k = expo[idx]
        if k == 0:
            out = out + TruncatedSeries(series.variables, series.caps, {expo: c})
            continue
        for j in range(cap - k + 1):
            new = expo[:idx] + (k + j,) + expo[idx + 1 :]
            out = out + TruncatedSeries(
                series.variables, series.caps, {new: c * math.comb(k + j - 1, j)}
            )
    return out


@settings(max_examples=40, deadline=None)
@given(series_strategy(("w",), cap=5, max_terms=4))
def test_substitution_inverse(a):
    assert _substitute_w_over_1mw(a.substitute_w_over_1pw()) == a


def test_extract_examples():
    a = TruncatedSeries.monomial({"z": 2, "w": 1}, Fraction(1, 2), {"z": 2, "w": 1})
    ez = TruncatedSeries.monomial({"z": 1}, 1, {"z": 2}).exp()
    ew = TruncatedSeries.monomial({"w": 1}, 2, {"w": 1}).exp()
    assert (a * ez * ew).extract({"z": 2, "w": 1}) == Fraction(1, 2)
    x = TruncatedSeries.monomial({"x": 1}, 1, {"x": 2})
    assert (x + 1).pow(2).extract({"x": 2}) == 1
    u = TruncatedSeries.monomial({"u": 1}, 1, {"u": 3})
    assert (u + 1).pow(3).extract({"u": 1}) == 3
    with pytest.raises(ValueError):
        x.extract({"x": 5})


def test_pow_and_derivative():
    x = TruncatedSeries.monomial({"x": 1}, 1, {"x": 2})
    assert [(x + 1).pow(2).extract({"x": k}) for k in range(3)] == [1, 2, 1]
    cube = TruncatedSeries.monomial({"x": 3}, Fraction(1, 6), {"x": 3})
    assert cube.derivative("x").extract({"x": 2}) == Fraction(1, 2)
    delta = TruncatedSeries(
        ("x",), (2,), {(0,): 1, (1,): 1, (2,): Fraction(1, 2)}
    )
    assert delta.derivative("x", 2).extract({"x": 0}) == 1


def test_substitute_shift():
    u = TruncatedSeries.monomial({"u": 2}, 1, {"u": 2})
    shifted = u.substitute_shift("u", -1)  # (u-1)^2
    assert [shifted.extract({"u": k}) for k in range(3)] == [1, -2, 1]
    # shifting back is the identity
    assert shifted.substitute_shift("u", 1) == u


def test_lagrange_examples():
    et = TruncatedSeries(
        ("t",), (9,), {(k,): Fraction(1, math.factorial(k)) for k in range(10)}
    )
    one = TruncatedSeries.constant(1, ("t",), (9,))
    assert lagrange_identity_check(one, et, 8)
    t = TruncatedSeries.monomial({"t": 1}, 1, {"t": 9})
    phi = TruncatedSeries.constant(1, ("t",), (9,)) + t
    assert lagrange_identity_check(t, phi, 8)
    assert lagrange_identity_check(
        TruncatedSeries.constant(1, ("t",), (3,)),
        TruncatedSeries.constant(1, ("t",), (3,)),
        3,
    )
    with pytest.raises(ValueError):
        lagrange_identity_check(one, et, 13)
    with pytest.raises(ValueError):
        lagrange_identity_check(one, t, 3)  # phi(0) = 0


def test_tree_like_solution():
    # phi = e^t gives the tree function: [z^n] T = n^(n-1)/n!
    order = 8
    phi = TruncatedSeries(
        ("t",), (order,), {(k,): Fraction(1, math.factorial(k)) for k in range(order + 1)}
    )
    t = solve_tree_like(phi, "t", "z", order)
    for n in range(1, order + 1):
        assert t.extract({"z": n}) == Fraction(n ** (n - 1), math.factorial(n))


def test_class_egf_invariant():
    for f in [G.loop(), G.edge_multi(), G.double_edge(), G.path_multi(3), G.cycle_multi(3)]:
        egf = class_egf(f, f.n, f.m)
        expected = Fraction(
            O.canonical_copies(f),
            math.factorial(f.n) * 2**f.m * math.factorial(f.m),
        )
        assert egf.extract({"z": f.n, "w": f.m}) == expected
    for f in [G.edge_simple(), G.cycle_simple(3), G.path_simple(3)]:
        egf = class_egf(f, f.n, f.m)
        assert egf.extract({"z": f.n, "w": f.m}) == Fraction(
            O.canonical_copies(f), math.factorial(f.n)
        )


def test_class_egf_marks():
    egf = class_egf(G.cycle_multi(3), 3, 3, marks=True)
    assert egf.extract({"z": 3, "w": 3, "y2": 3}) == Fraction(1, 6)
    # substituting 1 for the marks recovers the unmarked EGF
    assert egf.substitute_value("y2", 1) == class_egf(G.cycle_multi(3), 3, 3)


def test_family_egf_sums():
    fam = family_egf([G.loop(), G.edge_multi()], 2, 1)
    assert fam.extract({"z": 1, "w": 1}) == Fraction(1, 2)
    assert fam.extract({"z": 2, "w": 1}) == Fraction(1, 2)


def test_debug_json():
    s = TruncatedSeries.monomial({"z": 2}, Fraction(3, 7), {"z": 2})
    assert s.to_debug_json() == {"z^2": "3/7"}
