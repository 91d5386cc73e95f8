"""Exact counting formulas realized on the truncated-series engine.

All results are exact rationals.  The three building blocks:

* distinguished totals -- a host with one distinguished copy from a family
  factors as (family EGF) x (set of extra vertices) x (set of extra edges),
  so the count is a single coefficient of F(z,w) e^z e^{n^2 w/2} for
  multigraphs, respectively F(z, w/(1+w)) e^z (1+w)^binom(n,2) for simple
  graphs;

* degree-weighted totals -- the half-edge construction gives the weighted
  host count (2m)! [x^{2m}] Delta(x)^n, and a distinguished copy turns each
  degree mark y_d into the series Delta^(d)(x);

* exact t-copy counts -- inclusion-exclusion over patchworks: substitute
  u -> u - 1 into the patchwork series and read off [u^t].
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable

from .graphs import Graph, as_family, aut_count
from .models import WeightSpec
from .oracle import patchwork_series
from .series import TruncatedSeries, family_egf


def mg_total(n: int, m: int) -> int:
    """Number of canonical (n,m)-multigraphs: n^(2m)."""
    return n ** (2 * m)


def sg_total(n: int, m: int) -> int:
    """Number of canonical simple (n,m)-graphs: binom(binom(n,2), m)."""
    return math.comb(math.comb(n, 2), m)


def _exp_z(n: int) -> TruncatedSeries:
    coeffs = {(k,): Fraction(1, math.factorial(k)) for k in range(n + 1)}
    return TruncatedSeries(("z",), (n,), coeffs)


def _exp_edges(n: int, m: int) -> TruncatedSeries:
    half_n2 = Fraction(n * n, 2)
    coeffs = {(j,): half_n2**j / math.factorial(j) for j in range(m + 1)}
    return TruncatedSeries(("w",), (m,), coeffs)


def _binom_edges(n: int, m: int) -> TruncatedSeries:
    pairs = math.comb(n, 2)
    coeffs = {(j,): Fraction(math.comb(pairs, j)) for j in range(m + 1)}
    return TruncatedSeries(("w",), (m,), coeffs)


def mg_distinguished(n: int, m: int, family: Graph | Iterable[Graph]) -> Fraction:
    """Total number of (n,m)-multigraphs with one distinguished family copy.

    n! 2^m m! [z^n w^m] F(z,w) e^z e^{n^2 w / 2}.
    """
    shapes = as_family(family)
    if not shapes:
        return Fraction(0)
    f = family_egf(shapes, n, m)
    series = f * _exp_z(n) * _exp_edges(n, m)
    coeff = series.extract({"z": n, "w": m})
    return coeff * math.factorial(n) * 2**m * math.factorial(m)


def sg_distinguished(n: int, m: int, family: Graph | Iterable[Graph]) -> Fraction:
    """Total number of simple (n,m)-graphs with one distinguished family copy.

    n! [z^n w^m] F(z, w/(1+w)) e^z (1+w)^binom(n,2).
    """
    shapes = as_family(family)
    if not shapes:
        return Fraction(0)
    f = family_egf(shapes, n, m).substitute_w_over_1pw()
    series = f * _exp_z(n) * _binom_edges(n, m)
    coeff = series.extract({"z": n, "w": m})
    return coeff * math.factorial(n)


def mg_weighted_total(n: int, m: int, delta: WeightSpec) -> Fraction:
    """Total weight of (n,m)-multigraphs: (2m)! [x^{2m}] Delta(x)^n."""
    poly = delta.egf_poly(2 * m)
    coeff = poly.pow(n).extract({"x": 2 * m})
    return coeff * math.factorial(2 * m)


def mg_distinguished_weighted(
    n: int, m: int, delta: WeightSpec, family: Graph | Iterable[Graph]
) -> Fraction:
    """Total weight of (n,m,Delta)-multigraphs with one distinguished copy.

    n! 2^m m! [z^n w^m] sum_j (2j)! [x^{2j}] F(z, w, dbar Delta(x))
    e^{z Delta(x)} w^j / (2^j j!), where the degree mark y_d receives the
    series Delta^(d)(x).  The w-cap bounds j by m, so the sum is finite.
    """
    shapes = as_family(family)
    if not shapes:
        return Fraction(0)
    x_cap = 2 * m
    caps = {"z": n, "w": m, "x": x_cap}
    delta_poly = delta.egf_poly(x_cap)
    # F with each vertex of degree d contributing Delta^(d)(x)
    f_total = TruncatedSeries.zero(("w", "x", "z"), (m, x_cap, n))
    for shape in shapes:
        if shape.n > n or shape.m > m:
            continue
        term = TruncatedSeries.monomial(
            {"z": shape.n, "w": shape.m}, Fraction(1, aut_count(shape)), caps
        )
        for d in shape.degrees():
            term = term * delta_poly.derivative("x", d)
        f_total = f_total + term
    z_delta = TruncatedSeries.monomial({"z": 1}, 1, caps) * delta_poly
    series = f_total * z_delta.exp()
    total = Fraction(0)
    for j in range(m + 1):
        coeff = series.extract({"z": n, "w": m - j, "x": 2 * j})
        if coeff:
            total += coeff * Fraction(math.factorial(2 * j), 2**j * math.factorial(j))
    return total * math.factorial(n) * 2**m * math.factorial(m)


def expected_count(
    n: int,
    m: int,
    family: Graph | Iterable[Graph],
    delta: WeightSpec | None = None,
    kind: str = "multigraph",
) -> Fraction:
    """Expected number of family copies in a random (n,m[,Delta])-(multi)graph."""
    if kind == "multigraph":
        if delta is None:
            total = Fraction(mg_total(n, m))
            dist = mg_distinguished(n, m, family)
        else:
            total = mg_weighted_total(n, m, delta)
            dist = mg_distinguished_weighted(n, m, delta, family)
    elif kind == "simple":
        if delta is not None:
            raise ValueError("degree weights are implemented for multigraphs")
        total = Fraction(sg_total(n, m))
        dist = sg_distinguished(n, m, family)
    else:
        raise ValueError(f"unknown kind {kind!r}")
    if total == 0:
        raise ZeroDivisionError("total weight is zero")
    return dist / total


def count_with_exactly_t(n: int, m: int, f: Graph, t: int, kind: str = "multigraph") -> Fraction:
    """Number of (n,m) hosts containing exactly t copies of f.

    Patchwork inclusion-exclusion: substitute u -> u-1 in the patchwork
    series and extract [u^t] of the distinguished-patchwork total.
    """
    if kind != f.kind:
        raise ValueError("pattern kind must match host kind")
    patch = patchwork_series(f, n_max=n, m_max=m, kind=kind)
    series = patch.series.substitute_shift("u", -1)
    if kind == "multigraph":
        series = series * _exp_z(n) * _exp_edges(n, m)
        coeff = series.extract({"z": n, "w": m, "u": t}) if t <= series.caps[series.variables.index("u")] else Fraction(0)
        return coeff * math.factorial(n) * 2**m * math.factorial(m)
    series = series.substitute_w_over_1pw()
    series = series * _exp_z(n) * _binom_edges(n, m)
    coeff = series.extract({"z": n, "w": m, "u": t}) if t <= series.caps[series.variables.index("u")] else Fraction(0)
    return coeff * math.factorial(n)


def f_free_count(n: int, m: int, f: Graph, kind: str = "multigraph") -> Fraction:
    """Number of (n,m) hosts with no copy of f (the t = 0 slice)."""
    return count_with_exactly_t(n, m, f, 0, kind=kind)
