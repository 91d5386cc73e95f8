"""Exact counting formulas, each read off as one finite coefficient sum.

All results are exact rationals.  Each answer is one coefficient of a
product of generating functions, computed as a sum over the monomials of the
family (or patchwork) series times the other factors' closed-form
coefficients.  The three building blocks:

* distinguished totals -- a host with one distinguished copy from a family
  factors as (family EGF) x (set of extra vertices) x (set of extra edges),
  so the count is a single coefficient of F(z,w) e^z e^{n^2 w/2} for
  multigraphs, respectively F(z, w/(1+w)) e^z (1+w)^binom(n,2) for simple
  graphs.  A piece z^a w^b of F contributes (n)_a (m)_b 2^b n^{2(m-b)} for
  multigraphs, respectively (n)_a binom(binom(n,2) - b, m - b) for simple graphs;

* degree-weighted totals -- the half-edge construction gives the weighted
  host count (2m)! [x^{2m}] Delta(x)^n, and a distinguished copy turns each
  degree mark y_d into the series Delta^(d)(x).  As [z^k] e^{z Delta} =
  Delta^k / k!, a piece needs Delta^{n-a} on x^0..x^{2m} only, which J. C. P.
  Miller's recurrence (Knuth, TAOCP 2, 4.7) gives for r = Delta / x^{d_min}:
  q = r^k has q_0 = r_0^k, q_s = sum_{i=1..s} ((k+1) i - s) r_i q_{s-i} / (s r_0);

* exact t-copy counts -- inclusion-exclusion over patchworks: substitute
  u -> u - 1 into the patchwork series and read off [u^t], using
  [u^t] (u-1)^k = binom(k,t) (-1)^{k-t}.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable

from .graphs import Graph, as_family, aut_count
from .models import WeightSpec
from .oracle import patchwork_series


def _check_size(n: int, m: int) -> None:
    if n < 0 or m < 0:
        raise ValueError(f"n and m must be nonnegative, got n={n}, m={m}")


def mg_total(n: int, m: int) -> int:
    """Number of canonical (n,m)-multigraphs: n^(2m)."""
    _check_size(n, m)
    return n ** (2 * m)


def sg_total(n: int, m: int) -> int:
    """Number of canonical simple (n,m)-graphs: binom(binom(n,2), m)."""
    _check_size(n, m)
    return math.comb(math.comb(n, 2), m)


def _family(family: Graph | Iterable[Graph], kind: str) -> list[Graph]:
    """The family as a list, every member of the host's kind."""
    shapes = as_family(family)
    if any(f.kind != kind for f in shapes):
        raise ValueError(f"a {kind} host count needs {kind} patterns")
    return shapes


def _hosts(n: int, m: int, a: int, b: int, kind: str) -> int:
    """n! 2^m m! [z^n w^m] z^a w^b e^z e^{n^2 w/2} (multigraph), respectively
    n! [z^n w^m] z^a (w/(1+w))^b e^z (1+w)^binom(n,2) (simple)."""
    if a > n or b > m:
        return 0
    if kind == "multigraph":
        return math.perm(n, a) * math.perm(m, b) * 2**b * n ** (2 * (m - b))
    return math.perm(n, a) * math.comb(math.comb(n, 2) - b, m - b)


def mg_distinguished(n: int, m: int, family: Graph | Iterable[Graph]) -> Fraction:
    """Total number of (n,m)-multigraphs with one distinguished family copy.

    n! 2^m m! [z^n w^m] F(z,w) e^z e^{n^2 w / 2}
    = sum_F (n)_{n_F} (m)_{m_F} 2^{m_F} n^{2(m - m_F)} / aut F.
    """
    _check_size(n, m)
    shapes = _family(family, "multigraph")
    return sum((Fraction(_hosts(n, m, f.n, f.m, "multigraph"), aut_count(f)) for f in shapes), Fraction(0))


def sg_distinguished(n: int, m: int, family: Graph | Iterable[Graph]) -> Fraction:
    """Total number of simple (n,m)-graphs with one distinguished family copy.

    n! [z^n w^m] F(z, w/(1+w)) e^z (1+w)^binom(n,2)
    = sum_F (n)_{n_F} binom(binom(n,2) - m_F, m - m_F) / aut F.
    """
    _check_size(n, m)
    shapes = _family(family, "simple")
    return sum((Fraction(_hosts(n, m, f.n, f.m, "simple"), aut_count(f)) for f in shapes), Fraction(0))


def _power(r: list[Fraction], k: int, cap: int) -> list[Fraction]:
    """x^0..x^cap of (sum_i r_i x^i)^k, by Miller's recurrence after shifting out x^lo."""
    out = [Fraction(0)] * (cap + 1)
    lo = next((d for d, c in enumerate(r) if c), cap + 1)
    if lo > cap or k * lo > cap:
        out[0] = Fraction(int(k == 0))
        return out
    r = r[lo:]
    support = [(i, c) for i, c in enumerate(r) if i and c]
    q = [r[0] ** k]
    for s in range(1, cap - k * lo + 1):
        q.append(sum(((k + 1) * i - s) * c * q[s - i] for i, c in support if i <= s) / (s * r[0]))
    out[k * lo :] = q
    return out


def _weighted_hosts(n: int, m: int, delta: WeightSpec, a: int, b: int, degrees: tuple[int, ...]) -> Fraction:
    """Weighted _hosts for a piece with these vertex degrees, with j = m - b:
    (n)_a (m)_b 2^b (2j)! [x^{2j}] prod_v Delta^(d_v)(x) Delta(x)^{n-a}."""
    if a > n or b > m:
        return Fraction(0)
    poly, cap = delta.egf_poly(2 * m), 2 * (m - b)
    egf = [poly.extract({"x": d}) for d in range(2 * m + 1)]
    marks = [Fraction(1)] + [Fraction(0)] * cap  # prod_v Delta^(d_v) up to x^cap
    for d in degrees:
        deriv = [(i, egf[i + d] * math.perm(i + d, d)) for i in range(cap + 1) if egf[i + d]]
        marks = [sum((c * marks[s - i] for i, c in deriv if i <= s), Fraction(0)) for s in range(cap + 1)]
    power = _power(egf, n - a, cap)
    coeff = sum((c * power[cap - i] for i, c in enumerate(marks) if c), Fraction(0))
    return coeff * math.perm(n, a) * math.perm(m, b) * 2**b * math.factorial(cap)


def mg_weighted_total(n: int, m: int, delta: WeightSpec) -> Fraction:
    """Total weight of (n,m)-multigraphs: (2m)! [x^{2m}] Delta(x)^n."""
    _check_size(n, m)
    return _weighted_hosts(n, m, delta, 0, 0, ())


def mg_distinguished_weighted(n: int, m: int, delta: WeightSpec, family: Graph | Iterable[Graph]) -> Fraction:
    """Total weight of (n,m,Delta)-multigraphs with one distinguished copy.

    n! 2^m m! [z^n w^m] sum_j (2j)! [x^{2j}] F(z, w, dbar Delta(x))
    e^{z Delta(x)} w^j / (2^j j!), where the degree mark y_d receives the
    series Delta^(d)(x).  Only j = m - m_F survives for a shape F, so this is
    sum_F (n)_{n_F} (m)_{m_F} 2^{m_F} (2j)! [x^{2j}] prod_v Delta^(d_v) Delta^{n-n_F} / aut F.
    """
    _check_size(n, m)
    shapes = _family(family, "multigraph")
    return sum((_weighted_hosts(n, m, delta, f.n, f.m, f.degrees()) / aut_count(f) for f in shapes), Fraction(0))


def expected_count(n: int, m: int, family: Graph | Iterable[Graph], delta: WeightSpec | None = None,
                   kind: str = "multigraph") -> Fraction:
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
    series and extract [u^t] of the distinguished-patchwork total: the sum
    over patchwork monomials c u^k w^b z^a of c binom(k,t) (-1)^{k-t} _hosts(n, m, a, b).
    """
    _check_size(n, m)
    if t < 0:
        raise ValueError(f"copy count t must be nonnegative, got t={t}")
    _family(f, kind)
    coeffs = patchwork_series(f, n_max=n, m_max=m, kind=kind).series.coeffs  # keyed (u, w, z)
    terms = (c * math.comb(k, t) * (-1) ** (k - t) * _hosts(n, m, a, b, kind)
             for (k, b, a), c in coeffs.items() if k >= t)
    return sum(terms, Fraction(0))


def f_free_count(n: int, m: int, f: Graph, kind: str = "multigraph") -> Fraction:
    """Number of (n,m) hosts with no copy of f (the t = 0 slice)."""
    return count_with_exactly_t(n, m, f, 0, kind=kind)
