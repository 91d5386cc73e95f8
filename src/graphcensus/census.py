"""Exact counting formulas, each read off as one finite coefficient sum.

All results are exact rationals.  Each answer is one coefficient of a
product of generating functions, computed as a sum over the monomials of the
family (or patchwork) series times the other factors' closed-form
coefficients.  The building blocks:

* ``total``, ``distinguished`` and ``expected_count`` (their ratio) -- a host
  with one distinguished copy from a family factors as (family EGF) x (set of
  extra vertices) x (set of extra edges), and only the edge factor depends on
  the model: e^{n^2 w/2} for multigraphs, (1+w)^binom(n,2) for simple graphs
  (after w -> w/(1+w) in F), and half-edges marked by Delta(x) under degree
  weights.  One host factor, ``_host_counts``, gives the coefficient for a
  piece z^a w^b of F: (n)_a (m)_b 2^b n^{2(m-b)} for multigraphs, respectively
  (n)_a binom(binom(n,2) - b, m - b) for simple graphs;

* degree weights -- the half-edge construction gives the weighted host count
  (2m)! [x^{2m}] Delta(x)^n, and a distinguished copy turns each degree mark
  y_d into the series Delta^(d)(x).  As [z^k] e^{z Delta} = Delta^k / k!, a
  piece needs Delta^{n-a} on x^0..x^{2m} only.  All of it is
  exact integer arithmetic on exponential coefficients s! [x^s], with the
  weights scaled by the lcm of their own denominators (1 for every builtin
  kind): J. C. P. Miller's power recurrence (Knuth, TAOCP 2, 4.7), read off
  Delta (Delta^k)' = k Delta' Delta^k at x^s / s!, divides exactly at each
  step, and the degree marks and the closing product are binomial
  convolutions, so no factorial scaling and no fraction appears before the
  final division;

* exact t-copy counts -- inclusion-exclusion over patchworks, the unions of
  copies of F.  The binomial moment B_k, the sum over hosts of
  binom(#copies, k), is the u^k part of the patchwork series times the same
  host factors; substituting u -> u - 1 and reading off [u^t] gives
  N_t = sum_k binom(k,t) (-1)^{k-t} B_k.  The patchwork classes are built
  from F by gluing on one copy at a time and keeping one graph per canonical
  form (McKay, "Isomorph-free exhaustive generation", J. Algorithms 1998),
  so no host is enumerated.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterable

import numpy as np

from .graphs import Graph, SizeCapError, as_family, aut_count, canonical_form, glue, subgraph_copies
from .models import WeightSpec

PATCHWORK_CLASS_CAP = 5_000  # patchwork classes built per request
PATCHWORK_ELEMENT_CAP = 20  # edges plus edgeless vertices of one class: 2^20 subset sums


def _family(family: Graph | Iterable[Graph], kind: str) -> list[Graph]:
    """The family as a list, every member of the host's kind."""
    shapes = as_family(family)
    if any(f.kind != kind for f in shapes):
        raise ValueError(f"a {kind} host count needs {kind} patterns")
    return shapes


def _power(e: list[int], k: int, cap: int) -> list[int]:
    """Q_s = s! [x^s] E(x)^k for s = 0..cap, E = sum_d e_d x^d / d! with integers e_d.

    Miller's recurrence in exponential coefficients: E (E^k)' = k E' E^k read
    at x^t / t!, t = s + lo, with lo the lowest degree and r_j = e_{lo+j}, gives
    r_0 (C(t, lo) - k C(t, lo-1)) Q_{s+1} = sum_j r_j (k C(t, lo+j-1) - C(t, lo+j)) Q_{s+1-j},
    where C(t, lo) - k C(t, lo-1) = C(t, lo) (s+1 - k lo) / (s+1) is nonzero for
    s >= k lo, and the division is exact, since Q_{s+1} is an integer.
    """
    out = [0] * (cap + 1)
    lo = next((d for d, c in enumerate(e) if c), cap + 1)
    if k == 0 or k * lo > cap:
        out[0] = int(k == 0)
        return out
    r, start = e[lo:], k * lo
    support = [(j, c) for j, c in enumerate(r) if j and c]
    out[start] = math.factorial(start) // math.factorial(lo) ** k * r[0] ** k
    for s in range(start, cap):
        t = s + lo
        num = sum(c * (k * math.comb(t, lo + j - 1) - math.comb(t, lo + j)) * out[s + 1 - j]
                  for j, c in support if j <= s + 1 - start)
        out[s + 1] = num * (s + 1) // (r[0] * math.comb(t, lo) * (s + 1 - start))
    return out


def _host_counts(n: int, m: int, kind: str, delta: WeightSpec | None):
    """hosts(a, b, degrees): the number of (n,m) hosts -- their total weight
    under ``delta`` -- around a piece z^a w^b with these vertex degrees.

    n! 2^m m! [z^n w^m] z^a w^b e^z e^{n^2 w/2} = (n)_a (m)_b 2^b n^{2(m-b)}
    for multigraphs, n! [z^n w^m] z^a (w/(1+w))^b e^z (1+w)^binom(n,2)
    = (n)_a binom(binom(n,2) - b, m - b) for simple graphs, and with weights,
    j = m - b, (n)_a (m)_b 2^b (2j)! [x^{2j}] prod_v Delta^(d_v)(x) Delta(x)^{n-a}
    on the weights e_d = delta_d lcm(denominators): a mark Delta^(d) is e
    shifted by d, and the n factors of Delta leave one division by lcm^n at
    the end.  Only weights read the degrees; hosts(0, 0, ()) is the host total.
    """
    if n < 0 or m < 0:
        raise ValueError(f"n and m must be nonnegative, got n={n}, m={m}")
    if kind not in ("multigraph", "simple"):
        raise ValueError(f"unknown kind {kind!r}")
    if delta is not None:
        if kind != "multigraph":
            raise ValueError("degree weights are implemented for multigraphs")
        weights = [delta.delta(d) for d in range(2 * m + 1)]
        scale = math.lcm(*(w.denominator for w in weights))
        e = [w.numerator * (scale // w.denominator) for w in weights]

    def hosts(a: int, b: int, degrees: tuple[int, ...]) -> int | Fraction:
        if a > n or b > m:
            return 0
        if delta is None:
            if kind == "multigraph":
                return math.perm(n, a) * math.perm(m, b) * 2**b * n ** (2 * (m - b))
            return math.perm(n, a) * math.comb(math.comb(n, 2) - b, m - b)
        cap = 2 * (m - b)
        marks = [1] + [0] * cap  # prod_v Delta^(d_v) up to x^cap
        for d in degrees:
            deriv = [(i, e[i + d]) for i in range(cap + 1) if e[i + d]]
            marks = [sum(math.comb(s, i) * c * marks[s - i] for i, c in deriv if i <= s) for s in range(cap + 1)]
        power = _power(e, n - a, cap)
        coeff = sum(math.comb(cap, i) * c * power[cap - i] for i, c in enumerate(marks) if c)
        return Fraction(coeff * math.perm(n, a) * math.perm(m, b) * 2**b, scale**n)

    return hosts


def _distinguished(hosts, family: Graph | Iterable[Graph], kind: str) -> Fraction:
    return sum((Fraction(hosts(f.n, f.m, f.degrees()), aut_count(f)) for f in _family(family, kind)), Fraction(0))


def total(n: int, m: int, *, kind: str = "multigraph", delta: WeightSpec | None = None) -> Fraction:
    """Number of (n,m) hosts: n^(2m) multigraphs, binom(binom(n,2), m) simple
    graphs, or under degree weights their total weight (2m)! [x^{2m}] Delta(x)^n."""
    return Fraction(_host_counts(n, m, kind, delta)(0, 0, ()))


def distinguished(n: int, m: int, family: Graph | Iterable[Graph], *, kind: str = "multigraph",
                  delta: WeightSpec | None = None) -> Fraction:
    """Number (or total weight) of (n,m) hosts with one distinguished family copy.

    The host factors as (family EGF) x (extra vertices) x (extra edges), so
    this is sum_F hosts(n_F, m_F, degrees of F) / aut F (see ``_host_counts``).
    Under degree weights it is n! 2^m m! [z^n w^m] sum_j (2j)! [x^{2j}]
    F(z, w, dbar Delta(x)) e^{z Delta(x)} w^j / (2^j j!), where the degree mark
    y_d receives the series Delta^(d)(x) and only j = m - m_F survives for F.
    """
    return _distinguished(_host_counts(n, m, kind, delta), family, kind)


def expected_count(n: int, m: int, family: Graph | Iterable[Graph], delta: WeightSpec | None = None,
                   kind: str = "multigraph") -> Fraction:
    """Expected number of family copies in a random (n,m[,Delta])-(multi)graph:
    ``distinguished`` over ``total``."""
    hosts = _host_counts(n, m, kind, delta)
    whole = hosts(0, 0, ())
    dist = _distinguished(hosts, family, kind)
    if whole == 0:
        raise ZeroDivisionError("total weight is zero")
    return dist / whole


def _cover_counts(h: Graph, f: Graph) -> list[int]:
    """p_k(h) for k = 0..: the number of k-sets of distinct copies of f in h
    that cover every vertex and edge of h.

    The elements are h's edges and its edgeless vertices (an edge brings its
    ends along).  By inclusion-exclusion over the elements left uncovered,
    p_k = sum_T (-1)^{|E - T|} binom(c(T), k), where c(T) counts the copies
    inside the element set T; c comes from subset sums over the copies' masks.
    """
    lone = [v for v, d in enumerate(h.degrees(), start=1) if d == 0]
    vbit = {v: 1 << (h.m + i) for i, v in enumerate(lone)}
    size = h.m + len(lone)
    if size > PATCHWORK_ELEMENT_CAP:
        raise SizeCapError(f"a patchwork with more than {PATCHWORK_ELEMENT_CAP} edges and edgeless vertices")
    masks = [sum(1 << (j - 1) for j in c.edge_part) + sum(vbit.get(v, 0) for v in c.vertices)
             for c in subgraph_copies(h, f)]
    inside = np.bincount(np.array(masks, dtype=np.int64), minlength=1 << size).reshape((2,) * size)
    for axis in range(size):
        inside = np.cumsum(inside, axis=axis)
    inside = inside.ravel()
    odd = np.bitwise_count(np.arange(1 << size) ^ ((1 << size) - 1)) % 2 == 1
    signed = np.bincount(inside[~odd], minlength=len(masks) + 1) - np.bincount(inside[odd], minlength=len(masks) + 1)
    return [sum(int(a) * math.comb(c, k) for c, a in enumerate(signed) if a) for k in range(len(masks) + 1)]


@lru_cache(maxsize=64)
def patchwork_series(f: Graph, n_max: int, m_max: int, kind: str) -> tuple[tuple[Graph, tuple[Fraction, ...]], ...]:
    """The patchwork classes of f with at most n_max vertices and m_max edges.

    A patchwork is a set of k distinct copies of f whose union is all of its
    graph.  Each class H comes with its weights w_k(H) = p_k(H) / aut(H),
    k = 0.. (see ``_cover_counts``), the coefficients of u^k z^n(H) w^m(H)
    in the patchwork series.  The classes are built from f by ``glue``, one
    copy at a time, so every union of copies within the caps is reached
    through smaller ones; a glued graph equal to one already seen, or with a
    canonical form already seen (its parent's included), is dropped.  More
    than PATCHWORK_CLASS_CAP classes raise ``SizeCapError`` as soon as they
    are found.  The empty patchwork (k = 0) is left to the caller.
    """
    _family(f, kind)
    if not 0 < f.n <= n_max or f.m > m_max:
        return ()
    classes = {canonical_form(f): f}
    todo, seen = [f], {f}
    while todo:
        h = todo.pop()
        for g in glue(h, f, n_max, m_max):
            if g in seen:
                continue
            seen.add(g)
            key = canonical_form(g)
            if key in classes:
                continue
            if len(classes) == PATCHWORK_CLASS_CAP:
                raise SizeCapError(f"more than {PATCHWORK_CLASS_CAP} patchwork classes within ({n_max}, {m_max})")
            classes[key] = g
            todo.append(g)
    return tuple((h, tuple(Fraction(p, aut) for p in _cover_counts(h, f)))
                 for h in classes.values() for aut in [aut_count(h)])


def binomial_moments(n: int, m: int, f: Graph, k_max: int | None = None, kind: str = "multigraph") -> list[Fraction]:
    """B_0..B_{k_max}, B_k = sum over (n,m) hosts of binom(#copies of f, k).

    B_k = sum_H w_k(H) hosts(n(H), m(H)) over the patchwork classes (see
    ``_host_counts``);
    B_0 is the host total.  A patchwork of k copies has at most k n(f)
    vertices and k m(f) edges, so only those are built.  With k_max None,
    every class within (n, m) is built and every nonzero moment returned.
    """
    if k_max is not None and k_max < 0:
        raise ValueError(f"k_max must be nonnegative, got k_max={k_max}")
    return list(_moments(n, m, f, k_max, kind))


@lru_cache(maxsize=64)
def _moments(n: int, m: int, f: Graph, k_max: int | None, kind: str) -> tuple[Fraction, ...]:
    """``binomial_moments`` as a tuple, kept so that every t-slice reads one vector."""
    hosts = _host_counts(n, m, kind, None)
    if k_max is None:
        series = patchwork_series(f, n, m, kind)
        k_max = max((len(w) - 1 for _, w in series), default=0)
    else:
        series = patchwork_series(f, min(n, k_max * f.n), min(m, k_max * f.m), kind)
    moments = [Fraction(hosts(0, 0, ()))] + [Fraction(0)] * k_max
    for h, weights in series:
        count = hosts(h.n, h.m, ())
        for k, w in enumerate(weights[1 : k_max + 1], start=1):
            moments[k] += w * count
    return tuple(moments)


def count_with_exactly_t(n: int, m: int, f: Graph, t: int, kind: str = "multigraph") -> Fraction:
    """Number of (n,m) hosts containing exactly t copies of f.

    Patchwork inclusion-exclusion over the binomial moments:
    N_t = sum_{k >= t} (-1)^{k-t} binom(k, t) B_k.
    """
    if t < 0:
        raise ValueError(f"copy count t must be nonnegative, got t={t}")
    _family(f, kind)
    moments = _moments(n, m, f, None, kind)
    return sum((math.comb(k, t) * (-1) ** (k - t) * b for k, b in enumerate(moments) if k >= t), Fraction(0))
