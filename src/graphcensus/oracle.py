"""Ground truth at tiny sizes by exhaustive enumeration.

Enumerates every canonical (multi)graph of a given size, tallies exact copy
count distributions (optionally degree-weighted), counts the canonical
copies of a shape (``canonical_copies``, the orbit sizes behind
``graphs.aut_count``), and computes the patchwork generating function
straight from its definition.  Everything here is a test instrument: exact,
loud on caps, and deliberately unoptimized.  Its ``patchwork_series`` is the
reference for ``census.patchwork_series``, which builds the same
coefficients by gluing copies and enumerates no host; ``census`` does not
import this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from typing import Iterable, Iterator

from .graphs import (
    Graph,
    Multigraph,
    SimpleGraph,
    SizeCapError,
    Subgraph,
    as_family,
    is_isomorphic,
    subgraph_copies,
    subgraph_count,
)
from .series import TruncatedSeries

ENUMERATION_CAP = 10**8


@dataclass
class CountDistribution:
    """Exact copy-count distribution over all hosts of one size."""

    total: Fraction
    by_t: dict[int, Fraction] = field(default_factory=dict)

    @property
    def distinguished_total(self) -> Fraction:
        return sum((t * w for t, w in self.by_t.items()), Fraction(0))

    def check(self) -> None:
        assert sum(self.by_t.values(), Fraction(0)) == self.total

    def to_json(self) -> dict:
        return {
            "total": str(self.total),
            "by_t": {str(t): str(w) for t, w in sorted(self.by_t.items())},
            "distinguished_total": str(self.distinguished_total),
        }


def enumerate_multigraphs(n: int, m: int) -> Iterator[Graph]:
    """All n^(2m) canonical (n,m)-multigraph sequences, each exactly once."""
    if n**(2 * m) > ENUMERATION_CAP:
        raise SizeCapError(f"{n}^(2*{m}) exceeds the enumeration cap")
    for seq in product(range(1, n + 1), repeat=2 * m):
        yield Multigraph(n, seq)


def enumerate_simple(n: int, m: int) -> Iterator[Graph]:
    """All binom(binom(n,2), m) canonical simple (n,m)-graphs."""
    pairs = list(combinations(range(1, n + 1), 2))
    if math.comb(len(pairs), m) > ENUMERATION_CAP:
        raise SizeCapError("simple-graph enumeration cap exceeded")
    for chosen in combinations(pairs, m):
        yield SimpleGraph(n, chosen)


def _weight(g: Graph, delta) -> Fraction:
    if delta is None:
        return Fraction(1)
    w = Fraction(1)
    for d in g.degrees():
        w *= delta.delta(d)
        if w == 0:
            return w
    return w


def oracle_distribution(
    n: int,
    m: int,
    family: Graph | Iterable[Graph],
    delta=None,
    kind: str = "multigraph",
) -> CountDistribution:
    """Exact distribution of G[family] over all (n,m) hosts, delta-weighted.

    ``delta`` is a WeightSpec with exact rational coefficients (or None for
    the uniform model).
    """
    if n < 0 or m < 0:
        raise ValueError(f"n and m must be nonnegative, got n={n}, m={m}")
    shapes = as_family(family)
    if any(f.kind != kind for f in shapes):
        raise ValueError(f"a {kind} host count needs {kind} patterns")
    hosts = enumerate_multigraphs(n, m) if kind == "multigraph" else enumerate_simple(n, m)
    dist = CountDistribution(total=Fraction(0))
    for g in hosts:
        w = _weight(g, delta)
        t = sum(subgraph_count(g, f) for f in shapes)
        dist.total += w
        dist.by_t[t] = dist.by_t.get(t, Fraction(0)) + w
    dist.check()
    return dist


def canonical_copies(g: Graph) -> int:
    """Number of canonical objects on the same support isomorphic to g.

    Brute-force orbit enumeration: all n^(2m) sequences for multigraphs, all
    m-subsets of pairs for simple graphs.  Capped at n <= 6 and m <= 6.
    """
    if g.n > 6 or g.m > 6:
        raise SizeCapError("canonical_copies is capped at n <= 6, m <= 6")
    hosts = enumerate_multigraphs(g.n, g.m) if g.kind == "multigraph" else enumerate_simple(g.n, g.m)
    mult_sig = sorted(g.pair_multiplicities().values())
    return sum(1 for h in hosts if sorted(h.pair_multiplicities().values()) == mult_sig and is_isomorphic(h, g))


def group_order(g: Graph) -> int:
    """Order of the relabeling group acting on canonical objects of g's size."""
    if g.kind == "multigraph":
        return math.factorial(g.n) * 2**g.m * math.factorial(g.m)
    return math.factorial(g.n)


def naive_subgraph_count(g: Graph, f: Graph) -> int:
    """Copy count by enumerating every (vertex subset, edge subset) pair.

    The most literal oracle there is; used to anchor the backtracking
    counter.  Exponential in host size, so keep hosts tiny.
    """
    if g.kind != f.kind:
        raise TypeError("host and pattern must share a kind")
    count = 0
    edges = [g.endpoints(j) for j in range(1, g.m + 1)]
    for subset in combinations(range(1, g.n + 1), f.n):
        sub = set(subset)
        inside = [e for e in edges if e[0] in sub and e[1] in sub]
        relabel = {v: i + 1 for i, v in enumerate(subset)}
        for chosen in combinations(inside, f.m):
            seq = [relabel[v] for e in chosen for v in e]
            if is_isomorphic(Graph(f.n, seq, f.kind), f):
                count += 1
    return count


# ---------------------------------------------------------------------------
# patchworks

PATCHWORK_HOST_CAP = (5, 4)  # n_max, m_max hard limits
PATCHWORK_COPIES_CAP = 20


@dataclass
class PatchworkSeries:
    """Truncated generating function of canonically labeled patchworks.

    ``series`` is a TruncatedSeries in (u, w, z); the coefficient of
    u^k z^n w^m times n! 2^m m! (multigraph) or n! (simple) counts patchworks
    with k pieces whose underlying graph has n vertices and m edges.
    """

    series: TruncatedSeries
    kind: str
    n_max: int
    m_max: int
    k_max: int


def _piece_sets_with_full_union(host: Graph, copies: list[Subgraph], disjoint_only: bool) -> Iterator[int]:
    """Yield sizes of copy subsets whose union covers all of the host.

    With ``disjoint_only`` a subset counts only if its copies are pairwise
    vertex-disjoint, that is, if their vertex counts add up to n(host).
    """
    all_vertices = frozenset(range(1, host.n + 1))
    all_edges = frozenset(range(1, host.m + 1))
    for k in range(0 if host.n == 0 else 1, len(copies) + 1):
        for chosen in combinations(copies, k):
            verts = frozenset().union(*(c.vertices for c in chosen)) if chosen else frozenset()
            edges = frozenset().union(*(c.edge_part for c in chosen)) if chosen else frozenset()
            if verts == all_vertices and edges == all_edges:
                if not disjoint_only or sum(len(c.vertices) for c in chosen) == host.n:
                    yield k


def patchwork_series(
    f: Graph,
    n_max: int,
    m_max: int,
    kind: str | None = None,
    disjoint_only: bool = False,
) -> PatchworkSeries:
    """Patchwork generating function computed by definition.

    For every canonical host within the caps, every set of distinct copies
    of f whose union is exactly the host is one canonically labeled
    patchwork.  ``disjoint_only`` keeps only sets of pairwise vertex-disjoint
    copies.  All piece counts are enumerated (exact inclusion-exclusion needs
    them); the number of copies per host is capped to keep the subset
    lattice small.  Results are memoized on the normalised call, so every
    spelling of the same request is one cache entry (the t-slice extraction
    asks for the same series once per t); ``patchwork_series.cache_info()``
    and ``cache_clear()`` reach the memo.
    """
    if (kind or f.kind) != f.kind:
        raise ValueError("pattern kind must match the requested kind")
    return _patchwork_series(f, n_max, m_max, bool(disjoint_only))


@lru_cache(maxsize=256)
def _patchwork_series(f: Graph, n_max: int, m_max: int, disjoint_only: bool) -> PatchworkSeries:
    if n_max > PATCHWORK_HOST_CAP[0] or m_max > PATCHWORK_HOST_CAP[1]:
        raise SizeCapError(f"patchwork caps are {PATCHWORK_HOST_CAP}")
    multigraph = f.kind == "multigraph"
    coeffs: dict[tuple[int, int, int], Fraction] = {(0, 0, 0): Fraction(1)}
    for n in range(0, n_max + 1):
        for m in range(0, m_max + 1):
            if n == 0:
                continue
            hosts = enumerate_multigraphs(n, m) if multigraph else enumerate_simple(n, m)
            if multigraph:
                norm = Fraction(1, math.factorial(n) * 2**m * math.factorial(m))
            else:
                norm = Fraction(1, math.factorial(n))
            for host in hosts:
                copies = sorted(
                    subgraph_copies(host, f),
                    key=lambda s: (sorted(s.vertices), sorted(s.edge_part)),
                )
                if not copies:
                    continue
                if len(copies) > PATCHWORK_COPIES_CAP:
                    raise SizeCapError("too many copies in one host for patchworks")
                for k in _piece_sets_with_full_union(host, copies, disjoint_only):
                    key = (k, m, n)
                    coeffs[key] = coeffs.get(key, Fraction(0)) + norm
    max_k = max((k for k, _, _ in coeffs), default=0)
    series = TruncatedSeries(
        ("u", "w", "z"),
        (max(PATCHWORK_COPIES_CAP, max_k), m_max, n_max),
        coeffs,
    )
    return PatchworkSeries(series, f.kind, n_max, m_max, max_k)


patchwork_series.cache_info = _patchwork_series.cache_info
patchwork_series.cache_clear = _patchwork_series.cache_clear
