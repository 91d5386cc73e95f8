"""Core (multi)graph data model and exact structural analysis.

One value type, ``Graph``, holds both kinds.  A graph is vertex-labeled
(1..n) with labeled edges: edge j is stored as the pair (edge_seq[2j-2],
edge_seq[2j-1]), so the whole object is the flat sequence (v_1, ..., v_2m).
A multigraph's edges are oriented, and loops and parallel edges are allowed.
A simple graph is a multigraph with no loop and no parallel edge, its
sequence being its edge set in sorted order.

Isomorphism for multigraphs is taken modulo vertex relabeling, edge
relabeling, and per-edge orientation flips (flips act trivially on loops).
Concretely, two multigraphs are isomorphic iff some vertex bijection matches
their multisets of unordered endpoint pairs.  This is the reading under which
there are exactly n^(2m) canonical (n,m)-multigraphs and a single non-loop
edge has 2 canonical representatives.

A ``Host`` holds either kind as one numpy array of edge ends, the form the
samplers draw and the copy counter reads.

Everything in this module is exact (Fraction / int) and pure; graph values
are immutable after construction.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations, product
from typing import Iterable

import numpy as np


class SizeCapError(ValueError):
    """A brute-force size cap was exceeded (hard error, never silent)."""


class Graph:
    """Canonical vertex-labeled graph of one kind, as a flat edge sequence.

    Edge j (labels 1..m) joins edge_seq[2j-2] and edge_seq[2j-1].  A
    "multigraph" keeps its labeled, oriented sequence as given.  A "simple"
    graph refuses loops; its sequence is its distinct (u < v) pairs in sorted
    order, so equal edge sets give equal graphs.
    """

    __slots__ = ("n", "edge_seq", "kind")

    def __init__(self, n: int, edge_seq: Iterable[int] = (), kind: str = "multigraph"):
        if kind not in ("multigraph", "simple"):
            raise ValueError(f"unknown graph kind {kind!r}")
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        seq = tuple(map(int, edge_seq))
        if len(seq) % 2 != 0:
            raise ValueError("edge_seq must have even length")
        if seq and not (1 <= min(seq) and max(seq) <= n):
            raise ValueError(f"vertex labels must lie in 1..{n}")
        if kind == "simple":
            pairs = {(u, v) if u < v else (v, u) for u, v in zip(seq[0::2], seq[1::2])}
            if any(u == v for u, v in pairs):
                raise ValueError("loops are not allowed in a simple graph")
            seq = tuple(x for pair in sorted(pairs) for x in pair)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edge_seq", seq)
        object.__setattr__(self, "kind", kind)

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    def __reduce__(self):
        return (Graph, (self.n, self.edge_seq, self.kind))

    @property
    def m(self) -> int:
        return len(self.edge_seq) // 2

    @property
    def edges(self) -> frozenset:
        """A simple graph's (u < v) pairs."""
        if self.kind != "simple":
            raise AttributeError("edges")
        return frozenset(zip(self.edge_seq[0::2], self.edge_seq[1::2]))

    def endpoints(self, j: int) -> tuple[int, int]:
        """Oriented endpoints of edge j (labels are 1-based)."""
        return self.edge_seq[2 * j - 2], self.edge_seq[2 * j - 1]

    def degrees(self) -> tuple[int, ...]:
        """Degree of each vertex 1..n; a loop contributes 2."""
        deg = [0] * (self.n + 1)
        for v in self.edge_seq:
            deg[v] += 1
        return tuple(deg[1:])

    def pair_multiplicities(self) -> dict[tuple[int, int], int]:
        """Unordered endpoint pair -> number of parallel edges (loops as (v,v))."""
        mult: dict[tuple[int, int], int] = {}
        seq = self.edge_seq
        for j in range(0, len(seq), 2):
            key = (seq[j], seq[j + 1]) if seq[j] <= seq[j + 1] else (seq[j + 1], seq[j])
            mult[key] = mult.get(key, 0) + 1
        return mult

    def loop_count(self) -> int:
        seq = self.edge_seq
        return sum(1 for j in range(0, len(seq), 2) if seq[j] == seq[j + 1])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self.edge_seq == other.edge_seq
            and self.kind == other.kind
        )

    def __hash__(self) -> int:
        return hash((self.kind, self.n, self.edge_seq))

    def __repr__(self) -> str:
        return f"Graph({self.n}, {self.edge_seq}, {self.kind!r})"


def Multigraph(n: int, edge_seq: Iterable[int] = ()) -> Graph:
    """A multigraph from its flat sequence of oriented edge ends."""
    return Graph(n, edge_seq)


def SimpleGraph(n: int, edges: Iterable[tuple[int, int]] = ()) -> Graph:
    """A simple graph from its edges; repeated pairs are merged."""
    return Graph(n, [x for u, v in edges for x in (u, v)], "simple")


def run_sums(keys: np.ndarray, vals: np.ndarray) -> tuple:
    """Each distinct key of the sorted ``keys`` once, and the sum of
    ``vals`` over its run, as differences of one cumulative sum."""
    last = np.flatnonzero(np.append(keys[1:] != keys[:-1], True))[: keys.size]
    sums = np.cumsum(vals)[last]
    sums[1:] = sums[1:] - sums[:-1]
    return keys[last], sums


def range_pairs(start: np.ndarray, stop: np.ndarray) -> tuple:
    """Index arrays (i, j) holding every j with start[i] <= j < stop[i],
    in order of i and then j."""
    size = stop - start
    i = np.repeat(np.arange(start.size), size)
    return i, (start - (np.cumsum(size) - size))[i] + np.arange(i.size)


class Host:
    """A host as one int64 array: edge j joins ends[2j-2] and ends[2j-1].

    Labels lie in 1..n.  A "multigraph" host reads back as ``edge_seq``, a
    "simple" one (no loops or repeated pairs) as ``edges``, and either as
    ``to_graph()``; the constructor checks what the graphs' constructors do.

    The count arrays are built on the first count and kept, so a host costs
    O(m) until then, however large n is.  Over vertices 0..n (0 unused),
    ``lv`` and ``s1`` count loops and non-loop edge ends, and ``max_degree``
    is the largest s1 + 2 lv.  Each non-loop edge, in both orientations
    (a, b), is coded ``a * N + b`` (N = n + 1); one sort of the codes and
    ``run_sums`` give the distinct pairs ``sym`` and their multiplicities
    ``mult``, and the two ends ``sym_ends`` are kept, so no count divides
    a code back into its ends.  ``parallel`` indexes the entries of ``sym``
    with M > 1, few on sampled hosts and none on simple ones: a power M^k
    differs from M only there, so ``edge`` and ``power_sum`` start from
    ``mult`` and ``s1`` and change only those entries.
    """

    _COUNT_ARRAYS = frozenset(("lv", "s1", "max_degree", "sym", "sym_ends", "mult", "parallel"))

    def __init__(self, n: int, ends, kind: str = "multigraph"):
        if kind not in ("multigraph", "simple"):
            raise ValueError(f"unknown graph kind {kind!r}")
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        self.n, self.N, self.kind = int(n), int(n) + 1, kind
        self.ends = np.array(ends, dtype=np.int64)
        if self.ends.ndim != 1 or self.ends.size % 2:
            raise ValueError("edge ends must be a flat sequence of even length")
        if self.ends.size and not (1 <= self.ends.min() and self.ends.max() <= n):
            raise ValueError(f"vertex labels must lie in 1..{n}")
        if kind == "simple":
            u, v = self.ends[0::2], self.ends[1::2]
            if (u == v).any():
                raise ValueError("loops are not allowed in a simple graph")
            # a repeated pair repeats both its oriented codes; the sorted
            # codes are kept for the first count
            self._codes = self._sorted_codes(u, v)
            if (self._codes[1:] == self._codes[:-1]).any():
                raise ValueError("repeated pairs are not allowed in a simple graph")
        self.ends.flags.writeable = False
        self._memo: dict = {}

    def __getattr__(self, name):
        # reached only when an attribute is missing: a count array before
        # the first count, or edge_seq / edges read on the other kind
        if name not in Host._COUNT_ARRAYS or "ends" not in self.__dict__:
            raise AttributeError(f"a {self.__dict__.get('kind')} Host has no attribute {name!r}")
        self._build_count_arrays()
        return self.__dict__[name]

    def _pair_codes(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """a * N + b of each pair; refused where int64 would overflow."""
        if self.n * self.N >= 2**63:
            raise ValueError(f"n = {self.n} is too large for int64 pair codes")
        return a * self.N + b

    def _sorted_codes(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """The sorted codes of the non-loop edges (u, v) in both orientations."""
        return np.sort(self._pair_codes(np.concatenate((u, v)), np.concatenate((v, u))))

    def _build_count_arrays(self):
        u, v = self.ends[0::2], self.ends[1::2]
        keep = u != v
        a = np.concatenate((u[keep], v[keep]))
        codes = self.__dict__.pop("_codes", None)
        if codes is None:
            codes = self._sorted_codes(u[keep], v[keep])
        self.lv = np.bincount(u[~keep], minlength=self.N)
        self.s1 = np.bincount(a, minlength=self.N)
        self.max_degree = int((self.s1 + 2 * self.lv).max(initial=0))
        self.sym, self.mult = run_sums(codes, np.ones(codes.size, dtype=np.int64))
        a = self.sym // self.N
        self.sym_ends = (a, self.sym - a * self.N)
        self.parallel = np.flatnonzero(self.mult > 1)

    @property
    def m(self) -> int:
        return self.ends.size // 2

    def degrees(self) -> tuple[int, ...]:
        """Degree of each vertex 1..n; a loop contributes 2."""
        return tuple(np.bincount(self.ends, minlength=self.N)[1:].tolist())

    @property
    def edge_seq(self) -> tuple[int, ...]:
        """A multigraph host's ``Graph.edge_seq``."""
        if self.kind != "multigraph":
            raise AttributeError("edge_seq")
        return tuple(self.ends.tolist())

    @property
    def edges(self) -> frozenset:
        """A simple host's ``Graph.edges``: its (u < v) pairs."""
        if self.kind != "simple":
            raise AttributeError("edges")
        u, v = self.ends[0::2], self.ends[1::2]
        return frozenset(zip(np.minimum(u, v).tolist(), np.maximum(u, v).tolist()))

    def to_graph(self) -> Graph:
        """The equal ``Graph``, for the exact layer."""
        return Graph(self.n, self.ends.tolist(), self.kind)

    def edge(self, k: int, dtype) -> np.ndarray:
        """The values of the factor M^k over ``sym``."""
        key = ("edge", k, dtype)
        if key not in self._memo:
            out = self.mult.astype(dtype)
            out[self.parallel] = out[self.parallel] ** k
            self._memo[key] = out
        return self._memo[key]

    def power_sum(self, k: int, dtype) -> np.ndarray:
        """Per-vertex sum over neighbours b of M[a, b]^k: ``s1`` plus
        M^k - M at each parallel pair."""
        key = ("sum", k, dtype)
        if key not in self._memo:
            out = self.s1.astype(dtype)
            p = self.parallel
            np.add.at(out, self.sym_ends[0][p], self.edge(k, dtype)[p] - self.mult[p].astype(dtype))
            self._memo[key] = out
        return self._memo[key]

    def cliques(self, q: int) -> tuple:
        """Every q-clique (q >= 2) once: q vertex arrays, the multiplicities
        of the pair at positions (i, j), i < j, and the out-pair that ends
        the clique.

        Pairs point from lower (s1, id) to higher, ranked by the one key
        s1 * N + id, and are grouped by their lower end.  A clique is found
        once, at its lowest vertex x, as out-pairs of x at increasing
        positions: each (q-1)-clique found at x is extended by every later
        out-pair of x whose far end is joined to all the clique's other
        vertices.
        """
        key = ("clique", q)
        if key not in self._memo:
            N = self.N
            if q == 2:
                if (self.max_degree + 1) * N > 2**63:
                    raise ValueError(f"degree {self.max_degree} is too large for int64 vertex ranks")
                rank = self.s1 * N + np.arange(N)
                a, b = self.sym_ends
                up = np.flatnonzero(rank[a] < rank[b])  # each pair once
                self._memo[key] = ([a[up], b[up]], {(0, 1): self.mult[up]}, np.arange(up.size))
            else:
                (ox, oy), out, _ = self.cliques(2)
                verts, mult, last = self.cliques(q - 1)
                i, nxt = range_pairs(last + 1, np.cumsum(np.bincount(ox, minlength=N))[ox[last]])
                found: list = []
                for t in range(1, q - 1):
                    want = self._pair_codes(verts[t][i], oy[nxt])
                    pos = np.minimum(np.searchsorted(self.sym, want), self.sym.size - 1)
                    hit = self.sym[pos] == want
                    i, nxt = i[hit], nxt[hit]
                    found = [p[hit] for p in found] + [pos[hit]]
                mult = {pair: m[i] for pair, m in mult.items()}
                mult[0, q - 1] = out[0, 1][nxt]
                mult.update({(t, q - 1): self.mult[p] for t, p in enumerate(found, start=1)})
                self._memo[key] = ([v[i] for v in verts] + [oy[nxt]], mult, nxt)
        return self._memo[key]


@dataclass(frozen=True)
class Subgraph:
    """A concrete subgraph of a host: chosen vertices plus chosen edges,
    ``edge_part`` being a frozenset of the host's edge labels."""

    vertices: frozenset
    edge_part: frozenset


class BalanceClass(Enum):
    STRICTLY_BALANCED = "strictly-balanced"
    BARELY_BALANCED = "barely-balanced"
    UNBALANCED = "unbalanced"


# ---------------------------------------------------------------------------
# density and balance


def density(g: Graph) -> Fraction:
    """Edge/vertex ratio m(G)/n(G); the empty graph has density 0."""
    if g.n == 0:
        return Fraction(0)
    return Fraction(g.m, g.n)


def essential_density(g: Graph) -> tuple[Fraction, Subgraph]:
    """Maximum density over nonempty vertex subsets with all induced edges.

    Taking every induced edge is optimal for a fixed vertex set, so scanning
    vertex subsets suffices.  Returns a smallest witness subset.
    """
    if g.n == 0:
        raise ValueError("essential density of the empty graph is undefined")
    best = Fraction(-1)
    witness: frozenset = frozenset()
    vertices = range(1, g.n + 1)
    for size in range(1, g.n + 1):
        for subset in combinations(vertices, size):
            fs = frozenset(subset)
            d = Fraction(len(_induced_edge_part(g, fs)), size)
            if d > best:
                best = d
                witness = fs
    return best, Subgraph(witness, _induced_edge_part(g, witness))


def _induced_edge_part(g: Graph, subset: frozenset) -> frozenset:
    """Labels of the edges of g with both ends in subset."""
    seq = g.edge_seq
    return frozenset(j // 2 + 1 for j in range(0, len(seq), 2) if seq[j] in subset and seq[j + 1] in subset)


def balance_class(g: Graph) -> BalanceClass:
    """Classify by comparing d(G) against all strict subgraphs' densities.

    The maximum density over strict subgraphs is attained either on a proper
    vertex subset with all induced edges, or (same vertex set) by dropping a
    single edge; the empty subgraph contributes density 0.
    """
    if g.n == 0:
        raise ValueError("balance class of the empty graph is undefined")
    d = density(g)
    max_strict = Fraction(0)  # the empty subgraph
    vertices = range(1, g.n + 1)
    for size in range(1, g.n):
        for subset in combinations(vertices, size):
            fs = frozenset(subset)
            cand = Fraction(len(_induced_edge_part(g, fs)), size)
            if cand > max_strict:
                max_strict = cand
    if g.m >= 1:
        max_strict = max(max_strict, Fraction(g.m - 1, g.n))
    if d > max_strict:
        return BalanceClass.STRICTLY_BALANCED
    if d == max_strict:
        return BalanceClass.BARELY_BALANCED
    return BalanceClass.UNBALANCED


# ---------------------------------------------------------------------------
# isomorphism


def _adjacency(g: Graph):
    """(non-loop multiplicity map by vertex, loop multiplicity by vertex)."""
    adj: dict[int, dict[int, int]] = {v: {} for v in range(1, g.n + 1)}
    loops: dict[int, int] = {v: 0 for v in range(1, g.n + 1)}
    for (u, v), k in g.pair_multiplicities().items():
        if u == v:
            loops[u] = k
        else:
            adj[u][v] = k
            adj[v][u] = k
    return adj, loops


def is_isomorphic(g: Graph, h: Graph) -> bool:
    """Label-independent isomorphism; kinds must match.

    For multigraphs a vertex swap may reverse a stored orientation, so the
    test compares unordered endpoint-pair multisets under vertex bijections.
    """
    if g.kind != h.kind:
        raise TypeError("cannot compare a multigraph with a simple graph")
    if g.n != h.n or g.m != h.m or sorted(g.degrees()) != sorted(h.degrees()):
        return False
    return canonical_form(g) == canonical_form(h)


def _search(g: Graph) -> tuple[tuple, int]:
    """(canonical pair list, number of vertex automorphisms) of g.

    Colour refinement splits the vertices by loops and by the colours and
    multiplicities of their neighbours.  While a cell has several vertices,
    each of them in turn is given a colour of its own and the colours
    refined again (McKay's individualisation-refinement).  A leaf, where
    every colour is one vertex, gives the pair list relabeled by colour; the
    least one is the key, and the leaves giving it are the automorphisms.
    Of twins in a cell (their swap is an automorphism) one is searched and
    counted for all.
    """
    mult = g.pair_multiplicities()
    adj: list[dict[int, int]] = [{} for _ in range(g.n + 1)]
    for (u, v), c in mult.items():
        adj[u][v] = adj[v][u] = c
    vertices = range(1, g.n + 1)

    def twins(v: int, w: int) -> bool:
        return adj[v].get(v) == adj[w].get(w) and all(
            adj[v].get(u) == adj[w].get(u) for u in adj[v].keys() | adj[w].keys() if u not in (v, w))

    def search(col: list[int]) -> tuple[tuple, int]:
        while True:
            sig = [(col[v], adj[v].get(v, 0), tuple(sorted((col[u], c) for u, c in adj[v].items() if u != v)))
                   for v in vertices]
            ranks = {x: i for i, x in enumerate(sorted(set(sig)))}
            stable = len(ranks) == len(set(col[1:]))
            col = [0] + [ranks[x] for x in sig]
            if stable:
                break
        cells: dict[int, list[int]] = {}
        for v in vertices:
            cells.setdefault(col[v], []).append(v)
        split = [vs for c, vs in sorted(cells.items()) if len(vs) > 1]
        if not split:
            return tuple(sorted((min(col[u], col[v]), max(col[u], col[v]), c) for (u, v), c in mult.items())), 1
        stands_for: dict[int, int] = {}
        for v in split[0]:
            w = next((w for w in stands_for if twins(v, w)), v)
            stands_for[w] = stands_for.get(w, 0) + 1
        best, count = None, 0
        for v, times in stands_for.items():
            key, found = search([2 * c - (u == v) for u, c in enumerate(col)])
            if best is None or key < best:
                best, count = key, 0
            if key == best:
                count += found * times
        return best, count

    return search([0] * (g.n + 1))


def canonical_form(g: Graph) -> tuple:
    """A key equal for two graphs of one kind exactly when they are isomorphic."""
    return g.n, _search(g)[0]


def vertex_automorphisms(g: Graph) -> int:
    """Number of vertex bijections preserving the unordered multiplicity map."""
    return _search(g)[1]


@lru_cache(maxsize=1024)  # graphs are immutable values; callers ask for the same few patterns
def aut_count(g: Graph) -> int:
    """Size of the stabilizer of g in the full relabeling group.

    Multigraphs: vertex relabelings x edge relabelings x orientation flips,
    flips acting trivially on loops.  Each parallel class of size k can be
    permuted internally (k! ways, with the flip of every non-loop edge then
    forced) and each loop's flip fixes the object, so

        aut = (#vertex automorphisms) * prod k! * prod_over_loop_classes 2^k.

    A simple graph has no loop and every k = 1, which leaves the usual vertex
    automorphism count.  In both cases ``oracle.canonical_copies(g) *
    aut_count(g)`` equals the order of the acting group.
    """
    result = vertex_automorphisms(g)
    for (u, v), mult in g.pair_multiplicities().items():
        result *= math.factorial(mult)
        if u == v:
            result *= 2**mult
    return result


# ---------------------------------------------------------------------------
# subgraph copy counting

PATTERN_CAP = 8


def _search_order(f: Graph) -> list[int]:
    """Pattern vertices ordered so each new vertex touches placed ones if possible."""
    adj, _ = _adjacency(f)
    degs = f.degrees()
    remaining = set(range(1, f.n + 1))
    order: list[int] = []
    while remaining:
        anchored = [v for v in remaining if any(u in order for u in adj[v])]
        pool = anchored if anchored else list(remaining)
        v = max(pool, key=lambda v: (degs[v - 1], -v))
        order.append(v)
        remaining.remove(v)
    return order


def subgraph_count(g: Graph, f: Graph) -> int:
    """Number of distinct subgraphs of g isomorphic to f (g[f]).

    Backtracks over injective vertex maps with multiplicity pruning; for a
    complete map the parallel edges of each required pair are chosen by
    binomial selection, and the total is divided by the pattern's vertex
    automorphism count so each subgraph is counted exactly once.
    """
    if g.kind != f.kind:
        raise TypeError("host and pattern must have the same kind")
    if f.n > PATTERN_CAP:
        raise SizeCapError(f"pattern size capped at n <= {PATTERN_CAP}")
    if f.n > g.n or f.m > g.m:
        return 0
    total = _embedding_weight_sum(g, f, collect=None)
    auts = vertex_automorphisms(f)
    assert total % auts == 0
    return total // auts


def as_family(family: Graph | Iterable[Graph]) -> list[Graph]:
    """One graph or an iterable of pairwise non-isomorphic graphs, as a list."""
    shapes = [family] if isinstance(family, Graph) else list(family)
    for a, b in combinations(shapes, 2):
        if a.kind == b.kind and is_isomorphic(a, b):
            raise ValueError("family members must be pairwise non-isomorphic")
    return shapes


def _embedding_weight_sum(g: Graph, f: Graph, collect) -> int:
    """Sum over injective vertex maps of the per-map edge-choice count.

    With ``collect`` a set, instead accumulates every concrete copy
    (vertices, edge choice) into it and the return value is meaningless.
    """
    f_adj, f_loops = _adjacency(f)
    g_adj, g_loops = _adjacency(g)
    g_degs = g.degrees()
    f_degs = f.degrees()
    order = _search_order(f)
    placed: dict[int, int] = {}
    used: set[int] = set()
    total = 0

    if collect is not None:
        host_labels: dict[tuple[int, int], list[int]] = {}
        for j in range(1, g.m + 1):
            u, v = g.endpoints(j)
            host_labels.setdefault((u, v) if u <= v else (v, u), []).append(j)

    def ways_for_map() -> int:
        w = 1
        for (a, b), k in f.pair_multiplicities().items():
            u, v = placed[a], placed[b]
            if a == b:
                avail = g_loops[u]
            else:
                avail = g_adj[u].get(v, 0)
            w *= math.comb(avail, k)
            if w == 0:
                return 0
        return w

    def emit_copies():
        verts = frozenset(placed.values())
        pair_reqs = []
        for (a, b), k in f.pair_multiplicities().items():
            u, v = placed[a], placed[b]
            pair_reqs.append((host_labels.get((u, v) if u <= v else (v, u), []), k))
        choices = [list(combinations(pool, k)) for pool, k in pair_reqs]
        for combo in product(*choices):
            part = frozenset(x for chunk in combo for x in chunk)
            collect.add(Subgraph(verts, part))

    def feasible(fv: int, gv: int) -> bool:
        if g_degs[gv - 1] < f_degs[fv - 1]:
            return False
        if g_loops[gv] < f_loops[fv]:
            return False
        for nb, k in f_adj[fv].items():
            if nb in placed and g_adj[gv].get(placed[nb], 0) < k:
                return False
        return True

    def backtrack(i: int):
        nonlocal total
        if i == len(order):
            if collect is None:
                total += ways_for_map()
            else:
                if ways_for_map() > 0:
                    emit_copies()
            return
        fv = order[i]
        anchors = [nb for nb in f_adj[fv] if nb in placed]
        if anchors:
            candidates = set(g_adj[placed[anchors[0]]])
            for nb in anchors[1:]:
                candidates &= set(g_adj[placed[nb]])
        else:
            candidates = set(range(1, g.n + 1))
        for gv in candidates:
            if gv in used or not feasible(fv, gv):
                continue
            placed[fv] = gv
            used.add(gv)
            backtrack(i + 1)
            del placed[fv]
            used.remove(gv)

    backtrack(0)
    return total


def subgraph_copies(g: Graph, f: Graph) -> set[Subgraph]:
    """All distinct subgraph copies of f inside g as explicit Subgraph values."""
    if g.kind != f.kind:
        raise TypeError("host and pattern must have the same kind")
    if f.n > PATTERN_CAP:
        raise SizeCapError(f"pattern size capped at n <= {PATTERN_CAP}")
    found: set[Subgraph] = set()
    if f.n <= g.n and f.m <= g.m:
        _embedding_weight_sum(g, f, collect=found)
    return found


# ---------------------------------------------------------------------------
# gluing copies: the pair family and the patchwork step


def is_connected(g: Graph) -> bool:
    if g.n == 0:
        return True
    adj, _ = _adjacency(g)
    seen = {1}
    stack = [1]
    while stack:
        v = stack.pop()
        for u in adj[v]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen) == g.n


def glue(h: Graph, f: Graph, n_max: int | None = None, m_max: int | None = None) -> Iterable[Graph]:
    """Every union of h with one more copy of f, any equal to h included.

    The copy's vertices are identified with any s distinct vertices of h
    (s = 0 gives the disjoint union) and the rest are new, labeled after
    h's.  Where a pair of the copy lands on a pair of h carrying c_H edges,
    r of its c_F edges reuse edges already there: every r <= min(c_H, c_F)
    for multigraphs, r = 1 for simple graphs.  Unions with more than n_max
    vertices or m_max edges are skipped.  Isomorphic unions are not merged.
    """
    if h.kind != f.kind:
        raise TypeError("cannot glue graphs of different kinds")
    base = h.pair_multiplicities()
    f_pairs = list(f.pair_multiplicities().items())
    simple = h.kind == "simple"
    least_reuse = f.m - (m_max - h.m) if m_max is not None else 0  # fewest reused edges within m_max
    for s in range(0, min(h.n, f.n) + 1):
        n = h.n + f.n - s
        if n_max is not None and n > n_max:
            continue
        for dom in combinations(range(1, f.n + 1), s):
            if sum(c for (a, b), c in f_pairs if a in dom and b in dom) < least_reuse:
                continue
            fresh = {v: h.n + i for i, v in enumerate((v for v in range(1, f.n + 1) if v not in dom), start=1)}
            for img in permutations(range(1, h.n + 1), s):
                place = dict(zip(dom, img)) | fresh
                pairs = [(tuple(sorted((place[a], place[b]))), c) for (a, b), c in f_pairs]
                reuse = [range(1) if key not in base else range(1, 2) if simple else range(min(c, base[key]) + 1)
                         for key, c in pairs]
                for rs in product(*reuse):
                    if sum(rs) < least_reuse:
                        continue
                    mult = dict(base)
                    for (key, c), r in zip(pairs, rs):
                        mult[key] = mult.get(key, 0) + c - r
                    yield Graph(n, [x for (u, v), c in sorted(mult.items()) for x in (u, v) * c], h.kind)


def pair_family(f: Graph) -> list[Graph]:
    """Isomorphism classes of unions of two distinct overlapping copies of f:
    the connected results of ``glue(f, f)`` other than f itself, each class
    represented by the first of its unions that ``glue`` yields."""
    if f.kind != "multigraph":
        raise TypeError("pair_family expects a multigraph pattern")
    if not is_connected(f):
        raise ValueError("pair_family requires a connected pattern")
    reps: dict[tuple, Graph] = {}
    for g in glue(f, f):
        if g.m > f.m and is_connected(g):
            reps.setdefault(canonical_form(g), g)
    return list(reps.values())


# ---------------------------------------------------------------------------
# JSON


def graph_to_json(g: Graph) -> str:
    return json.dumps({"kind": g.kind, "n": g.n, "edges": [list(g.endpoints(j)) for j in range(1, g.m + 1)]})


def graph_from_json(text: str | dict) -> Graph:
    data = json.loads(text) if isinstance(text, str) else text
    try:
        kind, n, edges = data["kind"], data["n"], data["edges"]
    except (KeyError, TypeError):
        raise ValueError('graph JSON needs "kind", "n" and "edges"') from None
    return Graph(n, [x for u, v in edges for x in (u, v)], kind)


# ---------------------------------------------------------------------------
# builtin shapes

def loop() -> Graph:
    return Multigraph(1, (1, 1))


def edge_multi() -> Graph:
    return Multigraph(2, (1, 2))


def double_edge() -> Graph:
    return Multigraph(2, (1, 2, 1, 2))


def cycle_multi(length: int) -> Graph:
    """Cycle as a multigraph: length 1 is the loop, 2 the double edge."""
    if length < 1:
        raise ValueError("cycle length must be >= 1")
    if length == 1:
        return loop()
    if length == 2:
        return double_edge()
    seq: list[int] = []
    for i in range(1, length):
        seq.extend((i, i + 1))
    seq.extend((length, 1))
    return Multigraph(length, seq)


def path_multi(k: int) -> Graph:
    """Path on k vertices (k-1 edges)."""
    if k < 1:
        raise ValueError("path needs at least one vertex")
    seq: list[int] = []
    for i in range(1, k):
        seq.extend((i, i + 1))
    return Multigraph(k, seq)


def star_multi(leaves: int) -> Graph:
    seq: list[int] = []
    for i in range(2, leaves + 2):
        seq.extend((1, i))
    return Multigraph(leaves + 1, seq)


def edge_simple() -> Graph:
    return SimpleGraph(2, [(1, 2)])


def cycle_simple(length: int) -> Graph:
    if length < 3:
        raise ValueError("simple cycles need length >= 3")
    edges = [(i, i + 1) for i in range(1, length)] + [(1, length)]
    return SimpleGraph(length, edges)


def path_simple(k: int) -> Graph:
    return SimpleGraph(k, [(i, i + 1) for i in range(1, k)])


def star_simple(leaves: int) -> Graph:
    return SimpleGraph(leaves + 1, [(1, i) for i in range(2, leaves + 2)])


def complete_simple(k: int) -> Graph:
    return SimpleGraph(k, list(combinations(range(1, k + 1), 2)))


_MULTI_SHAPES = {
    "loop": loop,
    "edge": edge_multi,
    "double-edge": double_edge,
    "p3": lambda: path_multi(3),
    "p4": lambda: path_multi(4),
    "c3": lambda: cycle_multi(3),
    "c4": lambda: cycle_multi(4),
    "c5": lambda: cycle_multi(5),
    "c6": lambda: cycle_multi(6),
    "c7": lambda: cycle_multi(7),
    "c8": lambda: cycle_multi(8),
    "k13": lambda: star_multi(3),
}

_SIMPLE_SHAPES = {
    "edge": edge_simple,
    "p3": lambda: path_simple(3),
    "p4": lambda: path_simple(4),
    "c3": lambda: cycle_simple(3),
    "c4": lambda: cycle_simple(4),
    "c5": lambda: cycle_simple(5),
    "c6": lambda: cycle_simple(6),
    "c7": lambda: cycle_simple(7),
    "c8": lambda: cycle_simple(8),
    "k4": lambda: complete_simple(4),
    "k13": lambda: star_simple(3),
}


def shape(name: str, kind: str = "multigraph") -> Graph:
    """Look up a builtin pattern by name ('c3', 'p3', 'loop', ...)."""
    table = _MULTI_SHAPES if kind == "multigraph" else _SIMPLE_SHAPES
    try:
        return table[name]()
    except KeyError:
        raise ValueError(f"unknown {kind} shape {name!r}") from None
