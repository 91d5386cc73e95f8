"""Monte Carlo experiment runner: sample hosts, count copies, compare with
predictions, and emit machine-readable reports.

Replicates are independent; replicate r derives its RNG stream from
(seed, r), so a report is bit-for-bit reproducible for a given (config,
seed) regardless of the worker count (the wall-clock runtime field is the
one exception and is excluded from comparisons).

Copies of a builtin shape in sampled hosts are counted by one engine over
numpy arrays of the host: the shape is a signed sum of homomorphism counts
of its quotients, each weighted by pure powers of the host's pair and loop
multiplicities and evaluated by vertex elimination and clique closing.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import os
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from itertools import chain, permutations, product

import numpy as np

from . import predictors

# experiments counts nothing with subgraph_count; the name stays a module
# global because the benchmark's tracer (bench/run.py) wraps
# experiments.subgraph_count, and tests/test_bench_contract.py installs it
from .graphs import (  # noqa: F401
    Graph,
    Multigraph,
    is_isomorphic,
    shape,
    subgraph_count,
    vertex_automorphisms,
)
from .models import (
    DegreeDistribution,
    WeightSpec,
    derive_rng,
    sample_configuration,
    sample_delta_multigraph,
    sample_uniform_multigraph,
    sample_uniform_simple,
)
from .specialfuncs import chi_square_survival, poisson_pmf, stirling1_signed


# ---------------------------------------------------------------------------
# copy counting
#
# One engine counts every builtin shape F.  With M the host's pair
# multiplicities (zero diagonal) and L its loops per vertex, a copy of F is
# an injective map V(F) -> V(G) and a choice of k of the M (or L) host edges
# for each class of k parallel pattern edges (or k loops): the copy count is
# the sum over injective maps of the product of C(M, k) over F's classes,
# divided by F's vertex automorphisms.  Expanding C(M, k) into powers of M
# and Moebius inversion over the set partitions of V(F) make this a weighted
# sum of homomorphism counts of F's quotients, its spasm (Curticapean, Dell
# and Marx, "Homomorphisms are a good basis for counting small subgraphs",
# STOC 2017), each summed by eliminating quotient vertices over numpy arrays
# of the host; a complete quotient that remains is closed over the host's
# cliques (Chiba and Nishizeki, SIAM J. Comput. 1985).  All sums are exact:
# int64 while a bound on every partial sum stays below 2^63, Python ints
# (dtype=object) past it.


class _Host:
    """One host as arrays over vertices 0..n (0 unused).

    The unique non-loop pairs pu < pv, with multiplicity pk, are coded
    ``pu * N + pv`` (N = n + 1) in sorted ``codes``; ``sym`` holds every pair
    in both orientations, sorted, with ``mult`` alongside; ``s1`` is each
    vertex's number of non-loop edge ends, ``lv`` its number of loops and
    ``max_degree`` the largest s1 + 2 lv.
    """

    def __init__(self, g: Graph):
        self.kind = g.kind
        self.n = g.n
        N = self.N = g.n + 1
        seq = g.edge_seq if isinstance(g, Multigraph) else chain.from_iterable(g.edges)
        ends = np.fromiter(seq, dtype=np.int64, count=2 * g.m)
        u, v = ends[0::2], ends[1::2]
        keep = u != v
        self.lv = np.bincount(u[~keep], minlength=N)
        u, v = u[keep], v[keep]
        self.codes, pk = np.unique(np.minimum(u, v) * N + np.maximum(u, v), return_counts=True)
        self.pk = pk.astype(np.int64)
        self.pu, self.pv = np.divmod(self.codes, N)
        self.s1 = np.bincount(np.concatenate((u, v)), minlength=N)
        self.max_degree = int((self.s1 + 2 * self.lv).max(initial=0))
        sym = np.concatenate((self.codes, self.pv * N + self.pu))
        order = np.argsort(sym)
        self.sym = sym[order]
        self.mult = np.concatenate((self.pk, self.pk))[order]
        self._memo: dict = {}

    def edge(self, k: int, dtype) -> tuple:
        """The factor M^k over ``sym``: (codes, values)."""
        key = ("edge", k, dtype)
        if key not in self._memo:
            self._memo[key] = (self.sym, self.mult.astype(dtype) ** k)
        return self._memo[key]

    def power_sum(self, k: int, dtype) -> np.ndarray:
        """Per-vertex sum over neighbours b of M[a, b]^k."""
        key = ("sum", k, dtype)
        if key not in self._memo:
            out = np.zeros(self.N, dtype=dtype)
            np.add.at(out, self.sym // self.N, self.edge(k, dtype)[1])
            self._memo[key] = out
        return self._memo[key]

    def cliques(self, q: int) -> tuple:
        """Every q-clique (q >= 2) once: q vertex arrays, the multiplicities
        of the pair at positions (i, j), i < j, and the out-pair that ends
        the clique.

        Pairs point from lower (s1, id) to higher and are grouped by their
        lower end.  A clique is found once, at its lowest vertex x, as
        out-pairs of x at increasing positions: each (q-1)-clique found at x
        is extended by every later out-pair of x whose far end is joined to
        all the clique's other vertices.
        """
        key = ("clique", q)
        if key not in self._memo:
            N = self.N
            if q == 2:
                rank = np.empty(N, dtype=np.int64)
                rank[np.lexsort((np.arange(N), self.s1))] = np.arange(N)
                up = rank[self.pu] < rank[self.pv]
                x = np.where(up, self.pu, self.pv)
                order = np.argsort(x, kind="stable")
                y = np.where(up, self.pv, self.pu)[order]
                self._memo[key] = ([x[order], y], {(0, 1): self.pk[order]}, np.arange(x.size))
            else:
                (ox, oy), out, _ = self.cliques(2)
                verts, mult, last = self.cliques(q - 1)
                later = np.searchsorted(ox, ox[last], side="right") - last - 1
                i = np.repeat(np.arange(last.size), later)
                nxt = last[i] + 1 + np.arange(i.size) - np.repeat(np.cumsum(later) - later, later)
                found: list = []
                for t in range(1, q - 1):
                    b, d = verts[t][i], oy[nxt]
                    want = np.minimum(b, d) * N + np.maximum(b, d)
                    pos = np.minimum(np.searchsorted(self.codes, want), self.codes.size - 1)
                    hit = self.codes[pos] == want
                    i, nxt = i[hit], nxt[hit]
                    found = [p[hit] for p in found] + [pos[hit]]
                mult = {pair: m[i] for pair, m in mult.items()}
                mult[0, q - 1] = out[0, 1][nxt]
                mult.update({(t, q - 1): self.pk[p] for t, p in enumerate(found, start=1)})
                self._memo[key] = ([v[i] for v in verts] + [oy[nxt]], mult, nxt)
        return self._memo[key]


def _set_partitions(n: int):
    """Block index of each of n items, once per set partition."""
    if n == 0:
        yield ()
        return
    for head in _set_partitions(n - 1):
        for b in range(max(head, default=-1) + 2):
            yield head + (b,)


@functools.lru_cache(maxsize=None)
def _spasm(name: str, kind: str) -> tuple:
    """(divisor, edge count, [(coefficient, q, quotient edges)]) of a builtin
    shape: its copy count is sum(coefficient * hom) // divisor.

    Quotient vertices are 0..q-1 and its edges (x, y, j) with x <= y carry
    the power M^j (L^j where x == y) that the pattern's classes, expanded by
    C(M, k) = sum_j s(k, j) M^j / k!, put there.  A partition that folds a
    non-loop pattern edge into one block is dropped (M has a zero diagonal);
    isomorphic quotients are merged, summing their weights, each the
    product of the Stirling numbers and of the Moebius weights
    (-1)^(s-1) (s-1)! over blocks of size s.  The divisor is the pattern's
    vertex automorphisms times k! for each class.
    """
    f = shape(name, kind)
    classes = f.pair_multiplicities()  # (a, b) -> k; loops as (a, a)
    expansions = [[(j, s) for j, s in enumerate(stirling1_signed(k)) if s] for k in classes.values()]
    terms = list(product(*expansions))  # one term per exponent j of each class
    basis: list[list] = []  # [coefficient, quotient Multigraph, q, edges]
    for blocks in _set_partitions(f.n):
        if any(a != b and blocks[a - 1] == blocks[b - 1] for a, b in classes):
            continue
        sizes = Counter(blocks).values()
        moebius = math.prod((-1) ** (s - 1) * math.factorial(s - 1) for s in sizes)
        for term in terms:
            merged: Counter = Counter()
            for (a, b), (j, _) in zip(classes, term):
                merged[tuple(sorted((blocks[a - 1], blocks[b - 1])))] += j
            coef = moebius * math.prod(s for _, s in term)
            edges = tuple((x, y, k) for (x, y), k in sorted(merged.items()))
            quotient = Multigraph(len(sizes), [e + 1 for x, y, k in edges for _ in range(k) for e in (x, y)])
            for c in basis:
                if is_isomorphic(c[1], quotient):
                    c[0] += coef
                    break
            else:
                basis.append([coef, quotient, len(sizes), edges])
    divisor = vertex_automorphisms(f) * math.prod(math.factorial(k) for k in classes.values())
    return divisor, f.m, tuple((coef, q, edges) for coef, _, q, edges in basis if coef)


def _oriented(factor, N: int, first: bool):
    """(x-side, y-side, values) of a factor stored for the pair (x, y) if
    ``first``, else for (y, x); sorted by the x-side when ``first`` or when
    the factor is a symmetric M^k."""
    codes, vals, k = factor
    hi, lo = np.divmod(codes, N)
    return (hi, lo, vals) if first or k is not None else (lo, hi, vals)


def _hom(host: _Host, q: int, edges: tuple, dtype) -> int:
    """Homomorphism count of a connected quotient, weighted by M^k per edge
    and L^k per loop entry.

    Each quotient vertex x carries a vector w[x] over host vertices (None
    for all ones) and each quotient edge x < y a factor (codes, values, k):
    sparse values over host pairs coded a * N + b, with k set while the
    factor is still M^k itself.  A leaf folds into its neighbour's vector;
    a complete quotient of M^k factors closes over the host's cliques; a
    degree-2 vertex becomes a factor over the walks through it, multiplied
    into any factor already on that pair.  Any other core of minimum degree
    3 raises NotImplementedError.
    """
    N = host.N
    w: list = [None] * q
    fac = {}
    for x, y, k in edges:
        if x == y:
            w[x] = host.lv.astype(dtype) ** k
        else:
            fac[x, y] = (*host.edge(k, dtype), k)
    alive = set(range(q))
    while len(alive) > 1:
        nbrs: dict[int, list[int]] = {x: [] for x in alive}
        for x, y in fac:
            nbrs[x].append(y)
            nbrs[y].append(x)
        x = min(alive, key=lambda v: (len(nbrs[v]), v))
        if len(nbrs[x]) == 1:
            y = nbrs[x][0]
            factor = fac.pop((min(x, y), max(x, y)))
            if w[x] is None and factor[2] is not None:
                folded = host.power_sum(factor[2], dtype)
            else:
                xs, ys, vals = _oriented(factor, N, x < y)
                folded = np.zeros(N, dtype=dtype)
                np.add.at(folded, ys, vals if w[x] is None else vals * w[x][xs])
            w[y] = folded if w[y] is None else w[y] * folded
            alive.remove(x)
            continue
        if len(fac) == math.comb(len(alive), 2) and all(f[2] is not None for f in fac.values()):
            return _close_clique(host, sorted(alive), fac, w, dtype)
        if len(nbrs[x]) > 2:
            raise NotImplementedError(f"no rule counts homomorphisms of the core {sorted(fac)}")
        x = min(
            (v for v in alive if len(nbrs[v]) == 2),
            key=lambda v: math.prod(fac[min(v, y), max(v, y)][0].size for y in nbrs[v]),
        )
        y, z = sorted(nbrs[x])
        xy, xz = fac.pop((min(x, y), max(x, y))), fac.pop((min(x, z), max(x, z)))
        a1, b, v1 = _oriented(xy, N, x < y)
        a2, c, v2 = _oriented(xz, N, x < z)
        if x > z and xz[2] is None:
            order = np.argsort(a2, kind="stable")
            a2, c, v2 = a2[order], c[order], v2[order]
        per = np.bincount(a2, minlength=N)
        reps = per[a1]
        i = np.repeat(np.arange(a1.size), reps)
        j = (np.cumsum(per) - per)[a1[i]] + np.arange(i.size) - np.repeat(np.cumsum(reps) - reps, reps)
        vals = v1[i] * v2[j]
        if w[x] is not None:
            vals = vals * w[x][a1[i]]
        codes, where = np.unique(b[i] * N + c[j], return_inverse=True)
        summed = np.zeros(codes.size, dtype=dtype)
        np.add.at(summed, where, vals)
        alive.remove(x)
        # each other bare vertex between y and z under the same M^k factors
        # would give the same walk factor: multiply it in once more instead
        if w[x] is None and xy[2] is not None and xz[2] is not None:
            walk = summed
            for v in [v for v in alive if sorted(nbrs[v]) == [y, z] and w[v] is None]:
                if (fac[min(v, y), max(v, y)][2], fac[min(v, z), max(v, z)][2]) == (xy[2], xz[2]):
                    del fac[min(v, y), max(v, y)], fac[min(v, z), max(v, z)]
                    alive.remove(v)
                    summed = summed * walk
        if (y, z) in fac:
            old_codes, old_vals, _ = fac[y, z]
            codes, i1, i2 = np.intersect1d(codes, old_codes, assume_unique=True, return_indices=True)
            summed = summed[i1] * old_vals[i2]
        fac[y, z] = (codes, summed, None)
    (x,) = alive
    return int(w[x].sum())


def _close_clique(host: _Host, verts: list, fac: dict, w: list, dtype) -> int:
    """Sum over the q! ways to lay the complete quotient on each host q-clique."""
    at, mult, _ = host.cliques(len(verts))
    mult = {pair: m.astype(dtype) for pair, m in mult.items()}
    total = 0
    for perm in permutations(range(len(verts))):
        term = np.ones(at[0].size, dtype=dtype)
        for (x, y), (_, _, k) in fac.items():
            i, j = sorted((perm[verts.index(x)], perm[verts.index(y)]))
            term = term * mult[i, j] ** k
        for pos, x in enumerate(verts):
            if w[x] is not None:
                term = term * w[x][at[perm[pos]]]
        total += int(term.sum())
    return total


def _count(host: _Host, name: str) -> int:
    divisor, n_edges, basis = _spasm(name, host.kind)
    # summing outward from the root of a spanning tree of a quotient bounds
    # every partial sum of its homomorphism count by n * max(degree)^E
    dtype = object if host.n * host.max_degree**n_edges >= 2**63 else np.int64
    total = sum(coef * _hom(host, q, edges, dtype) for coef, q, edges in basis)
    copies, rest = divmod(total, divisor)
    assert rest == 0
    return copies


def count_pattern(g: Graph, pattern: str) -> int:
    """Copies in g of the builtin shape named ``pattern``."""
    return count_patterns(g, [pattern])[0]


def count_patterns(g: Graph, patterns: list[str]) -> tuple[int, ...]:
    """Copies in g of each named builtin shape of g's kind, sharing the
    host's array form; an unknown name (or a pattern graph) raises
    ``ValueError``."""
    host = _Host(g)
    return tuple(_count(host, p) for p in patterns)


# ---------------------------------------------------------------------------
# statistics


def tv_distance(p: dict[int, float], q) -> float:
    """Total variation (1/2) sum |p_t - q_t|.

    ``q`` is either a pmf dict or ("poisson", lam); the Poisson tail past the
    empirical support is summed analytically (as its own mass).
    """
    if isinstance(q, tuple) and q[0] == "poisson":
        lam = float(q[1])
        support = max(p) if p else 0
        acc = 0.0
        qcum = 0.0
        for t in range(0, support + 1):
            qt = poisson_pmf(lam, t)
            qcum += qt
            acc += abs(p.get(t, 0.0) - qt)
        acc += 1.0 - qcum  # q's tail where p is zero
        return 0.5 * acc
    keys = set(p) | set(q)
    return 0.5 * sum(abs(p.get(t, 0.0) - q.get(t, 0.0)) for t in keys)


def scaling_fit(sizes, means) -> tuple[float, float]:
    """Least-squares slope of log(mean) against log(n), with its stderr.

    Returns (nan, nan) when some mean is nonpositive (undefined fit).
    """
    sizes = list(sizes)
    means = list(means)
    if len(sizes) < 2:
        raise ValueError("need at least two sizes")
    if any(mu <= 0 for mu in means):
        return (math.nan, math.nan)
    xs = np.log(np.array(sizes, dtype=float))
    ys = np.log(np.array(means, dtype=float))
    xbar = xs.mean()
    sxx = float(((xs - xbar) ** 2).sum())
    slope = float(((xs - xbar) * (ys - ys.mean())).sum()) / sxx
    intercept = float(ys.mean() - slope * xbar)
    if len(sizes) == 2:
        return slope, 0.0
    resid = ys - (intercept + slope * xs)
    se = math.sqrt(float((resid**2).sum()) / (len(sizes) - 2) / sxx)
    return slope, se


def two_sample_chi_square(counts_a: dict, counts_b: dict) -> tuple[float, int, float]:
    """Two-sample chi-square over shared cells: (statistic, df, p-value)."""
    cells = sorted(set(counts_a) | set(counts_b))
    na = sum(counts_a.values())
    nb = sum(counts_b.values())
    ka = math.sqrt(nb / na)
    kb = math.sqrt(na / nb)
    stat = 0.0
    used = 0
    for c in cells:
        a = counts_a.get(c, 0)
        b = counts_b.get(c, 0)
        if a + b == 0:
            continue
        stat += (ka * a - kb * b) ** 2 / (a + b)
        used += 1
    df = used - 1
    return stat, df, chi_square_survival(stat, df)


def median_of_means(values, buckets: int) -> float:
    """Median of bucket means over a replicate-ordered value list.

    The values are cut into ``buckets`` contiguous buckets whose sizes
    differ by at most one, so every value lands in some bucket.
    """
    values = list(values)
    if buckets < 1 or len(values) < buckets:
        raise ValueError("need at least one value per bucket")
    cuts = [i * len(values) // buckets for i in range(buckets + 1)]
    ms = sorted(sum(values[lo:hi]) / (hi - lo) for lo, hi in zip(cuts, cuts[1:]))
    mid = buckets // 2
    return ms[mid] if buckets % 2 == 1 else 0.5 * (ms[mid - 1] + ms[mid])


# ---------------------------------------------------------------------------
# configuration and reports


@dataclass
class ExperimentConfig:
    """One Monte Carlo experiment: a model, a size, patterns, replicates."""

    model: str  # uniform-multi | uniform-simple | delta | configuration
    n: int
    pattern: str | list[str]
    replicates: int
    seed: int
    m: int | None = None
    m_rule: dict | None = None  # {"c": float, "alpha": float}: m = round(c n^alpha)
    delta: WeightSpec | dict | str | None = None
    predictor: dict | None = None
    mom_buckets: int | None = None
    workers: int | None = None

    def __post_init__(self):
        if self.replicates < 1:
            raise ValueError("need at least one replicate")
        if self.m is None and self.m_rule is None and self.model != "configuration":
            raise ValueError("either m or m_rule is required")
        if self.m is not None and self.m_rule is not None:
            raise ValueError("give m or m_rule, not both")
        if isinstance(self.delta, (dict, str)):
            self.delta = WeightSpec.from_json(self.delta)

    def resolved_m(self) -> int | None:
        if self.m is not None:
            return self.m
        if self.m_rule is None:
            return None
        c, alpha = float(self.m_rule["c"]), float(self.m_rule["alpha"])
        return round(c * self.n ** alpha)  # nearest-integer rounding

    def kind(self) -> str:
        return "simple" if self.model == "uniform-simple" else "multigraph"

    def to_json(self) -> dict:
        out = dataclasses.asdict(self)
        if isinstance(self.delta, WeightSpec):
            out["delta"] = self.delta.to_json()
        out["resolved_m"] = self.resolved_m()
        return out

    @staticmethod
    def from_json(data: dict) -> "ExperimentConfig":
        """Config from ``to_json`` output; its derived ``resolved_m`` is ignored."""
        fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
        unknown = sorted(set(data) - fields - {"resolved_m"})
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(unknown)}")
        return ExperimentConfig(**{k: v for k, v in data.items() if k in fields})


@dataclass
class ExperimentReport:
    """Empirical copy-count statistics with optional predicted comparisons."""

    config: dict
    pattern: str
    replicates: int
    empirical_pmf: dict[int, float]
    empirical_mean: float
    empirical_variance: float
    stderr: float
    predicted_mean: float | None = None
    tv_distance: float | None = None
    median_of_means: float | None = None
    runtime_seconds: float = 0.0
    notes: dict = field(default_factory=dict)

    def to_json(self, include_runtime: bool = True) -> dict:
        out = {
            "config": self.config,
            "pattern": self.pattern,
            "replicates": self.replicates,
            "empirical_pmf": {str(t): f for t, f in sorted(self.empirical_pmf.items())},
            "empirical_mean": self.empirical_mean,
            "empirical_variance": self.empirical_variance,
            "stderr": self.stderr,
            "predicted_mean": self.predicted_mean,
            "tv_distance": self.tv_distance,
            "median_of_means": self.median_of_means,
            "notes": self.notes,
        }
        if include_runtime:
            out["runtime_seconds"] = self.runtime_seconds
        return out


def _replicate_counts(config: ExperimentConfig, m: int | None, pi: DegreeDistribution | None, patterns, r: int) -> tuple:
    rng = derive_rng(config.seed, r)
    if config.model == "uniform-multi":
        host = sample_uniform_multigraph(config.n, m, rng)
    elif config.model == "uniform-simple":
        host = sample_uniform_simple(config.n, m, rng)
    elif config.model == "delta" or (config.model == "configuration" and m is not None):
        # conditioned on m the configuration model is the delta model's law,
        # drawn from the same tuned table by the same sampler
        host = sample_delta_multigraph(config.n, m, config.delta, rng)
    elif config.model == "configuration":
        host = sample_configuration(config.n, pi, rng)
    else:
        raise ValueError(f"unknown model {config.model!r}")
    return count_patterns(host, patterns)


def _worker_chunk(payload) -> list[tuple]:
    config_json, patterns, start, stop = payload
    config = ExperimentConfig.from_json(config_json)
    m = config.resolved_m()
    pi = None
    if config.model == "configuration" and m is None:
        pi = DegreeDistribution.from_weight_spec(config.delta, 1.0)
    return [_replicate_counts(config, m, pi, patterns, r) for r in range(start, stop)]


def _resolve_workers(config: ExperimentConfig) -> int:
    """``config.workers`` (default: all cores), capped by ``WORKERS`` if set."""
    workers = max(1, int(config.workers or os.cpu_count() or 1))
    env = os.environ.get("WORKERS")
    if env:
        cap = int(env) if env.isdecimal() else 0
        if cap < 1:
            raise ValueError(f"WORKERS must be a positive integer, got {env!r}")
        workers = min(workers, cap)
    return workers


def run_many(config: ExperimentConfig, patterns: list[str]) -> dict[str, ExperimentReport]:
    """Run one experiment and count several patterns on the shared hosts."""
    start_time = time.monotonic()
    workers = _resolve_workers(config)
    r_total = config.replicates
    config_json = config.to_json()
    if workers == 1 or r_total < 4 * workers:
        rows = _worker_chunk((config_json, patterns, 0, r_total))
    else:
        chunk = max(1, math.ceil(r_total / (4 * workers)))
        payloads = [
            (config_json, patterns, lo, min(lo + chunk, r_total))
            for lo in range(0, r_total, chunk)
        ]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(_worker_chunk, payloads))
        rows = [row for chunk_rows in chunks for row in chunk_rows]
    runtime = time.monotonic() - start_time
    reports = {}
    for i, pat in enumerate(patterns):
        counts = [row[i] for row in rows]
        reports[pat] = _build_report(config, pat, counts, runtime)
    return reports


def run(config: ExperimentConfig) -> ExperimentReport:
    """Run the experiment for its one configured pattern; ``run_many``
    counts several on the same hosts."""
    patterns = [config.pattern] if isinstance(config.pattern, str) else list(config.pattern)
    if len(patterns) != 1:
        raise ValueError(f"run counts one pattern, the config lists {patterns}: "
                         f"{patterns[1:]} would be dropped; use run_many")
    return run_many(config, patterns)[patterns[0]]


def _build_report(config, pattern, counts, runtime) -> ExperimentReport:
    r_total = len(counts)
    mean = sum(counts) / r_total
    var = sum((c - mean) ** 2 for c in counts) / (r_total - 1) if r_total > 1 else 0.0
    pmf: dict[int, float] = {}
    for c in counts:
        pmf[c] = pmf.get(c, 0) + 1
    pmf = {t: cnt / r_total for t, cnt in pmf.items()}
    report = ExperimentReport(
        config=config.to_json(),
        pattern=pattern,
        replicates=r_total,
        empirical_pmf=pmf,
        empirical_mean=mean,
        empirical_variance=var,
        stderr=math.sqrt(var / r_total) if r_total > 1 else 0.0,
        runtime_seconds=runtime,
    )
    if config.mom_buckets:
        report.median_of_means = median_of_means(counts, config.mom_buckets)
    if config.predictor:
        params = dict(config.predictor)
        theorem = params.pop("theorem")
        if "delta" not in params and config.delta is not None:
            params["delta"] = config.delta
        prediction = predictors.predict(theorem, **params)
        if prediction.value is not None:
            report.predicted_mean = float(prediction.value)
            report.tv_distance = tv_distance(pmf, ("poisson", report.predicted_mean))
            report.notes["formula_id"] = prediction.formula_id
            if prediction.convention:
                report.notes["convention"] = prediction.convention
    return report


def sweep(config: ExperimentConfig, sizes: list[int]) -> list[ExperimentReport]:
    """Re-run the experiment across sizes (m from m_rule), for scaling fits."""
    if config.m_rule is None:
        raise ValueError("sweep needs an m_rule so m scales with n")
    return [run(dataclasses.replace(config, n=n)) for n in sizes]


def sweep_csv(reports: list[ExperimentReport]) -> str:
    header = "n,m,replicates,empirical_mean,stderr,predicted_mean,tv_distance,seed"
    lines = [header]
    for rep in reports:
        cfg = rep.config
        lines.append(
            ",".join(
                str(x)
                for x in [
                    cfg["n"],
                    cfg["resolved_m"],
                    rep.replicates,
                    rep.empirical_mean,
                    rep.stderr,
                    rep.predicted_mean if rep.predicted_mean is not None else "",
                    rep.tv_distance if rep.tv_distance is not None else "",
                    cfg["seed"],
                ]
            )
        )
    return "\n".join(lines) + "\n"
