"""Monte Carlo experiment runner: sample hosts, count copies, compare with
predictions, and emit machine-readable reports.

Replicates are independent; replicate r derives its RNG stream from
(seed, r), so a report is bit-for-bit reproducible for a given (config,
seed) regardless of the worker count (the wall-clock runtime field is the
one exception and is excluded from comparisons).

Copies in sampled hosts are counted by one engine over numpy arrays of the
host: each builtin shape with simple pattern edges is a Moebius-weighted sum
of homomorphism counts of its quotients, evaluated by vertex elimination.
``loop`` and ``double-edge`` are direct sums over the host's pairs; only
``k4`` and pattern graphs given as values use the backtracking
``graphs.subgraph_count``.
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
from itertools import chain, permutations

import numpy as np

from . import predictors
from .graphs import (
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
from .specialfuncs import chi_square_survival, poisson_pmf


# ---------------------------------------------------------------------------
# copy counting
#
# One engine counts every builtin shape F with simple pattern edges.  With M
# the host's pair-multiplicity matrix (zero diagonal, loops dropped), the
# copy count is the sum over injective maps V(F) -> V(G) of the product of M
# over F's edges, divided by F's vertex automorphisms; a pattern edge picks
# one of the M[a, b] parallel host edges.  Moebius inversion over the set
# partitions of V(F) turns the injective sum into a weighted sum of
# homomorphism counts of F's quotients, its spasm (Curticapean, Dell and
# Marx, "Homomorphisms are a good basis for counting small subgraphs",
# STOC 2017).  A quotient edge onto which k pattern edges fall weighs M^k.
# Homomorphism counts are summed by eliminating quotient vertices over numpy
# arrays of the host; a remaining triangle is closed over degree-ordered
# wedges (Latapy, TCS 2008).  All sums are exact: int64 while a bound on
# every partial sum stays below 2^63, Python ints (dtype=object) past it.


class _Host:
    """One host as arrays over vertices 0..n (0 unused).

    The unique non-loop pairs pu < pv, with multiplicity pk, are coded
    ``pu * N + pv`` (N = n + 1) in sorted ``codes``; ``sym`` holds every pair
    in both orientations, sorted, with ``mult`` alongside; ``s1`` is each
    vertex's number of non-loop edge ends.
    """

    def __init__(self, g: Graph):
        self.kind = g.kind
        self.n = g.n
        N = self.N = g.n + 1
        seq = g.edge_seq if isinstance(g, Multigraph) else chain.from_iterable(g.edges)
        ends = np.fromiter(seq, dtype=np.int64, count=2 * g.m)
        u, v = ends[0::2], ends[1::2]
        keep = u != v
        self.loops = int(u.size - keep.sum())
        u, v = u[keep], v[keep]
        self.codes, pk = np.unique(np.minimum(u, v) * N + np.maximum(u, v), return_counts=True)
        self.pk = pk.astype(np.int64)
        self.pu, self.pv = np.divmod(self.codes, N)
        self.s1 = np.bincount(np.concatenate((u, v)), minlength=N)
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

    def triangles(self) -> tuple:
        """Every triangle once, as vertex arrays x, y, z and multiplicities
        of xy, xz, yz.

        Pairs point from lower (s1, id) to higher; a triangle is found once,
        at its lowest vertex, from the wedge of its two out-pairs there.
        """
        if "tri" not in self._memo:
            N = self.N
            rank = np.empty(N, dtype=np.int64)
            rank[np.lexsort((np.arange(N), self.s1))] = np.arange(N)
            up = rank[self.pu] < rank[self.pv]
            x = np.where(up, self.pu, self.pv)
            y = np.where(up, self.pv, self.pu)
            order = np.argsort(x, kind="stable")
            x, y, k = x[order], y[order], self.pk[order]
            later = np.searchsorted(x, x, side="right") - np.arange(x.size) - 1
            i = np.repeat(np.arange(x.size), later)
            j = i + 1 + np.arange(i.size) - np.repeat(np.cumsum(later) - later, later)
            b, c = y[i], y[j]
            want = np.minimum(b, c) * N + np.maximum(b, c)
            pos = np.minimum(np.searchsorted(self.codes, want), self.codes.size - 1)
            hit = self.codes[pos] == want
            self._memo["tri"] = (x[i][hit], b[hit], c[hit], k[i][hit], k[j][hit], self.pk[pos][hit])
        return self._memo["tri"]


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
    """(vertex automorphisms, edge count, [(coefficient, q, quotient edges)]).

    Quotient vertices are 0..q-1 and its edges (x, y, k) with x < y carry
    the number k of pattern edges that land on them.  Quotients with a loop
    are dropped (M has a zero diagonal); isomorphic quotients are merged,
    summing their Moebius weights prod over blocks of (-1)^(s-1) (s-1)!.
    """
    f = shape(name, kind)
    pairs = list(f.pair_multiplicities())
    classes: list[list] = []  # [coefficient, quotient Multigraph, q, edges]
    for blocks in _set_partitions(f.n):
        if any(blocks[a - 1] == blocks[b - 1] for a, b in pairs):
            continue
        sizes = Counter(blocks).values()
        coef = math.prod((-1) ** (s - 1) * math.factorial(s - 1) for s in sizes)
        merged = Counter(tuple(sorted((blocks[a - 1], blocks[b - 1]))) for a, b in pairs)
        edges = tuple((x, y, k) for (x, y), k in sorted(merged.items()))
        quotient = Multigraph(len(sizes), [e + 1 for x, y, k in edges for _ in range(k) for e in (x, y)])
        for c in classes:
            if is_isomorphic(c[1], quotient):
                c[0] += coef
                break
        else:
            classes.append([coef, quotient, len(sizes), edges])
    basis = tuple((coef, q, edges) for coef, _, q, edges in classes if coef)
    return vertex_automorphisms(f), f.m, basis


def _oriented(factor, N: int, first: bool):
    """(x-side, y-side, values) of a factor stored for the pair (x, y) if
    ``first``, else for (y, x); sorted by the x-side when ``first`` or when
    the factor is a symmetric M^k."""
    codes, vals, k = factor
    hi, lo = np.divmod(codes, N)
    return (hi, lo, vals) if first or k is not None else (lo, hi, vals)


def _hom(host: _Host, q: int, edges: tuple, dtype) -> int:
    """Homomorphism count of a connected quotient, weighted by M^k per edge.

    Each quotient vertex x carries a vector w[x] over host vertices (None
    for all ones) and each quotient edge x < y a factor (codes, values, k):
    sparse values over host pairs coded a * N + b, with k set while the
    factor is still M^k itself.  A leaf folds into its neighbour's vector;
    a degree-2 vertex becomes a factor over the walks through it, multiplied
    into any factor already on that pair; a triangle of M^k factors closes
    over the host's triangles.
    """
    N = host.N
    w: list = [None] * q
    fac = {(x, y): (*host.edge(k, dtype), k) for x, y, k in edges}
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
        if len(alive) == 3 and all(f[2] is not None for f in fac.values()):
            return _close_triangle(host, sorted(alive), fac, w, dtype)
        if len(nbrs[x]) > 2:
            return _backtrack(alive, nbrs, fac, w, N)
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


def _close_triangle(host: _Host, verts: list, fac: dict, w: list, dtype) -> int:
    """Sum over the 6 ways to lay the quotient triangle on each host triangle."""
    tx, ty, tz, mxy, mxz, myz = host.triangles()
    at = (tx, ty, tz)
    mult = {(0, 1): mxy.astype(dtype), (0, 2): mxz.astype(dtype), (1, 2): myz.astype(dtype)}
    total = 0
    for perm in permutations(range(3)):
        term = np.ones(tx.size, dtype=dtype)
        for (x, y), (_, _, k) in fac.items():
            i, j = sorted((perm[verts.index(x)], perm[verts.index(y)]))
            term = term * mult[i, j] ** k
        for pos, x in enumerate(verts):
            if w[x] is not None:
                term = term * w[x][at[perm[pos]]]
        total += int(term.sum())
    return total


def _backtrack(alive: set, nbrs: dict, fac: dict, w: list, N: int) -> int:
    """Plain backtracking over a core of minimum degree 3, the one case the
    elimination leaves (among builtin shapes, c8's quotients onto K4)."""
    look: dict = {}  # (x, y) -> host a -> host b -> factor value
    for (x, y), factor in fac.items():
        xs, ys, vals = _oriented(factor, N, True)
        fwd, rev = look[x, y], look[y, x] = {}, {}
        for a, b, val in zip(xs.tolist(), ys.tolist(), vals.tolist()):
            fwd.setdefault(a, {})[b] = val
            rev.setdefault(b, {})[a] = val
    order = [min(alive)]
    while len(order) < len(alive):
        order.append(min(v for v in alive - set(order) if any(u in order for u in nbrs[v])))
    placed: dict[int, int] = {}

    def extend(i: int, acc: int) -> int:
        if i == len(order):
            return acc
        x = order[i]
        back = [y for y in nbrs[x] if y in placed]
        candidates = look[back[0], x].get(placed[back[0]], {}) if back else look[x, nbrs[x][0]]
        total = 0
        for a in candidates:
            t = acc if w[x] is None else acc * int(w[x][a])
            for y in back:
                t *= look[y, x].get(placed[y], {}).get(a, 0)
            if t:
                placed[x] = a
                total += extend(i + 1, t)
                del placed[x]
        return total

    return extend(0, 1)


def _count(host: _Host, g: Graph, pattern) -> int:
    if not isinstance(pattern, str):
        return subgraph_count(g, pattern)
    if host.kind == "multigraph" and pattern == "loop":
        return host.loops
    if host.kind == "multigraph" and pattern == "double-edge":
        return int((host.pk * (host.pk - 1) // 2).sum())
    if pattern == "k4":
        return subgraph_count(g, shape(pattern, host.kind))
    aut, n_edges, basis = _spasm(pattern, host.kind)
    # summing outward from the root of a spanning tree of a quotient bounds
    # every partial sum of its homomorphism count by n * max(s1)^E
    big = host.n * int(host.s1.max(initial=0)) ** n_edges >= 2**63
    dtype = object if big else np.int64
    total = sum(coef * _hom(host, q, edges, dtype) for coef, q, edges in basis)
    copies, rest = divmod(total, aut)
    assert rest == 0
    return copies


def count_pattern(g: Graph, pattern) -> int:
    """Copies of a builtin shape (by name) or of a pattern graph in g."""
    return count_patterns(g, [pattern])[0]


def count_patterns(g: Graph, patterns: list) -> tuple[int, ...]:
    """Count several patterns on one host, sharing its array form.

    ``loop`` and ``double-edge`` are sums over the host's pairs, ``k4`` and
    pattern graphs go to the backtracking ``subgraph_count``, and every
    other builtin shape to the homomorphism-basis engine.
    """
    host = _Host(g)
    return tuple(_count(host, g, p) for p in patterns)


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
    statistic: str = "mean"
    predictor: dict | None = None
    mom_buckets: int | None = None
    workers: int | None = None

    def __post_init__(self):
        if self.replicates < 1:
            raise ValueError("need at least one replicate")
        if self.m is None and self.m_rule is None and self.model != "configuration":
            raise ValueError("either m or m_rule is required")
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
