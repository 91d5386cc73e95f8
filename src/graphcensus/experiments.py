"""Monte Carlo experiment runner: sample hosts, count copies, compare with
predictions, and emit machine-readable reports.

Replicates are independent; replicate r derives its RNG stream from
(seed, r), so a report is bit-for-bit reproducible for a given (config,
seed) regardless of the worker count (the wall-clock runtime field is the
one exception and is excluded from comparisons).

Copies of a builtin shape are counted by one engine over the numpy arrays
of a ``graphs.Host``, the form every sampler returns: the shape is a signed
sum of homomorphism counts of its quotients, each weighted by pure powers
of the host's pair and loop multiplicities and evaluated by vertex
elimination and clique closing.
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
from itertools import permutations, product
from typing import NamedTuple

import numpy as np

from . import predictors

# experiments counts nothing with subgraph_count; the name stays a module
# global because the benchmark's tracer (bench/run.py) wraps
# experiments.subgraph_count, and tests/test_bench_contract.py installs it
from .graphs import (  # noqa: F401
    Graph,
    Host,
    canonical_form,
    range_pairs,
    run_sums,
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
    basis: dict[tuple, list] = {}  # canonical form -> [coefficient, quotient multigraph, q, edges]
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
            quotient = Graph(len(sizes), [e + 1 for x, y, k in edges for _ in range(k) for e in (x, y)])
            basis.setdefault(canonical_form(quotient), [0, quotient, len(sizes), edges])[0] += coef
    divisor = vertex_automorphisms(f) * math.prod(math.factorial(k) for k in classes.values())
    return divisor, f.m, tuple((coef, q, edges) for coef, _, q, edges in basis.values() if coef)


class _Factor(NamedTuple):
    """A quotient edge's values over host pairs coded a * N + b.

    ``k`` is set while the factor is still M^k itself, over ``host.sym``.
    ``diag`` is set on a symmetric walk factor, which keeps its pairs a < b
    and its diagonal as a vector over host vertices; any other factor holds
    its pairs oriented as its quotient edge."""

    codes: np.ndarray
    vals: np.ndarray
    k: int | None = None
    diag: np.ndarray | None = None


def _both_ways(host: Host, f: _Factor) -> tuple:
    """(codes, values) of a factor over its pairs, sorted by code: a
    symmetric walk factor's pairs a < b, mirrored, and its nonzero
    diagonal; any other factor's as stored."""
    if f.diag is None:
        return f.codes, f.vals
    hi, lo = np.divmod(f.codes, host.N)
    d = np.flatnonzero(f.diag)
    codes = np.concatenate((f.codes, lo * host.N + hi, d * (host.N + 1)))
    order = np.argsort(codes)
    return codes[order], np.concatenate((f.vals, f.vals, f.diag[d]))[order]


def _oriented(host: Host, f: _Factor, first: bool):
    """(x-side, y-side, values) of a factor stored for the pair (x, y) if
    ``first``, else for (y, x); sorted by the x-side when ``first`` or when
    the factor is symmetric (M^k, whose ends the host keeps, or a walk)."""
    if f.k is not None:
        return (*host.sym_ends, f.vals)
    codes, vals = _both_ways(host, f)
    hi, lo = np.divmod(codes, host.N)
    return (hi, lo, vals) if first or f.diag is not None else (lo, hi, vals)


def _fold(host: Host, k: int, w, dtype) -> np.ndarray:
    """Per host vertex a, the sum over b of M[a, b]^k w[b] (w None: all
    ones)."""
    if w is None:
        return host.power_sum(k, dtype)
    out = np.zeros(host.N, dtype=dtype)
    a, b = host.sym_ends
    np.add.at(out, a, host.edge(k, dtype) * w[b])
    return out


def _group(keys: np.ndarray, vals: np.ndarray) -> tuple:
    """Distinct keys, sorted, and the sum of the nonnegative ``vals`` over
    each: one sort of the packed ``key * top + value``, or an argsort where
    that would pass int64 or the values are Python ints."""
    if vals.dtype != object:
        top = int(vals.max(initial=0)) + 1
        if (int(keys.max(initial=0)) + 1) * top < 2**63:
            packed = np.sort(keys * top + vals)
            keys = packed // top
            return run_sums(keys, packed - keys * top)
    order = np.argsort(keys)
    return run_sums(keys[order], vals[order])


def _hom(host: Host, q: int, edges: tuple, dtype) -> int:
    """Homomorphism count of a connected quotient, weighted by M^k per edge
    and L^k per loop entry.

    Each quotient vertex x carries a vector w[x] over host vertices (None
    for all ones) and each quotient edge x < y a ``_Factor``.  A leaf folds
    into its neighbour's vector; a complete quotient of M^k factors closes
    over the host's cliques; a degree-2 vertex becomes a factor over the
    walks through it, which ``_group`` sums per pair, multiplied into any
    factor already on that pair.  Between two equal M^k factors the walk
    factor is symmetric: it is built from each unordered pair of entries of
    a run of ``sym`` once, with its diagonal the vector of M^2k folded
    against w[x], and kept in that form while squared, met with another
    symmetric factor or summed last (twice its pairs plus its diagonal);
    it is mirrored into both orientations only for a later walk or fold.
    The last factor is summed against its two end vectors.  Any other core
    of minimum degree 3 raises NotImplementedError.
    """
    N = host.N
    w: list = [None] * q
    fac = {}
    for x, y, k in edges:
        if x == y:
            w[x] = host.lv.astype(dtype) ** k
        else:
            fac[x, y] = _Factor(host.sym, host.edge(k, dtype), k)
    alive = set(range(q))
    while len(alive) > 2:
        nbrs: dict[int, list[int]] = {x: [] for x in alive}
        for x, y in fac:
            nbrs[x].append(y)
            nbrs[y].append(x)
        x = min(alive, key=lambda v: (len(nbrs[v]), v))
        if len(nbrs[x]) == 1:
            y = nbrs[x][0]
            f = fac.pop((min(x, y), max(x, y)))
            if f.k is not None:
                folded = _fold(host, f.k, w[x], dtype)
            else:
                xs, ys, vals = _oriented(host, f, x < y)
                folded = np.zeros(N, dtype=dtype)
                np.add.at(folded, ys, vals if w[x] is None else vals * w[x][xs])
            w[y] = folded if w[y] is None else w[y] * folded
            alive.remove(x)
            continue
        if len(fac) == math.comb(len(alive), 2) and all(f.k is not None for f in fac.values()):
            return _close_clique(host, sorted(alive), fac, w, dtype)
        if len(nbrs[x]) > 2:
            raise NotImplementedError(f"no rule counts homomorphisms of the core {sorted(fac)}")
        x = min(
            (v for v in alive if len(nbrs[v]) == 2),
            key=lambda v: math.prod(fac[min(v, y), max(v, y)].codes.size for y in nbrs[v]),
        )
        y, z = sorted(nbrs[x])
        xy, xz = fac.pop((min(x, y), max(x, y))), fac.pop((min(x, z), max(x, z)))
        if xy.k is not None and xy.k == xz.k:
            # each pair of entries (a, b), (a, c) of a run of sym once, b < c
            a1, b = host.sym_ends
            c, v1, v2 = b, xy.vals, xy.vals
            i, j = range_pairs(np.arange(1, a1.size + 1), np.cumsum(np.bincount(a1, minlength=N))[a1])
            diag = _fold(host, 2 * xy.k, w[x], dtype)
        else:
            a1, b, v1 = _oriented(host, xy, x < y)
            a2, c, v2 = _oriented(host, xz, x < z)
            if x > z and xz.k is None and xz.diag is None:
                order = np.argsort(a2)
                a2, c, v2 = a2[order], c[order], v2[order]
            # each entry (a1, b) meets every entry of the run a2 == a1
            per = np.bincount(a2, minlength=N)
            ends = np.cumsum(per)
            i, j = range_pairs((ends - per)[a1], ends[a1])
            diag = None
        vals = v1[i] * v2[j]
        if w[x] is not None:
            vals = vals * w[x][a1[i]]
        codes, summed = _group(b[i] * N + c[j], vals)
        alive.remove(x)
        # each other bare vertex between y and z under the same M^k factors
        # would give the same walk factor: multiply it in once more instead
        if w[x] is None and xy.k is not None and xz.k is not None:
            walk, walk_diag = summed, diag
            for v in [v for v in alive if sorted(nbrs[v]) == [y, z] and w[v] is None]:
                if (fac[min(v, y), max(v, y)].k, fac[min(v, z), max(v, z)].k) == (xy.k, xz.k):
                    del fac[min(v, y), max(v, y)], fac[min(v, z), max(v, z)]
                    alive.remove(v)
                    summed = summed * walk
                    diag = None if diag is None else diag * walk_diag
        new = _Factor(codes, summed, None, diag)
        if (y, z) in fac:
            old = fac[y, z]
            if diag is not None and (old.k is not None or old.diag is not None):
                # both symmetric: meet on the pairs b < c (M's diagonal is zero)
                diag = diag * old.diag if old.diag is not None else np.zeros_like(diag)
                old_codes, old_vals = old.codes, old.vals
            else:
                (codes, summed), (old_codes, old_vals) = _both_ways(host, new), _both_ways(host, old)
                diag = None
            codes, i1, i2 = np.intersect1d(codes, old_codes, assume_unique=True, return_indices=True)
            new = _Factor(codes, summed[i1] * old_vals[i2], None, diag)
        fac[y, z] = new
    if len(alive) == 1:
        return int(w[alive.pop()].sum())
    ((x, y), f), = fac.items()
    if f.diag is not None and w[x] is None and w[y] is None:
        return 2 * int(f.vals.sum()) + int(f.diag.sum())
    xs, ys, vals = _oriented(host, f, True)
    for v, side in ((x, xs), (y, ys)):
        if w[v] is not None:
            vals = vals * w[v][side]
    return int(vals.sum())


def _close_clique(host: Host, verts: list, fac: dict, w: list, dtype) -> int:
    """Sum over the q! ways to lay the complete quotient on each host
    q-clique, computing each distinct layout (the exponent on each pair of
    positions, the vertex weight at each position) once."""
    at, mult, _ = host.cliques(len(verts))
    layouts: Counter = Counter()
    for perm in permutations(range(len(verts))):
        pos = dict(zip(verts, perm))
        exps = tuple(sorted((*sorted((pos[x], pos[y])), f.k) for (x, y), f in fac.items()))
        layouts[exps, tuple(sorted((pos[x], x) for x in verts if w[x] is not None))] += 1
    total = 0
    for (exps, weights), times in layouts.items():
        factors = [mult[i, j].astype(dtype, copy=False) ** k for i, j, k in exps]
        term = functools.reduce(np.multiply, factors + [w[x][at[p]] for p, x in weights])
        total += times * int(term.sum())
    return total


def _count(host: Host, name: str) -> int:
    divisor, n_edges, basis = _spasm(name, host.kind)
    # summing outward from the root of a spanning tree of a quotient bounds
    # every partial sum of its homomorphism count by n * max(degree)^E
    dtype = object if host.n * host.max_degree**n_edges >= 2**63 else np.int64
    total = sum(coef * _hom(host, q, edges, dtype) for coef, q, edges in basis)
    copies, rest = divmod(total, divisor)
    assert rest == 0
    return copies


def count_pattern(g: Graph | Host, pattern: str) -> int:
    """Copies in g of the builtin shape named ``pattern``."""
    return count_patterns(g, [pattern])[0]


def count_patterns(g: Graph | Host, patterns: list[str]) -> tuple[int, ...]:
    """Copies in g of each named builtin shape of g's kind, counted on g's
    ``Host`` arrays (a graph value is read into a ``Host`` first); an
    unknown name (or a pattern graph) raises ``ValueError``."""
    if not isinstance(g, Host):
        g = Host(g.n, np.fromiter(g.edge_seq, dtype=np.int64, count=2 * g.m), g.kind)
    return tuple(_count(g, p) for p in patterns)


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
        fields = dataclasses.fields(ExperimentConfig)
        unknown = sorted(set(data) - {f.name for f in fields} - {"resolved_m"})
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(unknown)}")
        missing = [f.name for f in fields if f.default is dataclasses.MISSING and f.name not in data]
        if missing:
            raise ValueError(f"missing config keys: {', '.join(missing)}")
        return ExperimentConfig(**{k: v for k, v in data.items() if k != "resolved_m"})


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
    """Run one experiment and count several patterns on the shared hosts.

    The ``_spasm`` bases are built first, so an unknown pattern is refused
    before any host is sampled; only a fork-started pool inherits them.
    """
    start_time = time.monotonic()
    for pat in patterns:
        _spasm(pat, config.kind())
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
