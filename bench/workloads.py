"""The four workloads: set-up, one operation, and the checks of its result.

A workload object is built from the imported program (``prog``, a namespace
holding its modules) and the seed; building it is the workload's set-up.
Every call into the program goes through ``prog.<module>.<name>``, so the
traced run can wrap those names.  ``op(i)`` is the timed operation; the
checks run outside it.
"""

from __future__ import annotations

import random

import numpy as np

import checks

# Kept hosts per run for the scipy recount (the first ones measured).
RECOUNT_HOSTS = 8


class MonteCarlo:
    """One op is one replicate: derive_rng(seed, r), the sampler, count_patterns.

    This is the per-replicate seeding of ``experiments.run_many`` with one
    worker.  Measured ops use r = 1, 2, ...
    """

    name = ""
    one_pass = False
    setup_every = 0  # ops between repeated set-ups, about 7 in a 25 s run
    n = m = 0
    patterns: tuple[str, ...] = ()
    min_degree = max_degree = None
    simple = False

    def __init__(self, prog, seed: int):
        self.prog = prog
        self.seed = seed
        self.kept: list[tuple] = []
        self.prepare()

    def prepare(self):
        raise NotImplementedError

    def sample(self, rng):
        raise NotImplementedError

    def op(self, i: int):
        rng = self.prog.models.derive_rng(self.seed, i + 1)
        host = self.sample(rng)
        counts = self.prog.experiments.count_patterns(host, list(self.patterns))
        return host, counts

    def edge_arrays(self, host):
        if self.simple:
            pairs = np.array(list(host.edges), dtype=np.int64).reshape(-1, 2)
            return pairs[:, 0], pairs[:, 1]
        seq = np.array(host.edge_seq, dtype=np.int64)
        return seq[0::2], seq[1::2]

    def check(self, i: int, result) -> list[str]:
        host, counts = result
        u, v = self.edge_arrays(host)
        errors = checks.host_errors(host.n, u, v, self.n, self.m, self.min_degree, self.max_degree, self.simple)
        if len(counts) != len(self.patterns) or any(not isinstance(c, int) or c < 0 for c in counts):
            errors.append(f"counts {counts!r} are not one nonnegative integer per pattern")
        if not errors and len(self.kept) < RECOUNT_HOSTS:
            self.kept.append((i, host.n, u, v, dict(zip(self.patterns, counts))))
        return errors

    def recount(self, n, u, v, patterns):
        fn = checks.recount_simple if self.simple else checks.recount_multigraph
        return fn(n, u, v, patterns)

    def final_errors(self) -> dict[int, list[str]]:
        """Recount every pattern on the kept hosts with scipy.sparse."""
        out = {}
        for i, n, u, v, counts in self.kept:
            errors = checks.count_errors(counts, self.recount(n, u, v, list(counts)))
            if errors:
                out[i] = errors
        return out

    def self_test(self) -> list[str]:
        if not self.kept:
            return ["no checked host to build the self-test from"]
        _, n, u, v, counts = self.kept[0]
        rules = (self.n, self.m, self.min_degree, self.max_degree, self.simple)
        return checks.self_test(host=(n, u, v), counts=counts, recount=self.recount, host_rules=rules)

    def pattern_calls(self, tracer, result) -> list[str]:
        """Traced run only: time each pattern alone with count_pattern."""
        host, counts = result
        errors = []
        for p, want in zip(self.patterns, counts):
            got = tracer.call(f"experiments.count.{p}", self.prog.experiments.count_pattern, host, p)
            if got != want:
                errors.append(f"count_pattern({p}) = {got} but count_patterns gave {want}")
        return errors


class McCubic(MonteCarlo):
    """Degree-weighted multigraphs, cubic weights, on the multinomial path."""

    name = "mc-cubic"
    setup_every = 700
    n, m = 3000, 2250
    patterns = ("c3", "p3", "k13")
    max_degree = 3

    def prepare(self):
        prog = self.prog
        self.config = prog.experiments.ExperimentConfig(
            model="delta", n=self.n, m=self.m, delta="finite:1,1,1,1",
            pattern=list(self.patterns), replicates=1, seed=self.seed, workers=1,
        )
        if not prog.models.feasible_degree_sum(self.config.delta, self.n, 2 * self.m):
            raise ValueError("cubic weights cannot reach degree sum 2m")
        # one host from replicate 0 fills the sampler's tuning and degree-table
        # memos, so the solve_tuning cost lands in set-up and not in the first op
        self.sample(prog.models.derive_rng(self.seed, 0))

    def sample(self, rng):
        return self.prog.models.sample_delta_multigraph(self.n, self.m, self.config.delta, rng)


class McPowerlaw(MonteCarlo):
    """Configuration model with power-law degrees, conditioned on m by rejection.

    m = round(n zeta(1.5) / (2 zeta(2.5))), the mean degree at x = 1.
    """

    name = "mc-powerlaw"
    setup_every = 140
    n, m = 1000, 974
    patterns = ("c3",)
    min_degree = 1

    def prepare(self):
        prog = self.prog
        self.config = prog.experiments.ExperimentConfig(
            model="configuration", n=self.n, m=self.m, delta="powerlaw:2.5",
            pattern=list(self.patterns), replicates=1, seed=self.seed, workers=1,
        )
        if not prog.models.feasible_degree_sum(self.config.delta, self.n, 2 * self.m):
            raise ValueError("power-law degrees cannot reach degree sum 2m")
        # experiments uses x = 1 for the power law
        self.pi = prog.models.DegreeDistribution.from_weight_spec(self.config.delta, 1.0)

    def sample(self, rng):
        return self.prog.models.sample_configuration(self.n, self.pi, rng, m=self.m)


class McFallback(MonteCarlo):
    """Uniform simple graphs; p4 and c4 go through the generic subgraph_count."""

    name = "mc-fallback"
    setup_every = 25
    n, m = 2000, 2000
    patterns = ("c3", "p4", "c4")
    simple = True

    def prepare(self):
        self.config = self.prog.experiments.ExperimentConfig(
            model="uniform-simple", n=self.n, m=self.m,
            pattern=list(self.patterns), replicates=1, seed=self.seed, workers=1,
        )

    def sample(self, rng):
        return self.prog.models.sample_uniform_simple(self.n, self.m, rng)


# exact-census query list: (kind, pattern, n, m)
_MG_SIZES = [(4, 3), (6, 5), (8, 8), (10, 10), (12, 12), (16, 12), (20, 20), (24, 18),
             (30, 30), (36, 30), (40, 40), (50, 40), (60, 60), (70, 70), (80, 60), (80, 80)]
_SG_SIZES = [(6, 5), (8, 8), (10, 10), (12, 10), (15, 15), (20, 20), (25, 20), (30, 30),
             (35, 30), (35, 35), (40, 40)]
_CUBIC_SIZES = [(6, 4), (8, 6), (12, 9), (16, 12), (20, 15), (28, 21), (40, 30),
                (52, 39), (60, 45), (64, 48), (68, 51), (72, 54), (76, 57), (80, 60)]
_SLICE_SIZES = {
    "loop": [(2, 1), (2, 2), (3, 1), (3, 2), (3, 3), (4, 2), (4, 3), (5, 2), (5, 3)],
    "c3": [(3, 3), (4, 3), (5, 3)],
}
CUBIC = [1, 1, 1, 1]

QUERIES = (
    [("mg", p, n, m) for p in ("loop", "edge", "double-edge", "p3", "c3") for n, m in _MG_SIZES]
    + [("sg", p, n, m) for p in ("edge", "p3", "c3", "c4") for n, m in _SG_SIZES]
    + [("cubic", "c3", n, m) for n, m in _CUBIC_SIZES]
    + [("slices", p, n, m) for p, sizes in _SLICE_SIZES.items() for n, m in sizes]
)


class ExactCensus:
    """A fixed list of distinct exact queries, each asked once per run.

    The seed shuffles the order.  Answers are checked against closed forms,
    a degree-sequence dynamic program and brute-force enumeration.
    """

    name = "exact-census"
    one_pass = True
    setup_every = 19  # 7 repeated set-ups in the pass of 150 queries

    def __init__(self, prog, seed: int):
        self.prog = prog
        self.queries = list(QUERIES)
        random.Random(seed).shuffle(self.queries)
        self.multi = {p: prog.graphs.shape(p, "multigraph") for p in ("loop", "edge", "double-edge", "p3", "c3")}
        self.simple = {p: prog.graphs.shape(p, "simple") for p in ("edge", "p3", "c3", "c4")}
        self.cubic = prog.models.WeightSpec.finite(CUBIC)
        self.samples: dict[str, tuple] = {}

    def op(self, i: int):
        kind, p, n, m = self.queries[i]
        census = self.prog.census
        if kind == "mg":
            return census.expected_count(n, m, self.multi[p])
        if kind == "sg":
            return census.expected_count(n, m, self.simple[p], kind="simple")
        if kind == "cubic":
            return census.expected_count(n, m, self.multi[p], delta=self.cubic)
        return [census.count_with_exactly_t(n, m, self.multi[p], t) for t in range(checks.slice_bound(p, m) + 1)]

    def check(self, i: int, answer) -> list[str]:
        kind, p, n, m = self.queries[i]
        if kind == "slices":
            expectation = checks.uniform_multigraph_expectation(p, n, m)
            brute = checks.brute_force_slices(p, n, m)
            errors = checks.slice_errors(n, m, answer, expectation) + checks.brute_errors(answer, brute)
            want = (n, m, expectation, brute)
        else:
            if kind == "mg":
                want = checks.uniform_multigraph_expectation(p, n, m)
            elif kind == "sg":
                want = checks.uniform_simple_expectation(p, n, m)
            else:
                want = checks.weighted_c3_expectation(CUBIC, n, m)
            errors = checks.value_errors(answer, want)
        if not errors:
            self.samples.setdefault(kind, (kind if kind == "slices" else f"{kind} {p}", answer, want))
        return errors

    def final_errors(self) -> dict[int, list[str]]:
        return {}

    def self_test(self) -> list[str]:
        missing = {"mg", "sg", "cubic", "slices"} - set(self.samples)
        if missing:
            return [f"no checked {k} query to build the self-test from" for k in sorted(missing)]
        return checks.self_test(exact=list(self.samples.values()))


WORKLOADS = {w.name: w for w in (McCubic, McPowerlaw, McFallback, ExactCensus)}
