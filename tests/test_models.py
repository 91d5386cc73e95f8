import dataclasses
import hashlib
import itertools
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from graphcensus import experiments as E
from graphcensus import graphs as G
from graphcensus import models as M
from graphcensus import oracle as O
from graphcensus.models import (
    DegreeDistribution,
    WeightSpec,
    derive_rng,
    feasible_degree_sum,
    sample_configuration,
    sample_delta_multigraph,
    sample_uniform_multigraph,
    sample_uniform_simple,
    solve_tuning,
)
from graphcensus.specialfuncs import chi_square_survival, zeta

CUBIC = WeightSpec.finite([1, 1, 1, 1])


def test_weight_spec_exact_coefficients():
    assert CUBIC.delta(2) == 1 and CUBIC.delta(5) == 0
    assert WeightSpec.exponential().delta(7) == 1
    assert WeightSpec.cosh().delta(3) == 0 and WeightSpec.cosh().delta(4) == 1
    s1 = WeightSpec.sinh_plus_one()
    assert s1.delta(0) == 1 and s1.delta(2) == 0 and s1.delta(5) == 1
    with pytest.raises(ValueError):
        WeightSpec.power_law(2.5).delta(3)


def test_weight_spec_json_round_trip():
    for spec in (CUBIC, WeightSpec.exponential(), WeightSpec.power_law(2.5)):
        again = WeightSpec.from_json(spec.to_json())
        assert again.kind == spec.kind and again.coeffs == spec.coeffs
    assert WeightSpec.from_json("finite:1,1,1/2").coeffs == (1, 1, Fraction(1, 2))
    assert WeightSpec.from_json("powerlaw:2.5").beta == 2.5


def test_weight_spec_is_a_value():
    same = WeightSpec("finite", coeffs=["1", 1, Fraction(1)])
    assert same.coeffs == (1, 1, 1) and all(type(c) is Fraction for c in same.coeffs)
    assert same == WeightSpec.finite([1, 1, 1]) and hash(same) == hash(WeightSpec.finite([1, 1, 1]))
    assert WeightSpec.power_law(2.5) == WeightSpec.from_json("powerlaw:2.5")
    assert WeightSpec.power_law(2.5) != WeightSpec.power_law(3.0)
    assert len({WeightSpec.cosh(), WeightSpec.cosh(), WeightSpec.exponential()}) == 2
    with pytest.raises(dataclasses.FrozenInstanceError):
        CUBIC.kind = "exp"
    with pytest.raises(ValueError):
        WeightSpec.finite([0, 0])


def test_finite_derivatives():
    assert abs(CUBIC.value(2.0, 0) - (1 + 2 + 2 + 8 / 6)) < 1e-12
    assert abs(CUBIC.value(2.0, 1) - (1 + 2 + 2)) < 1e-12
    assert abs(CUBIC.value(2.0, 2) - 3.0) < 1e-12
    assert abs(CUBIC.value(2.0, 3) - 1.0) < 1e-12
    assert CUBIC.value(2.0, 4) == 0.0


def test_power_law_evaluation():
    pl = WeightSpec.power_law(2.5)
    assert abs(pl.value(1.0, 0) - zeta(2.5)) < 1e-9
    assert abs(pl.value(1.0, 1) - zeta(1.5)) < 1e-9
    direct = sum(d**-2.5 * 0.99**d for d in range(1, 100000))
    assert abs(pl.value(0.99, 0) - direct) < 1e-9
    with pytest.raises(ValueError):
        pl.value(1.5, 0)


def test_solve_tuning_examples():
    assert abs(solve_tuning(WeightSpec.exponential(), 0.7) - 0.7) < 1e-12
    assert abs(solve_tuning(WeightSpec.finite([1, 1]), Fraction(1, 2)) - 1.0) < 1e-10
    assert solve_tuning(WeightSpec.power_law(2.5), zeta(1.5) / zeta(2.5)) == 1.0
    with pytest.raises(ValueError):
        solve_tuning(WeightSpec.finite([1, 1]), 2.0)


def test_solve_tuning_residual_invariant():
    cases = [
        (WeightSpec.exponential(), 1.7),
        (CUBIC, 1.5),
        (CUBIC, 0.3),
        (WeightSpec.finite([1, 0, 1]), 1.2),
        (WeightSpec.cosh(), 1.9),
        (WeightSpec.power_law(2.5), 1.3),
    ]
    for spec, target in cases:
        x = solve_tuning(spec, target)
        assert abs(spec.mean_ratio(x) - target) <= 1e-10 * target, (spec.to_json(), target)


def test_degree_distribution_pmfs():
    dd = DegreeDistribution.from_weight_spec(WeightSpec.finite([1, 1]), 1.0)
    assert np.allclose(dd.probs, [0.5, 0.5])
    de = DegreeDistribution.from_weight_spec(WeightSpec.exponential(), 2.0)
    assert abs(de.probs[0] - math.exp(-2)) < 1e-12
    assert abs(de.probs[3] - math.exp(-2) * 8 / 6) < 1e-12
    dp = DegreeDistribution.from_weight_spec(WeightSpec.power_law(2.5), 1.0)
    assert abs(dp.probs[1] - 1 / zeta(2.5)) < 1e-12
    assert 0 < dp.tail_mass < 1e-6


def test_boltzmann_degree_mean_matches_tuned_ratio():
    chi = solve_tuning(CUBIC, Fraction(3, 2))
    dist = DegreeDistribution.from_weight_spec(CUBIC, chi)
    draws = dist.sample(derive_rng(31, 0), 1_000_000)
    se = draws.std() / math.sqrt(len(draws))
    assert abs(draws.mean() - 1.5) <= 3 * se


def test_power_law_tail_sampler():
    import numpy as np

    dp = DegreeDistribution.from_weight_spec(WeightSpec.power_law(2.2), 1.0, table_cap=64)
    draws = dp.sample(derive_rng(41, 0), 200_000)
    assert (draws[draws > 64]).size > 400  # the tail fires at this low cap
    # tail law proportional to d^-beta: compare bucket masses at scale
    rng = derive_rng(99, 0)
    tail = np.array([dp._sample_tail(rng) for _ in range(20_000)])
    assert tail.min() > 64
    low = ((tail >= 65) & (tail < 75)).sum()
    high = ((tail >= 130) & (tail < 140)).sum()
    expected = sum(d**-2.2 for d in range(65, 75)) / sum(d**-2.2 for d in range(130, 140))
    assert high > 200
    assert abs(low / high / expected - 1) < 0.2


def test_feasibility():
    assert feasible_degree_sum(CUBIC, 3, 4)
    assert not feasible_degree_sum(WeightSpec.finite([0, 0, 0, 1, 1]), 1, 1)
    assert feasible_degree_sum(WeightSpec.finite([0, 0, 0, 1, 1]), 2, 7)
    assert not feasible_degree_sum(WeightSpec.finite([0, 0, 0, 1, 1]), 2, 5)
    assert feasible_degree_sum(WeightSpec.finite([1, 0, 0, 1, 1]), 5, 7)
    assert feasible_degree_sum(WeightSpec.cosh(), 3, 4)
    assert not feasible_degree_sum(WeightSpec.cosh(), 3, 5)
    assert feasible_degree_sum(WeightSpec.sinh_plus_one(), 3, 4)
    assert feasible_degree_sum(WeightSpec.power_law(2.5), 3, 5)
    assert not feasible_degree_sum(WeightSpec.power_law(2.5), 3, 2)
    n = 10**6  # the table of fewest parts stays below p^2 whatever n and the total
    assert feasible_degree_sum(CUBIC, n, 3 * n // 2)
    two_or_five = WeightSpec.finite([0, 0, 1, 0, 0, 1])  # sums 2n + 3k, 0 <= k <= n
    assert feasible_degree_sum(two_or_five, n, 2 * n + 3 * (n - 1))
    assert not feasible_degree_sum(two_or_five, n, 5 * n - 1)
    assert not feasible_degree_sum(two_or_five, n, 5 * n + 3)
    with pytest.raises(ValueError):
        # support {0, 3} cannot produce a degree sum of 2
        sample_delta_multigraph(2, 1, WeightSpec.finite([1, 0, 0, 1]), derive_rng(0, 0))


def test_feasibility_matches_enumeration():
    # every support within {0..6}, up to five vertices, every total
    for bits in range(1, 1 << 7):
        spec = WeightSpec.finite([bits >> d & 1 for d in range(7)])
        support = [d for d in range(7) if bits >> d & 1]
        sums = {0}
        for n in range(1, 6):
            sums = {s + d for s in sums for d in support}
            for total in range(-1, 6 * n + 3):
                assert feasible_degree_sum(spec, n, total) == (total in sums), (support, n, total)


def test_uniform_multigraph_loop_frequency():
    rng = derive_rng(43, 0)
    loops = 0
    reps = 100_000
    seqs = rng.integers(1, 3, size=(reps, 2))
    loops = int((seqs[:, 0] == seqs[:, 1]).sum())
    se = math.sqrt(0.25 / reps)
    assert abs(loops / reps - 0.5) <= 3 * se
    g = sample_uniform_multigraph(1, 3, derive_rng(43, 1))
    assert g.edge_seq == (1, 1, 1, 1, 1, 1)
    assert sample_uniform_multigraph(4, 0, derive_rng(43, 2)).m == 0


def test_uniform_simple_uniformity():
    counts = Counter()
    reps = 30_000
    rng = derive_rng(47, 0)
    for _ in range(reps):
        g = sample_uniform_simple(4, 1, rng)
        counts[next(iter(g.edges))] += 1
    assert len(counts) == 6
    se = math.sqrt((1 / 6) * (5 / 6) / reps)
    for edge, cnt in counts.items():
        assert abs(cnt / reps - 1 / 6) <= 4 * se, (edge, cnt)
    full = sample_uniform_simple(5, 10, derive_rng(47, 1))
    assert full.m == 10
    with pytest.raises(ValueError):
        sample_uniform_simple(3, 5, derive_rng(47, 2))


@pytest.mark.parametrize("n, m, reps", [(4, 2, 6_000), (5, 3, 12_000)])
def test_uniform_simple_subset_law(n, m, reps):
    # every m-subset of the C(n,2) pairs, 400 and 100 expected draws each;
    # the p-value floor is fixed before any stream is drawn
    subsets = list(itertools.combinations(itertools.combinations(range(1, n + 1), 2), m))
    counts = Counter(sample_uniform_simple(n, m, derive_rng(53, r)).edges for r in range(reps))
    assert set(counts) == set(map(frozenset, subsets))
    expected = reps / len(subsets)
    stat = sum((c - expected) ** 2 / expected for c in counts.values())
    assert chi_square_survival(stat, len(subsets) - 1) > 1e-4, stat


class _FixedCodes:
    """An rng stand-in whose m-subset of pair ranks is given."""

    def __init__(self, codes):
        self.codes = np.array(codes, dtype=np.int64)

    def choice(self, total, size, replace, shuffle):
        assert size == self.codes.size and not replace and self.codes.max(initial=-1) < total
        return self.codes


def test_uniform_simple_small_sizes_and_row_boundaries():
    for n, m in ((0, 0), (1, 0), (2, 0)):
        g = sample_uniform_simple(n, m, derive_rng(59, n))
        assert (g.n, g.m) == (n, 0)
    assert sample_uniform_simple(2, 1, derive_rng(59, 3)).edges == {(1, 2)}
    for n, m in ((0, 1), (1, 1), (2, 2)):
        with pytest.raises(ValueError, match="too many edges"):
            sample_uniform_simple(n, m, derive_rng(59, 4))
    with pytest.raises(ValueError, match="int64"):
        sample_uniform_simple(2**32, 1, derive_rng(59, 5))
    # pair (u, v), 0 <= u < v < n, has rank v(v-1)/2 + u; check the first and
    # last rank of rows near where 8c + 1 passes 2^53 and past row 2^27,
    # where the float root of the last rank lands in the next row
    for n in (3, 10, 1000, 10**5, 10**8, 2**31):
        rows = {v for v in (1, 2, n // 2, 47_453_133, 2**27 + 1, n - 2, n - 1) if 1 <= v < n}
        pairs = [(u, v) for v in sorted(rows) for u in {0, v - 1}]
        g = sample_uniform_simple(n, len(pairs), _FixedCodes([v * (v - 1) // 2 + u for u, v in pairs]))
        assert g.edges == {(u + 1, v + 1) for u, v in pairs}, n


def test_samplers_return_hosts_equal_to_the_graphs_they_drew():
    # fixed streams, pinned: the array host reads back the same labels the
    # samplers drew as graph tuples
    pi = DegreeDistribution.from_weight_spec(CUBIC, 1.0)
    pinned = [
        (sample_uniform_multigraph(7, 5, derive_rng(3, 0)), (6, 1, 2, 2, 2, 6, 7, 5, 1, 1), (3, 3, 0, 0, 1, 2, 1)),
        (sample_delta_multigraph(7, 5, CUBIC, derive_rng(3, 0)), (5, 2, 4, 4, 2, 3, 7, 7, 3, 7), (0, 2, 2, 2, 1, 0, 3)),
        (sample_configuration(7, pi, derive_rng(3, 0)), (2, 1, 2, 5, 4, 2), (1, 3, 0, 1, 1, 0, 0)),
        (sample_configuration(7, pi, derive_rng(3, 0), m=5), (1, 2, 3, 4, 4, 1, 4, 5, 2, 2), (2, 3, 1, 3, 1, 0, 0)),
    ]
    for host, seq, degrees in pinned:
        assert isinstance(host, G.Host) and host.kind == "multigraph"
        assert (host.edge_seq, host.degrees(), host.m) == (seq, degrees, len(seq) // 2)
        assert host.to_graph() == G.Multigraph(7, seq)
    host = sample_uniform_simple(7, 5, derive_rng(3, 0))
    edges = {(1, 3), (1, 4), (2, 4), (4, 6), (6, 7)}
    assert isinstance(host, G.Host) and host.kind == "simple"
    assert (host.edges, host.degrees(), host.m) == (edges, (2, 1, 1, 3, 0, 2, 1), 5)
    assert host.to_graph() == G.SimpleGraph(7, edges)


def _host_law(n, m, spec):
    total = Fraction(0)
    law = {}
    for h in O.enumerate_multigraphs(n, m):
        w = Fraction(1)
        for d in h.degrees():
            w *= spec.delta(d)
        if w:
            law[h.edge_seq] = w
            total += w
    return {k: v / total for k, v in law.items()}


def test_delta_sampler_law_small():
    # (2,1) and (2,2) host frequencies match the weighted law within 3 sigma
    reps = 20_000
    for n, m, spec in ((2, 1, WeightSpec.finite([1, 1])), (2, 2, CUBIC)):
        law = _host_law(n, m, spec)
        counts = Counter()
        rng = derive_rng(53, n * 10 + m)
        for _ in range(reps):
            counts[sample_delta_multigraph(n, m, spec, rng).edge_seq] += 1
        assert set(counts) <= set(law)
        for key, p in law.items():
            se = math.sqrt(float(p) * (1 - float(p)) / reps)
            assert abs(counts.get(key, 0) / reps - float(p)) <= 3.5 * se, (n, m, key)


def test_delta_sampler_regular_forced():
    # monomial weights force a 1-regular multigraph on two vertices
    seen = set()
    rng = derive_rng(59, 0)
    for _ in range(200):
        g = sample_delta_multigraph(2, 1, WeightSpec.finite([0, 1]), rng)
        seen.add(g.edge_seq)
    assert seen == {(1, 2), (2, 1)}


def test_delta_exponential_is_uniform():
    counts = Counter()
    reps = 20_000
    rng = derive_rng(61, 0)
    for _ in range(reps):
        counts[sample_delta_multigraph(2, 1, WeightSpec.exponential(), rng).edge_seq] += 1
    for seq, cnt in counts.items():
        assert abs(cnt / reps - 0.25) < 0.02, counts


def test_configuration_equivalence_small():
    # Boltzmann-conditioned and configuration-conditioned agree in law for
    # (n,m) in {(2,1),(3,2)} and both small weight specs
    reps = 20_000
    # (3,2) needs degree 2 vertices, so 1+x only fits the (2,1) size
    cases = [
        (2, 1, WeightSpec.finite([1, 1])),
        (2, 1, WeightSpec.finite([1, 1, 1])),
        (3, 2, WeightSpec.finite([1, 1, 1])),
    ]
    for idx, (n, m, spec) in enumerate(cases):
        law = _host_law(n, m, spec)
        # the conditioned law is x-free, so any table parameter works here
        pi = DegreeDistribution.from_weight_spec(spec, 1.0)
        counts_c = Counter()
        rng = derive_rng(67, 2 * idx)
        for _ in range(reps):
            counts_c[sample_configuration(n, pi, rng, m=m).edge_seq] += 1
        counts_b = Counter()
        rng = derive_rng(67, 2 * idx + 1)
        for _ in range(reps):
            counts_b[sample_delta_multigraph(n, m, spec, rng).edge_seq] += 1
        stat, df, pvalue = E.two_sample_chi_square(counts_b, counts_c)
        assert pvalue > 0.001, (n, m, spec.to_json(), pvalue)
        for key, p in law.items():
            se = math.sqrt(float(p) * (1 - float(p)) / reps)
            assert abs(counts_c.get(key, 0) / reps - float(p)) <= 4 * se, (n, m, key)


def test_configuration_free_m():
    pi = DegreeDistribution.from_pmf([1.0])
    assert sample_configuration(3, pi, derive_rng(71, 0)).m == 0
    # Poisson(2m/n) degrees conditioned on m reproduce the uniform model
    reps = 20_000
    pi = DegreeDistribution.from_weight_spec(WeightSpec.exponential(), 1.0)
    counts = Counter()
    rng = derive_rng(71, 1)
    for _ in range(reps):
        counts[sample_configuration(2, pi, rng, m=1).edge_seq] += 1
    for seq, cnt in counts.items():
        assert abs(cnt / reps - 0.25) < 0.02


def test_conditioned_sum_infeasible_fails_fast(monkeypatch):
    def no_draws(self, rng, size):
        raise AssertionError("an infeasible sum must be refused before any draw")

    monkeypatch.setattr(DegreeDistribution, "sample", no_draws)
    pi = DegreeDistribution.from_pmf([0.0, 1.0])
    with pytest.raises(ValueError, match=r"pi\^\*3\(2m\) = 0.*no 3 degrees.*2m = 4"):
        sample_configuration(3, pi, derive_rng(73, 0), m=2)
    power = DegreeDistribution.from_weight_spec(WeightSpec.power_law(2.5), 1.0)
    with pytest.raises(ValueError, match="2m = 4"):
        sample_configuration(5, power, derive_rng(73, 1), m=2)  # five degrees >= 1 sum to >= 5


def test_free_m_odd_support_refused_before_sampling(monkeypatch):
    def no_draws(self, rng, size):
        raise AssertionError("an odd sum of odd degrees must be refused before any draw")

    monkeypatch.setattr(DegreeDistribution, "sample", no_draws)
    for n, pmf in ((3, [0.0, 1.0]), (5, [0.0, 0.5, 0.0, 0.5])):
        with pytest.raises(ValueError, match="odd"):
            sample_configuration(n, DegreeDistribution.from_pmf(pmf), derive_rng(79, n))
    monkeypatch.undo()
    assert sample_configuration(4, DegreeDistribution.from_pmf([0.0, 1.0]), derive_rng(79, 4)).m == 2


def test_free_m_rare_even_sum_refused_before_sampling(monkeypatch):
    # n degrees sum to an even number with probability (1 + b^n) / 2, where
    # b = sum_d (-1)^d pi(d); here about 3e-12, some 10^11 vectors per host
    def no_draws(self, rng, size):
        raise AssertionError("an even sum this rare must be refused before any draw")

    monkeypatch.setattr(DegreeDistribution, "sample", no_draws)
    with pytest.raises(ValueError, match=r"P\(even\) = 3(\.\d+)?e-12"):
        sample_configuration(3, DegreeDistribution.from_pmf([0.0, 1 - 1e-12, 1e-12]), derive_rng(83, 3))
    # a tail of either parity only lowers the bound: the table's b = -(1 - 1e-9)
    # less the tail mass 1e-9 leaves no room for an even sum
    tailed = DegreeDistribution(np.array([0.0, 1 - 1e-9]), tail_beta=2.5, tail_mass=1e-9)
    with pytest.raises(ValueError, match=r"P\(even\) = 0"):
        sample_configuration(3, tailed, derive_rng(83, 4))
    monkeypatch.undo()
    # P(even) about 3e-4 is rare but reachable: about 3300 vectors
    host = sample_configuration(3, DegreeDistribution.from_pmf([0.0, 1 - 1e-4, 1e-4]), derive_rng(83, 5))
    assert sum(host.degrees()) % 2 == 0 and 2 in host.degrees()


class _GeneratorSpy:
    """A generator that counts its multinomial calls, records the size of
    each random call, and passes every call on."""

    def __init__(self, rng):
        self.rng = rng
        self.multinomial_calls = 0
        self.random_sizes = []

    def multinomial(self, *args, **kwargs):
        self.multinomial_calls += 1
        return self.rng.multinomial(*args, **kwargs)

    def random(self, size=None):
        self.random_sizes.append(size)
        return self.rng.random(size)

    def __getattr__(self, name):
        return getattr(self.rng, name)


def _check_degree_law(n, m, pi, law, reps, seed):
    """Degree-vector frequencies within 3.5 sigma of ``law``; returns the multinomial calls."""
    counts = Counter()
    rng = _GeneratorSpy(derive_rng(seed, 0))
    for _ in range(reps):
        counts[sample_configuration(n, pi, rng, m=m).degrees()] += 1
    assert set(counts) <= set(law), (n, m)
    for key, p in law.items():
        se = math.sqrt(p * (1 - p) / reps)
        assert abs(counts.get(key, 0) / reps - p) <= 3.5 * se, (n, m, key, counts.get(key, 0), p * reps)
    return rng.multinomial_calls


def _finite_degree_law(spec, n, total):
    """P(d) proportional to prod_i delta_{d_i} / d_i! over vectors of n degrees summing to total."""
    weights = {}
    for vec in itertools.product(range(len(spec.coeffs)), repeat=n):
        w = math.prod(spec.delta(d) / math.factorial(d) for d in vec)
        if sum(vec) == total and w:
            weights[vec] = w
    norm = sum(weights.values())
    return {vec: float(w / norm) for vec, w in weights.items()}


@pytest.mark.parametrize("strategy, seeds", [("multinomial", (181, 191)), ("split", (193, 197))])
def test_conditioned_short_table_law_by_either_strategy(monkeypatch, strategy, seeds):
    # each strategy forced through the constant that picks it, on the same short tables
    monkeypatch.setattr(M, "_MULTINOMIAL_MAX", math.inf if strategy == "multinomial" else 0)
    for (spec, n, m), seed in zip(((CUBIC, 5, 4), (WeightSpec.finite([1, 1, 1]), 7, 5)), seeds):
        pi = DegreeDistribution.from_weight_spec(spec, 1.0)
        calls = _check_degree_law(n, m, pi, _finite_degree_law(spec, n, 2 * m), 20_000, seed)
        assert (calls > 0) == (strategy == "multinomial")


def test_short_table_with_a_tail_is_split():
    # 65 columns and pi^*5(8) of a few percent would pass the multinomial rule,
    # but multinomial counts cannot draw the tail past the cap
    pi = DegreeDistribution.from_weight_spec(WeightSpec.power_law(2.2), 1.0, table_cap=64)
    *_, mass = M._sum_tables(pi, 5, 8)
    assert len(pi.probs) <= M._MULTINOMIAL_MAX * mass and pi.tail_mass
    assert _check_degree_law(5, 4, pi, _power_law_degree_law(5, 8, 2.2), 20_000, 137) == 0


def _power_law_degree_law(n, total, beta):
    """P(d) proportional to prod_i d_i^-beta over vectors of n degrees >= 1 summing to total."""
    weights = {}
    for cuts in itertools.combinations(range(1, total), n - 1):
        bounds = (0,) + cuts + (total,)
        vec = tuple(b - a for a, b in zip(bounds, bounds[1:]))
        weights[vec] = math.prod(d**-beta for d in vec)
    norm = math.fsum(weights.values())
    return {vec: w / norm for vec, w in weights.items()}


def _force_fft(monkeypatch, fft):
    if fft:  # build every table by numpy.fft, as long tables are
        monkeypatch.setattr(M, "_DIRECT_CONVOLVE_MAX", 0)


@pytest.mark.parametrize("fft", [False, True])
def test_conditioned_power_law_degree_law_odd_sizes(monkeypatch, fft):
    # n = 5 = 4 + 1 and n = 7 = 4 + 2 + 1: the sum is split between binary blocks
    _force_fft(monkeypatch, fft)
    pi = DegreeDistribution.from_weight_spec(WeightSpec.power_law(2.5), 1.0)
    for n, m, seed in ((5, 4, 83), (7, 5, 89)):
        assert _check_degree_law(n, m, pi, _power_law_degree_law(n, 2 * m, 2.5), 20_000, seed) == 0


def test_conditioned_power_law_past_the_table_cap():
    # 2m = 70 > cap = 64: the tables need the exact tail pmf past the cap;
    # both degrees of (d, 70 - d) are a hub for some d, so the one block of
    # two vertices is split exactly, not by drawing a half iid
    pi = DegreeDistribution.from_weight_spec(WeightSpec.power_law(2.2), 1.0, table_cap=64)
    levels, peaks, _, _ = M._sum_tables(pi, 2, 70)
    assert levels[1][70] * 8 < peaks[0]  # the exact-split branch
    _check_degree_law(2, 35, pi, _power_law_degree_law(2, 70, 2.2), 20_000, 101)


@pytest.mark.parametrize("fft", [False, True])
def test_conditioned_power_law_hub_block_law(monkeypatch, fft):
    # sum 10 on a block of four vertices needs a hub, so the block is split
    # exactly, not by drawing a half iid
    _force_fft(monkeypatch, fft)
    pi = DegreeDistribution.from_weight_spec(WeightSpec.power_law(2.5), 1.0)
    levels, peaks, _, _ = M._sum_tables(pi, 4, 10)
    assert levels[2][10] * 8 < peaks[1]
    _check_degree_law(4, 5, pi, _power_law_degree_law(4, 10, 2.5), 20_000, 103)


def test_conditioned_power_law_hosts_at_n_1000():
    pi = DegreeDistribution.from_weight_spec(WeightSpec.power_law(2.5), 1.0)
    for seed in range(300):
        host = sample_configuration(1000, pi, derive_rng(seed, 0), m=974)
        degrees = host.degrees()
        assert host.m == 974 and min(degrees) >= 1 and sum(degrees) == 2 * 974


# Per host: the first 16 hex digits of sha256(host.ends) and the generator's
# next double after the host.  Recorded from the split path as it drew each
# uniform by its own call, so any change to the stream or to where it leaves
# the generator shows here.
_SPLIT_STREAM_N1000 = [  # sample_configuration(1000, power law 2.5, derive_rng(1, r), m=974), r = 1..20
    ("b9639b3ca5216bc6", "0x1.8349009604ce9p-1"), ("dedbba494cd8ad28", "0x1.c21700dad1b41p-1"),
    ("7253c258a10fbdfb", "0x1.ff5bd5f4fd184p-1"), ("2968e83c011f2139", "0x1.ca1c0907f7319p-1"),
    ("ee5f319b6a319474", "0x1.f1ae2641e8a80p-3"), ("1e677cf7e194519e", "0x1.5f09f537cabfap-2"),
    ("8a400dbf4d6925ac", "0x1.6631512badd1bp-1"), ("a988327db32166ee", "0x1.b6717f49c4906p-2"),
    ("fcd823734bea41f9", "0x1.71333aa1d85e0p-2"), ("c4095536cff54cca", "0x1.da4f6600170d4p-1"),
    ("114539006e80d4d8", "0x1.ddbd1d1fafcb5p-1"), ("4b57f46970bbcdcc", "0x1.42c17533ee096p-2"),
    ("f3360155b33a6424", "0x1.dc78f989c956ap-1"), ("4fec3e255198f9c4", "0x1.e95105a5b4ffbp-1"),
    ("00d3fef0e7a20aa2", "0x1.3561222a5ccbfp-1"), ("bc9104d30dba1d0a", "0x1.207ee4b16a103p-1"),
    ("7ebad6b07f0e5ac1", "0x1.95ab57ffd2454p-3"), ("264e743a4b79c740", "0x1.21d7e453a4681p-1"),
    ("add11a9351f55d92", "0x1.c0e4ceef0df00p-1"), ("f9b5489dda32adef", "0x1.0bd98c1e9741cp-1"),
]


def _host_pin(host, rng):
    return hashlib.sha256(host.ends.astype("<i8").tobytes()).hexdigest()[:16], rng.random().hex()


def test_split_path_stream_is_pinned():
    spec = WeightSpec.power_law(2.5)
    pi = DegreeDistribution.from_weight_spec(spec, 1.0)
    for r, want in enumerate(_SPLIT_STREAM_N1000, start=1):
        rng = derive_rng(1, r)
        assert _host_pin(sample_configuration(1000, pi, rng, m=974), rng) == want, r
    # criterion 10's larger size, through the delta sampler
    n = 10_000
    m = round(n * zeta(1.5) / (2 * zeta(2.5)))
    for r, want in ((1, ("afc29272403c390a", "0x1.67f8ad3419687p-1")), (2, ("5723dab4b7b4cdd8", "0x1.5307be9757c3cp-3"))):
        rng = derive_rng(20260809, r)
        assert _host_pin(sample_delta_multigraph(n, m, spec, rng), rng) == want, r
    # another bit generator, which makes each double from two 32-bit words
    rng = np.random.Generator(np.random.MT19937(5))
    assert _host_pin(sample_configuration(1000, pi, rng, m=974), rng) == ("55434f11db7e7e3d", "0x1.c2dde539b5ef0p-1")


def test_split_path_stream_is_pinned_past_the_read_ahead():
    # hosts that use more uniforms than the sampler reads ahead (4n), so the
    # generator is read again in mid-host: random is called for the
    # read-ahead, at least once more, and once to rewind
    pi = DegreeDistribution.from_weight_spec(WeightSpec.power_law(2.5), 1.0)
    cases = (
        (7, 5, derive_rng(2, 0), ("dcbf19de52d9e91b", "0x1.6291bc9031899p-1")),
        (37, 30, derive_rng(9, 0), ("9f24834ea52c1e18", "0x1.686e985935388p-1")),
        (1000, 974, derive_rng(1, 17), _SPLIT_STREAM_N1000[16]),
    )
    for n, m, rng, want in cases:
        spy = _GeneratorSpy(rng)
        host = sample_configuration(n, pi, spy, m=m)
        assert len(spy.random_sizes) > 2, n
        assert _host_pin(host, rng) == want, n


def test_fft_tables_match_direct_with_exact_zeros(monkeypatch):
    # FFT noise must not leave weight on sums no k degrees reach: below k * d_min,
    # and off the lattice of a support with gaps (odd degrees: k + 2Z)
    power = np.arange(1, 64.0) ** -2.5
    for pmf, n, total in (([0.0, *power / power.sum()], 7, 40), ([0.0, 0.5, 0.0, 0.5], 6, 10)):
        direct = M._sum_tables(DegreeDistribution.from_pmf(pmf), n, total)
        monkeypatch.setattr(M, "_DIRECT_CONVOLVE_MAX", 0)
        fft = M._sum_tables(DegreeDistribution.from_pmf(pmf), n, total)
        monkeypatch.undo()
        pairs = list(zip(direct[0], fft[0])) + [(a, b) for (_, a), (_, b) in zip(direct[2], fft[2])]
        for a, b in pairs:
            assert np.array_equal(a == 0, b == 0)
            assert np.abs(a - b).max() < 1e-15


def test_conditioned_sum_beyond_float_tables_refused(monkeypatch):
    def no_draws(self, rng, size):
        raise AssertionError("a sum the float tables cannot resolve must be refused before any draw")

    monkeypatch.setattr(DegreeDistribution, "sample", no_draws)
    pi = DegreeDistribution.from_weight_spec(WeightSpec.power_law(2.5), 1.0)
    # 2m = 1200 for 1000 degrees of mean 1.95: pi^*1000(1200) ~ 1e-24 sits under the FFT noise
    with pytest.raises(ValueError, match="too small for float tables"):
        sample_configuration(1000, pi, derive_rng(107, 0), m=600)
    # every degree 1: feasible, but pi(1)^10000 underflows to 0
    with pytest.raises(ValueError, match="too small for float tables"):
        sample_configuration(10_000, pi, derive_rng(107, 1), m=5000)


def test_split_of_zero_weight_is_an_error():
    # tables that give a block a sum no split reaches must not pick a split
    pmf = np.array([0.0, 1.0])
    with pytest.raises(RuntimeError, match="probability 0"):
        M._draw_split(derive_rng(109, 0), pmf, pmf, 1)


def test_power_law_delta_sampler_off_the_mean():
    # 2m/n = 1.5 tunes x < 1, whose table has 2^16 columns and no tail; it is
    # conditioned on its sum directly, not by multinomial vectors over every column
    spec = WeightSpec.power_law(2.5)
    assert not M._cached_distribution(spec, M._tuning_for_sampler(spec, 10_000, 7500)).tail_mass
    for seed in range(3):
        rng = _GeneratorSpy(derive_rng(113, seed))
        host = sample_delta_multigraph(10_000, 7500, spec, rng)
        assert host.m == 7500 and min(host.degrees()) >= 1 and rng.multinomial_calls == 0


def test_derive_rng_independence():
    a = derive_rng(5, 1).random(4)
    b = derive_rng(5, 2).random(4)
    a2 = derive_rng(5, 1).random(4)
    assert np.allclose(a, a2)
    assert not np.allclose(a, b)
