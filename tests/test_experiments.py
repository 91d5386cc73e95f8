import dataclasses
import json
import math

import pytest

from graphcensus import experiments as E
from graphcensus import graphs as G
from graphcensus import oracle as O
from graphcensus.experiments import ExperimentConfig
from graphcensus.models import derive_rng, sample_uniform_multigraph, sample_uniform_simple
from graphcensus.specialfuncs import poisson_pmf


MULTI_NAMES = ["loop", "edge", "double-edge", "p3", "p4", "k13", "c3", "c4", "c5", "c6", "c7", "c8"]
SIMPLE_NAMES = ["edge", "p3", "p4", "k13", "c3", "c4", "c5", "c6", "c7", "c8"]


def _multigraph_with_hub(rng) -> G.Multigraph:
    """A small uniform multigraph plus a hub, vertex 1, with parallel edges."""
    n = int(rng.integers(2, 8))
    seq = list(sample_uniform_multigraph(n, int(rng.integers(0, 8)), rng).edge_seq)
    for _ in range(int(rng.integers(0, 5))):
        seq += [1, int(rng.integers(2, n + 1))] * int(rng.integers(1, 4))
    return G.Multigraph(n, seq)


def _simple_with_hub(rng) -> G.SimpleGraph:
    """A small uniform simple graph plus a hub, vertex 1, joined to a random set."""
    n = int(rng.integers(3, 9))
    g = sample_uniform_simple(n, int(rng.integers(0, math.comb(n, 2) + 1)), rng)
    spokes = [(1, v) for v in range(2, n + 1) if rng.random() < 0.7]
    return G.SimpleGraph(n, list(g.edges) + spokes)


def test_counters_match_generic_engine():
    rng = derive_rng(11, 0)
    for _ in range(80):
        g = _multigraph_with_hub(rng)
        expected = tuple(G.subgraph_count(g, G.shape(p, "multigraph")) for p in MULTI_NAMES)
        assert E.count_patterns(g, MULTI_NAMES) == expected, g


def test_simple_counters_match_engine():
    rng = derive_rng(13, 0)
    names = SIMPLE_NAMES + ["k4"]
    for _ in range(60):
        g = _simple_with_hub(rng)
        expected = tuple(G.subgraph_count(g, G.shape(p, "simple")) for p in names)
        assert E.count_patterns(g, names) == expected, g
        assert E.count_pattern(g, "edge") == g.m


def test_every_builtin_shape_is_counted_without_subgraph_count(monkeypatch):
    def refuse(*args):
        raise AssertionError("experiments called subgraph_count")

    monkeypatch.setattr(E, "subgraph_count", refuse)
    rng = derive_rng(19, 0)
    hosts = []
    for _ in range(12):
        # loop classes and parallel classes of 3 or more on a hub multigraph
        g = _multigraph_with_hub(rng)
        seq = list(g.edge_seq)
        for _ in range(int(rng.integers(1, 4))):
            a, b = (int(v) for v in rng.integers(1, g.n + 1, size=2))
            seq += [a, b] * int(rng.integers(3, 6))
        hosts.append(G.Multigraph(g.n, seq))
    for n in (4, 5, 6, 7, 7, 8, 8):
        # dense simple hosts, which hold 4-cliques
        hosts.append(sample_uniform_simple(n, int(rng.integers(math.comb(n, 2) * 2 // 3, math.comb(n, 2) + 1)), rng))
    hosts.append(G.Multigraph(8, sample_uniform_multigraph(8, 40, rng).edge_seq))
    assert any(G.subgraph_count(g, G.complete_simple(4)) for g in hosts if g.kind == "simple")
    classes = [(a == b, k) for g in hosts if g.kind == "multigraph" for (a, b), k in g.pair_multiplicities().items()]
    assert any(loop and k >= 3 for loop, k in classes) and any(not loop and k >= 3 for loop, k in classes)
    for g in hosts:
        names = sorted(G._MULTI_SHAPES if g.kind == "multigraph" else G._SIMPLE_SHAPES)
        expected = tuple(G.subgraph_count(g, G.shape(p, g.kind)) for p in names)
        assert E.count_patterns(g, names) == expected, g


def test_pattern_graphs_are_refused():
    g = sample_uniform_multigraph(6, 9, derive_rng(23, 0))
    with pytest.raises(ValueError):
        E.count_pattern(g, G.cycle_multi(3))
    with pytest.raises(ValueError):
        E.count_patterns(sample_uniform_simple(6, 9, derive_rng(23, 1)), ["c3", G.cycle_simple(3)])


def test_unhandled_core_raises():
    # the wheel on 5 vertices has minimum degree 3 and is not complete
    g = sample_uniform_simple(8, 20, derive_rng(29, 0))
    wheel = tuple((0, y, 1) for y in range(1, 5)) + ((1, 2, 1), (2, 3, 1), (3, 4, 1), (1, 4, 1))
    with pytest.raises(NotImplementedError):
        E._hom(E._Host(g), 5, wheel, object)


def test_counters_match_naive_oracle():
    rng = derive_rng(17, 0)
    for _ in range(6):
        g = G.Multigraph(4, sample_uniform_multigraph(4, 6, rng).edge_seq + (1, 2, 1, 2, 1, 3))
        for p in MULTI_NAMES:
            f = G.shape(p, "multigraph")
            if f.n <= g.n:
                assert E.count_pattern(g, p) == O.naive_subgraph_count(g, f), (g, p)
        h = _simple_with_hub(rng)
        for p in ("p3", "p4", "k13", "c3", "c4", "c5", "k4"):
            assert E.count_pattern(h, p) == O.naive_subgraph_count(h, G.shape(p, "simple")), (h, p)


def test_simple_c6_is_a_shape():
    g = sample_uniform_simple(20, 30, derive_rng(5, 0))
    assert E.count_pattern(g, "c6") == G.subgraph_count(g, G.cycle_simple(6))
    with pytest.raises(ValueError):
        E.count_pattern(g, "loop")


def test_counts_are_exact_past_float_precision():
    # a star centre with pair multiplicities whose product needs 51 bits:
    # float power sums round the e3 formula, the copy count is the product
    k = (262147, 131071, 65537)
    g = G.Multigraph(4, [1, 2] * k[0] + [1, 3] * k[1] + [1, 4] * k[2])
    assert E.count_pattern(g, "k13") == k[0] * k[1] * k[2]
    assert E.count_pattern(g, "p3") == k[0] * k[1] + k[0] * k[2] + k[1] * k[2]
    # a heavy 4-cycle whose count passes 2^63, so int64 sums would wrap
    k = (65537, 65539, 65543, 65551)
    g = G.Multigraph(4, [1, 2] * k[0] + [2, 3] * k[1] + [3, 4] * k[2] + [4, 1] * k[3])
    assert E.count_pattern(g, "c4") == k[0] * k[1] * k[2] * k[3] > 2**63


def test_tv_distance():
    assert E.tv_distance({0: 1.0}, {0: 1.0}) == 0
    assert E.tv_distance({0: 1.0}, {1: 1.0}) == 1
    p = {t: poisson_pmf(1.0, t) for t in range(21)}
    assert E.tv_distance(p, ("poisson", 1.0)) < 1e-9
    assert 0 <= E.tv_distance({0: 0.5, 1: 0.5}, ("poisson", 0.3)) <= 1


def test_scaling_fit():
    slope, se = E.scaling_fit([1000, 10000], [5.0 * 1000, 5.0 * 10000])
    assert abs(slope - 1.0) < 1e-12 and se == 0.0
    slope, _ = E.scaling_fit([10, 100, 1000], [7.0, 7.0, 7.0])
    assert abs(slope) < 1e-12
    slope, _ = E.scaling_fit([10, 100], [2 * 10 ** (4 / 3), 2 * 100 ** (4 / 3)])
    assert abs(slope - 4 / 3) < 1e-12
    slope, se = E.scaling_fit([10, 100], [1.0, -1.0])
    assert math.isnan(slope)
    with pytest.raises(ValueError):
        E.scaling_fit([10], [1.0])


def test_median_of_means():
    assert E.median_of_means([1, 2, 3, 4], 2) == 2.5
    assert E.median_of_means(list(range(16)), 16) == 7.5
    # buckets of 3, 3 and 4 values: the last value is used
    assert E.median_of_means(range(1, 11), 3) == 5.0
    assert E.median_of_means(list(range(1, 10)) + [-1000], 3) == 2.0
    assert E.median_of_means(range(1, 11), 4) == (4 + 6.5) / 2


def test_trivial_pmf():
    cfg = ExperimentConfig(model="uniform-multi", n=1, m=2, pattern="loop", replicates=50, seed=5)
    rep = E.run(cfg)
    assert rep.empirical_pmf == {2: 1.0}
    assert rep.empirical_mean == 2.0


def test_law_of_large_numbers_smoke():
    cfg = ExperimentConfig(
        model="uniform-multi", n=2, m=1, pattern="edge", replicates=100_000, seed=77, workers=1
    )
    rep = E.run(cfg)
    assert abs(rep.empirical_mean - 0.5) <= 3 * rep.stderr


def test_determinism_across_workers():
    cfg = ExperimentConfig(
        model="uniform-multi", n=30, m=20, pattern="c3", replicates=64, seed=9, workers=1
    )
    reports = [E.run(cfg), E.run(dataclasses.replace(cfg, workers=2))]
    dumps = []
    for rep in reports:
        data = rep.to_json(include_runtime=False)
        del data["config"]["workers"]  # the one field that differs by design
        dumps.append(json.dumps(data, sort_keys=True))
    assert dumps[0] == dumps[1]


def test_power_law_determinism_across_workers():
    # each worker builds its own degree table and convolution tables; the
    # hosts must not depend on which worker drew them
    cfg = ExperimentConfig(
        model="configuration", n=300, m=292, pattern="c3", replicates=24, seed=9,
        delta="powerlaw:2.5", workers=1,
    )
    dumps = []
    for workers in (1, 2):
        data = E.run(dataclasses.replace(cfg, workers=workers)).to_json(include_runtime=False)
        del data["config"]["workers"]  # the one field that differs by design
        dumps.append(json.dumps(data, sort_keys=True))
    assert dumps[0] == dumps[1]


@pytest.mark.parametrize(
    "n, m, delta, replicates",
    [
        (4, 6, "finite:1,1,1,1", 200),  # 2m/n = 3 on the boundary of the support
        (30, 20, "finite:1,1,1,1", 200),
        (1000, 974, "powerlaw:2.5", 6),  # 2m/n just above the x = 1 mean degree
    ],
)
def test_delta_and_configuration_models_draw_alike(n, m, delta, replicates):
    # both models tune the same table and condition it on 2m by one sampler
    patterns = ["loop", "double-edge", "c3"]
    reports = [
        E.run_many(
            ExperimentConfig(model=model, n=n, m=m, delta=delta, pattern=patterns,
                             replicates=replicates, seed=17, workers=1),
            patterns,
        )
        for model in ("delta", "configuration")
    ]
    for pattern in patterns:
        assert reports[0][pattern].empirical_pmf == reports[1][pattern].empirical_pmf, pattern


def test_workers_env_caps_config(monkeypatch):
    cfg = ExperimentConfig(
        model="uniform-multi", n=30, m=20, pattern="c3", replicates=8, seed=9, workers=2
    )
    monkeypatch.delenv("WORKERS", raising=False)
    assert E._resolve_workers(cfg) == 2
    monkeypatch.setenv("WORKERS", "1")
    assert E._resolve_workers(cfg) == 1
    monkeypatch.setenv("WORKERS", "8")
    assert E._resolve_workers(cfg) == 2


@pytest.mark.parametrize("value", ["two", "0", "-1", "1.5"])
def test_workers_env_must_be_positive_integer(monkeypatch, value):
    monkeypatch.setenv("WORKERS", value)
    cfg = ExperimentConfig(model="uniform-multi", n=2, m=1, pattern="edge", replicates=4, seed=1)
    with pytest.raises(ValueError, match="WORKERS"):
        E.run(cfg)


def test_config_rejects_unknown_keys():
    data = {"model": "uniform-multi", "n": 10, "m": 5, "pattern": "loop", "replicates": 3, "seed": 1}
    assert ExperimentConfig.from_json(data).replicates == 3
    with pytest.raises(ValueError, match="replicats"):
        ExperimentConfig.from_json({**data, "replicats": 99})
    with pytest.raises(ValueError, match="statistic"):
        ExperimentConfig.from_json({**data, "statistic": "median"})


def test_run_refuses_to_drop_patterns():
    cfg = ExperimentConfig(model="uniform-multi", n=10, m=5, pattern=["loop", "c3"], replicates=3, seed=1, workers=1)
    with pytest.raises(ValueError, match=r"\['c3'\] would be dropped; use run_many"):
        E.run(cfg)
    with pytest.raises(ValueError, match="run_many"):
        E.sweep(dataclasses.replace(cfg, m=None, m_rule={"c": 0.5, "alpha": 1.0}), [10, 20])
    one = E.run(dataclasses.replace(cfg, pattern=["c3"]))
    assert one.pattern == "c3"
    assert one.empirical_pmf == E.run_many(cfg, ["loop", "c3"])["c3"].empirical_pmf


def test_config_takes_m_or_m_rule_not_both():
    with pytest.raises(ValueError, match="m_rule"):
        ExperimentConfig(model="uniform-multi", n=10, m=5, m_rule={"c": 0.5, "alpha": 1.0},
                         pattern="loop", replicates=1, seed=1)


def test_m_rule_rounding():
    cfg = ExperimentConfig(
        model="uniform-multi", n=100, m_rule={"c": 0.5, "alpha": 1.0},
        pattern="loop", replicates=1, seed=1,
    )
    assert cfg.resolved_m() == 50
    cfg = ExperimentConfig(
        model="uniform-multi", n=10, m_rule={"c": 0.25, "alpha": 1.5},
        pattern="loop", replicates=1, seed=1,
    )
    assert cfg.resolved_m() == round(0.25 * 10**1.5)


def test_predictor_wiring_and_report_fields():
    cfg = ExperimentConfig(
        model="delta", n=40, m=30, pattern="c3", replicates=64, seed=3,
        delta={"kind": "finite", "coeffs": ["1", "1", "1", "1"]},
        predictor={"theorem": "cycles-finite", "l": 3, "n": 40, "m": 30},
    )
    rep = E.run(cfg)
    assert rep.predicted_mean is not None
    assert rep.tv_distance is not None and 0 <= rep.tv_distance <= 1
    data = rep.to_json()
    assert data["config"]["resolved_m"] == 30
    assert "runtime_seconds" in data


def test_sweep_and_csv():
    cfg = ExperimentConfig(
        model="uniform-multi", n=10, m_rule={"c": 0.5, "alpha": 1.0},
        pattern="loop", replicates=200, seed=4, workers=1,
    )
    reports = E.sweep(cfg, [10, 20])
    csv_text = E.sweep_csv(reports)
    lines = csv_text.strip().split("\n")
    assert lines[0].startswith("n,m,replicates")
    assert len(lines) == 3
    assert lines[1].split(",")[0] == "10"
    with pytest.raises(ValueError):
        E.sweep(ExperimentConfig(model="uniform-multi", n=10, m=5, pattern="loop", replicates=1, seed=1), [10])


def test_two_sample_chi_square_null():
    rng = derive_rng(1, 1)
    a = {i: int(x) for i, x in enumerate(rng.multinomial(20000, [0.2, 0.3, 0.5]))}
    b = {i: int(x) for i, x in enumerate(rng.multinomial(20000, [0.2, 0.3, 0.5]))}
    stat, df, pvalue = E.two_sample_chi_square(a, b)
    assert df == 2 and pvalue > 0.001
    c = {i: int(x) for i, x in enumerate(rng.multinomial(20000, [0.5, 0.3, 0.2]))}
    _, _, pvalue = E.two_sample_chi_square(a, c)
    assert pvalue < 1e-6


def test_config_round_trip():
    cfg = ExperimentConfig(
        model="delta", n=50, m=40, pattern="c3", replicates=10, seed=2,
        delta={"kind": "exp"},
    )
    again = ExperimentConfig.from_json(cfg.to_json())
    assert again.n == 50 and again.delta.kind == "exp"
    assert again.resolved_m() == 40
