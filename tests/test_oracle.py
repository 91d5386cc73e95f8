import math
from fractions import Fraction

import pytest

from graphcensus import graphs as G
from graphcensus import oracle as O
from graphcensus.models import WeightSpec
from graphcensus.series import TruncatedSeries, class_egf


def test_enumeration_counts():
    assert len(list(O.enumerate_multigraphs(2, 1))) == 4
    assert len(list(O.enumerate_multigraphs(1, 2))) == 1
    assert len(list(O.enumerate_multigraphs(3, 2))) == 81
    assert len(list(O.enumerate_simple(3, 3))) == 1
    assert len(list(O.enumerate_simple(4, 2))) == 15
    assert len(list(O.enumerate_simple(3, 0))) == 1


def test_enumeration_caps():
    with pytest.raises(G.SizeCapError):
        list(O.enumerate_multigraphs(10, 5))


def test_oracle_distribution_examples():
    dist = O.oracle_distribution(2, 1, G.loop())
    assert dist.by_t == {0: Fraction(2), 1: Fraction(2)}
    assert O.oracle_distribution(2, 1, G.edge_multi()).distinguished_total == 2
    weighted = O.oracle_distribution(2, 1, G.edge_multi(), delta=WeightSpec.finite([1, 1]))
    assert weighted.total == 2


def test_oracle_family_matches_census():
    from graphcensus.census import distinguished

    family = [G.loop(), G.edge_multi()]
    dist = O.oracle_distribution(3, 2, family)
    assert dist.total == 3**4
    assert dist.distinguished_total == distinguished(3, 2, family)


def test_oracle_rejects_isomorphic_family_members():
    with pytest.raises(ValueError, match="non-isomorphic"):
        O.oracle_distribution(2, 1, [G.edge_multi(), G.Multigraph(2, (2, 1))])


def test_oracle_totals_match_closed_forms():
    for n in (1, 2, 3):
        for m in range(0, 4):
            dist = O.oracle_distribution(n, m, G.loop())
            assert dist.total == n ** (2 * m)
    for n in (2, 3, 4):
        for m in range(0, 4):
            if m > math.comb(n, 2):
                continue
            dist = O.oracle_distribution(n, m, G.edge_simple(), kind="simple")
            assert dist.total == math.comb(math.comb(n, 2), m)


def test_weighted_total_equals_series_power():
    from graphcensus.census import total

    for spec in (WeightSpec.finite([1, 1]), WeightSpec.finite([1, 0, 1]), WeightSpec.finite([1, 1, 1, 1])):
        for n in (1, 2, 3):
            for m in range(0, 4):
                dist = O.oracle_distribution(n, m, G.loop(), delta=spec)
                assert dist.total == total(n, m, delta=spec)


def test_multigraphs_to_graphs_transfer():
    for n in (1, 2, 3, 4):
        for m in range(0, 4):
            loopless = sum(
                1
                for h in O.enumerate_multigraphs(n, m)
                if h.loop_count() == 0
                and all(k == 1 for k in h.pair_multiplicities().values())
            )
            simple = math.comb(math.comb(n, 2), m)
            assert loopless == 2**m * math.factorial(m) * simple


def test_patchwork_series_edge():
    ps = O.patchwork_series(G.edge_multi(), 3, 2)
    assert ps.series.extract({"u": 0, "z": 0, "w": 0}) == 1
    # one-piece slice is the family EGF
    assert ps.series.extract({"u": 1, "z": 2, "w": 1}) == Fraction(1, 2)
    # two copies covering a path-shaped host
    assert ps.series.extract({"u": 2, "z": 3, "w": 2}) == Fraction(24, 6 * 4 * 2)


def test_patchwork_u1_slice_is_family_egf():
    for f in (G.edge_multi(), G.loop(), G.path_multi(3)):
        ps = O.patchwork_series(f, 3, 3)
        assert ps.series.extract({"u": 1, "z": f.n, "w": f.m}) == class_egf(
            f, 3, 3
        ).extract({"z": f.n, "w": f.m})


def test_patchwork_no_double_cover_of_c3():
    ps = O.patchwork_series(G.cycle_multi(3), 3, 3)
    assert ps.series.extract({"u": 2, "z": 3, "w": 3}) == 0
    assert ps.series.extract({"u": 1, "z": 3, "w": 3}) == Fraction(1, 6)


def test_disjoint_patchworks_equal_exp():
    for f, caps in ((G.edge_multi(), (4, 2)), (G.loop(), (3, 3))):
        dis = O.patchwork_series(f, caps[0], caps[1], disjoint_only=True)
        u = TruncatedSeries.monomial({"u": 1}, 1, {"u": dis.series.caps[0]})
        expected = (u * class_egf(f, caps[0], caps[1])).exp()
        for k in range(0, dis.series.caps[0] + 1):
            for n in range(0, caps[0] + 1):
                for m in range(0, caps[1] + 1):
                    assert dis.series.extract({"u": k, "z": n, "w": m}) == expected.extract(
                        {"u": k, "z": n, "w": m}
                    )


def test_patchwork_cache_keys_on_the_normalised_call():
    loop = G.loop()
    O.patchwork_series.cache_clear()
    first = O.patchwork_series(loop, 3, 2)
    assert O.patchwork_series(loop, 3, 2, kind="multigraph") is first
    assert O.patchwork_series(loop, n_max=3, m_max=2, kind="multigraph") is first
    info = O.patchwork_series.cache_info()
    assert (info.misses, info.hits) == (1, 2)
    with pytest.raises(ValueError):
        O.patchwork_series(loop, 3, 2, kind="simple")


def test_patchwork_caps_enforced():
    with pytest.raises(G.SizeCapError):
        O.patchwork_series(G.edge_multi(), 6, 5)


def test_simple_patchworks():
    ps = O.patchwork_series(G.edge_simple(), 3, 3, kind="simple")
    # the triangle host is covered by its 3 edges: one 3-piece patchwork
    assert ps.series.extract({"u": 3, "z": 3, "w": 3}) == Fraction(1, 6)
    assert ps.series.extract({"u": 1, "z": 2, "w": 1}) == Fraction(1, 2)


def test_naive_vs_engine_simple():
    from graphcensus.models import derive_rng, sample_uniform_simple

    rng = derive_rng(37, 0)
    for _ in range(40):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(0, math.comb(n, 2) + 1))
        host = sample_uniform_simple(n, m, rng).to_graph()
        for f in (G.edge_simple(), G.path_simple(3), G.cycle_simple(3)):
            assert G.subgraph_count(host, f) == O.naive_subgraph_count(host, f)
