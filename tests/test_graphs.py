import math
import os
import pickle
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from itertools import combinations, permutations, product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphcensus import graphs as G
from graphcensus import oracle as O
from graphcensus.models import derive_rng, sample_uniform_multigraph, sample_uniform_simple


def test_density_examples():
    assert G.density(G.cycle_multi(3)) == 1
    assert G.density(G.Multigraph(0)) == 0
    assert G.density(G.complete_simple(4)) == Fraction(3, 2)


def test_essential_density_examples():
    tri_pendant = G.SimpleGraph(4, [(1, 2), (2, 3), (1, 3), (3, 4)])
    d, witness = G.essential_density(tri_pendant)
    assert d == 1 and witness.vertices == frozenset({1, 2, 3})
    d, witness = G.essential_density(G.complete_simple(4))
    assert d == Fraction(3, 2) and witness.vertices == frozenset({1, 2, 3, 4})
    two_edges = G.SimpleGraph(4, [(1, 2), (3, 4)])
    d, witness = G.essential_density(two_edges)
    assert d == Fraction(1, 2) and len(witness.vertices) == 2
    with pytest.raises(ValueError):
        G.essential_density(G.Multigraph(0))


def test_balance_classes():
    assert G.balance_class(G.cycle_simple(4)) == G.BalanceClass.STRICTLY_BALANCED
    tri_pendant = G.SimpleGraph(4, [(1, 2), (2, 3), (1, 3), (3, 4)])
    assert G.balance_class(tri_pendant) == G.BalanceClass.BARELY_BALANCED
    tri_isolated = G.SimpleGraph(4, [(1, 2), (2, 3), (1, 3)])
    assert G.balance_class(tri_isolated) == G.BalanceClass.UNBALANCED
    for length in (1, 2, 3, 4, 5):
        assert G.balance_class(G.cycle_multi(length)) == G.BalanceClass.STRICTLY_BALANCED
    for k in (2, 3, 4, 5):
        assert G.balance_class(G.path_multi(k)) == G.BalanceClass.STRICTLY_BALANCED
        assert G.balance_class(G.star_multi(k - 1)) == G.BalanceClass.STRICTLY_BALANCED


def test_essential_density_vs_balance():
    rng = derive_rng(17, 0)
    for _ in range(60):
        n = int(rng.integers(1, 6))
        m = int(rng.integers(0, 7))
        g = sample_uniform_multigraph(n, m, rng).to_graph()
        d_star, _ = G.essential_density(g)
        assert d_star >= G.density(g)
        balanced = G.balance_class(g) != G.BalanceClass.UNBALANCED
        assert (d_star == G.density(g)) == balanced


def test_isomorphism_examples():
    assert G.is_isomorphic(G.Multigraph(2, (1, 2)), G.Multigraph(2, (2, 1)))
    assert not G.is_isomorphic(G.loop(), G.Multigraph(2, (1, 2)))
    a = G.Multigraph(3, (1, 2, 2, 3, 3, 1))
    b = G.Multigraph(3, (2, 1, 3, 2, 1, 3))
    assert G.is_isomorphic(a, b)
    with pytest.raises(TypeError):
        G.is_isomorphic(G.loop(), G.edge_simple())
    # WL-identical but non-isomorphic pair
    c6 = G.cycle_multi(6)
    two_triangles = G.Multigraph(6, (1, 2, 2, 3, 3, 1, 4, 5, 5, 6, 6, 4))
    assert not G.is_isomorphic(c6, two_triangles)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 7), st.integers(0, 8), st.randoms(use_true_random=False))
def test_isomorphism_invariant_under_relabeling(n, m, rnd):
    seq = [rnd.randint(1, n) for _ in range(2 * m)]
    g = G.Multigraph(n, seq)
    perm = list(range(1, n + 1))
    rnd.shuffle(perm)
    relabeled = G.Multigraph(n, [perm[v - 1] for v in seq])
    assert G.is_isomorphic(g, relabeled)


def test_canonical_copies_examples():
    assert O.canonical_copies(G.edge_multi()) == 2
    assert O.canonical_copies(G.loop()) == 1
    assert O.canonical_copies(G.double_edge()) == 4
    assert O.canonical_copies(G.cycle_multi(3)) == 48
    assert O.canonical_copies(G.path_multi(3)) == 24
    with pytest.raises(G.SizeCapError):
        O.canonical_copies(G.path_multi(7))


def test_aut_count_examples():
    assert G.aut_count(G.cycle_multi(3)) == 6
    assert G.aut_count(G.double_edge()) == 4
    assert G.aut_count(G.loop()) == 2
    assert G.aut_count(G.cycle_simple(3)) == 6
    assert G.aut_count(G.cycle_simple(4)) == 8
    assert G.aut_count(G.star_multi(3)) == 6


def test_orbit_stabilizer_invariant():
    shapes = [
        G.loop(),
        G.edge_multi(),
        G.double_edge(),
        G.path_multi(3),
        G.cycle_multi(3),
        G.star_multi(3),
        G.Multigraph(1, (1, 1, 1, 1)),  # two loops on one vertex
        G.Multigraph(2, (1, 2, 1, 2, 1, 1)),  # double edge plus loop
        G.Multigraph(3, (1, 2, 1, 2, 2, 3)),
        G.cycle_multi(4),
    ]
    for f in shapes:
        if f.n > 4 or f.m > 4:
            continue
        assert O.canonical_copies(f) * G.aut_count(f) == O.group_order(f), f
    # simple graphs: canonical copies * aut = n!
    for f in [G.edge_simple(), G.path_simple(3), G.cycle_simple(3), G.cycle_simple(4)]:
        assert O.canonical_copies(f) * G.aut_count(f) == math.factorial(f.n)


def test_subgraph_count_examples():
    assert G.subgraph_count(G.complete_simple(4), G.cycle_simple(3)) == 4
    assert G.subgraph_count(G.double_edge(), G.edge_multi()) == 2
    assert G.subgraph_count(G.cycle_simple(5), G.path_simple(3)) == 5
    with pytest.raises(G.SizeCapError):
        G.subgraph_count(G.complete_simple(9), G.complete_simple(9))


def test_subgraph_count_vs_naive_exhaustive_small():
    patterns = [G.loop(), G.edge_multi(), G.double_edge(), G.path_multi(3), G.cycle_multi(3)]
    for n in (1, 2, 3):
        for m in range(0, 4):
            for host in O.enumerate_multigraphs(n, m):
                for f in patterns:
                    assert G.subgraph_count(host, f) == O.naive_subgraph_count(host, f)


def test_subgraph_count_vs_naive_sampled_4_4():
    rng = derive_rng(23, 0)
    patterns = [
        G.loop(),
        G.edge_multi(),
        G.double_edge(),
        G.path_multi(3),
        G.cycle_multi(3),
        G.cycle_multi(4),
        G.star_multi(3),
    ]
    for _ in range(120):
        host = sample_uniform_multigraph(4, 4, rng).to_graph()
        for f in patterns:
            assert G.subgraph_count(host, f) == O.naive_subgraph_count(host, f), (host, f)


def test_subgraph_copies_match_counts():
    rng = derive_rng(29, 0)
    for _ in range(60):
        host = sample_uniform_multigraph(int(rng.integers(2, 5)), int(rng.integers(0, 6)), rng).to_graph()
        for f in [G.edge_multi(), G.path_multi(3), G.cycle_multi(3)]:
            assert len(G.subgraph_copies(host, f)) == G.subgraph_count(host, f)
    rng = derive_rng(29, 1)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        host = sample_uniform_simple(n, int(rng.integers(0, math.comb(n, 2) + 1)), rng).to_graph()
        for f in [G.edge_simple(), G.path_simple(3), G.cycle_simple(3)]:
            assert len(G.subgraph_copies(host, f)) == O.naive_subgraph_count(host, f), (host, f)


def test_pair_family_edge():
    members = G.pair_family(G.edge_multi())
    assert sorted((g.n, g.m) for g in members) == [(2, 2), (3, 2)]


def test_pair_family_density_lemma():
    for f in [G.cycle_multi(3), G.cycle_multi(4), G.cycle_multi(5), G.double_edge(), G.loop()]:
        base = G.density(f)
        members = G.pair_family(f)
        assert members
        assert all(G.density(h) > base for h in members)


def test_pair_family_rejects_disconnected():
    disconnected = G.Multigraph(3, (1, 2))
    with pytest.raises(ValueError):
        G.pair_family(disconnected)


def test_graph_json_round_trip():
    for g in [G.cycle_multi(3), G.double_edge(), G.cycle_simple(4), G.SimpleGraph(3, [])]:
        back = G.graph_from_json(G.graph_to_json(g))
        assert back == g
        # run_many pickles graphs across processes
        back = pickle.loads(pickle.dumps(g))
        assert back == g and back.kind == g.kind
    multi, simple = G.Multigraph(2, (1, 2)), G.SimpleGraph(2, [(1, 2)])
    assert multi != simple
    G.aut_count.cache_clear()
    assert G.aut_count(multi) == G.aut_count(simple) == 2
    assert G.aut_count.cache_info().currsize == 2  # equal values, separate entries


def test_immutability():
    g = G.cycle_multi(3)
    with pytest.raises(AttributeError):
        g.n = 5
    s = G.cycle_simple(3)
    with pytest.raises(AttributeError):
        s.edges = frozenset()


def test_reimport_releases_old_module():
    # a module-level alias cached outside the module (as typing.Union[...]
    # is) would keep every re-imported graphs module and its classes alive
    code = "\n".join([
        "import gc, sys, weakref",
        "import graphcensus.graphs",
        "old = weakref.ref(graphcensus.graphs.Multigraph)",
        "for _ in range(3):",
        "    for name in [n for n in sys.modules if n.split('.')[0] == 'graphcensus']:",
        "        del sys.modules[name]",
        "    import graphcensus.graphs",
        "gc.collect()",
        "assert old() is None, 'an old Multigraph class is still alive'",
    ])
    src = str(Path(G.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("n, ends, kind", [
    (3, [0, 1], "multigraph"),  # label 0
    (3, [1, 4], "multigraph"),  # label n + 1
    (3, [1, 2, 3], "multigraph"),  # odd length
    (3, [0, 1], "simple"),
    (3, [1, 4], "simple"),
    (3, [1, 2, 3], "simple"),
    (3, [1, 2, 2, 2], "simple"),  # a loop
    (3, [1, 2, 3, 1, 2, 1], "simple"),  # the pair (1, 2) twice
    (3, [1, 2], "tree"),
    (-1, [], "multigraph"),
])
def test_host_refuses_what_the_graph_constructors_refuse(n, ends, kind):
    with pytest.raises(ValueError):
        G.Host(n, ends, kind)


def test_host_reads_back_as_its_graph():
    multi = G.Host(3, [1, 2, 2, 1, 3, 3, 1, 2])
    assert multi.m == 4 and multi.degrees() == (3, 3, 2)
    assert multi.edge_seq == (1, 2, 2, 1, 3, 3, 1, 2)
    assert multi.to_graph() == G.Multigraph(3, (1, 2, 2, 1, 3, 3, 1, 2))
    simple = G.Host(4, [3, 1, 2, 3], "simple")
    assert simple.edges == {(1, 3), (2, 3)} and simple.degrees() == (1, 1, 2, 0)
    assert simple.to_graph() == G.SimpleGraph(4, [(1, 3), (2, 3)])
    with pytest.raises(AttributeError):
        multi.edges
    with pytest.raises(AttributeError):
        simple.edge_seq
    with pytest.raises(ValueError):
        multi.ends[0] = 2  # the ends are read-only


def test_host_on_a_huge_label_range_stays_small():
    # nothing of size n is built until a count asks for it
    ends = [1, 10**12, 5, 5, 10**12, 7]
    tracemalloc.start()
    try:
        host = G.Host(10**12, ends, "multigraph")
        assert host.edge_seq == tuple(ends) and host.m == 3
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak


@pytest.mark.parametrize("n, ends", [
    (4, [1, 1, 2, 2, 3, 3, 3, 3]),  # loops only: no non-loop pair
    (7, [1, 2, 1, 3, 1, 3, 4, 1, 1, 5, 6, 1, 1, 7, 1, 7, 1, 7, 2, 3, 5, 5]),  # a hub
    (6, []),
    (2, [1, 2] * 40),  # 40 parallel edges: 40^12 needs more than 53 bits
])
@pytest.mark.parametrize("dtype", [np.int64, object])
def test_power_sum_is_exact(n, ends, dtype):
    host = G.Host(n, ends)
    mult = host.to_graph().pair_multiplicities()
    for k in (1, 2, 12):
        if dtype is np.int64 and host.max_degree**k >= 2**63:
            continue
        want = [0] * (n + 1)
        for (a, b), c in mult.items():
            if a != b:
                want[a] += c**k
                want[b] += c**k
        got = host.power_sum(k, dtype)
        assert got.dtype == np.dtype(dtype) and got.tolist() == want
        assert all(type(x) is int for x in got.tolist())


def test_glue_covers_every_identification_and_reuse():
    unions = list(G.glue(G.edge_multi(), G.edge_multi()))
    # disjoint, one shared end (2 x 2 ways), both ends in either order with 0 or 1 edge reused
    assert sorted((g.n, g.m) for g in unions) == [(2, 1), (2, 1), (2, 2), (2, 2), (3, 2), (3, 2), (3, 2), (3, 2), (4, 2)]
    assert G.edge_multi() in unions
    simple = list(G.glue(G.edge_simple(), G.edge_simple()))
    assert sorted((g.n, g.m) for g in simple) == [(2, 1), (2, 1), (3, 2), (3, 2), (3, 2), (3, 2), (4, 2)]
    assert list(G.glue(G.cycle_multi(3), G.loop(), n_max=3, m_max=3)) == []
    with pytest.raises(TypeError):
        list(G.glue(G.loop(), G.edge_simple()))


def _relabeled(g, perm):
    return tuple(sorted((min(perm[u - 1], perm[v - 1]), max(perm[u - 1], perm[v - 1]), c)
                        for (u, v), c in g.pair_multiplicities().items()))


def test_canonical_form_and_automorphisms_match_brute_force():
    # reference: every vertex permutation of every small graph
    graphs = [G.Multigraph(n, seq) for n in range(0, 5) for m in range(0, 4 if n < 4 else 3)
              for seq in product(range(1, n + 1), repeat=2 * m)]
    graphs += [G.SimpleGraph(5, chosen) for m in (4, 5) for chosen in combinations(combinations(range(1, 6), 2), m)]
    forms: dict = {}
    for g in graphs:
        perms = list(permutations(range(1, g.n + 1)))
        images = [_relabeled(g, perm) for perm in perms]
        assert G.vertex_automorphisms(g) == images.count(_relabeled(g, range(1, g.n + 1))), g
        forms.setdefault((g.kind, g.n, min(images)), set()).add(G.canonical_form(g))
    assert all(len(found) == 1 for found in forms.values())
    for kind in ("multigraph", "simple"):
        keys = [next(iter(found)) for (k, _, _), found in forms.items() if k == kind]
        assert len(set(keys)) == len(keys)
    c6 = G.cycle_multi(6)
    two_triangles = G.Multigraph(6, (1, 2, 2, 3, 3, 1, 4, 5, 5, 6, 6, 4))
    assert G.canonical_form(c6) != G.canonical_form(two_triangles)
