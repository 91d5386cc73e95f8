"""Acceptance gate: one test per criterion, each printing a verdict line.

Exact criteria compare rationals for equality; Monte Carlo criteria use the
stated tolerances with the session seed frozen in conftest.  Run with
``pytest -s tests/test_acceptance.py`` to see the verdict lines inline.
"""

import math
import time
from fractions import Fraction

from graphcensus import census as C
from graphcensus import experiments as E
from graphcensus import graphs as G
from graphcensus import oracle as O
from graphcensus import predictors as P
from graphcensus.models import WeightSpec
from graphcensus.series import TruncatedSeries, class_egf, lagrange_identity_check

from conftest import CUBIC

MULTI_FAMILIES = {
    "loop": G.loop(),
    "edge": G.edge_multi(),
    "double-edge": G.double_edge(),
    "p3": G.path_multi(3),
    "c3": G.cycle_multi(3),
}

SIMPLE_FAMILIES = {
    "edge": G.edge_simple(),
    "p3": G.path_simple(3),
    "c3": G.cycle_simple(3),
    "c4": G.cycle_simple(4),
}


def verdict(num: int, ok: bool, detail: str):
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_distinguished_totals_multigraph():
    start = time.monotonic()
    checked = 0
    for n in (1, 2, 3):
        for m in range(0, 4):
            for name, fam in MULTI_FAMILIES.items():
                exact = C.distinguished(n, m, fam)
                brute = O.oracle_distribution(n, m, fam).distinguished_total
                assert exact == brute, (n, m, name, exact, brute)
                checked += 1
    elapsed = time.monotonic() - start
    verdict(1, elapsed < 60, f"{checked} exact equalities over n<=3, m<=3 in {elapsed:.1f}s")


def test_criterion_02_distinguished_totals_simple():
    start = time.monotonic()
    checked = 0
    for n in (2, 3, 4, 5):
        for m in range(0, 5):
            if m > math.comb(n, 2):
                continue
            for name, fam in SIMPLE_FAMILIES.items():
                exact = C.distinguished(n, m, fam, kind="simple")
                brute = O.oracle_distribution(n, m, fam, kind="simple").distinguished_total
                assert exact == brute, (n, m, name, exact, brute)
                checked += 1
    elapsed = time.monotonic() - start
    verdict(2, elapsed < 60, f"{checked} exact equalities over n<=5, m<=4 in {elapsed:.1f}s")


def test_criterion_03_weighted_totals_and_distinguished():
    specs = [
        WeightSpec.finite([1, 1]),
        WeightSpec.finite([1, 1, 1]),
        CUBIC,
    ]
    checked = 0
    for n in (1, 2, 3):
        for m in range(0, 4):
            hosts = list(O.enumerate_multigraphs(n, m))
            counts = {
                name: [G.subgraph_count(h, fam) for h in hosts]
                for name, fam in MULTI_FAMILIES.items()
            }
            for spec in specs:
                weights = []
                for h in hosts:
                    w = Fraction(1)
                    for d in h.degrees():
                        w *= spec.delta(d)
                    weights.append(w)
                total = sum(weights, Fraction(0))
                assert C.total(n, m, delta=spec) == total, (n, m, spec.to_json())
                checked += 1
                for name, fam in MULTI_FAMILIES.items():
                    brute = sum(
                        (w * t for w, t in zip(weights, counts[name])), Fraction(0)
                    )
                    exact = C.distinguished(n, m, fam, delta=spec)
                    assert exact == brute, (n, m, spec.to_json(), name, exact, brute)
                    checked += 1
    verdict(3, True, f"{checked} exact weighted equalities (3 weight vectors, n<=3, m<=3)")


def test_criterion_04_patchwork_inclusion_exclusion():
    checked = 0
    for name in ("edge", "loop", "p3"):
        fam = MULTI_FAMILIES[name]
        for n in (1, 2, 3):
            for m in range(0, 4):
                dist = O.oracle_distribution(n, m, fam)
                top = max(dist.by_t) if dist.by_t else 0
                running = Fraction(0)
                for t in range(0, top + 1):
                    got = C.count_with_exactly_t(n, m, fam, t)
                    assert got == dist.by_t.get(t, Fraction(0)), (name, n, m, t)
                    running += got
                    checked += 1
                assert running == dist.total
    for name in ("edge", "p3"):
        fam = SIMPLE_FAMILIES[name]
        for n in (2, 3, 4):
            for m in range(0, 4):
                if m > math.comb(n, 2):
                    continue
                dist = O.oracle_distribution(n, m, fam, kind="simple")
                top = max(dist.by_t) if dist.by_t else 0
                running = Fraction(0)
                for t in range(0, top + 1):
                    got = C.count_with_exactly_t(n, m, fam, t, kind="simple")
                    assert got == dist.by_t.get(t, Fraction(0)), (name, n, m, t)
                    running += got
                    checked += 1
                assert running == dist.total
    verdict(4, True, f"{checked} exact t-slices match the full oracle distributions")


def test_criterion_05_poisson_simple_triangles(simple_triangle_run):
    rep = simple_triangle_run
    lam = 1 / 6
    mean_ok = abs(rep.empirical_mean - lam) <= 3 * rep.stderr
    tv = E.tv_distance(rep.empirical_pmf, ("poisson", lam))
    tv_ok = tv <= 0.02
    ratio = rep.empirical_variance / rep.empirical_mean
    poisson_signature = 0.9 <= ratio <= 1.1  # harness sanity invariant
    verdict(
        5,
        mean_ok and tv_ok and poisson_signature,
        f"mean={rep.empirical_mean:.4f} (3se={3*rep.stderr:.4f} around 1/6), "
        f"tv={tv:.4f}<=0.02, var/mean={ratio:.3f}",
    )


def test_criterion_06_poisson_multigraph_loops_double_edges(multi_loops_run):
    reports = multi_loops_run
    outcomes = []
    rejected = []
    for pattern, lam_iso in (("loop", 0.5), ("double-edge", 0.25)):
        rep = reports[pattern]
        mean_ok = abs(rep.empirical_mean - lam_iso) <= 3 * rep.stderr
        tv = E.tv_distance(rep.empirical_pmf, ("poisson", lam_iso))
        outcomes.append(mean_ok and tv <= 0.03)
    # convention question: the single-shape parameter c^m/(m! n!) evaluates to
    # 1/16 for the double edge (1/8 under a m!-only reading); for loops the two
    # conventions coincide at c, so the double edge is the discriminating case.
    rep = reports["double-edge"]
    for printed in (1 / 16, 1 / 8):
        z = abs(rep.empirical_mean - printed) / rep.stderr
        rejected.append(z > 5)
    survived = "iso-closed (2c)^m/aut; single-shape values rejected at >5 sigma"
    verdict(
        6,
        all(outcomes) and all(rejected),
        f"loop mean={reports['loop'].empirical_mean:.4f}~0.5, "
        f"double-edge mean={rep.empirical_mean:.4f}~0.25; surviving convention: {survived}",
    )


def test_criterion_07_finite_weight_cycles(cubic_weight_run):
    rep = cubic_weight_run["c3"]
    lam_half = P.cycle_poisson_mean_finite(3, 3000, 2250, CUBIC, norm="half").value
    lam_double = P.cycle_poisson_mean_finite(3, 3000, 2250, CUBIC, norm="double").value
    half_ok = abs(rep.empirical_mean - lam_half) <= 3 * rep.stderr
    double_fails = abs(rep.empirical_mean - lam_double) > 3 * rep.stderr
    tv = E.tv_distance(rep.empirical_pmf, ("poisson", lam_half))
    verdict(
        7,
        half_ok and double_fails and tv <= 0.05,
        f"mean={rep.empirical_mean:.4f} vs n/(2m)-normalized {lam_half:.4f} (pass) "
        f"and n/m variant {lam_double:.4f} (rejected); tv={tv:.4f}<=0.05 "
        f"-- the n/(2m) normalization survived",
    )


def test_criterion_08_finite_weight_trees(cubic_weight_run):
    shapes = {"p3": G.path_multi(3), "k13": G.star_multi(3)}
    mc_ok, details = True, []
    for pattern, shape_ in shapes.items():
        rep = cubic_weight_run[pattern]
        pred = P.weighted_expectation_predictor(shape_, 3000, 2250, CUBIC).value
        rel = abs(rep.empirical_mean - pred) / pred
        mc_ok = mc_ok and rel <= 0.05
        details.append(f"{pattern} mc rel err {rel*100:.2f}%")
    trend_ok = True
    for pattern, shape_ in shapes.items():
        ratios = {}
        for n in (8, 20):
            m = 3 * n // 4
            exact = C.expected_count(n, m, shape_, delta=CUBIC)
            pred = P.weighted_expectation_predictor(shape_, n, m, CUBIC).value
            ratios[n] = float(exact) / pred
        trend_ok = trend_ok and abs(ratios[20] - 1) <= 0.10
        trend_ok = trend_ok and abs(ratios[20] - 1) < abs(ratios[8] - 1)
        details.append(f"{pattern} exact/pred at n=8: {ratios[8]:.3f}, n=20: {ratios[20]:.3f}")
    verdict(8, mc_ok and trend_ok, "; ".join(details))


def test_criterion_09_sparse_tree_threshold():
    tree = G.path_multi(3)
    sizes = (16, 64, 256)
    at_threshold = [float(C.expected_count(n, math.isqrt(n), tree)) for n in sizes]
    slope, _ = E.scaling_fit(sizes, at_threshold)
    below = [float(C.expected_count(n, int(n**0.4), tree)) for n in sizes]
    decreasing = below[0] > below[1] > below[2]
    verdict(
        9,
        abs(slope) <= 0.15 and decreasing,
        f"threshold slope={slope:.4f} (|.|<=0.15); below-threshold values {below} decreasing",
    )


def test_criterion_10_power_law_cycles(powerlaw_runs):
    moms = {n: rep.median_of_means for n, rep in powerlaw_runs.items()}
    slope, _ = E.scaling_fit(sorted(moms), [moms[n] for n in sorted(moms)])
    slope_ok = abs(slope - 1.0) <= 0.15
    # constant check is advisory: log the ratio to the printed constant and
    # to its isomorphism-closed renormalization
    advisory = []
    for n, rep in powerlaw_runs.items():
        pred = P.power_law_cycle_prediction(2.5, 3, n)
        printed_ratio = rep.median_of_means / float(pred.value)
        iso_ratio = rep.median_of_means / (pred.extras["kappa_iso_closed"] * n)
        advisory.append(
            f"n={n}: mom/printed={printed_ratio:.2f} "
            f"({'in' if 0.5 <= printed_ratio <= 2 else 'out of'} [0.5,2], advisory), "
            f"mom/iso-closed={iso_ratio:.2f}"
        )
    verdict(
        10,
        slope_ok,
        f"binding exponent={slope:.3f} in 1+-0.15; " + "; ".join(advisory),
    )


def test_criterion_11_sampler_equivalence(sampler_equivalence_counts):
    data = sampler_equivalence_counts
    stat, df, pvalue = E.two_sample_chi_square(data["boltzmann"], data["configuration"])
    chi_ok = pvalue > 0.001
    reps = data["reps"]
    worst = 0.0
    for key, prob in data["law"].items():
        p = float(prob)
        se = math.sqrt(p * (1 - p) / reps)
        for counts in (data["boltzmann"], data["configuration"]):
            worst = max(worst, abs(counts.get(key, 0) / reps - p) / se)
    support_ok = set(data["boltzmann"]) <= set(data["law"]) and set(
        data["configuration"]
    ) <= set(data["law"])
    verdict(
        11,
        chi_ok and worst <= 3.0 and support_ok,
        f"two-sample chi2 p={pvalue:.3f}>0.001 (df={df}); worst per-host |z|={worst:.2f}<=3",
    )


def test_criterion_12_series_identities():
    import random

    rnd = random.Random(1209)
    lagrange_ok = True
    for _ in range(5):
        order = 12
        phi = TruncatedSeries(
            ("t",),
            (order + 1,),
            {
                (k,): Fraction(rnd.randint(-3, 3), rnd.randint(1, 4))
                for k in range(0, order + 1)
            },
        )
        phi = phi + TruncatedSeries.constant(
            Fraction(rnd.randint(1, 5)), ("t",), (order + 1,)
        )
        h = TruncatedSeries(
            ("t",),
            (order + 1,),
            {
                (k,): Fraction(rnd.randint(-4, 4), rnd.randint(1, 3))
                for k in range(0, order + 1)
            },
        )
        lagrange_ok = lagrange_ok and lagrange_identity_check(h, phi, order)

    disjoint_ok = True
    for fam, caps in ((G.edge_multi(), (4, 3)), (G.cycle_multi(3), (4, 4))):
        patch = O.patchwork_series(fam, *caps, disjoint_only=True)
        u = TruncatedSeries.monomial({"u": 1}, 1, {"u": patch.series.caps[0]})
        expected = (u * class_egf(fam, caps[0], caps[1])).exp()
        for k in range(0, patch.series.caps[0] + 1):
            for n in range(0, caps[0] + 1):
                for m in range(0, caps[1] + 1):
                    want = expected.extract({"u": k, "z": n, "w": m})
                    got = patch.series.extract({"u": k, "z": n, "w": m})
                    disjoint_ok = disjoint_ok and got == want

    transfer_ok = True
    for n in (1, 2, 3, 4):
        for m in range(0, 4):
            plain = sum(
                1
                for h in O.enumerate_multigraphs(n, m)
                if h.loop_count() == 0
                and all(k == 1 for k in h.pair_multiplicities().values())
            )
            simple = C.total(n, m, kind="simple") if m <= math.comb(n, 2) else 0
            transfer_ok = transfer_ok and plain == 2**m * math.factorial(m) * simple

    verdict(
        12,
        lagrange_ok and disjoint_ok and transfer_ok,
        "series-inversion identity to order 12 (5 random pairs); disjointed "
        "patchworks = exp(u F); edge-decorated counts = 2^m m! simple counts",
    )


def test_criterion_13_pair_family_density():
    ok = True
    details = []
    for name, fam in (
        ("c3", G.cycle_multi(3)),
        ("c4", G.cycle_multi(4)),
        ("c5", G.cycle_multi(5)),
        ("double-edge", G.double_edge()),
    ):
        members = G.pair_family(fam)
        base = G.density(fam)
        ok = ok and len(members) > 0
        ok = ok and all(G.density(h) > base for h in members)
        details.append(f"{name}: {len(members)} classes, all denser than {base}")
    verdict(13, ok, "; ".join(details))
