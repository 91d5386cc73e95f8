import ast
import hashlib
import importlib.util
import math
from fractions import Fraction
from pathlib import Path

import pytest

from graphcensus import census as C
from graphcensus import graphs as G
from graphcensus import oracle as O
from graphcensus.models import WeightSpec
from graphcensus.series import TruncatedSeries, family_egf

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_totals():
    assert C.total(2, 1) == 4
    assert C.total(4, 2, kind="simple") == 15
    assert C.total(3, 0) == 1


def test_mg_distinguished_examples():
    assert C.distinguished(2, 1, G.edge_multi()) == 2
    assert C.distinguished(3, 3, G.cycle_multi(3)) == 48
    assert C.distinguished(4, 4, []) == 0


def test_sg_distinguished_examples():
    assert C.distinguished(3, 3, G.cycle_simple(3), kind="simple") == 1
    assert C.distinguished(4, 3, G.cycle_simple(3), kind="simple") == 4
    assert C.distinguished(4, 4, [], kind="simple") == 0


def test_family_validation():
    with pytest.raises(ValueError):
        C.distinguished(3, 2, [G.edge_multi(), G.Multigraph(2, (2, 1))])


def test_family_of_the_wrong_kind_is_refused():
    cubic = WeightSpec.finite([1, 1, 1, 1])
    calls = [
        (lambda: C.expected_count(3, 2, G.loop(), kind="simple"), "simple"),
        (lambda: C.distinguished(3, 2, G.loop(), kind="simple"), "simple"),
        (lambda: C.distinguished(3, 2, [G.edge_simple(), G.loop()], kind="simple"), "simple"),
        (lambda: C.distinguished(3, 3, G.cycle_simple(3)), "multigraph"),
        (lambda: C.expected_count(3, 3, G.cycle_simple(3)), "multigraph"),
        (lambda: C.distinguished(3, 2, G.path_simple(3), delta=cubic), "multigraph"),
        (lambda: C.count_with_exactly_t(3, 2, G.loop(), 0, kind="simple"), "simple"),
    ]
    for call, kind in calls:
        with pytest.raises(ValueError, match=f"a {kind} host count needs {kind} patterns"):
            call()


def test_weighted_total_examples():
    assert C.total(2, 1, delta=WeightSpec.finite([1, 1])) == 2
    for n, m in ((2, 1), (2, 2), (3, 2)):
        assert C.total(n, m, delta=WeightSpec.exponential()) == C.total(n, m)
    assert C.total(3, 2, delta=WeightSpec.finite([0, 0, 1])) == 0


def test_weighted_distinguished_examples():
    one_x = WeightSpec.finite([1, 1])
    assert C.distinguished(2, 1, G.edge_multi(), delta=one_x) == 2
    # a vertex of degree above deg(Delta) kills the term
    assert C.distinguished(3, 3, G.path_multi(3), delta=one_x) == 0
    cubic = WeightSpec.finite([1, 1, 1, 1])
    got = C.distinguished(3, 2, G.path_multi(3), delta=cubic)
    brute = O.oracle_distribution(3, 2, G.path_multi(3), delta=cubic).distinguished_total
    assert got == brute


def test_expected_count_examples():
    assert C.expected_count(2, 1, G.edge_multi()) == Fraction(1, 2)
    assert C.expected_count(2, 1, G.loop()) == Fraction(1, 2)
    assert C.expected_count(3, 3, G.cycle_simple(3), kind="simple") == 1
    with pytest.raises(ValueError):
        C.expected_count(3, 3, G.cycle_simple(3), delta=WeightSpec.exponential(), kind="simple")


def test_count_with_exactly_t_examples():
    assert C.count_with_exactly_t(2, 1, G.edge_multi(), 1) == 2
    assert C.count_with_exactly_t(2, 1, G.edge_multi(), 0) == 2
    total = sum(
        C.count_with_exactly_t(2, 1, G.edge_multi(), t) for t in range(0, 3)
    )
    assert total == 4


def test_f_free_examples():
    assert C.count_with_exactly_t(2, 1, G.loop(), 0) == 2
    assert C.count_with_exactly_t(3, 3, G.cycle_simple(3), 0, kind="simple") == 0
    # hosts on (2,2) without a parallel pair
    by_hand = sum(
        1
        for h in O.enumerate_multigraphs(2, 2)
        if all(k < 2 or u == v for (u, v), k in h.pair_multiplicities().items())
    )
    assert C.count_with_exactly_t(2, 2, G.double_edge(), 0) == by_hand


def test_asymptotic_sanity_trend():
    # relative error of the distinguished-total asymptotics shrinks with n
    errors = []
    for n in (6, 8, 10, 12):
        exact = C.distinguished(n, n, G.cycle_multi(3))
        predicted = Fraction(n ** (2 * n)) * Fraction(4, 3)  # n^2m * F_cls(n, 2/n)
        errors.append(abs(Fraction(exact, 1) / predicted - 1))
    assert errors[0] > errors[1] > errors[2] > errors[3]


def test_distinguished_weighted_uniform_reduction():
    # exponential weights reproduce the uniform distinguished totals
    for n, m in ((2, 1), (2, 2), (3, 2)):
        for fam in (G.loop(), G.edge_multi(), G.path_multi(3)):
            assert C.distinguished(n, m, fam, delta=WeightSpec.exponential()) == C.distinguished(n, m, fam)


# ---------------------------------------------------------------------------
# The same formulas as whole truncated-series products: each one builds the
# full product and reads one entry off it.  Slow, but a literal transcription
# of the generating-function statements, so it serves as the test oracle.


def _exp_z(n: int) -> TruncatedSeries:
    coeffs = {(k,): Fraction(1, math.factorial(k)) for k in range(n + 1)}
    return TruncatedSeries(("z",), (n,), coeffs)


def _exp_edges(n: int, m: int) -> TruncatedSeries:
    half_n2 = Fraction(n * n, 2)
    coeffs = {(j,): half_n2**j / math.factorial(j) for j in range(m + 1)}
    return TruncatedSeries(("w",), (m,), coeffs)


def _binom_edges(n: int, m: int) -> TruncatedSeries:
    pairs = math.comb(n, 2)
    coeffs = {(j,): Fraction(math.comb(pairs, j)) for j in range(m + 1)}
    return TruncatedSeries(("w",), (m,), coeffs)


def series_mg_distinguished(n, m, family):
    shapes = G.as_family(family)
    if not shapes:
        return Fraction(0)
    f = family_egf(shapes, n, m)
    series = f * _exp_z(n) * _exp_edges(n, m)
    coeff = series.extract({"z": n, "w": m})
    return coeff * math.factorial(n) * 2**m * math.factorial(m)


def series_sg_distinguished(n, m, family):
    shapes = G.as_family(family)
    if not shapes:
        return Fraction(0)
    f = family_egf(shapes, n, m).substitute_w_over_1pw()
    series = f * _exp_z(n) * _binom_edges(n, m)
    coeff = series.extract({"z": n, "w": m})
    return coeff * math.factorial(n)


def egf_poly(delta, cap):
    """Delta(x) truncated at x^cap, exact (coefficient of x^d is delta_d/d!)."""
    coeffs = {(d,): Fraction(delta.delta(d), math.factorial(d)) for d in range(cap + 1) if delta.delta(d)}
    return TruncatedSeries(("x",), (cap,), coeffs)


def series_mg_weighted_total(n, m, delta):
    poly = egf_poly(delta, 2 * m)
    coeff = poly.pow(n).extract({"x": 2 * m})
    return coeff * math.factorial(2 * m)


def series_mg_distinguished_weighted(n, m, delta, family):
    shapes = G.as_family(family)
    if not shapes:
        return Fraction(0)
    x_cap = 2 * m
    caps = {"z": n, "w": m, "x": x_cap}
    delta_poly = egf_poly(delta, x_cap)
    # F with each vertex of degree d contributing Delta^(d)(x)
    f_total = TruncatedSeries.zero(("w", "x", "z"), (m, x_cap, n))
    for shape in shapes:
        if shape.n > n or shape.m > m:
            continue
        term = TruncatedSeries.monomial(
            {"z": shape.n, "w": shape.m}, Fraction(1, G.aut_count(shape)), caps
        )
        for d in shape.degrees():
            term = term * delta_poly.derivative("x", d)
        f_total = f_total + term
    z_delta = TruncatedSeries.monomial({"z": 1}, 1, caps) * delta_poly
    series = f_total * z_delta.exp()
    total = Fraction(0)
    for j in range(m + 1):
        coeff = series.extract({"z": n, "w": m - j, "x": 2 * j})
        if coeff:
            total += coeff * Fraction(math.factorial(2 * j), 2**j * math.factorial(j))
    return total * math.factorial(n) * 2**m * math.factorial(m)


def series_count_with_exactly_t(n, m, f, t, kind="multigraph"):
    patch = O.patchwork_series(f, n_max=n, m_max=m, kind=kind)
    series = patch.series.substitute_shift("u", -1)
    if kind == "multigraph":
        series = series * _exp_z(n) * _exp_edges(n, m)
        coeff = series.extract({"z": n, "w": m, "u": t}) if t <= series.caps[series.variables.index("u")] else Fraction(0)
        return coeff * math.factorial(n) * 2**m * math.factorial(m)
    series = series.substitute_w_over_1pw()
    series = series * _exp_z(n) * _binom_edges(n, m)
    coeff = series.extract({"z": n, "w": m, "u": t}) if t <= series.caps[series.variables.index("u")] else Fraction(0)
    return coeff * math.factorial(n)


MULTI_NAMES = ("loop", "edge", "double-edge", "p3", "p4", "c3", "c4", "c5", "c6", "c7", "c8", "k13")
WEIGHTS = ("finite:1,1,1,1", "finite:0,1,2,1/3", "finite:0,0,1", "exp", "cosh", "sinh1")
SIZES = ((0, 0), (1, 0), (1, 1), (2, 1), (3, 2), (4, 3), (5, 5), (6, 4), (7, 8), (8, 6), (8, 8))


def test_coefficient_sums_match_series_products():
    multi = [G.shape(p) for p in MULTI_NAMES]
    families = [[f] for f in multi] + [
        [G.loop(), G.edge_multi(), G.cycle_multi(3)],  # mixed
        [G.cycle_multi(8)],  # larger than most hosts here
        [],
    ]
    simple = [[G.shape(p, "simple")] for p in ("edge", "p3", "c3", "c4", "k4", "k13")]
    simple += [[G.cycle_simple(3), G.path_simple(3)], [G.cycle_simple(8)], []]
    weights = [WeightSpec.from_json(w) for w in WEIGHTS]
    for n, m in SIZES:
        for fam in families:
            assert C.distinguished(n, m, fam) == series_mg_distinguished(n, m, fam), (n, m, fam)
        for fam in simple:
            assert C.distinguished(n, m, fam, kind="simple") == series_sg_distinguished(n, m, fam), (n, m, fam)
        for delta in weights:
            assert C.total(n, m, delta=delta) == series_mg_weighted_total(n, m, delta), (n, m, delta)
            for fam in families:
                want = series_mg_distinguished_weighted(n, m, delta, fam)
                assert C.distinguished(n, m, fam, delta=delta) == want, (n, m, delta, fam)
    # every t-slice up to past the u-cap of the patchwork series
    cases = [("multigraph", p, n, m) for p in ("loop", "edge", "double-edge", "c3")
             for n, m in ((1, 1), (2, 2), (3, 2), (3, 3), (4, 2))]
    cases += [("simple", p, n, m) for p in ("edge", "p3", "c3") for n, m in ((3, 2), (3, 3), (4, 3), (5, 4))]
    for kind, p, n, m in cases:
        f = G.shape(p, kind)
        u_cap = O.patchwork_series(f, n_max=n, m_max=m, kind=kind).series.caps[0]
        for t in range(u_cap + 3):
            got = C.count_with_exactly_t(n, m, f, t, kind=kind)
            assert got == series_count_with_exactly_t(n, m, f, t, kind=kind), (kind, p, n, m, t)
            assert isinstance(got, Fraction)


def test_census_multiplies_no_series(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("census multiplied a truncated series")

    for name in ("__mul__", "__rmul__", "pow", "exp"):
        monkeypatch.setattr(TruncatedSeries, name, refuse)
    cubic = WeightSpec.finite([1, 1, 1, 1])
    assert C.expected_count(12, 9, G.cycle_multi(3), delta=cubic) > 0
    assert C.expected_count(12, 9, G.cycle_multi(3)) > 0
    assert C.expected_count(12, 9, G.cycle_simple(3), kind="simple") > 0
    assert C.count_with_exactly_t(3, 3, G.cycle_multi(3), 1) == 48


def test_bad_arguments_fail_loudly():
    loop, cubic = G.loop(), WeightSpec.finite([1, 1, 1, 1])
    with pytest.raises(ValueError, match="t=-1"):
        C.count_with_exactly_t(3, 2, loop, -1)
    calls = [
        lambda n, m: C.total(n, m),
        lambda n, m: C.total(n, m, kind="simple"),
        lambda n, m: C.distinguished(n, m, loop),
        lambda n, m: C.distinguished(n, m, G.edge_simple(), kind="simple"),
        lambda n, m: C.total(n, m, delta=cubic),
        lambda n, m: C.distinguished(n, m, loop, delta=cubic),
        lambda n, m: C.expected_count(n, m, loop),
        lambda n, m: C.expected_count(n, m, loop, delta=cubic),
        lambda n, m: C.expected_count(n, m, G.edge_simple(), kind="simple"),
        lambda n, m: C.count_with_exactly_t(n, m, loop, 0),
    ]
    for call in calls:
        for n, m in ((-1, 2), (3, -2)):
            with pytest.raises(ValueError, match=f"n={n}, m={m}"):
                call(n, m)
    with pytest.raises(ValueError, match="unknown kind"):
        C.total(3, 2, kind="directed")
    with pytest.raises(ValueError, match="degree weights are implemented for multigraphs"):
        C.distinguished(3, 2, G.edge_simple(), kind="simple", delta=cubic)
    with pytest.raises(ValueError, match="not rational"):
        C.expected_count(3, 2, G.cycle_multi(3), delta=WeightSpec.power_law(2.5))
    with pytest.raises(ZeroDivisionError):
        C.expected_count(3, 2, G.cycle_multi(3), delta=WeightSpec.from_json("finite:0,0,1"))


def test_weighted_closed_forms_past_the_series_sizes():
    # exp: Delta = e^x, every weight is 1, so the weighted census is the uniform one
    exp, cosh, quadratic = (WeightSpec.from_json(w) for w in ("exp", "cosh", "finite:0,0,1"))
    for n, m in ((40, 30), (80, 60)):
        assert C.total(n, m, delta=exp) == n ** (2 * m)
        for p in MULTI_NAMES:
            f = G.shape(p)
            assert C.distinguished(n, m, f, delta=exp) == C.distinguished(n, m, f), (p, n, m)
    # cosh^n = 2^-n sum_j binom(n, j) e^{(n - 2j) x}
    for n, m in ((1, 1), (5, 4), (40, 30), (80, 60)):
        want = Fraction(sum(math.comb(n, j) * (n - 2 * j) ** (2 * m) for j in range(n + 1)), 2**n)
        assert C.total(n, m, delta=cosh) == want, (n, m)
    # (x^2 / 2)^n: every degree is 2, so only m = n has hosts, (2n)! / 2^n of them
    for n in (1, 2, 5, 17, 40):
        for m in (n - 1, n, n + 1, 2 * n):
            want = Fraction(math.factorial(2 * n), 2**n) if m == n else 0
            assert C.total(n, m, delta=quadratic) == want, (n, m)
    # (x + x^2 / 2)^n = x^n (1 + x / 2)^n: the lowest degree is 1 and the recurrence has terms
    for n, m in ((40, 30), (80, 60), (80, 41), (80, 81)):
        want = Fraction(math.factorial(2 * m) * math.comb(n, 2 * m - n), 2 ** (2 * m - n)) if 2 * m >= n else 0
        assert C.total(n, m, delta=WeightSpec.from_json("finite:0,1,1")) == want, (n, m)


# ---------------------------------------------------------------------------
# Patchworks built by gluing copies, checked against the oracle's series,
# which enumerates every host.

SIMPLE_NAMES = ("edge", "p3", "p4", "c3", "c4", "c5", "c6", "c7", "c8", "k4", "k13")
ODD_PATTERNS = [
    G.Multigraph(3, (1, 2)),  # an edge and an isolated vertex
    G.Multigraph(4, (1, 2, 3, 4)),  # two disjoint edges
    G.Multigraph(2, (1, 1, 2, 2)),  # two disjoint loops
    G.SimpleGraph(3, [(1, 2)]),
]


def _constructed_coeffs(f, n, m, kind):
    """The patchwork series keyed (u, w, z), as the oracle keys it."""
    coeffs = {(0, 0, 0): Fraction(1)}
    for h, weights in C.patchwork_series(f, n, m, kind):
        for k, w in enumerate(weights):
            if w:
                coeffs[k, h.m, h.n] = coeffs.get((k, h.m, h.n), 0) + w
    return coeffs


def test_constructed_patchworks_equal_the_oracle_series():
    # each size holds every smaller one; past these the oracle enumerates
    # more than 2 * 10^4 multigraph hosts.  A shape too large for all of
    # them is checked at one, where its only patchwork is the empty one.
    cases = []
    for f in map(G.shape, MULTI_NAMES):
        sizes = [(n, m) for n, m in ((4, 3), (3, 4), (5, 2)) if f.n <= n and f.m <= m]
        cases += [(f, size) for size in sizes or [(5, 2)]]
    cases += [(G.shape(p, "simple"), (5, 4)) for p in SIMPLE_NAMES]
    cases += [(f, (4, 3) if f.kind == "multigraph" else (5, 4)) for f in ODD_PATTERNS]
    for f, (n, m) in cases:
        want = {key: c for key, c in O.patchwork_series(f, n, m, kind=f.kind).series.coeffs.items() if c}
        assert _constructed_coeffs(f, n, m, f.kind) == want, (f, n, m)


def test_binomial_moments():
    for n, m in ((3, 3), (4, 3), (12, 9)):
        for p in ("loop", "edge", "p3", "c3"):
            b = C.binomial_moments(n, m, G.shape(p), 1)
            assert b == [C.total(n, m), C.distinguished(n, m, G.shape(p))], (p, n, m)
        for p in ("edge", "p3", "c3", "c4"):
            b = C.binomial_moments(n, m, G.shape(p, "simple"), 1, kind="simple")
            f = G.shape(p, "simple")
            assert b == [C.total(n, m, kind="simple"), C.distinguished(n, m, f, kind="simple")], (p, n, m)
    for f, (n, m) in [(G.shape(p), (3, 3)) for p in ("loop", "edge", "double-edge", "p3", "c3")] + [
            (G.shape(p, "simple"), (5, 4)) for p in ("edge", "p3", "c3", "k13")] + [(ODD_PATTERNS[0], (3, 3))]:
        dist = O.oracle_distribution(n, m, f, kind=f.kind)
        want = sum((math.comb(t, 2) * w for t, w in dist.by_t.items()), Fraction(0))
        assert C.binomial_moments(n, m, f, 2, kind=f.kind)[2] == want, (f, n, m)
    assert C.binomial_moments(4, 3, G.loop(), 0) == [C.total(4, 3)]
    # every moment: loops in (4, 3) hosts are binomial(3, 1/4)
    assert C.binomial_moments(4, 3, G.loop()) == [math.comb(3, k) * 4**k * 16 ** (3 - k) for k in range(4)]
    with pytest.raises(ValueError, match="k_max=-1"):
        C.binomial_moments(4, 3, G.loop(), -1)


def test_slices_past_the_oracle_cap_sum_to_the_census():
    n, m = 8, 8
    for p in ("loop", "c3"):
        f = G.shape(p)
        slices = [C.count_with_exactly_t(n, m, f, t) for t in range(math.comb(m, 3) + 2)]
        assert slices[-1] == 0
        assert sum(slices) == n ** (2 * m)
        assert sum(t * x for t, x in enumerate(slices)) == n ** (2 * m) * C.expected_count(n, m, f)
    # loops: each edge is a loop in n of its n^2 end pairs
    assert [C.count_with_exactly_t(n, m, G.loop(), t) for t in range(m + 1)] == [
        math.comb(m, t) * n**t * (n * n - n) ** (m - t) for t in range(m + 1)]


def test_patchwork_class_budget(monkeypatch):
    C.patchwork_series.cache_clear()
    with pytest.raises(G.SizeCapError, match="more than 20 edges"):
        C.patchwork_series(G.loop(), 1, 21, "multigraph")  # one class has 21 loops
    monkeypatch.setattr(C, "PATCHWORK_CLASS_CAP", 10)
    with pytest.raises(G.SizeCapError, match="more than 10 patchwork classes"):
        C.patchwork_series(G.edge_multi(), 6, 6, "multigraph")
    assert len(C.patchwork_series(G.loop(), 3, 2, "multigraph")) == 3  # one loop, two apart, two together
    assert C.patchwork_series.cache_info().currsize == 1
    C.patchwork_series.cache_clear()
    with pytest.raises(ValueError, match="a simple host count needs simple patterns"):
        C.patchwork_series(G.loop(), 3, 3, "simple")


def test_census_does_not_import_the_oracle():
    tree = ast.parse(Path(C.__file__).read_text())
    imported = [node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    imported += [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names]
    assert imported and not [name for name in imported if "oracle" in name]
    assert "patchwork_series" in vars(C)


def test_pair_family_classes_are_unchanged():
    # class counts of the pair family before it was rebuilt on glue
    counts = {"loop": 1, "edge": 2, "double-edge": 3, "p3": 13, "c3": 6, "c4": 18, "c5": 54, "k13": 21}
    for p, count in counts.items():
        f = G.shape(p)
        members = G.pair_family(f)
        assert len(members) == count, p
        forms = {G.canonical_form(h) for h in members}
        assert len(forms) == count
        if f.n > 4:
            continue
        # the connected two-piece patchworks other than f itself
        two = {G.canonical_form(h) for h, w in C.patchwork_series(f, 2 * f.n, 2 * f.m, "multigraph")
               if len(w) > 2 and w[2] and G.is_connected(h) and h.m > f.m}
        assert forms == two, p


def _load_bench(name, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))  # workloads.py imports its sibling checks.py
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_large_weighted_census_matches_degree_sequence_dp(monkeypatch):
    checks = _load_bench("checks", monkeypatch)
    cubic = WeightSpec.finite([1, 1, 1, 1])
    want = checks.weighted_c3_expectation([1, 1, 1, 1], 200, 150)
    assert C.expected_count(200, 150, G.cycle_multi(3), delta=cubic) == want


# sha256 of the str() of every non-slice exact-census answer, in query order
EXACT_CENSUS_DIGEST = "b220c62a6e8fdc87e14cacf484b101c1a3acefb9225d002c28f84f53365dcb51"


def test_exact_census_answers_are_bit_identical(monkeypatch):
    workloads = _load_bench("workloads", monkeypatch)
    cubic = WeightSpec.finite(workloads.CUBIC)
    answers = []
    for kind, p, n, m in workloads.QUERIES:
        if kind == "mg":
            answers.append(C.expected_count(n, m, G.shape(p)))
        elif kind == "sg":
            answers.append(C.expected_count(n, m, G.shape(p, "simple"), kind="simple"))
        elif kind == "cubic":
            answers.append(C.expected_count(n, m, G.shape(p), delta=cubic))
    assert len(answers) == 138
    digest = hashlib.sha256("\n".join(map(str, answers)).encode()).hexdigest()
    assert digest == EXACT_CENSUS_DIGEST
