import math
from fractions import Fraction

import mpmath as mp
import pytest

from graphcensus import census as C
from graphcensus import graphs as G
from graphcensus import predictors as P
from graphcensus.models import WeightSpec, solve_tuning
from graphcensus.specialfuncs import chi_square_survival, gamma, polylog, zeta

CUBIC = WeightSpec.finite([1, 1, 1, 1])


def test_zeta_against_closed_forms_and_mpmath():
    assert abs(zeta(2) - math.pi**2 / 6) < 1e-12
    assert abs(zeta(4) - math.pi**4 / 90) < 1e-12
    assert abs(zeta(1.5) - 2.612375348685488) < 1e-10
    for s in (1.1, 1.5, 2.5, 3.7, 6.2, 0.5, -0.5, -3.5, -10.5):
        assert abs(zeta(s) - float(mp.zeta(s))) < 1e-11, s
    with pytest.raises(ValueError):
        zeta(1.0)


def test_gamma_against_mpmath():
    assert abs(gamma(0.5) - math.sqrt(math.pi)) < 1e-10
    for x in (0.1, 0.5, 1.3333, 2.678939, -0.5, -1.5, 4.2, 7.9):
        ref = float(mp.gamma(x))
        assert abs(gamma(x) - ref) / abs(ref) < 1e-10, x
    for x in (0.3, 1.7, 2.9, 5.5):
        assert abs(gamma(x + 1) - x * gamma(x)) / gamma(x + 1) < 1e-9
    with pytest.raises(ValueError):
        gamma(-2.0)


def test_polylog_against_mpmath():
    for s in (2.5, 1.5, 0.5, -0.5):
        for x in (0.3, 0.9, 0.995, 0.9999):
            assert abs(polylog(s, x) - float(mp.polylog(s, x))) < 1e-8, (s, x)
    assert polylog(2.5, 1.0) == zeta(2.5)


def test_chi_square_survival_against_mpmath():
    for df, stat in ((5, 3.0), (10, 25.0), (53, 40.0)):
        ref = float(mp.gammainc(df / 2, stat / 2, mp.inf, regularized=True))
        assert abs(chi_square_survival(stat, df) - ref) < 1e-10


def test_threshold_exponents():
    assert P.threshold_exponent(G.cycle_multi(3)) == 1
    assert P.threshold_exponent(G.complete_simple(4)) == Fraction(4, 3)
    assert P.threshold_exponent(G.edge_multi()) == 0


def test_poisson_lambda_simple():
    assert P.poisson_lambda_simple(G.cycle_simple(3), Fraction(1, 2)).value == Fraction(1, 6)
    assert P.poisson_lambda_simple(G.cycle_simple(4), 1).value == 2
    assert P.poisson_lambda_simple(G.complete_simple(4), 1).value == Fraction(64, 24)
    with pytest.raises(ValueError):
        P.poisson_lambda_simple(G.SimpleGraph(4, [(1, 2), (2, 3), (1, 3), (3, 4)]), 1)


def test_poisson_lambda_multi():
    assert P.poisson_lambda_multi(G.loop(), Fraction(1, 2)).value == Fraction(1, 2)
    assert P.poisson_lambda_multi(G.double_edge(), Fraction(1, 2)).value == Fraction(1, 4)
    assert P.poisson_lambda_multi(G.cycle_multi(3), Fraction(1, 2)).value == Fraction(1, 6)
    alt = P.poisson_lambda_multi(G.double_edge(), Fraction(1, 2), "single-shape")
    assert alt.value == Fraction(1, 16)


def test_poisson_conventions_coincide_for_plain_patterns():
    # loopless, parallel-free patterns: multigraph and simple parameters agree
    for ms, ss in ((G.cycle_multi(3), G.cycle_simple(3)), (G.cycle_multi(4), G.cycle_simple(4))):
        for c in (Fraction(1, 2), Fraction(2, 3)):
            assert (
                P.poisson_lambda_multi(ms, c).value
                == P.poisson_lambda_simple(ss, c).value
            )


def test_weighted_expectation_predictor():
    pred = P.weighted_expectation_predictor(
        G.cycle_multi(3), 10**6, 5 * 10**5, WeightSpec.exponential()
    )
    assert abs(pred.value - 1 / 6) < 1e-4
    zero = P.weighted_expectation_predictor(G.star_multi(3), 100, 50, WeightSpec.finite([1, 1, 1]))
    assert zero.value == 0
    plain = P.weighted_expectation_predictor(
        G.cycle_multi(3), 25, 30, WeightSpec.exponential(), falling_vertex_factor=False
    )
    assert abs(plain.value - (2 * 30 / 25**2) ** 3 * 25**3 / 6) < 1e-12


def test_cycle_poisson_mean():
    v = P.cycle_poisson_mean_finite(3, 10**6, 5 * 10**5, WeightSpec.exponential()).value
    assert abs(v - 1 / 6) < 1e-9
    # p-regular: chi-free ratio p(p-1) at 2m = pn
    v = P.cycle_poisson_mean_finite(3, 100, 150, WeightSpec.finite([0, 0, 0, 1])).value
    assert abs(v - 2**3 / 6) < 1e-12
    v1 = P.cycle_poisson_mean_finite(1, 10**6, 5 * 10**5, WeightSpec.exponential()).value
    assert abs(v1 - 0.5) < 1e-9
    double = P.cycle_poisson_mean_finite(3, 1000, 500, WeightSpec.exponential(), norm="double")
    half = P.cycle_poisson_mean_finite(3, 1000, 500, WeightSpec.exponential(), norm="half")
    assert abs(double.value / half.value - 8) < 1e-9


def test_regular_expectation():
    assert P.regular_expectation(G.cycle_multi(3), 10**9, 3).value == Fraction(4, 3)
    assert P.regular_expectation(G.star_multi(4), 100, 3).value == 0
    edge = P.regular_expectation(G.edge_multi(), 100, 2)
    assert edge.value == Fraction(4 * 100**2, (200) ** 1 * 2)


def test_sparse_tree_exponents():
    pred = P.sparse_tree_exponent(G.path_multi(3), WeightSpec.exponential())
    assert pred.exponent == 2
    assert pred.extras["threshold_exponent"] == Fraction(-1, 2)
    pred = P.sparse_tree_exponent(G.star_multi(3), WeightSpec.finite([1, 0, 0, 1, 1]))
    assert pred.exponent == 1
    pred = P.sparse_tree_exponent(G.edge_multi(), WeightSpec.exponential())
    assert pred.exponent == 1
    with pytest.raises(ValueError):
        P.sparse_tree_exponent(G.path_multi(3), WeightSpec.power_law(2.5))
    with pytest.raises(ValueError):
        P.sparse_tree_exponent(G.cycle_multi(3), WeightSpec.exponential())


def test_power_law_cycle_prediction():
    pred = P.power_law_cycle_prediction(2.5, 3, 1000)
    assert pred.exponent == 1
    assert abs(pred.extras["tau"] - (zeta(1.5) - zeta(2.5)) / gamma(-1.5)) < 1e-12
    assert pred.value == pytest.approx(pred.extras["kappa"] * 1000)
    assert P.power_law_cycle_prediction(2.5, 4, 10).exponent == Fraction(4, 3)
    with pytest.raises(ValueError):
        P.power_law_cycle_prediction(3.5, 3, 10)


def test_periodic_decomposition():
    dec = P.periodic_decompose(WeightSpec.cosh())
    assert (dec.r, dec.p) == (0, 2)
    assert dec.omega_coeff(2) == Fraction(1, 24)
    dec = P.periodic_decompose(WeightSpec.finite([0, 0, 0, 1]))
    assert (dec.r, dec.p) == (3, 1)
    dec = P.periodic_decompose(WeightSpec.finite([1, 0, 0, 0, 1]))
    assert (dec.r, dec.p) == (0, 4)


def test_periodic_reconstruction_exact():
    for spec in (WeightSpec.cosh(), WeightSpec.finite([1, 0, 1, 0, 1]), WeightSpec.finite([0, 0, 1, 0, 1])):
        dec = P.periodic_decompose(spec)
        for d in range(0, 4):
            for e in range(0, 13):
                lhs = Fraction(spec.delta(e), math.factorial(e - d)) if e >= d else Fraction(0)
                if e >= dec.r and (e - dec.r) % dec.p == 0:
                    rhs = dec.omega_d_coeff(d, (e - dec.r) // dec.p)
                else:
                    rhs = Fraction(0)
                assert lhs == rhs, (spec.to_json(), d, e)


def test_periodic_expectation():
    ok = P.periodic_expectation(G.path_multi(3), 3, 1, WeightSpec.cosh())
    assert ok.value > 0 and ok.extras["p"] == 2
    blocked = P.periodic_expectation(G.path_multi(3), 3, 1, WeightSpec.finite([1, 0, 0, 0, 1]))
    assert blocked.value == 0 and "reason" in blocked.extras
    # one-point support routes through the regular formula
    reg = P.periodic_expectation(G.cycle_multi(3), 100, 150, WeightSpec.finite([0, 0, 0, 1]))
    assert reg.value == Fraction(4, 3)


@pytest.mark.parametrize("weights", ["cosh", "exp", "sinh1", "finite:1,0,1,0,1", "finite:0,1,1,1"])
def test_periodic_expectation_is_the_plain_power_weighted_formula(weights):
    # reference: the transfer-ratio product written out, with chi tuned to 2m/n
    delta = WeightSpec.from_json(weights)
    dec = P.periodic_decompose(delta)
    for name in ("c3", "p3", "k13", "loop"):
        f = G.shape(name)
        for n, m in ((40, 30), (100, 80), (7, 9)):
            pred = P.periodic_expectation(f, n, m, delta)
            chi = solve_tuning(delta, Fraction(2 * m, n))
            prod = 1.0
            for d in f.degrees():
                prod *= chi**d * delta.value(chi, d) / delta.value(chi, 0)
            assert pred.value == float(n) ** f.n / float(2 * m) ** f.m * prod / G.aut_count(f), (name, n, m)
            assert pred.formula_id == "periodic-expectation"
            assert pred.extras == {"r": dec.r, "p": dec.p, "chi": chi}


def test_exact_to_asymptotic_convergence_trend():
    errors = []
    for n in (8, 12, 16, 20):
        m = 3 * n // 4
        exact = C.expected_count(n, m, G.path_multi(3), delta=CUBIC)
        pred = P.weighted_expectation_predictor(G.path_multi(3), n, m, CUBIC).value
        errors.append(abs(float(exact) / pred - 1))
    assert errors[0] > errors[1] > errors[2] > errors[3]


def test_predict_dispatcher():
    pred = P.predict("lambda-simple", shape="c3", c=Fraction(1, 2))
    assert pred.value == Fraction(1, 6)
    pred = P.predict("threshold", shape="k4", kind="simple")
    assert pred.exponent == Fraction(4, 3)
    pred = P.predict("cycles-finite", l=3, n=3000, m=2250, delta={"kind": "finite", "coeffs": ["1", "1", "1", "1"]})
    assert pred.value > 0
    pred = P.predict("sparse-tree", shape="p3", delta="exp")
    assert pred.exponent == 2
    with pytest.raises(ValueError):
        P.predict("unknown-theorem")
    with pytest.raises(ValueError, match="nope"):
        P.predict("nope")
