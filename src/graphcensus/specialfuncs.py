"""Numerical special functions: zeta, gamma, polylogarithm, incomplete gamma.

Self-contained float implementations tuned for the parameter ranges this
package needs (zeta on s in (-15, 60) away from 1, gamma away from its poles,
polylog Li_s(x) for 0 <= x <= 1 and s in (-12, 12)).
"""

from __future__ import annotations

import math

# Bernoulli numbers B_2, B_4, ..., B_16 for Euler-Maclaurin tails.
_BERNOULLI = [
    1.0 / 6,
    -1.0 / 30,
    1.0 / 42,
    -1.0 / 30,
    5.0 / 66,
    -691.0 / 2730,
    7.0 / 6,
    -3617.0 / 510,
]

# Lanczos coefficients (g = 7, n = 9).
_LANCZOS_G = 7.0
_LANCZOS = [
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
]


def gamma(x: float) -> float:
    """Gamma function via Lanczos approximation, reflection for x < 0.5.

    Relative error is around 1e-13 over the ranges used here; poles at
    nonpositive integers raise ValueError.
    """
    if x == math.floor(x) and x <= 0:
        raise ValueError(f"gamma pole at {x}")
    if x < 0.5:
        # reflection: gamma(x) gamma(1-x) = pi / sin(pi x)
        return math.pi / (math.sin(math.pi * x) * gamma(1.0 - x))
    x -= 1.0
    acc = _LANCZOS[0]
    for i in range(1, len(_LANCZOS)):
        acc += _LANCZOS[i] / (x + i)
    t = x + _LANCZOS_G + 0.5
    return math.sqrt(2.0 * math.pi) * t ** (x + 0.5) * math.exp(-t) * acc


def zeta(s: float, terms: int = 25) -> float:
    """Riemann zeta via Euler-Maclaurin summation.

    Valid for s != 1.  Arguments left of 1/2 go through the functional
    equation (the direct Euler-Maclaurin head loses precision to
    cancellation there).  Absolute error is far below 1e-12 for s > 1.
    """
    if s == 1.0:
        raise ValueError("zeta pole at s = 1")
    if s < 0.5:
        # zeta(s) = 2^s pi^(s-1) sin(pi s/2) Gamma(1-s) zeta(1-s)
        return (
            2.0**s
            * math.pi ** (s - 1.0)
            * math.sin(math.pi * s / 2.0)
            * gamma(1.0 - s)
            * zeta(1.0 - s, terms)
        )
    n = terms
    acc = sum(k ** (-s) for k in range(1, n))
    acc += n ** (1.0 - s) / (s - 1.0)
    acc += 0.5 * n ** (-s)
    power = n ** (-s - 1.0)  # n^{-s-2j+1} for j = 1
    factor = s  # rising product s (s+1) ... (s+2j-2)
    fact = 2.0  # (2j)!
    for j, b in enumerate(_BERNOULLI, start=1):
        acc += b / fact * factor * power
        power /= n * n
        factor *= (s + 2 * j - 1) * (s + 2 * j)
        fact *= (2 * j + 1) * (2 * j + 2)
    return acc


def polylog(s: float, x: float) -> float:
    """Li_s(x) = sum_{d>=1} x^d / d^s for 0 <= x <= 1.

    Direct summation away from 1; near x = 1 the singular expansion
    Li_s(e^{-t}) = Gamma(1-s) t^{s-1} + sum_j zeta(s-j) (-t)^j / j!
    (s not a positive integer) is used.  At x = 1 this is zeta(s) for s > 1.
    """
    if not 0.0 <= x <= 1.0:
        raise ValueError("polylog implemented for 0 <= x <= 1 only")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        if s <= 1.0:
            raise ValueError("Li_s(1) diverges for s <= 1")
        return zeta(s)
    if x <= 0.99:
        acc = 0.0
        term = x
        d = 1
        while True:
            contrib = term / d**s
            acc += contrib
            if abs(contrib) < 1e-18 * max(1.0, abs(acc)) and d > 10:
                return acc
            d += 1
            term *= x
            if d > 2_000_000:
                return acc
    if s == math.floor(s) and s > 0:
        raise ValueError("singular expansion needs non-integer s near x = 1")
    t = -math.log(x)
    acc = gamma(1.0 - s) * t ** (s - 1.0)
    tpow = 1.0
    fact = 1.0
    for j in range(0, 12):
        acc += zeta(s - j) * ((-1.0) ** j) * tpow / fact
        tpow *= t
        fact *= j + 1
    return acc


def stirling1_signed(k: int) -> list[int]:
    """Signed Stirling numbers of the first kind s(k, j) for j = 0..k.

    They convert Euler operators to plain derivatives:
    d^k/dx^k = x^{-k} sum_j s(k,j) (x d/dx)^j.
    """
    row = [1]
    for i in range(k):
        new = [0] * (len(row) + 1)
        for j, c in enumerate(row):
            new[j] -= i * c
            new[j + 1] += c
        row = new
    return row


def _gammainc_lower_series(a: float, x: float) -> float:
    acc = 1.0 / a
    term = acc
    k = 1
    while True:
        term *= x / (a + k)
        acc += term
        if abs(term) < abs(acc) * 1e-15 or k > 10_000:
            break
        k += 1
    return acc * math.exp(-x + a * math.log(x) - math.lgamma(a))


def _gammainc_upper_cf(a: float, x: float) -> float:
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 10_000):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-15:
            break
    return math.exp(-x + a * math.log(x) - math.lgamma(a)) * h


def regularized_gamma_q(a: float, x: float) -> float:
    """Q(a, x) = Gamma(a, x)/Gamma(a), the upper regularized incomplete gamma."""
    if a <= 0 or x < 0:
        raise ValueError("need a > 0 and x >= 0")
    if x == 0:
        return 1.0
    if x < a + 1.0:
        return 1.0 - _gammainc_lower_series(a, x)
    return _gammainc_upper_cf(a, x)


def chi_square_survival(stat: float, df: int) -> float:
    """P(Chi2_df >= stat)."""
    if df <= 0:
        raise ValueError("df must be positive")
    return regularized_gamma_q(df / 2.0, stat / 2.0)


def poisson_pmf(lam: float, t: int) -> float:
    if t < 0:
        return 0.0
    return math.exp(-lam + t * math.log(lam) - math.lgamma(t + 1)) if lam > 0 else float(t == 0)
