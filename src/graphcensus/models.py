"""Degree-weight specifications and random (multi)graph samplers.

The weighted model puts weight prod_v delta_{deg v} on a multigraph; the
weight generating function is Delta(x) = sum_d delta_d x^d / d!.  Builtin
specs: finite vectors, all-ones (Delta = e^x), even degrees (cosh), odd
degrees plus isolated vertices (sinh + 1), and the power law with
delta_d = d^{-beta} d! so that a Boltzmann vertex at x = 1 has degree d with
probability d^{-beta}/zeta(beta).

Samplers use numpy generators and return a ``graphs.Host`` of the arrays
they draw (``Host.to_graph()`` gives the graph value).  Replicate r of an
experiment derives its stream from (seed, r) so results do not depend on
worker scheduling.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from typing import Iterable, Sequence

import numpy as np

from .graphs import Host
from .specialfuncs import polylog, stirling1_signed, zeta

REJECTION_CAP = 10**7  # free-m degree vectors drawn before an odd sum is given up on


@dataclass(frozen=True)
class WeightSpec:
    """Degree-weight sequence with exact and float evaluation of Delta.

    Exact coefficient access (``delta``) is available for every builtin
    except the power law, whose weights are irrational; the power law is
    evaluated in floats only and only at x <= 1 (radius of convergence 1).
    A spec is an immutable value: equality and hash cover (kind, coeffs,
    beta), so it can key a cache.
    """

    kind: str
    coeffs: tuple[Fraction, ...] | None = None
    beta: float | None = None

    def __post_init__(self):
        if self.coeffs is not None:
            object.__setattr__(self, "coeffs", tuple(Fraction(c) for c in self.coeffs))
        if self.kind == "finite":
            if not self.coeffs or all(c == 0 for c in self.coeffs):
                raise ValueError("finite weight vector needs a nonzero entry")
            if any(c < 0 for c in self.coeffs):
                raise ValueError("weights must be nonnegative")
        elif self.kind == "powerlaw":
            if self.beta is None or self.beta <= 1:
                raise ValueError("power law requires beta > 1")
        elif self.kind not in ("exp", "cosh", "sinh1"):
            raise ValueError(f"unknown weight kind {self.kind!r}")

    # -- constructors --------------------------------------------------------

    @staticmethod
    def finite(coeffs: Iterable[Fraction | int | str]) -> "WeightSpec":
        return WeightSpec("finite", coeffs=[Fraction(c) for c in coeffs])

    @staticmethod
    def exponential() -> "WeightSpec":
        return WeightSpec("exp")

    @staticmethod
    def cosh() -> "WeightSpec":
        return WeightSpec("cosh")

    @staticmethod
    def sinh_plus_one() -> "WeightSpec":
        return WeightSpec("sinh1")

    @staticmethod
    def power_law(beta: float) -> "WeightSpec":
        return WeightSpec("powerlaw", beta=beta)

    @staticmethod
    def from_json(data) -> "WeightSpec":
        if isinstance(data, str):
            if data == "exp":
                return WeightSpec.exponential()
            if data == "cosh":
                return WeightSpec.cosh()
            if data == "sinh1":
                return WeightSpec.sinh_plus_one()
            if data.startswith("powerlaw:"):
                return WeightSpec.power_law(float(data.split(":", 1)[1]))
            if data.startswith("finite:"):
                return WeightSpec.finite(data.split(":", 1)[1].split(","))
            raise ValueError(f"unknown weight spec {data!r}")
        try:
            kind = data["kind"]
            if kind == "finite":
                return WeightSpec.finite(data["coeffs"])
            if kind == "powerlaw":
                return WeightSpec.power_law(float(data["beta"]))
        except KeyError as exc:
            raise ValueError(f"weight spec JSON needs the key {exc}") from None
        return WeightSpec.from_json(kind)

    def to_json(self):
        if self.kind == "finite":
            return {"kind": "finite", "coeffs": [str(c) for c in self.coeffs]}
        if self.kind == "powerlaw":
            return {"kind": "powerlaw", "beta": self.beta}
        return {"kind": self.kind}

    # -- exact views ---------------------------------------------------------

    def delta(self, d: int) -> Fraction:
        """Exact weight delta_d (rational kinds only)."""
        if self.kind == "finite":
            return self.coeffs[d] if d < len(self.coeffs) else Fraction(0)
        if self.kind == "exp":
            return Fraction(1)
        if self.kind == "cosh":
            return Fraction(1) if d % 2 == 0 else Fraction(0)
        if self.kind == "sinh1":
            return Fraction(1) if (d == 0 or d % 2 == 1) else Fraction(0)
        raise ValueError("power-law weights are not rational")

    def support_min(self) -> int:
        if self.kind == "finite":
            return next(d for d, c in enumerate(self.coeffs) if c != 0)
        if self.kind == "powerlaw":
            return 1
        return 0

    def support_max(self) -> float:
        if self.kind == "finite":
            return max(d for d, c in enumerate(self.coeffs) if c != 0)
        return math.inf

    def delta_float(self, d: int) -> float:
        if self.kind == "powerlaw":
            return 0.0 if d == 0 else d ** (-self.beta) * math.factorial(d)
        return float(self.delta(d))

    # -- float evaluation -----------------------------------------------------

    def value(self, x: float, order: int = 0) -> float:
        """Delta^(order)(x) as a float."""
        if x < 0:
            raise ValueError("evaluation requires x >= 0")
        if self.kind == "finite":
            # differentiate coefficients of sum delta_d x^d / d!
            acc = 0.0
            for d in range(len(self.coeffs) - 1, order - 1, -1):
                acc = acc * x + float(self.coeffs[d]) / math.factorial(d - order)
            return acc
        if self.kind == "exp":
            return math.exp(x)
        if self.kind == "cosh":
            return math.cosh(x) if order % 2 == 0 else math.sinh(x)
        if self.kind == "sinh1":
            base = math.sinh(x) if order % 2 == 0 else math.cosh(x)
            return base + (1.0 if order == 0 else 0.0)
        # power law: Delta = Li_beta(x); d^k/dx^k via Euler operators,
        # d^k/dx^k = x^{-k} sum_j s(k,j) (x d/dx)^j and (x d/dx) Li_s = Li_{s-1}
        if x > 1:
            raise ValueError("power-law weights are only evaluated at x <= 1")
        if order == 0:
            return polylog(self.beta, x)
        if x == 0:
            return self.delta_float(order)  # Delta^(k)(0) = delta_k
        s1 = stirling1_signed(order)
        acc = 0.0
        for j in range(1, order + 1):
            acc += s1[j] * polylog(self.beta - j, x)
        return acc / x**order

    def mean_ratio(self, x: float) -> float:
        """x Delta'(x) / Delta(x), the tuned mean degree."""
        return x * self.value(x, 1) / self.value(x, 0)


def solve_tuning(delta: WeightSpec, target: float | Fraction) -> float:
    """Unique positive root of x Delta'(x)/Delta(x) = target.

    The map is increasing (its derivative is a variance over a positive
    factor), so bisection converges; the bracket is grown geometrically for
    entire weights.  For the power law the root is 1 exactly when the target
    is zeta(beta-1)/zeta(beta), and otherwise lies in (0, 1).
    """
    target = float(target)
    lo_support = delta.support_min()
    hi_support = delta.support_max()
    if not lo_support < target < hi_support:
        raise ValueError(
            f"target {target} outside the open support interval ({lo_support}, {hi_support})"
        )
    if delta.kind == "exp":
        return target  # x Delta'/Delta = x
    if delta.kind == "powerlaw":
        if delta.beta <= 2:
            hi_value = math.inf
        else:
            hi_value = zeta(delta.beta - 1) / zeta(delta.beta)
        if hi_value < math.inf and abs(target - hi_value) <= 1e-9 * hi_value:
            return 1.0
        if target >= hi_value:
            raise ValueError("power-law mean degree cannot exceed zeta(beta-1)/zeta(beta)")
        lo, hi = 1e-12, 1.0 - 1e-13
    else:
        lo, hi = 1e-12, 1.0
        while delta.mean_ratio(hi) < target:
            hi *= 2.0
            if hi > 1e12:
                raise ValueError("tuning bracket blew up")
    for _ in range(400):
        mid = 0.5 * (lo + hi)
        if delta.mean_ratio(mid) < target:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-12 * max(hi, 1e-30):
            break
    x = 0.5 * (lo + hi)
    return x


# ---------------------------------------------------------------------------
# degree distributions


@dataclass
class DegreeDistribution:
    """pmf pi(d) with a table sampler and (for power laws) an exact tail.

    pi_x(d) = delta_d x^d / (Delta(x) d!).
    """

    probs: np.ndarray  # pi(0..D) table
    tail_beta: float | None = None  # power-law tail exponent past the table
    tail_mass: float = 0.0

    def __post_init__(self):
        total = float(self.probs.sum()) + self.tail_mass
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"pmf does not sum to 1 (got {total})")
        self.cum = np.cumsum(self.probs)
        # two-level lookup: a short head table resolves almost every draw
        head = int(np.searchsorted(self.cum, 1.0 - 2e-3, side="left")) + 1
        self.head_len = min(max(head, 1), min(256, len(self.cum)))
        self.head_cum = self.cum[: self.head_len]
        self.head_top = float(self.head_cum[-1])  # a draw at or past it misses the head table
        self.sum_tables: tuple | None = None  # ((n, total), tables) of the last _sum_tables call

    @staticmethod
    def from_weight_spec(delta: WeightSpec, x: float, table_cap: int = 1 << 16) -> "DegreeDistribution":
        if delta.kind == "finite":
            top = len(delta.coeffs) - 1
            z = delta.value(x, 0)
            probs = np.array(
                [float(delta.coeffs[d]) * x**d / (z * math.factorial(d)) for d in range(top + 1)]
            )
            return DegreeDistribution(probs / probs.sum())
        if delta.kind in ("exp", "cosh", "sinh1"):
            z = delta.value(x, 0)
            probs = []
            d = 0
            prev = 1.0
            while True:
                p = delta.delta_float(d) * x**d / (z * math.factorial(d))
                probs.append(p)
                if d > max(6 * x, 30) and max(p, prev) < 1e-17:
                    break
                prev = p
                d += 1
                if d > 100_000:
                    break
            arr = np.array(probs)
            return DegreeDistribution(arr / arr.sum())
        # power law: table plus an exact Pareto-style tail sampler
        beta = delta.beta
        z = polylog(beta, x)
        d_range = np.arange(1, table_cap + 1, dtype=float)
        probs = d_range ** (-beta) * x**d_range / z
        probs = np.concatenate(([0.0], probs))
        if x == 1.0:
            # tail mass sum_{d > cap} d^-beta / zeta(beta), Euler-Maclaurin head
            tail = (
                table_cap ** (1 - beta) / (beta - 1)
                - 0.5 * table_cap ** (-beta)
                + beta / 12 * table_cap ** (-beta - 1)
            ) / z
            return DegreeDistribution(probs, tail_beta=beta, tail_mass=tail)
        # x < 1: geometric suppression makes the tail negligible past the cap
        return DegreeDistribution(probs / probs.sum())

    @staticmethod
    def from_pmf(probs: Sequence[float]) -> "DegreeDistribution":
        arr = np.asarray(probs, dtype=float)
        if (arr < 0).any():
            raise ValueError("probabilities must be nonnegative")
        if abs(arr.sum() - 1.0) > 1e-12:
            raise ValueError("pmf must sum to 1")
        return DegreeDistribution(arr / arr.sum())

    def pmf(self, top: int) -> np.ndarray:
        """pi(0..top) as a new array, with the exact power-law tail past the table."""
        head = self.probs[: top + 1].copy()
        cap = len(self.probs) - 1
        if top <= cap or not self.tail_mass:
            return head
        # the tail exists only at x = 1, where pi(d) = d^-beta / zeta(beta)
        d = np.arange(cap + 1, top + 1, dtype=float)
        return np.concatenate((head, self.probs[cap] * (cap / d) ** self.tail_beta))

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        u = rng.random(size)
        out = self.head_cum.searchsorted(u, side="right")
        if size and (max(u.tolist()) if size <= _SHORT else u.max()) >= self.head_top:
            miss = (out == self.head_len).nonzero()[0]  # past the head table
            top = len(self.probs)
            if self.head_len < top:
                out[miss] = self.cum.searchsorted(u[miss], side="right")
            if self.tail_mass:
                for i in miss[out[miss] == top]:
                    out[i] = self._sample_tail(rng)
            else:
                np.minimum(out, top - 1, out=out)  # guard the last float ulp
        return out

    def _sample_tail(self, rng: np.random.Generator) -> int:
        """Exact draw of d > table cap with P(d) proportional to d^-beta.

        Proposes y from the continuous Pareto density on [cap+1/2, inf) and
        rounds to the nearest integer k; the proposal weight of k is
        (beta-1) * integral of y^-beta over [k-1/2, k+1/2], which dominates
        k^-beta by convexity, so the acceptance ratio is always <= 1.
        """
        beta = self.tail_beta
        cap = len(self.probs) - 1
        a = cap + 0.5
        while True:
            y = a * (1.0 - rng.random()) ** (-1.0 / (beta - 1.0))
            k = int(math.floor(y + 0.5))
            integral = ((k - 0.5) ** (1.0 - beta) - (k + 0.5) ** (1.0 - beta)) / (beta - 1.0)
            if rng.random() * integral <= k ** (-beta):
                return k


def derive_rng(seed: int, replicate: int) -> np.random.Generator:
    """Independent, scheduling-insensitive stream for one replicate."""
    return np.random.default_rng(np.random.SeedSequence([int(seed), int(replicate)]))


# ---------------------------------------------------------------------------
# samplers


def sample_uniform_multigraph(n: int, m: int, rng: np.random.Generator) -> Host:
    """Uniform canonical (n,m)-multigraph: 2m independent uniform labels."""
    if n < 1:
        raise ValueError("need n >= 1")
    return Host(n, rng.integers(1, n + 1, size=2 * m), "multigraph")


def sample_uniform_simple(n: int, m: int, rng: np.random.Generator) -> Host:
    """Uniform simple (n,m)-graph: each m-subset of the C(n,2) vertex pairs
    has probability 1 / C(C(n,2), m).

    Pair 0 <= u < v < n has rank c = v(v-1)/2 + u.  ``rng.choice`` draws m
    distinct ranks; for sparse m numpy runs Floyd's algorithm (Bentley and
    Floyd, "A sample of brilliance", CACM 30(9), 1987) in O(m) memory.  A
    rank unranks to v = floor((1 + sqrt(8c + 1)) / 2), u = c - v(v-1)/2.
    The float root is exact at a row's first rank, 8c + 1 = (2v-1)^2, and
    rounding is monotone, so v can only come out one row too high, as it
    does at many rows' last rank past row 2^27.  Ranks are int64, so
    n(n+1) must stay below 2^63.
    """
    total_pairs = n * (n - 1) // 2
    if m > total_pairs:
        raise ValueError("too many edges for a simple graph")
    if n * (n + 1) >= 2**63:
        raise ValueError(f"n = {n} is too large for int64 pair ranks")
    codes = rng.choice(total_pairs, size=m, replace=False, shuffle=False)
    v = ((1 + np.sqrt(8.0 * codes + 1)) // 2).astype(np.int64)
    v -= v * (v - 1) // 2 > codes
    u = codes - v * (v - 1) // 2
    return Host(n, np.column_stack((u, v)).ravel() + 1, "simple")


def _assemble_multigraph(n: int, degrees: np.ndarray, rng: np.random.Generator) -> Host:
    """Pair half-edges uniformly: edge j joins half-edges 2j-1 and 2j.

    Assigning the 2m half-edge labels uniformly and reading stubs in label
    order is the same as applying a uniform permutation to the stub vector.
    """
    stubs = np.repeat(np.arange(1, n + 1), degrees)
    perm = rng.permutation(stubs.shape[0])
    return Host(n, stubs[perm], "multigraph")


@lru_cache(maxsize=4096)
def feasible_degree_sum(delta: WeightSpec, n: int, total: int) -> bool:
    """Can ``total`` be written as a sum of n support elements of Delta?

    For a finite support with least element d_min, it can when
    t = total - n d_min is a sum of at most n parts from
    P = {d - d_min > 0}.  The fewest parts f(t) are found by dynamic
    programming below p^2, p = max P; past it a sum with fewest parts
    contains a p (of p or more parts below p, some nonempty subset sums to
    a multiple of p, and so could be traded for fewer p's), so
    f(t) = f(t - p) + 1.  Memoized: samplers re-check the same
    (spec, n, 2m) triple for every replicate.
    """
    if total < 0:
        return False
    if delta.kind == "exp":
        return True
    if delta.kind == "cosh":
        return total % 2 == 0
    if delta.kind == "sinh1":
        # j vertices of odd degree, j <= n, j == total (mod 2), j <= total
        if total == 0:
            return True
        return n >= 1 if total % 2 == 1 else n >= 2
    if delta.kind == "powerlaw":
        return total >= n
    low = delta.support_min()
    parts = [d - low for d, c in enumerate(delta.coeffs) if c != 0 and d > low]
    t = total - n * low
    if t <= 0 or not parts:
        return t == 0
    p = parts[-1]
    steps = max(0, (t - p * p) // p + 1)  # parts of size p taken off t
    t -= steps * p
    fewest = [0] + [math.inf] * t
    for s in range(1, t + 1):
        fewest[s] = 1 + min((fewest[s - d] for d in parts if d <= s), default=math.inf)
    return fewest[t] + steps <= n


@lru_cache(maxsize=64)
def _cached_distribution(delta: WeightSpec, x: float) -> DegreeDistribution:
    return DegreeDistribution.from_weight_spec(delta, x)


@lru_cache(maxsize=4096)
def _tuning_for_sampler(delta: WeightSpec, n: int, m: int) -> float:
    """Tuning point for the conditioned sampler (memoized per (spec, n, m)).

    Conditioned on the degree sum, the law does not depend on x (the tilt
    x^2m factors out), so x only drives the sampler's cost.  When 2m/n sits
    on the boundary of a finite support the tuning equation has no root and
    any interior surrogate works.  A power-law target at or above the
    x = 1 mean zeta(beta-1)/zeta(beta), which no x <= 1 exceeds, takes
    x = 1, whose table keeps the exact tail.
    """
    lo, hi = delta.support_min(), delta.support_max()
    target = Fraction(2 * m, n)
    if delta.kind == "powerlaw" and delta.beta > 2 and target >= zeta(delta.beta - 1) / zeta(delta.beta):
        return 1.0
    if lo < target < hi:
        return solve_tuning(delta, target)
    if hi == lo:
        return 1.0  # monomial: regular multigraphs, law is x-free
    margin = min(Fraction(1, 4), Fraction(1, 2 * n), Fraction(hi - lo if hi != math.inf else 1, 4))
    surrogate = target + margin if target == lo else Fraction(hi) - margin
    return solve_tuning(delta, surrogate)


def sample_delta_multigraph(n: int, m: int, delta: WeightSpec, rng: np.random.Generator) -> Host:
    """Conditioned degree-weighted sampler: P(G) = weight(G)/total on (n,m).

    Draws n Boltzmann degrees conditioned on summing to exactly 2m
    (``_conditioned_degrees``), then pairs half-edges uniformly.
    """
    if not feasible_degree_sum(delta, n, 2 * m):
        raise ValueError(f"2m = {2*m} is not a sum of {n} support elements")
    dist = _cached_distribution(delta, _tuning_for_sampler(delta, n, m))
    return _assemble_multigraph(n, _conditioned_degrees(n, 2 * m, dist, rng), rng)


def sample_configuration(
    n: int, pi: DegreeDistribution, rng: np.random.Generator, m: int | None = None
) -> Host:
    """Configuration-model sampler with degree distribution pi.

    Free-m variant rejects odd degree sums; the m-conditioned variant draws
    the degrees conditioned on summing to exactly 2m, as
    ``sample_delta_multigraph`` does (``_conditioned_degrees``).  Half-edge
    pairing is uniform, so with pi = pi_x the output law equals the
    Boltzmann sampler's law.

    n degrees sum to an even number with probability (1 + b^n) / 2, where
    b = sum_d (-1)^d pi(d) is at least its value over the table minus the
    tail mass.  That is at least 1/2 for even n and rises with b for odd n,
    so a pi whose bound is below 10 / ``REJECTION_CAP`` is refused before
    any draw, rather than rejecting odd sums until the cap.
    """
    if m is None:
        low = float(pi.probs[0::2].sum() - pi.probs[1::2].sum()) - pi.tail_mass
        p_even = (1 + max(low, -1.0) ** n) / 2
        if p_even < 10 / REJECTION_CAP:
            raise ValueError(
                f"{n} degrees from this pmf sum to an even number with probability P(even) = {p_even:.3g}, "
                f"too rare to reject odd sums until one is even"
            )
        for _ in range(REJECTION_CAP):
            degrees = pi.sample(rng, n)
            total = int(degrees.sum())
            if total % 2 == 0:
                return _assemble_multigraph(n, degrees, rng)
        raise RuntimeError("rejection cap exceeded (odd sums)")
    return _assemble_multigraph(n, _conditioned_degrees(n, 2 * m, pi, rng), rng)


# ---------------------------------------------------------------------------
# degrees conditioned on their sum

_DIRECT_CONVOLVE_MAX = 1 << 18  # len(a) * len(b) up to which np.convolve beats the FFT
_MULTINOMIAL_MAX = 1 << 14  # largest len(pi) / pi^{*n}(total) sent to multinomial rejection
_TV_TOLERANCE = 1e-4  # total variation per host allowed to float tables: below the noise of 10^8 hosts
_EPS = float(np.finfo(float).eps)
_SHORT = 64  # arrays up to this length are reduced in Python, not by a numpy call


def _convolve(a: np.ndarray, b: np.ndarray, top: int) -> tuple[np.ndarray, float]:
    """(a * b)(0..top) for nonnegative a and b, and its absolute error per entry.

    Short inputs go to ``np.convolve``, which sums nonnegative products and
    errs only relatively (0 is returned); long ones to numpy.fft, whose
    output is off by about eps log2(N) ||a||_2 ||b||_2 per entry whatever
    the entry's size.
    """
    size = min(len(a) + len(b) - 1, top + 1)
    if len(a) * len(b) <= _DIRECT_CONVOLVE_MAX:
        return np.convolve(a, b)[:size], 0.0
    nfft = 1 << (len(a) + len(b) - 2).bit_length()
    out = np.fft.irfft(np.fft.rfft(a, nfft) * np.fft.rfft(b, nfft), nfft)[:size]
    # a @ a, not np.linalg.norm, whose first call imports numpy.linalg (0.3 s)
    return out, _EPS * math.log2(nfft) * math.sqrt((a @ a) * (b @ b))


def _split_weights(a: np.ndarray, b: np.ndarray, t: int) -> tuple[int, np.ndarray]:
    """(lo, w) with w[i] = a(lo + i) b(t - lo - i) over every split of t."""
    lo = max(0, t - len(b) + 1)
    hi = min(t, len(a) - 1)
    return lo, a[lo : hi + 1] * b[t - hi : t - lo + 1][::-1]


def _draw_split(rng: np.random.Generator, a: np.ndarray, b: np.ndarray, t: int) -> int:
    """s with probability proportional to a(s) b(t - s).

    ``np.cumsum`` adds in order, as ``accumulate`` does, so a short weight
    list summed in Python floats gives the same cumulative sums.
    """
    lo, w = _split_weights(a, b, t)
    cum = list(accumulate(w.tolist())) if len(w) <= _SHORT else np.cumsum(w)
    total = float(cum[-1])
    if not total > 0:  # only float noise gave this block its sum t
        raise RuntimeError(f"float tables gave weight to a sum of probability 0 (t = {t})")
    k = bisect_right(cum, rng.random() * total)
    if k == len(w):  # u * total rounded up to total
        k = int(np.flatnonzero(w)[-1])
    return lo + k


def _sum_tables(dist: DegreeDistribution, n: int, total: int) -> tuple:
    """Convolution powers of ``dist``'s pmf for n degrees summing to ``total``.

    Returns (levels, peaks, blocks, mass): ``levels[j]`` is pi^{*2^j} on
    0..total for every 2^j <= n and ``peaks[j]`` its maximum; ``blocks``
    lists the binary blocks of n, largest first, as (j, pmf of the sum of
    the blocks after it), where the empty sum has pmf [1]; ``mass`` is
    pi^{*n}(total).  Built on first use and kept on ``dist`` for the last
    (n, total) asked.  Raises ``ValueError`` when no n degrees of positive
    probability sum to ``total``, and when pi^{*n}(total) is too small for
    the tables' float error (see ``_conditioned_degrees``).
    """
    if dist.sum_tables is not None and dist.sum_tables[0] == (n, total):
        return dist.sum_tables[1]
    if n < 1:
        raise ValueError("need n >= 1")
    base = dist.pmf(total)
    support = np.flatnonzero(base)
    low = int(support[0]) if support.size else 0
    step = int(np.gcd.reduce(support - low)) if support.size else 0
    off = total - n * low  # a sum of n degrees lies on n*low + step*Z
    if not support.size or off < 0 or total > n * int(support[-1]) or (off % step if step else off):
        raise ValueError(f"pi^*{n}(2m) = 0: no {n} degrees of positive probability sum to 2m = {total}")
    base = base[: support[-1] + 1]
    error = 0.0  # summed error bound per entry of the FFT tables

    def power(a: np.ndarray, b: np.ndarray, k: int) -> np.ndarray:
        # a * b on 0..total for a sum of k degrees, which lies on k*low + step*Z
        nonlocal error
        table, err = _convolve(a, b, total)
        error += err
        keep = np.zeros(len(table), dtype=bool)
        keep[k * low :: step or len(table)] = True
        table[~keep] = 0.0
        return np.maximum(table, 0.0, out=table)

    levels = [base]
    for j in range(1, n.bit_length()):
        levels.append(power(levels[-1], levels[-1], 1 << j))
    sizes = [j for j in reversed(range(n.bit_length())) if n >> j & 1]
    rests = [np.ones(1)]
    k = 0
    for j in reversed(sizes[1:]):
        k += 1 << j
        rests.append(power(levels[j], rests[-1], k))
    rests.reverse()
    mass = float(_split_weights(levels[sizes[0]], rests[0], total)[1].sum())  # pi^{*n}(total)
    bound = 2 * n * (error + np.finfo(float).tiny) / mass if mass > 0 else math.inf
    if bound > _TV_TOLERANCE:
        raise ValueError(
            f"pi^*{n}(2m) = {mass:.3g} at 2m = {total} is too small for float tables: "
            f"the sampled law could be off by {bound:.3g} in total variation"
        )
    tables = (levels, [float(t.max()) for t in levels], list(zip(sizes, rests)), mass)
    dist.sum_tables = ((n, total), tables)
    return tables


class _UniformTape:
    """The uniform doubles of ``rng``, read ahead and handed out in order.

    A numpy Generator gives the same doubles from ``random(a)`` then
    ``random(b)`` as from one ``random(a + b)``, so a draw from the tape is
    the draw ``rng`` would have made, at the cost of one slice.  ``rewind``
    restores the state the tape started from and redraws the doubles handed
    out, which leaves ``rng`` where one call per draw would have left it,
    whatever its bit generator.
    """

    def __init__(self, rng: np.random.Generator, ahead: int):
        self._rng, self._ahead = rng, ahead
        self._start = rng.bit_generator.state
        self._buf = rng.random(ahead)
        self._pos = 0
        self._spent = 0  # doubles handed out from buffers before this one

    def random(self, size=None):
        pos = self._pos
        end = pos + (1 if size is None else size)
        if end > len(self._buf):  # top up: the unread rest, then a fresh read-ahead
            rest = self._buf[pos:]
            self._buf = np.concatenate((rest, self._rng.random(max(self._ahead, end - pos))))
            self._spent += pos
            pos, end = 0, end - pos
        self._pos = end
        return self._buf.item(pos) if size is None else self._buf[pos:end]

    def rewind(self):
        self._rng.bit_generator.state = self._start
        self._rng.random(self._spent + self._pos)


def _conditioned_degrees(n: int, total: int, dist: DegreeDistribution, rng: np.random.Generator) -> np.ndarray:
    """n iid draws from ``dist`` conditioned on summing to ``total``, exactly.

    The strategy is picked from pi^{*n}(total), which ``_sum_tables``
    computes.  A table with no tail whose length K is at most
    ``_MULTINOMIAL_MAX`` pi^{*n}(total) rejects whole vectors, drawn
    through their sufficient statistic: counts per degree value are
    multinomial, and given the counts the arrangement over vertices is a
    uniform shuffle, which is exactly the law of n iid draws.  Its expected
    1/pi^{*n}(total) vectors of K counts each cost at most
    ``_MULTINOMIAL_MAX`` counts.  Every other table goes to divide and
    conquer on the conditional laws of partial sums (Devroye,
    *Non-Uniform Random Variate Generation*, 1986, on conditioning and
    sums).  The total is split between the binary blocks of n by their
    exact conditional law; a block of 2^j vertices with sum t is then
    halved, with P = pi^{*2^(j-1)}:

    * if pi^{*2^j}(t) >= max P / 8, the left half is drawn iid through
      ``dist.sample`` and kept with probability P(t - s) / max P, where s
      is its sum: at most 8 tries on average;
    * otherwise, as when a hub has landed in a small block and iid halves
      almost never fit, the split s is drawn with weights P(s) P(t - s).

    A block of one vertex gets degree t.  Given exact tables the output has
    exactly the conditioned law; the tables are floats.

    Stream contract of the split path.  It reads nothing from ``rng`` but
    uniform doubles, in order: ``dist.sample`` (with ``_sample_tail``), the
    accept draws and ``_draw_split`` all take them from one
    ``_UniformTape``, which reads up to 4n ahead in one call and at the end
    rewinds ``rng`` to just past the doubles used.  The degrees and the
    generator's end state are those of one ``rng.random`` call per draw;
    the tape only saves the calls, about 165 ``dist.sample`` and 43
    ``_draw_split`` calls a host on the beta = 2.5 power law at n = 1000.

    Float error budget.  Tables past ``_DIRECT_CONVOLVE_MAX`` are built by
    numpy.fft, which errs by about e_c = eps log2(N) ||a||_2 ||b||_2 per
    entry whatever the entry's size (eps = 2^-52; ``_convolve``).  Noise of
    that size would give a tiny positive weight to a sum that no k degrees
    can reach, and such a split would end in a degree of probability 0; so
    every entry below k d_min or off k d_min + g Z (g the gcd of the
    support's gaps) is set to exactly 0, and negative noise is clipped to
    0.  The error per entry of every table is taken as e = the sum of e_c
    over all the convolutions, which also covers the error a level passes
    on to the next: on the beta = 2.5 power law at n = 10^4, 2m = 19484,
    e = 21 eps while every table is within 1.06 eps of ``np.convolve``.  A
    split whose tables are off by e per entry has a law off by at most
    2e / pi^{*2^j}(t) in total variation, and a block reaches sum t with
    probability pi^{*2^j}(t) pi^{*(n-2^j)}(total - t) / pi^{*n}(total), so
    over the fewer than n splits of a host the law is off by at most
    2 n e / pi^{*n}(total): 4e-9, 3e-7 and 1.4e-5 at n = 10^3, 10^4 and
    10^5 with the mean degree of that power law.  ``_sum_tables`` raises
    ``ValueError`` when that bound, with e at least the smallest normal
    float, exceeds ``_TV_TOLERANCE``, as for a total so far from n times
    the mean degree that pi^{*n}(total) sinks toward the noise or
    underflows.
    """
    levels, peaks, blocks, mass = _sum_tables(dist, n, total)
    if not dist.tail_mass and len(dist.probs) <= _MULTINOMIAL_MAX * mass:
        values = np.arange(len(dist.probs))
        batch = 64
        while True:
            counts = rng.multinomial(n, dist.probs, size=batch)
            hits = np.nonzero(counts @ values == total)[0]
            if hits.size:
                degrees = np.repeat(values, counts[hits[0]])
                rng.shuffle(degrees)
                return degrees
            batch = min(2 * batch, 8192)
    tape = _UniformTape(rng, min(4 * n, 1 << 16))  # about 3n doubles a power-law host
    degrees = np.empty(n, dtype=np.int64)
    todo = []  # blocks (first vertex, j, sum) still to split
    start = 0
    for j, rest in blocks:
        s = _draw_split(tape, levels[j], rest, total)
        todo.append((start, j, s))
        start += 1 << j
        total -= s
    while todo:
        start, j, t = todo.pop()
        if j == 0:
            degrees[start] = t
            continue
        half, peak, h = levels[j - 1], peaks[j - 1], 1 << (j - 1)
        if levels[j].item(t) * 8 >= peak:
            while True:
                left = dist.sample(tape, h)
                s = sum(left.tolist()) if h <= _SHORT else int(left.sum())
                if s <= t and t - s < len(half) and tape.random() * peak < half.item(t - s):
                    break
            degrees[start : start + h] = left
            todo.append((start + h, j - 1, t - s))
        else:
            s = _draw_split(tape, half, half, t)
            todo.append((start + h, j - 1, t - s))
            todo.append((start, j - 1, s))
    tape.rewind()
    return degrees
