"""Truncated multivariate power series over exact rationals.

A series is a sparse map from exponent tuples to Fraction coefficients,
together with an ordered variable tuple and a per-variable truncation cap.
All arithmetic is exact; no floats enter this module.  Series values are
immutable: every operation returns a fresh object.

The exponential-generating-function conventions used elsewhere live here as
``class_egf``: the EGF of the isomorphism class of a single shape F is

    multigraph:  (prod_v y_{deg v}) z^n(F) w^m(F) / aut(F)
    simple:      (prod_v y_{deg v}) z^n(F) w^m(F) / aut(F)

which equals oracle.canonical_copies(F) z^n/n! w^m/(2^m m!)  (multigraph
convention, all y = 1), respectively oracle.canonical_copies(F) z^n/n! w^m for
simple graphs.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping, Union

from .graphs import Graph, aut_count

Rational = Union[int, Fraction]


class TruncatedSeries:
    __slots__ = ("variables", "caps", "coeffs")

    def __init__(
        self,
        variables: Iterable[str],
        caps: Iterable[int],
        coeffs: Mapping[tuple[int, ...], Rational] | None = None,
    ):
        variables = tuple(variables)
        caps = tuple(int(c) for c in caps)
        if len(variables) != len(caps):
            raise ValueError("one cap per variable required")
        if len(set(variables)) != len(variables):
            raise ValueError("duplicate variable names")
        clean: dict[tuple[int, ...], Fraction] = {}
        for expo, c in (coeffs or {}).items():
            expo = tuple(int(e) for e in expo)
            if len(expo) != len(variables):
                raise ValueError("exponent arity mismatch")
            if any(e < 0 for e in expo):
                raise ValueError("negative exponent")
            if any(e > cap for e, cap in zip(expo, caps)):
                continue  # beyond the cap: truncated away
            c = Fraction(c)
            if c != 0:
                clean[expo] = clean.get(expo, Fraction(0)) + c
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "caps", caps)
        object.__setattr__(self, "coeffs", {e: c for e, c in clean.items() if c != 0})

    def __setattr__(self, name, value):
        raise AttributeError("TruncatedSeries is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(variables: Iterable[str] = (), caps: Iterable[int] = ()) -> "TruncatedSeries":
        return TruncatedSeries(variables, caps, {})

    @staticmethod
    def constant(value: Rational, variables: Iterable[str] = (), caps: Iterable[int] = ()) -> "TruncatedSeries":
        variables = tuple(variables)
        caps = tuple(caps)
        return TruncatedSeries(variables, caps, {(0,) * len(variables): Fraction(value)})

    @staticmethod
    def monomial(powers: Mapping[str, int], coeff: Rational, caps: Mapping[str, int]) -> "TruncatedSeries":
        variables = tuple(sorted(caps))
        expo = tuple(powers.get(v, 0) for v in variables)
        return TruncatedSeries(variables, (caps[v] for v in variables), {expo: Fraction(coeff)})

    # -- helpers -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def constant_term(self) -> Fraction:
        return self.coeffs.get((0,) * len(self.variables), Fraction(0))

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        a, b = _align(self, other)
        return a.coeffs == b.coeffs

    def __repr__(self) -> str:
        items = sorted(self.coeffs.items())[:8]
        caps = dict(zip(self.variables, self.caps))
        return f"TruncatedSeries({caps}, {items}{'...' if len(self.coeffs) > 8 else ''})"

    # -- ring operations ----------------------------------------------------

    def __add__(self, other) -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            other = TruncatedSeries.constant(other, self.variables, self.caps)
        a, b = _align(self, other)
        out = dict(a.coeffs)
        for expo, c in b.coeffs.items():
            out[expo] = out.get(expo, Fraction(0)) + c
        return TruncatedSeries(a.variables, a.caps, out)

    __radd__ = __add__

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries(self.variables, self.caps, {e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other) -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            other = TruncatedSeries.constant(other, self.variables, self.caps)
        return self + (-other)

    def __rsub__(self, other) -> "TruncatedSeries":
        return (-self) + other

    def scale(self, value: Rational) -> "TruncatedSeries":
        value = Fraction(value)
        return TruncatedSeries(self.variables, self.caps, {e: c * value for e, c in self.coeffs.items()})

    def __mul__(self, other) -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            return self.scale(other)
        a, b = _align(self, other)
        caps = a.caps
        out: dict[tuple[int, ...], Fraction] = {}
        small, large = (a, b) if len(a.coeffs) <= len(b.coeffs) else (b, a)
        for e1, c1 in small.coeffs.items():
            for e2, c2 in large.coeffs.items():
                expo = tuple(x + y for x, y in zip(e1, e2))
                if any(e > cap for e, cap in zip(expo, caps)):
                    continue
                out[expo] = out.get(expo, Fraction(0)) + c1 * c2
        return TruncatedSeries(a.variables, caps, out)

    __rmul__ = __mul__

    def pow(self, k: int) -> "TruncatedSeries":
        if k < 0:
            raise ValueError("nonnegative exponents only")
        result = TruncatedSeries.constant(1, self.variables, self.caps)
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    __pow__ = pow

    def exp(self) -> "TruncatedSeries":
        """exp of a series with zero constant term, truncated exactly."""
        if self.constant_term() != 0:
            raise ValueError("exp needs a zero constant term")
        result = TruncatedSeries.constant(1, self.variables, self.caps)
        term = result
        k = 1
        while True:
            term = (term * self).scale(Fraction(1, k))
            if term.is_zero():
                break
            result = result + term
            k += 1
        return result

    def derivative(self, var: str, order: int = 1) -> "TruncatedSeries":
        if order < 0:
            raise ValueError("derivative order must be >= 0")
        idx = self.variables.index(var)
        coeffs = self.coeffs
        for _ in range(order):
            out: dict[tuple[int, ...], Fraction] = {}
            for expo, c in coeffs.items():
                e = expo[idx]
                if e == 0:
                    continue
                new = expo[:idx] + (e - 1,) + expo[idx + 1 :]
                out[new] = out.get(new, Fraction(0)) + c * e
            coeffs = out
        return TruncatedSeries(self.variables, self.caps, coeffs)

    # -- extraction and substitution ----------------------------------------

    def extract(self, powers: Mapping[str, int]) -> Fraction:
        """Coefficient of the given monomial; exponents must be within caps."""
        expo = []
        for v, cap in zip(self.variables, self.caps):
            e = powers.get(v, 0)
            if e > cap:
                raise ValueError(f"exponent {e} above cap {cap} for {v}")
            expo.append(e)
        for v in powers:
            if v not in self.variables and powers[v] != 0:
                raise ValueError(f"unknown variable {v}")
        return self.coeffs.get(tuple(expo), Fraction(0))

    def substitute_value(self, var: str, value: Rational) -> "TruncatedSeries":
        """Evaluate one variable at an exact rational value."""
        idx = self.variables.index(var)
        value = Fraction(value)
        variables = self.variables[:idx] + self.variables[idx + 1 :]
        caps = self.caps[:idx] + self.caps[idx + 1 :]
        out: dict[tuple[int, ...], Fraction] = {}
        for expo, c in self.coeffs.items():
            new = expo[:idx] + expo[idx + 1 :]
            out[new] = out.get(new, Fraction(0)) + c * value ** expo[idx]
        return TruncatedSeries(variables, caps, out)

    def substitute_shift(self, var: str, shift: Rational) -> "TruncatedSeries":
        """Replace var by (var + shift), truncated at the same cap."""
        idx = self.variables.index(var)
        shift = Fraction(shift)
        out: dict[tuple[int, ...], Fraction] = {}
        for expo, c in self.coeffs.items():
            k = expo[idx]
            for i in range(k + 1):
                new = expo[:idx] + (i,) + expo[idx + 1 :]
                contrib = c * math.comb(k, i) * shift ** (k - i)
                out[new] = out.get(new, Fraction(0)) + contrib
        return TruncatedSeries(self.variables, self.caps, out)

    def substitute_w_over_1pw(self, var: str = "w") -> "TruncatedSeries":
        """Replace var^k by the truncated expansion of (var/(1+var))^k.

        (w/(1+w))^k = w^k sum_j binom(-k, j) w^j; the cap on var bounds j.
        """
        idx = self.variables.index(var)
        cap = self.caps[idx]
        out: dict[tuple[int, ...], Fraction] = {}
        for expo, c in self.coeffs.items():
            k = expo[idx]
            if k == 0:
                out[expo] = out.get(expo, Fraction(0)) + c
                continue
            for j in range(cap - k + 1):
                coeff = c * (-1) ** j * math.comb(k + j - 1, j)
                new = expo[:idx] + (k + j,) + expo[idx + 1 :]
                out[new] = out.get(new, Fraction(0)) + coeff
        return TruncatedSeries(self.variables, self.caps, out)

    def to_debug_json(self) -> dict:
        """Debug dump {exponent string: coefficient string}."""
        key = lambda e: " ".join(f"{v}^{p}" for v, p in zip(self.variables, e) if p) or "1"
        return {key(e): str(c) for e, c in sorted(self.coeffs.items())}


def _align(a: TruncatedSeries, b: TruncatedSeries):
    """Common variable tuple (sorted union); shared caps are intersected."""
    if a.variables == b.variables and a.caps == b.caps:
        return a, b
    a_caps = dict(zip(a.variables, a.caps))
    b_caps = dict(zip(b.variables, b.caps))
    variables = tuple(sorted(set(a.variables) | set(b.variables)))
    caps = tuple(
        min(a_caps.get(v, 10**9), b_caps.get(v, 10**9)) for v in variables
    )

    def remap(s: TruncatedSeries) -> TruncatedSeries:
        pos = {v: i for i, v in enumerate(s.variables)}
        out = {}
        for expo, c in s.coeffs.items():
            new = tuple(expo[pos[v]] if v in pos else 0 for v in variables)
            out[new] = out.get(new, Fraction(0)) + c
        return TruncatedSeries(variables, caps, out)

    return remap(a), remap(b)


# ---------------------------------------------------------------------------
# EGFs of shape classes


def degree_mark_name(d: int) -> str:
    return f"y{d}"


def class_egf(f: Graph, z_cap: int, w_cap: int, marks: bool = False) -> TruncatedSeries:
    """EGF of the isomorphism-closed family of one shape.

    With ``marks`` each vertex of degree d contributes a factor y_d; the
    degree-mark variables are materialized only for degrees that occur.
    """
    caps = {"z": z_cap, "w": w_cap}
    powers = {"z": f.n, "w": f.m}
    if marks:
        for d in f.degrees():
            name = degree_mark_name(d)
            powers[name] = powers.get(name, 0) + 1
            caps[name] = z_cap  # generous: a family never exceeds z_cap marks
    return TruncatedSeries.monomial(powers, Fraction(1, aut_count(f)), caps)


def family_egf(shapes: Iterable[Graph], z_cap: int, w_cap: int, marks: bool = False) -> TruncatedSeries:
    total = TruncatedSeries.zero(("w", "z"), (w_cap, z_cap))
    for f in shapes:
        total = total + class_egf(f, z_cap, w_cap, marks=marks)
    return total


# ---------------------------------------------------------------------------
# Lagrange inversion identity


def solve_tree_like(phi: TruncatedSeries, var: str, out_var: str, order: int) -> TruncatedSeries:
    """T with T(z) = z * phi(T(z)), phi(0) != 0, as a series in out_var.

    Fixed-point iteration gains one correct order per round because
    phi(T) mod z^{k+1} only depends on T mod z^k.
    """
    if phi.variables != (var,):
        raise ValueError("phi must be univariate")
    if phi.constant_term() == 0:
        raise ValueError("phi(0) must be nonzero")
    z = TruncatedSeries.monomial({out_var: 1}, 1, {out_var: order})
    t = TruncatedSeries.zero((out_var,), (order,))
    for _ in range(order + 1):
        t = z * compose_univariate(phi, t, out_var)
    return t


def compose_univariate(outer: TruncatedSeries, inner: TruncatedSeries, out_var: str) -> TruncatedSeries:
    """outer(inner) for univariate outer and inner with inner(0) = 0.

    Horner evaluation over the truncated ring in ``out_var``.
    """
    if len(outer.variables) != 1:
        raise ValueError("outer must be univariate")
    if inner.constant_term() != 0:
        raise ValueError("inner must have zero constant term")
    max_deg = max((e[0] for e in outer.coeffs), default=0)
    result = TruncatedSeries.zero(inner.variables, inner.caps)
    for k in range(max_deg, -1, -1):
        c = outer.coeffs.get((k,), Fraction(0))
        result = result * inner + TruncatedSeries.constant(c, inner.variables, inner.caps)
    return result


def lagrange_identity_check(h: TruncatedSeries, phi: TruncatedSeries, order: int) -> bool:
    """Verify [t^n] H Phi^n = [z^n] (z T'/T) H(T) for all n <= order, exactly.

    T is the tree-like series solving T = z Phi(T).  Both sides are computed
    independently with series arithmetic only.  order is capped at 12.
    """
    if order > 12:
        raise ValueError("order capped at 12")
    if len(phi.variables) != 1 or phi.variables != h.variables:
        raise ValueError("h and phi must be univariate in the same variable")
    if phi.constant_term() == 0:
        raise ValueError("phi(0) must be nonzero")
    var = phi.variables[0]
    if phi.caps[0] < order or h.caps[0] < order:
        raise ValueError("series caps too small for requested order")
    t = solve_tree_like(phi, var, "zz", order + 1)
    # z T'/T = T' / (T/z), with T/z a unit series
    inv = _invert_unit(_shift_down(t, "zz"))
    rhs_series = t.derivative("zz") * inv * compose_univariate(h, t, "zz")
    for n in range(order + 1):
        lhs = (h * phi.pow(n)).extract({var: n})
        rhs = rhs_series.extract({"zz": n})
        if lhs != rhs:
            return False
    return True


def _shift_down(s: TruncatedSeries, var: str) -> TruncatedSeries:
    """Divide by var (requires no constant term in var)."""
    idx = s.variables.index(var)
    out = {}
    for expo, c in s.coeffs.items():
        if expo[idx] == 0:
            if c != 0:
                raise ValueError("series not divisible by variable")
            continue
        out[expo[:idx] + (expo[idx] - 1,) + expo[idx + 1 :]] = c
    return TruncatedSeries(s.variables, s.caps, out)


def _invert_unit(s: TruncatedSeries) -> TruncatedSeries:
    """Multiplicative inverse of a series with nonzero constant term."""
    c0 = s.constant_term()
    if c0 == 0:
        raise ValueError("series has no multiplicative inverse")
    rest = (s - TruncatedSeries.constant(c0, s.variables, s.caps)).scale(Fraction(1) / c0)
    # 1/(c0 (1 + rest)) = (1/c0) sum (-rest)^k
    result = TruncatedSeries.constant(1, s.variables, s.caps)
    term = result
    while True:
        term = term * (-rest)
        if term.is_zero():
            break
        result = result + term
    return result.scale(Fraction(1) / c0)
