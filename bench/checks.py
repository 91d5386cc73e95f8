"""Independent checks of the program's outputs.

Nothing here imports graphcensus.  Sampled hosts are checked from their raw
edge arrays: invariants with numpy, copy counts recomputed with scipy.sparse
from the multiplicity (or adjacency) matrix.  Exact answers are checked
against closed forms, a dynamic program over degree sequences and a
brute-force enumeration of every canonical multigraph, all written here.

Every checker returns a list of error strings; an empty list means the
result passed.  ``self_test`` feeds each checker a result that is off by one
and reports the checkers that failed to reject it.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from itertools import combinations, product

import numpy as np

# ---------------------------------------------------------------------------
# sampled hosts


def host_errors(n, u, v, n_expected, m_expected, min_degree=None, max_degree=None, simple=False):
    """Invariants of one host given as 1-based endpoint arrays u, v."""
    errors = []
    if n != n_expected:
        errors.append(f"host has n = {n}, expected {n_expected}")
    if len(u) != m_expected or len(v) != m_expected:
        errors.append(f"host has {len(u)} edges, expected {m_expected}")
    ends = np.concatenate((u, v))
    if ends.size and (ends.min() < 1 or ends.max() > n):
        return errors + ["endpoint outside 1..n"]
    degrees = np.bincount(ends, minlength=n + 1)[1:]
    if int(degrees.sum()) != 2 * m_expected:
        errors.append(f"degree sum {int(degrees.sum())}, expected {2 * m_expected}")
    if max_degree is not None and degrees.size and int(degrees.max()) > max_degree:
        errors.append(f"a vertex has degree {int(degrees.max())} > {max_degree}")
    if min_degree is not None and degrees.size and int(degrees.min()) < min_degree:
        errors.append(f"a vertex has degree {int(degrees.min())} < {min_degree}")
    if simple:
        if (u == v).any():
            errors.append("simple host has a loop")
        codes = np.minimum(u, v) * (n + 1) + np.maximum(u, v)
        if np.unique(codes).size != codes.size:
            errors.append("simple host repeats a vertex pair")
    return errors


def _symmetric(n, u, v):
    """Sparse n x n matrix of unordered pair multiplicities, zero diagonal."""
    from scipy import sparse

    keep = u != v
    ones = np.ones(int(keep.sum()), dtype=np.int64)
    half = sparse.coo_matrix((ones, (u[keep] - 1, v[keep] - 1)), shape=(n, n)).tocsr()
    return (half + half.T).tocsr()


def _row_sums(mat) -> list[int]:
    return [int(x) for x in np.asarray(mat.sum(axis=1)).ravel()]


def recount_multigraph(n, u, v, patterns) -> dict[str, int]:
    """Copy counts from the multiplicity matrix M (zero diagonal).

    c3 = tr(M^3)/6, p3 = sum(s1^2 - s2)/2 and
    k13 = sum(s1^3 - 3 s1 s2 + 2 s3)/6, where s_k is a vertex's power sum of
    multiplicities.  Sums are taken in Python integers.
    """
    mult = _symmetric(n, u, v)
    s1 = _row_sums(mult)
    s2 = _row_sums(mult.multiply(mult))
    s3 = _row_sums(mult.multiply(mult).multiply(mult))
    out = {}
    for p in patterns:
        if p == "c3":
            out[p] = _exact_div(int((mult @ mult).multiply(mult).sum()), 6)
        elif p == "p3":
            out[p] = _exact_div(sum(a * a - b for a, b in zip(s1, s2)), 2)
        elif p == "k13":
            total = sum(a**3 - 3 * a * b + 2 * c for a, b, c in zip(s1, s2, s3))
            out[p] = _exact_div(total, 6)
        else:
            raise ValueError(f"no independent multigraph recount for {p!r}")
    return out


def recount_simple(n, u, v, patterns) -> dict[str, int]:
    """Copy counts from the adjacency matrix A of a simple host.

    c3 = tr(A^3)/6, p4 = sum over edges uv of (d_u - 1)(d_v - 1) - 3 c3 and
    c4 = (tr(A^4) - 2 sum d^2 + 2m)/8.
    """
    adj = _symmetric(n, u, v)
    deg = _row_sums(adj)
    sq = adj @ adj
    c3 = _exact_div(int(sq.multiply(adj).sum()), 6)
    out = {}
    for p in patterns:
        if p == "c3":
            out[p] = c3
        elif p == "p4":
            out[p] = sum((deg[a - 1] - 1) * (deg[b - 1] - 1) for a, b in zip(u.tolist(), v.tolist())) - 3 * c3
        elif p == "c4":
            closed4 = int(sq.multiply(sq).sum())
            out[p] = _exact_div(closed4 - 2 * sum(d * d for d in deg) + 2 * len(u), 8)
        else:
            raise ValueError(f"no independent simple-graph recount for {p!r}")
    return out


def _exact_div(total: int, k: int) -> int:
    # a remainder means the recount itself is wrong; never round it away
    q, r = divmod(total, k)
    return q if r == 0 else -1


def count_errors(got: dict[str, int], want: dict[str, int]) -> list[str]:
    return [f"{p}: program counted {got[p]}, recount gives {want[p]}" for p in want if got[p] != want[p]]


# ---------------------------------------------------------------------------
# exact answers


def falling(x: int, k: int) -> int:
    out = 1
    for i in range(k):
        out *= x - i
    return out


def uniform_multigraph_expectation(name: str, n: int, m: int) -> Fraction:
    """E[copies] in a uniform canonical (n,m)-multigraph (2m iid uniform labels)."""
    c2 = math.comb(m, 2)
    if name == "loop":
        return Fraction(m, n)
    if name == "edge":
        return Fraction(m * (n - 1), n)
    if name == "double-edge":
        # two distinct edges, the first no loop, the second on the same pair
        return Fraction(c2 * (n - 1) * 2, n**3)
    if name == "p3":
        # shared endpoint (2 x 2 positions), centre, two distinct other ends
        return Fraction(c2 * 4 * n * (n - 1) * (n - 2), n**4)
    if name == "c3":
        return Fraction(math.comb(n, 3) * m * (m - 1) * (m - 2) * 8, n**6)
    raise ValueError(f"no closed form for multigraph {name!r}")


# copies of each pattern in the complete graph K_n, and its edge count
_SIMPLE_FORMS = {
    "edge": (lambda n: math.comb(n, 2), 1),
    "p3": (lambda n: 3 * math.comb(n, 3), 2),
    "c3": (lambda n: math.comb(n, 3), 3),
    "c4": (lambda n: 3 * math.comb(n, 4), 4),
}


def uniform_simple_expectation(name: str, n: int, m: int) -> Fraction:
    """E[copies] in a uniform simple (n,m)-graph: copies(K_n) C(N-e, m-e)/C(N, m)."""
    copies, e = _SIMPLE_FORMS[name]
    pairs = math.comb(n, 2)
    return Fraction(copies(n) * math.comb(pairs - e, m - e), math.comb(pairs, m))


def weighted_c3_expectation(coeffs: list[int], n: int, m: int) -> Fraction:
    """E[c3] under the degree weights delta_d = coeffs[d] (integers).

    A degree sequence d with sum 2m carries weight prod delta_{d_i}/d_i!
    (the (2m)! of its arrangements cancels), and given d a host is a
    uniform arrangement of the stubs, so
    E[c3 | d] = 8 (m)_3 / (2m)_6 * e3((d_1)_2, ..., (d_n)_2).
    The dynamic program runs over vertices, tracking the partial degree sum
    and e_0..e_3 of the (d_i)_2 values, in integers scaled by D!.
    """
    top = len(coeffs) - 1
    weight = [coeffs[d] * math.factorial(top) // math.factorial(d) for d in range(top + 1)]
    pairs = [d * (d - 1) for d in range(top + 1)]
    target = 2 * m
    state = {0: (1, 0, 0, 0)}
    for _ in range(n):
        new: dict[int, list[int]] = {}
        for s, (e0, e1, e2, e3) in state.items():
            for d in range(top + 1):
                if weight[d] == 0 or s + d > target:
                    continue
                a, w = pairs[d], weight[d]
                acc = new.setdefault(s + d, [0, 0, 0, 0])
                acc[0] += w * e0
                acc[1] += w * (e1 + a * e0)
                acc[2] += w * (e2 + a * e1)
                acc[3] += w * (e3 + a * e2)
        state = {s: tuple(vec) for s, vec in new.items()}
    total, _, _, e3 = state[target]
    return Fraction(8 * falling(m, 3) * e3, falling(2 * m, 6) * total)


def slice_bound(name: str, m: int) -> int:
    """Largest possible copy count: every edge a loop, or every edge triple a triangle."""
    if name == "loop":
        return m
    if name == "c3":
        return math.comb(m, 3)
    raise ValueError(f"no slice bound for {name!r}")


def brute_force_slices(name: str, n: int, m: int) -> Counter:
    """N_t for every t, by enumerating all n^(2m) canonical multigraphs."""
    tally: Counter = Counter()
    for seq in product(range(n), repeat=2 * m):
        edges = [(seq[2 * j], seq[2 * j + 1]) for j in range(m)]
        if name == "loop":
            t = sum(a == b for a, b in edges)
        elif name == "c3":
            t = 0
            for trio in combinations(edges, 3):
                if any(a == b for a, b in trio):
                    continue
                pairs = {frozenset(e) for e in trio}
                if len(pairs) == 3 and len(frozenset().union(*pairs)) == 3:
                    t += 1
        else:
            raise ValueError(f"no brute force for {name!r}")
        tally[t] += 1
    return tally


def slice_errors(n: int, m: int, slices: list, expectation: Fraction) -> list[str]:
    """Sum_t N_t = n^(2m) and sum_t t N_t = n^(2m) E[count]."""
    errors = []
    total = n ** (2 * m)
    if sum(slices) != total:
        errors.append(f"slices sum to {sum(slices)}, expected {total}")
    first = sum(t * x for t, x in enumerate(slices))
    if first != total * expectation:
        errors.append(f"sum t N_t = {first}, expected {total * expectation}")
    return errors


def brute_errors(slices: list, brute: Counter) -> list[str]:
    errors = [f"N_{t} = {x}, brute force gives {brute.get(t, 0)}" for t, x in enumerate(slices) if x != brute.get(t, 0)]
    if sum(brute.values()) != sum(slices):
        errors.append("brute force finds counts beyond the slices")
    return errors


def value_errors(got, want) -> list[str]:
    return [] if got == want else [f"program gives {got}, independent value {want}"]


# ---------------------------------------------------------------------------
# self-test


def self_test(host=None, counts=None, recount=None, host_rules=None, exact=None):
    """Names of the checkers that accept a result off by one (empty: all reject).

    ``host`` is (n, u, v) of a real host with its ``counts`` and the
    ``recount`` function and ``host_rules`` (n, m, min_degree, max_degree,
    simple) its workload uses.  ``exact`` is a list of (label, answer, want)
    taken from real queries; for slices, want is (n, m, expectation, brute).
    """
    missed = []
    if host is not None:
        n, u, v = host
        n_exp, m_exp, lo, hi, simple = host_rules

        def rejects(n2, u2, v2):
            return bool(host_errors(n2, u2, v2, n_exp, m_exp, lo, hi, simple))

        if rejects(n, u, v):
            missed.append("host invariants reject a valid host")
        if not rejects(n + 1, u, v):
            missed.append("host vertex count")
        if not rejects(n, u[:-1], v[:-1]):
            missed.append("host edge count")
        ends = np.concatenate((u, v))
        deg = np.bincount(ends, minlength=n + 1)
        if hi is not None:
            # move one endpoint onto a vertex of degree hi: it reaches hi + 1
            top = int(np.argmax(deg))
            j = int(np.nonzero((u != top) & (v != top))[0][0])
            u2 = u.copy()
            u2[j] = top
            if deg[top] != hi or not rejects(n, u2, v):
                missed.append("host degree upper bound")
        if lo is not None:
            # move one endpoint off a vertex of degree lo: it drops to lo - 1
            lows = np.nonzero(deg[1:] == lo)[0]
            if lows.size:
                low = int(lows[0]) + 1
                k = int(np.nonzero(ends == low)[0][0])
                ends2 = ends.copy()
                ends2[k] = 1 if low != 1 else 2
                u2, v2 = ends2[: len(u)], ends2[len(u) :]
            if not lows.size or not rejects(n, u2, v2):
                missed.append("host degree lower bound")
        if simple:
            u2, v2 = u.copy(), v.copy()
            v2[0] = u2[0]
            if not rejects(n, u2, v2):
                missed.append("simple host loop")
            u2, v2 = u.copy(), v.copy()
            u2[1], v2[1] = u[0], v[0]
            if not rejects(n, u2, v2):
                missed.append("simple host repeated pair")
        want = recount(n, u, v, list(counts))
        if count_errors(counts, want):
            missed.append("recount rejects the program's correct counts")
        for p in counts:
            if not count_errors({**counts, p: counts[p] + 1}, want):
                missed.append(f"recount of {p}")
    for label, answer, want in exact or []:
        if label == "slices":
            n, m, expectation, brute = want
            if slice_errors(n, m, answer, expectation) or brute_errors(answer, brute):
                missed.append("slice checks reject correct slices")
            bumped = [answer[0] + 1] + answer[1:]
            if not slice_errors(n, m, bumped, expectation):
                missed.append("slice sum check")
            shifted = [answer[0] + 1, answer[1] - 1] + answer[2:]
            if not slice_errors(n, m, shifted, expectation):
                missed.append("slice first-moment check")
            if not brute_errors(shifted, brute):
                missed.append("slice brute force")
        elif value_errors(answer, want) or not value_errors(answer + 1, want):
            missed.append(f"{label} closed form")
    return missed
