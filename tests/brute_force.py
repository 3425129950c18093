"""Brute-force oracles, all but one independent of the structure tensor.

discrete_log, cyclotomic_numbers and gauss_sum_aggregate are pow loops
over F_p that the package's tables replace; coset_rows lists every coset
X_i in power order with Python pow, rows the package never stores;
periods_by_class sums the periods one class at a time over all k complex
exponentials, the accuracy baseline that the package's halved sums are
measured against; class_members lists a class of a context, the border
class d = {0} included, for the oracles that enumerate classes.  The
circularity oracles enumerate the subgroup Gamma of order k in
F_p^x and its translated dilates directly; the package decides circularity
from pairs of the subgroup, and the tests compare the two;
largest_number_verdict reads the verdict off the largest stored cyclotomic
number of order (p-1)/k, the tensor path the package's pair count replaced,
and tensor_fixed_k_report is the whole fixed-k report as the tensor path
made it, the oracle of the package's table-free `fixed_k_report`;
diagonal_counts_check recounts the diagonal cyclotomic numbers of a
circular pair with Python sets, and half_inverse_check places the single
diagonal count 1 of even k at the class of 1/2.  brute_projective counts the
points of a twisted diagonal curve by trying every point of P^2(F_p);
subgroup_projective counts them from the subgroup X_0 and the coset index,
without the structure tensor; dictionary_check compares the package's count,
read off the structure constants, with subgroup_projective.
fermat_count_from_periods and hurwitz_count_from_periods are the period
formulas for the diagonal solution counts, rounded from complex floats;
gauss_cubic_L and cubic_period_power_sums give the exact power sums of the
d = 3 periods from Gauss's period polynomial, with no table at all;
vn_d2_closed_form is V_n at d = 2 from the two quadratic periods, in floats.
is_prime is trial division, the oracle for the refusals of
find_primitive_root, whose Lucas test is the package's one primality proof.
"""

import cmath
import functools
import math
from fractions import Fraction

import numpy as np

from gpmoments import (CircularityVerdict, MomentReport, NotCircular,
                       PreconditionViolated, build_context, build_report,
                       build_tensor, count_projective, is_circular,
                       v4_fixed_k)
from gpmoments.field_core import find_primitive_root
from gpmoments.superchar import CheckResult


def is_prime(n: int) -> bool:
    """Trial division by every q with q * q <= n."""
    return n >= 2 and all(n % q for q in range(2, math.isqrt(n) + 1))


def discrete_log(p: int, g: int) -> dict[int, int]:
    """x -> e with g^e = x for e = 0..p-2, by repeated multiplication."""
    out = {}
    x = 1
    for e in range(p - 1):
        out[x] = e
        x = x * g % p
    return out


def cyclotomic_numbers(p: int, g: int, e: int) -> dict[int, int]:
    """key i*e + j -> (i, j)_e = #{v : v in class i, v + 1 in class j} for
    the nonzero numbers of order e, classifying v = 1..p-2 by discrete log."""
    dlog = discrete_log(p, g)
    out: dict[int, int] = {}
    for v in range(1, p - 1):
        key = dlog[v] % e * e + dlog[v + 1] % e
        out[key] = out.get(key, 0) + 1
    return out


def coset_rows(ctx) -> np.ndarray:
    """The read-only (d, k) int64 array whose row i is X_i in power order:
    entry (i, j) is pow(g, i + d*j, p), in pure Python, so it owes nothing
    to the blocks of build_context or the strips of compute_periods."""
    return _coset_rows(ctx.p, ctx.g, ctx.d)


@functools.lru_cache(maxsize=32)
def _coset_rows(p: int, g: int, d: int) -> np.ndarray:
    k = (p - 1) // d
    rows = np.array([[pow(g, i + d * j, p) for j in range(k)] for i in range(d)],
                    dtype=np.int64)
    rows.flags.writeable = False
    return rows


def class_members(ctx, i: int) -> list[int]:
    """The elements of class i: the coset X_i for i < d, {0} for i = d."""
    return [0] if i == ctx.d else coset_rows(ctx)[i].tolist()


def periods_by_class(ctx) -> np.ndarray:
    """eta with one numpy sum of all k exponentials per class: the accuracy
    baseline for compute_periods, which sums half of the terms."""
    eta = np.empty(ctx.d, dtype=np.complex128)
    for a, row in enumerate(coset_rows(ctx)):
        eta[a] = np.exp(2j * np.pi * row / ctx.p).sum()
    return eta


def gauss_sum_aggregate(p: int, d: int) -> complex:
    """Sum of e^(2 pi i n^d / p) over n = 0..p-1.

    Each element of the index-d subgroup is a d-th power exactly d times, so
    this equals 1 + d*eta[0]; the tests check that identity.  The exponent
    here is d, not k: summing n^k instead does not reproduce 1 + d*eta[0].
    """
    return sum(cmath.exp(2j * math.pi * pow(n, d, p) / p) for n in range(p))


def subgroup(p: int, k: int) -> tuple[int, list[int]]:
    """(g, Gamma) with g the smallest primitive root and Gamma = <g^d>
    listed in power order."""
    g = find_primitive_root(p)
    d = (p - 1) // k
    gd = pow(g, d, p)
    elems = []
    x = 1
    for _ in range(k):
        elems.append(x)
        x = x * gd % p
    return g, elems


def circularity_by_pairs(p: int, k: int) -> tuple[bool, int, tuple[int, int] | None]:
    """(circular, max_intersection, first witness) over all reduced (m, t).

    |Gamma ^ (Gamma g^m + t)| equals the number of pairs (a, b) in Gamma^2
    with a - g^m b = t, so each m is one pass over the k^2 differences.
    (m, t) = (0, 0) is the same-circle case and is excluded.
    """
    g, gamma = subgroup(p, k)
    d = (p - 1) // k
    max_int = 0
    witness = None
    for m in range(d):
        gm = pow(g, m, p)
        coset = [x * gm % p for x in gamma]
        counts: dict[int, int] = {}
        for a in gamma:
            for c in coset:
                t = (a - c) % p
                counts[t] = counts.get(t, 0) + 1
        if m == 0:
            counts.pop(0, None)
        for t, n in counts.items():
            if n > max_int:
                max_int = n
                if n >= 3 and witness is None:
                    witness = (m, t)
    return max_int <= 2, max_int, witness


def largest_number_verdict(p: int, k: int) -> CircularityVerdict:
    """The verdict on (p, k) read off the stored cyclotomic numbers of order
    e = (p-1)/k, `build_tensor(build_context(p, e))`: the largest
    (i, j)_e = n, and for n >= 3 the witness of the first largest in key
    order, m = j - i and t = g^(alpha - i) (mod e), alpha the class of -1."""
    return _largest_number_verdict(build_tensor(build_context(p, (p - 1) // k)), k)


def _largest_number_verdict(tensor, k: int) -> CircularityVerdict:
    p, e = tensor.ctx.p, tensor.ctx.d
    best = int(tensor.counts.argmax())
    n = int(tensor.counts[best])
    i, j = divmod(int(tensor.keys[best]), e)
    witness = None
    if n >= 3:
        witness = ((j - i) % e, pow(tensor.ctx.g, (tensor.ctx.alpha - i) % e, p))
    return CircularityVerdict(p=p, k=k, circular=n <= 2, max_intersection=n,
                              witness=witness)


def tensor_fixed_k_report(p: int, k: int) -> MomentReport:
    """The report of a fixed-k row as the tensor path made it: build_report
    on the context and tensor of (p, d), d = (p-1)/k, its count checks
    included; the verdicts on (p, k) and, for odd k when that one is
    circular, (p, 2k) read off the largest stored cyclotomic numbers; and
    the fixed-k form, heading the report, when v4_fixed_k accepts them."""
    tensor = build_tensor(build_context(p, (p - 1) // k))
    rpt = build_report(tensor)
    vk = rpt.circularity = _largest_number_verdict(tensor, k)
    v2k = rpt.circularity_2k = (largest_number_verdict(p, 2 * k)
                                if k % 2 and vk.circular else None)
    try:
        value = v4_fixed_k(vk, v2k)
    except NotCircular:
        return rpt
    rpt.formula = "v4_fixed_k_even" if k % 2 == 0 else "v4_fixed_k_odd"
    rpt.formula_values[rpt.formula] = value
    rpt.checks.append(CheckResult(rpt.formula, value == rpt.v4_exact))
    return rpt


def replay_witness(p: int, k: int, witness: tuple[int, int]) -> int:
    """|Gamma ^ (Gamma g^m + t)| at witness (m, t), counted directly."""
    m, t = witness
    g, gamma = subgroup(p, k)
    gm = pow(g, m, p)
    translated = {(x * gm + t) % p for x in gamma}
    return len(set(gamma) & translated)


def intersection_size(p: int, k: int, a: int, b: int, c: int, e: int) -> int:
    """|(Gamma a + b) ^ (Gamma c + e)| computed directly, no reduction."""
    _, gamma = subgroup(p, k)
    s1 = {(x * a + b) % p for x in gamma}
    s2 = {(x * c + e) % p for x in gamma}
    return len(s1 & s2)


def diagonal_counts_check(ctx, tensor) -> list[CheckResult]:
    """For circular (p, k): each diagonal count is at most 2 and equals the
    coset self-intersection |X_m ^ (X_m + 1)|, counted with Python sets.
    A non-circular pair has no such check: []."""
    if not is_circular(ctx.p, ctx.k).circular:
        return []
    diagonal = tensor.constant(np.arange(ctx.d), np.arange(ctx.d))
    out = []
    for m in range(ctx.d):
        c = int(diagonal[m])
        members = class_members(ctx, m)
        shifted = {(x + 1) % ctx.p for x in members}
        direct = len(set(members) & shifted)
        out.append(CheckResult(f"diagonal_m{m}",
                               c in (0, 1, 2) and c == direct,
                               f"c={c} direct={direct}"))
    return out


def half_inverse_check(ctx, tensor) -> list[CheckResult]:
    """Even k: the single diagonal count equal to 1 sits at the class of 1/2."""
    if ctx.k % 2 != 0:
        raise PreconditionViolated("k must be even")
    m_star = int(ctx.coset_index[pow(2, ctx.p - 2, ctx.p)])
    diagonal = tensor.constant(np.arange(ctx.d), np.arange(ctx.d))
    out = []
    for m in range(ctx.d):
        c = int(diagonal[m])
        ok = (c == 1) if m == m_star else (c in (0, 2))
        out.append(CheckResult(f"half_inverse_m{m}", ok,
                               f"c={c} class_of_half={m_star}"))
    return out


def subgroup_projective(ctx, i: int, j: int, k: int) -> int:
    """Points of g^i x^d + g^j y^d = g^k z^d on P^2(F_p), from the subgroup
    X_0 = <g^d> of size k = (p-1)/d.

    Dividing the equation by g^i, and absorbing the d-th powers g^(d m) into
    y and z, leaves the same projective points, so M(i, j, k) = M(0, j', r)
    with j' = (j - i) mod d and r = (k - i) mod d.  On the patch z = 1, x^d
    is 0 once and takes each u in X_0 exactly d times.  With
    h(w) = #{y : y^d = w}, h(g^e) = d when d | e and 0 otherwise, h(0) = 1,
    and W_r[c] = #{u in X_0 : g^r - u in X_c} for c = 0..d (class d = {0}):

        sum_x h((g^r - x^d) / g^j') = h(g^(r - j')) + d (d W_r[j'] + W_r[d]).

    The patch z = 0, y = 1 solves x^d = -g^j' = g^(alpha + j'), which adds
    d [d | alpha + j']; the point [1:0:0] would need g^i = 0.  So a curve
    needs one row W_r: the k differences g^r - u, classified by the coset
    index.
    """
    p, d = ctx.p, ctx.d
    jp, r = (j - i) % d, (k - i) % d
    diffs = (pow(ctx.g, r, p) - coset_rows(ctx)[0]) % p
    w = np.bincount(ctx.coset_index[diffs], minlength=d + 1)
    m = (d if r == jp else 0) + d * (d * int(w[jp]) + int(w[d]))
    return m + (d if (ctx.alpha + jp) % d == 0 else 0)


def dictionary_check(tensor, i: int, j: int, k: int) -> bool:
    """Whether the count read off the structure constants matches the count
    from the subgroup X_0."""
    return (count_projective(tensor, i, j, k).M
            == subgroup_projective(tensor.ctx, i, j, k))


def brute_projective(ctx, i: int, j: int, k: int) -> int:
    """Points of g^i x^d + g^j y^d = g^k z^d on P^2(F_p), by canonical
    representatives [x:y:1], [x:1:0] and [1:0:0]."""
    p, d, g = ctx.p, ctx.d, ctx.g
    gi, gj, gk = pow(g, i, p), pow(g, j, p), pow(g, k, p)

    def on_curve(x, y, z):
        return (gi * pow(x, d, p) + gj * pow(y, d, p) - gk * pow(z, d, p)) % p == 0

    count = sum(1 for x in range(p) for y in range(p) if on_curve(x, y, 1))
    count += sum(1 for x in range(p) if on_curve(x, 1, 0))
    count += 1 if on_curve(1, 0, 0) else 0
    return count


def _rounded(value: complex) -> int:
    if abs(value.imag) > 1e-3 or abs(value.real - round(value.real)) > 1e-3:
        raise ValueError(f"float count {value} is not near an integer")
    return round(value.real)


def fermat_count_from_periods(ctx, eta, n: int) -> int:
    """#{x in F_p^n : x_1^d + ... + x_n^d = 0} as
    p^(n-1) + (p-1)/(p d) sum_a (1 + d eta_a)^n, rounded; trustworthy while
    the count is far below 2^52."""
    p, d = ctx.p, ctx.d
    total = complex(np.sum((1 + d * eta) ** n))
    return _rounded(p ** (n - 1) + (p - 1) / (p * d) * total)


def hurwitz_count_from_periods(ctx, eta) -> int:
    """#{x, y, z nonzero : x^d + y^d + z^d = 0} as
    ((p-1)^3 + (p-1) d^2 sum_a eta_a^3) / p, rounded."""
    p, d = ctx.p, ctx.d
    s3 = complex(np.sum(eta ** 3))
    return _rounded(((p - 1) ** 3 + (p - 1) * d * d * s3) / p)


def gauss_cubic_L(p: int) -> int:
    """The L with 4p = L^2 + 27 M^2 and L = 1 (mod 3), for a prime
    p = 1 (mod 3), by a search over M."""
    for m in range(math.isqrt(4 * p // 27) + 1):
        rest = 4 * p - 27 * m * m
        L = math.isqrt(rest)
        if L * L == rest:
            return L if L % 3 == 1 else -L
    raise ValueError(f"no representation 4p = L^2 + 27M^2 for p={p}")


def cubic_period_power_sums(p: int, n: int) -> list[Fraction]:
    """sum_a eta_a^m for m = 0..n at d = 3, by Newton's identities on
    Gauss's period polynomial x^3 + x^2 - (p-1)/3 x - (Lp + 3p - 1)/27."""
    L = gauss_cubic_L(p)
    e1, e2, e3 = -1, Fraction(-(p - 1), 3), Fraction(L * p + 3 * p - 1, 27)
    s = [Fraction(3), Fraction(e1)]
    s.append(e1 * s[1] - 2 * e2)
    s.append(e1 * s[2] - e2 * s[1] + 3 * e3)
    while len(s) <= n:
        s.append(e1 * s[-1] - e2 * s[-2] + e3 * s[-3])
    return s[:n + 1]


def vn_d2_closed_form(p: int, n: int) -> float:
    """V_n at d = 2 in floats, branching on p mod 4: the periods are
    (-1 +- sqrt(p))/2 or (-1 +- i sqrt(p))/2."""
    if n < 1:
        raise PreconditionViolated("n must be >= 1")
    if p % 4 == 1:
        total = sum(math.comb(n, 2 * j) * p ** (n / 2 - j)
                    for j in range(n // 2 + 1))
        return 2.0 ** (1 - n) * total
    return 2.0 ** (1 - n) * (p + 1) ** (n / 2)
