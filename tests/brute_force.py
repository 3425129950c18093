"""Brute-force oracles, independent of the structure tensor.

discrete_log and gauss_sum_aggregate are pow loops over F_p that the
package's tables replace; periods_by_class sums the periods one class at a
time over all k complex exponentials, the accuracy baseline that the
package's halved sums are measured against; class_members lists a class of
a context, the border class d = {0} included, for the oracles that enumerate
classes.  The circularity oracles enumerate the subgroup Gamma of order k in
F_p^x and its translated dilates directly; the package decides circularity
from cyclotomic numbers, and the tests compare the two;
diagonal_counts_check recounts the diagonal cyclotomic numbers of a
circular pair with Python sets, and half_inverse_check places the single
diagonal count 1 of even k at the class of 1/2.  brute_projective counts the
points of a twisted diagonal curve by trying every point of P^2(F_p);
dictionary_check compares a curve count with its structure-constant
prediction.
"""

import cmath
import math

import numpy as np

from gpmoments import (PowerTable, PreconditionViolated, count_projective,
                       is_circular, predicted_count)
from gpmoments.field_core import find_primitive_root
from gpmoments.superchar import CheckResult


def discrete_log(p: int, g: int) -> dict[int, int]:
    """x -> e with g^e = x for e = 0..p-2, by repeated multiplication."""
    out = {}
    x = 1
    for e in range(p - 1):
        out[x] = e
        x = x * g % p
    return out


def class_members(ctx, i: int) -> list[int]:
    """The elements of class i: the coset X_i for i < d, {0} for i = d."""
    return [0] if i == ctx.d else [int(x) for x in ctx.cosets[i]]


def periods_by_class(ctx) -> np.ndarray:
    """eta with one numpy sum of all k exponentials per class: the accuracy
    baseline for compute_periods, which sums half of the terms."""
    eta = np.empty(ctx.d, dtype=np.complex128)
    for a in range(ctx.d):
        eta[a] = np.exp(2j * np.pi * ctx.cosets[a] / ctx.p).sum()
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
    coset self-intersection |X_m ^ (X_m + 1)|, counted with Python sets."""
    verdict = is_circular(ctx.p, ctx.k, tensor)
    if not verdict.circular:
        return [CheckResult("diagonal_counts", False, True,
                            f"({ctx.p},{ctx.k}) not circular; skipped")]
    diagonal = tensor.constant(0, np.arange(ctx.d), np.arange(ctx.d))
    out = []
    for m in range(ctx.d):
        c = int(diagonal[m])
        shifted = {(int(x) + 1) % ctx.p for x in ctx.cosets[m]}
        direct = len(set(int(x) for x in ctx.cosets[m]) & shifted)
        out.append(CheckResult(f"diagonal_m{m}", True,
                               c in (0, 1, 2) and c == direct,
                               f"c={c} direct={direct}"))
    return out


def half_inverse_check(ctx, tensor) -> list[CheckResult]:
    """Even k: the single diagonal count equal to 1 sits at the class of 1/2."""
    if ctx.k % 2 != 0:
        raise PreconditionViolated("k must be even")
    m_star = int(ctx.coset_index[pow(2, ctx.p - 2, ctx.p)])
    diagonal = tensor.constant(0, np.arange(ctx.d), np.arange(ctx.d))
    out = []
    for m in range(ctx.d):
        c = int(diagonal[m])
        ok = (c == 1) if m == m_star else (c in (0, 2))
        out.append(CheckResult(f"half_inverse_m{m}", True, ok,
                               f"c={c} class_of_half={m_star}"))
    return out


def dictionary_check(ctx, tensor, i: int, j: int, k: int,
                     table: PowerTable | None = None) -> bool:
    """Whether the enumerated count matches the structure-constant prediction."""
    return count_projective(ctx, i, j, k, table).M == predicted_count(ctx, tensor, i, j, k)


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
