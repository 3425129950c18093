"""Brute-force oracles, independent of the structure tensor.

discrete_log and gauss_sum_aggregate are pow loops over F_p that the
package's tables replace; class_members lists a class of a context, the border
class d = {0} included, for the oracles that enumerate classes.  The
circularity oracles enumerate the subgroup Gamma of order k in F_p^x and its
translated dilates directly; the package decides circularity from cyclotomic
numbers, and the tests compare the two.  brute_projective counts
the points of a twisted diagonal curve by trying every point of P^2(F_p).
"""

import cmath
import math

from gpmoments.field_core import find_primitive_root


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
