"""Brute-force circularity oracles, independent of the structure tensor.

These enumerate the subgroup Gamma of order k in F_p^x and its translated
dilates directly; the package decides circularity from cyclotomic numbers,
and the tests compare the two.
"""

from gpmoments.field_core import find_primitive_root


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
