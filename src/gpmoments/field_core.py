"""Exact arithmetic in F_p: primitive roots, the coset partition, prime sieves.

The multiplicative group F_p^x is split by the subgroup generated by g^d into d
cosets of size k = (p-1)/d; together with {0} these form the d+1 classes that
everything downstream (periods, structure constants, curve counts) is built on.
The class of a point is either read off the O(p) class index of a context, its
one table, or looked up on its own by Pohlig-Hellman (`class_lookup`), in
O(sqrt q) steps for q the largest prime power dividing d.  The cosets
themselves are not stored: X_a in power order is g^a h^j, h = g^d, and
`periods` forms it from p, g and d where it sums it.
"""

import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .errors import CompositeInput, ConfigInvalid, DivisorMismatch

# Largest p, and largest sieve bound, whose O(p) tables are built; larger
# ones are refused before any allocation.  The trial division of p - 1 in
# find_primitive_root is sized for this range.
MAX_P = 10**7

# Exponents whose powers build_context forms at once.  Its scratch is two
# int64 blocks and an int32 one (640 KiB) and a label pattern at every p,
# and a block is long enough that numpy's per-call cost stays small beside
# the per-element work.
POWER_BLOCK = 1 << 15


def _prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n, ascending; [] for n < 2."""
    out = []
    q = 2
    while q * q <= n:
        if n % q == 0:
            out.append(q)
            while n % q == 0:
                n //= q
        q += 2 if q > 2 else 1
    if n > 1:
        out.append(n)
    return out


def find_primitive_root(p: int) -> int:
    """Smallest generator g of F_p^x; CompositeInput unless p is an odd prime.

    g is the first candidate with g^((p-1)/q) != 1 for every prime q | p-1.
    It is returned only if g^(p-1) = 1 too: then it has order p - 1, which
    proves p prime (Lucas).  A composite p is refused at its smallest prime
    factor r at the latest, as no power of r is 1 mod p.  The smallest g
    fixes the coset labels (which one is X_1, etc.) across runs.
    """
    return _root_and_factors(p)[0]


def _root_and_factors(p: int) -> tuple[int, list[int]]:
    """(g, the distinct prime factors of p - 1), as find_primitive_root
    proves them: the factors serve the class lookups as well."""
    if p > 2:
        factors = _prime_factors(p - 1)
        g = next(c for c in range(2, p)
                 if all(pow(c, (p - 1) // q, p) != 1 for q in factors))
        if pow(g, p - 1, p) == 1:
            return g, factors
    raise CompositeInput(f"{p} is not an odd prime")


@dataclass(frozen=True, eq=False)
class FieldContext:
    """Immutable description of the coset partition of F_p under <g^d>.

    coset_index[x] is the class of x: the exponent of x's coset for x != 0,
    and d for x = 0, held in the narrowest unsigned dtype that fits d (uint8
    up to d = 255).  This one read-only table is the whole context,
    coset_index.itemsize * p bytes: one byte per element of F_p at d <= 255.
    The coset X_a in power order is g^a, g^{a+d}, ..., which is all
    `compute_periods` needs besides p, g and d.  Equality is identity, so
    a context hashes: fieldwise == would compare the arrays and raise.
    """

    p: int
    g: int
    d: int
    k: int
    alpha: int
    coset_index: np.ndarray = field(repr=False)


def powers_mod(c: int, n: int, p: int) -> np.ndarray:
    """c^0, ..., c^(n-1) mod p as int64, n >= 1.  The first few come from a
    Python loop, the rest by doubling: the powers known so far, times c
    raised to their count, are the next ones.  O(log n) numpy steps, each
    product below p^2 < 2^63."""
    seed = [1]
    for _ in range(min(n, 8) - 1):
        seed.append(seed[-1] * c % p)
    x = np.empty(n, dtype=np.int64)
    done = len(seed)
    x[:done] = seed
    c = seed[-1] * c % p  # c^done
    r = np.empty(n // 2, dtype=np.int64)
    while done < n:
        step = min(done, n - done)
        y = np.multiply(x[:step], c, out=x[done:done + step])
        # numpy divides by a scalar faster than it takes a remainder
        y -= np.multiply(np.floor_divide(y, p, out=r[:step]), p, out=r[:step])
        done += step
        c = c * c % p
    return x


def build_context(p: int, d: int) -> FieldContext:
    """Build the class index of (p, d).

    The powers g^e are formed POWER_BLOCK exponents at a time, scattered
    into the class index and dropped, so the build holds only block-sized
    scratch beside the index: at p ~ 1e6 and d <= 255 it peaks at about 1.8
    bytes per element of F_p, of which it keeps one.
    """
    if p > MAX_P:
        raise ConfigInvalid(f"p={p} is above the table limit {MAX_P}")
    g = find_primitive_root(p)  # raises CompositeInput unless p is an odd prime
    if d < 1 or (p - 1) % d != 0:
        raise DivisorMismatch(f"d={d} does not divide p-1={p - 1}")
    k = (p - 1) // d

    # The powers g^e, e = 0 .. p-2, are formed a block of m exponents at a
    # time, each block scattered into the index with the classes e mod d of
    # its exponents, read off a label pattern; no p-long temporary is made.
    half = (p - 1) // 2
    m = min(half, POWER_BLOCK)
    dt = np.min_scalar_type(d)
    coset_index = np.empty(p, dtype=dt)
    # 0, 1, ..., d-1 repeated so that any m consecutive classes are one slice
    # (for d > m, _labels makes a ramp instead).  One repeat is a few µs
    # cheaper than np.tile, which shows at fixed k; made before the scratch
    # below, its arange(d) is freed before the peak.
    pattern = (np.arange(d, dtype=dt)[None].repeat((m - 1) // d + 2, axis=0)
               .ravel() if d <= m else None)

    # Exponents s .. s+n-1 are the baby powers g^0 .. g^(m-1) times g^s,
    # reduced as b - (b // p) p: numpy divides by a scalar faster than it
    # takes a remainder.  -1 = g^half gives the second half: g^(e + half) =
    # p - g^e.  The later blocks, at most half - m exponents each, read their
    # baby powers off an int32 copy of the first block (exact since
    # p <= MAX_P < 2^31).
    x = powers_mod(g, m, p)
    q = np.empty(min(m, half - m), dtype=np.int64)
    baby = x[:len(q)].astype(np.int32)
    for s in range(0, half, m):
        n = min(m, half - s)
        b = x[:n]
        if s:
            np.multiply(baby[:n], pow(g, s, p), out=b, dtype=np.int64)
            r = np.floor_divide(b, p, out=q[:n])
            r *= p
            b -= r
        coset_index[b] = _labels(s, n, d, pattern)
        np.subtract(p, b, out=b)
        coset_index[b] = _labels(half + s, n, d, pattern)
    coset_index[0] = d
    coset_index.flags.writeable = False
    alpha = ((p - 1) // 2) % d
    return FieldContext(p=p, g=g, d=d, k=k, alpha=alpha,
                        coset_index=coset_index)


def _labels(e: int, n: int, d: int, pattern: np.ndarray | None) -> np.ndarray:
    """The classes (e + i) mod d of the n exponents e, ..., e + n - 1, n at
    most the block: a slice of the pattern when there is one, else a ramp
    from e mod d that wraps at most once, since then n < d.  Neither is
    O(d) or O(p) long."""
    r = e % d
    if pattern is not None:
        return pattern[r:r + n]
    lab = np.arange(r, r + n, dtype=np.int32)  # below d + n < 2^31
    lab[d - r:] -= d
    return lab


def class_lookup(p: int, d: int, n: int) -> tuple[int, Callable[[int], int]]:
    """(g, cls) with g = find_primitive_root(p) and cls(x) the class of x in
    a context of (p, d): log_g(x) mod d for x in F_p^x, and d for x = 0, as
    the class index holds.  The log is found by Pohlig and Hellman: for each
    prime power q^e dividing d exactly, x^((p-1)/q^e) = c^L in the group of
    order q^e generated by c = g^((p-1)/q^e), with L = log_g(x) mod q^e
    found by baby-step giant-step, and the residues joined by the Chinese
    remainder theorem.  The factors of p - 1 that prove p prime give those
    of d; a d that does not divide p - 1 is refused with DivisorMismatch.

    n, the number of lookups expected, sizes each baby table at about
    m = sqrt(n q^e / 2) entries, the whole group once n >= 2 q^e: a lookup
    takes q^e / 2m giant steps on average, so the n lookups and the table
    cost about 2m steps per q^e between them.
    """
    g, factors = _root_and_factors(p)
    if d < 1 or (p - 1) % d != 0:
        raise DivisorMismatch(f"d={d} does not divide p-1={p - 1}")
    parts = []
    for q in factors:
        if d % q:
            continue
        qe = q
        while d % (qe * q) == 0:
            qe *= q
        c = pow(g, (p - 1) // qe, p)
        m = min(qe, math.isqrt(n * qe // 2) + 1)
        baby, y = {}, 1
        for i in range(m):
            baby[y] = i
            y = y * c % p
        rest = d // qe
        # y = c^m: a giant step divides by it
        parts.append(((p - 1) // qe, baby, pow(y, -1, p), m,
                      rest * pow(rest, -1, qe)))

    def cls(x: int) -> int:
        if x % p == 0:  # no giant step would ever reach a 0
            return d
        acc = 0
        for exp, baby, giant, m, coef in parts:
            y, j = pow(x, exp, p), 0
            while (i := baby.get(y)) is None:
                y = y * giant % p
                j += m
            acc += (i + j) * coef
        return acc % d

    return g, cls


def primes_in_range(lo: int, hi: int,
                    residue_filter: tuple[int, int] | None = None) -> list[int]:
    """Ascending primes in [lo, hi], optionally only p = residue (mod modulus)."""
    if hi < lo or hi < 2:
        return []
    if hi > MAX_P:
        raise ConfigInvalid(f"sieve bound {hi} is above the table limit {MAX_P}")
    sieve = np.ones(hi + 1, dtype=bool)
    sieve[:2] = False
    for q in range(2, int(hi ** 0.5) + 1):
        if sieve[q]:
            sieve[q * q::q] = False
    ps = np.flatnonzero(sieve)
    ps = ps[ps >= lo]
    if residue_filter is not None:
        modulus, residue = residue_filter
        ps = ps[ps % modulus == residue % modulus]
    return [int(p) for p in ps]
