"""Exact arithmetic in F_p: primitive roots, the coset partition, prime sieves.

The multiplicative group F_p^x is split by the subgroup generated by g^d into d
cosets of size k = (p-1)/d; together with {0} these form the d+1 classes that
everything downstream (periods, structure constants, curve counts) is built on.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import CompositeInput, ConfigInvalid, DivisorMismatch

# Largest p, and largest sieve bound, whose O(p) tables are built; larger
# ones are refused before any allocation.  is_prime is sized for this range.
MAX_P = 10**7


def is_prime(n: int) -> bool:
    """Deterministic trial division; intended for desk-scale n (<= MAX_P)."""
    return _prime_factors(n) == [n]


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
    """Smallest positive generator of F_p^x.

    Deterministic so that the labelling of cosets (which one is X_1, etc.)
    is reproducible across runs.
    """
    if not is_prime(p) or p == 2:
        raise CompositeInput(f"{p} is not an odd prime")
    factors = _prime_factors(p - 1)
    for g in range(2, p):
        if all(pow(g, (p - 1) // q, p) != 1 for q in factors):
            return g
    raise CompositeInput(f"no generator found for {p}")  # unreachable for prime p


@dataclass(frozen=True, eq=False)
class FieldContext:
    """Immutable description of the coset partition of F_p under <g^d>.

    coset_index[x] is the class of x: the exponent of x's coset for x != 0,
    and d for x = 0, held in the narrowest unsigned dtype that fits d (uint8
    up to d = 255).  cosets is a (d, k) view whose row i lists X_i in
    ascending power order g^i, g^{i+d}, g^{i+2d}, ..., which fixes the
    summation order used by the period computation; it views the (p-1,)
    power table g^0, ..., g^(p-2), so its rows are strided.  These two
    read-only tables are the whole context; the class d = {0} has no row.
    Equality is identity, so a context hashes: fieldwise == would compare
    the arrays and raise.
    """

    p: int
    g: int
    d: int
    k: int
    alpha: int
    coset_index: np.ndarray = field(repr=False)
    cosets: np.ndarray = field(repr=False)


def build_context(p: int, d: int) -> FieldContext:
    """Build the class-index and coset tables for (p, d)."""
    if p > MAX_P:
        raise ConfigInvalid(f"p={p} is above the table limit {MAX_P}")
    g = find_primitive_root(p)  # raises CompositeInput unless p is an odd prime
    if d < 1 or (p - 1) % d != 0:
        raise DivisorMismatch(f"d={d} does not divide p-1={p - 1}")
    k = (p - 1) // d

    # power table g^e for e = 0..p-2.  The first half by doubling: the powers
    # found so far, times g^done, are the next ones; products stay below
    # p^2 < 2^63.  The second half from -1 = g^half: g^(e + half) = p - g^e.
    half = (p - 1) // 2
    g_pows = np.empty(p - 1, dtype=np.int64)
    g_pows[0] = 1
    done = 1
    while done < half:
        step = g_pows[done:min(2 * done, half)]
        np.multiply(g_pows[:len(step)], pow(g, done, p), out=step)
        step %= p
        done += len(step)
    np.subtract(p, g_pows[:half], out=g_pows[half:])
    g_pows.flags.writeable = False

    # X_i in ascending power order g^i, g^{i+d}, ...: a read-only view of the
    # power table.  Every class label is < d + 1, so the index is the
    # narrowest unsigned type holding d, filled by one scatter of the labels
    # 0, 1, ..., d-1 repeated k times in power order.
    cosets = g_pows.reshape(k, d).T
    dt = np.min_scalar_type(d)
    coset_index = np.empty(p, dtype=dt)
    coset_index[g_pows] = np.tile(np.arange(d, dtype=dt), k)
    coset_index[0] = d
    coset_index.flags.writeable = False

    alpha = ((p - 1) // 2) % d
    return FieldContext(p=p, g=g, d=d, k=k, alpha=alpha,
                        coset_index=coset_index, cosets=cosets)


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
