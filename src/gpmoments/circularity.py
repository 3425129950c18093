"""Circularity of (p, k), decided from the order-k subgroup Gamma = <h>.

(p, k) is circular when any two distinct translated dilates of Gamma meet in
at most 2 points.  Reduced by affine maps, the largest intersection is the
largest cyclotomic number (i, j)_e of order e = (p-1)/k: the count of v in
class i with v + 1 in class j.  Two solutions v1 != v2 of one (i, j)_e are
one pair gamma = v1/v2 != delta = (v1 + 1)/(v2 + 1) of Gamma \\ {1}, and
v2 = (delta - 1)/(gamma - delta).  Classes are discrete logs mod e and
cls(h^t) = 0, so with gamma = h^s, delta = h^t and c[s] = cls(h^s - 1),
i = c[t] - c[s - t] and j = c[s] - c[s - t]: the key i*e + j collects
n(n - 1) pairs when (i, j)_e = n.

The classes come from `subgroup_classes`, the one class source of the scans
and of the fixed-k rows: Pohlig-Hellman lookups, or the class index of a
context where a small d = (p-1)/k makes that the cheaper (`INDEX_BELOW_D`).
A fixed-k row reads its row 0 and, for odd k, the (p, 2k) verdict off the
same classes, so it looks up about k/2 points at even k and k at odd k, and
sums its periods from their p, g and d, whichever the source.
"""

import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (ConfigInvalid, DimensionMismatch, DivisorMismatch,
                     PreconditionViolated)
from .field_core import (MAX_P, FieldContext, build_context, class_lookup,
                         powers_mod, primes_in_range)

PAIR_CHUNK = 1 << 16  # pairs whose keys are formed at once, at any k

# The class index is built in place of the lookups below this d = (p-1)/k.
# The lookups of a row take about a microsecond per unit of k, the index a
# few ns per element of F_p, p = dk + 1, so the rule is one on d.  For
# k >= 128 the two cost the same near d = 250, and below it the index is up
# to 3.6x cheaper (k = 1024, d ~ 50); for k <= 48 the two are within 20 us
# of each other at any d, a few percent of a row (README, "circularity")
INDEX_BELOW_D = 250


@dataclass(frozen=True)
class CircularityVerdict:
    p: int
    k: int
    circular: bool
    max_intersection: int
    # (m, t) with |Gamma ^ (Gamma g^m + t)| = max_intersection, when that is >= 3
    witness: tuple[int, int] | None


def index_is_cheaper(p: int, k: int) -> bool:
    """Whether the classes of a (p, k) row or scan come off a class index,
    built in O(p), rather than O(k) Pohlig-Hellman lookups: d < INDEX_BELOW_D."""
    return p - 1 < INDEX_BELOW_D * k


class SubgroupClasses:
    """The classes of order d = (p-1)/k at the points that a fixed-k row
    reads, Gamma = <h> with h = g^d.

    gamma[s] = h^s for s < k, int64.  classify maps an int64 array of
    nonzero residues to their classes mod d.  minus[s] = cls(h^s - 1) for
    s = 1..k-1 (minus[0] is 0 and never read) and, for odd k, plus[s] =
    cls(h^s + 1) for s < k.  Each is looked up at s <= k/2 only, as
    h^-s - 1 = -h^-s (h^s - 1) and h^-s + 1 = h^-s (h^s + 1): with
    cls(-x) = cls(x) + alpha, alpha the class of -1, minus[k-s] =
    minus[s] + alpha and plus[k-s] = plus[s].  Equality is identity.  A
    plain class, not a dataclass, as it costs nothing at import.
    """

    def __init__(self, p: int, k: int, g: int, gamma: np.ndarray,
                 classify: Callable[[np.ndarray], np.ndarray]):
        self.p, self.k, self.g, self.d = p, k, g, (p - 1) // k
        self.alpha = (p - 1) // 2 % self.d
        self.gamma, self.classify = gamma, classify

    @cached_property
    def minus(self) -> np.ndarray:
        k, half = self.k, self.k // 2
        out = np.zeros(k, dtype=np.int64)
        s = np.arange(1, half + 1)
        got = self.classify(self.gamma[1:half + 1] - 1)
        # at even k, s = k/2 is its own mirror, and alpha = 0
        out[k - s] = (got + self.alpha) % self.d
        out[s] = got
        return out

    @cached_property
    def plus(self) -> np.ndarray:
        if self.k % 2 == 0:  # h^(k/2) + 1 = 0 has no class
            raise PreconditionViolated("plus is read at odd k only")
        k, half = self.k, (self.k + 1) // 2
        got = self.classify(self.gamma[:half] + 1)
        out = np.empty(k, dtype=np.int64)
        out[:half] = got
        out[k - np.arange(1, half)] = got[1:]
        return out

    def row0(self) -> np.ndarray:
        """The classes of gamma + 1 for gamma in Gamma \\ {-1}, which row 0
        of the cyclotomic numbers, (0, w)_d, counts.  At even k, -1 = h^(k/2)
        and alpha = 0, so h^s + 1 = -(h^(s+k/2) - 1) has class minus[s+k/2]:
        row 0 is minus[1:]."""
        return self.minus[1:] if self.k % 2 == 0 else self.plus

    def verdict(self) -> CircularityVerdict:
        """The verdict on (p, k), from the pairs of Gamma at order d; with
        no pairs (k <= 2) no class is looked up."""
        return _verdict(self.p, self.k, self.g,
                        self.minus if self.k > 2 else None, self.d)

    def verdict_2k(self) -> CircularityVerdict:
        """The verdict on (p, 2k) for odd k, at order e = d/2, from the same
        classes.  Its subgroup is <h'>, h' = g^e, with h'^(2t) = h^t and
        h'^k = -1, so h'^(2t+1) = -h^(t + (k+1)/2).  Its c'[2t] is minus[t]
        and c'[2t+1] = cls(-(h^t' + 1)) is plus[t'], t' = t + (k+1)/2,
        both mod e: alpha = d/2 is 0 mod e."""
        k, e, r = self.k, self.d // 2, (self.k + 1) // 2
        c = np.empty(2 * k, dtype=np.int64)
        c[0::2] = self.minus
        c[1::2] = np.concatenate((self.plus[r:], self.plus[:r]))
        return _verdict(self.p, 2 * k, self.g, c % e, e)


def subgroup_classes(p: int, k: int,
                     ctx: FieldContext | None = None) -> SubgroupClasses:
    """The class source of (p, k), d = (p-1)/k: the index of ctx, a context
    of (p, d), when one is given (`verify` builds one anyway); else the
    index of a context built here when `index_is_cheaper`, else lookups.
    Either way p is proved prime once, by its primitive root; p above
    MAX_P is refused first."""
    if k < 1 or (p - 1) % k != 0:
        raise DivisorMismatch(f"k={k} does not divide p-1={p - 1}")
    d = (p - 1) // k
    if ctx is not None and (ctx.p, ctx.d) != (p, d):
        raise DimensionMismatch(
            f"context of ({ctx.p}, d={ctx.d}) cannot classify ({p}, d={d})")
    if p > MAX_P:
        raise ConfigInvalid(f"p={p} is above the table limit {MAX_P}")
    if ctx is None and index_is_cheaper(p, k):
        ctx = build_context(p, d)
    if ctx is not None:
        g, index = ctx.g, ctx.coset_index

        def classify(x: np.ndarray) -> np.ndarray:
            return index[x].astype(np.int64)
    else:
        # k/2 lookups for minus at even k; at odd k a row adds as many for plus
        g, cls = class_lookup(p, d, k if k % 2 else k // 2)

        def classify(x: np.ndarray) -> np.ndarray:
            return np.array([cls(v) for v in x.tolist()], dtype=np.int64)
    gamma = powers_mod(pow(g, d, p), k, p)
    return SubgroupClasses(p=p, k=k, g=g, gamma=gamma, classify=classify)


def _most_pairs(c: np.ndarray, k: int, e: int) -> tuple[int, int]:
    """(count, key): the most pairs one key i*e + j collects, k > 2, and the
    first key in key order with as many, c[s] = cls(h^s - 1) mod e (int64,
    c[0] unread).  O(k^2) work; the keys go, a block at a time, to a dense
    e*e histogram when that is no longer than the pairs, else to np.unique,
    so the memory is O(min(k^2, p))."""
    n = k - 1
    s = np.arange(1, k)
    dense = e * e <= n * (n - 1)
    out, pos = np.zeros(e * e if dense else n * (n - 1), np.int64), 0
    rows = max(1, PAIR_CHUNK // n)
    for a in range(1, k, rows):
        u = np.arange(a, min(a + rows, k))[:, None]
        t = (s - u) % k  # t = 0 is delta = 1: dropped
        key = ((c[t] - c[u]) % e * e + (c[s] - c[u]) % e)[t != 0]
        if dense:
            out += np.bincount(key, minlength=e * e)
        else:
            out[pos:pos + len(key)] = key
            pos += len(key)
    if not dense:
        keys, out = np.unique(out, return_counts=True)
    best = int(out.argmax())
    return int(out[best]), best if dense else int(keys[best])


def _verdict(p: int, k: int, g: int, c: np.ndarray | None,
             e: int) -> CircularityVerdict:
    """The verdict on (p, k) from c[s] = cls(h^s - 1) mod e, e = (p-1)/k.
    With no pairs (k <= 2) each (i, j)_e is at most 1, and c is not read.
    The witness is read off the first largest (i, j)_e in key order: m =
    j - i and t = g^(alpha - i), mod e, alpha the class of -1."""
    max_int, witness = 1, None
    if k > 2:
        count, key = _most_pairs(c, k, e)
        max_int = (1 + math.isqrt(1 + 4 * count)) // 2  # count = n(n - 1)
        if max_int >= 3:
            i, j = divmod(key, e)
            witness = ((j - i) % e, pow(g, ((p - 1) // 2 - i) % e, p))
    return CircularityVerdict(p=p, k=k, circular=max_int <= 2,
                              max_intersection=max_int, witness=witness)


def is_circular(p: int, k: int) -> CircularityVerdict:
    """Decide circularity from the pairs of Gamma, reading the classes of
    `subgroup_classes`; p is proved prime on the way."""
    return subgroup_classes(p, k).verdict()


def circularity_verdicts(k: int, p_max: int) -> list[CircularityVerdict]:
    """Verdicts on (p, k) for the primes 3 <= p <= p_max with k | (p-1),
    ascending."""
    return [is_circular(p, k) for p in primes_in_range(3, p_max, (k, 1))]


def scan_noncircular(k: int, p_max: int) -> list[int]:
    """Ascending primes p <= p_max with k | (p-1) that are not circular."""
    if k < 2:
        raise PreconditionViolated("k must be >= 2")
    return [v.p for v in circularity_verdicts(k, p_max) if not v.circular]
