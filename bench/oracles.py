"""Independent computations the benchmark checks the program's outputs against.

Nothing here imports gpmoments.  Every value is derived from first principles
with numpy and Python integers, so a fault in the program cannot hide in its
own oracle:

- the coset of y in F_p^x under the index-d subgroup H is read off y^k
  (k = (p-1)/d), so no primitive root or discrete-log table is needed;
- V_4 at d = 3 comes from Gauss's cubic period polynomial in exact integers;
- circularity is a brute-force count of |Gamma ∩ (C + t)| over every coset C
  and every shift t;
- point and solution counts come from the histogram of x -> x^d.
"""

import math

import numpy as np

_INT64_SAFE = 3_037_000_499  # largest p whose products of residues fit in int64


def primes_upto(n: int) -> np.ndarray:
    """Ascending primes <= n by the sieve of Eratosthenes."""
    if n < 2:
        return np.zeros(0, dtype=np.int64)
    sieve = np.ones(n + 1, dtype=bool)
    sieve[:2] = False
    for q in range(2, math.isqrt(n) + 1):
        if sieve[q]:
            sieve[q * q::q] = False
    return np.flatnonzero(sieve).astype(np.int64)


def primes_in(lo: int, hi: int, modulus: int = 1) -> list[int]:
    """Ascending primes p in [lo, hi] with p = 1 (mod modulus), p odd."""
    ps = primes_upto(hi)
    ps = ps[(ps >= max(lo, 3)) & (ps % modulus == 1 % modulus)]
    return [int(p) for p in ps]


def powmod(base: np.ndarray, e: int, p: int) -> np.ndarray:
    """Elementwise base^e mod p by square-and-multiply in int64."""
    if p > _INT64_SAFE:
        raise ValueError(f"p={p} too large for int64 residue products")
    result = np.ones_like(base, dtype=np.int64)
    b = np.asarray(base, dtype=np.int64) % p
    while e:
        if e & 1:
            result = result * b % p
        b = b * b % p
        e >>= 1
    return result


def coset_labels(p: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """(ys, label): ys = 1..p-1 and label[i] in 0..d-1 names the coset of ys[i]
    under the subgroup of order k = (p-1)/d; label 0 is the subgroup itself."""
    if (p - 1) % d:
        raise ValueError(f"d={d} does not divide p-1={p - 1}")
    ys = np.arange(1, p, dtype=np.int64)
    key = powmod(ys, (p - 1) // d, p)  # y^k: equal exactly on cosets
    values, label = np.unique(key, return_inverse=True)
    if len(values) != d:
        raise ValueError(f"{p} is not prime: {len(values)} cosets for d={d}")
    return ys, label.reshape(-1)  # y^k = 1 sorts first: the subgroup is 0


def v4_gauss_cubic(p: int) -> int:
    """V_4 = sum of eta_a^4 at d = 3 from Gauss's cubic period polynomial.

    Write 4p = L^2 + 27 M^2 with L = 1 (mod 3).  The three periods are the
    roots of x^3 + x^2 - (p-1)/3 x - (Lp + 3p - 1)/27, so e1 = -1,
    e2 = -(p-1)/3, e3 = (Lp + 3p - 1)/27, and Newton's identities give the
    fourth power sum.  The periods are real (k = (p-1)/3 is even), so this is
    the sum of |eta_a|^4.
    """
    if p % 3 != 1:
        raise ValueError(f"p={p} is not 1 mod 3")
    for m in range(math.isqrt(4 * p // 27) + 1):
        r = 4 * p - 27 * m * m
        ell = math.isqrt(r)
        if ell * ell == r:
            break
    else:
        raise ValueError(f"no representation 4p = L^2 + 27M^2 for p={p}")
    if ell % 3 != 1:
        ell = -ell
    num = ell * p + 3 * p - 1
    if num % 27:
        raise ValueError(f"(Lp + 3p - 1) not divisible by 27 at p={p}")
    e1, e2, e3 = -1, -(p - 1) // 3, num // 27
    p1 = e1
    p2 = e1 * p1 - 2 * e2
    p3 = e1 * p2 - e2 * p1 + 3 * e3
    return e1 * p3 - e2 * p2 + e3 * p1


def v4_float(p: int, d: int) -> float:
    """Sum of |eta_a|^4 from periods summed in float64, coset by coset."""
    ys, label = coset_labels(p, d)
    angle = 2.0 * np.pi * ys / p
    re = np.bincount(label, weights=np.cos(angle), minlength=d)
    im = np.bincount(label, weights=np.sin(angle), minlength=d)
    return float(np.sum((re * re + im * im) ** 2))


def max_intersection(p: int, k: int) -> int:
    """max |Gamma ∩ (C + t)| over cosets C of the order-k subgroup Gamma and
    shifts t, leaving out (C, t) = (Gamma, 0).

    Counts the pairs (a, c) in Gamma x (F_p^x) with a - c = t, keyed by
    (coset of c, t): k (p - 1) differences in all.
    """
    ys, label = coset_labels(p, (p - 1) // k)
    gamma = ys[label == 0]
    t = (gamma[:, None] - ys[None, :]) % p
    key = (label[None, :] * p + t).reshape(-1)
    key = key[key != 0]  # label 0, t = 0: Gamma against itself
    return int(np.unique(key, return_counts=True)[1].max())


def fixed_k_closed_form(p: int, k: int) -> int:
    """The paper's V_4 for circular (p, k): 3p(k-1) - k^3 for even k, and
    p(2k-1) - k^3 for odd k (which also needs (p, 2k) circular)."""
    if k % 2 == 0:
        return 3 * p * (k - 1) - k ** 3
    return p * (2 * k - 1) - k ** 3


class DiagonalCounts:
    """Exact counts on the diagonal forms x_1^d + ... + x_n^d over F_p.

    h[v] = #{x : x^d = v} is 1 at v = 0, d on the subgroup H of d-th powers
    and 0 elsewhere.  N2(v) = #{(x, y) : x^d + y^d = v} = sum_u h[u] h[v - u]
    needs only u in {0} ∪ H, and N2 is constant on each coset of H (scale x
    and y by a d-th root).  Sums over all v then run over one representative
    per coset.
    """

    def __init__(self, p: int, d: int):
        if (p - 1) % d:
            raise ValueError(f"d={d} does not divide p-1={p - 1}")
        self.p, self.d, self.k = p, d, (p - 1) // d
        x = np.arange(p, dtype=np.int64)
        self.h = np.bincount(powmod(x, d, p), minlength=p)
        self.H = np.flatnonzero(self.h[1:]) + 1
        if len(self.H) != self.k or int(self.h[0]) != 1:
            raise ValueError(f"{p} is not prime or d={d} is wrong")
        ys, label = coset_labels(p, d)
        self.reps = [int(ys[np.argmax(label == c)]) for c in range(d)]

    def n2(self, v: int) -> int:
        """#{(x, y) in F_p^2 : x^d + y^d = v}."""
        p = self.p
        return int(self.h[v % p]) + self.d * int(self.h[(v - self.H) % p].sum())

    def solutions(self, n: int) -> int:
        """#{x in F_p^n : x_1^d + ... + x_n^d = 0}, the zero tuple included."""
        k = self.k
        if n == 2:
            return self.n2(0)
        if n == 3:  # sum_v N2(v) h[-v]: v = 0, and the coset -H of size k
            return self.n2(0) + self.d * k * self.n2(-1)
        if n == 4:  # sum_v N2(v) N2(-v), coset by coset
            return self.n2(0) ** 2 + k * sum(self.n2(c) * self.n2(-c)
                                             for c in self.reps)
        raise ValueError("n must be 2, 3 or 4")

    def fermat_projective(self) -> int:
        """Points of x^d + y^d = z^d on P^2(F_p): z = 1 gives N2(1); z = 0 with
        y = 1 gives #{x : x^d = -1}; [1:0:0] is not on the curve."""
        return self.n2(1) + int(self.h[self.p - 1])
