"""Structure constants c_{i,j,k}, the matrix T, and their identities.

Every structure constant is a re-indexing of the cyclotomic numbers
(i, j)_d = #{v in X_i : v + 1 in X_j}, which one O(p) pass over the
class-index table counts exactly.  They are stored once, sparsely: at most
p - 2 of the d^2 numbers are nonzero, and no other module reads them.
Row d and column d of the counting slice hold only the border constants
c_{0,d,0} = 1 and c_{0,alpha,d} = k of the class d = {0}; each reader writes
out those it needs (`count_checks`, `StructureTensor.v4_exact`, the dense
slice `c0` and the `zero_sum_counts` walk), and `StructureTensor.constant`
is the point lookup, border rule included.  `c0`, which T and the curve grid
read, is refused with ConfigInvalid above DENSE_BUDGET_BYTES;
`verify_identities` builds no dense array.
Floats only enter with the scaled matrix T, its spectrum (the periods with
k) and the labelled periods `eta`, which the analytic identities read.

The tensor serves the fixed-d sweep rows, the figures and `verify`, at any
d.  A fixed-k sweep row builds none: the only counts it reads, row 0, are
the classes of gamma + 1 for gamma in the order-k subgroup, at most k of
them (`moments.fixed_k_report`), and the pair count of that subgroup stands
in for the checks of `count_checks`.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from . import periods
from .errors import ConfigInvalid
from .field_core import FieldContext

# Largest dense (d+1) x (d+1) array that may be allocated: c0 checks it from
# the shape first, and T and the grid of fermat_curves.PowerTable read c0.
# 4 MiB admits 8-byte entries up to d = 723.
DENSE_BUDGET_BYTES = 1 << 22

# Largest number of keys one bincount call of build_tensor counts; its
# intp copy of them is then at most 512 KiB.
COUNT_CHUNK = 1 << 16

# Float tolerances of verify_identities (the counts themselves are exact):
UNITARY_TOL = 1e-9  # bounds |G(1) + 1| and ||G|^2 - p| / p of the Gauss sums
# times S = max|eta|^2 + k max|eta| + k, the size of the product identity's
# terms, bounds its residuals.  Over 174 (p, d) with 10^3 < p < 10^7, at
# d = 3..6, 12, 20, 100 and k = 3, 4, 6, 12, they stayed below 6.5e-16 S: a
# margin of about 1500x
PRODUCT_TOL = 1e-12


@dataclass(frozen=True)
class CheckResult:
    """One named verdict of a check that applies; one that does not is not
    reported."""

    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True, eq=False)
class StructureTensor:
    """The structure constants of (p, d), held as sparse cyclotomic numbers.

    keys (ascending) and counts list the nonzero (i, j)_d, key i*d + j;
    `constant` reads any c_{0,u,w} off them.  The exact V_4 `v4_exact`, the
    dense slice `c0`, the matrix `T`, the periods `spectrum` and the
    labelled periods `eta` of the same (p, d) are computed on first read and
    cached.  Equality is identity, as for the context.
    """

    ctx: FieldContext
    keys: np.ndarray
    counts: np.ndarray

    def constant(self, u, w) -> np.ndarray:
        """c_{0,u,w} = #{(x, y) in X_0 x X_u : x + y = z} for a z in X_w, for
        classes 0..d (integers or broadcastable index arrays): the stored
        (u, w)_d, key u*d + w, for u, w < d; on row or column d, c_{0,d,0} = 1
        (y = 0 forces x = z), c_{0,alpha,d} = k (z = 0 forces y = -x, a whole
        class) and 0 elsewhere: the point lookup, border rule included.

        Every other constant reduces to these: x = 0 (i = d) forces y = z, so
        c_{d,j,n} = [j = n]; for i < d, dividing by x shifts the classes of
        j, n by -i, the border class d = {0} staying put.
        """
        d = self.ctx.d
        u, w = np.asarray(u), np.asarray(w)
        want = u * d + w
        # a want past the last stored key is clipped onto that key, which
        # differs from it, so it finds nothing
        pos = self.keys.searchsorted(want)
        found = self.counts.take(pos, mode="clip")
        found *= self.keys.take(pos, mode="clip") == want
        # the border rule.  Row d finds no key, each being below d*d, and
        # c_{0,d,0} = 1 is the one want equal to d*d off column d.  Column d
        # is then overridden: u*d + d is the key of (u+1, 0)_d.
        found += want == d * d
        return np.where(w == d, (u == self.ctx.alpha) * self.ctx.k, found)

    @cached_property
    def v4_exact(self) -> Fraction:
        """Exact V_4 = p(k[2d | p-1] + sum_w (0, w)_d^2) - k^3, read off the
        first row of the counting slice, the stored keys below d.  Cached, as
        `build_report` and `count_checks` both read it; its read off the first
        column is the `count_checks` verdict v4_row_vs_column."""
        p, d, k = self.ctx.p, self.ctx.d, self.ctx.k
        # exact in int64: the row sums to at most k, so its sum of squares is
        # at most k^2 <= MAX_P^2 = 10^14 < 2^63
        row = self.counts[:self.keys.searchsorted(d)]
        delta_alpha = 1 if (p - 1) % (2 * d) == 0 else 0
        return Fraction(p * (k * delta_alpha + int(row @ row)) - k ** 3)

    @cached_property
    def c0(self) -> np.ndarray:
        """Dense read-only (d+1) x (d+1) int64 slice c_{0,j,n}, 0 <= j, n <= d:
        the stored counts scattered into zeros (key u*d + w at flat index
        u*(d+1) + w) and the two border constants, refused above the dense
        budget.  T, the d = 3, 4 forms' t_0, t_2 and the curve grid read it."""
        d = self.ctx.d
        if (nbytes := (d + 1) ** 2 * 8) > DENSE_BUDGET_BYTES:
            raise ConfigInvalid(
                f"a dense {d + 1}x{d + 1} array needs {nbytes} bytes, above "
                f"the budget of {DENSE_BUDGET_BYTES} bytes")
        c0 = np.zeros((d + 1, d + 1), dtype=np.int64)
        np.put(c0, self.keys + self.keys // d, self.counts)
        c0[d, 0] = 1
        c0[self.ctx.alpha, d] = self.ctx.k
        c0.flags.writeable = False
        return c0

    @cached_property
    def T(self) -> np.ndarray:
        """Dense read-only (d+1) x (d+1) float matrix T[j, n] =
        c_{0,j,n} sqrt(|X_n| / |X_j|), |X_d| = 1 and k elsewhere: normal,
        and symmetric for even k.  The ratio is 1 off row and column d, so T
        is the float c0 with row d scaled by sqrt(k) and column d above it by
        sqrt(1/k): the same roundings as scaling every entry."""
        d, k = self.ctx.d, self.ctx.k
        T = self.c0.astype(np.float64)
        T[d] *= math.sqrt(k)
        T[:d, d] *= math.sqrt(1 / k)
        T.flags.writeable = False
        return T

    @cached_property
    def eta(self) -> np.ndarray:
        """The d Gaussian periods of this tensor's (p, d), eta[a] the sum
        over X_a: with k they are the spectrum of T."""
        return periods.compute_periods(self.ctx)

    @cached_property
    def spectrum(self) -> np.ndarray:
        """The d periods as a multiset, in no fixed order.

        When d^3 <= p they are the eigenvalues of T less the one nearest k:
        O(d^3) in place of the O(p) sum of `eta`, which they match to about
        1e-13 relative.  For even k, T is symmetric and np.linalg.eigvalsh
        returns them ascending; as |eta| <= ((d-1)sqrt(p) + 1)/d < sqrt(p)
        < k once d^3 <= p, the one nearest k is the last.  For odd k they
        come from np.linalg.eigvals.  The sum costs less from about
        d^3 = 1.5p on for odd k, and for even k from about d^3 = p at d = 30
        to beyond 6p at d >= 100.  Otherwise they are `eta`.
        """
        p, d, k = self.ctx.p, self.ctx.d, self.ctx.k
        if d ** 3 > p:
            return self.eta
        if k % 2 == 0:
            return np.linalg.eigvalsh(self.T)[:d]
        lam = np.linalg.eigvals(self.T)
        i = np.abs(lam - k).argmin()
        return np.concatenate((lam[:i], lam[i + 1:]))


def count_checks(tensor: StructureTensor) -> list[CheckResult]:
    """The exact checks of the stored counts, in O(nnz) integer arithmetic:
    every column of the counting slice sums to k (c_{0,d,0} = 1 included);
    d^2 times the sum of the squared (u, w)_d is p^2 + (d^2 - 3d - 2)p
    + 3d + 1; and V_4 read off the first column, p(k + sum_u (u, 0)_d^2)
    - k^3, equals `tensor.v4_exact`, its read off the first row.  None
    reads the periods, so they stay independent of them."""
    ctx = tensor.ctx
    d, p, k = ctx.d, ctx.p, ctx.k
    keys, counts = tensor.keys, tensor.counts
    # exact in float64 and int64: a column sums to at most p - 2 < 2^53, and
    # the squares to at most (p - 2)^2 < 2^63.  The column of key i*d + j is
    # taken as key - (key // d) * d: numpy divides by a scalar several times
    # faster than it takes a remainder, and verify at fixed k has ~p keys
    cols = keys - keys // d * d
    colsums = np.bincount(cols, weights=counts, minlength=d)
    colsums[0] += 1
    colsums_ok = bool((colsums == k).all())
    lhs_sq = int(counts @ counts)
    num = p * p + (d * d - 3 * d - 2) * p + 3 * d + 1
    # the (u, 0)_d; they sum to at most k
    col0 = counts[cols == 0]
    col_v4 = p * (k + int(col0 @ col0)) - k ** 3
    row_v4 = tensor.v4_exact
    return [CheckResult("column_sums", colsums_ok, f"expected {k}"),
            CheckResult("count_square_sum", lhs_sq * d * d == num,
                        f"lhs={lhs_sq} rhs={num}/{d * d}"),
            CheckResult("v4_row_vs_column", col_v4 == row_v4,
                        f"column={col_v4} row={row_v4}")]


def zero_sum_counts(tensor: StructureTensor, n: int) -> list[int]:
    """N_m = #{(x_1, ..., x_m) in X_0^m : x_1 + ... + x_m = 0}, m = 0..n, in
    Python ints.  r_m[w], the number of m-tuples of X_0 summing to a z in
    class w, walks from r_0 = e_d (the empty tuple) by r_{m+1}[w] =
    sum_u c_{0,u,w} r_m[u], so r_1 = e_0 and N_m = r_m[d].  A step reads
    only the rows u where r_m[u] != 0, row u < d the stored keys u*d up to
    u*d + d, and writes out the border's c_{0,d,0} = 1 and c_{0,alpha,d} = k:
    at fixed k, at most k^m + 1 rows, whatever p."""
    d, k, alpha = tensor.ctx.d, tensor.ctx.k, tensor.ctx.alpha
    keys, counts = tensor.keys, tensor.counts
    r, out = {d: 1}, [1]
    for _ in range(n):
        nxt = {0: r.get(d, 0), d: k * r.get(alpha, 0)}
        rows = [u for u, ru in r.items() if ru and u < d]
        bounds = keys.searchsorted([u * d for u in rows]
                                   + [u * d + d for u in rows]).tolist()
        for u, lo, hi in zip(rows, bounds, bounds[len(rows):]):
            ru, row_start = r[u], u * d
            for key, c in zip(keys[lo:hi].tolist(), counts[lo:hi].tolist()):
                w = key - row_start
                nxt[w] = nxt.get(w, 0) + c * ru
        r = nxt
        out.append(r[d])
    return out


def build_tensor(ctx: FieldContext) -> StructureTensor:
    """Count the cyclotomic numbers (i, j)_d, key i*d + j, in one vectorized
    O(p) pass, and keep the positive ones."""
    d = ctx.d
    ci = ctx.coset_index[1:]  # classes of 1..p-1; 0 never occurs as v or v+1
    # v = 1..p-2, keys in the narrowest type holding d*d - 1: ci is as narrow
    # as d allows, and a product taken in its dtype would wrap
    kt = np.min_scalar_type(d * d - 1)
    n_keys = len(ci) - 1
    if d * d <= ctx.p:
        # bincount copies its input to intp: count COUNT_CHUNK keys at a time
        # so that copy stays small, or d*d at a time so that adding up the
        # histograms is at most one more pass over the keys.  Each chunk's
        # keys are formed in one reused buffer, so no O(p) key array is made
        step = max(COUNT_CHUNK, d * d)
        key = np.empty(min(step, n_keys), dtype=kt)
        dense = np.zeros(d * d, dtype=np.intp)
        for a in range(0, n_keys, step):
            n = min(step, n_keys - a)
            chunk = np.multiply(ci[a:a + n], d, out=key[:n], dtype=kt)
            chunk += ci[a + 1:a + n + 1]
            dense += np.bincount(chunk, minlength=d * d)
        keys = dense.nonzero()[0]
        return StructureTensor(ctx=ctx, keys=keys, counts=dense[keys])
    # built in place to hold one O(p) temporary
    key = np.multiply(ci[:-1], d, dtype=kt)
    key += ci[1:]
    keys, counts = np.unique(key, return_counts=True)
    return StructureTensor(ctx=ctx, keys=keys.astype(np.int64), counts=counts)


def verify_identities(tensor: StructureTensor) -> list[CheckResult]:
    """The analytic identities of the periods and the symmetries of the
    stored counts, in O(nnz + d log d) with no dense array, so at every d.
    Failures are reported, never raised."""
    ctx = tensor.ctx
    d, p, k, alpha = ctx.d, ctx.p, ctx.k, ctx.alpha
    eta = tensor.eta
    keys, counts = tensor.keys, tensor.counts
    # key m*d + n: the class n + l is key + l (mod d)
    rows = keys // d
    out = []

    # entry b of the DFT of eta is the Gauss sum G(chi^-b), chi(g) = e(1/d):
    # G(chi^0) = -1 and |G|^2 = p elsewhere are U*U = I for U = sigma/sqrt(p),
    # sigma the period circulant eta_{i+l} bordered by sqrt(k) (and 1 at d, d)
    gauss = np.fft.fft(eta)
    err = max(abs(gauss[0] + 1),
              float(np.abs(np.abs(gauss[1:]) ** 2 - p).max(initial=0)) / p)
    out.append(CheckResult("gauss_sum_moduli", err < UNITARY_TOL,
                           f"max_err={err:.3g}"))

    # product identity sigma_0(X_l) sigma_j(X_l) = sum_n c_{0,j,n} sigma_n(X_l),
    # row j < d: eta_l eta_{j+l} = sum_n (j, n)_d eta_{n+l} + k[j = alpha].
    # Columns l = 0, 1, alpha stand for all l < d (row i > 0 repeats row 0 at
    # l + i; row d holds exactly), each formed once.  Column d,
    # sigma_i(X_d) = k, is the row sums k - [j = alpha] of the counts, exact
    # in float64
    alpha_row = np.arange(d) == alpha
    err = k * float(np.abs(np.bincount(rows, weights=counts, minlength=d)
                           - (k - alpha_row)).max())

    def residual(l: int) -> float:
        at = (keys + l) % d
        re, im = (np.bincount(rows, weights=part[at] * counts, minlength=d)
                  for part in (eta.real, eta.imag))
        rhs = re + 1j * im + k * alpha_row
        return float(np.abs(eta[l] * np.roll(eta, -l) - rhs).max())

    err = max(err, *map(residual, dict.fromkeys((0, 1 % d, alpha))))
    top = float(np.abs(eta).max())
    scale = top * top + k * top + k
    out.append(CheckResult("product_identity", err < PRODUCT_TOL * scale,
                           f"max_err={err:.3g}"))

    # a symmetry maps the classes (m, n) of each count bijectively to classes
    # (m', n') < d: it holds iff the mapped keys, sorted with their counts,
    # are the stored ones.  Each pair is packed as key * base + count, exact
    # in int64 as key * base < d^2 (k + 2) < 3p^2 even with a count raised by 1
    base = int(counts.max()) + 1
    stored = keys * base + counts

    def invariant(m: np.ndarray, n: np.ndarray) -> bool:
        mapped = (m * d + n) * base + counts
        mapped.sort()
        return bool(np.array_equal(mapped, stored))

    # rotation symmetry c_{0,m,n} = c_{0,-m,n-m}
    out.append(CheckResult("rotation_symmetry",
                           invariant(-rows % d, (keys - rows) % d)))

    # reflected symmetry c_{0,m,n} = c_{0,n+a,m+a}, a = alpha the class of -1,
    # reported as T_symmetric for a = 0 (2d | p-1, d = 1 included) and as
    # half_turn_symmetry for a = d/2, the only other value
    reflected = invariant((keys + alpha) % d, (rows + alpha) % d)
    out.append(CheckResult("T_symmetric", reflected) if alpha == 0 else
               CheckResult("half_turn_symmetry", reflected, f"shift={alpha}"))
    return out
