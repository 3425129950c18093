"""Structure constants c_{i,j,k}, the matrices T and U, and their identities.

Every structure constant is a re-indexing of the cyclotomic numbers
(i, j)_d = #{v in X_i : v + 1 in X_j}, which one O(p) pass over the
class-index table counts exactly.  They are stored once, sparsely: at most
p - 2 of the d^2 numbers are nonzero, and no other module reads them.
`StructureTensor.constant` maps c_{0,u,w} to them and applies the border
rule of the class d = {0}; the dense (d+1) x (d+1) slice `c0` and the two
border terms of the `zero_sum_counts` walk are read through it.  The exact
checks of every report row write their border terms out instead:
`count_checks` adds c_{0,d,0} = 1 to column 0 and to its column read of V_4,
and the row read `StructureTensor.v4_exact` adds k[2d | p-1], from
c_{0,0,d}.  A scalar `constant` call costs about 10 us (2-core x86-64), so
the three would add some 5% to a fixed-d row near p = 3*10^4.  Every dense
(d+1) x (d+1) array is refused with ConfigInvalid when it would exceed
DENSE_BUDGET_BYTES.
Floats only enter with the scaled matrix T, its spectrum (the periods with
k) and the labelled periods `eta`, and when the counts are assembled into U
for the analytic identities.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from . import periods
from .errors import ConfigInvalid, DimensionMismatch
from .field_core import FieldContext

# Largest dense (d+1) x (d+1) array (the c0 slice, U, T and the products in
# verify_identities) that may be allocated, checked from the shape first.
# 4 MiB admits complex128 matrices up to d = 511.
DENSE_BUDGET_BYTES = 1 << 22

# Largest number of keys one bincount call of _cyclotomic_numbers counts; its
# intp copy of them is then at most 512 KiB.
COUNT_CHUNK = 1 << 16

# Float tolerances of verify_identities (the counts themselves are exact):
UNITARY_TOL = 1e-9  # bounds ||U*U - I||_max and ||U - U^T||_max
SCALED_TOL = 1e-8  # times p, bounds the residuals that grow with the entries


@dataclass(frozen=True)
class CheckResult:
    """One named verdict; an inapplicable check has passed=True."""

    name: str
    applicable: bool
    passed: bool
    detail: str = ""


def check_dense_budget(d: int, dtype) -> None:
    """Raise ConfigInvalid if a dense (d+1) x (d+1) array of dtype would
    exceed DENSE_BUDGET_BYTES."""
    nbytes = (d + 1) ** 2 * np.dtype(dtype).itemsize
    if nbytes > DENSE_BUDGET_BYTES:
        raise ConfigInvalid(
            f"a dense {d + 1}x{d + 1} array needs {nbytes} bytes, above the "
            f"budget of {DENSE_BUDGET_BYTES} bytes")


def _cyclotomic_numbers(ctx: FieldContext, e: int) -> tuple[np.ndarray, np.ndarray]:
    """Sparse cyclotomic numbers of order e (a divisor of ctx.d) in one pass.

    Returns (keys, counts): keys ascending, key i*e + j standing for
    (i, j)_e = #{v : v in class i, v + 1 in class j}, counts its positive
    value.  The classes of order e are the coset indices mod e.
    """
    ci = ctx.coset_index[1:]  # classes of 1..p-1; 0 never occurs as v or v+1
    if e != ctx.d:
        ci = ci % e
    # v = 1..p-2, keys in the narrowest type holding e*e - 1: ci is as narrow
    # as d allows, and a product taken in its dtype would wrap
    kt = np.min_scalar_type(e * e - 1)
    n_keys = len(ci) - 1
    if e * e <= ctx.p:
        # bincount copies its input to intp: count COUNT_CHUNK keys at a time
        # so that copy stays small, or e*e at a time so that adding up the
        # histograms is at most one more pass over the keys.  Each chunk's
        # keys are formed in one reused buffer, so no O(p) key array is made
        step = max(COUNT_CHUNK, e * e)
        key = np.empty(min(step, n_keys), dtype=kt)
        dense = np.zeros(e * e, dtype=np.intp)
        for a in range(0, n_keys, step):
            n = min(step, n_keys - a)
            chunk = np.multiply(ci[a:a + n], e, out=key[:n], dtype=kt)
            chunk += ci[a + 1:a + n + 1]
            dense += np.bincount(chunk, minlength=e * e)
        keys = dense.nonzero()[0]
        return keys, dense[keys]
    # built in place to hold one O(p) temporary
    key = np.multiply(ci[:-1], e, dtype=kt)
    key += ci[1:]
    keys, counts = np.unique(key, return_counts=True)
    return keys.astype(np.int64), counts


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

    def largest_number(self, e: int) -> tuple[int, int, int]:
        """(n, i, j): the largest cyclotomic number n = (i, j)_e of order e, a
        divisor of d, and the first classes (i, j) in key order reaching it.
        The stored numbers for e = d, else recounted from this context."""
        if self.ctx.d % e != 0:
            raise DimensionMismatch(f"order {e} does not divide d={self.ctx.d}")
        keys, counts = ((self.keys, self.counts) if e == self.ctx.d
                        else _cyclotomic_numbers(self.ctx, e))
        best = int(counts.argmax())
        return (int(counts[best]), *divmod(int(keys[best]), e))

    def constant(self, u, w) -> np.ndarray:
        """c_{0,u,w} = #{(x, y) in X_0 x X_u : x + y = z} for a z in X_w, for
        classes 0..d (integers or broadcastable index arrays): the stored
        (u, w)_d, key u*d + w, for u, w < d; on row or column d, c_{0,d,0} = 1
        (y = 0 forces x = z), c_{0,alpha,d} = k (z = 0 forces y = -x, a whole
        class) and 0 elsewhere.  `c0` and the walk of `zero_sum_counts` read
        the border here; `count_checks` and `v4_exact` write their border
        terms out, as scalar calls here would cost a report row some 5% (see
        the module docstring).

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
        """Dense read-only (d+1) x (d+1) slice c_{0,j,n}, 0 <= j, n <= d: one
        call of `constant` on the whole grid, refused above the dense budget.
        A report reads its T and the d = 3, 4 forms' t_0, t_2 off it."""
        d = self.ctx.d
        check_dense_budget(d, np.int64)
        classes = np.arange(d + 1)
        c0 = self.constant(classes[:, None], classes)
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
        over X_a: with k they are the spectrum of T, TU = U diag(eta, k)."""
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
    # faster than it takes a remainder, and fixed-k rows have ~p keys
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
    return [CheckResult("column_sums", True, colsums_ok, f"expected {k}"),
            CheckResult("count_square_sum", True, lhs_sq * d * d == num,
                        f"lhs={lhs_sq} rhs={num}/{d * d}"),
            CheckResult("v4_row_vs_column", True, col_v4 == row_v4,
                        f"column={col_v4} row={row_v4}")]


def zero_sum_counts(tensor: StructureTensor, n: int) -> list[int]:
    """N_m = #{(x_1, ..., x_m) in X_0^m : x_1 + ... + x_m = 0}, m = 0..n, in
    Python ints.  r_m[w], the number of m-tuples of X_0 summing to a z in
    class w, walks from r_0 = e_d (the empty tuple) by r_{m+1}[w] =
    sum_u c_{0,u,w} r_m[u] over the nonzero constants: the stored (u, w)_d
    and the border's c_{0,d,0} and c_{0,alpha,d}, read through `constant`.
    So r_1 = e_0 and N_m = r_m[d]."""
    d, alpha = tensor.ctx.d, tensor.ctx.alpha
    terms = [(*divmod(key, d), c)
             for key, c in zip(tensor.keys.tolist(), tensor.counts.tolist())]
    terms += [(u, w, int(tensor.constant(u, w)))
              for u, w in ((d, 0), (alpha, d))]
    r, out = [0] * d + [1], [1]
    for _ in range(n):
        nxt = [0] * (d + 1)
        for u, w, c in terms:
            nxt[w] += c * r[u]
        r = nxt
        out.append(r[d])
    return out


def build_tensor(ctx: FieldContext) -> StructureTensor:
    """Count the cyclotomic numbers of order d in one vectorized O(p) pass."""
    keys, counts = _cyclotomic_numbers(ctx, ctx.d)
    return StructureTensor(ctx=ctx, keys=keys, counts=counts)


def build_matrices(tensor: StructureTensor) -> tuple[np.ndarray, np.ndarray]:
    """(U, sigma), both (d+1) x (d+1) complex: the period circulant
    sigma[i, l] = sigma_i(X_l), which is eta_{i+l}, k on X_d = {0} and 1 for
    i = d (row 0 is the spectrum, TU = U diag(sigma[0])), gathered once, and
    the symmetric unitary U derived from it."""
    d, p, k = tensor.ctx.d, tensor.ctx.p, tensor.ctx.k
    check_dense_budget(d, complex)

    sigma = np.ones((d + 1, d + 1), dtype=np.complex128)
    sigma[:d, :d] = tensor.eta[np.add.outer(np.arange(d), np.arange(d)) % d]
    sigma[:d, d] = k
    U = sigma.copy()
    U[:d, d] = U[d, :d] = np.sqrt(k)
    U /= np.sqrt(p)
    return U, sigma


def verify_identities(tensor: StructureTensor) -> list[CheckResult]:
    """Assemble the matrices (`build_matrices`) and run the dense identities.

    Failures are reported, never raised.  UNITARY_TOL bounds the residuals of
    U; SCALED_TOL * p bounds those that grow with the matrix entries (TU = UD,
    the product identity, traces).
    """
    U, sigma = build_matrices(tensor)
    T = tensor.T
    ctx = tensor.ctx
    d, p = ctx.d, ctx.p
    tol_p = SCALED_TOL * p
    out = []

    err = np.abs(U.conj().T @ U - np.eye(d + 1)).max()
    out.append(CheckResult("U_unitary", True, err < UNITARY_TOL, f"max_err={err:.3g}"))

    err = np.abs(U - U.T).max()
    out.append(CheckResult("U_symmetric", True, err < UNITARY_TOL, f"max_err={err:.3g}"))

    # T u_l = lambda_l u_l for every column u_l of U
    err = np.abs(T @ U - U * sigma[0]).max()
    out.append(CheckResult("TU_eq_UD", True, err < tol_p, f"max_err={err:.3g}"))

    # normality of T, exact on the counting block
    TtT = T.T @ T  # read again by the trace identity
    err = np.abs(T @ T.T - TtT).max()
    out.append(CheckResult("T_normal", True, err < tol_p, f"max_err={err:.3g}"))

    # product identity: sigma_i(X_l) sigma_j(X_l) = sum_n c_{i,j,n} sigma_n(X_l).
    # c_{i,j,n} = c_{0,j-i,n-i} and sigma_i(X_l) = sigma_0(X_{l+i}) (classes
    # shifted mod d, the border d staying put), so the equations of row i < d
    # are those of row 0; row d (c_{d,j,n} = [j = n], sigma_d = 1) holds
    # exactly.  Row 0 holds every equation that can fail.
    err = tensor.c0.astype(np.complex128) @ sigma
    err -= sigma[0] * sigma
    err = float(np.abs(err).max())
    out.append(CheckResult("product_identity", True, err < tol_p,
                           f"max_err={err:.3g}"))

    # rotation symmetry c_{0,m,n} = c_{0,-m,n-m}
    block = tensor.c0[:d, :d]
    mm, nn = np.indices((d, d), sparse=True)
    rot_ok = bool(np.array_equal(block, block[-mm % d, (nn - mm) % d]))
    out.append(CheckResult("rotation_symmetry", True, rot_ok))

    # T symmetric iff 2d | (p-1)
    sym_applicable = d > 1 and (p - 1) % (2 * d) == 0
    if sym_applicable:
        sym_ok = bool(np.array_equal(block, block.T))
        out.append(CheckResult("T_symmetric", True, sym_ok))
    else:
        out.append(CheckResult("T_symmetric", False, True, "2d does not divide p-1"))

    # reflected symmetry c_{0,m,n} = c_{0,n+a,m+a} with a the class of -1;
    # for even d with 2d not dividing p-1 this is the half-turn a = d/2
    if d > 1:
        a = ctx.alpha
        half_ok = bool(np.array_equal(block, block[(nn + a) % d, (mm + a) % d]))
        out.append(CheckResult("half_turn_symmetry", d % 2 == 0 and a == d // 2,
                               half_ok, f"shift={a}"))
    else:
        out.append(CheckResult("half_turn_symmetry", False, True, "d = 1"))

    # trace of T*T against the spectrum
    tr = float(np.trace(TtT))
    v2 = float(np.sum(np.abs(tensor.eta) ** 2))
    expected = v2 + ((p - 1) / d) ** 2
    out.append(CheckResult("trace_identity", True, abs(tr - expected) < tol_p,
                           f"tr={tr:.6g} expected={expected:.6g}"))
    return out
