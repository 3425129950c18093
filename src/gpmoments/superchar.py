"""Structure constants c_{i,j,k}, the matrices T, U, D, and their identities.

Every structure constant is a re-indexing of the cyclotomic numbers
(i, j)_d = #{v in X_i : v + 1 in X_j}, which one O(p) pass over the
class-index table counts exactly.  They are stored sparsely: at most p - 2 of
the d^2 numbers are nonzero.  `StructureTensor.constant` is the one map from
c_{i,j,k} to them; the dense (d+1) x (d+1) slice `c0` is read through it, and
every dense (d+1) x (d+1) array is refused with ConfigInvalid when it would
exceed DENSE_BUDGET_BYTES.  Floats only enter when the counts are assembled
into T/U/D for the analytic identities.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigInvalid, DimensionMismatch
from .field_core import FieldContext
from .periods import PeriodVector

# Largest dense (d+1) x (d+1) array (the c0 view, U, T, D and the products in
# verify_identities) that may be allocated, checked from the shape first.
# 4 MiB admits complex128 matrices up to d = 511.
DENSE_BUDGET_BYTES = 1 << 22

# Float tolerances of verify_identities (the counts themselves are exact):
UNITARY_TOL = 1e-9  # bounds ||U*U - I||_max and ||U - U^T||_max
SCALED_TOL = 1e-8  # times p, bounds the residuals that grow with the entries


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
    key = ci[:-1] * e  # v = 1..p-2; built in place to hold one O(p) temporary
    key += ci[1:]
    if e * e <= ctx.p:
        dense = np.bincount(key, minlength=e * e)
        keys = np.flatnonzero(dense)
        return keys, dense[keys]
    return np.unique(key, return_counts=True)


@dataclass(frozen=True)
class StructureTensor:
    """The structure constants of (p, d), held as sparse cyclotomic numbers.

    keys (ascending) and counts list the nonzero (i, j)_d, key i*d + j;
    `constant` reads any c_{i,j,n} off them.
    """

    ctx: FieldContext
    keys: np.ndarray
    counts: np.ndarray

    def numbers_of_order(self, e: int) -> tuple[np.ndarray, np.ndarray]:
        """(keys, counts) of the cyclotomic numbers of order e, a divisor of
        d: the stored ones for e = d, else recounted from this context."""
        if self.ctx.d % e != 0:
            raise DimensionMismatch(f"order {e} does not divide d={self.ctx.d}")
        if e == self.ctx.d:
            return self.keys, self.counts
        return _cyclotomic_numbers(self.ctx, e)

    @cached_property
    def _entries(self) -> tuple[np.ndarray, np.ndarray]:
        """The nonzero c_{0,u,w} as ascending keys u*(d+1) + w and counts: the
        stored (u, w)_d for u, w < d, c_{0,d,0} = 1 (y = 0 forces x = z) and
        c_{0,alpha,d} = k (z = 0 forces y = -x, a whole class)."""
        ctx = self.ctx
        d, e = ctx.d, ctx.d + 1
        keys = self.keys + self.keys // d
        border = np.array([ctx.alpha * e + d, d * e])
        pos = np.searchsorted(keys, border)
        return np.insert(keys, pos, border), np.insert(self.counts, pos, [ctx.k, 1])

    @cached_property
    def _table(self) -> np.ndarray:
        """Every c_{0,u,w} at u*(d+1) + w; built only for a request at least
        as large, so it costs no more memory than the answer."""
        keys, counts = self._entries
        table = np.zeros((self.ctx.d + 1) ** 2, dtype=counts.dtype)
        table[keys] = counts
        return table

    def constant(self, i, j, n) -> np.ndarray:
        """c_{i,j,n} = #{(x, y) in X_i x X_j : x + y = z} for a z in X_n, for
        classes 0..d (integers or broadcastable index arrays).

        x = 0 (i = d) forces y = z.  Otherwise v = y/x and v + 1 = z/x lie in
        the classes u, w of j, n shifted by -i, the border class d = {0}
        staying put, so c_{i,j,n} = c_{0,u,w}, read off `_entries`.
        """
        d = self.ctx.d
        i, j, n = np.asarray(i), np.asarray(j), np.asarray(n)
        want = np.where(j < d, (j - i) % d, d) * (d + 1) + np.where(n < d, (n - i) % d, d)
        if want.size >= (d + 1) ** 2:
            found = self._table.take(want)
        else:
            keys, counts = self._entries
            pos = np.minimum(np.searchsorted(keys, want), len(keys) - 1)
            found = np.where(keys[pos] == want, counts[pos], 0)
        return np.where(i == d, j == n, found)

    @cached_property
    def c0(self) -> np.ndarray:
        """Dense read-only (d+1) x (d+1) slice c_{0,j,n}, 0 <= j, n <= d."""
        d = self.ctx.d
        check_dense_budget(d, np.int64)
        c0 = self.constant(0, *np.indices((d + 1, d + 1), sparse=True))
        c0.flags.writeable = False
        return c0


@dataclass(frozen=True)
class SupercharMatrices:
    U: np.ndarray  # (d+1) x (d+1) complex, symmetric unitary
    T: np.ndarray  # (d+1) x (d+1) real
    D: np.ndarray  # (d+1) x (d+1) complex diagonal


def build_tensor(ctx: FieldContext) -> StructureTensor:
    """Count the cyclotomic numbers of order d in one vectorized O(p) pass."""
    keys, counts = _cyclotomic_numbers(ctx, ctx.d)
    return StructureTensor(ctx=ctx, keys=keys, counts=counts)


def build_matrices(ctx: FieldContext, tensor: StructureTensor,
                   pv: PeriodVector) -> SupercharMatrices:
    """Assemble U from the periods and T from the counts; D holds the spectrum."""
    if tensor.ctx.d != ctx.d or pv.ctx.d != ctx.d:
        raise DimensionMismatch("context, tensor and periods disagree on d")
    d, p, k = ctx.d, ctx.p, ctx.k
    check_dense_budget(d, complex)

    U = np.empty((d + 1, d + 1), dtype=np.complex128)
    U[:d, :d] = pv.eta[np.add.outer(np.arange(d), np.arange(d)) % d]
    U[:d, d] = U[d, :d] = np.sqrt(k)
    U[d, d] = 1.0
    U /= np.sqrt(p)

    sizes = np.array([k] * d + [1], dtype=np.float64)
    scale = np.sqrt(sizes[None, :] / sizes[:, None])
    T = tensor.c0.astype(np.float64) * scale

    D = np.diag(np.append(pv.eta, pv.extra_eigenvalue))
    return SupercharMatrices(U=U, T=T, D=D)


@dataclass(frozen=True)
class CheckResult:
    name: str
    applicable: bool
    passed: bool
    detail: str = ""


def verify_identities(m: SupercharMatrices, tensor: StructureTensor,
                      pv: PeriodVector) -> list[CheckResult]:
    """Run every algebraic check on the assembled matrices.

    Failures are reported, never raised.  UNITARY_TOL bounds the residuals of
    U; SCALED_TOL * p bounds those that grow with the matrix entries (TU = UD,
    the product identity, traces).
    """
    ctx = tensor.ctx
    d, p, k = ctx.d, ctx.p, ctx.k
    tol_p = SCALED_TOL * p
    out = []

    err = np.abs(m.U.conj().T @ m.U - np.eye(d + 1)).max()
    out.append(CheckResult("U_unitary", True, err < UNITARY_TOL, f"max_err={err:.3g}"))

    err = np.abs(m.U - m.U.T).max()
    out.append(CheckResult("U_symmetric", True, err < UNITARY_TOL, f"max_err={err:.3g}"))

    err = np.abs(m.T @ m.U - m.U @ m.D).max()
    out.append(CheckResult("TU_eq_UD", True, err < tol_p, f"max_err={err:.3g}"))

    # normality of T, exact on the counting block
    err = np.abs(m.T @ m.T.T - m.T.T @ m.T).max()
    out.append(CheckResult("T_normal", True, err < tol_p, f"max_err={err:.3g}"))

    # product identity: sigma_i(X_l) sigma_j(X_l) = sum_n c_{i,j,n} sigma_n(X_l),
    # sigma_i(X_l) = eta_{i+l} off the border, k on X_d = {0}, 1 for i = d
    classes = np.arange(d + 1)
    sigma = np.ones((d + 1, d + 1), dtype=np.complex128)
    sigma[:d, :d] = pv.eta[np.add.outer(classes[:d], classes[:d]) % d]
    sigma[:d, d] = k
    max_err = 0.0
    for i in classes:
        err = tensor.constant(i, classes[:, None], classes).astype(np.complex128) @ sigma
        err -= sigma[i] * sigma
        max_err = max(max_err, float(np.abs(err).max()))
    out.append(CheckResult("product_identity", True, max_err < tol_p,
                           f"max_err={max_err:.3g}"))

    # column sums of the counting slice
    colsums_ok = bool(np.all(tensor.c0[:, :d].sum(axis=0) == k))
    out.append(CheckResult("column_sums", True, colsums_ok, f"expected {k}"))

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
    tr = float(np.trace(m.T.T @ m.T))
    v2 = float(np.sum(np.abs(pv.eta) ** 2))
    expected = v2 + ((p - 1) / d) ** 2
    out.append(CheckResult("trace_identity", True, abs(tr - expected) < tol_p,
                           f"tr={tr:.6g} expected={expected:.6g}"))

    # exact closed form for the sum of squared counts (d > 2 only)
    if d > 2:
        lhs_sq = int((block.astype(object) ** 2).sum())
        num = p * p + (d * d - 3 * d - 2) * p + 3 * d + 1
        exact_ok = lhs_sq * d * d == num
        out.append(CheckResult("count_square_sum", True, exact_ok,
                               f"lhs={lhs_sq} rhs={num}/{d * d}"))
    else:
        out.append(CheckResult("count_square_sum", False, True, "d <= 2"))

    # eigencolumn residuals: T u_l = lambda_l u_l with u_l the columns of U
    lam = np.append(pv.eta, pv.extra_eigenvalue)
    res = np.abs(m.T @ m.U - m.U * lam[None, :]).max()
    out.append(CheckResult("eigencolumns", True, res < tol_p, f"max_err={res:.3g}"))

    return out


def all_passed(results: list[CheckResult]) -> bool:
    return all(r.passed for r in results)
