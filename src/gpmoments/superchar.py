"""Structure constants c_{i,j,k}, the matrices T, U, D, and their identities.

Every structure constant is a re-indexing of the cyclotomic numbers
(i, j)_d = #{v in X_i : v + 1 in X_j}, which one O(p) pass over the
class-index table counts exactly.  They are stored sparsely: at most p - 2 of
the d^2 numbers are nonzero.  The dense (d+1) x (d+1) slice `c0` is only a
derived view, and every dense (d+1) x (d+1) array is refused with
ConfigInvalid when it would exceed DENSE_BUDGET_BYTES.  Floats only enter
when the counts are assembled into T/U/D for the analytic identities.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigInvalid, DimensionMismatch, InconsistentCounts
from .field_core import FieldContext
from .periods import PeriodVector

# Largest dense (d+1) x (d+1) array (the c0 view, U, T, D and the products in
# verify_identities) that may be allocated, checked from the shape first.
# 4 MiB admits complex128 matrices up to d = 511.
DENSE_BUDGET_BYTES = 1 << 22


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

    keys (ascending) and counts list the nonzero (i, j)_d, key i*d + j.  For
    j, n < d, c_{0,j,n} = (alpha - n, j - n)_d; the border class d = {0} adds
    c_{0,d,0} = 1 and c_{0,alpha,d} = k, every other border entry being 0.
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

    def entries(self, j, n) -> np.ndarray:
        """c_{0,j,n} = (alpha - n, j - n)_d for class indices j, n < d
        (integers or broadcastable index arrays)."""
        d = self.ctx.d
        j, n = np.asarray(j), np.asarray(n)
        want = (self.ctx.alpha - n) % d * d + (j - n) % d
        pos = np.minimum(np.searchsorted(self.keys, want), len(self.keys) - 1)
        return np.where(self.keys[pos] == want, self.counts[pos], 0)

    @cached_property
    def c0(self) -> np.ndarray:
        """Dense read-only (d+1) x (d+1) slice c_{0,j,n}, 0 <= j, n <= d."""
        ctx = self.ctx
        d, a = ctx.d, ctx.alpha
        check_dense_budget(d, np.int64)
        c0 = np.zeros((d + 1, d + 1), dtype=np.int64)
        i, j = np.divmod(self.keys, d)
        n = (a - i) % d
        c0[(j + n) % d, n] = self.counts
        c0[d, 0] = 1
        c0[a, d] = ctx.k
        c0.flags.writeable = False
        return c0


@dataclass(frozen=True)
class SupercharMatrices:
    U: np.ndarray  # (d+1) x (d+1) complex, symmetric unitary
    T: np.ndarray  # (d+1) x (d+1) real
    D: np.ndarray  # (d+1) x (d+1) complex diagonal


def structure_constant(ctx: FieldContext, i: int, j: int, k: int,
                       check_representative: bool = False) -> int:
    """Count pairs (x, y) in X_i x X_j with x + y = z for a fixed z in X_k.

    The count is independent of the representative; with
    check_representative=True it is recounted at a second representative of
    X_k (when one exists), and InconsistentCounts is raised if they differ.
    """
    p = ctx.p

    def count_at(z: int) -> int:
        return int(np.count_nonzero(
            ctx.coset_index[(z - ctx.cosets[i]) % p] == j))

    reps = ctx.cosets[k]
    n = count_at(int(reps[0]))
    if check_representative and len(reps) > 1:
        n2 = count_at(int(reps[1]))
        if n != n2:
            raise InconsistentCounts(
                f"c_({i},{j},{k}) at (p,d)=({p},{ctx.d}) depends on the "
                f"representative: {n} vs {n2}")
    return n


def build_tensor(ctx: FieldContext) -> StructureTensor:
    """Count the cyclotomic numbers of order d in one vectorized O(p) pass."""
    keys, counts = _cyclotomic_numbers(ctx, ctx.d)
    return StructureTensor(ctx=ctx, keys=keys, counts=counts)


def general_constant(tensor: StructureTensor, i: int, j: int, k: int) -> int:
    """c_{i,j,k} for arbitrary class indices 0..d, derived from the c0 slice.

    For i < d divide the defining equation by g^i; the border classes (index d)
    reduce to membership statements about -1 and 0.
    """
    ctx = tensor.ctx
    d, a = ctx.d, ctx.alpha
    if i == d:
        # x = 0 forces y = z
        return 1 if j == k else 0
    if j == d and k == d:
        return 0
    if j == d:  # y = 0 forces x = z, one solution iff z's class is i
        return 1 if k == i else 0
    if k == d:  # z = 0 forces y = -x, a whole class iff j = i + alpha
        return ctx.k if j == (i + a) % d else 0
    return int(tensor.entries((j - i) % d, (k - i) % d))


def constant_matrix(tensor: StructureTensor, i: int) -> np.ndarray:
    """The (d+1)x(d+1) matrix of c_{i,j,k} over (j, k), vectorized."""
    ctx = tensor.ctx
    d = ctx.d
    ci = np.zeros((d + 1, d + 1), dtype=np.int64)
    if i == d:
        np.fill_diagonal(ci, 1)
        return ci
    ci[:d, :d] = np.roll(tensor.c0[:d, :d], (i, i), axis=(0, 1))
    ci[(i + ctx.alpha) % d, d] = ctx.k
    ci[d, i] = 1
    return ci


def build_matrices(ctx: FieldContext, tensor: StructureTensor,
                   pv: PeriodVector) -> SupercharMatrices:
    """Assemble U from the periods and T from the counts; D holds the spectrum."""
    if tensor.ctx.d != ctx.d or pv.ctx.d != ctx.d:
        raise DimensionMismatch("context, tensor and periods disagree on d")
    d, p, k = ctx.d, ctx.p, ctx.k
    check_dense_budget(d, complex)

    U = np.empty((d + 1, d + 1), dtype=np.complex128)
    for i in range(d):
        for j in range(d):
            U[i, j] = pv.eta[(i + j) % d]
    U[:d, d] = U[d, :d] = np.sqrt(k)
    U[d, d] = 1.0
    U /= np.sqrt(p)

    sizes = np.array([k] * d + [1], dtype=np.float64)
    scale = np.sqrt(sizes[None, :] / sizes[:, None])
    T = tensor.c0.astype(np.float64) * scale

    D = np.diag(np.append(pv.eta, pv.extra_eigenvalue))
    return SupercharMatrices(U=U, T=T, D=D)


def superchar_value(ctx: FieldContext, pv: PeriodVector, i: int, ell: int) -> complex:
    """Value of the i-th supercharacter on class ell (constant on classes)."""
    d = ctx.d
    if i == d:
        return 1.0 + 0j
    if ell == d:
        return complex(ctx.k)
    return complex(pv.eta[(i + ell) % d])


@dataclass(frozen=True)
class CheckResult:
    name: str
    applicable: bool
    passed: bool
    detail: str = ""


def verify_identities(m: SupercharMatrices, tensor: StructureTensor,
                      pv: PeriodVector,
                      unitary_tol: float = 1e-9,
                      scaled_tol: float = 1e-8) -> list[CheckResult]:
    """Run every algebraic check on the assembled matrices.

    Failures are reported, never raised.  Tolerances: unitary_tol bounds
    ||U*U - I||_max; scaled_tol * p bounds the residuals that grow with the
    matrix entries (TU = UD, the product identity, traces).
    """
    ctx = tensor.ctx
    d, p, k = ctx.d, ctx.p, ctx.k
    tol_p = scaled_tol * p
    out = []

    err = np.abs(m.U.conj().T @ m.U - np.eye(d + 1)).max()
    out.append(CheckResult("U_unitary", True, err < unitary_tol, f"max_err={err:.3g}"))

    err = np.abs(m.U - m.U.T).max()
    out.append(CheckResult("U_symmetric", True, err < unitary_tol, f"max_err={err:.3g}"))

    err = np.abs(m.T @ m.U - m.U @ m.D).max()
    out.append(CheckResult("TU_eq_UD", True, err < tol_p, f"max_err={err:.3g}"))

    # normality of T, exact on the counting block
    err = np.abs(m.T @ m.T.T - m.T.T @ m.T).max()
    out.append(CheckResult("T_normal", True, err < tol_p, f"max_err={err:.3g}"))

    # product identity: sigma_i(X_l) sigma_j(X_l) = sum_k c_{i,j,k} sigma_k(X_l)
    sigma = np.array([[superchar_value(ctx, pv, i, ell) for ell in range(d + 1)]
                      for i in range(d + 1)])
    max_err = 0.0
    for i in range(d + 1):
        ci = constant_matrix(tensor, i).astype(np.float64)
        lhs = sigma[i][None, :] * sigma
        rhs = ci @ sigma
        max_err = max(max_err, float(np.abs(lhs - rhs).max()))
    out.append(CheckResult("product_identity", True, max_err < tol_p,
                           f"max_err={max_err:.3g}"))

    # column sums of the counting slice
    colsums_ok = all(int(tensor.c0[:, n].sum()) == k for n in range(d))
    out.append(CheckResult("column_sums", True, colsums_ok, f"expected {k}"))

    # rotation symmetry c_{0,m,n} = c_{0,-m,n-m}
    rot_ok = all(tensor.c0[mm, nn] == tensor.c0[(-mm) % d, (nn - mm) % d]
                 for mm in range(d) for nn in range(d))
    out.append(CheckResult("rotation_symmetry", True, rot_ok))

    # T symmetric iff 2d | (p-1)
    sym_applicable = d > 1 and (p - 1) % (2 * d) == 0
    if sym_applicable:
        sym_ok = bool(np.array_equal(tensor.c0[:d, :d], tensor.c0[:d, :d].T))
        out.append(CheckResult("T_symmetric", True, sym_ok))
    else:
        out.append(CheckResult("T_symmetric", False, True, "2d does not divide p-1"))

    # reflected symmetry c_{0,m,n} = c_{0,n+a,m+a} with a the class of -1;
    # for even d with 2d not dividing p-1 this is the half-turn a = d/2
    if d > 1:
        a = ctx.alpha
        half_ok = all(tensor.c0[mm, nn] == tensor.c0[(nn + a) % d, (mm + a) % d]
                      for mm in range(d) for nn in range(d))
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
        lhs_sq = int((tensor.c0[:d, :d].astype(object) ** 2).sum())
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
