"""Structure constants c_{i,j,k}, the matrices T and U, and their identities.

Every structure constant is a re-indexing of the cyclotomic numbers
(i, j)_d = #{v in X_i : v + 1 in X_j}, which one O(p) pass over the
class-index table counts exactly.  They are stored once, sparsely: at most
p - 2 of the d^2 numbers are nonzero.  `StructureTensor.constant` is the one
map from c_{0,u,w} to them and the one place that knows the border class
d = {0}; the dense (d+1) x (d+1) slice `c0` is read through it.  Every dense
(d+1) x (d+1) array is refused with ConfigInvalid when it would exceed
DENSE_BUDGET_BYTES.  Floats only enter with the periods `eta`, the
tensor's spectrum, and when the counts are assembled into T and U for the
analytic identities.
"""

from dataclasses import dataclass
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
    # as d allows, and a product taken in its dtype would wrap.  Built in
    # place to hold one O(p) temporary.
    key = np.multiply(ci[:-1], e, dtype=np.min_scalar_type(e * e - 1))
    key += ci[1:]
    if e * e <= ctx.p:
        # bincount copies its input to intp: count COUNT_CHUNK keys at a time
        # so that copy stays small, or e*e at a time so that adding up the
        # histograms is at most one more pass over the keys
        step = max(COUNT_CHUNK, e * e)
        dense = np.zeros(e * e, dtype=np.intp)
        for a in range(0, len(key), step):
            dense += np.bincount(key[a:a + step], minlength=e * e)
        keys = np.flatnonzero(dense)
        return keys, dense[keys]
    keys, counts = np.unique(key, return_counts=True)
    return keys.astype(np.int64), counts


@dataclass(frozen=True)
class StructureTensor:
    """The structure constants of (p, d), held as sparse cyclotomic numbers.

    keys (ascending) and counts list the nonzero (i, j)_d, key i*d + j;
    `constant` reads any c_{0,u,w} off them.  The periods `eta` of the same
    (p, d) are computed on first read and cached.
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

    def constant(self, u, w) -> np.ndarray:
        """c_{0,u,w} = #{(x, y) in X_0 x X_u : x + y = z} for a z in X_w, for
        classes 0..d (integers or broadcastable index arrays): the stored
        (u, w)_d, key u*d + w, for u, w < d; on row or column d, c_{0,d,0} = 1
        (y = 0 forces x = z), c_{0,alpha,d} = k (z = 0 forces y = -x, a whole
        class) and 0 elsewhere.

        Every other constant reduces to these: x = 0 (i = d) forces y = z, so
        c_{d,j,n} = [j = n]; for i < d, dividing by x shifts the classes of
        j, n by -i, the border class d = {0} staying put.
        """
        d = self.ctx.d
        u, w = np.asarray(u), np.asarray(w)
        want = u * d + w
        pos = np.minimum(np.searchsorted(self.keys, want), len(self.keys) - 1)
        found = np.where(self.keys[pos] == want, self.counts[pos], 0)
        # the border rule overrides the lookup: u*d + d is the key of (u+1, 0)_d
        border = np.where(u == d, w == 0, (u == self.ctx.alpha) * self.ctx.k)
        return np.where((u == d) | (w == d), border, found)

    @cached_property
    def c0(self) -> np.ndarray:
        """Dense read-only (d+1) x (d+1) slice c_{0,j,n}, 0 <= j, n <= d,
        read through `constant`."""
        d = self.ctx.d
        check_dense_budget(d, np.int64)
        c0 = self.constant(*np.indices((d + 1, d + 1), sparse=True))
        c0.flags.writeable = False
        return c0

    @cached_property
    def eta(self) -> np.ndarray:
        """The d Gaussian periods of this tensor's (p, d): with k they are
        the spectrum of T, TU = U diag(eta, k)."""
        return periods.compute_periods(self.ctx)


def zero_sum_counts(tensor: StructureTensor, n: int) -> list[int]:
    """N_m = #{(x_1, ..., x_m) in X_0^m : x_1 + ... + x_m = 0}, m = 0..n, in
    Python ints.  r_m[w], the number of m-tuples of X_0 summing to a z in
    class w, walks from r_0 = e_d (the empty tuple) by r_{m+1}[w] =
    sum_u c_{0,u,w} r_m[u]: the stored (u, w)_d plus the border constants
    c_{0,d,0} = 1 and c_{0,alpha,d} = k.  So r_1 = e_0 and N_m = r_m[d]."""
    ctx, d = tensor.ctx, tensor.ctx.d
    terms = [(*divmod(key, d), c)
             for key, c in zip(tensor.keys.tolist(), tensor.counts.tolist())]
    r, out = [0] * d + [1], [1]
    for _ in range(n):
        nxt = [0] * (d + 1)
        for u, w, c in terms:
            nxt[w] += c * r[u]
        nxt[0] += r[d]
        nxt[d] = ctx.k * r[ctx.alpha]
        r = nxt
        out.append(r[d])
    return out


@dataclass(frozen=True)
class SupercharMatrices:
    U: np.ndarray  # (d+1) x (d+1) complex, symmetric unitary
    T: np.ndarray  # (d+1) x (d+1) real
    # (d+1) x (d+1) complex sigma[i, l] = sigma_i(X_l): eta_{i+l}, k on
    # X_d = {0}, 1 for i = d; row 0 is the spectrum, TU = U diag(sigma[0])
    sigma: np.ndarray


def build_tensor(ctx: FieldContext) -> StructureTensor:
    """Count the cyclotomic numbers of order d in one vectorized O(p) pass."""
    keys, counts = _cyclotomic_numbers(ctx, ctx.d)
    return StructureTensor(ctx=ctx, keys=keys, counts=counts)


def build_matrices(tensor: StructureTensor) -> SupercharMatrices:
    """Gather the period circulant sigma once, and derive U from it and T
    from the counts."""
    d, p, k = tensor.ctx.d, tensor.ctx.p, tensor.ctx.k
    check_dense_budget(d, complex)

    sigma = np.ones((d + 1, d + 1), dtype=np.complex128)
    sigma[:d, :d] = tensor.eta[np.add.outer(np.arange(d), np.arange(d)) % d]
    sigma[:d, d] = k
    U = sigma.copy()
    U[:d, d] = U[d, :d] = np.sqrt(k)
    U /= np.sqrt(p)

    sizes = np.array([k] * d + [1], dtype=np.float64)
    scale = np.sqrt(sizes[None, :] / sizes[:, None])
    T = tensor.c0.astype(np.float64) * scale

    return SupercharMatrices(U=U, T=T, sigma=sigma)


@dataclass(frozen=True)
class CheckResult:
    name: str
    applicable: bool
    passed: bool
    detail: str = ""


def verify_identities(tensor: StructureTensor) -> list[CheckResult]:
    """Assemble the matrices (`build_matrices`) and run every algebraic check.

    Failures are reported, never raised.  UNITARY_TOL bounds the residuals of
    U; SCALED_TOL * p bounds those that grow with the matrix entries (TU = UD,
    the product identity, traces).
    """
    m = build_matrices(tensor)
    ctx = tensor.ctx
    d, p, k = ctx.d, ctx.p, ctx.k
    tol_p = SCALED_TOL * p
    out = []

    err = np.abs(m.U.conj().T @ m.U - np.eye(d + 1)).max()
    out.append(CheckResult("U_unitary", True, err < UNITARY_TOL, f"max_err={err:.3g}"))

    err = np.abs(m.U - m.U.T).max()
    out.append(CheckResult("U_symmetric", True, err < UNITARY_TOL, f"max_err={err:.3g}"))

    # T u_l = lambda_l u_l for every column u_l of U
    err = np.abs(m.T @ m.U - m.U * m.sigma[0]).max()
    out.append(CheckResult("TU_eq_UD", True, err < tol_p, f"max_err={err:.3g}"))

    # normality of T, exact on the counting block
    TtT = m.T.T @ m.T  # read again by the trace identity
    err = np.abs(m.T @ m.T.T - TtT).max()
    out.append(CheckResult("T_normal", True, err < tol_p, f"max_err={err:.3g}"))

    # product identity: sigma_i(X_l) sigma_j(X_l) = sum_n c_{i,j,n} sigma_n(X_l).
    # c_{i,j,n} = c_{0,j-i,n-i} and sigma_i(X_l) = sigma_0(X_{l+i}) (classes
    # shifted mod d, the border d staying put), so the equations of row i < d
    # are those of row 0; row d (c_{d,j,n} = [j = n], sigma_d = 1) holds
    # exactly.  Row 0 holds every equation that can fail.
    err = tensor.c0.astype(np.complex128) @ m.sigma
    err -= m.sigma[0] * m.sigma
    err = float(np.abs(err).max())
    out.append(CheckResult("product_identity", True, err < tol_p,
                           f"max_err={err:.3g}"))

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
    tr = float(np.trace(TtT))
    v2 = float(np.sum(np.abs(tensor.eta) ** 2))
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

    return out


def all_passed(results: list[CheckResult]) -> bool:
    return all(r.passed for r in results)
