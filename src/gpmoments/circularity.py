"""Circularity of (p, k) pairs and the diagonal-count facts that follow.

(p, k) is circular when every two distinct translated dilates of the order-k
subgroup Gamma of F_p^x meet in at most 2 points.  Affine maps reduce the
general pair to comparing Gamma against Gamma g^m + t.  For t = g^n != 0,
|Gamma ^ (Gamma g^m + t)| is the structure constant c_{0, m+alpha, n}, a
cyclotomic number of order d = (p-1)/k; for t = 0 and m != 0 it is 0.  So
the largest intersection is the largest cyclotomic number, read off the
structure tensor.
"""

from dataclasses import dataclass

from .errors import DimensionMismatch, DivisorMismatch, PreconditionViolated
from .field_core import build_context, primes_in_range
from .superchar import StructureTensor, build_tensor


@dataclass(frozen=True)
class CircularityVerdict:
    p: int
    k: int
    circular: bool
    max_intersection: int
    # (m, t) with |Gamma ^ (Gamma g^m + t)| = max_intersection, when that is >= 3
    witness: tuple[int, int] | None


def is_circular(p: int, k: int,
                tensor: StructureTensor | None = None) -> CircularityVerdict:
    """Decide circularity from the cyclotomic numbers of order d = (p-1)/k.

    tensor, when given, is the structure tensor of p at any multiple of d
    (the classes of order d are its coset indices mod d); otherwise one is
    built, and only then is p tested for primality (build_context raises
    CompositeInput unless p is an odd prime).  The witness comes from the
    first largest number (i, j)_d in key order (`largest_number`):
    n = alpha - i, m = j - i (mod d) and t = g^n.
    """
    if tensor is not None and tensor.ctx.p != p:
        raise DimensionMismatch(f"tensor of p={tensor.ctx.p} cannot decide p={p}")
    if k < 1 or (p - 1) % k != 0:
        raise DivisorMismatch(f"k={k} does not divide p-1={p - 1}")
    d = (p - 1) // k
    if tensor is None:
        tensor = build_tensor(build_context(p, d))
    ctx = tensor.ctx
    max_int, i, j = tensor.largest_number(d)
    witness = None
    if max_int >= 3:
        n = (ctx.alpha - i) % d  # alpha mod d: the class of -1 at order d
        witness = ((j - i) % d, pow(ctx.g, n, p))
    return CircularityVerdict(p=p, k=k, circular=max_int <= 2,
                              max_intersection=max_int, witness=witness)


def circularity_verdicts(k: int, p_max: int) -> list[CircularityVerdict]:
    """Verdicts on (p, k) for the primes 3 <= p <= p_max with k | (p-1),
    ascending."""
    return [is_circular(p, k) for p in primes_in_range(3, p_max, (k, 1))]


def scan_noncircular(k: int, p_max: int) -> list[int]:
    """Ascending primes p <= p_max with k | (p-1) that are not circular."""
    if k < 2:
        raise PreconditionViolated("k must be >= 2")
    return [v.p for v in circularity_verdicts(k, p_max) if not v.circular]
