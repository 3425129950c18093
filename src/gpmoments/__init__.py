"""Gaussian periods, their absolute power sums, and the exact counting
identities and bounds that govern them."""

from .circularity import (CircularityVerdict, SubgroupClasses, is_circular,
                          scan_noncircular, subgroup_classes)
from .errors import (CompositeInput, ConfigInvalid, DimensionMismatch,
                     DivisorMismatch, GpmError, IoFailure, NotCircular,
                     PreconditionViolated, UnknownFigure)
from .fermat_curves import CurveCount, PowerTable, count_projective
from .field_core import (CosetHeads, FieldContext, build_context, class_lookup,
                         coset_heads, find_primitive_root, primes_in_range)
from .moments import (BoundInterval, MomentReport, build_report,
                      fermat_solution_count, fixed_k_report, fixed_k_verdicts,
                      hurwitz_count, v1_bounds, v2_exact, v4_d2, v4_d3, v4_d4,
                      v4_fixed_k, v4_general_bounds, v4_pair_count)
from .periods import compute_periods, power_sums
from .superchar import (StructureTensor, build_tensor, count_checks,
                        verify_identities, zero_sum_counts)

__all__ = [name for name in dir() if not name.startswith("_")]
