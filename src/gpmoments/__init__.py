"""Gaussian periods, their absolute power sums, and the exact counting
identities and bounds that govern them."""

from .circularity import (CircularityVerdict, diagonal_counts_check,
                          half_inverse_check, is_circular, scan_noncircular)
from .errors import (CompositeInput, ConfigInvalid, DimensionMismatch,
                     DivisorMismatch, GpmError, InconsistentCounts, IoFailure,
                     NonIntegralResult,
                     NotCircular, PreconditionViolated, UnknownFigure)
from .fermat_curves import (CurveCount, PowerTable, count_projective,
                            dictionary_check, predicted_count)
from .field_core import (FieldContext, build_context, find_primitive_root,
                         is_prime, primes_in_range)
from .moments import (BoundInterval, MomentReport, build_report,
                      fermat_solution_count, hurwitz_count, v1_bounds, v2_exact,
                      v4_d3, v4_d4, v4_d5_bounds, v4_exact_from_counts,
                      v4_fixed_k, v4_general_bounds, vn_d2_closed_form)
from .periods import (PeriodVector, PowerSumValue, compute_periods,
                      gauss_sum_aggregate, power_sum_direct)
from .superchar import (StructureTensor, SupercharMatrices, build_matrices,
                        build_tensor, verify_identities)

__all__ = [name for name in dir() if not name.startswith("_")]
