"""
hilbfock: exact partition, generating-function, Fock-space and
commuting-matrix calculus for Hilbert schemes of points on a surface.
"""

from .partitions import (MismatchedWeight, Partition, PartitionTuple,
                         count_with_length, multiplicity_factorial,
                         partitions_of, refines, splittings,
                         splittings_merging_to, splittings_with_drop)
from .series import (CoeffPoly, FactorFamily, IndexOutOfRange, OrderMismatch,
                     QTSeries, UnknownVariable, product_expand)
from .surfaces import (ABELIAN, DELTA, K3, P2, P1XP1, PRESETS,
                       MissingHodgeData, SurfaceModel)
from .goettsche import (equivariant_k_dim, general_binomial,
                        goettsche_families, hilbert_euler, hilbert_hodge,
                        hilbert_poincare_from_strata, hilbert_poincare_series,
                        hodge_sym, orbifold_euler, punctual_poincare,
                        stratum_poincare, sym_poincare, sym_poincare_product,
                        sym_poincare_table, sym_total_dim)
from .heisenberg import (MIXED, Annihilate, Central, Create, FockMonomial,
                         FockState, ModeNonPositive, UnknownClass, WrongModel,
                         commutator, degree_of, enumerate_monomials,
                         graded_character, level_dim, random_state,
                         stratum_class)
from .linalg import GaussianRational, IdentityFailed, SpectrumNotSplit
from .adhm import (MatrixTriple, NotCommuting, NotInBidisk, SupportCycle,
                   ZeroScalar, from_monomial_ideal, in_bidisk, is_commuting,
                   is_stable, read_triple, retract, support_cycle,
                   torus_scale, trace_invariant, trace_table, write_triple)
from .stratification import (StalkTable, global_degeneration_check,
                             local_fiber_check, stalk_table, support_strata)

__version__ = "0.1.0"
