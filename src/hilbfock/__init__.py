"""
hilbfock: exact partition, generating-function, Fock-space and
commuting-matrix calculus for Hilbert schemes of points on a surface.

Each top-level name loads its module on first use (PEP 562), so a
command-line request loads only the layers its subcommand calls.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "partitions": """MismatchedWeight Partition PartitionTuple
        count_with_length multiplicity_factorial partitions_of refines
        splittings splittings_merging_to splittings_with_drop""",
    "poly": "CoeffPoly UnknownVariable",
    "series": """FactorFamily IndexOutOfRange OrderMismatch QTSeries
        product_expand""",
    "surfaces": """ABELIAN DELTA K3 P2 P1XP1 PRESETS MissingHodgeData
        SurfaceModel""",
    "product": "goettsche_families hilbert_hodge hilbert_poincare_series",
    "counts": """equivariant_k_dim general_binomial hilbert_euler
        orbifold_euler punctual_poincare sym_total_dim""",
    "goettsche": """hilbert_poincare_from_strata hodge_sym stratum_poincare
        sym_poincare sym_poincare_product sym_poincare_table""",
    "heisenberg": """MIXED Annihilate Central Create FockMonomial FockState
        ModeNonPositive UnknownClass WrongModel commutator degree_of
        enumerate_monomials graded_character level_dim random_state
        stratum_class""",
    "_base": "IdentityFailed",
    "linalg": "GaussianRational SpectrumNotSplit",
    "adhm": """MatrixTriple NotCommuting NotInBidisk SupportCycle
        ZeroScalar from_monomial_ideal in_bidisk is_commuting is_stable
        read_triple retract support_cycle torus_scale trace_invariant
        trace_table write_triple""",
    "stratification": """StalkTable global_degeneration_check
        local_fiber_check stalk_table support_strata""",
}
_HOME = {name: module for module, names in _EXPORTS.items()
         for name in names.split()}

__all__ = list(_HOME)


def __getattr__(name):
    if name in _EXPORTS:  # a submodule, bound as when all were imported
        return import_module("." + name, __name__)
    if name not in _HOME:
        raise AttributeError("module hilbfock has no attribute %r" % name)
    value = globals()[name] = getattr(
        import_module("." + _HOME[name], __name__), name)
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
