"""Exact-arithmetic zeta functions of self-maps and the fixed-point counts
of the maps they induce on symmetric powers, subset spaces, tuple spaces and
partition-constrained configuration spaces, with brute-force enumeration
oracles for every closed form."""

from .series import (
    NotAUnitError,
    NotExpandableError,
    Poly,
    PowerSeries,
    RationalFunction,
    egf_pack,
    egf_unpack,
    exponent_product,
    rat,
    rat_str,
)
from .multipoly import MultiPoly
from .dynamics import (
    DoldProfile,
    FiniteSelfMap,
    HorizonError,
    InconsistentInputError,
    LefschetzSequence,
    NotRealizableError,
    cycle_profile,
    divisors,
    dold_from_lefschetz,
    lefschetz_from_dold,
    lefschetz_sequence,
    mobius,
    zeta_of_map,
    zeta_series,
)
from .partitions import (
    NotRefinementClosedError,
    PartitionFamily,
    PermutationGroup,
    SetPartition,
    all_partitions,
)
from .oracles import (
    EnumerationLimitError,
    coefficient_traces,
    fixed_bounded_multisets,
    fixed_bounded_tuples,
    fixed_gmap_space,
    fixed_invariant_subsets,
    fixed_partition_orbits,
    induced_bounded_multiset_map,
)
from .identities import (
    DEFAULT_ORDER,
    BoundedSymmetricPower,
    Compose,
    ConstantSphereSmash,
    IdentityFunctor,
    LefschetzPolynomial,
    Smash,
    Wedge,
    bounded_power_polynomial,
    coefficient_identities_check,
    compare_series_with_counts,
    compose_lefschetz,
    configuration_trace_series,
    dold_polynomial_of_functor,
    expression_polynomial,
    general_lefschetz_polynomial,
    gsymm_polynomial,
    integer_lattice_check,
    order_polynomial,
    realize_polynomial,
    rhs_borsuk_ulam,
    rhs_bounded_tuples,
    rhs_symmetric_power,
    symmetric_power_polys,
    verify_identity,
)
from .graded import (
    GradedEndomorphism,
    bareiss_determinant,
    characteristic_rational_function,
    det_one_minus_t,
    graded_lefschetz_numbers,
    graded_zeta,
    koszul_invariant_trace,
    poincare_generating,
)

__version__ = "0.1.0"
