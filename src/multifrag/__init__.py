"""Homogeneous multitype fragmentation processes.

Library for simulating multitype fragmentations driven by finite-atom
dislocation measures, computing the tagged-fragment Markov additive
characteristics and matrix exponent in closed form, and checking the
martingale, law-of-large-numbers, central-limit and large-deviation
predictions by Monte Carlo.
"""

from . import errors
from .asymptotics import (
    EmpiricalMeasure,
    adaptive_simpson,
    biggins_martingale,
    bump,
    clt_statistic,
    coswin,
    empirical_measure,
    gaussian_limit,
    largest_fragment_rates,
    lattice_check,
    ld_count,
    ld_predicted_shape,
    ld_window,
    ld_window_exponent,
    lln_statistic,
    sigmoid,
    stationary_distribution,
    make_test_function,
)
from .measures import (
    THETA_LOWER,
    DislocationAtom,
    FragmentationSpec,
    MapCharacteristics,
    bernstein_matrix,
    fragmentation_spec,
    intensity_matrix,
    irreducibility_check,
    jump_sizes,
    map_characteristics,
    validate_spec,
)
from .paintbox import paint, sample_paintbox, size_biased_tag
from .partitions import (
    TypedBlockPartition,
    TypedMassPartition,
    asymptotic_frequencies,
    build_typed_mass_partition,
    dislocate_term,
    frag,
    mass_partition_distance,
    one_block_partition,
    restrict,
    typed_block_partition,
)
from .simulate import (
    Event,
    Fragment,
    FragmentationPath,
    PartitionPath,
    Snapshot,
    TaggedPath,
    mass_ensemble,
    simulate_mass_fragmentation,
    simulate_partition_fragmentation,
    simulate_tagged,
    tagged_ensemble,
)
from .spectral import (
    SpectralData,
    perron_eigen,
    perron_grid,
    theta_bar,
)
from .streams import replica_stream

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
