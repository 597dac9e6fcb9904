"""Nonclassicality witnesses for multiplexed photon-counting detectors.

Assembles counting (C) and moment (M) witness matrices over integer and
half-integer index sets for photoelectric, multiplexed on-off, and
partially number-resolving detection, evaluates the associated scalar
criteria, and samples the predicted statistics for empirical workflows.
"""

from .detectors import (
    CountDistribution,
    DetectorConfig,
    click_distribution,
    click_moment,
    click_moment_from_counts,
    factorial_moment,
    photo_distribution,
    pnr_distribution,
    pnr_moment,
    pnr_moment_from_counts,
    pnr_povm,
)
from .multimode import (
    MultiIndex,
    RatioResult,
    count_ratio_criterion,
    joint_counts,
    joint_moment,
    mean_total_photons,
    multimode_matrices,
    ratio_criterion,
)
from .numerics import HalfInt, SymMatrix, binom, leading_minors, min_eigenvalue, multinom
from .sampler import (
    EmpiricalWitness,
    SampleRun,
    empirical_witness,
    read_histogram,
    sample,
    write_histogram,
)
from .scenarios import Scenario, StateInput, SweepSpec, presets, scenario_from_json
from .states import (
    CoherentSuperposition,
    FockVector,
    Mixture,
    NOExpr,
    coherent_state,
    expect,
    expect_fock,
    make_cat,
    to_fock,
)
from .witnesses import (
    ClickStats,
    IndexSet,
    KlyshkoResult,
    WitnessReport,
    click_stats,
    count_matrix,
    count_matrix_from_counts,
    enumerate_index_sets,
    g_functions,
    g_matrix,
    klyshko_ratio,
    moment_matrix,
    moment_matrix_from_counts,
    qb_parameter,
    skewness_witness,
)

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
