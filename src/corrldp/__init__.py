"""Correlation-aware local differential privacy for genotype sharing.

Share SNP sequences under a likelihood-ratio privacy guarantee that keeps
holding when the data are correlated: states ruled out by already-shared
values are eliminated before randomizing, the report distribution is
adjusted to the survivors, and utility-aware processing orders keep beacon
answers accurate.  The attacker the design defends against — correlation-
based belief sharpening — ships alongside, with estimation-error scoring,
family budget accounting through Mendelian inheritance, an analytic leakage
bound, and a seeded experiment harness.
"""

from .attack import (
    AttackConfig,
    AttackerBelief,
    attack_population,
    estimation_error,
    population_estimation_error,
    recover_possible_inputs,
    rr_belief_population,
    rr_postprocess_population,
)
from .beacon import (
    AccuracyReport,
    DecisionRule,
    beacon_accuracy,
    per_snp_expected_utility,
)
from .data import (
    NUM_STATES,
    STATES,
    CorrelationModel,
    GenotypeError,
    GenotypeMatrix,
    GenotypeParseError,
    SyntheticSpec,
    as_seed_sequence,
    compute_correlation_model,
    generate_synthetic_population,
    hardy_weinberg_triple,
    load_genotype_matrix,
    save_genotype_matrix,
)
from .experiments import (
    ExperimentConfig,
    ExperimentResult,
    OrderStrategy,
    TrialResult,
    run_experiment,
    run_single_trial,
    write_results,
)
from .kinship import (
    FamilyShape,
    FamilyState,
    ShareRecord,
    indirect_budget_one_child,
    indirect_budget_two_children,
    max_budget_general,
    max_budget_one_child,
    max_budget_second_child,
    posterior_parent_given_share,
    posterior_parent_given_two_shares,
    select_donor_budget,
)
from .leakage import LeakageQuery, leakage_upper_bound
from .mechanism import (
    Branch,
    MechanismConfig,
    PerturbedSequence,
    PopulationShare,
    SharingMode,
    branch_tables,
    perturb_population,
    perturb_sequence,
    sharing_probs,
)
from .ordering import (
    EXACT_METHOD_MAX_SNPS,
    OrderPolicy,
    expected_utility_of_order,
    greedy_share,
    optimal_order_value_iteration,
    random_order,
)
from .rr import FrequencyEstimate, PerturbParams, rr_estimate_frequencies, rr_params, rr_perturb

__version__ = "0.1.0"

__all__ = [
    "AttackConfig", "AttackerBelief", "attack_population",
    "estimation_error", "population_estimation_error", "recover_possible_inputs",
    "rr_belief_population", "rr_postprocess_population",
    "AccuracyReport", "DecisionRule", "beacon_accuracy", "per_snp_expected_utility",
    "NUM_STATES", "STATES", "CorrelationModel", "GenotypeError", "GenotypeMatrix",
    "GenotypeParseError", "SyntheticSpec", "as_seed_sequence",
    "compute_correlation_model", "generate_synthetic_population",
    "hardy_weinberg_triple", "load_genotype_matrix", "save_genotype_matrix",
    "ExperimentConfig", "ExperimentResult", "OrderStrategy", "TrialResult",
    "run_experiment", "run_single_trial", "write_results",
    "FamilyShape", "FamilyState", "ShareRecord", "indirect_budget_one_child",
    "indirect_budget_two_children", "max_budget_general", "max_budget_one_child",
    "max_budget_second_child", "posterior_parent_given_share",
    "posterior_parent_given_two_shares", "select_donor_budget",
    "LeakageQuery", "leakage_upper_bound",
    "Branch", "MechanismConfig", "PerturbedSequence", "PopulationShare",
    "SharingMode", "branch_tables", "perturb_population", "perturb_sequence",
    "sharing_probs",
    "EXACT_METHOD_MAX_SNPS", "OrderPolicy", "expected_utility_of_order",
    "greedy_share", "optimal_order_value_iteration", "random_order",
    "FrequencyEstimate", "PerturbParams", "rr_estimate_frequencies", "rr_params",
    "rr_perturb",
]
