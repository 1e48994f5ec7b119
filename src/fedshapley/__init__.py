"""Deterministic federated-training simulation with per-participant
contribution estimation.

The package splits into coalition-game math (:mod:`fedshapley.games`),
trainable models (:mod:`fedshapley.models`), the federated loop and its
persistent gradient logs (:mod:`fedshapley.federation`), data partition
scenarios (:mod:`fedshapley.scenarios`), the estimator suite
(:mod:`fedshapley.estimators`), distance metrics and reports
(:mod:`fedshapley.metrics`), and a command-line driver
(:mod:`fedshapley.cli`).
"""

from .estimators import (EstimatorReport, GtgConfig, RetrainOracle, RoundGame,
                         estimator_names, gtg_eval, gtg_oti, gtg_round, gtg_ti,
                         gtg_tib, guided_permutation, mc_shapley, mr_eval,
                         original_shapley_eval, position_marginal_profile,
                         round_marginal_gains, run_log_estimator,
                         tmc_shapley_eval, tmr_eval)
from .federation import (GradientLog, LogFormatError, Participant, RoundRecord,
                         fedavg_aggregate, load_log, load_log_metadata,
                         reconstruct_submodel, run_federation, save_log)
from .games import (CapacityError, CoalitionGame, ContributionVector,
                    ConvergenceWindow, CyclingPermutationSampler,
                    UniformPermutationSampler, check_convergence,
                    convergence_criterion, exact_shapley,
                    exact_shapley_by_permutations, permutation_marginals)
from .metrics import (ComparisonRow, build_report, cosine_distance,
                      euclidean_distance, max_difference, read_report,
                      report_to_csv, write_report)
from .models import (EvalSet, LabeledDataset, ModelArchitecture, TrainConfig,
                     eval_set, evaluate, finite_difference_check,
                     gradient_update, init_params, loss_and_gradient,
                     predict_logits, train_local)
from .scenarios import (ScenarioKind, ScenarioSpec, SyntheticSource,
                        default_noise_rates, default_size_ratios,
                        generate_source, load_idx, pair_of, partition)
from .seeding import derive_seed

__version__ = "0.1.0"

__all__ = [
    "CapacityError", "CoalitionGame", "ComparisonRow", "ContributionVector",
    "ConvergenceWindow", "CyclingPermutationSampler", "EstimatorReport",
    "EvalSet", "GradientLog", "GtgConfig", "LabeledDataset",
    "LogFormatError", "ModelArchitecture", "Participant", "RetrainOracle",
    "RoundGame", "RoundRecord", "ScenarioKind", "ScenarioSpec",
    "SyntheticSource", "TrainConfig", "UniformPermutationSampler",
    "build_report", "check_convergence", "convergence_criterion",
    "cosine_distance", "default_noise_rates", "default_size_ratios",
    "derive_seed", "estimator_names", "euclidean_distance", "eval_set",
    "evaluate",
    "exact_shapley", "exact_shapley_by_permutations", "fedavg_aggregate",
    "finite_difference_check", "generate_source", "gradient_update",
    "gtg_eval", "gtg_oti", "gtg_round", "gtg_ti", "gtg_tib",
    "guided_permutation", "init_params", "load_idx", "load_log",
    "load_log_metadata", "loss_and_gradient", "max_difference", "mc_shapley",
    "mr_eval", "original_shapley_eval",
    "pair_of", "partition", "permutation_marginals", "position_marginal_profile",
    "predict_logits", "read_report", "reconstruct_submodel", "report_to_csv",
    "round_marginal_gains", "run_federation", "run_log_estimator", "save_log",
    "tmc_shapley_eval", "tmr_eval", "train_local", "write_report",
]
