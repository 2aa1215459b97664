"""Finite-budget attack-configuration search against simulated victims.

The package searches discrete attack-configuration spaces with a
retrieval-warm-started, feedback-refined proposal distribution, scores
candidates with a scalarized utility over reward drop, action flips,
evaluation time, and return variability, and ships exact oracles that
validate the correction-mass, hitting-time, and finite-episode coverage
guarantees behind the search.
"""

from .configspace import (AllocationRule, AttackConfig, AttackFamily, ConfigSpace,
                          FamilyGrid, SpaceError, decode_config, default_config_space)
from .evaluation import (DEFAULT_WEIGHTS, CleanBaseline, UtilityReport, UtilityWeights,
                         estimate_utility, make_baseline, reward_drop,
                         scalarize, scout_confirm, variability)
from .memory import (AttackMemory, MemoryRecord, TaskSummary, similarity, summarize,
                     warm_start)
from .proposal import ProposalDistribution, correction_operator, update
from .search import (FeedbackSignal, SearchHistory, SearchParams, SearchResult,
                     feedback, induced_proposal, propose_batch, run_search)
from .theory import (CheckRow, EffectiveSet, UtilityMap, baseline_gap,
                     brute_force_utility, coverage_experiment, effective_set,
                     gibbs_reference, hit_probability, hitting_time_bound,
                     hoeffding_bound, monte_carlo_hitting_time, noisy_correction_check)
from .victims import (LinearWorldModelVictim, ResponseSurfaceVictim, RolloutBatch,
                      apply_perturbation, surface_task, surface_task_family)

__version__ = "0.1.0"
