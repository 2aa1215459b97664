"""Finite-budget attack-configuration search against simulated victims.

The package searches discrete attack-configuration spaces with a
retrieval-warm-started, feedback-refined proposal distribution, scores
candidates with a scalarized utility over reward drop, action flips,
evaluation time, and return variability, and ships exact oracles that
validate the correction-mass, hitting-time, and finite-episode coverage
guarantees behind the search.
"""

__version__ = "0.1.0"
