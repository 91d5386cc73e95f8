"""graphcensus: exact and asymptotic census of subgraph copies in random
graphs and multigraphs.

Layers:
  graphs       (multi)graph model, isomorphism, copy counting, balance
  series       truncated multivariate power series over exact rationals
  oracle       exhaustive ground truth at tiny sizes, patchwork series
  census       exact counting formulas, each one finite coefficient sum
  models       degree weights, tuning, Boltzmann/configuration samplers
  predictors   closed-form asymptotics (thresholds, Poisson laws, power law)
  experiments  Monte Carlo harness, reports, scaling fits
"""

from .graphs import (
    BalanceClass,
    Multigraph,
    SimpleGraph,
    Subgraph,
    aut_count,
    balance_class,
    canonical_copies,
    density,
    essential_density,
    graph_from_json,
    graph_to_json,
    is_isomorphic,
    pair_family,
    shape,
    strip_orientation_labels,
    subgraph_count,
)
from .models import (
    DegreeDistribution,
    WeightSpec,
    derive_rng,
    sample_configuration,
    sample_delta_multigraph,
    sample_uniform_multigraph,
    sample_uniform_simple,
    solve_tuning,
)
from .series import TruncatedSeries, class_egf, family_egf, lagrange_identity_check

__all__ = [
    "BalanceClass",
    "DegreeDistribution",
    "Multigraph",
    "SimpleGraph",
    "Subgraph",
    "TruncatedSeries",
    "WeightSpec",
    "aut_count",
    "balance_class",
    "canonical_copies",
    "class_egf",
    "density",
    "derive_rng",
    "essential_density",
    "family_egf",
    "graph_from_json",
    "graph_to_json",
    "is_isomorphic",
    "lagrange_identity_check",
    "pair_family",
    "sample_configuration",
    "sample_delta_multigraph",
    "sample_uniform_multigraph",
    "sample_uniform_simple",
    "shape",
    "solve_tuning",
    "strip_orientation_labels",
    "subgraph_count",
]

__version__ = "0.1.0"
