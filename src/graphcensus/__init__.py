"""graphcensus: exact and asymptotic census of subgraph copies in random
graphs and multigraphs.

Layers:
  graphs       (multi)graph model, isomorphism, copy counting, balance
  series       truncated multivariate power series over exact rationals
  oracle       exhaustive ground truth at tiny sizes (the test instrument)
  census       exact counting formulas, each one finite coefficient sum;
               patchworks built by gluing copies
  models       degree weights, tuning, Boltzmann/configuration samplers
  predictors   closed-form asymptotics (thresholds, Poisson laws, power law)
  experiments  Monte Carlo harness, reports, scaling fits
"""

from .graphs import (
    BalanceClass,
    Graph,
    Multigraph,
    SimpleGraph,
    Subgraph,
    aut_count,
    balance_class,
    density,
    essential_density,
    graph_from_json,
    graph_to_json,
    is_isomorphic,
    pair_family,
    shape,
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
    "Graph",
    "Multigraph",
    "SimpleGraph",
    "Subgraph",
    "TruncatedSeries",
    "WeightSpec",
    "aut_count",
    "balance_class",
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
    "subgraph_count",
]

__version__ = "0.1.0"
