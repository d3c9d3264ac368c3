"""dpbox: differential privacy for tunable approximation algorithms.

The core idea: an approximation algorithm whose multiplicative and additive
error knobs can be tuned is one noise draw away from a private mechanism.
wrap_laplace and wrap_cauchy retune those knobs from the privacy budget, run
the algorithm once, and add noise scaled to a smooth upper bound on local
sensitivity computed from the algorithm's own output. Each of the two noise
routes, Laplace and Cauchy, is one entry of mechanisms._ROUTES, and both
draw through one inverse-CDF kernel in noise. The rest of the
package supplies substrates to wrap (sublinear graph estimators, streaming
sketches, a knapsack FPTAS, sliding-window adapters), exact oracles to test
them against, and an empirical privacy auditor.
"""

from .noise import make_rng, sample_cauchy, sample_laplace
from .mechanisms import (ApproxParams, GridSpec, MechanismTrace, TunableSubstrate,
                         WrapConfig, accuracy_interval, boost_replicas, lemma_fptas_bounds,
                         median_replicas, pure_dp_fallback_prob, route_params,
                         smooth_bound, theorem_main_bounds, to_pure_dp, tune_rho_cauchy,
                         tune_rho_laplace, wrap_cauchy, wrap_laplace, wrap_trials)
from .graphs import (Graph, connected_components_exact, format_graph,
                     kruskal_mst_weight, load_graph, parse_graph, save_graph,
                     toggle_edge)
from .graph_estimators import (CcEstimateParams, QueryGraph, cc_estimate,
                               cc_exact, mst_weight_estimate, mst_weight_exact)
from .knapsack import (KnapsackInstance, format_knapsack, knapsack_exact,
                       knapsack_fptas, load_knapsack, parse_knapsack,
                       save_knapsack)
from .streams import (UpdateStream, exact_distinct, exact_f2, exact_frequencies,
                      exact_l2, format_stream, load_stream, parse_stream,
                      save_stream, stream_neighbor)
from .sketches import AmsSketch, KmvSketch
from .windows import (DistinctExactFamily, F2ExactFamily, SketchFamily,
                      SmoothHistogram, SmoothnessParams,
                      smooth_histogram_distinct, smooth_histogram_f2,
                      smoothness_check_de, smoothness_check_f2)
from .audit import AuditReport, audit_samples, estimate_epsilon
from .substrates import (SUBSTRATE_NAMES, audit_neighbor, dataset_kind, default_delta_f,
                         exact_value, load_dataset, make_substrate, query_budget)

__version__ = "0.1.0"
