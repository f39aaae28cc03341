"""Multi-commodity flow optimization under maximum-delay constraints.

Solvers for utility maximization over a capacitated directed network where
each commodity has a throughput requirement and a bound on the delay of its
slowest flow-carrying path. The main solver family works by optimizing the
convex average-delay relaxation once and then trimming rate from the slowest
paths; exact and greedy baselines are included for comparison.
"""

from delayflow.graph import (
    Edge,
    Network,
    Path,
    TopologyError,
    builtin_ec2,
    load_topology,
    serialize_topology,
    shortest_path_by_delay,
)
from delayflow.lp import LinearProgram, LpSolution, SolverError, solve_lp
from delayflow.problem import (
    Commodity,
    CommodityMetrics,
    FlowSolution,
    Objective,
    PLFunction,
    ProblemSpec,
    build_counterpart,
    evaluate_metrics,
    make_dcum,
    make_tcdm,
    scaled_identity,
    validate_utility_d,
    validate_utility_t,
)
from delayflow.decompose import cancel_cycles, decompose
from delayflow.algorithms import (
    Counterpart,
    InfeasibleError,
    SolveReport,
    apply_pass,
    apply_pass_m,
    apply_pass_t,
    check_lemma1,
    compute_lambda,
    delete_slowest,
    solve_counterpart,
    solve_pass,
    solve_pass_m,
    solve_pass_t,
)
from delayflow.baselines import solve_exact, solve_greedy

__all__ = [
    "Edge",
    "Network",
    "Path",
    "TopologyError",
    "builtin_ec2",
    "load_topology",
    "serialize_topology",
    "shortest_path_by_delay",
    "LinearProgram",
    "LpSolution",
    "SolverError",
    "solve_lp",
    "Commodity",
    "CommodityMetrics",
    "FlowSolution",
    "Objective",
    "PLFunction",
    "ProblemSpec",
    "build_counterpart",
    "evaluate_metrics",
    "make_dcum",
    "make_tcdm",
    "scaled_identity",
    "validate_utility_d",
    "validate_utility_t",
    "cancel_cycles",
    "decompose",
    "Counterpart",
    "InfeasibleError",
    "SolveReport",
    "apply_pass",
    "apply_pass_m",
    "apply_pass_t",
    "check_lemma1",
    "compute_lambda",
    "delete_slowest",
    "solve_counterpart",
    "solve_pass",
    "solve_pass_m",
    "solve_pass_t",
    "solve_exact",
    "solve_greedy",
]

__version__ = "0.1.0"
