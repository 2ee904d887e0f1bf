"""Biased k-majority dynamics: simulation engine and mean-field analyzer."""

from kmajority.meanfield import (
    BiasMode,
    CriticalValues,
    FixedPointSet,
    MeanFieldParams,
    Regime,
    Trajectory,
    binom_pmf,
    binom_tail_geq,
    closed_form_k3,
    critical_bias_k,
    critical_bias_kq,
    eval_F,
    eval_F_even,
    eval_dF,
    eval_d2F,
    fixed_points,
    trajectory,
)
from kmajority.graph import (
    DensityReport,
    Graph,
    GraphConstructionError,
    GraphFormatError,
    GraphKind,
    GraphSpec,
    density_report,
    generate,
    load_edge_list,
    parse_graph_spec,
    save_edge_list,
)
from kmajority.dynamics import (
    Configuration,
    DynamicsParams,
    Family,
    RunRecord,
    default_max_rounds,
    init_random,
    phi_stats,
    run,
    step,
)
from kmajority.experiments import (
    CellSummary,
    ComparisonReport,
    DisruptionCurve,
    SweepSpec,
    disruption_curve,
    meanfield_comparison,
    run_sweep,
    write_runs_csv,
    write_summary_json,
)
from kmajority.stats import ks_two_sample, mann_whitney_u

__version__ = "0.1.0"
