"""rankaudit: audit bias-mitigation methods beyond between-group metrics.

Train a baseline scorer, apply mitigation methods, convert scores to
decisions under explicit selection-rate policies, and quantify both
between-group fairness (SPD, EOD, PDR) and within-group ranking disruption
(per-group AUC, Kendall-Tau), plus synthetic-world checks of when
per-group thresholds are all a fair decision needs.
"""

from .audit import (
    AuditReport,
    ScoreAudit,
    audit_scores,
    auc,
    build_report,
    kendall_tau,
    quadrant_analysis,
    spd,
    eod,
)
from .dataset import (
    Dataset,
    DatasetSpec,
    FeatureColumn,
    Split,
    builtin_specs,
    ingest,
    split,
    verify_base_rate,
)
from .decide import DecisionPolicy, DecisionSet, decide
from .mitigate import (
    CriticalRegion,
    GroupThresholds,
    MixingRates,
    apply_group_thresholds,
    apply_mixing,
    apply_reject_option,
    disparate_impact_remove,
    fit_equalized_odds_post,
    fit_threshold_optimizer,
    reject_option_classify,
)
from .scorer import (
    ScoreSet,
    Scorer,
    ScorerConfig,
    fit,
    ingest_external_scores,
    score,
)
from .worlds import (
    FairWorld,
    RatePair,
    anti_monotone_world,
    decomposition_check,
    monotonicity_check,
    pareto_check,
    rates,
    threshold_decision,
    wage_gap_world,
)

__version__ = "0.1.0"
