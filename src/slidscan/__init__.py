"""Liquidity-pool drain forensics: AMM replay, profit metrics, rule-based
and learned detectors, synthetic scenario generation, and dataset tooling."""

from .ledger import (
    Category,
    Dex,
    DexOrder,
    LedgerState,
    PoolRecord,
    audit_reserves,
    verify_owner_guarantee,
)
from .metrics import (
    ProfitReport,
    ProfitTakingEvent,
    profit_report,
    realized_profit,
    unrealized_profit,
)
from .validators import (
    HeuristicConfig,
    Label,
    SecurityProfile,
    Verdict,
    classify_pool,
    honeypot_validate,
    judge_pool,
    owner_activity_validate,
    profit_validate,
    rugpull_detect,
    stability_check,
)
from .features import FEATURE_NAMES, FeatureVector, extract_features
from .synth import (
    GeneratedScenario,
    InfeasibleConfig,
    ScenarioConfig,
    ScenarioKind,
    build_corpus,
    generate,
    oracle_report,
)
from .earlywarn import (
    ClassifierKind,
    ClassifierModel,
    CorpusBundle,
    EvalMetrics,
    load_model,
    predict,
    save_model,
    sweep,
    train,
    window_speedup,
)
from .dataio import Dataset, EmptyDataset, SchemaError, ingest

__version__ = "0.1.0"
