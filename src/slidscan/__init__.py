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
    profit_report,
)
from .validators import (
    HeuristicConfig,
    Label,
    SecurityProfile,
    Verdict,
    classify_pool,
    honeypot_validate,
    owner_activity_validate,
    profit_validate,
    rugpull_detect,
)
from .features import FEATURE_NAMES, extract_with_report
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
    EvalMetrics,
    save_model,
    sweep,
    train,
    window_speedup,
)
from .dataio import Dataset, EmptyDataset, SchemaError, ingest

__version__ = "0.1.0"
