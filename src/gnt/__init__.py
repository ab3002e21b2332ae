"""Suite generation, dictionary scoring and response metrics for
gender-neutral machine translation evaluation."""

from .adapter import AdapterConfig, AdapterKind, translate_suite
from .classify import GenderLabel, SlotScore, classify_instance, classify_slot, normalize
from .formats import (
    TranslationRecord,
    parse_manifest,
    parse_scores,
    parse_suite,
    parse_translations,
    write_scores,
    write_suite,
    write_translations,
)
from .lexicon import (
    AltPhraseEntry,
    FormGender,
    Language,
    LanguageResources,
    Lexicon,
    LexiconEntry,
    MorphPattern,
    PatternKind,
    load_alt_phrases,
    load_language_resources,
    load_lexicon,
    load_patterns,
)
from .metrics import (
    DEFAULT_SIGNIFICANCE_THRESHOLD,
    ResponseReport,
    StereotypeReport,
    StrategyBreakdown,
    compute_stereotype_effect,
    flag_significance,
    label_cells,
    macro_average,
    macro_average_breakdowns,
    paired_response,
)
from .pipeline import build_metrics_doc, run_pipeline, score_suite
from .report import render_report
from .suite import (
    AdjectiveSlot,
    AmbiguityKind,
    BalanceDiagnostics,
    DescriptorPair,
    GenderCondition,
    GenderKind,
    Referent,
    StereotypeCondition,
    StereotypeKind,
    SuiteManifest,
    TemplateFamily,
    TestInstance,
    expand_template,
    generate_suite,
    quota_key_for_slot,
    validate_balance,
)

__version__ = "0.1.0"
