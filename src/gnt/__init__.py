"""Suite generation, dictionary scoring and response metrics for
gender-neutral machine translation evaluation."""

from .adapter import AdapterConfig, AdapterKind, translate_suite
from .classify import GenderLabel, SlotScore, classify_instance, classify_slot, normalize
from .formats import (
    parse_manifest,
    parse_scores,
    parse_suite,
    parse_translations,
    write_scores,
    write_suite,
    write_translations,
)
from .lexicon import Language, load_language_resources, load_lexicon
from .metrics import (
    StrategyBreakdown,
    compute_stereotype_effect,
    flag_significance,
    label_cells,
    macro_average,
    paired_response,
)
from .pipeline import build_metrics_doc, run_pipeline
from .report import render_report
from .suite import (
    DescriptorPair,
    GenderCondition,
    SuiteManifest,
    TemplateFamily,
    expand_template,
    generate_suite,
    quota_key,
    validate_balance,
)

__version__ = "0.1.0"
