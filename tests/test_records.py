"""gnt's record types: immutable, compared by value, and checked where they are built."""

from __future__ import annotations

import math

import pytest

from gnt import AdapterConfig, GenderCondition, Language, SlotScore, SuiteManifest
from gnt.classify import GenderLabel
from gnt.errors import GntError, InvalidEntry
from gnt.lexicon import (
    AltPhraseEntry,
    FormGender,
    LemmaTable,
    LexiconEntry,
    MorphPattern,
    PatternKind,
)
from gnt.metrics import StrategyBreakdown, compute_stereotype_effect, paired_response
from gnt.suite import (
    _SHAPES,
    AdjectiveSlot,
    AmbiguityKind,
    DescriptorPair,
    GenderKind,
    Referent,
    StereotypeCondition,
    StereotypeKind,
    TemplateFamily,
    validate_balance,
)
from gnt.suite import TestInstance as SuiteInstance  # a name pytest does not collect

_MASCULINE = GenderCondition(GenderKind.DETERMINED_MASCULINE)


def _breakdown() -> StrategyBreakdown:
    return StrategyBreakdown.from_label_counts({GenderLabel.MASCULINE: 2, GenderLabel.N1_COMMON_FORM: 1})


# every record type, each built by a function that makes a new, equal value on every call
RECORDS = {
    "GenderCondition": lambda: GenderCondition(GenderKind.AMBIGUOUS, AmbiguityKind.ACTIVE),
    "StereotypeCondition": lambda: StereotypeCondition(StereotypeKind.FEMININE, "nurse"),
    "AdjectiveSlot": lambda: AdjectiveSlot(0, "fit", Referent.SPEAKER, _MASCULINE),
    "TestInstance": lambda: SuiteInstance("T1-000000d", TemplateFamily.T1_ONE_PERSON_KNOWN, "text", ()),
    "DescriptorPair": lambda: DescriptorPair("strong doctor", "pretty nurse"),
    "SuiteManifest": lambda: SuiteManifest(["fit"], quotas={"T1-Det": 2}),
    "_FamilyShape": lambda: _SHAPES[TemplateFamily.T1_ONE_PERSON_KNOWN],
    "BalanceDiagnostics": lambda: validate_balance([]),
    "LexiconEntry": lambda: LexiconEntry("alto", "alta", FormGender.FEMININE_ONLY),
    "AltPhraseEntry": lambda: AltPhraseEntry("alto", "de gran altura"),
    "MorphPattern": lambda: MorphPattern(PatternKind.SLASH_SUFFIX, "o/a"),
    "StrategyBreakdown": _breakdown,
    "ResponseReport": lambda: paired_response(_breakdown(), _breakdown()),
    "StereotypeReport": lambda: compute_stereotype_effect(_breakdown(), _breakdown(), _breakdown()),
    "SlotScore": lambda: SlotScore("T1-000000d", 0, GenderLabel.MASCULINE),
    "AdapterConfig": lambda: AdapterConfig.parse_target("cmd:cat", Language.ES, "s"),
}
HASHABLE = ("GenderCondition", "StereotypeCondition", "AdjectiveSlot", "SlotScore")


def _fields(record) -> tuple[str, ...]:
    return getattr(record, "_fields", None) or type(record).__slots__


@pytest.mark.parametrize("name", RECORDS)
def test_a_record_is_immutable_and_equal_to_one_built_alike(name):
    record, twin = RECORDS[name](), RECORDS[name]()
    assert type(record).__name__ == name
    for field in _fields(record):
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.unknown = None
    assert record == twin
    if name in HASHABLE:
        assert hash(record) == hash(twin) and len({record, twin}) == 1


def test_a_default_container_is_new_in_every_record():
    first, second = RECORDS["TestInstance"](), RECORDS["TestInstance"]()
    assert first.bindings == {} and first.bindings is not second.bindings
    first, second = SuiteManifest(["fit"]), SuiteManifest(["fit"])
    for name in ("descriptor_pairs", "adverbs_masculine", "adverbs_feminine", "quotas"):
        assert getattr(first, name) is not getattr(second, name)
    assert (first.descriptor_pairs, first.adverbs_masculine, first.adverbs_feminine, first.quotas) == ([], [], [], {})
    first, second = LemmaTable("alto", {}, []), LemmaTable("alto", {}, [])
    assert first.token_rules == {} and first.token_rules is not second.token_rules


_QUOTA_KEYS = "T1-Det, T2-Det, T3-Det, T3-Amb, T4-Det, T4-Amb, T5-Det, T5-Amb, T7-None, T7-StereoM, T7-StereoF"


def _adapter(**settings) -> AdapterConfig:
    return AdapterConfig.parse_target("cmd:cat", Language.ES, "s", **settings)


@pytest.mark.parametrize("build, error, message", [
    (lambda: GenderCondition(GenderKind.AMBIGUOUS), ValueError,
     "ambiguity kind must be set iff the condition is ambiguous"),
    (lambda: GenderCondition(GenderKind.DETERMINED_FEMININE, AmbiguityKind.OMISSION), ValueError,
     "ambiguity kind must be set iff the condition is ambiguous"),
    (lambda: StereotypeCondition(cue="nurse"), ValueError, "a cue requires a stereotype kind"),
    (lambda: MorphPattern(PatternKind.PAREN_SUFFIX, ""), InvalidEntry, "pattern template must be non-empty"),
    (lambda: MorphPattern(PatternKind.SLASH_SUFFIX, "oa"), InvalidEntry,
     "slash pattern template must name one alternation like 'o/a', got 'oa'"),
    (lambda: MorphPattern(PatternKind.AT_SIGN, "o/a/e"), InvalidEntry,
     "at pattern template must name one alternation like 'o/a', got 'o/a/e'"),
    (lambda: MorphPattern(PatternKind.PAREN_SUFFIX, "(ur)"), InvalidEntry,
     "paren pattern template must be a plain suffix, got '(ur)'"),
    (lambda: _adapter(batch_size=0), GntError, "batch_size must be >= 1, got 0"),
    (lambda: _adapter(timeout=0), GntError, "timeout must be positive, got 0"),
    (lambda: _adapter(timeout=-math.inf), GntError, "timeout must be positive, got -inf"),
    (lambda: _adapter(timeout=math.inf), GntError, "timeout must be finite, got inf"),
    (lambda: _adapter(timeout=math.nan), GntError, "timeout must be finite, got nan"),
    (lambda: _adapter(max_retries=-1), GntError, "max_retries must be >= 0, got -1"),
    (lambda: _adapter(max_concurrent_batches=0), GntError, "max_concurrent_batches must be >= 1, got 0"),
    (lambda: SuiteManifest(["fit"], quotas={"T6-Det": 1}), ValueError,
     f"unknown quota key 'T6-Det'; expected one of {_QUOTA_KEYS}"),
    (lambda: SuiteManifest(["fit"], quotas={"T1-Det": True}), ValueError,
     "quota T1-Det must be a non-negative integer, got True"),
    (lambda: SuiteManifest(["fit", " "]), ValueError, "adjectives.1 must be a non-blank string, got ' '"),
    (lambda: SuiteManifest(["fit"], [DescriptorPair("judge", "")]), ValueError,
     "descriptor_pairs.0.feminine must be a non-blank string, got ''"),
])
def test_a_record_is_checked_where_it_is_built(build, error, message):
    with pytest.raises(error) as caught:
        build()
    assert str(caught.value) == message
