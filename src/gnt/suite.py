"""Templated dialogue suite construction.

Expands six dialogue template families over a data manifest into English
source instances whose adjective positions ("slots") are annotated with the
gender condition of their referent. Families T3/T4/T5 come in matched
determined/ambiguous pairs so that downstream metrics can measure how a
translation system reacts when the referent's gender stops being resolvable.
T3/T4 are expanded through T1/T2's dialogue with "I" in place of one named
character: English marks no gender on the first person.
"""

from __future__ import annotations

import random
import re
from collections import Counter
from enum import Enum
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple

from .errors import InconsistentBinding, MissingBinding, QuotaInfeasible


class TemplateFamily(Enum):
    __hash__ = object.__hash__  # members are singletons: hash by identity, in C

    T1_ONE_PERSON_KNOWN = "T1"
    T2_TWO_PERSON_KNOWN = "T2"
    T3_ONE_PERSON_PARTIAL = "T3"
    T4_TWO_PERSON_PARTIAL = "T4"
    T5_CHAR_STEREOTYPE = "T5"
    T7_ADVERB_STEREOTYPE = "T7"


class GenderKind(Enum):
    __hash__ = object.__hash__  # members are singletons: hash by identity, in C

    DETERMINED_MASCULINE = "determined_masculine"
    DETERMINED_FEMININE = "determined_feminine"
    AMBIGUOUS = "ambiguous"


class AmbiguityKind(Enum):
    __hash__ = object.__hash__  # members are singletons: hash by identity, in C

    NONE = "none"
    OMISSION = "omission"
    ACTIVE = "active"


class Referent(Enum):
    __hash__ = object.__hash__  # members are singletons: hash by identity, in C

    SPEAKER = "speaker"
    LISTENER = "listener"


class StereotypeKind(Enum):
    __hash__ = object.__hash__  # members are singletons: hash by identity, in C

    NONE = "none"
    MASCULINE = "masculine"
    FEMININE = "feminine"


class _GenderConditionFields(NamedTuple):
    kind: GenderKind
    ambiguity: AmbiguityKind = AmbiguityKind.NONE


class GenderCondition(_GenderConditionFields):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        determined = self.kind is not GenderKind.AMBIGUOUS
        if determined != (self.ambiguity is AmbiguityKind.NONE):
            raise ValueError("ambiguity kind must be set iff the condition is ambiguous")
        return self

    @property
    def is_ambiguous(self) -> bool:
        return self.kind is GenderKind.AMBIGUOUS

    @staticmethod
    def determined(gender: str) -> "GenderCondition":
        return DETERMINED_FEMININE if gender == "f" else DETERMINED_MASCULINE


DETERMINED_MASCULINE = GenderCondition(GenderKind.DETERMINED_MASCULINE)
DETERMINED_FEMININE = GenderCondition(GenderKind.DETERMINED_FEMININE)
AMBIGUOUS_OMISSION = GenderCondition(GenderKind.AMBIGUOUS, AmbiguityKind.OMISSION)
AMBIGUOUS_ACTIVE = GenderCondition(GenderKind.AMBIGUOUS, AmbiguityKind.ACTIVE)


class _StereotypeConditionFields(NamedTuple):
    kind: StereotypeKind = StereotypeKind.NONE
    cue: str = ""


class StereotypeCondition(_StereotypeConditionFields):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.kind is StereotypeKind.NONE and self.cue:
            raise ValueError("a cue requires a stereotype kind")
        return self


NO_STEREOTYPE = StereotypeCondition()


class AdjectiveSlot(NamedTuple):
    slot_index: int
    lemma: str
    referent: Referent
    gender: GenderCondition
    stereotype: StereotypeCondition = NO_STEREOTYPE


class _TestInstanceFields(NamedTuple):
    id: str
    family: TemplateFamily
    source_text: str
    slots: tuple[AdjectiveSlot, ...]
    pair_id: str | None
    bindings: dict


class TestInstance(_TestInstanceFields):
    __slots__ = ()

    # a field default is one object shared by every instance, so the empty bindings are made per call
    def __new__(cls, id: str, family: TemplateFamily, source_text: str, slots: tuple[AdjectiveSlot, ...],
                pair_id: str | None = None, bindings: dict | None = None):
        return tuple.__new__(cls, (id, family, source_text, slots, pair_id, {} if bindings is None else bindings))


class DescriptorPair(NamedTuple):
    """Stereotype-matched character descriptors, one per coded gender."""

    masculine: str
    feminine: str


# Quota keys name a (family, condition) subset; T7 is keyed by its stereotype
# condition because all its slots share one gender condition.
QUOTA_KEYS = (
    "T1-Det",
    "T2-Det",
    "T3-Det",
    "T3-Amb",
    "T4-Det",
    "T4-Amb",
    "T5-Det",
    "T5-Amb",
    "T7-None",
    "T7-StereoM",
    "T7-StereoF",
)


class _SuiteManifestFields(NamedTuple):
    adjectives: list[str]
    descriptor_pairs: list[DescriptorPair]
    adverbs_masculine: list[str]
    adverbs_feminine: list[str]
    quotas: dict[str, int]
    seed: int


class SuiteManifest(_SuiteManifestFields):
    __slots__ = ()

    # as for TestInstance, the empty lists and quotas are made per call
    def __new__(cls, adjectives: list[str], descriptor_pairs: list[DescriptorPair] | None = None,
                adverbs_masculine: list[str] | None = None, adverbs_feminine: list[str] | None = None,
                quotas: dict[str, int] | None = None, seed: int = 0):
        self = tuple.__new__(cls, (adjectives, [] if descriptor_pairs is None else descriptor_pairs,
                                   [] if adverbs_masculine is None else adverbs_masculine,
                                   [] if adverbs_feminine is None else adverbs_feminine,
                                   {} if quotas is None else quotas, seed))
        for key, value in self.quotas.items():
            if key not in QUOTA_KEYS:
                raise ValueError(f"unknown quota key {key!r}; expected one of {', '.join(QUOTA_KEYS)}")
            if type(value) is not int or value < 0:
                raise ValueError(f"quota {key} must be a non-negative integer, got {value!r}")
        words = [(f"{name}.{i}", word) for name in ("adjectives", "adverbs_masculine", "adverbs_feminine")
                 for i, word in enumerate(getattr(self, name))]
        words += [(f"descriptor_pairs.{i}.{side}", getattr(pair, side))
                  for i, pair in enumerate(self.descriptor_pairs) for side in ("masculine", "feminine")]
        for name, word in words:
            if isinstance(word, str) and not word.strip():  # "" is found in every text, so no check sees the hole
                raise ValueError(f"{name} must be a non-blank string, got {word!r}")
        return self

    def quota(self, key: str) -> int:
        return self.quotas.get(key, 0)


_T7_SUFFIX = {StereotypeKind.NONE: "None", StereotypeKind.MASCULINE: "StereoM", StereotypeKind.FEMININE: "StereoF"}


def quota_key(family: TemplateFamily, gender_kind: GenderKind, stereotype_kind: StereotypeKind) -> str:
    """The quota key that counts the slots of one (family, gender kind, stereotype kind) condition."""
    if family is TemplateFamily.T7_ADVERB_STEREOTYPE:
        suffix = _T7_SUFFIX[stereotype_kind]
    else:
        suffix = "Amb" if gender_kind is GenderKind.AMBIGUOUS else "Det"
    return f"{family.value}-{suffix}"


# --- template expansion ----------------------------------------------------

_PRONOUN = {"f": "she", "m": "he"}
_NOUN = {"f": "woman", "m": "man"}
_OPPOSITE = {"f": "m", "m": "f"}
_STEREOTYPE = {"f": StereotypeKind.FEMININE, "m": StereotypeKind.MASCULINE}
_SPEECH = {"he": DETERMINED_MASCULINE, "she": DETERMINED_FEMININE, "they": AMBIGUOUS_ACTIVE}  # T5's pronouns


class _Var(NamedTuple):
    """A template variable: its exact type, the values it may take (empty: any) and the phrase its error uses."""

    kind: type
    allowed: tuple = ()
    phrase: str = "a string"
    required: bool | str = True  # a key: required when that key's value is set
    who: str = ""  # names the variable in its error in place of the family tag


_STRING = _Var(str)
_GENDER = _Var(str, ("f", "m"), "'f' or 'm'")
# T3/T4 lead with these where T1/T2 lead with 'char_gender'; _characters reads either
_PARTIAL = {"named_gender": _GENDER, "first_person": _Var(int, (1, 2), "1 or 2", who="T3/T4")}
_ONE_PERSON = {"dialogue": _Var(str, ("self", "listener"), "'self' or 'listener'"),
               "bracket": _Var(bool, phrase="a boolean"), "A1": _STRING, "A2": _STRING}
_TWO_PERSON = {"A1": _STRING, "A2": _STRING, "A3": _STRING, "A4": _STRING}
_T5_VARS = {"C_g": _STRING, "C_gbar": _STRING, "C_g_stereotype": _GENDER,
            "pronoun": _Var(str, tuple(_SPEECH), "one of he/she/they"), "A": _STRING}
# an absent, null or empty adverb means none, and then no cue gender is needed
_T7_VARS = {"A": _STRING, "adverb": _Var(str, required=False), "adverb_stereotype": _GENDER._replace(required="adverb")}


def _read(bindings: Mapping, family: TemplateFamily) -> list:
    """The family's variables in table order, each checked in turn (None: an unset optional one)."""
    values = []
    for key, (kind, allowed, phrase, required, who) in _SHAPES[family].variables.items():
        value = bindings.get(key)
        if value is None:
            if required is True or (required and bindings.get(required)):
                raise MissingBinding(f"{family.value} expansion requires binding {key!r}")
        elif type(value) is not kind or (allowed and value not in allowed):
            raise InconsistentBinding(f"{who or family.value} binding {key!r} must be {phrase}, got {value!r}")
        values.append(value)
    return values


def _characters(gender: str, first_person: int | None = None) -> tuple[str, str]:
    """The opener and the replier of a T1-T4 dialogue, each "f", "m" or "I" (first person).

    `gender` is the opener's (T1/T2) or the named character's (T3/T4, with the position of "I").
    """
    if first_person is None:
        return gender, _OPPOSITE[gender]
    return ("I", gender) if first_person == 1 else (gender, "I")


def _names(character: str, opener: bool) -> tuple[str, str]:
    """A character's subject in its turn and its speech-tag pronoun."""
    if character == "I":
        return "I", "I"
    pronoun = _PRONOUN[character]
    return (f"The {_NOUN[character]}" if opener else pronoun.capitalize()), pronoun


def _condition(character: str) -> GenderCondition:
    return AMBIGUOUS_OMISSION if character == "I" else GenderCondition.determined(character)


def _expand_one_person(values: list) -> tuple[str, tuple[AdjectiveSlot, ...]]:
    """T1/T3: both adjectives describe the opener ('self') or the replier ('listener')."""
    *characters, dialogue, bracket, a1, a2 = values
    opener, replier = _characters(*characters)
    if dialogue == "self":
        first_line = f'"I think I\'m {a1},"'
        reply = f'"No, you\'re not {a1}, but you are {a2},"' if bracket else f'"No, you are {a2},"'
        condition, roles = _condition(opener), (Referent.SPEAKER, Referent.LISTENER)
    else:
        first_line = f'"I think you\'re {a1},"'
        reply = f'"No, I\'m not {a1}, but I am {a2},"' if bracket else f'"No, I am {a2},"'
        condition, roles = _condition(replier), (Referent.LISTENER, Referent.SPEAKER)
    (s1, p1), (s2, p2) = _names(opener, True), _names(replier, False)
    text = f"{s1} smiled. {first_line} {p1} said. {s2} laughed back. {reply} {p2} replied."
    return text, (AdjectiveSlot(0, a1, roles[0], condition), AdjectiveSlot(1, a2, roles[1], condition))


def _expand_two_person(values: list) -> tuple[str, tuple[AdjectiveSlot, ...]]:
    """T2/T4: A1/A3 describe the opener, A2/A4 the replier."""
    *characters, a1, a2, a3, a4 = values
    opener, replier = _characters(*characters)
    (s1, p1), (s2, p2) = _names(opener, True), _names(replier, False)
    text = (
        f"{s1} smiled. \"I think I'm {a1} and you're {a2},\" {p1} said. "
        f"{s2} laughed back. \"No, you're {a3}, but I'm {a4},\" {p2} replied."
    )
    c1, c2 = _condition(opener), _condition(replier)
    return text, (
        AdjectiveSlot(0, a1, Referent.SPEAKER, c1),
        AdjectiveSlot(1, a2, Referent.LISTENER, c2),
        AdjectiveSlot(2, a3, Referent.LISTENER, c1),
        AdjectiveSlot(3, a4, Referent.SPEAKER, c2),
    )


def _expand_t5(values: list) -> tuple[str, tuple[AdjectiveSlot, ...]]:
    c_g, c_gbar, cue_gender, pronoun, adjective = values
    text = f"The {c_g} smiled. \"I think I'm {adjective},\" {pronoun} said to the {c_gbar}."
    stereotype = StereotypeCondition(_STEREOTYPE[cue_gender], c_g)
    return text, (AdjectiveSlot(0, adjective, Referent.SPEAKER, _SPEECH[pronoun], stereotype),)


def _expand_t7(values: list) -> tuple[str, tuple[AdjectiveSlot, ...]]:
    adjective, adverb, coded = values
    if adverb:
        text = f"\"I think I'm {adjective},\" I said {adverb}."
        stereotype = StereotypeCondition(_STEREOTYPE[coded], adverb)
    else:
        text = f"\"I think I'm {adjective},\" I said."
        stereotype = NO_STEREOTYPE
    return text, (AdjectiveSlot(0, adjective, Referent.SPEAKER, AMBIGUOUS_OMISSION, stereotype),)


def expand_template(
    family: TemplateFamily,
    bindings: Mapping,
    instance_id: str = "",
    pair_id: str | None = None,
) -> TestInstance:
    """Expand one template family over a variable map, checking its variables in table order.

    Raises MissingBinding when a required variable is absent or null and
    InconsistentBinding when one has another exact type than its table gives
    (`T1 binding 'A1' must be a string, got 5`, `... 'bracket' must be a
    boolean, got 'no'`, `T3/T4 binding 'first_person' must be 1 or 2, got
    True`) or a value outside its allowed ones (a T5 pronoun outside he/she/they).
    """
    return _expand({}, family, dict(bindings), instance_id, pair_id)


def _expand(known: dict, family: TemplateFamily, bindings: dict, instance_id: str,
            pair_id: str | None = None) -> TestInstance:
    """expand_template, with `known` holding the text and slots of each (family, checked values) expanded.

    A checked value has its variable's exact type, so equal keys expand alike: an instance whose checked
    values equal a known one's shares its `source_text` and `slots`. `bindings` becomes the instance's own
    dict; the members tables build a new one per instance.
    """
    values = _read(bindings, family)
    key = (family, *values)
    expansion = known.get(key)
    if expansion is None:
        expansion = known[key] = _SHAPES[family].expand(values)
    return TestInstance(instance_id, family, *expansion, pair_id, bindings)


# --- suite generation -------------------------------------------------------

# A fixed cycle over the variant dimensions, ordered so that every prefix is
# balanced within one item on every dimension (gender alternates strictly).
# T1 reads it as (referent gender, dialogue, bracket); T3 as (named gender,
# first-person character, bracket), with self/listener standing for 1/2.
_CYCLE = (
    ("f", "self", True),
    ("m", "listener", False),
    ("f", "listener", True),
    ("m", "self", False),
    ("f", "self", False),
    ("m", "listener", True),
    ("f", "listener", False),
    ("m", "self", True),
)


def _adjective_stream(adjectives: list[str], width: int, family: str) -> Iterator[tuple[str, ...]]:
    if len(adjectives) < width:
        raise QuotaInfeasible(
            f"{family} instances need {width} distinct adjectives per instance; "
            f"manifest list 'adjectives' has only {len(adjectives)}"
        )
    # a repeat would put one lemma in two slots of an instance; a single slot only re-weights it
    repeated = [adjective for adjective, count in Counter(adjectives).items() if count > 1]
    if width > 1 and repeated:
        raise QuotaInfeasible(
            f"{family} instances need {width} distinct adjectives per instance; "
            f"manifest list 'adjectives' repeats {repeated[0]!r}"
        )
    n = len(adjectives)
    i = 0
    while True:
        yield tuple(adjectives[(i + j) % n] for j in range(width))
        i = (i + width) % n


# Each function below returns the bindings of group i's members, in the order
# of the family's id suffixes, given the group's adjectives.


def _t1_members(manifest: SuiteManifest, i: int, adjectives: tuple[str, ...]) -> tuple[dict, ...]:
    referent_gender, dialogue, bracket = _CYCLE[i % len(_CYCLE)]
    a1, a2 = adjectives
    char_gender = referent_gender if dialogue == "self" else _OPPOSITE[referent_gender]
    return ({"char_gender": char_gender, "dialogue": dialogue, "bracket": bracket, "A1": a1, "A2": a2},)


def _t2_members(manifest: SuiteManifest, i: int, adjectives: tuple[str, ...]) -> tuple[dict, ...]:
    a1, a2, a3, a4 = adjectives
    return ({"char_gender": ("f", "m")[i % 2], "A1": a1, "A2": a2, "A3": a3, "A4": a4},)


def _t3_members(manifest: SuiteManifest, i: int, adjectives: tuple[str, ...]) -> tuple[dict, ...]:
    named_gender, amb_dialogue, bracket = _CYCLE[i % len(_CYCLE)]
    a1, a2 = adjectives
    first_person = 1 if amb_dialogue == "self" else 2
    base = {"named_gender": named_gender, "first_person": first_person, "bracket": bracket, "A1": a1, "A2": a2}
    # The minimal perturbation is the I'm/you're flip: pointing the dialogue
    # at the named character keeps gender determined, pointing it at the
    # first-person character makes it ambiguous by omission.
    det_dialogue = "listener" if amb_dialogue == "self" else "self"
    return {**base, "dialogue": det_dialogue}, {**base, "dialogue": amb_dialogue}


def _t4_members(manifest: SuiteManifest, i: int, adjectives: tuple[str, ...]) -> tuple[dict, ...]:
    a1, a2, a3, a4 = adjectives
    base = {"named_gender": ("f", "m")[i % 2], "A1": a1, "A2": a2, "A3": a3, "A4": a4}
    # The perturbation swaps which character speaks in first person; the 'd'
    # member resolves the opener's speaker, the 'a' member does not.
    return {**base, "first_person": 2}, {**base, "first_person": 1}


def _t5_members(manifest: SuiteManifest, i: int, adjectives: tuple[str, ...]) -> tuple[dict, ...]:
    if not manifest.descriptor_pairs:
        raise QuotaInfeasible("T5 quotas need at least one entry in manifest list 'descriptor_pairs'")
    cue_gender = ("m", "f")[i % 2]
    pair = manifest.descriptor_pairs[(i // 2) % len(manifest.descriptor_pairs)]
    if cue_gender == "m":
        c_g, c_gbar = pair.masculine, pair.feminine
    else:
        c_g, c_gbar = pair.feminine, pair.masculine
    (adjective,) = adjectives
    base = {"C_g": c_g, "C_gbar": c_gbar, "C_g_stereotype": cue_gender, "A": adjective}
    return tuple({**base, "pronoun": pronoun} for pronoun in ("he", "she", "they"))


class _FamilyShape(NamedTuple):
    """How a family is expanded, how the generator builds one group of it, and what validation reads back."""

    variables: Mapping[str, _Var]  # the bindings, in the order they are checked
    expand: Callable[[list], tuple[str, tuple[AdjectiveSlot, ...]]]  # the text and slots of the values read
    suffixes: tuple[str, ...]  # id suffix of each member of one group
    slots: int  # slots per instance
    det: int  # Det slots per group
    amb: int  # Amb slots per group
    ambiguity: frozenset[AmbiguityKind]  # the kinds the templates produce (NONE: determined)
    # The smallest determined-gender and first-person-position imbalances a
    # quota can force, e.g. 2 for T1 (two same-gender slots per instance).
    gender_unit: int
    position_unit: int | None  # None: the family has no first-person character
    members: Callable[[SuiteManifest, int, tuple[str, ...]], tuple[dict, ...]] | None


_DET = frozenset({AmbiguityKind.NONE})
_OMISSION = _DET | {AmbiguityKind.OMISSION}
# One row per family, its columns in field order. T7 is keyed by stereotype
# rather than Det/Amb and has its own generator.
_SHAPES = {
    TemplateFamily.T1_ONE_PERSON_KNOWN: _FamilyShape(
        {"char_gender": _GENDER, **_ONE_PERSON}, _expand_one_person, ("d",), 2, 2, 0, _DET, 2, None, _t1_members),
    TemplateFamily.T2_TWO_PERSON_KNOWN: _FamilyShape(
        {"char_gender": _GENDER, **_TWO_PERSON}, _expand_two_person, ("d",), 4, 4, 0, _DET, 0, None, _t2_members),
    TemplateFamily.T3_ONE_PERSON_PARTIAL: _FamilyShape(
        {**_PARTIAL, **_ONE_PERSON}, _expand_one_person, ("d", "a"), 2, 2, 2, _OMISSION, 2, 2, _t3_members),
    TemplateFamily.T4_TWO_PERSON_PARTIAL: _FamilyShape(
        {**_PARTIAL, **_TWO_PERSON}, _expand_two_person, ("d", "a"), 4, 4, 4, _OMISSION, 4, 0, _t4_members),
    TemplateFamily.T5_CHAR_STEREOTYPE: _FamilyShape(
        _T5_VARS, _expand_t5, ("d1", "d2", "a"), 1, 2, 1, _DET | {AmbiguityKind.ACTIVE}, 0, None, _t5_members),
    TemplateFamily.T7_ADVERB_STEREOTYPE: _FamilyShape(
        _T7_VARS, _expand_t7, ("a",), 1, 0, 0, frozenset({AmbiguityKind.OMISSION}), 1, None, None),
}


def _group_count(manifest: SuiteManifest, family: TemplateFamily, shape: _FamilyShape) -> int:
    det_key, amb_key = f"{family.value}-Det", f"{family.value}-Amb"
    det, amb = manifest.quota(det_key), manifest.quota(amb_key)
    groups, rest = divmod(det, shape.det)
    if rest or amb != groups * shape.amb:
        raise QuotaInfeasible(
            f"{family.value} is generated in groups of {shape.det} Det and {shape.amb} Amb slots; "
            f"{det_key} ({det}) and {amb_key} ({amb}) do not fill whole groups"
        )
    return groups


def _generate_groups(manifest: SuiteManifest, family: TemplateFamily, known: dict) -> list[TestInstance]:
    shape = _SHAPES[family]
    groups = _group_count(manifest, family, shape)
    if not groups:
        return []
    adjectives = _adjective_stream(manifest.adjectives, shape.slots, family.value)
    paired = len(shape.suffixes) > 1
    out = []
    for i in range(groups):
        stem = f"{family.value}-{i:06d}"
        pair_id = stem if paired else None
        for suffix, bindings in zip(shape.suffixes, shape.members(manifest, i, next(adjectives))):
            out.append(_expand(known, family, bindings, stem + suffix, pair_id))
    return out


def _generate_t7(manifest: SuiteManifest, known: dict) -> list[TestInstance]:
    plan = (
        ("T7-None", None, None),
        ("T7-StereoM", manifest.adverbs_masculine, "m"),
        ("T7-StereoF", manifest.adverbs_feminine, "f"),
    )
    out = []
    seq = 0
    adjectives = _adjective_stream(manifest.adjectives, 1, "T7")
    for key, adverbs, coded in plan:
        count = manifest.quota(key)
        if not count:
            continue
        if coded and not adverbs:
            source = "adverbs_masculine" if coded == "m" else "adverbs_feminine"
            raise QuotaInfeasible(f"quota {key} needs at least one entry in manifest list {source!r}")
        for i in range(count):
            (adjective,) = next(adjectives)
            bindings: dict = {"A": adjective}
            if coded:
                bindings["adverb"] = adverbs[i % len(adverbs)]
                bindings["adverb_stereotype"] = coded
            out.append(_expand(known, TemplateFamily.T7_ADVERB_STEREOTYPE, bindings, f"T7-{seq:06d}a"))
            seq += 1
    return out


def generate_suite(manifest: SuiteManifest, seed: int | None = None) -> list[TestInstance]:
    """Expand the manifest into a full suite.

    Slot counts per (family, condition) equal the quotas exactly; binary
    gender, first-person position and stereotype cues are balanced by
    construction. Instance ids depend only on the manifest lists, so they are
    stable across seeds; the seed controls the final instance ordering.
    Instances with equal checked bindings share one `source_text` and one
    `slots` tuple; each has its own `bindings` dict.
    """
    instances: list[TestInstance] = []
    known: dict[tuple, tuple] = {}  # the text and slots of each distinct (family, checked values)
    for family, shape in _SHAPES.items():
        instances += _generate_groups(manifest, family, known) if shape.members else _generate_t7(manifest, known)
    rng = random.Random(manifest.seed if seed is None else seed)
    rng.shuffle(instances)
    return instances


# --- balance validation ------------------------------------------------------

_GENDERED_PRONOUNS = frozenset({"he", "she", "him", "her", "his", "hers"})
_WORD_RE = re.compile(r"[a-zA-Z']+")
_SPEECH_PRONOUN = {condition.kind: pronoun for pronoun, condition in _SPEECH.items()}


class BalanceDiagnostics(NamedTuple):
    slot_counts: dict[str, int]
    det_gender_split: dict[str, tuple[int, int]]
    speaker_position_split: dict[str, tuple[int, int]]
    pronoun_counts: dict[str, int]
    cue_split_by_pronoun: dict[str, tuple[int, int]]
    violations: list[str]
    warnings: list[str]

    @property
    def ok(self) -> bool:
        return not self.violations


def _split_check(
    label: str, a: int, b: int, violations: list[str], warnings: list[str], unit: int = 1
) -> None:
    """Flag a split: beyond `unit` it is a violation, within it a warning.

    `unit` is the smallest imbalance a quota can force on the generator, e.g.
    2 for T1/T3 determined gender (two same-gender slots per instance) and 4
    for T4 (four per instance pair).
    """
    diff = abs(a - b)
    if diff > unit:
        violations.append(f"imbalance: {label} split {a}/{b}")
    elif diff:
        warnings.append(f"odd split: {label} {a}/{b} (off by one unit)")


_UNSEEN = object()  # a pair group's slots before its first suffixed member is read


def _add_member(pair: list, inst: TestInstance) -> None:
    """Record `inst`, which carries the group's pair_id, in its `pairs` entry of `validate_balance`."""
    pair_id, suffixes = inst.pair_id, _SHAPES[pair[0]].suffixes
    suffix = inst.id[len(pair_id):] if inst.id.startswith(pair_id) else None
    if suffix not in suffixes:
        return
    pair[1] |= 1 << suffixes.index(suffix)
    first = pair[2]
    if first is _UNSEEN:
        pair[2] = inst.slots
    elif first is not None and [slot.lemma for slot in first] != [slot.lemma for slot in inst.slots]:
        pair[2] = None


def _content_violations(family: TemplateFamily, source_text: str, slots: tuple[AdjectiveSlot, ...]) -> list:
    """The violations that an instance of this content has, each as (kind, the message after the instance id)."""
    shape = _SHAPES[family]
    found = []
    if len(slots) != shape.slots:
        found.append(("slots", f" has {len(slots)} slots, {family.value} instances have {shape.slots}"))
    for slot in slots:
        if slot.lemma not in source_text:
            found.append(("text", f" slot {slot.slot_index} lemma {slot.lemma!r} absent from source"))
        if slot.gender.ambiguity not in shape.ambiguity:
            found.append(("condition", f" slot {slot.slot_index} is {slot.gender.kind.value}"
                          f"/{slot.gender.ambiguity.value}, which {family.value} never produces"))
    if family is TemplateFamily.T5_CHAR_STEREOTYPE and any(slot.gender.is_ambiguous for slot in slots):
        leaked = sorted({w.lower() for w in _WORD_RE.findall(source_text)} & _GENDERED_PRONOUNS)
        if leaked:
            found.append(("leakage", f" is ambiguous but contains {', '.join(leaked)}"))
    return found


def validate_balance(suite: Iterable[TestInstance], quotas: Mapping[str, int] | None = None) -> BalanceDiagnostics:
    """Re-check the generator's postconditions on an arbitrary suite.

    Pure diagnostic: counts per condition, conditions a family never
    produces, binary-gender and speaker-position splits, stereotype balance,
    pair integrity and pronoun leakage. When `quotas` is given, slot counts
    are also compared against it. The suite is read once and not copied: a
    group's members are the instances that carry its `pair_id`, its family
    is its first member's, and a member counts as the group's `pair_id` plus
    one of that family's id suffixes. Each distinct (family, source text,
    slots) is checked and counted once, however many instances share it.
    """
    violations: list[str] = []
    warnings: list[str] = []

    # (family, source_text, slots) -> [instances that have it, its violations as `_content_violations` gives them]
    contents: dict[tuple, list] = {}
    # pair_id -> [family, bitmask of the family's id suffixes seen, first suffixed member's slots or None once
    # two of them disagree on adjectives]
    pairs: dict[str, list] = {}

    for inst in suite:
        key = (inst.family, inst.source_text, inst.slots)
        content = contents.get(key)
        if content is None:
            content = contents[key] = [0, _content_violations(*key)]
        content[0] += 1
        for kind, message in content[1]:
            violations.append(f"{kind}: {inst.id}{message}")

        if inst.pair_id is not None:
            pair = pairs.get(inst.pair_id)
            if pair is None:
                pair = pairs[inst.pair_id] = [inst.family, 0, _UNSEEN]
            _add_member(pair, inst)

    conditions: Counter = Counter()  # (family, gender kind, stereotype kind) -> slots
    positions: Counter = Counter()  # (family, first-person position) -> instances
    pronoun_counts: dict[str, int] = {"he": 0, "she": 0, "they": 0}
    cues: Counter = Counter()  # (T5 pronoun, stereotype kind) -> instances
    for (family, _, slots), (count, _) in contents.items():
        for slot in slots:
            conditions[family, slot.gender.kind, slot.stereotype.kind] += count
        if not slots:
            continue
        # position, pronoun and cue are read from slot 0, as the metrics score it, not from the bindings
        first = slots[0]
        if _SHAPES[family].position_unit is not None:
            # position 1 ("I" opens): slot 0 is ambiguous exactly when its referent is the speaker
            position = 1 if (first.referent is Referent.SPEAKER) == first.gender.is_ambiguous else 2
            positions[family.value, position] += count
        if family is TemplateFamily.T5_CHAR_STEREOTYPE:
            pronoun = _SPEECH_PRONOUN[first.gender.kind]
            pronoun_counts[pronoun] += count
            cues[pronoun, first.stereotype.kind] += count

    for pair_id, (family, seen, slots) in pairs.items():
        suffixes = _SHAPES[family].suffixes
        if len(suffixes) < 2:
            continue
        missing = [pair_id + suffix for bit, suffix in enumerate(suffixes) if not seen >> bit & 1]
        if missing:
            violations.append(f"pairing: group {pair_id} incomplete, missing {', '.join(missing)}")
        elif slots is None:
            violations.append(f"pairing: group {pair_id} members disagree on adjectives")

    slot_counts: dict[str, int] = {}
    genders: Counter = Counter()  # (family, gender kind) -> slots
    for (family, gender_kind, stereotype_kind), count in conditions.items():
        key = quota_key(family, gender_kind, stereotype_kind)
        slot_counts[key] = slot_counts.get(key, 0) + count
        genders[family.value, gender_kind] += count

    if quotas is not None:
        for key in QUOTA_KEYS:
            expected = quotas.get(key, 0)
            found = slot_counts.get(key, 0)
            if expected != found:
                violations.append(f"count-mismatch: {key} expected {expected}, found {found}")

    # paired families must keep their construction ratios even without quotas
    for family, shape in _SHAPES.items():
        if shape.det and shape.amb:
            ratio = shape.det // shape.amb
            det = slot_counts.get(f"{family.value}-Det", 0)
            amb = slot_counts.get(f"{family.value}-Amb", 0)
            if det != ratio * amb:
                times = f"{ratio} x " if ratio != 1 else ""
                violations.append(f"count-mismatch: {family.value}-Det ({det}) != {times}{family.value}-Amb ({amb})")

    det_gender_split = {}
    for family in sorted({family for family, kind in genders if kind is not GenderKind.AMBIGUOUS}):
        f_count = genders[family, GenderKind.DETERMINED_FEMININE]
        m_count = genders[family, GenderKind.DETERMINED_MASCULINE]
        det_gender_split[family] = (f_count, m_count)
        _split_check(
            f"{family} determined gender", f_count, m_count, violations, warnings,
            unit=_SHAPES[TemplateFamily(family)].gender_unit,
        )

    speaker_position_split = {}
    for family in sorted({family for family, _ in positions}):
        one, two = positions[family, 1], positions[family, 2]
        speaker_position_split[family] = (one, two)
        _split_check(
            f"{family} first-person position", one, two, violations, warnings,
            unit=_SHAPES[TemplateFamily(family)].position_unit,
        )

    cue_split = {p: (cues[p, StereotypeKind.MASCULINE], cues[p, StereotypeKind.FEMININE]) for p in pronoun_counts}
    if any(pronoun_counts.values()):
        # every generated triplet carries all three pronouns, so any spread
        # means the suite was edited by hand
        if max(pronoun_counts.values()) - min(pronoun_counts.values()) > 0:
            violations.append(
                "imbalance: T5 pronouns he/she/they split "
                f"{pronoun_counts['he']}/{pronoun_counts['she']}/{pronoun_counts['they']}"
            )
        for pronoun, (m_count, f_count) in cue_split.items():
            if m_count or f_count:
                _split_check(f"T5 {pronoun!r} stereotype cues", m_count, f_count, violations, warnings)

    return BalanceDiagnostics(
        slot_counts=slot_counts,
        det_gender_split=det_gender_split,
        speaker_position_split=speaker_position_split,
        pronoun_counts=pronoun_counts,
        cue_split_by_pronoun=cue_split,
        violations=violations,
        warnings=warnings,
    )
