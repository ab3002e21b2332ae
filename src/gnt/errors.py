"""Exception types shared across the package."""

from __future__ import annotations


class GntError(Exception):
    """Base class for all errors raised by this package."""


# --- suite generation ---------------------------------------------------


class MissingBinding(GntError):
    """A template variable required by the family was not supplied."""


class InconsistentBinding(GntError):
    """A supplied binding contradicts the template contract."""


class QuotaInfeasible(GntError):
    """Requested quotas cannot be met from the manifest lists."""


class UnbalancedSuite(GntError):
    """A suite fails its balance check; `diagnostics`, a `BalanceDiagnostics`, holds its warnings and violations."""

    def __init__(self, diagnostics):
        super().__init__(f"the suite fails its balance check: {len(diagnostics.violations)} violation(s)")
        self.diagnostics = diagnostics


# --- lexicon / classification -------------------------------------------


class InvalidEntry(GntError):
    """A lexicon or resource row violates the per-language constraints."""


class LexiconConflict(GntError):
    """The same (lemma, form) pair was registered with contradictory genders."""


# --- metrics --------------------------------------------------------------


class EmptySelection(GntError):
    """A breakdown the metrics need has no classified slot."""


class InvalidThreshold(GntError):
    """A significance threshold outside [0, inf) was supplied."""


# --- file formats ---------------------------------------------------------


class ParseError(GntError):
    """A record file could not be parsed."""

    def __init__(self, message: str, path: str = "", line: int = 0):
        detail = message
        if path:
            detail = f"{path}:{line}: {message}" if line else f"{path}: {message}"
        super().__init__(detail)
        self.path = path
        self.line = line


class DuplicateRecord(GntError):
    """The same (system, lang, id) key appeared on two lines."""


# --- MT adapter -----------------------------------------------------------


class IncompleteBatch(GntError):
    """The backend replied without covering every requested id."""

    def __init__(self, missing: list[str]):
        super().__init__(f"backend reply missing {len(missing)} id(s): {', '.join(missing[:5])}")
        self.missing = list(missing)


class BackendUnavailable(GntError):
    """The backend failed or timed out after all retries."""


class ProtocolViolation(GntError):
    """The backend reply broke the id-pairing wire contract."""

