"""Exception hierarchy. Each class carries the CLI exit code for its failure class."""

EXIT_USAGE = 1
EXIT_IO = 2
EXIT_NUMERIC = 3
EXIT_DATA = 4


class SemspaceError(Exception):
    exit_code = EXIT_IO


class CorpusReadError(SemspaceError):
    """Corpus directory missing or unreadable."""


class EmptyCorpusError(SemspaceError):
    """No usable text found where a non-empty corpus is required."""


class RuleFormatError(SemspaceError):
    """Malformed affix or pattern rule file."""
    exit_code = EXIT_DATA


class PairFormatError(SemspaceError):
    """Malformed word-pair file."""
    exit_code = EXIT_DATA


class ConvergenceError(SemspaceError):
    """Factorization iteration budget exhausted; carries the achieved residual."""
    exit_code = EXIT_NUMERIC

    def __init__(self, message, residual):
        super().__init__(message)
        self.residual = residual


class OutOfVocabularyError(SemspaceError):
    """Query word's stemmed form is not a row of the space."""
    exit_code = EXIT_DATA


class SpaceFormatError(SemspaceError):
    """Persisted-space file cannot be decoded."""
    exit_code = EXIT_DATA


class SpaceVersionError(SpaceFormatError):
    pass


class SpaceTruncatedError(SpaceFormatError):
    pass


class SpaceChecksumError(SpaceFormatError):
    pass
