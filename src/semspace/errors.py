"""Exception hierarchy: one class per CLI exit code, plus the classes a caller catches by name."""

EXIT_USAGE = 1
EXIT_IO = 2
EXIT_NUMERIC = 3
EXIT_DATA = 4


class SemspaceError(Exception):
    """Base of the classes below; raised itself for a corpus directory that is missing, unreadable or empty."""
    exit_code = EXIT_IO


class DataFormatError(SemspaceError):
    """A rule, pair or space file that fails a check."""
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
