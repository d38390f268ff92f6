"""Word-by-paragraph co-occurrence matrices, their factorization, and the
truncated word spaces built from them, with binary persistence.

Matrix cells are raw occurrence counts; no weighting is applied. Word
vectors are rows of U (optionally scaled entrywise by the singular values),
restricted to the k largest singular directions.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import svd as _svd
from .corpus import CorpusStats, Paragraph, normalize
from .errors import (
    EmptyCorpusError,
    OutOfVocabularyError,
    SpaceChecksumError,
    SpaceFormatError,
    SpaceTruncatedError,
    SpaceVersionError,
)
from .stemming import MODE_LIGHT, MODE_NONE, MODE_ROOT, StemmerConfig

SCALING_U = "u"
SCALING_USIGMA = "usigma"
SCALINGS = (SCALING_U, SCALING_USIGMA)

_MAGIC = b"SEMSPACE"
_FORMAT_VERSION = 1
_MODE_TAGS = {MODE_NONE: 0, MODE_ROOT: 1, MODE_LIGHT: 2}
_TAG_MODES = {v: k for k, v in _MODE_TAGS.items()}
_SCALING_TAGS = {SCALING_U: 0, SCALING_USIGMA: 1}
_TAG_SCALINGS = {v: k for k, v in _SCALING_TAGS.items()}


class Vocabulary:
    """Dense, insertion-ordered token <-> row-index bijection."""

    def __init__(self, tokens: list[str] | None = None):
        self._tokens: list[str] = list(dict.fromkeys(tokens or []))
        self._index: dict[str, int] = dict(zip(self._tokens, range(len(self._tokens))))

    def add(self, token: str) -> int:
        idx = self._index.get(token)
        if idx is None:
            idx = len(self._tokens)
            self._index[token] = idx
            self._tokens.append(token)
        return idx

    def index_of(self, token: str) -> int | None:
        return self._index.get(token)

    @property
    def tokens(self) -> list[str]:
        return list(self._tokens)

    def __len__(self) -> int:
        return len(self._tokens)

    def __eq__(self, other) -> bool:
        return isinstance(other, Vocabulary) and self._tokens == other._tokens


@dataclass
class CooccurrenceMatrix:
    vocabulary: Vocabulary
    counts: np.ndarray  # rows x paragraphs, float64 occurrence counts, read-only

    @property
    def shape(self) -> tuple[int, int]:
        return self.counts.shape

    def to_dense(self) -> np.ndarray:
        """The count array itself: it is read-only, so callers share it uncopied."""
        return self.counts


@dataclass(frozen=True)
class SvdFactors:
    U: np.ndarray  # m x r, orthonormal columns, r the numerical rank
    sigma: np.ndarray  # length min(m, c), non-increasing, zero beyond r

    @property
    def n(self) -> int:
        """The numerical rank r, the most dimensions a space can keep."""
        return int(self.U.shape[1])


@dataclass(frozen=True)
class Provenance:
    stemmer_mode: str
    rules_fingerprint: str  # hash of the rule files ("" for mode none)
    space_fingerprint: str  # hash of rule files + corpus stats


@dataclass
class SemanticSpace:
    k: int
    scaling: str
    vocabulary: Vocabulary
    sigma: np.ndarray  # first k singular values
    word_vectors: np.ndarray  # m x k, row i for vocabulary token i; load_space gives a read-only view
    provenance: Provenance
    n_columns: int = 0  # paragraph count of the source matrix


def space_fingerprint(rules_fingerprint: str, stats: CorpusStats) -> str:
    payload = "|".join(
        [
            rules_fingerprint,
            str(stats.n_documents),
            str(stats.n_categories),
            str(stats.n_words),
            str(stats.n_paragraphs),
            str(stats.size_bytes),
        ]
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def build_matrix(paragraphs: list[Paragraph], config: StemmerConfig) -> CooccurrenceMatrix:
    """Count stemmed-word occurrences per paragraph.

    Row order is first occurrence in corpus order; column order follows the
    paragraph list. Raises EmptyCorpusError rather than returning a matrix
    with no rows or no columns. Each distinct token is stemmed once.
    """
    vocabulary = Vocabulary()
    row_of: dict[str, int] = {}  # token -> matrix row
    cells: list[int] = []  # row * n_paragraphs + paragraph, one per occurrence
    n = len(paragraphs)
    for j, paragraph in enumerate(paragraphs):
        for token in paragraph.tokens:
            if token not in row_of:
                row_of[token] = vocabulary.add(config.stem_token(token))
            cells.append(row_of[token] * n + j)
    if not paragraphs or not len(vocabulary):
        raise EmptyCorpusError("empty corpus")
    counts = np.zeros((len(vocabulary), n))
    np.add.at(counts.reshape(-1), cells, 1.0)
    counts.flags.writeable = False
    return CooccurrenceMatrix(vocabulary, counts)


def factorize(matrix: CooccurrenceMatrix) -> SvdFactors:
    """Left singular vectors and singular values of the dense count matrix."""
    U, sigma, _ = _svd.jacobi_svd(matrix.to_dense())
    return SvdFactors(U=U, sigma=sigma)


def factorize_all(matrices: list[CooccurrenceMatrix]) -> list[SvdFactors]:
    """`factorize` of each matrix; those whose ranks agree share one Jacobi loop."""
    factored = _svd.jacobi_svds([matrix.to_dense() for matrix in matrices])
    return [SvdFactors(U=U, sigma=sigma) for U, sigma, _ in factored]


def truncate(
    factors: SvdFactors,
    k: int,
    scaling: str,
    vocabulary: Vocabulary,
    provenance: Provenance,
    n_columns: int = 0,
) -> SemanticSpace:
    """Keep the k largest singular directions as the word space."""
    if not 1 <= k <= factors.n:
        raise ValueError(f"k must be in 1..{factors.n}, got {k}")
    if scaling not in SCALINGS:
        raise ValueError(f"unknown scaling: {scaling!r}")
    vectors = factors.U[:, :k].copy()
    if scaling == SCALING_USIGMA:
        vectors = vectors * factors.sigma[:k]
    return SemanticSpace(
        k=k,
        scaling=scaling,
        vocabulary=vocabulary,
        sigma=factors.sigma[:k].copy(),
        word_vectors=vectors,
        provenance=provenance,
        n_columns=n_columns,
    )


def space_from_matrix(
    matrix: CooccurrenceMatrix,
    factors: SvdFactors,
    stats: CorpusStats,
    config: StemmerConfig,
    k: int | None,
    scaling: str,
) -> SemanticSpace:
    """Truncate the factors of a count matrix built with `config` to k
    (min(300, rank) when k is None), recording the space's provenance."""
    provenance = Provenance(
        stemmer_mode=config.mode,
        rules_fingerprint=config.rules_fingerprint,
        space_fingerprint=space_fingerprint(config.rules_fingerprint, stats),
    )
    return truncate(factors, min(300, factors.n) if k is None else k, scaling,
                    matrix.vocabulary, provenance, n_columns=matrix.shape[1])


def build_space(
    paragraphs: list[Paragraph],
    stats: CorpusStats,
    config: StemmerConfig,
    k: int | None = None,
    scaling: str = SCALING_U,
) -> SemanticSpace:
    """Matrix construction, factorization and truncation in one step.

    When k is None the default min(300, rank) is used; a k above the rank
    raises ValueError.
    """
    matrix = build_matrix(paragraphs, config)
    return space_from_matrix(matrix, factorize(matrix), stats, config, k, scaling)


def word_vector(space: SemanticSpace, surface: str, config: StemmerConfig) -> np.ndarray:
    """Row of the space for a surface word, stemmed exactly as at build time."""
    if config.mode != space.provenance.stemmer_mode:
        raise ValueError(
            f"space was built with stemmer {space.provenance.stemmer_mode!r}, "
            f"queried with {config.mode!r}"
        )
    normalized = normalize(surface)
    stemmed = config.stem_token(normalized) if normalized else None
    if not stemmed:
        raise OutOfVocabularyError(surface, normalized)
    row = space.vocabulary.index_of(stemmed)
    if row is None:
        raise OutOfVocabularyError(surface, stemmed)
    return space.word_vectors[row]


def _pack_str(value: str) -> bytes:
    data = value.encode("utf-8")
    return struct.pack("<I", len(data)) + data


def save_space(space: SemanticSpace, path: str | Path) -> None:
    """Write the space in the versioned binary layout (see load_space)."""
    m = len(space.vocabulary)
    parts = [
        _MAGIC,
        struct.pack("<I", _FORMAT_VERSION),
        struct.pack("<B", _MODE_TAGS[space.provenance.stemmer_mode]),
        _pack_str(space.provenance.rules_fingerprint),
        _pack_str(space.provenance.space_fingerprint),
        struct.pack("<QQQ", m, space.n_columns, space.k),
        struct.pack("<B", _SCALING_TAGS[space.scaling]),
    ]
    for token in space.vocabulary.tokens:
        parts.append(_pack_str(token))
    parts.append(np.asarray(space.sigma, dtype="<f8").tobytes())
    parts.append(np.ascontiguousarray(space.word_vectors, dtype="<f8").tobytes())
    payload = b"".join(parts)
    checksum = hashlib.sha256(payload).digest()[:8]
    Path(path).write_bytes(payload + checksum)


_LENGTH = struct.Struct("<I")


class _Reader:
    """Reads the payload's fields in order, from `pos` up to `end` of `data`;
    the checksum's 8 bytes follow `end`."""

    def __init__(self, data: bytes, pos: int, end: int):
        self.data = data
        self.pos = pos
        self.end = end

    def skip(self, size: int) -> int:
        """Move past the next `size` bytes; returns the offset where they start."""
        if self.pos + size > self.end:
            raise SpaceTruncatedError(
                f"truncated space file: needed {size} bytes at offset {self.pos}"
            )
        start = self.pos
        self.pos += size
        return start

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack_from(fmt, self.data, self.skip(struct.calcsize(fmt)))

    def floats(self, count: int) -> np.ndarray:
        """The next `count` little-endian float64s, as a read-only view of `data`."""
        return np.frombuffer(self.data, dtype="<f8", count=count, offset=self.skip(8 * count))

    def strs(self, count: int) -> list[str]:
        """`count` length-prefixed UTF-8 strings: one pass slices them out,
        then they are decoded."""
        data, pos, end, spans = self.data, self.pos, self.end, []
        unpack, append = _LENGTH.unpack_from, spans.append
        for _ in range(count):
            # pos <= end and the checksum follows end, so there are 4 bytes to unpack
            stop = pos + 4 + unpack(data, pos)[0]
            if stop > end:  # skip raises, naming the length prefix or the string that is cut
                self.pos = pos
                self.skip(4)
                self.skip(stop - pos - 4)
            append(data[pos + 4: stop])
            pos = stop
        self.pos = pos
        try:
            return list(map(bytes.decode, spans))
        except UnicodeDecodeError as exc:
            raise SpaceFormatError(f"text in space file is not UTF-8: {exc.reason}") from None


def load_space(path: str | Path) -> SemanticSpace:
    """Read a space written by save_space; round-trips bit-exactly.

    The file is read once: sigma and the word vectors are read-only views
    of its bytes.
    """
    with open(path, "rb") as file:
        blob = file.read()
    if len(blob) < len(_MAGIC) + 8:
        raise SpaceTruncatedError("file too short to be a space file")
    end = len(blob) - 8  # the payload; the checksum follows it
    if hashlib.sha256(memoryview(blob)[:end]).digest()[:8] != blob[end:]:
        raise SpaceChecksumError("space file checksum mismatch")
    if not blob.startswith(_MAGIC):
        raise SpaceFormatError("not a space file (bad magic)")
    reader = _Reader(blob, len(_MAGIC), end)
    (version,) = reader.unpack("<I")
    if version != _FORMAT_VERSION:
        raise SpaceVersionError(f"unsupported space format version {version}")
    (mode_tag,) = reader.unpack("<B")
    if mode_tag not in _TAG_MODES:
        raise SpaceFormatError(f"unknown stemmer tag {mode_tag}")
    rules_fp, space_fp = reader.strs(2)
    m, n_columns, k = reader.unpack("<QQQ")
    if not 1 <= k <= m:
        raise SpaceFormatError(f"space keeps k={k} dimensions, outside 1..{m}")
    (scaling_tag,) = reader.unpack("<B")
    if scaling_tag not in _TAG_SCALINGS:
        raise SpaceFormatError(f"unknown scaling tag {scaling_tag}")
    vocabulary = Vocabulary(reader.strs(m))
    if len(vocabulary) < m:
        raise SpaceFormatError(f"space vocabulary repeats {m - len(vocabulary)} of its {m} words")
    sigma = reader.floats(k)
    vectors = reader.floats(m * k).reshape(m, k)
    if reader.pos != end:
        raise SpaceFormatError(f"{end - reader.pos} trailing bytes in space file")
    return SemanticSpace(
        k=int(k),
        scaling=_TAG_SCALINGS[scaling_tag],
        vocabulary=vocabulary,
        sigma=sigma,
        word_vectors=vectors,
        provenance=Provenance(_TAG_MODES[mode_tag], rules_fp, space_fp),
        n_columns=int(n_columns),
    )
