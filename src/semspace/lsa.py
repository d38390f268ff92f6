"""Word-by-paragraph co-occurrence matrices, their factorization, and the
truncated word spaces built from them, with binary persistence.

`build_spaces` is the one path from paragraphs to spaces: `build` calls it
with one stemmer config and `report` with all of its modes. `build_matrix`,
`factorize` and `truncate` are its stages one at a time, for the benchmark's
traced replicas; `Vocabulary.index_of`, which is `dict.get`, keeps the name
the benchmark calls. Matrix cells are raw occurrence counts; no weighting is
applied. Word vectors are rows of U (optionally scaled entrywise by the
singular values), restricted to the k largest singular directions.
"""

from __future__ import annotations

import hashlib
import itertools
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
_FORMAT_VERSION = 2
_MODE_TAGS = {MODE_NONE: 0, MODE_ROOT: 1, MODE_LIGHT: 2}
_TAG_MODES = {v: k for k, v in _MODE_TAGS.items()}
_SCALING_TAGS = {SCALING_U: 0, SCALING_USIGMA: 1}
_TAG_SCALINGS = {v: k for k, v in _SCALING_TAGS.items()}


class Vocabulary(dict):
    """Each distinct token -> its row: rows run 0, 1, ... in first-seen order,
    which is also the dict's iteration order."""

    def __init__(self, tokens: list[str] | None = None):
        super().__init__(zip(dict.fromkeys(tokens or []), itertools.count()))

    index_of = dict.get

    def rows_of(self, tokens: list[str]) -> np.ndarray:
        """The row of each of `tokens`, all in the vocabulary, as an index array."""
        return np.fromiter(map(self.__getitem__, tokens), dtype=np.intp, count=len(tokens))

    @property
    def tokens(self) -> list[str]:
        return list(self)


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
    space_fingerprint: str  # the corpus fingerprint: hash of rules fingerprint, corpus counts and texts


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
    """The corpus fingerprint: a hash of the rules fingerprint, the corpus counts and the texts' hash."""
    fields = [rules_fingerprint, stats.n_documents, stats.n_categories, stats.n_words, stats.n_paragraphs,
              stats.size_bytes, stats.text_sha256]
    return hashlib.sha256("|".join(map(str, fields)).encode("utf-8")).hexdigest()


def build_matrices(paragraphs: list[Paragraph], configs: list[StemmerConfig]) -> list[CooccurrenceMatrix]:
    """Count stemmed-word occurrences per paragraph, one matrix per config.

    Row order is first occurrence in corpus order; column order follows the
    paragraph list. Raises EmptyCorpusError rather than returning a matrix
    with no rows or no columns. The corpus is read once, for token ids and
    columns; each config stems each distinct token once.
    """
    occurrences = [token for paragraph in paragraphs for token in paragraph.tokens]
    distinct = Vocabulary(occurrences)
    if not paragraphs or not distinct:
        raise EmptyCorpusError("empty corpus")
    n = len(paragraphs)
    token_ids = distinct.rows_of(occurrences)
    columns = np.repeat(np.arange(n), [len(paragraph.tokens) for paragraph in paragraphs])
    matrices = []
    for config in configs:
        stems = list(map(config.stem_token, distinct))
        vocabulary = Vocabulary(stems)
        rows = vocabulary.rows_of(stems)
        counts = np.zeros((len(vocabulary), n))
        np.add.at(counts.reshape(-1), rows[token_ids] * n + columns, 1.0)  # row * n + column per occurrence
        counts.flags.writeable = False
        matrices.append(CooccurrenceMatrix(vocabulary, counts))
    return matrices


def build_matrix(paragraphs: list[Paragraph], config: StemmerConfig) -> CooccurrenceMatrix:
    """`build_matrices` for one config."""
    return build_matrices(paragraphs, [config])[0]


def factorize(matrix: CooccurrenceMatrix) -> SvdFactors:
    """Left singular vectors and singular values of the dense count matrix."""
    U, sigma, _ = _svd.jacobi_svd(matrix.to_dense())
    return SvdFactors(U=U, sigma=sigma)


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
    vectors = factors.U[:, :k] * factors.sigma[:k] if scaling == SCALING_USIGMA else factors.U[:, :k].copy()
    return SemanticSpace(
        k=k,
        scaling=scaling,
        vocabulary=vocabulary,
        sigma=factors.sigma[:k].copy(),
        word_vectors=vectors,
        provenance=provenance,
        n_columns=n_columns,
    )


def build_spaces(
    paragraphs: list[Paragraph],
    stats: CorpusStats,
    configs: list[StemmerConfig],
    k: int | None = None,
    scaling: str = SCALING_U,
) -> list[SemanticSpace]:
    """One word space per config over the same paragraphs.

    The corpus is read once, and one `svd.jacobi_svds` call factors every
    count matrix, so those whose ranks agree share one Jacobi loop and each
    keeps the bits it gets alone. Every space keeps the same k, by default
    min(300, smallest rank); a k above a space's rank raises ValueError.
    """
    matrices = build_matrices(paragraphs, configs)
    factored = [SvdFactors(U, sigma) for U, sigma, _ in _svd.jacobi_svds([m.to_dense() for m in matrices])]
    if k is None:
        k = min(300, *(factors.n for factors in factored))
    spaces = []
    for config, matrix, factors in zip(configs, matrices, factored):
        fingerprint = space_fingerprint(config.rules_fingerprint, stats)
        provenance = Provenance(config.mode, config.rules_fingerprint, fingerprint)
        spaces.append(truncate(factors, k, scaling, matrix.vocabulary, provenance, n_columns=matrix.shape[1]))
    return spaces


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
    """Write the space in format 2: magic, version, stemmer tag, the rules and
    corpus fingerprints, m, paragraphs, k, scaling tag, the m words as one
    newline-joined string (strings are a u32 byte count, then UTF-8), zeros up
    to a multiple of 8, sigma, the word vectors row by row (little-endian
    float64), then 8 bytes of the payload's sha256. A word holding a newline
    is a ValueError; `build` never makes one."""
    tokens = space.vocabulary.tokens
    if any("\n" in token for token in tokens):
        raise ValueError("a space's words are stored newline-joined, so no word may hold a newline")
    header = b"".join([
        _MAGIC,
        struct.pack("<IB", _FORMAT_VERSION, _MODE_TAGS[space.provenance.stemmer_mode]),
        _pack_str(space.provenance.rules_fingerprint),
        _pack_str(space.provenance.space_fingerprint),
        struct.pack("<QQQB", len(tokens), space.n_columns, space.k, _SCALING_TAGS[space.scaling]),
        _pack_str("\n".join(tokens)),
    ])
    sigma = np.asarray(space.sigma, dtype="<f8").tobytes()
    vectors = np.ascontiguousarray(space.word_vectors, dtype="<f8").tobytes()
    payload = b"".join([header, bytes(-len(header) % 8), sigma, vectors])  # zeros align the floats
    Path(path).write_bytes(payload + hashlib.sha256(payload).digest()[:8])


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
            raise SpaceTruncatedError(f"truncated space file: needed {size} bytes at offset {self.pos}")
        start = self.pos
        self.pos += size
        return start

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack_from(fmt, self.data, self.skip(struct.calcsize(fmt)))

    def floats(self, count: int) -> np.ndarray:
        """The next `count` little-endian float64s, as a read-only view of `data`."""
        return np.frombuffer(self.data, dtype="<f8", count=count, offset=self.skip(8 * count))

    def text(self) -> str:
        """The next length-prefixed UTF-8 string."""
        (size,) = self.unpack("<I")
        start = self.skip(size)
        try:
            return self.data[start:self.pos].decode()
        except UnicodeDecodeError as exc:
            raise SpaceFormatError(f"text in space file is not UTF-8: {exc.reason}") from None


def load_space(path: str | Path) -> SemanticSpace:
    """Read a space written by save_space; round-trips bit-exactly.

    The file is read once, unbuffered: sigma and the word vectors are
    read-only, aligned views of its bytes, and the word block is decoded and
    split once.
    """
    with open(path, "rb", buffering=0) as file:
        blob = file.readall()
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
        raise SpaceVersionError(
            f"unsupported space format version {version} (this semspace reads version {_FORMAT_VERSION}); "
            "rebuild the space with `semspace build`"
        )
    (mode_tag,) = reader.unpack("<B")
    if mode_tag not in _TAG_MODES:
        raise SpaceFormatError(f"unknown stemmer tag {mode_tag}")
    rules_fp, space_fp = reader.text(), reader.text()
    m, n_columns, k = reader.unpack("<QQQ")
    if not 1 <= k <= m:
        raise SpaceFormatError(f"space keeps k={k} dimensions, outside 1..{m}")
    (scaling_tag,) = reader.unpack("<B")
    if scaling_tag not in _TAG_SCALINGS:
        raise SpaceFormatError(f"unknown scaling tag {scaling_tag}")
    words = reader.text().split("\n")
    if len(words) != m:
        raise SpaceFormatError(f"space word block holds {len(words)} words, not the {m} of its header")
    vocabulary = Vocabulary()
    vocabulary.update(zip(words, range(m)))
    if len(vocabulary) < m:
        raise SpaceFormatError(f"space vocabulary repeats {m - len(vocabulary)} of its {m} words")
    padding = reader.skip(-reader.pos % 8)
    if any(blob[padding:reader.pos]):
        raise SpaceFormatError("nonzero padding byte before the space's numbers")
    numbers = reader.floats(k + m * k)  # sigma, then the word vectors row by row
    if reader.pos != end:
        raise SpaceFormatError(f"{end - reader.pos} trailing bytes in space file")
    if not np.isfinite(numbers).all():
        raise SpaceFormatError("space file holds a non-finite singular value or vector entry")
    return SemanticSpace(
        k=int(k),
        scaling=_TAG_SCALINGS[scaling_tag],
        vocabulary=vocabulary,
        sigma=numbers[:k],
        word_vectors=numbers[k:].reshape(m, k),
        provenance=Provenance(_TAG_MODES[mode_tag], rules_fp, space_fp),
        n_columns=int(n_columns),
    )
