"""Word-by-paragraph co-occurrence matrices, their factorization, and the
truncated word spaces built from them, with binary persistence.

`build_spaces` is the one path from paragraphs to spaces: `build` calls it
with one stemmer config and `report` with all of its modes. `build_matrix`,
`factorize` and `truncate` are its stages one at a time, for the benchmark's
traced replicas; `Vocabulary.index_of` (`dict.get`) and `space_fingerprint`
(which makes `Provenance.corpus_fingerprint`) keep the names the benchmark
calls. Matrix cells are raw occurrence counts; no weighting is applied. Word
vectors are rows of U (optionally scaled entrywise by the singular values),
restricted to the k largest singular directions. A space file's stemmer and
scaling tags index `_MODE_TAGS` and `SCALINGS`.
"""

from __future__ import annotations

import hashlib
import itertools
import struct
import zlib
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import svd as _svd
from .corpus import CorpusStats, Paragraph, normalize
from .errors import DataFormatError, OutOfVocabularyError, SemspaceError
from .stemming import MODE_LIGHT, MODE_NONE, MODE_ROOT, StemmerConfig

SCALING_U = "u"
SCALING_USIGMA = "usigma"
SCALINGS = (SCALING_U, SCALING_USIGMA)  # in scaling-tag order, which saved spaces depend on

_MAGIC = b"SEMSPACE"
_FORMAT_VERSION = 3
_MODE_TAGS = (MODE_NONE, MODE_ROOT, MODE_LIGHT)  # in stemmer-tag order, which saved spaces depend on


class Vocabulary(dict):
    """Each distinct token -> its row: rows run 0, 1, ... in first-seen order,
    which is also the dict's iteration order."""

    def __init__(self, tokens: list[str] | None = None):
        super().__init__(zip(dict.fromkeys(tokens or []), itertools.count()))

    index_of = dict.get

    def rows_of(self, tokens: list[str]) -> np.ndarray:
        """The row of each of `tokens`, all in the vocabulary, as an index array."""
        return np.fromiter(map(self.__getitem__, tokens), dtype=np.intp, count=len(tokens))


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
    corpus_fingerprint: str  # hash of the rules fingerprint, the corpus counts and the texts


@dataclass
class SemanticSpace:
    k: int
    scaling: str
    vocabulary: Vocabulary
    sigma: np.ndarray  # first k singular values
    word_vectors: np.ndarray  # m x k, row i for vocabulary token i; read-only, built or loaded
    provenance: Provenance
    n_columns: int  # paragraph count of the source matrix


def space_fingerprint(rules_fingerprint: str, stats: CorpusStats) -> str:
    """The corpus fingerprint: a hash of the rules fingerprint, the corpus counts and the texts' hash."""
    fields = [rules_fingerprint, stats.n_documents, stats.n_categories, stats.n_words, stats.n_paragraphs,
              stats.size_bytes, stats.text_sha256]
    return hashlib.sha256("|".join(map(str, fields)).encode("utf-8")).hexdigest()


def build_matrices(paragraphs: list[Paragraph], configs: list[StemmerConfig]) -> Iterator[CooccurrenceMatrix]:
    """Count stemmed-word occurrences per paragraph: a lazy iterator of one
    matrix per config, which stems and fills each as it is pulled.

    Row order is first occurrence in corpus order; column order follows the
    paragraph list. Raises SemspaceError, at the call, rather than making
    a matrix with no rows or no columns. The corpus is read once, at the
    call, for token ids and columns; each config stems each distinct token once.
    """
    occurrences = [token for paragraph in paragraphs for token in paragraph.tokens]
    distinct = Vocabulary(occurrences)
    if not distinct:
        raise SemspaceError("empty corpus")
    n = len(paragraphs)
    token_ids = distinct.rows_of(occurrences)
    columns = np.repeat(np.arange(n), [len(paragraph.tokens) for paragraph in paragraphs])

    def matrix(config: StemmerConfig, last: bool) -> CooccurrenceMatrix:
        nonlocal distinct, token_ids, columns
        stems = list(map(config.stem_token, distinct))
        vocabulary = Vocabulary(stems)
        flat = vocabulary.rows_of(stems)[token_ids] * n + columns  # row * n + column per occurrence
        if last:  # the corpus's ids go before the last matrix is filled and factored
            distinct = token_ids = columns = None
        counts = np.zeros((len(vocabulary), n))
        np.add.at(counts.reshape(-1), flat, 1.0)
        counts.flags.writeable = False
        return CooccurrenceMatrix(vocabulary, counts)

    return (matrix(config, i == len(configs)) for i, config in enumerate(configs, 1))  # binds no matrix


def build_matrix(paragraphs: list[Paragraph], config: StemmerConfig) -> CooccurrenceMatrix:
    """`build_matrices` for one config."""
    return next(build_matrices(paragraphs, [config]))


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
    n_columns: int,
) -> SemanticSpace:
    """Keep the k largest singular directions as the word space."""
    if not 1 <= k <= factors.n:
        raise ValueError(f"k must be in 1..{factors.n}, got {k}")
    if scaling not in SCALINGS:
        raise ValueError(f"unknown scaling: {scaling!r}")
    vectors = factors.U[:, :k] * factors.sigma[:k] if scaling == SCALING_USIGMA else factors.U[:, :k].copy()
    sigma = factors.sigma[:k].copy()
    sigma.flags.writeable = vectors.flags.writeable = False  # read-only, as load_space gives them
    return SemanticSpace(k, scaling, vocabulary, sigma, vectors, provenance, n_columns)


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
    keeps the bits it gets alone. Paragraphs that only this call holds go once
    counted, and each count matrix is made only when the SVD takes it and goes
    as its first QR copies it (on CPython 3.10, each when its call returns).
    Every space keeps the same k, by default min(300, smallest rank); a k
    above a space's rank raises ValueError.
    """
    vocabularies = []  # each matrix's, noted as the SVD takes its counts

    def counts(matrix: CooccurrenceMatrix) -> np.ndarray:  # mapped: a loop over the matrices would keep each alive
        vocabularies.append(matrix.vocabulary)
        return matrix.to_dense()

    n_columns, matrices = len(paragraphs), build_matrices(paragraphs, configs)
    del paragraphs  # counted: freed here when the caller handed them over, as `cli` does (CPython 3.11+)
    factored = [SvdFactors(U, sigma) for U, sigma, _ in _svd.jacobi_svds(map(counts, matrices))]
    if k is None:
        k = min(300, *(factors.n for factors in factored))
    spaces = []
    for config, vocabulary, factors in zip(configs, vocabularies, factored):
        fingerprint = space_fingerprint(config.rules_fingerprint, stats)
        provenance = Provenance(config.mode, config.rules_fingerprint, fingerprint)
        spaces.append(truncate(factors, k, scaling, vocabulary, provenance, n_columns))
    return spaces


def word_vector(space: SemanticSpace, surface: str, config: StemmerConfig) -> np.ndarray:
    """Row of the space for a surface word, stemmed exactly as at build time."""
    if config.mode != space.provenance.stemmer_mode:
        raise ValueError(
            f"space was built with stemmer {space.provenance.stemmer_mode!r}, "
            f"queried with {config.mode!r}"
        )
    stemmed = config.stem_token(normalize(surface))
    row = space.vocabulary.get(stemmed)
    if row is None:
        raise OutOfVocabularyError(f"out of vocabulary: {surface!r} (stemmed: {stemmed!r})")
    return space.word_vectors[row]


def _pack_str(value: str) -> bytes:
    data = value.encode("utf-8")
    return struct.pack("<I", len(data)) + data


def save_space(space: SemanticSpace, path: str | Path) -> None:
    """Write the space in format 3: magic, version, stemmer tag, the rules and
    corpus fingerprints, m, paragraphs, k, scaling tag, the m words as one
    newline-joined string (strings are a u32 byte count, then UTF-8), zeros up
    to a multiple of 8, sigma, the word vectors row by row (little-endian
    float64), then the payload's `_checksum`, each part written as it is, never
    joined. An empty word or one holding a newline is a ValueError; `build` never makes one."""
    tokens = list(space.vocabulary)
    if any(not token or "\n" in token for token in tokens):
        raise ValueError("a space's words are stored newline-joined, so no word may be empty or hold a newline")
    header = b"".join([
        _MAGIC,
        struct.pack("<IB", _FORMAT_VERSION, _MODE_TAGS.index(space.provenance.stemmer_mode)),
        _pack_str(space.provenance.rules_fingerprint),
        _pack_str(space.provenance.corpus_fingerprint),
        struct.pack("<QQQB", len(tokens), space.n_columns, space.k, SCALINGS.index(space.scaling)),
        _pack_str("\n".join(tokens)),
    ])
    numbers = (np.ascontiguousarray(block, dtype="<f8") for block in (space.sigma, space.word_vectors))
    parts = [header, bytes(-len(header) % 8), *numbers]  # zeros align the floats
    with open(path, "wb") as file:
        file.writelines([*parts, _checksum(*parts)])


def _checksum(*parts) -> bytes:
    """The 8 bytes that end a space file: the running CRC-32 of the payload's
    `parts`, in order, as a little-endian u64. It guards against corruption, not tampering."""
    crc = 0
    for part in parts:
        crc = zlib.crc32(part, crc)
    return crc.to_bytes(8, "little")


def load_space(path: str | Path) -> SemanticSpace:
    """Read a space written by save_space; round-trips bit-exactly.

    The file is read once, unbuffered: sigma and the word vectors are
    read-only, aligned views of its bytes, and the word block is decoded and
    split once.
    """
    with open(path, "rb", buffering=0) as file:
        blob = file.readall()
    if len(blob) < len(_MAGIC) + 8:
        raise DataFormatError("file too short to be a space file")
    if not blob.startswith(_MAGIC):
        raise DataFormatError("not a space file (bad magic)")
    pos, end = len(_MAGIC), len(blob) - 8  # the payload's fields are read in order from pos; the checksum follows end

    def skip(size: int) -> int:
        """Move past the next `size` bytes; returns the offset where they start."""
        nonlocal pos
        if pos + size > end:
            raise DataFormatError(f"truncated space file: needed {size} bytes at offset {pos}")
        pos += size
        return pos - size

    def unpack(fmt: str) -> tuple:
        return struct.unpack_from(fmt, blob, skip(struct.calcsize(fmt)))

    def text() -> str:
        """The next length-prefixed UTF-8 string."""
        (size,) = unpack("<I")
        start = skip(size)
        try:
            return blob[start:pos].decode()
        except UnicodeDecodeError as exc:
            raise DataFormatError(f"text in space file is not UTF-8: {exc.reason}") from None

    (version,) = unpack("<I")
    if version != _FORMAT_VERSION:  # before the checksum, which older formats compute otherwise
        raise DataFormatError(
            f"unsupported space format version {version} (this semspace reads version {_FORMAT_VERSION}); "
            "rebuild the space with `semspace build`"
        )
    if _checksum(memoryview(blob)[:end]) != blob[end:]:
        raise DataFormatError("space file checksum mismatch")
    (mode_tag,) = unpack("<B")
    if mode_tag >= len(_MODE_TAGS):
        raise DataFormatError(f"unknown stemmer tag {mode_tag}")
    rules_fp, corpus_fp = text(), text()
    m, n_columns, k = unpack("<QQQ")
    if not 1 <= k <= m:
        raise DataFormatError(f"space keeps k={k} dimensions, outside 1..{m}")
    (scaling_tag,) = unpack("<B")
    if scaling_tag >= len(SCALINGS):
        raise DataFormatError(f"unknown scaling tag {scaling_tag}")
    words = text().split("\n")
    if len(words) != m:
        raise DataFormatError(f"space word block holds {len(words)} words, not the {m} of its header")
    vocabulary = Vocabulary()
    vocabulary.update(zip(words, range(m)))
    if len(vocabulary) < m:
        raise DataFormatError(f"space vocabulary repeats {m - len(vocabulary)} of its {m} words")
    if "" in vocabulary:
        raise DataFormatError("space vocabulary holds an empty word")
    padding = skip(-pos % 8)
    if any(blob[padding:pos]):
        raise DataFormatError("nonzero padding byte before the space's numbers")
    numbers = np.frombuffer(blob, dtype="<f8", count=k + m * k, offset=skip(8 * (k + m * k)))  # sigma, then the vectors
    if pos != end:
        raise DataFormatError(f"{end - pos} trailing bytes in space file")
    if not np.isfinite(numbers).all():
        raise DataFormatError("space file holds a non-finite singular value or vector entry")
    return SemanticSpace(
        k=int(k),
        scaling=SCALINGS[scaling_tag],
        vocabulary=vocabulary,
        sigma=numbers[:k],
        word_vectors=numbers[k:].reshape(m, k),
        provenance=Provenance(_MODE_TAGS[mode_tag], rules_fp, corpus_fp),
        n_columns=int(n_columns),
    )
