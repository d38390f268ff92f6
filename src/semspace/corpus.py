"""Corpus ingestion: load UTF-8 Arabic documents, segment into paragraphs,
normalize orthography, and compute corpus statistics.

Normalization rules (versioned here, the single source of truth):
1. Remove diacritics (U+064B..U+0652) and tatweel (U+0640).
2. Fold hamza-seated alif variants to bare alif: أ إ آ -> ا
3. Fold alif maqsura to ya: ى -> ي
4. Drop every remaining character outside the Arabic letter block
   U+0621..U+064A. Ta marbuta (ة) is inside the block and is kept:
   the stemmers treat it as a strippable suffix.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path

from .errors import CorpusReadError

Token = str  # normalized, non-empty, Arabic letters only

_DIACRITICS = {cp: None for cp in range(0x064B, 0x0653)}
_TATWEEL = {0x0640: None}
_FOLDS = {ord("أ"): "ا", ord("إ"): "ا", ord("آ"): "ا", ord("ى"): "ي"}
_CLEAN_TABLE = {**_DIACRITICS, **_TATWEEL, **_FOLDS}

_NON_ARABIC = re.compile(r"[^\u0621-\u064A]+")
_NON_ARABIC_OR_SPACE = re.compile(r"[^\u0621-\u064A\s]+")


def normalize(raw: str) -> str:
    """Normalize one raw token. Returns '' when nothing Arabic survives."""
    return _NON_ARABIC.sub("", raw.translate(_CLEAN_TABLE))


def tokenize(text: str) -> list[Token]:
    """Split on Unicode whitespace, normalize each piece, drop the empties."""
    # Regex \s and str.isspace agree on every code point, so dropping the
    # non-Arabic letters first leaves the same pieces for split() to return.
    return _NON_ARABIC_OR_SPACE.sub("", text.translate(_CLEAN_TABLE)).split()


@dataclass(frozen=True)
class RawDocument:
    id: str
    text: str
    category: str | None = None


@dataclass(frozen=True)
class Paragraph:
    doc_id: str
    index: int
    tokens: tuple[Token, ...]


@dataclass
class Corpus:
    documents: list[RawDocument] = field(default_factory=list)
    skipped: list[tuple[str, str]] = field(default_factory=list)  # (path, reason)


@dataclass(frozen=True)
class CorpusStats:
    n_documents: int
    n_categories: int
    n_words: int
    n_paragraphs: int
    size_bytes: int

    def rows(self) -> list[tuple[str, int]]:
        """Five (name, value) rows in the fixed report order."""
        return [
            ("Number of Documents", self.n_documents),
            ("Size", self.size_bytes),
            ("Number of categories", self.n_categories),
            ("Number of Words", self.n_words),
            ("Number of Paragraphs", self.n_paragraphs),
        ]


def load_corpus(root: str | Path) -> Corpus:
    """Load every .txt file under `root` (flat, or nested one level by category).

    Document ids are relative paths without the .txt extension; order is
    lexicographic by relative path, so runs are reproducible. Files that do
    not decode as UTF-8, and files nested more than one level deep, are
    recorded in `skipped` rather than aborting the load.
    """
    root = Path(root)
    if not root.is_dir():
        raise CorpusReadError(f"not a readable directory: {root}")
    paths = sorted(root.rglob("*.txt"), key=lambda p: p.relative_to(root).as_posix())
    corpus = Corpus()
    for path in paths:
        rel = path.relative_to(root)
        if len(rel.parts) > 2:
            corpus.skipped.append((str(path), "nested more than one level deep"))
            continue
        try:
            data = path.read_bytes()
            text = data.decode("utf-8")
        except OSError as exc:
            corpus.skipped.append((str(path), f"unreadable: {exc}"))
            continue
        except UnicodeDecodeError as exc:
            corpus.skipped.append((str(path), f"not UTF-8: {exc}"))
            continue
        if not text.strip():
            corpus.skipped.append((str(path), "empty file"))
            continue
        category = rel.parts[0] if len(rel.parts) > 1 else None
        corpus.documents.append(RawDocument(id=rel.as_posix()[: -len(".txt")], text=text, category=category))
    return corpus


def segment_paragraphs(doc: RawDocument) -> list[Paragraph]:
    """Split a document into paragraphs: maximal runs of non-blank lines.

    One or more blank (whitespace-only) lines separate paragraphs. Each
    paragraph is tokenized; paragraphs with no surviving tokens are dropped,
    and indices are assigned contiguously over the kept ones.
    """
    paragraphs: list[Paragraph] = []
    block: list[str] = []

    def flush():
        if not block:
            return
        tokens = tokenize(" ".join(block))
        if tokens:
            paragraphs.append(Paragraph(doc.id, len(paragraphs), tuple(tokens)))
        block.clear()

    for line in doc.text.splitlines():
        if line.strip():
            block.append(line)
        else:
            flush()
    flush()
    return paragraphs


def segment_corpus(corpus: Corpus) -> list[Paragraph]:
    """All paragraphs of the corpus, in document order."""
    out: list[Paragraph] = []
    for doc in corpus.documents:
        out.extend(segment_paragraphs(doc))
    return out


def corpus_stats(corpus: Corpus, paragraphs: list[Paragraph] | None = None) -> CorpusStats:
    """Counts over the corpus; pass `paragraphs` when segment_corpus already ran."""
    if paragraphs is None:
        paragraphs = segment_corpus(corpus)
    categories = {d.category for d in corpus.documents if d.category is not None}
    return CorpusStats(
        n_documents=len(corpus.documents),
        n_categories=len(categories),
        n_words=sum(len(p.tokens) for p in paragraphs),
        n_paragraphs=len(paragraphs),
        size_bytes=sum(len(d.text.encode("utf-8")) for d in corpus.documents),
    )
