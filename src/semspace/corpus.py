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
from itertools import groupby
from pathlib import Path

from .errors import CorpusReadError

Token = str  # normalized, non-empty, Arabic letters only

# rules 1 and 4: drop all outside the letter block U+0621..U+064A, and the tatweel U+0640 in it
_DROP = re.compile(r"[^\u0621-\u063F\u0641-\u064A]+")
_DROP_KEEP_SPACE = re.compile(r"[^\u0621-\u063F\u0641-\u064A\s]+")
_FOLDS = (("أ", "ا"), ("إ", "ا"), ("آ", "ا"), ("ى", "ي"))


def _clean(text: str, drop: re.Pattern) -> str:
    """Rules 1 to 4: one regex pass drops, then each fold is one str.replace."""
    text = drop.sub("", text)
    for letter, folded in _FOLDS:
        text = text.replace(letter, folded)
    return text


def normalize(raw: str) -> str:
    """Normalize one raw token. Returns '' when nothing Arabic survives."""
    return _clean(raw, _DROP)


def tokenize(text: str) -> list[Token]:
    """Split on Unicode whitespace, normalize each piece, drop the empties."""
    # Regex \s and str.isspace agree on every code point, so dropping the
    # non-Arabic letters first leaves the same pieces for split() to return.
    return _clean(text, _DROP_KEEP_SPACE).split()


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
    # a directory named *.txt is no document; a broken symlink is, and reading it fails
    paths = sorted((p for p in root.rglob("*.txt") if not p.is_dir()), key=lambda p: p.relative_to(root).as_posix())
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
    runs = groupby(doc.text.splitlines(), key=lambda line: bool(line.strip()))
    tokenized = [tokens for tokens in (tokenize(" ".join(lines)) for kept, lines in runs if kept) if tokens]
    return [Paragraph(doc.id, index, tuple(tokens)) for index, tokens in enumerate(tokenized)]


def segment_corpus(corpus: Corpus) -> list[Paragraph]:
    """All paragraphs of the corpus, in document order."""
    return [paragraph for doc in corpus.documents for paragraph in segment_paragraphs(doc)]


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
