"""Corpus ingestion: load UTF-8 Arabic documents, segment into paragraphs
(each only its tokens), normalize orthography, and compute corpus statistics.

Normalization rules (versioned here, the single source of truth):
1. Remove diacritics (U+064B..U+0652) and tatweel (U+0640).
2. Fold hamza-seated alif variants to bare alif: أ إ آ -> ا
3. Fold alif maqsura to ya: ى -> ي
4. Drop every remaining character outside the Arabic letter block
   U+0621..U+064A. Ta marbuta (ة) is inside the block and is kept:
   the stemmers treat it as a strippable suffix.
"""

from __future__ import annotations

import hashlib
import re
import struct
from dataclasses import dataclass, field
from itertools import groupby
from pathlib import Path

from .errors import SemspaceError

# rules 1 and 4: drop all outside the letter block U+0621..U+064A, and the tatweel U+0640 in it
_DROP_KEEP_SPACE = re.compile(r"[^\u0621-\u063F\u0641-\u064A\s]+")
_FOLDS = (("أ", "ا"), ("إ", "ا"), ("آ", "ا"), ("ى", "ي"))


def normalize(raw: str) -> str:
    """Normalize one raw token. Returns '' when nothing Arabic survives."""
    return "".join(tokenize(raw))


def tokenize(text: str) -> list[str]:
    """Split on Unicode whitespace, normalize each piece, drop the empties."""
    # Rules 1 to 4 are one regex pass that drops, then one str.replace per fold.
    # Regex \s and str.isspace agree on every code point, so dropping the
    # non-Arabic letters first leaves the same pieces for split() to return.
    text = _DROP_KEEP_SPACE.sub("", text)
    for letter, folded in _FOLDS:
        text = text.replace(letter, folded)
    return text.split()


@dataclass(frozen=True)
class RawDocument:
    id: str
    text: str
    category: str | None = None


@dataclass(frozen=True)
class Paragraph:
    tokens: tuple[str, ...]  # normalized, non-empty, Arabic letters only


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
    text_sha256: str  # of each document's id and UTF-8 text, by id; in the corpus fingerprint, not a row

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
        raise SemspaceError(f"not a readable directory: {root}")
    # a directory named *.txt is no document; a broken symlink is, and reading it fails
    paths = sorted((p for p in root.rglob("*.txt") if not p.is_dir()), key=lambda p: p.relative_to(root).as_posix())
    corpus = Corpus()
    for path in paths:
        rel = path.relative_to(root)
        if len(rel.parts) > 2:
            corpus.skipped.append((str(path), "nested more than one level deep"))
            continue
        try:
            text = path.read_bytes().decode("utf-8")
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
    paragraph is tokenized; paragraphs with no surviving tokens are dropped.
    """
    runs = groupby(doc.text.splitlines(), key=lambda line: bool(line.strip()))
    tokenized = (tokenize(" ".join(lines)) for kept, lines in runs if kept)
    return [Paragraph(tuple(tokens)) for tokens in tokenized if tokens]


def segment_corpus(corpus: Corpus) -> list[Paragraph]:
    """All paragraphs of the corpus, in document order."""
    return [paragraph for doc in corpus.documents for paragraph in segment_paragraphs(doc)]


def corpus_stats(corpus: Corpus, paragraphs: list[Paragraph] | None = None) -> CorpusStats:
    """Counts over the corpus; pass `paragraphs` when segment_corpus already ran."""
    if paragraphs is None:
        paragraphs = segment_corpus(corpus)
    categories = {d.category for d in corpus.documents if d.category is not None}
    documents = sorted((d.id.encode("utf-8"), d.text.encode("utf-8")) for d in corpus.documents)
    text_hash = hashlib.sha256()
    for ident, text in documents:  # lengths first, so no two corpora hash the same stream
        text_hash.update(struct.pack("<QQ", len(ident), len(text)) + ident)
        text_hash.update(text)
    return CorpusStats(
        n_documents=len(corpus.documents),
        n_categories=len(categories),
        n_words=sum(len(p.tokens) for p in paragraphs),
        n_paragraphs=len(paragraphs),
        size_bytes=sum(len(text) for _, text in documents),
        text_sha256=text_hash.hexdigest(),
    )
