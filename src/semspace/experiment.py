"""Comparative runs: both stemmers crossed with the four measures over
labeled word-pair lists, rendered as sectioned TSV or markdown reports.

Out-of-vocabulary words degrade the affected row to markers instead of
failing the run; re-running with identical inputs reproduces the rendered
report byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .corpus import corpus_stats, load_corpus, segment_corpus
from .errors import OutOfVocabularyError, PairFormatError
from .lsa import SCALING_U, SemanticSpace, build_spaces, word_vector
from .similarity import MEASURE_ORDER, SimilarityResult, format_value, measure_all, unit_vector
from .stemming import MODE_LIGHT, MODE_ROOT, StemmerConfig, make_config

LABEL_SIMILAR = "Similar"
LABEL_DIFFERENT = "Different"
LABELS = (LABEL_SIMILAR, LABEL_DIFFERENT)

DEFAULT_MODES = (MODE_ROOT, MODE_LIGHT)

_MODE_TITLES = {MODE_ROOT: "Root stemmer", MODE_LIGHT: "Light stemmer", "none": "No stemmer"}
_LABEL_TITLES = {LABEL_SIMILAR: "similar words", LABEL_DIFFERENT: "different words"}


@dataclass(frozen=True)
class WordPair:
    word_a: str
    word_b: str
    label: str
    gloss: str | None = None
    transliteration: str | None = None

    def __post_init__(self):
        if not self.word_a or not self.word_b:
            raise PairFormatError("pair words must be non-empty")
        if self.label not in LABELS:
            raise PairFormatError(f"unknown pair label: {self.label!r}")


def load_pairs(path: str | Path) -> list[WordPair]:
    """Parse a pair file: word_a<TAB>word_b<TAB>label[<TAB>gloss[<TAB>translit]].

    Lines starting with '#' and blank lines are skipped; duplicates are kept.
    """
    pairs: list[WordPair] = []
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise PairFormatError(f"{path}: not UTF-8: {exc.reason}") from None
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        cols = line.split("\t")
        if len(cols) < 3 or len(cols) > 5:
            raise PairFormatError(f"{path}:{lineno}: expected 3 to 5 tab-separated columns, got {len(cols)}")
        word_a, word_b, label = (c.strip() for c in cols[:3])
        gloss = cols[3].strip() if len(cols) > 3 and cols[3].strip() else None
        translit = cols[4].strip() if len(cols) > 4 and cols[4].strip() else None
        try:
            pairs.append(WordPair(word_a, word_b, label, gloss, translit))
        except PairFormatError as exc:
            raise PairFormatError(f"{path}:{lineno}: {exc}") from None
    return pairs


@dataclass(frozen=True)
class ReportRow:
    pair: WordPair
    stemmer_mode: str
    results: tuple[SimilarityResult, ...]  # cosine, euclidean, pearson, jaccard
    oov: tuple[str, ...] = ()  # surface words missing from the space


@dataclass(frozen=True)
class ReportMetadata:
    k: int
    scaling: str
    rules_fingerprint: str
    corpus_fingerprint: str


@dataclass
class ComparisonReport:
    rows: list[ReportRow]
    metadata: ReportMetadata
    modes: tuple[str, ...]
    skipped: list[tuple[str, str]] = field(default_factory=list)  # corpus files left out


_UNDEFINED_ROW = tuple(SimilarityResult(name, None) for name in MEASURE_ORDER)


def _evaluate_pair(
    space: SemanticSpace, config: StemmerConfig, pair: WordPair, unit_length: bool
) -> ReportRow:
    vectors = []
    missing = []
    for word in (pair.word_a, pair.word_b):
        try:
            vectors.append(word_vector(space, word, config))
        except OutOfVocabularyError:
            missing.append(word)
    if missing:
        return ReportRow(pair, config.mode, _UNDEFINED_ROW, oov=tuple(missing))
    a, b = vectors
    if unit_length:
        a, b = unit_vector(a), unit_vector(b)
    return ReportRow(pair, config.mode, measure_all(a, b))


def run_comparison(
    corpus_dir: str | Path,
    pairs: list[WordPair],
    modes: tuple[str, ...] = DEFAULT_MODES,
    k: int | None = None,
    scaling: str = SCALING_U,
    rules_dir: Path | None = None,
    unit_length: bool = False,
) -> ComparisonReport:
    """Build one space per requested stemmer over the same corpus and score every pair.

    Every space keeps the same k, by default min(300, smallest rank over the modes).
    """
    corpus = load_corpus(corpus_dir)
    paragraphs = segment_corpus(corpus)
    stats = corpus_stats(corpus, paragraphs)

    configs = [make_config(mode, rules_dir) for mode in modes]
    spaces = build_spaces(paragraphs, stats, configs, k, scaling)
    # the fingerprints of the first space built with rule files (mode none has none)
    provenance = next((s.provenance for s in spaces if s.provenance.rules_fingerprint), spaces[0].provenance)
    rows: list[ReportRow] = []
    for config, space in zip(configs, spaces):
        rows.extend(_evaluate_pair(space, config, pair, unit_length) for pair in pairs)
    return ComparisonReport(
        rows=rows,
        metadata=ReportMetadata(spaces[0].k, scaling, provenance.rules_fingerprint, provenance.space_fingerprint),
        modes=tuple(modes),
        skipped=corpus.skipped,
    )


def _row_cells(row: ReportRow) -> list[str]:
    words = f"({row.pair.word_a}, {row.pair.word_b})"
    translit = row.pair.transliteration or "-"
    gloss = row.pair.gloss or "-"
    if row.oov:
        measures = ["-"] * len(MEASURE_ORDER)
        notes = ";".join(f"oov={word}" for word in row.oov)
    else:
        measures = [format_value(r) for r in row.results]
        notes = ""
    return [words, translit, gloss, *measures, notes]


_HEADER = ["Words", "Transliteration", "English Translation",
           "Cosine", "Euclidean", "Pearson", "Jaccard", "Notes"]


def _sections(report: ComparisonReport):
    for mode in report.modes:
        for label in LABELS:
            rows = [r for r in report.rows if r.stemmer_mode == mode and r.pair.label == label]
            if rows:
                yield mode, label, rows


def render_report(report: ComparisonReport, fmt: str = "tsv") -> str:
    if fmt == "tsv":
        return _render_tsv(report)
    if fmt == "markdown":
        return _render_markdown(report)
    raise ValueError(f"unknown report format: {fmt!r}")


def _render_tsv(report: ComparisonReport) -> str:
    meta = report.metadata
    lines = [
        f"# semspace comparison report\tk={meta.k}\tscaling={meta.scaling}",
        f"# rules={meta.rules_fingerprint}\tcorpus={meta.corpus_fingerprint}",
        "\t".join(_HEADER),
    ]
    for mode, label, rows in _sections(report):
        lines.append(f"## stemmer={mode}\tlabel={label}")
        for row in rows:
            lines.append("\t".join(_row_cells(row)))
    return "\n".join(lines) + "\n"


def _render_markdown(report: ComparisonReport) -> str:
    meta = report.metadata
    lines = [
        "# Word similarity comparison",
        "",
        f"- k: {meta.k}",
        f"- scaling: {meta.scaling}",
        f"- rules fingerprint: `{meta.rules_fingerprint}`",
        f"- corpus fingerprint: `{meta.corpus_fingerprint}`",
    ]
    for mode, label, rows in _sections(report):
        lines.append("")
        lines.append(f"## {_MODE_TITLES.get(mode, mode)} — {_LABEL_TITLES[label]}")
        lines.append("")
        lines.append("| " + " | ".join(_HEADER) + " |")
        lines.append("|" + "---|" * len(_HEADER))
        for row in rows:
            cells = ((cell or "-").replace("|", "\\|") for cell in _row_cells(row))
            lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines) + "\n"
