"""Comparative runs: both stemmers crossed with the four measures over
labeled word-pair lists, rendered as sectioned TSV or markdown reports by
one renderer that walks the sections once for either format.

Out-of-vocabulary words degrade the affected row to markers instead of
failing the run; re-running with identical inputs reproduces the rendered
report byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .errors import OutOfVocabularyError, PairFormatError
from .lsa import SemanticSpace, word_vector
from .similarity import MEASURE_ORDER, SimilarityResult, format_value, measure_all, unit_vector
from .stemming import MODE_LIGHT, MODE_NONE, MODE_ROOT, StemmerConfig

LABEL_SIMILAR = "Similar"
LABEL_DIFFERENT = "Different"
LABELS = (LABEL_SIMILAR, LABEL_DIFFERENT)

DEFAULT_MODES = (MODE_ROOT, MODE_LIGHT)

_MODE_TITLES = {MODE_ROOT: "Root stemmer", MODE_LIGHT: "Light stemmer", MODE_NONE: "No stemmer"}
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
        text = Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise PairFormatError(f"{path}: not UTF-8: {exc.reason}") from None
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        cols = line.split("\t")
        if len(cols) < 3 or len(cols) > 5:
            raise PairFormatError(f"{path}:{lineno}: expected 3 to 5 tab-separated columns, got {len(cols)}")
        word_a, word_b, label, gloss, translit = (c.strip() for c in cols + [""] * (5 - len(cols)))
        try:
            pairs.append(WordPair(word_a, word_b, label, gloss or None, translit or None))
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
    configs: list[StemmerConfig], spaces: list[SemanticSpace], pairs: list[WordPair], unit_length: bool = False
) -> ComparisonReport:
    """Score every pair in each space under the config that built it.

    `lsa.build_spaces` makes such spaces, one per config over one corpus with
    one k; the report takes its k and scaling from the first space.
    """
    # the fingerprints of the first space built with rule files (mode none has none)
    provenance = next((s.provenance for s in spaces if s.provenance.rules_fingerprint), spaces[0].provenance)
    rows = [_evaluate_pair(space, config, pair, unit_length) for config, space in zip(configs, spaces) for pair in pairs]
    return ComparisonReport(
        rows=rows,
        metadata=ReportMetadata(spaces[0].k, spaces[0].scaling, provenance.rules_fingerprint, provenance.corpus_fingerprint),
        modes=tuple(config.mode for config in configs),
    )


def _row_cells(row: ReportRow) -> list[str]:
    pair = row.pair
    measures = ["-"] * len(MEASURE_ORDER) if row.oov else [format_value(r) for r in row.results]
    notes = ";".join(f"oov={word}" for word in row.oov)  # empty for a scored row
    return [f"({pair.word_a}, {pair.word_b})", pair.transliteration or "-", pair.gloss or "-", *measures, notes]


_HEADER = ["Words", "Transliteration", "English Translation", *(name.capitalize() for name in MEASURE_ORDER), "Notes"]


def render_report(report: ComparisonReport, fmt: str = "tsv") -> str:
    """The report as TSV or markdown: the metadata lines, then one section
    per mode and label that has rows, each a heading and one line per row."""
    meta = report.metadata
    if fmt == "tsv":
        lines = [
            f"# semspace comparison report\tk={meta.k}\tscaling={meta.scaling}",
            f"# rules={meta.rules_fingerprint}\tcorpus={meta.corpus_fingerprint}",
            "\t".join(_HEADER),
        ]
        heading = lambda mode, label: f"## stemmer={mode}\tlabel={label}"
        cells = "\t".join
    elif fmt == "markdown":
        lines = [
            "# Word similarity comparison",
            "",
            f"- k: {meta.k}",
            f"- scaling: {meta.scaling}",
            f"- rules fingerprint: `{meta.rules_fingerprint}`",
            f"- corpus fingerprint: `{meta.corpus_fingerprint}`",
        ]
        cells = lambda row: "| " + " | ".join((cell or "-").replace("|", "\\|") for cell in row) + " |"
        table_head = cells(_HEADER) + "\n|" + "---|" * len(_HEADER)
        heading = lambda mode, label: f"\n## {_MODE_TITLES.get(mode, mode)} — {_LABEL_TITLES[label]}\n\n{table_head}"
    else:
        raise ValueError(f"unknown report format: {fmt!r}")
    for mode in report.modes:
        for label in LABELS:
            rows = [cells(_row_cells(r)) for r in report.rows if r.stemmer_mode == mode and r.pair.label == label]
            if rows:
                lines += [heading(mode, label), *rows]
    return "\n".join(lines) + "\n"
