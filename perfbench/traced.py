"""Spans around calls into semspace's layers, and stage-by-stage replicas of
the `report`, `build` and `sim` commands built from public functions.

The replicas call each layer exactly as the command does, so a span around
each call measures that layer. Two layers are reached only from inside
another call: `StemmerConfig.stem_token` (called by `build_matrix` and
`word_vector`) is timed through a stand-in config object, and the SVD stages
(called by `lsa.factorize`) through wrappers installed on the `svd` module
for the duration of one traced operation. Nothing inside the program is
changed. The benchmark checks every replica output against the command's own
output, so the replicas cannot drift from the program unnoticed.
"""

from __future__ import annotations

import contextlib
import time
from pathlib import Path

import numpy as np

from semspace import corpus, experiment, lsa, similarity, stemming, svd
from semspace.errors import OutOfVocabularyError

_UNDEFINED = tuple(similarity.SimilarityResult(name, None) for name in similarity.MEASURE_ORDER)
_SVD_STAGES = ("jacobi_svd", "householder_qr")
_clock = time.perf_counter


class NullTracer:
    """Runs a replica with no spans: the untraced baseline for overhead."""

    def span(self, name):
        return contextlib.nullcontext()

    def stemmer(self, config):
        return config

    def matrix(self, matrix):
        return matrix

    def svd_stages(self):
        return contextlib.nullcontext()

    def count(self, name, value):
        pass

    def peak(self, name, value):
        pass


class Tracer(NullTracer):
    """Spans of one operation, kept in memory.

    A span is [id, parent id, name, start, seconds, calls]. Calls to
    `stem_token` are summed into one "stemming.stem" child of the span they
    ran in, instead of one span per token.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.counts: dict[str, float] = {}
        self.factorizations: list[tuple[np.ndarray, np.ndarray]] = []  # (SVD input, sigma)
        self.stem_acc = [0.0, 0]  # seconds and calls not yet assigned to a span
        self.stem_tokens: set[str] = set()

    @contextlib.contextmanager
    def span(self, name):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([sid, parent, name, _clock(), 0.0, 1])
        self._stack.append(sid)
        try:
            yield
        finally:
            self._stack.pop()
            record = self.spans[sid]
            record[4] = _clock() - record[3]
            seconds, calls = self.stem_acc
            if calls:
                self.spans.append([len(self.spans), sid, "stemming.stem", record[3], seconds, calls])
                self.stem_acc[:] = [0.0, 0]

    def stemmer(self, config):
        return _TimedStemmer(config, self)

    def matrix(self, matrix):
        return _TimedMatrix(matrix, self)

    @contextlib.contextmanager
    def svd_stages(self):
        saved = {name: getattr(svd, name) for name in _SVD_STAGES}

        def wrap(name, fn):
            def timed(*args, **kwargs):
                with self.span(f"svd.{name}"):
                    result = fn(*args, **kwargs)
                if name == "jacobi_svd":
                    self.factorizations.append((np.asarray(args[0]), result[1]))
                return result
            return timed

        for name, fn in saved.items():
            setattr(svd, name, wrap(name, fn))
        try:
            yield
        finally:
            for name, fn in saved.items():
                setattr(svd, name, fn)

    def count(self, name, value):
        self.counts[name] = self.counts.get(name, 0) + value

    def peak(self, name, value):
        self.counts[name] = max(self.counts.get(name, value), value)

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, less the time covered by child spans."""
        totals: dict[str, float] = {}
        for _, _, name, _, seconds, _ in self.spans:
            totals[name] = totals.get(name, 0.0) + seconds
        for _, parent, _, _, seconds, _ in self.spans:
            if parent is not None:
                totals[self.spans[parent][2]] -= seconds
        return totals


class _TimedStemmer:
    """Stands in for a StemmerConfig; times and counts every stem_token call."""

    def __init__(self, config, tracer: Tracer):
        self._config = config
        self._stem = config.stem_token
        self._acc = tracer.stem_acc
        self._tokens = tracer.stem_tokens

    def __getattr__(self, name):
        return getattr(self._config, name)

    def stem_token(self, token):
        start = _clock()
        out = self._stem(token)
        acc = self._acc
        acc[0] += _clock() - start
        acc[1] += 1
        self._tokens.add(token)
        return out


class _TimedMatrix:
    """Stands in for a CooccurrenceMatrix passed to lsa.factorize."""

    def __init__(self, matrix, tracer: Tracer):
        self._matrix = matrix
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(self._matrix, name)

    def to_dense(self):
        with self._tracer.span("lsa.to_dense"):
            return self._matrix.to_dense()


def _load_corpus(tracer, corpus_dir):
    with tracer.span("corpus.load"):
        loaded = corpus.load_corpus(corpus_dir)
    with tracer.span("corpus.segment"):
        paragraphs = corpus.segment_corpus(loaded)
    with tracer.span("corpus.stats"):
        stats = corpus.corpus_stats(loaded)
    tracer.peak("corpus.paragraphs", len(paragraphs))
    tracer.peak("corpus.tokens", sum(len(p.tokens) for p in paragraphs))
    return paragraphs, stats


def _factor(tracer, paragraphs, config):
    with tracer.span("lsa.build_matrix"):
        matrix = lsa.build_matrix(paragraphs, config)
    rows, cols = matrix.shape
    tracer.peak("lsa.rows", rows)
    tracer.peak("lsa.cols", cols)
    with tracer.span("lsa.factorize"), tracer.svd_stages():
        factors = lsa.factorize(tracer.matrix(matrix))
    return matrix, factors


def _provenance(config, stats):
    fingerprint = lsa.space_fingerprint(config.rules_fingerprint, stats)
    return lsa.Provenance(config.mode, config.rules_fingerprint, fingerprint)


def _word_vector(tracer, space, word, config):
    with tracer.span("lsa.word_vector"):
        return lsa.word_vector(space, word, config)


def _measure(tracer, a, b):
    tracer.count("similarity.calls", 1)
    with tracer.span("similarity.measure_all"):
        return similarity.measure_all(a, b)


def _row(tracer, space, config, pair):
    vectors, missing = [], []
    for word in (pair.word_a, pair.word_b):
        try:
            vectors.append(_word_vector(tracer, space, word, config))
        except OutOfVocabularyError:
            missing.append(word)
    if missing:
        tracer.count("experiment.oov_rows", 1)
        return experiment.ReportRow(pair, config.mode, _UNDEFINED, oov=tuple(missing))
    return experiment.ReportRow(pair, config.mode, _measure(tracer, *vectors))


def _run_comparison(tracer, corpus_dir, pairs, modes, k):
    """experiment.run_comparison, stage by stage (scaling u, raw vectors)."""
    paragraphs, stats = _load_corpus(tracer, corpus_dir)
    with tracer.span("stemming.make_config"):
        configs = [tracer.stemmer(stemming.make_config(mode)) for mode in modes]
    factored = [(config, *_factor(tracer, paragraphs, config)) for config in configs]
    if k is None:
        k = min(300, min(factors.n for _, _, factors in factored))
    rules_fp = next((c.rules_fingerprint for c in configs if c.rules_fingerprint), "")
    rows = []
    for config, matrix, factors in factored:
        with tracer.span("lsa.truncate"):
            space = lsa.truncate(factors, k, lsa.SCALING_U, matrix.vocabulary,
                                 _provenance(config, stats), n_columns=matrix.shape[1])
        rows.extend(_row(tracer, space, config, pair) for pair in pairs)
    metadata = experiment.ReportMetadata(k, lsa.SCALING_U, rules_fp,
                                         lsa.space_fingerprint(rules_fp, stats))
    return experiment.ComparisonReport(rows, metadata, tuple(modes))


def report(tracer, corpus_dir: Path, pairs_path: Path, modes, k: int | None, fmt: str) -> bytes:
    """Replica of `semspace report`; returns the rendered report."""
    with tracer.span("experiment.load_pairs"):
        pairs = experiment.load_pairs(pairs_path)
    with tracer.span("experiment.run_comparison"):
        comparison = _run_comparison(tracer, corpus_dir, pairs, modes, k)
    with tracer.span("experiment.render_report"):
        text = experiment.render_report(comparison, fmt)
    return text.encode("utf-8")


def build(tracer, corpus_dir: Path, mode: str, out: Path) -> bytes:
    """Replica of `semspace build` at the default k; returns the space file."""
    paragraphs, stats = _load_corpus(tracer, corpus_dir)
    with tracer.span("stemming.make_config"):
        config = tracer.stemmer(stemming.make_config(mode))
    matrix, factors = _factor(tracer, paragraphs, config)
    with tracer.span("lsa.truncate"):
        space = lsa.truncate(factors, min(300, factors.n), lsa.SCALING_U, matrix.vocabulary,
                             _provenance(config, stats), n_columns=matrix.shape[1])
    with tracer.span("lsa.save_space"):
        lsa.save_space(space, out)
    data = out.read_bytes()
    tracer.peak("lsa.space_bytes", len(data))
    return data


def sim(tracer, space_path: Path, word_a: str, word_b: str):
    """Replica of `semspace sim`; the four results, or None when a word is OOV."""
    with tracer.span("lsa.load_space"):
        space = lsa.load_space(space_path)
    tracer.peak("lsa.space_bytes", space_path.stat().st_size)
    with tracer.span("stemming.make_config"):
        config = tracer.stemmer(stemming.make_config(space.provenance.stemmer_mode))
    try:
        a = _word_vector(tracer, space, word_a, config)
        b = _word_vector(tracer, space, word_b, config)
    except OutOfVocabularyError:
        return None
    return _measure(tracer, a, b)
