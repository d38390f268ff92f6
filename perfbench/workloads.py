"""The four benchmark workloads: inputs, one CLI operation, its output check,
and the traced replica of that operation.

Each workload's `setup` writes its inputs (and, for sim-queries, builds the
spaces it queries); the benchmark times it. `prepare` computes the expected
outputs the checks compare against; it is not timed.
"""

from __future__ import annotations

import io
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from typing import NamedTuple

import numpy as np

import gen
import traced
from semspace import cli, corpus, lsa, similarity, stemming
from semspace.errors import OutOfVocabularyError
from semspace.experiment import LABELS, load_pairs

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "src" / "semspace" / "data"
MINI_CORPUS = DATA / "mini_corpus"
RULES = DATA / "rules"
GOLDEN = ROOT / "tests" / "data" / "golden_report.md"
EXIT_DATA = 4  # the documented exit code of `sim` for an out-of-vocabulary word
MODES = ("root", "light")


class Op(NamedTuple):
    seconds: float  # wall time of cli.main alone
    code: int
    output: bytes  # the -o file, or stdout when the command writes no file


def call_cli(argv: list[str], out: Path | None = None) -> Op:
    if out is not None:
        out.unlink(missing_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        start = time.perf_counter()
        code = cli.main(argv)
        seconds = time.perf_counter() - start
    if out is None:
        return Op(seconds, code, stdout.getvalue().encode("utf-8"))
    return Op(seconds, code, out.read_bytes() if out.exists() else b"")


def dense_matrices(corpus_dir: Path, modes=MODES):
    """(mode, paragraphs, matrix, dense counts) for each mode."""
    paragraphs = corpus.segment_corpus(corpus.load_corpus(corpus_dir))
    out = []
    for mode in modes:
        matrix = lsa.build_matrix(paragraphs, stemming.make_config(mode))
        out.append((mode, paragraphs, matrix, matrix.to_dense()))
    return out


def input_properties(matrices) -> dict[str, float]:
    """Paragraphs, tokens, distinct-token share, duplicate columns and rank.

    Duplicate columns and rank are the largest over the workload's matrices.
    """
    props: dict[str, float] = {}
    for _, paragraphs, _, dense in matrices:
        tokens = [t for p in paragraphs for t in p.tokens]
        props["paragraphs"] = len(paragraphs)
        props["tokens"] = len(tokens)
        props["distinct_share"] = len(set(tokens)) / len(tokens)
        dup = dense.shape[1] - len(np.unique(dense.T, axis=0))
        props["dup_columns"] = max(props.get("dup_columns", 0), dup)
        props["rank"] = max(props.get("rank", 0), int(np.linalg.matrix_rank(dense)))
    return props


def scale_corpus(out: Path, seed: int, paragraphs: int) -> None:
    """Short (~25-token) paragraphs over a lexicon that grows with the corpus."""
    gen.write_corpus(out, MINI_CORPUS, RULES, seed, paragraphs=paragraphs, tokens=25,
                     lexicon_size=6 * paragraphs, paragraphs_per_doc=20)


class Workload:
    """One workload, run in a private directory `work`. Subclasses define:

    setup() -> list[Path]   write the inputs; the files are hashed to check
                            that every set-up writes the same bytes
    prepare()               compute the expected outputs and `props`
    op(i) -> Op             operation i through semspace.cli.main
    check(i, op) -> bool    whether op i's output is correct
    replica(tracer, i)      op i stage by stage (traced.py), comparable by
                            replica_matches to the command's output
    """

    name = ""

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.out = work / "out.bin"
        self.props: dict[str, float] = {}

    def replica_matches(self, op: Op, replica_out) -> bool:
        return op.output == replica_out


class FixtureReport(Workload):
    name = "fixture-report"

    def setup(self):
        self.pairs = self.work / "pairs.tsv"
        self.pairs.write_bytes(b"".join(
            (DATA / "pairs" / name).read_bytes() for name in ("pairs-similar.tsv", "pairs-different.tsv")))
        return [self.pairs]

    def prepare(self):
        self.golden = GOLDEN.read_bytes()
        self.props = input_properties(dense_matrices(MINI_CORPUS))

    def op(self, i):
        return call_cli(["report", "--corpus", str(MINI_CORPUS), "--pairs", str(self.pairs),
                         "--modes", ",".join(MODES), "-k", "40", "--format", "markdown",
                         "-o", str(self.out)], self.out)

    def check(self, i, op):
        return op.code == 0 and op.output == self.golden

    def replica(self, tracer, i):
        return traced.report(tracer, MINI_CORPUS, self.pairs, MODES, 40, "markdown")


class ScaleBuild(Workload):
    name = "scale-build"
    PARAGRAPHS = 240

    def setup(self):
        self.corpus = self.work / "corpus"
        scale_corpus(self.corpus, self.seed, self.PARAGRAPHS)
        return sorted(self.corpus.rglob("*.txt"))

    def prepare(self):
        matrices = dense_matrices(self.corpus, ("light",))
        self.sigma = np.linalg.svd(matrices[0][3], compute_uv=False)
        self.first: bytes | None = None
        self.props = input_properties(matrices)

    def op(self, i):
        return call_cli(["build", "--mode", "light", str(self.corpus), "-o", str(self.out)], self.out)

    def check(self, i, op):
        """sigma within 1e-8 * sigma_1 of numpy's; the file identical on every iteration."""
        if op.code != 0:
            return False
        if self.first is None:
            check = self.work / "check.bin"
            check.write_bytes(op.output)
            space = lsa.load_space(check)  # a corrupt file raises: a failed operation
            ref = self.sigma[: space.k]
            if space.sigma.shape != ref.shape or np.abs(space.sigma - ref).max() > 1e-8 * ref[0]:
                return False
            self.first = op.output
        return op.output == self.first

    def replica(self, tracer, i):
        return traced.build(tracer, self.corpus, "light", self.work / "replica.bin")


class LongParagraphs(Workload):
    name = "long-paragraphs"
    PARAGRAPHS = 32
    TOKENS = 1200
    PAIRS = 40
    TOLERANCE = 1e-6

    def setup(self):
        self.corpus = self.work / "corpus"
        words = gen.write_corpus(self.corpus, MINI_CORPUS, RULES, self.seed, paragraphs=self.PARAGRAPHS,
                                 tokens=self.TOKENS, lexicon_size=10 * self.TOKENS, paragraphs_per_doc=4)
        self.pairs = self.work / "pairs.tsv"
        gen.write_pairs(self.pairs, gen.draw_pairs(self.seed, words, self.PAIRS))
        return sorted(self.corpus.rglob("*.txt")) + [self.pairs]

    def prepare(self):
        """Expected cosine, Euclidean and Jaccard per row from numpy's SVD.

        The default k equals n here (all columns, full rank), so row inner
        products of U do not depend on the sign or basis numpy chooses.
        """
        pairs = load_pairs(self.pairs)
        matrices = dense_matrices(self.corpus)
        factored = []
        for mode, _, matrix, dense in matrices:
            U, sigma, _ = np.linalg.svd(dense, full_matrices=False)
            if int((sigma > sigma[0] * 1e-12).sum()) != len(sigma):
                raise RuntimeError(f"long-paragraphs input is rank-deficient ({mode})")
            factored.append((mode, matrix, U))
        k = min(300, min(U.shape[1] for _, _, U in factored))
        self.expected = []  # (mode, label, words cell, cosine, euclidean, jaccard), in report order
        for mode, matrix, U in factored:
            config = stemming.make_config(mode)
            for label in LABELS:
                for pair in (p for p in pairs if p.label == label):
                    a, b = (U[matrix.vocabulary.index_of(config.stem_token(corpus.normalize(w))), :k]
                            for w in (pair.word_a, pair.word_b))
                    dot = float(a @ b)
                    norms = float(a @ a), float(b @ b)
                    self.expected.append((mode, label, f"({pair.word_a}, {pair.word_b})",
                                          dot / np.sqrt(norms[0] * norms[1]),
                                          float(np.linalg.norm(a - b)),
                                          dot / (norms[0] + norms[1] - dot)))
        self.props = input_properties(matrices)

    def op(self, i):
        return call_cli(["report", "--corpus", str(self.corpus), "--pairs", str(self.pairs),
                         "--modes", ",".join(MODES), "--format", "tsv", "-o", str(self.out)], self.out)

    def _close(self, printed: str, ref: float) -> bool:
        # the report prints 6 significant digits
        return abs(float(printed) - ref) <= self.TOLERANCE + 5e-6 * abs(ref)

    def check(self, i, op):
        if op.code != 0:
            return False
        try:
            rows, section = [], None
            for line in op.output.decode("utf-8").splitlines():
                if line.startswith("## "):
                    section = dict(part.split("=", 1) for part in line[3:].split("\t"))
                elif line.startswith("(") and section is not None:
                    cells = line.split("\t")
                    rows.append((section["stemmer"], section["label"], cells[0], cells[3:7], cells[7]))
            if len(rows) != len(self.expected):
                return False
            for (mode, label, words, values, notes), exp in zip(rows, self.expected):
                cos, euc, pearson, jac = values
                if (mode, label, words) != exp[:3] or notes:
                    return False
                if not (self._close(cos, exp[3]) and self._close(euc, exp[4]) and self._close(jac, exp[5])):
                    return False
                if not -1.0 <= float(pearson) <= 1.0:
                    return False
        except (UnicodeDecodeError, ValueError, KeyError, IndexError):
            return False
        return True

    def replica(self, tracer, i):
        return traced.report(tracer, self.corpus, self.pairs, MODES, None, "tsv")


class SimQueries(Workload):
    name = "sim-queries"
    POOL = 400
    OOV_EVERY = 10

    def setup(self):
        self.spaces = {mode: self.work / f"{mode}.bin" for mode in MODES}
        for mode, path in self.spaces.items():
            op = call_cli(["build", "--mode", mode, str(MINI_CORPUS), "-o", str(path)], path)
            if op.code != 0:
                raise RuntimeError(f"building the {mode} space failed with exit code {op.code}")
        self.queries = gen.draw_pairs(self.seed, gen.corpus_tokens(MINI_CORPUS), self.POOL, self.OOV_EVERY)
        return list(self.spaces.values())

    def _query(self, i):
        """Query i: pool entry i mod POOL, against root then light on alternate passes."""
        mode = MODES[(i // len(self.queries)) % len(MODES)]
        word_a, word_b = self.queries[i % len(self.queries)]
        return self.spaces[mode], word_a, word_b

    @staticmethod
    def _expected(results) -> tuple[int, bytes]:
        if results is None:
            return EXIT_DATA, b""
        values = "\t".join("undefined" if r.value is None else format(r.value, ".6g") for r in results)
        return 0, f"{chr(9).join(similarity.MEASURE_ORDER)}\n{values}\n".encode("utf-8")

    def prepare(self):
        """Exit code and stdout of each query, from measure_all on load_space vectors."""
        spaces = {path: lsa.load_space(path) for path in self.spaces.values()}
        configs = {mode: stemming.make_config(mode) for mode in MODES}
        self.expected = []
        for i in range(len(MODES) * len(self.queries)):
            path, word_a, word_b = self._query(i)
            space = spaces[path]
            config = configs[space.provenance.stemmer_mode]
            try:
                a = lsa.word_vector(space, word_a, config)
                b = lsa.word_vector(space, word_b, config)
            except OutOfVocabularyError:
                self.expected.append(self._expected(None))
            else:
                self.expected.append(self._expected(similarity.measure_all(a, b)))
        oov = sum(code == EXIT_DATA for code, _ in self.expected)
        if oov < len(self.expected) // self.OOV_EVERY:
            raise RuntimeError("fewer OOV queries than the fixed share")
        self.props = input_properties(dense_matrices(MINI_CORPUS))

    def op(self, i):
        path, word_a, word_b = self._query(i)
        return call_cli(["sim", "--space", str(path), word_a, word_b])

    def check(self, i, op):
        return (op.code, op.output) == self.expected[i % len(self.expected)]

    def replica(self, tracer, i):
        return traced.sim(tracer, *self._query(i))

    def replica_matches(self, op, replica_out):
        return (op.code, op.output) == self._expected(replica_out)


WORKLOADS = {w.name: w for w in (FixtureReport, ScaleBuild, LongParagraphs, SimQueries)}
