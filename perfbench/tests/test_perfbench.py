"""Tests of the benchmark itself: input determinism and output checks.

Run from the repository root with: python3 -m pytest -q perfbench/tests
"""

import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import gen  # noqa: E402
import run  # noqa: E402
import traced  # noqa: E402
import workloads  # noqa: E402


def _corpus_digest(seed, out_dir):
    gen.write_corpus(out_dir, workloads.MINI_CORPUS, workloads.RULES, seed, paragraphs=30,
                     tokens=40, lexicon_size=400, paragraphs_per_doc=5)
    return run.digest(sorted(out_dir.rglob("*.txt")), out_dir)


def _flip(data: bytes, index: int) -> bytes:
    return data[:index] + bytes([data[index] ^ 0x01]) + data[index + 1:]


def test_generator_same_seed_same_bytes(tmp_path):
    assert _corpus_digest(7, tmp_path / "a") == _corpus_digest(7, tmp_path / "b")
    assert _corpus_digest(7, tmp_path / "a2") != _corpus_digest(8, tmp_path / "c")


def test_pairs_same_seed_same_bytes(tmp_path):
    words = gen.corpus_tokens(workloads.MINI_CORPUS)
    for name in ("a", "b"):
        gen.write_pairs(tmp_path / name, gen.draw_pairs(3, words, 50, oov_every=10))
    assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes()
    pairs = gen.draw_pairs(3, words, 50, oov_every=10)
    assert sum(set(a) <= set(gen.OOV_LETTERS) for a, _ in pairs) == 5


def test_generator_does_not_import_semspace():
    code = f"import sys; sys.path.insert(0, {str(BENCH)!r}); import gen; print('semspace' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_closed_loop_counts_failures_and_exceptions():
    def boom(i):
        raise RuntimeError("boom")

    assert run.closed_loop(0.0, lambda i: True) == (1, 0)
    assert run.closed_loop(0.0, lambda i: False) == (1, 1)
    assert run.closed_loop(0.0, boom) == (1, 1)


def _ready(cls, tmp_path, **shrink):
    workload = type(cls.__name__, (cls,), shrink)(11, tmp_path)
    workload.setup()
    workload.prepare()
    return workload


def _first_cosine(report: bytes) -> int:
    """Offset of the first digit of the first row's cosine in a TSV report."""
    start = report.index(b"\n(") + 1
    return start + len(b"\t".join(report[start:].split(b"\t")[:3])) + 1


@pytest.mark.parametrize("cls, shrink, flip_at", [
    (workloads.FixtureReport, {}, lambda out: len(out) // 2),
    (workloads.ScaleBuild, {"PARAGRAPHS": 40}, lambda out: len(out) // 2),
    # a last-digit change would be within the check's tolerance by design
    (workloads.LongParagraphs, {"PARAGRAPHS": 8, "TOKENS": 150}, _first_cosine),
    (workloads.SimQueries, {"POOL": 20}, lambda out: len(out) - 3),
])
def test_flipped_byte_counts_as_failed(tmp_path, cls, shrink, flip_at):
    workload = _ready(cls, tmp_path, **shrink)
    op = workload.op(0)
    assert op.code == 0 and workload.check(0, op)
    bad = op._replace(output=_flip(op.output, flip_at(op.output)))
    assert not workload.check(1, bad)
    attempted, failed = run.closed_loop(0.0, lambda i: workload.check(i, bad))
    assert (attempted, failed) == (1, 1)


@pytest.mark.parametrize("cls, shrink", [
    (workloads.FixtureReport, {}),
    (workloads.ScaleBuild, {"PARAGRAPHS": 40}),
    (workloads.SimQueries, {"POOL": 20}),
])
def test_replica_matches_command(tmp_path, cls, shrink):
    workload = _ready(cls, tmp_path, **shrink)
    op = workload.op(0)
    tracer = traced.Tracer()
    assert workload.replica_matches(op, workload.replica(tracer, 0))
    assert workload.replica_matches(op, workload.replica(traced.NullTracer(), 0))
    assert all(seconds >= 0 for _, _, _, _, seconds, _ in tracer.spans)


def test_self_times_subtract_children():
    tracer = traced.Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    times = tracer.self_times()
    outer, inner = tracer.spans[0][4], tracer.spans[1][4]
    assert times["inner"] == inner
    assert times["outer"] == pytest.approx(outer - inner)


def test_svd_wrappers_are_removed_after_the_span():
    before = traced.svd.jacobi_svd
    with traced.Tracer().svd_stages():
        assert traced.svd.jacobi_svd is not before
    assert traced.svd.jacobi_svd is before
