"""semspace benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py ladder [--seed N]

Run from anywhere; the program is imported from `src/` next to this
directory, never from an installed copy. A run sets up its inputs three
times (timed), computes the expected outputs (untimed), then repeats the
workload's operation in a closed loop, one at a time, for S seconds and
checks every output. It prints a readable summary and, as its last line, one
JSON object with the keys correct, attempted, failed and metrics. With
--trace 0 the metrics are BENCHMARK.json's end-to-end metrics; with --trace 1
each iteration runs the command, an untraced replica and a traced replica,
and the metrics are BENCHMARK.json's per-layer ones. `ladder` times the SVD
on scale-build inputs of 160, 320 and 640 paragraphs and fits its growth.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
REQUIRED = (SRC / "semspace" / "cli.py", ROOT / "tests" / "data" / "golden_report.md",
            ROOT / "BENCHMARK.json")
SETUP_REPEATS = 3
# printed with the end-to-end metrics but not gated in BENCHMARK.json (see README.md)
PRINTED_ONLY = {"op_p99_s": "s", "ops_per_s": "1/s"}
LADDER = (160, 320, 640)


def load_program():
    """Put the checkout's src/ first on the path; fail when it is not there."""
    missing = [str(p.relative_to(ROOT)) for p in REQUIRED if not p.is_file()]
    if missing:
        sys.exit(f"perfbench: missing {', '.join(missing)}: run from a full checkout")
    sys.path.insert(0, str(SRC))
    import semspace

    if Path(semspace.__file__).resolve().parent != SRC / "semspace":
        sys.exit(f"perfbench: imported semspace from {semspace.__file__}, not {SRC}")


def digest(paths: list[Path], base: Path) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(str(path.relative_to(base)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def timed_setup(workload) -> tuple[float, bool]:
    """Median set-up seconds over SETUP_REPEATS, and whether every repeat wrote the same bytes.

    One set-up is a fresh interpreter importing semspace.cli (the start-up
    every command pays) plus the workload's input generation and builds.
    """
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    times, digests = [], set()
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(workload.work, ignore_errors=True)
        workload.work.mkdir(parents=True)
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import semspace.cli"], env=env, cwd=ROOT,
                       check=True, timeout=120)
        files = workload.setup()
        times.append(time.perf_counter() - start)
        digests.add(digest(files, workload.work))
    return statistics.median(times), len(digests) == 1


def closed_loop(seconds: float, step) -> tuple[int, int]:
    """Call step(i) until `seconds` have passed (at least once); return (attempted, failed)."""
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    while attempted == 0 or time.perf_counter() < deadline:
        try:
            ok = step(attempted)
        except Exception:  # an operation that raises is a failed operation, not a crashed run
            traceback.print_exc()
            ok = False
        attempted += 1
        failed += not ok
    return attempted, failed


def end_to_end(workload, seconds: float, setup_s: float) -> tuple[int, int, dict]:
    import numpy as np

    latencies = []

    def step(i):
        op = workload.op(i)
        latencies.append(op.seconds)
        return workload.check(i, op)

    attempted, failed = closed_loop(seconds, step)
    return attempted, failed, {
        "setup_s": setup_s,
        "op_p50_s": statistics.median(latencies),
        "op_p99_s": float(np.percentile(latencies, 99)),
        "ops_per_s": len(latencies) / sum(latencies),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def svd_properties(tracer) -> dict[str, float]:
    """Shape, rank, duplicate columns and sigma error (vs numpy) of the op's SVD inputs."""
    import numpy as np

    out: dict[str, float] = {}
    for dense, sigma in tracer.factorizations:
        ref = np.linalg.svd(dense, compute_uv=False)
        rank_tol = ref[0] * max(dense.shape) * np.finfo(ref.dtype).eps  # numpy.linalg.matrix_rank's
        for name, value in (
            ("svd.n", min(dense.shape)),
            ("svd.rank", int((ref > rank_tol).sum())),
            ("svd.dup_columns", dense.shape[1] - len(np.unique(dense.T, axis=0))),
            ("svd.sigma_rel_err", float(np.abs(sigma - ref).max() / ref[0])),
            ("lsa.nnz", int(np.count_nonzero(dense))),
        ):
            out[name] = max(out.get(name, value), value)
    return out


def per_layer(workload, seconds: float, names: list[str]) -> tuple[int, int, dict, list]:
    """Per iteration: the command, the replica untraced, the replica traced."""
    import traced

    rows, spans = [], []

    def step(i):
        op = workload.op(i)
        ok = workload.check(i, op)
        start = time.perf_counter()
        plain = workload.replica(traced.NullTracer(), i)
        untraced = time.perf_counter() - start
        tracer = traced.Tracer()
        start = time.perf_counter()
        out = workload.replica(tracer, i)
        traced_s = time.perf_counter() - start
        row = {f"{name}_s": value for name, value in tracer.self_times().items()}
        row.update(tracer.counts)
        row.update(svd_properties(tracer))
        row.update({
            "cli.main_s": op.seconds,
            "cli.overhead_s": op.seconds - untraced,
            "trace.overhead_s": traced_s - untraced,
            "stemming.calls": sum(s[5] for s in tracer.spans if s[2] == "stemming.stem"),
            "stemming.distinct_tokens": len(tracer.stem_tokens),
            "corpus.distinct_share": workload.props["distinct_share"],
        })
        unknown = set(row) - set(names)
        if unknown:
            raise KeyError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
        rows.append(row)
        spans.extend([i, *span] for span in tracer.spans)
        return ok and workload.replica_matches(op, plain) and workload.replica_matches(op, out)

    attempted, failed = closed_loop(seconds, step)
    metrics = {name: statistics.median(row.get(name, 0.0) for row in rows) for name in names}
    return attempted, failed, metrics, spans


def run(args) -> int:
    load_program()
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    section = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in section}
    workload = workloads.WORKLOADS[args.workload](args.seed, WORK / f"{args.workload}-{os.getpid()}")
    try:
        setup_s, deterministic = timed_setup(workload)
        workload.prepare()
        if args.trace:
            attempted, failed, metrics, spans = per_layer(workload, args.seconds, list(units))
            trace_file = WORK / f"trace-{args.workload}-{args.seed}.json"
            trace_file.write_text(json.dumps({
                "fields": ["op", "id", "parent", "name", "start", "seconds", "calls"],
                "spans": spans}), encoding="utf-8")
        else:
            attempted, failed, metrics = end_to_end(workload, args.seconds, setup_s)
    finally:
        shutil.rmtree(workload.work, ignore_errors=True)

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print("inputs  " + "  ".join(f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}"
                                 for k, v in workload.props.items()))
    print(f"{'failed_ratio':<28} {failed / attempted:<14.6g} ratio  ({failed} of {attempted} operations)")
    if not deterministic:
        print("set-up wrote different bytes on repeats", file=sys.stderr)
    for name, unit in {**units, **PRINTED_ONLY}.items():
        if name in metrics:
            print(f"{name:<28} {metrics[name]:<14.6g} {unit}")
    result = {
        "correct": failed == 0 and deterministic,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


def ladder(seed: int) -> int:
    """SVD time against n on scale-build inputs, with the fitted exponent."""
    load_program()
    import numpy as np

    import workloads
    from semspace import svd

    points = []
    work = WORK / f"ladder-{os.getpid()}"
    try:
        for paragraphs in LADDER:
            corpus_dir = work / str(paragraphs)
            workloads.scale_corpus(corpus_dir, seed, paragraphs)
            ((_, _, _, dense),) = workloads.dense_matrices(corpus_dir, ("light",))
            start = time.perf_counter()
            _, sigma, _ = svd.jacobi_svd(dense)
            seconds = time.perf_counter() - start
            ref = np.linalg.svd(dense, compute_uv=False)
            err = float(np.abs(sigma - ref).max() / ref[0])
            points.append({"paragraphs": paragraphs, "shape": list(dense.shape), "n": min(dense.shape),
                           "svd.jacobi_svd_s": seconds, "svd.sigma_rel_err": err})
            print(f"n={min(dense.shape):<5} shape={dense.shape}  svd.jacobi_svd_s={seconds:.3f}  "
                  f"sigma_rel_err={err:.2e}", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    exponent = float(np.polyfit(np.log([p["n"] for p in points]),
                                np.log([p["svd.jacobi_svd_s"] for p in points]), 1)[0])
    print(f"fitted growth: svd.jacobi_svd_s ~ n^{exponent:.2f}")
    print(json.dumps({"ladder": points, "exponent": exponent}))
    return 0


def main(argv: list[str]) -> int:
    if argv[:1] == ["ladder"]:
        parser = argparse.ArgumentParser(prog="run.py ladder")
        parser.add_argument("--seed", type=int, default=0)
        return ladder(parser.parse_args(argv[1:]).seed)
    parser = argparse.ArgumentParser(prog="run.py", description="semspace benchmark")
    parser.add_argument("--workload", required=True,
                        choices=("fixture-report", "scale-build", "long-paragraphs", "sim-queries"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
