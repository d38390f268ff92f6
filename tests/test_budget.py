from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "semspace"
# ROADMAP aim 2: the package does not grow past 1,567 lines, its count when this ceiling was last lowered
SRC_LINE_CEILING = 1567


def test_src_stays_within_its_line_budget():
    lines = sum(path.read_bytes().count(b"\n") for path in SRC.glob("*.py"))  # as `wc -l` counts
    assert lines <= SRC_LINE_CEILING, (
        f"src/semspace/*.py has {lines} lines, above its ceiling of {SRC_LINE_CEILING:,} lines"
    )
