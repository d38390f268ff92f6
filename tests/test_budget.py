from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "semspace"
# ROADMAP aim 2: the package does not grow back past the 1,616 lines the last deletion left
SRC_LINE_CEILING = 1616


def test_src_stays_within_its_line_budget():
    lines = sum(path.read_bytes().count(b"\n") for path in SRC.glob("*.py"))  # as `wc -l` counts
    assert lines <= SRC_LINE_CEILING, (
        f"src/semspace/*.py has {lines} lines, above its ceiling of {SRC_LINE_CEILING:,} lines"
    )
