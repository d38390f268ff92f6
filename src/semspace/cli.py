"""Command-line entry point: stats, stem, build, sim, report.

Data goes to stdout (or -o), diagnostics to stderr. Exit codes: 0 success,
1 usage, 2 I/O, 3 numeric, 4 data format. Option precedence is flags over
config-file values over built-in defaults; the SEMSPACE_RULES environment
variable supplies a default rules directory.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from dataclasses import dataclass
from pathlib import Path

from . import __version__
from .corpus import corpus_stats, load_corpus, segment_corpus
from .errors import EXIT_IO, EXIT_USAGE, SemspaceError
from .experiment import DEFAULT_MODES, load_pairs, render_report, run_comparison
from .lsa import SCALINGS, SCALING_U, build_space, load_space, save_space, word_vector
from .similarity import MEASURE_ORDER, format_value, measure_all, unit_vector
from .stemming import MODE_LIGHT, MODE_NONE, MODE_ROOT, MODES, make_config

_CONFIG_KEYS = {"k", "scaling", "rules", "format", "normalize", "modes"}
_SWITCH_VALUES = dict.fromkeys(("1", "true", "yes", "on"), True) | dict.fromkeys(("0", "false", "no", "off"), False)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; usage errors are 1
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


@dataclass
class RunConfig:
    modes: tuple[str, ...] | None = None
    k: int | None = None
    scaling: str = SCALING_U
    rules_dir: Path | None = None
    normalize: bool = False
    format: str = "tsv"

    def __post_init__(self):
        if self.k is not None and self.k < 1:
            raise ValueError("k must be >= 1")
        if self.modes == ():
            raise ValueError("--modes names no mode")
        for i, mode in enumerate(self.modes or ()):
            if mode not in MODES:
                raise ValueError(f"unknown mode in --modes: {mode!r}")
            if mode in self.modes[:i]:
                raise ValueError(f"mode {mode!r} repeated in --modes")
        if self.scaling not in SCALINGS:
            raise ValueError(f"scaling must be one of {', '.join(SCALINGS)}")
        if self.format not in ("tsv", "markdown"):
            raise ValueError("format must be tsv or markdown")


def _read_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot read config file: {exc}") from None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = value
    return values


def _resolve(args: argparse.Namespace) -> RunConfig:
    """Merge flags, config file and environment into one RunConfig."""
    file_values = _read_config_file(args.config) if args.config else {}

    def pick(flag_name: str, key: str, default):
        flag = getattr(args, flag_name, None)
        if flag is not None:
            return flag
        if key in file_values:
            return file_values[key]
        return default

    rules = pick("rules", "rules", os.environ.get("SEMSPACE_RULES"))
    k = pick("k", "k", None)
    if isinstance(k, str):
        try:
            k = int(k)
        except ValueError:
            raise ValueError(f"k must be an integer, got {k!r}") from None
    normalize_flag = pick("normalize", "normalize", False)
    if isinstance(normalize_flag, str):
        if normalize_flag.lower() not in _SWITCH_VALUES:
            raise ValueError(f"normalize must be one of {', '.join(_SWITCH_VALUES)}, got {normalize_flag!r}")
        normalize_flag = _SWITCH_VALUES[normalize_flag.lower()]
    modes = pick("modes", "modes", None)
    if isinstance(modes, str):
        modes = tuple(part.strip() for part in modes.split(",") if part.strip())
    return RunConfig(
        modes=modes,
        k=k,
        scaling=pick("scaling", "scaling", SCALING_U),
        rules_dir=Path(rules) if rules else None,
        normalize=bool(normalize_flag),
        format=pick("format", "format", "tsv"),
    )


def _warn_skipped(skipped: list[tuple[str, str]]) -> bool:
    for path, reason in skipped:
        print(f"warning: skipped {path}: {reason}", file=sys.stderr)
    return bool(skipped)


def _cmd_stats(args) -> int:
    corpus = load_corpus(args.corpus_dir)
    partial = _warn_skipped(corpus.skipped)
    if not corpus.documents:
        print(f"warning: no documents found under {args.corpus_dir}", file=sys.stderr)
    stats = corpus_stats(corpus)
    lines = "".join(f"{name}\t{value}\n" for name, value in stats.rows())
    sys.stdout.write(lines)
    return EXIT_IO if partial else 0


def _cmd_stem(args) -> int:
    stemmer = make_config(args.mode, _resolve(args).rules_dir)
    out_lines = []
    for word in args.words:
        result = stemmer.stem(word)
        s = result.stripped
        parts = ";".join(
            f"{name}={value}"
            for name, value in (
                ("antefix", s.antefix),
                ("prefix", s.prefix),
                ("suffix", s.suffix),
                ("postfix", s.postfix),
            )
            if value
        )
        out_lines.append(f"{result.original}\t{result.output}\t{result.kind}\t{parts or '-'}")
    sys.stdout.write("".join(line + "\n" for line in out_lines))
    return 0


def _cmd_build(args) -> int:
    config = _resolve(args)
    corpus = load_corpus(args.corpus_dir)
    partial = _warn_skipped(corpus.skipped)
    paragraphs = segment_corpus(corpus)
    stats = corpus_stats(corpus, paragraphs)
    stemmer = make_config(args.mode, config.rules_dir)
    space = build_space(paragraphs, stats, stemmer, k=config.k, scaling=config.scaling)
    save_space(space, args.output)
    print(
        f"built space: {len(space.vocabulary)} words, {space.n_columns} paragraphs, "
        f"k={space.k}, scaling={space.scaling} -> {args.output}",
        file=sys.stderr,
    )
    return EXIT_IO if partial else 0


def _cmd_sim(args) -> int:
    config = _resolve(args)
    space = load_space(args.space)
    mode = space.provenance.stemmer_mode
    stemmer = make_config(mode, config.rules_dir)
    if mode != MODE_NONE and stemmer.rules_fingerprint != space.provenance.rules_fingerprint:
        print(
            "warning: rule files differ from the ones this space was built with "
            f"(current {stemmer.rules_fingerprint[:12]}, space {space.provenance.rules_fingerprint[:12]})",
            file=sys.stderr,
        )
    vec_a = word_vector(space, args.word_a, stemmer)
    vec_b = word_vector(space, args.word_b, stemmer)
    if config.normalize:
        vec_a, vec_b = unit_vector(vec_a), unit_vector(vec_b)
    header = "\t".join(MEASURE_ORDER)
    values = "\t".join(format_value(r) for r in measure_all(vec_a, vec_b))
    sys.stdout.write(f"{header}\n{values}\n")
    return 0


def _cmd_report(args) -> int:
    config = _resolve(args)
    pairs = load_pairs(args.pairs)
    report = run_comparison(
        args.corpus,
        pairs,
        modes=config.modes or DEFAULT_MODES,
        k=config.k,
        scaling=config.scaling,
        rules_dir=config.rules_dir,
        unit_length=config.normalize,
    )
    partial = _warn_skipped(report.skipped)
    text = render_report(report, config.format)
    if args.output:
        Path(args.output).write_bytes(text.encode("utf-8"))
    else:
        sys.stdout.write(text)
    return EXIT_IO if partial else 0


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="semspace", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"semspace {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_stats = sub.add_parser("stats", help="corpus statistics as TSV")
    p_stats.add_argument("corpus_dir")
    p_stats.set_defaults(func=_cmd_stats)

    p_stem = sub.add_parser("stem", help="stem words from the command line")
    p_stem.add_argument("--mode", choices=(MODE_ROOT, MODE_LIGHT), required=True)
    p_stem.add_argument("--rules", default=None, help="rules directory")
    p_stem.add_argument("--config", default=None)
    p_stem.add_argument("words", nargs="+")
    p_stem.set_defaults(func=_cmd_stem)

    p_build = sub.add_parser("build", help="build and persist a word space")
    p_build.add_argument("--mode", choices=MODES, required=True)
    p_build.add_argument("-k", type=int, default=None, help="dimensions to keep, at most the rank (default min(300, rank))")
    p_build.add_argument("--scaling", choices=SCALINGS, default=None)
    p_build.add_argument("--rules", default=None)
    p_build.add_argument("--config", default=None)
    p_build.add_argument("corpus_dir")
    p_build.add_argument("-o", "--output", required=True)
    p_build.set_defaults(func=_cmd_build)

    p_sim = sub.add_parser("sim", help="similarity of two words in a space")
    p_sim.add_argument("--space", required=True)
    p_sim.add_argument("--rules", default=None)
    p_sim.add_argument("--normalize", action="store_true", default=None)
    p_sim.add_argument("--config", default=None)
    p_sim.add_argument("word_a")
    p_sim.add_argument("word_b")
    p_sim.set_defaults(func=_cmd_sim)

    p_report = sub.add_parser("report", help="full stemmer-by-measure comparison report")
    p_report.add_argument("--corpus", required=True)
    p_report.add_argument("--pairs", required=True)
    p_report.add_argument("--modes", default=None, help="comma-separated subset of root,light,none")
    p_report.add_argument("-k", type=int, default=None, help="dimensions to keep, at most the smallest rank over --modes")
    p_report.add_argument("--scaling", choices=SCALINGS, default=None)
    p_report.add_argument("--format", choices=("tsv", "markdown"), default=None)
    p_report.add_argument("--rules", default=None)
    p_report.add_argument("--normalize", action="store_true", default=None)
    p_report.add_argument("--config", default=None)
    p_report.add_argument("-o", "--output", default=None)
    p_report.set_defaults(func=_cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"semspace: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SemspaceError as exc:
        print(f"semspace: error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"semspace: error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
