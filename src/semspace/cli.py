"""Command-line entry point: stats, stem, build, sim, report.

Data goes to stdout (or -o), diagnostics to stderr. Exit codes: 0 success,
1 usage, 2 I/O, 3 numeric, 4 data format. A --config file's values become
arguments placed before the command line's own and go through the same
parser, so flags win over the file, the file over built-in defaults, and a
bad value is a usage error from either source. The SEMSPACE_RULES
environment variable supplies a default rules directory.
"""

from __future__ import annotations

import argparse
import functools
import os
import re
import sys
from pathlib import Path

from . import __version__
from .corpus import corpus_stats, load_corpus, segment_corpus
from .errors import EXIT_IO, EXIT_USAGE, SemspaceError
from .experiment import DEFAULT_MODES, load_pairs, render_report, run_comparison
from .lsa import SCALINGS, SCALING_U, SemanticSpace, build_spaces, load_space, save_space, word_vector
from .similarity import MEASURE_ORDER, format_value, measure_all, unit_vector
from .stemming import MODE_LIGHT, MODE_ROOT, MODES, StemmerConfig, make_config

_CONFIG_KEYS = {"k", "scaling", "rules", "format", "normalize", "modes"}
_SWITCH_VALUES = dict.fromkeys(("1", "true", "yes", "on"), True) | dict.fromkeys(("0", "false", "no", "off"), False)


class _ParseError(Exception):
    """argparse's usage error as (parser, message), so that a --config line can be named in it."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse exits 2 from here; main reports it and exits 1
        raise _ParseError(self, message)


def _config_argv(parser: _Parser, argv: list[str], args: argparse.Namespace) -> list[str]:
    """The --config file's `key = value` lines as arguments of the subcommand:
    `--key=value` (`-k=value`), so a value that starts with '-' stays a value,
    and for the normalize switch `--normalize` when on, nothing when off. A '#'
    at a line's start or after whitespace starts a comment. Every key is checked
    before any value, and each value alone with `argv`, so an error names its line."""
    try:
        text = Path(args.config).read_text(encoding="utf-8-sig")
    except OSError as exc:
        raise ValueError(f"cannot read config file: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ValueError(f"{args.config}: not UTF-8: {exc.reason}") from None
    used = _CONFIG_KEYS.intersection(vars(args))  # the keys among the subcommand's option dests
    values: dict[str, tuple[int, str]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = re.split(r"(?:^|\s)#", raw, maxsplit=1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{args.config}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise ValueError(f"{args.config}:{lineno}: unknown key {key!r}")
        if key not in used:
            raise ValueError(f"{args.config}:{lineno}: key {key!r} is not used by {args.command}")
        if key in values:
            raise ValueError(f"{args.config}:{lineno}: key {key!r} repeats line {values[key][0]}")
        values[key] = (lineno, value)
    config_argv = []
    for key, (lineno, value) in values.items():
        if key == "normalize":
            if value.lower() not in _SWITCH_VALUES:
                raise ValueError(f"{args.config}:{lineno}: normalize must be one of {', '.join(_SWITCH_VALUES)}, got {value!r}")
            config_argv += ["--normalize"] if _SWITCH_VALUES[value.lower()] else []
            continue
        arg = f"-k={value}" if key == "k" else f"--{key}={value}"
        try:
            parser.parse_args(argv[:1] + [arg] + argv[1:])
        except _ParseError as exc:
            raise _ParseError(exc.args[0], f"{args.config}:{lineno}: {exc.args[1]}") from None
        config_argv.append(arg)
    return config_argv


def _rules_dir(args: argparse.Namespace) -> str | None:
    return args.rules or os.environ.get("SEMSPACE_RULES") or None


def _modes(text: str) -> tuple[str, ...]:
    """The stemmers a --modes list names, each at most once: the option's type."""
    modes = tuple(part.strip() for part in text.split(",") if part.strip())
    if not modes:
        raise argparse.ArgumentTypeError(f"no mode in {text!r}")
    for i, mode in enumerate(modes):
        if mode not in MODES:
            raise argparse.ArgumentTypeError(f"unknown mode {mode!r} in {text!r}")
        if mode in modes[:i]:
            raise argparse.ArgumentTypeError(f"mode {mode!r} repeated in {text!r}")
    return modes


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
    stemmer = make_config(args.mode, _rules_dir(args))
    for word in args.words:
        result = stemmer.stem(word)
        # Stripped's fields run in word order: antefix, prefix, suffix, postfix
        parts = ";".join(f"{name}={value}" for name, value in vars(result.stripped).items() if value)
        sys.stdout.write(f"{result.original}\t{result.output}\t{result.kind}\t{parts or '-'}\n")
    return 0


def _corpus_spaces(
    args: argparse.Namespace, corpus_dir: str, modes: tuple[str, ...]
) -> tuple[bool, list[StemmerConfig], list[SemanticSpace]]:
    """One space per mode over the corpus under `corpus_dir`, at the k and
    scaling of `args`. Each skipped file is warned about before anything can
    fail, and the rules and the -o directory are checked before the corpus is
    segmented, so either fails fast; the flag says whether a file was skipped."""
    corpus = load_corpus(corpus_dir)
    partial = _warn_skipped(corpus.skipped)
    configs = [make_config(mode, _rules_dir(args)) for mode in modes]
    if args.output and not os.path.isdir(os.path.dirname(os.path.abspath(args.output))):
        os.stat(args.output)  # raises the error that writing the file would, without writing it
    paragraphs = [segment_corpus(corpus)]  # popped into build_spaces, so its frame alone holds them and lets them go
    stats = corpus_stats(corpus, *paragraphs)
    del corpus
    return partial, configs, build_spaces(paragraphs.pop(), stats, configs, args.k, args.scaling)


def _cmd_build(args) -> int:
    partial, _, (space,) = _corpus_spaces(args, args.corpus_dir, (args.mode,))
    save_space(space, args.output)
    print(
        f"built space: {len(space.vocabulary)} words, {space.n_columns} paragraphs, "
        f"k={space.k}, scaling={space.scaling} -> {args.output}",
        file=sys.stderr,
    )
    return EXIT_IO if partial else 0


def _cmd_sim(args) -> int:
    space = load_space(args.space)
    stemmer = make_config(space.provenance.stemmer_mode, _rules_dir(args))
    if stemmer.rules_fingerprint != space.provenance.rules_fingerprint:
        print(
            "warning: rule files differ from the ones this space was built with "
            f"(current {stemmer.rules_fingerprint[:12]}, space {space.provenance.rules_fingerprint[:12]})",
            file=sys.stderr,
        )
    vec_a = word_vector(space, args.word_a, stemmer)
    vec_b = word_vector(space, args.word_b, stemmer)
    if args.normalize:
        vec_a, vec_b = unit_vector(vec_a), unit_vector(vec_b)
    header = "\t".join(MEASURE_ORDER)
    values = "\t".join(format_value(r) for r in measure_all(vec_a, vec_b))
    sys.stdout.write(f"{header}\n{values}\n")
    return 0


def _cmd_report(args) -> int:
    pairs = [pair for path in args.pairs for pair in load_pairs(path)]
    partial, configs, spaces = _corpus_spaces(args, args.corpus, args.modes)
    text = render_report(run_comparison(configs, spaces, pairs, args.normalize), args.format)
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

    rules = argparse.ArgumentParser(add_help=False)  # the options of every subcommand that stems
    rules.add_argument("--rules", default=None, help="rules directory")
    rules.add_argument("--config", default=None)
    space = argparse.ArgumentParser(add_help=False, parents=[rules])  # and of every subcommand that builds a space
    space.add_argument("-k", type=int, default=None,
                       help="dimensions to keep, at most the rank, for report the smallest over --modes (default min(300, rank))")
    space.add_argument("--scaling", choices=SCALINGS, default=SCALING_U)

    p_stats = sub.add_parser("stats", help="corpus statistics as TSV")
    p_stats.add_argument("corpus_dir")
    p_stats.set_defaults(func=_cmd_stats)

    p_stem = sub.add_parser("stem", parents=[rules], help="stem words from the command line")
    p_stem.add_argument("--mode", choices=(MODE_ROOT, MODE_LIGHT), required=True)
    p_stem.add_argument("words", nargs="+")
    p_stem.set_defaults(func=_cmd_stem)

    p_build = sub.add_parser("build", parents=[space], help="build and persist a word space")
    p_build.add_argument("--mode", choices=MODES, required=True)
    p_build.add_argument("corpus_dir")
    p_build.add_argument("-o", "--output", required=True)
    p_build.set_defaults(func=_cmd_build)

    p_sim = sub.add_parser("sim", parents=[rules], help="similarity of two words in a space")
    p_sim.add_argument("--space", required=True)
    p_sim.add_argument("--normalize", action="store_true")
    p_sim.add_argument("word_a")
    p_sim.add_argument("word_b")
    p_sim.set_defaults(func=_cmd_sim)

    p_report = sub.add_parser("report", parents=[space], help="full stemmer-by-measure comparison report")
    p_report.add_argument("--corpus", required=True)
    p_report.add_argument("--pairs", required=True, action="append", help="pair file; repeat to read several in order")
    p_report.add_argument("--modes", type=_modes, default=",".join(DEFAULT_MODES),
                          help="comma-separated subset of root,light,none")
    p_report.add_argument("--format", choices=("tsv", "markdown"), default="tsv")
    p_report.add_argument("--normalize", action="store_true")
    p_report.add_argument("-o", "--output", default=None)
    p_report.set_defaults(func=_cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(argv)
        if getattr(args, "config", None):  # the top level's options all exit, so argv[0] is the subcommand
            args = parser.parse_args(argv[:1] + _config_argv(parser, argv, args) + argv[1:])
        return args.func(args)
    except _ParseError as exc:
        failed, message = exc.args
        failed.print_usage(sys.stderr)
        failed.exit(EXIT_USAGE, f"{failed.prog}: error: {message}\n")
    except (ValueError, SemspaceError, OSError) as exc:  # a SemspaceError carries its own exit code
        print(f"semspace: error: {exc}", file=sys.stderr)
        return EXIT_USAGE if isinstance(exc, ValueError) else getattr(exc, "exit_code", EXIT_IO)


if __name__ == "__main__":
    sys.exit(main())
