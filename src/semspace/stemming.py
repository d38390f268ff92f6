"""Two interchangeable Arabic stemmers over shared, versioned rule data.

`make_config(mode, rules_dir)` is the one way in (`rules_dir`: a `str` or
`Path`, by default `RULES_DIR`, the shipped rules). It reads every rule file
on each call, so an edited file gives a new config, and returns one shared
config per mode, rules directory and rule bytes. A config compiles its
matches once, as data, so it still pickles. Its `stem(token)` gives the full
`StemResult`, and its `stem_token(token)` the row key alone. The light
stemmer strips antefixes and prefixes from the front and postfixes and
suffixes from the back, repeating until nothing matches and never leaving
fewer than ``MIN_STEM_LEN`` (2) letters, so stemming is idempotent on its
own output. Each table is ordered longest first, a region tries its own
table before its neighbour's, and the first entry that fits wins. The root
stemmer applies the identical stripping and then matches the residual
against same-length templates to extract a 3- or 4-letter root, falling
back to the residual when nothing matches. Because both stemmers share one
stripping pass, the equivalence classes of the root stemmer are always at
least as coarse as the light stemmer's. Every mode runs this one strip and
template match: mode none has empty affix tables, and only root has templates.
"""

from __future__ import annotations

import functools
import hashlib
import operator
import os
import re
from dataclasses import dataclass
from pathlib import Path

from .errors import DataFormatError

MODE_ROOT = "root"
MODE_LIGHT = "light"
MODE_NONE = "none"
MODES = (MODE_ROOT, MODE_LIGHT, MODE_NONE)

MIN_STEM_LEN = 2  # stripping never leaves fewer letters than this

RULE_FILES = ("antefixes.txt", "prefixes.txt", "suffixes.txt", "postfixes.txt", "patterns.txt")

RULES_DIR = Path(__file__).parent / "data" / "rules"  # the path importlib.resources gives for this package
Patterns = tuple[tuple[str, tuple[int, ...]], ...]  # patterns.txt's (template, root positions) pairs, in file order


def _read_rules(rules_dir: Path) -> dict[str, bytes]:
    """The bytes of each rule file present in `rules_dir`, by name. Each is
    opened once and read whole, unbuffered; a name that is absent, a
    directory, or under a path that is not a directory is left out."""
    rules = {}
    for name in RULE_FILES:
        try:
            with open(os.path.join(rules_dir, name), "rb", buffering=0) as file:
                rules[name] = file.readall()
        except (FileNotFoundError, IsADirectoryError, NotADirectoryError):
            pass
    return rules


def _rule_text(rules: dict[str, bytes], rules_dir: Path, name: str) -> str:
    if name not in rules:
        raise DataFormatError(f"missing rule file: {rules_dir / name}")
    try:
        return rules[name].decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{rules_dir / name}: not UTF-8: {exc.reason}") from None


def _longest_first(text: str) -> tuple[str, ...]:
    """A table's entries, one per line ('#' starts a comment), without blanks
    or repeats, longest first; file order breaks ties."""
    lines = (raw.split("#", 1)[0].strip() for raw in text.splitlines())
    return tuple(sorted(dict.fromkeys(line for line in lines if line), key=len, reverse=True))


def _region(affixes: tuple[str, ...], front: bool) -> str:
    """A region as one group that strips until no entry fits: alternatives are
    tried in table order, so the first entry that fits wins, and the lookahead
    keeps MIN_STEM_LEN letters. A back region is spelled for the reversed word."""
    alternatives = "|".join(re.escape(a if front else a[::-1]) for a in affixes)
    return f"((?:(?:{alternatives})(?=.{{{MIN_STEM_LEN}}}))*)"


@dataclass(frozen=True)
class StemResult:
    output: str
    antefix: str | None  # the stripped parts in word order, None where nothing was stripped
    prefix: str | None
    suffix: str | None
    postfix: str | None
    residual: str  # token minus stripped affixes, before any template match
    pattern: str | None = None  # template that produced a root, if any


def _strip(front: re.Pattern, back: re.Pattern, token: str) -> tuple[re.Match, re.Match, str]:
    """Strip the four affix regions in word order: antefixes, then prefixes,
    then (from the end) postfixes, then suffixes. Returns the front match,
    the back match (of the reversed rest) and the residual between them.

    Each region is exhausted before the next begins, and once a region has
    started, later front (or back) matches from either list accumulate into
    it, so the parts concatenate back to the original string exactly and the
    residual carries no strippable affix at all: stemming is idempotent.
    """
    ahead = front.match(token)
    rest = token[ahead.end():]
    behind = back.match(rest[::-1])
    return ahead, behind, rest[: len(rest) - behind.end()]


def _root_matcher(patterns: Patterns) -> tuple[re.Pattern, tuple[tuple[operator.itemgetter, str], ...]]:
    """The templates compiled into one alternation in file order, so the
    first template that fits wins, and per template the getter of its root
    letters and the template itself. Each alternative is one group: root
    positions match any letter and the others their own; no templates give
    `(?!)`, which never matches. Data, not a closure, so configs pickle."""
    alternatives = (
        "".join("." if i in positions else re.escape(ch) for i, ch in enumerate(template))
        for template, positions in patterns
    )
    regex = re.compile("|".join(f"({a})" for a in alternatives) or "(?!)", re.DOTALL)
    return regex, tuple((operator.itemgetter(*positions), template) for template, positions in patterns)  # 3 or 4 positions: a tuple


def _match_root(regex: re.Pattern, roots: tuple, residual: str) -> tuple[str, str | None]:
    """The root and its template, or the residual and None when no template fits."""
    found = regex.fullmatch(residual)
    if found is None:
        return residual, None
    letters, template = roots[found.lastindex - 1]
    return "".join(letters(residual)), template


def _pattern_table(rules: dict[str, bytes], rules_dir: Path) -> Patterns:
    """patterns.txt's pairs, each with 3 or 4 strictly increasing positions inside its template."""
    path = rules_dir / "patterns.txt"
    patterns = []
    for lineno, raw in enumerate(_rule_text(rules, rules_dir, "patterns.txt").splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise DataFormatError(f"{path}:{lineno}: expected 'template<TAB>positions'")
        try:
            template, positions = parts[0].strip(), tuple(int(p) for p in parts[1].split(","))
        except ValueError:
            raise DataFormatError(f"{path}:{lineno}: positions must be integers") from None
        if not 3 <= len(positions) <= 4:
            problem = f"needs 3 or 4 root positions, got {len(positions)}"
        elif list(positions) != sorted(set(positions)):
            problem = "positions must be strictly increasing"
        elif positions[0] < 0 or positions[-1] >= len(template):
            problem = "position out of range"
        else:
            patterns.append((template, positions))
            continue
        raise DataFormatError(f"{path}:{lineno}: pattern {template!r}: {problem}")
    return tuple(patterns)


@dataclass(frozen=True)
class StemmerConfig:
    """How tokens are reduced before they index matrix rows."""

    mode: str
    antefixes: tuple[str, ...] = ()  # each table longest first, in RULE_FILES order
    prefixes: tuple[str, ...] = ()
    suffixes: tuple[str, ...] = ()
    postfixes: tuple[str, ...] = ()
    patterns: Patterns | None = None  # root only
    rules_fingerprint: str = ""

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown stemmer mode: {self.mode!r}")
        if self.mode == MODE_ROOT and self.patterns is None:
            raise ValueError("root mode requires pattern rules")

    def stem(self, token: str) -> StemResult:
        """The full stemming result for one token."""
        front, back, regex, roots = self._matchers
        ahead, behind, residual = _strip(front, back, token)
        antefix, prefix = ahead.groups()
        postfix, suffix = behind.groups()
        output, template = _match_root(regex, roots, residual)
        parts = (antefix or None, prefix or None, suffix[::-1] or None, postfix[::-1] or None)
        return StemResult(output, *parts, residual, pattern=template)

    @functools.cached_property
    def _matchers(self) -> tuple[re.Pattern, re.Pattern, re.Pattern, tuple]:
        """The front match, run on a word (the antefix region, then the prefix
        region), the back match, run on the reversed rest (the postfix region,
        then the suffix region), each region one group, and the templates."""
        front = _region(self.antefixes, True) + _region(self.prefixes + self.antefixes, True)
        back = _region(self.postfixes, False) + _region(self.suffixes + self.postfixes, False)
        return re.compile(front, re.DOTALL), re.compile(back, re.DOTALL), *_root_matcher(self.patterns or ())

    def stem_token(self, token: str) -> str:
        """Reduced form of a normalized token: the row it indexes, that is
        `stem(token).output`, read from the affix matches' ends alone."""
        front, back, regex, roots = self._matchers
        return _match_root(regex, roots, _strip(front, back, token)[2])[0]


@functools.lru_cache(maxsize=16)
def _config(mode: str, rules_dir: Path, rules: tuple[tuple[str, bytes], ...]) -> StemmerConfig:
    """The config of a mode over the rule files' bytes; light does not parse patterns.txt."""
    files = dict(rules)
    tables = [_longest_first(_rule_text(files, rules_dir, name)) for name in RULE_FILES[:4]]
    patterns = _pattern_table(files, rules_dir) if mode == MODE_ROOT else None
    fingerprint = hashlib.sha256(b"".join(f"{name}\0".encode() + files.get(name, b"") + b"\0" for name in RULE_FILES))
    return StemmerConfig(mode, *tables, patterns, fingerprint.hexdigest())


_NO_RULES = StemmerConfig(MODE_NONE)  # mode none reads no rule file


def make_config(mode: str, rules_dir: str | Path | None = None) -> StemmerConfig:
    """The shared config of a mode over a rules directory, `RULES_DIR` by default."""
    if mode == MODE_NONE:
        return _NO_RULES
    rules_dir = RULES_DIR if rules_dir is None else Path(rules_dir)
    return _config(mode, rules_dir, tuple(_read_rules(rules_dir).items()))
