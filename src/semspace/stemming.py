"""Two interchangeable Arabic stemmers over shared, versioned rule data.

The light stemmer strips antefixes and prefixes from the front and
postfixes and suffixes from the back, repeating until nothing matches and
never leaving fewer than ``MIN_STEM_LEN`` (2) letters, so stemming is
idempotent on its own output. Each table is ordered longest first, a region
tries its own table before its neighbour's, and the first entry that fits
wins. The root stemmer applies the identical stripping and then matches the
residual against same-length templates to extract a 3- or 4-letter root,
falling back to the residual when nothing matches. Because both stemmers share one stripping pass, the
equivalence classes of the root stemmer are always at least as coarse as
the light stemmer's.
"""

from __future__ import annotations

import functools
import hashlib
import operator
import os
import re
from collections.abc import Callable
from dataclasses import dataclass
from importlib.resources import files
from pathlib import Path

from .errors import RuleFormatError

MODE_ROOT = "root"
MODE_LIGHT = "light"
MODE_NONE = "none"
MODES = (MODE_ROOT, MODE_LIGHT, MODE_NONE)

KIND_ROOT = "root"
KIND_STEM = "stem"

MIN_STEM_LEN = 2  # stripping never leaves fewer letters than this

RULE_FILES = ("antefixes.txt", "prefixes.txt", "suffixes.txt", "postfixes.txt", "patterns.txt")


def default_rules_dir() -> Path:
    return Path(str(files("semspace") / "data" / "rules"))


def _read_rules(rules_dir: Path) -> dict[str, bytes]:
    """The bytes of each rule file present in `rules_dir`, by name. Each is
    opened once; a name that is absent, a directory, or under a path that is
    not a directory is left out."""
    rules = {}
    for name in RULE_FILES:
        try:
            with open(os.path.join(rules_dir, name), "rb") as file:
                rules[name] = file.read()
        except (FileNotFoundError, IsADirectoryError, NotADirectoryError):
            pass
    return rules


def _rule_text(rules: dict[str, bytes], rules_dir: Path, name: str) -> str:
    if name not in rules:
        raise RuleFormatError(f"missing rule file: {rules_dir / name}")
    try:
        return rules[name].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise RuleFormatError(f"{rules_dir / name}: not UTF-8: {exc.reason}") from None


def _longest_first(text: str) -> tuple[str, ...]:
    """A table's entries, one per line ('#' starts a comment), without blanks
    or repeats, longest first; file order breaks ties."""
    lines = (raw.split("#", 1)[0].strip() for raw in text.splitlines())
    return tuple(sorted(dict.fromkeys(line for line in lines if line), key=len, reverse=True))


@dataclass(frozen=True)
class AffixTable:
    antefixes: tuple[str, ...]
    prefixes: tuple[str, ...]
    suffixes: tuple[str, ...]
    postfixes: tuple[str, ...]

    def __post_init__(self):
        for name in ("antefixes", "prefixes", "suffixes", "postfixes"):
            entries = getattr(self, name)
            if any(not e for e in entries):
                raise RuleFormatError(f"empty entry in {name}")
            if len(set(entries)) != len(entries):
                raise RuleFormatError(f"duplicate entry in {name}")

    @functools.cached_property
    def matches(self) -> tuple[re.Pattern, re.Pattern]:
        """The front match, run on a word: the antefix region, then the
        prefix region. The back match, run on the reversed rest: the postfix
        region, then the suffix region. Each region is one group."""
        front = _region(self.antefixes, True) + _region(self.prefixes + self.antefixes, True)
        back = _region(self.postfixes, False) + _region(self.suffixes + self.postfixes, False)
        return re.compile(front, re.DOTALL), re.compile(back, re.DOTALL)


def _region(affixes: tuple[str, ...], front: bool) -> str:
    """A region as one group that strips until no entry fits: alternatives are
    tried in table order, so the first entry that fits wins, and the lookahead
    keeps MIN_STEM_LEN letters. A back region is spelled for the reversed word."""
    alternatives = "|".join(re.escape(a if front else a[::-1]) for a in affixes)
    return f"((?:(?:{alternatives})(?=.{{{MIN_STEM_LEN}}}))*)"


@dataclass(frozen=True)
class Pattern:
    template: str
    root_positions: tuple[int, ...]

    def __post_init__(self):
        k = len(self.root_positions)
        if not 3 <= k <= 4:
            raise RuleFormatError(f"pattern {self.template!r}: needs 3 or 4 root positions, got {k}")
        if list(self.root_positions) != sorted(set(self.root_positions)):
            raise RuleFormatError(f"pattern {self.template!r}: positions must be strictly increasing")
        if self.root_positions[0] < 0 or self.root_positions[-1] >= len(self.template):
            raise RuleFormatError(f"pattern {self.template!r}: position out of range")

    def match(self, residual: str) -> str | None:
        """The extracted root, or None when a literal position disagrees."""
        matched = _root_matcher((self,))(residual)
        return None if matched is None else matched[0]


@dataclass(frozen=True)
class Stripped:
    antefix: str | None = None
    prefix: str | None = None
    suffix: str | None = None
    postfix: str | None = None


@dataclass(frozen=True)
class StemResult:
    original: str
    output: str
    kind: str  # KIND_ROOT or KIND_STEM
    stripped: Stripped
    residual: str  # token minus stripped affixes, before any template match
    pattern: str | None = None  # template that produced a root, if any

    def reconstruct(self) -> str:
        """Re-attach the stripped parts around the residual."""
        s = self.stripped
        return (s.antefix or "") + (s.prefix or "") + self.residual + (s.suffix or "") + (s.postfix or "")


@dataclass(frozen=True)
class Decomposition:
    antefix: str | None
    prefix: str | None
    core: str  # root when a template matched, residual otherwise
    suffix: str | None
    postfix: str | None


def _strip_affixes(token: str, table: AffixTable) -> tuple[Stripped, str]:
    """Strip the four affix regions in word order: antefixes, then prefixes,
    then (from the end) postfixes, then suffixes.

    Each region is exhausted before the next begins, and once a region has
    started, later front (or back) matches from either list accumulate into
    it, so the parts concatenate back to the original string exactly and the
    residual carries no strippable affix at all: stemming is idempotent.
    """
    front, back = table.matches
    ahead = front.match(token)
    rest = token[ahead.end():]
    behind = back.match(rest[::-1])
    antefix, prefix = ahead.groups()
    postfix, suffix = behind.groups()
    stripped = Stripped(antefix or None, prefix or None, suffix[::-1] or None, postfix[::-1] or None)
    return stripped, rest[: len(rest) - behind.end()]


def light_stem(token: str, table: AffixTable) -> StemResult:
    return StemmerConfig(MODE_LIGHT, table).stem(token)


@functools.lru_cache
def _root_matcher(patterns: tuple[Pattern, ...]) -> Callable[[str], tuple[str, str] | None]:
    """Matches a residual against all templates with one compiled alternation
    in file order, so the first template that fits wins. Each alternative is
    one group: root positions match any letter and the others their own."""
    alternatives = (
        "".join("." if i in p.root_positions else re.escape(ch) for i, ch in enumerate(p.template))
        for p in patterns
    )
    regex = re.compile("|".join(f"({a})" for a in alternatives) or "(?!)", re.DOTALL)
    roots = [(operator.itemgetter(*p.root_positions), p.template) for p in patterns]  # 3 or 4 positions: a tuple

    def match(residual: str) -> tuple[str, str] | None:
        found = regex.fullmatch(residual)
        if found is None:
            return None
        letters, template = roots[found.lastindex - 1]
        return "".join(letters(residual)), template

    return match


def root_stem(token: str, table: AffixTable, patterns: tuple[Pattern, ...]) -> StemResult:
    return StemmerConfig(MODE_ROOT, table, patterns).stem(token)


def decompose(token: str, table: AffixTable, patterns: tuple[Pattern, ...]) -> Decomposition:
    result = root_stem(token, table, patterns)
    s = result.stripped
    return Decomposition(s.antefix, s.prefix, result.output, s.suffix, s.postfix)


def _affix_table(rules: dict[str, bytes], rules_dir: Path) -> AffixTable:
    def longest(name: str) -> tuple[str, ...]:
        return _longest_first(_rule_text(rules, rules_dir, name))

    return AffixTable(
        antefixes=longest("antefixes.txt"),
        prefixes=longest("prefixes.txt"),
        suffixes=longest("suffixes.txt"),
        postfixes=longest("postfixes.txt"),
    )


def _pattern_table(rules: dict[str, bytes], rules_dir: Path) -> tuple[Pattern, ...]:
    path = rules_dir / "patterns.txt"
    patterns = []
    for lineno, raw in enumerate(_rule_text(rules, rules_dir, "patterns.txt").splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise RuleFormatError(f"{path}:{lineno}: expected 'template<TAB>positions'")
        template = parts[0].strip()
        try:
            positions = tuple(int(p) for p in parts[1].split(","))
        except ValueError:
            raise RuleFormatError(f"{path}:{lineno}: positions must be integers") from None
        patterns.append(Pattern(template, positions))
    return tuple(patterns)


@functools.lru_cache(maxsize=16)
def _parsed_rules(rules_dir: Path, rules: tuple[tuple[str, bytes], ...], root: bool):
    """The affix table, and for root the patterns, memoized on the rule files' bytes."""
    return _affix_table(dict(rules), rules_dir), _pattern_table(dict(rules), rules_dir) if root else None


def _fingerprint(rules: dict[str, bytes]) -> str:
    digest = hashlib.sha256()
    for name in RULE_FILES:
        digest.update(name.encode("utf-8"))
        digest.update(b"\x00")
        digest.update(rules.get(name, b""))
        digest.update(b"\x00")
    return digest.hexdigest()


@dataclass(frozen=True)
class StemmerConfig:
    """How tokens are reduced before they index matrix rows."""

    mode: str = MODE_NONE
    affixes: AffixTable | None = None
    patterns: tuple[Pattern, ...] | None = None
    rules_fingerprint: str = ""

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown stemmer mode: {self.mode!r}")
        if self.mode in (MODE_ROOT, MODE_LIGHT) and self.affixes is None:
            raise ValueError(f"mode {self.mode!r} requires affix rules")
        if self.mode == MODE_ROOT and self.patterns is None:
            raise ValueError("root mode requires pattern rules")

    def stem(self, token: str) -> StemResult:
        """The full stemming result for one token; mode none keeps it whole."""
        if self.mode == MODE_NONE:
            return StemResult(token, token, KIND_STEM, Stripped(), token)
        stripped, residual = _strip_affixes(token, self.affixes)
        output, template = self._match_root(residual) or (residual, None)
        kind = KIND_ROOT if self.mode == MODE_ROOT else KIND_STEM
        return StemResult(token, output, kind, stripped, residual, pattern=template)

    @functools.cached_property
    def _match_root(self) -> Callable[[str], tuple[str, str] | None]:
        return _root_matcher(self.patterns) if self.mode == MODE_ROOT else lambda residual: None

    @functools.cached_property
    def stem_token(self) -> Callable[[str], str]:
        """Reduced form of a normalized token: the row it indexes, that is
        `stem(token).output`, read from the affix matches' ends alone."""
        if self.mode == MODE_NONE:
            return str  # the token itself
        front, back = self.affixes.matches
        match_root = self._match_root

        def stem_token(token: str) -> str:
            rest = token[front.match(token).end():]
            residual = rest[: len(rest) - back.match(rest[::-1]).end()]
            return (match_root(residual) or (residual,))[0]

        return stem_token


def make_config(mode: str, rules_dir: Path | None = None) -> StemmerConfig:
    """Build a StemmerConfig from a rules directory (the shipped one by default)."""
    if mode == MODE_NONE:
        return StemmerConfig(mode=mode)
    rules_dir = rules_dir if rules_dir is not None else default_rules_dir()
    rules = _read_rules(rules_dir)  # parsed and hashed from the same bytes
    affixes, patterns = _parsed_rules(rules_dir, tuple(rules.items()), mode == MODE_ROOT)
    return StemmerConfig(mode=mode, affixes=affixes, patterns=patterns, rules_fingerprint=_fingerprint(rules))


def default_tables() -> tuple[AffixTable, tuple[Pattern, ...]]:
    """The shipped affix and pattern tables."""
    config = make_config(MODE_ROOT)
    return config.affixes, config.patterns
