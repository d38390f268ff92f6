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
import re
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
    """The bytes of each rule file present in `rules_dir`, by name."""
    return {name: (rules_dir / name).read_bytes() for name in RULE_FILES if (rules_dir / name).is_file()}


def _rule_text(rules: dict[str, bytes], rules_dir: Path, name: str) -> str:
    if name not in rules:
        raise RuleFormatError(f"missing rule file: {rules_dir / name}")
    return rules[name].decode("utf-8")


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
        if self.root_positions[-1] >= len(self.template):
            raise RuleFormatError(f"pattern {self.template!r}: position out of range")

    def match(self, residual: str) -> str | None:
        """The extracted root, or None when a literal position disagrees."""
        if len(residual) != len(self.template):
            return None
        for i, ch in enumerate(self.template):
            if i not in self.root_positions and residual[i] != ch:
                return None
        return "".join(residual[i] for i in self.root_positions)


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


@functools.lru_cache
def _region_pattern(affixes: tuple[str, ...], front: bool) -> re.Pattern:
    """Strips a region in one match: alternatives are tried in table order,
    so the first entry that fits wins, and the lookahead keeps MIN_STEM_LEN
    letters. A back region matches the reversed word."""
    alternatives = "|".join(re.escape(a if front else a[::-1]) for a in affixes)
    return re.compile(f"(?:(?:{alternatives})(?=.{{{MIN_STEM_LEN}}}))*", re.DOTALL)


def _strip_region(word: str, affixes: tuple[str, ...], front: bool) -> tuple[str | None, str]:
    """Strip from one end of `word` until no entry of `affixes` fits, taking
    the first that does (callers pass each table longest-first, in priority
    order); returns the stripped letters, or None, and the rest."""
    if front:
        n = _region_pattern(affixes, True).match(word).end()
        return word[:n] or None, word[n:]
    n = len(word) - _region_pattern(affixes, False).match(word[::-1]).end()
    return word[n:] or None, word[:n]


def _strip_affixes(token: str, table: AffixTable) -> tuple[Stripped, str]:
    """Strip the four affix regions in word order: antefixes, then prefixes,
    then (from the end) postfixes, then suffixes.

    Each region is exhausted before the next begins, and once a region has
    started, later front (or back) matches from either list accumulate into
    it, so the parts concatenate back to the original string exactly and the
    residual carries no strippable affix at all: stemming is idempotent.
    """
    antefix, rest = _strip_region(token, table.antefixes, front=True)
    prefix, rest = _strip_region(rest, table.prefixes + table.antefixes, front=True)
    postfix, rest = _strip_region(rest, table.postfixes, front=False)
    suffix, rest = _strip_region(rest, table.suffixes + table.postfixes, front=False)
    return Stripped(antefix, prefix, suffix, postfix), rest


def light_stem(token: str, table: AffixTable) -> StemResult:
    stripped, residual = _strip_affixes(token, table)
    return StemResult(token, residual, KIND_STEM, stripped, residual)


def _match_root(residual: str, patterns: tuple[Pattern, ...]) -> tuple[str, str] | None:
    for pattern in patterns:
        root = pattern.match(residual)
        if root is not None:
            return root, pattern.template
    return None


def root_stem(token: str, table: AffixTable, patterns: tuple[Pattern, ...]) -> StemResult:
    stripped, residual = _strip_affixes(token, table)
    matched = _match_root(residual, patterns)
    if matched is None:
        return StemResult(token, residual, KIND_ROOT, stripped, residual)
    root, template = matched
    return StemResult(token, root, KIND_ROOT, stripped, residual, pattern=template)


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
        if self.mode == MODE_ROOT:
            return root_stem(token, self.affixes, self.patterns)
        if self.mode == MODE_LIGHT:
            return light_stem(token, self.affixes)
        return StemResult(token, token, KIND_STEM, Stripped(), token)

    def stem_token(self, token: str) -> str:
        """Reduced form of a normalized token: the row it indexes."""
        return self.stem(token).output


def make_config(mode: str, rules_dir: Path | None = None) -> StemmerConfig:
    """Build a StemmerConfig from a rules directory (the shipped one by default)."""
    if mode == MODE_NONE:
        return StemmerConfig(mode=mode)
    rules_dir = rules_dir if rules_dir is not None else default_rules_dir()
    rules = _read_rules(rules_dir)  # parsed and hashed from the same bytes
    return StemmerConfig(
        mode=mode,
        affixes=_affix_table(rules, rules_dir),
        patterns=_pattern_table(rules, rules_dir) if mode == MODE_ROOT else None,
        rules_fingerprint=_fingerprint(rules),
    )


def default_tables() -> tuple[AffixTable, tuple[Pattern, ...]]:
    """The shipped affix and pattern tables."""
    config = make_config(MODE_ROOT)
    return config.affixes, config.patterns
