"""Seeded synthetic Arabic corpora and word-pair lists for the benchmark.

Surface forms are raw tokens of the bundled mini corpus wrapped in affixes
read from the shipped rule files, so the stemmers have real work to do.
Token occurrences are drawn from a Zipf distribution over a fixed lexicon.

This module deliberately does not import semspace: a change to the program
(a stemmer rule, a normaliser) must never change the benchmark's inputs.
The same seed and parameters always give the same bytes.
"""

from __future__ import annotations

import random
from pathlib import Path

AFFIX_FILES = ("antefixes.txt", "prefixes.txt", "suffixes.txt", "postfixes.txt")
ZIPF_EXPONENT = 1.0
OOV_LETTERS = "ظغضثذ"


def corpus_tokens(corpus_dir: Path) -> list[str]:
    """Distinct whitespace-separated tokens of a corpus, in first-seen order."""
    seen: dict[str, None] = {}
    for path in sorted(corpus_dir.glob("*/*.txt")):
        for token in path.read_text(encoding="utf-8").split():
            seen.setdefault(token, None)
    return list(seen)


def read_affixes(rules_dir: Path) -> dict[str, list[str]]:
    """Affix lists by file stem, without comments or blank lines."""
    tables = {}
    for name in AFFIX_FILES:
        lines = (line.split("#", 1)[0].strip()
                 for line in (rules_dir / name).read_text(encoding="utf-8").splitlines())
        tables[name[: -len(".txt")]] = [line for line in lines if line]
    return tables


def make_lexicon(rng: random.Random, bases: list[str], affixes: dict[str, list[str]],
                 size: int) -> list[str]:
    """`size` distinct surface forms: [antefix] base [suffix] [postfix]."""
    lexicon: dict[str, None] = {}
    while len(lexicon) < size:
        form = rng.choice(bases)
        if rng.random() < 0.4:
            form = rng.choice(affixes["antefixes"]) + form
        if rng.random() < 0.3:
            form = form + rng.choice(affixes["suffixes"])
        if rng.random() < 0.2:
            form = form + rng.choice(affixes["postfixes"])
        lexicon.setdefault(form, None)
    return list(lexicon)


def zipf_cum_weights(size: int) -> list[float]:
    total, out = 0.0, []
    for rank in range(1, size + 1):
        total += rank ** -ZIPF_EXPONENT
        out.append(total)
    return out


def write_corpus(out_dir: Path, mini_corpus: Path, rules_dir: Path, seed: int,
                 paragraphs: int, tokens: int, lexicon_size: int,
                 paragraphs_per_doc: int) -> list[str]:
    """Write a two-category corpus under `out_dir`; return its distinct surface tokens.

    Paragraph lengths vary uniformly within +-20% of `tokens`. Documents hold
    `paragraphs_per_doc` paragraphs each and alternate between categories.
    """
    rng = random.Random(seed)
    lexicon = make_lexicon(rng, corpus_tokens(mini_corpus), read_affixes(rules_dir), lexicon_size)
    rng.shuffle(lexicon)
    cum = zipf_cum_weights(len(lexicon))
    spread = max(1, tokens // 5)
    used: dict[str, None] = {}
    docs: list[list[str]] = []
    for _ in range(paragraphs):
        if not docs or len(docs[-1]) == paragraphs_per_doc:
            docs.append([])
        words = rng.choices(lexicon, cum_weights=cum, k=tokens + rng.randint(-spread, spread))
        for word in words:
            used.setdefault(word, None)
        # short lines inside a paragraph, as in the bundled corpus
        lines = [" ".join(words[i: i + 12]) for i in range(0, len(words), 12)]
        docs[-1].append("\n".join(lines))
    for number, paras in enumerate(docs):
        category = out_dir / ("sim" if number % 2 == 0 else "diff")
        category.mkdir(parents=True, exist_ok=True)
        (category / f"doc{number:03d}.txt").write_bytes(("\n\n".join(paras) + "\n").encode("utf-8"))
    return list(used)


def oov_word(rng: random.Random) -> str:
    """A six-letter string of rare letters that no bundled or generated corpus holds."""
    return "".join(rng.choice(OOV_LETTERS) for _ in range(6))


def draw_pairs(seed: int, words: list[str], count: int, oov_every: int = 0) -> list[tuple[str, str]]:
    """`count` seeded word pairs from `words`; every `oov_every`-th pair has an OOV word."""
    rng = random.Random(seed)
    pairs = []
    for i in range(count):
        a, b = rng.choice(words), rng.choice(words)
        if oov_every and i % oov_every == oov_every - 1:
            a = oov_word(rng)
        pairs.append((a, b))
    return pairs


def write_pairs(path: Path, pairs: list[tuple[str, str]]) -> None:
    """A pair file; labels alternate so both report sections are filled."""
    lines = [f"{a}\t{b}\t{'Similar' if i % 2 == 0 else 'Different'}" for i, (a, b) in enumerate(pairs)]
    path.write_bytes(("\n".join(lines) + "\n").encode("utf-8"))
