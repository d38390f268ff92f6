import re
from importlib.resources import files
from pathlib import Path

import pytest

from semspace.corpus import corpus_stats, load_corpus, segment_corpus
from semspace.experiment import load_pairs, run_comparison
from semspace.lsa import build_spaces
from semspace.similarity import measure_all
from semspace.stemming import make_config


def bundled_data(*parts: str) -> Path:
    """A file or directory under the package's bundled data."""
    return Path(str(files("semspace") / "data")).joinpath(*parts)


def exactly(message: str) -> str:
    """A `pytest.raises(match=...)` pattern that takes `message` and nothing else."""
    return f"^{re.escape(message)}$"


def measure(name: str, a, b) -> float | None:
    """One measure of `measure_all(a, b)`, read by name; None where undefined."""
    return next(r.value for r in measure_all(a, b) if r.measure == name)


def comparison(corpus_dir, pairs, modes, k=None):
    """The report's pipeline: read the corpus, build one space per mode, score the pairs."""
    corpus = load_corpus(corpus_dir)
    paragraphs = segment_corpus(corpus)
    stats = corpus_stats(corpus, paragraphs)
    configs = [make_config(mode) for mode in modes]
    return run_comparison(configs, build_spaces(paragraphs, stats, configs, k), pairs)


@pytest.fixture(scope="session")
def mini_corpus_dir():
    return bundled_data("mini_corpus")


@pytest.fixture(scope="session")
def pair_files():
    """The bundled pair files: the Similar pairs, then the Different ones."""
    return bundled_data("pairs", "pairs-similar.tsv"), bundled_data("pairs", "pairs-different.tsv")


@pytest.fixture(scope="session")
def mini_corpus(mini_corpus_dir):
    return load_corpus(mini_corpus_dir)


@pytest.fixture(scope="session")
def mini_paragraphs(mini_corpus):
    return segment_corpus(mini_corpus)


@pytest.fixture(scope="session")
def mini_stats(mini_corpus):
    return corpus_stats(mini_corpus)


@pytest.fixture(scope="session")
def root_config():
    return make_config("root")


@pytest.fixture(scope="session")
def light_config():
    return make_config("light")


@pytest.fixture(scope="session")
def root_space(mini_paragraphs, mini_stats, root_config):
    (space,) = build_spaces(mini_paragraphs, mini_stats, [root_config], k=40)
    return space


@pytest.fixture(scope="session")
def light_space(mini_paragraphs, mini_stats, light_config):
    (space,) = build_spaces(mini_paragraphs, mini_stats, [light_config], k=40)
    return space


@pytest.fixture(scope="session")
def all_pairs(pair_files):
    return [pair for path in pair_files for pair in load_pairs(path)]
