import numpy as np
import pytest

from semspace import cli, svd
from semspace.cli import _build_parser, main
from semspace.experiment import load_pairs
from semspace.lsa import Provenance, SemanticSpace, Vocabulary, _checksum, load_space, save_space

from conftest import bundled_data

BOM = "\ufeff".encode()


@pytest.fixture()
def tiny_corpus(tmp_path):
    """A fast-to-factor corpus for CLI plumbing tests."""
    root = tmp_path / "corpus"
    (root / "a").mkdir(parents=True)
    (root / "b").mkdir()
    (root / "a" / "one.txt").write_text(
        "السفير التقى الوزير\n\nالسفارة فتحت المبنى\n\nالوزير زار المبنى\n",
        encoding="utf-8",
    )
    (root / "b" / "two.txt").write_text(
        "السفير غادر المدينة\n\nالمدينة استقبلت الوزير\n\nالسفارة اغلقت الباب\n",
        encoding="utf-8",
    )
    return root


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- usage ---------------------------------------------------------------------

def test_help_exits_zero():
    with pytest.raises(SystemExit) as exc_info:
        main(["--help"])
    assert exc_info.value.code == 0


def test_missing_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc_info:
        main([])
    assert exc_info.value.code == 1


def test_unknown_flag_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc_info:
        main(["stats", "--bogus", "x"])
    assert exc_info.value.code == 1


@pytest.mark.parametrize("argv, expected", [
    (["stats", "c"], {"corpus_dir": "c"}),
    (["stem", "--mode", "root", "w"], {"config": None, "mode": "root", "rules": None, "words": ["w"]}),
    (["build", "--mode", "root", "c", "-o", "out"], {
        "config": None, "corpus_dir": "c", "k": None, "mode": "root", "output": "out", "rules": None, "scaling": "u",
    }),
    (["sim", "--space", "s", "a", "b"], {
        "config": None, "normalize": False, "rules": None, "space": "s", "word_a": "a", "word_b": "b",
    }),
    (["report", "--corpus", "c", "--pairs", "p"], {
        "config": None, "corpus": "c", "format": "tsv", "k": None, "modes": ("root", "light"), "normalize": False,
        "output": None, "pairs": ["p"], "rules": None, "scaling": "u",
    }),
])
def test_each_subcommand_keeps_its_options_and_defaults(argv, expected):
    args = vars(_build_parser().parse_args(argv))
    assert args.pop("command") == argv[0] and callable(args.pop("func"))
    assert args == expected


def test_sim_requires_space(capsys):
    with pytest.raises(SystemExit) as exc_info:
        main(["sim", "اب", "جد"])
    assert exc_info.value.code == 1


# --- stats -----------------------------------------------------------------------

def test_stats_fixture(capsys, mini_corpus_dir):
    code, out, err = run(capsys, "stats", str(mini_corpus_dir))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "Number of Documents\t12"
    assert lines[1].startswith("Size\t")
    assert lines[2] == "Number of categories\t2"
    assert lines[3] == "Number of Words\t2569"
    assert lines[4] == "Number of Paragraphs\t205"


def test_stats_empty_dir_warns(capsys, tmp_path):
    code, out, err = run(capsys, "stats", str(tmp_path))
    assert code == 0
    assert "Number of Documents\t0" in out
    assert "warning" in err


def test_stats_missing_dir_is_io_error(capsys, tmp_path):
    code, out, err = run(capsys, "stats", str(tmp_path / "nope"))
    assert code == 2
    assert out == ""
    assert "error" in err


def test_stats_partial_failure(capsys, tmp_path):
    (tmp_path / "ok.txt").write_text("نص جيد\n", encoding="utf-8")
    (tmp_path / "bad.txt").write_bytes(b"\xff\xfebroken")
    code, out, err = run(capsys, "stats", str(tmp_path))
    assert code == 2
    assert "Number of Documents\t1" in out
    assert "skipped" in err


def test_directory_named_txt_is_not_a_document(capsys, tiny_corpus, tmp_path):
    (tiny_corpus / "a").rename(tiny_corpus / "c1.txt")
    code, out, err = run(capsys, "stats", str(tiny_corpus))
    assert (code, err) == (0, "")
    assert "Number of Documents\t2" in out
    code, out, err = run(capsys, "build", "--mode", "light", str(tiny_corpus), "-o", str(tmp_path / "s.bin"))
    assert code == 0
    assert err.startswith("built space:") and "warning" not in err
    # a broken symlink named *.txt is still a file that cannot be read
    (tiny_corpus / "b" / "gone.txt").symlink_to(tmp_path / "missing.txt")
    code, out, err = run(capsys, "stats", str(tiny_corpus))
    assert code == 2
    assert "Number of Documents\t2" in out
    assert err.startswith(f"warning: skipped {tiny_corpus / 'b' / 'gone.txt'}: unreadable:")


# --- stem ------------------------------------------------------------------------

def test_stem_output_format(capsys):
    code, out, err = run(capsys, "stem", "--mode", "root", "أتتذكروننا")
    assert code == 0
    assert out == "أتتذكروننا\tذكر\troot\tantefix=أ;prefix=تت;suffix=ون;postfix=نا\n"


def test_stem_light_multiple_words(capsys):
    code, out, err = run(capsys, "stem", "--mode", "light", "العراقية", "قلم")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "العراقية\tعراقي\tstem\tantefix=ال;suffix=ة"
    assert lines[1] == "قلم\tقلم\tstem\t-"


@pytest.mark.parametrize("mode, lines", [
    ("light", ["تحديث\tحديث\tstem\tprefix=ت", "عملها\tعمل\tstem\tpostfix=ها",
               "اجتماعاتها\tاجتماع\tstem\tsuffix=ات;postfix=ها"]),
    ("root", ["تحديث\tحدث\troot\tprefix=ت", "عملها\tعمل\troot\tpostfix=ها",
              "اجتماعاتها\tجمع\troot\tsuffix=ات;postfix=ها"]),
])
def test_stem_names_only_the_parts_it_stripped(capsys, mode, lines):
    # a part missing before, between or after others leaves no column of its own
    code, out, err = run(capsys, "stem", "--mode", mode, "تحديث", "عملها", "اجتماعاتها")
    assert code == 0
    assert out.splitlines() == lines


def test_stem_custom_rules_dir(capsys, tmp_path):
    rules = tmp_path / "rules"
    rules.mkdir()
    (rules / "antefixes.txt").write_text("ال\n", encoding="utf-8")
    (rules / "prefixes.txt").write_text("", encoding="utf-8")
    (rules / "suffixes.txt").write_text("", encoding="utf-8")
    (rules / "postfixes.txt").write_text("", encoding="utf-8")
    (rules / "patterns.txt").write_text("فعل\t0,1,2\n", encoding="utf-8")
    code, out, err = run(capsys, "stem", "--mode", "light", "--rules", str(rules), "العراقية")
    assert code == 0
    assert out.split("\t")[1] == "عراقية"


def test_stem_rules_from_environment(capsys, tmp_path, monkeypatch):
    rules = tmp_path / "rules"
    rules.mkdir()
    for name in ("antefixes", "prefixes", "suffixes", "postfixes"):
        (rules / f"{name}.txt").write_text("", encoding="utf-8")
    (rules / "patterns.txt").write_text("", encoding="utf-8")
    monkeypatch.setenv("SEMSPACE_RULES", str(rules))
    code, out, err = run(capsys, "stem", "--mode", "light", "العراقية")
    assert code == 0
    assert out.split("\t")[1] == "العراقية"  # empty rules strip nothing


def test_stem_light_needs_no_patterns_file(capsys, tmp_path):
    rules = tmp_path / "rules"
    rules.mkdir()
    (rules / "antefixes.txt").write_text("ال\n", encoding="utf-8")
    for name in ("prefixes", "suffixes", "postfixes"):
        (rules / f"{name}.txt").write_text("", encoding="utf-8")
    code, out, err = run(capsys, "stem", "--mode", "light", "--rules", str(rules), "العراقية")
    assert code == 0
    assert out == "العراقية\tعراقية\tstem\tantefix=ال\n"
    code, out, err = run(capsys, "stem", "--mode", "root", "--rules", str(rules), "العراقية")
    assert code == 4
    assert "missing rule file" in err


@pytest.mark.parametrize("positions, problem", [
    ("0,1", "needs 3 or 4 root positions, got 2"),
    ("0,2,1", "positions must be strictly increasing"),
    ("0,1,3", "position out of range"),
    ("-1,0,1", "position out of range"),
], ids=["count", "order", "range", "negative"])
def test_bad_pattern_names_its_file_and_line(capsys, tmp_path, positions, problem):
    rules = tmp_path / "rules"
    rules.mkdir()
    for path in bundled_data("rules").glob("*.txt"):
        (rules / path.name).write_bytes(path.read_bytes())
    patterns = rules / "patterns.txt"
    lineno = len(patterns.read_bytes().splitlines()) + 1
    with patterns.open("a", encoding="utf-8") as file:
        file.write(f"فعل\t{positions}\n")
    code, out, err = run(capsys, "stem", "--mode", "root", "--rules", str(rules), "كتب")
    assert (code, out) == (4, "")
    assert err == f"semspace: error: {patterns}:{lineno}: pattern 'فعل': {problem}\n"


# --- build / sim -------------------------------------------------------------------

def test_build_default_k(capsys, tiny_corpus, tmp_path):
    space_file = tmp_path / "space.bin"
    code, out, err = run(capsys, "build", "--mode", "light", str(tiny_corpus), "-o", str(space_file))
    assert code == 0
    space = load_space(space_file)
    assert space.n_columns == 6
    assert space.k == min(300, len(space.vocabulary), space.n_columns) == 6


@pytest.fixture()
def rank_two_corpus(tmp_path):
    """Three light-stemmed rows, three paragraphs, two of them equal: rank 2."""
    root = tmp_path / "rank2"
    root.mkdir()
    (root / "doc.txt").write_text("السفير الوزير\n\nالسفير الوزير\n\nالمدينة\n", encoding="utf-8")
    return root


def test_build_default_k_is_the_rank(capsys, rank_two_corpus, tmp_path):
    space_file = tmp_path / "space.bin"
    code, out, err = run(capsys, "build", "--mode", "light", str(rank_two_corpus), "-o", str(space_file))
    assert code == 0
    space = load_space(space_file)
    assert (len(space.vocabulary), space.n_columns) == (3, 3)
    assert space.k == 2
    assert np.count_nonzero(space.sigma) == 2


def test_build_k_above_the_rank_is_usage_error(capsys, rank_two_corpus, tmp_path):
    space_file = tmp_path / "space.bin"
    code, out, err = run(
        capsys, "build", "--mode", "light", "-k", "3", str(rank_two_corpus), "-o", str(space_file)
    )
    assert code == 1
    assert "k must be in 1..2" in err
    assert not space_file.exists()


def test_build_and_sim(capsys, tiny_corpus, tmp_path):
    space_file = tmp_path / "space.bin"
    code, out, err = run(
        capsys, "build", "--mode", "root", "-k", "3", str(tiny_corpus), "-o", str(space_file)
    )
    assert code == 0
    assert out == ""  # data stream stays clean
    assert "built space" in err
    space = load_space(space_file)
    assert space.k == 3
    assert space.provenance.stemmer_mode == "root"

    code, out, err = run(capsys, "sim", "--space", str(space_file), "السفير", "السفارة")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "cosine\teuclidean\tpearson\tjaccard"
    assert lines[1] == "1\t0\t1\t1"


def test_build_empty_dir_fails(capsys, tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    code, out, err = run(capsys, "build", "--mode", "light", str(empty), "-o", str(tmp_path / "s.bin"))
    assert code == 2
    assert "empty corpus" in err


def test_build_k_out_of_range(capsys, tiny_corpus, tmp_path):
    code, out, err = run(
        capsys, "build", "--mode", "light", "-k", "999", str(tiny_corpus), "-o", str(tmp_path / "s.bin")
    )
    assert code == 1
    assert "k must be" in err


def test_build_that_does_not_converge_exits_3(capsys, monkeypatch, mini_corpus_dir, tmp_path):
    monkeypatch.setattr(svd, "_MAX_SWEEPS", 1)
    space_file = tmp_path / "space.bin"
    code, out, err = run(capsys, "build", "--mode", "light", str(mini_corpus_dir), "-o", str(space_file))
    assert (code, out) == (3, "")
    assert err == "semspace: error: one-sided Jacobi did not converge in 1 sweeps (off-diagonal residual 3.135e-01)\n"
    assert not space_file.exists()


def test_sim_out_of_vocabulary(capsys, tiny_corpus, tmp_path):
    space_file = tmp_path / "space.bin"
    run(capsys, "build", "--mode", "light", str(tiny_corpus), "-o", str(space_file))
    code, out, err = run(capsys, "sim", "--space", str(space_file), "السفير", "غائبتماما")
    assert code == 4
    assert "out of vocabulary" in err


def test_sim_word_with_no_arabic_letters_is_out_of_vocabulary(capsys, tiny_corpus, tmp_path):
    space_file = tmp_path / "space.bin"
    run(capsys, "build", "--mode", "light", str(tiny_corpus), "-o", str(space_file))
    code, out, err = run(capsys, "sim", "--space", str(space_file), "السفير", "abc123")
    assert code == 4 and out == ""
    assert "out of vocabulary: 'abc123' (stemmed: '')" in err


def test_sim_space_with_a_changed_byte_is_checksum_error(capsys, tiny_corpus, tmp_path):
    space_file = tmp_path / "space.bin"
    run(capsys, "build", "--mode", "root", str(tiny_corpus), "-o", str(space_file))
    blob = bytearray(space_file.read_bytes())
    blob[-9] ^= 0x01  # the last byte of the last word vector entry
    space_file.write_bytes(bytes(blob))
    code, out, err = run(capsys, "sim", "--space", str(space_file), "السفير", "الوزير")
    assert code == 4 and out == ""
    assert "checksum mismatch" in err


def test_sim_corrupt_space_is_data_error(capsys, tmp_path):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"not a space file at all")
    code, out, err = run(capsys, "sim", "--space", str(bad), "اب", "جد")
    assert code == 4


def test_sim_space_of_format_version_one_is_data_error(capsys, tiny_corpus, tmp_path):
    space_file = tmp_path / "space.bin"
    run(capsys, "build", "--mode", "light", str(tiny_corpus), "-o", str(space_file))
    payload = bytearray(space_file.read_bytes()[:-8])
    payload[8:12] = (1).to_bytes(4, "little")  # the version field, after the magic
    space_file.write_bytes(bytes(payload) + _checksum(payload))
    code, out, err = run(capsys, "sim", "--space", str(space_file), "السفير", "السفارة")
    assert code == 4
    assert out == ""
    assert "version 1" in err and "rebuild the space with `semspace build`" in err


def test_sim_space_with_no_dimensions_is_data_error(capsys, tmp_path):
    # a well-formed, checksummed file whose header says k = 0
    space = SemanticSpace(
        k=0,
        scaling="u",
        vocabulary=Vocabulary(["اب", "جد"]),
        sigma=np.empty(0),
        word_vectors=np.empty((2, 0)),
        provenance=Provenance("none", "", "fp"),
        n_columns=2,
    )
    space_file = tmp_path / "empty.bin"
    save_space(space, space_file)
    code, out, err = run(capsys, "sim", "--space", str(space_file), "اب", "جد")
    assert code == 4
    assert "outside 1..2" in err


def test_sim_space_that_repeats_a_word_is_data_error(capsys, tmp_path):
    space = SemanticSpace(
        k=2,
        scaling="u",
        vocabulary=Vocabulary(["اب", "جد", "هو"]),
        sigma=np.ones(2),
        word_vectors=np.array([[1.0, 0.0], [0.0, 1.0], [0.6, 0.8]]),
        provenance=Provenance("none", "", "fp"),
        n_columns=3,
    )
    space_file = tmp_path / "repeated.bin"
    save_space(space, space_file)
    payload = space_file.read_bytes()[:-8].replace("جد".encode(), "اب".encode(), 1)
    space_file.write_bytes(payload + _checksum(payload))
    code, out, err = run(capsys, "sim", "--space", str(space_file), "اب", "هو")
    assert code == 4
    assert "repeats" in err


def test_sim_space_with_an_empty_word_is_data_error(capsys, tmp_path):
    space = SemanticSpace(
        k=2,
        scaling="u",
        vocabulary=Vocabulary(["اب", "جد", "هو"]),
        sigma=np.ones(2),
        word_vectors=np.array([[1.0, 0.0], [0.0, 1.0], [0.6, 0.8]]),
        provenance=Provenance("none", "", "fp"),
        n_columns=3,
    )
    space_file = tmp_path / "empty-word.bin"
    save_space(space, space_file)
    # "اب\nجد" as "\nجدجد": the same length, so the layout holds, and the first word is empty
    payload = space_file.read_bytes()[:-8].replace("اب\nجد".encode(), "\nجدجد".encode(), 1)
    space_file.write_bytes(payload + _checksum(payload))
    # "abc" normalizes and stems to "", which no row may be; "هو" is a row
    code, out, err = run(capsys, "sim", "--space", str(space_file), "abc", "هو")
    assert code == 4
    assert out == ""
    assert "empty word" in err


def test_sim_space_with_a_non_finite_number_is_data_error(capsys, tmp_path):
    space = SemanticSpace(
        k=2,
        scaling="u",
        vocabulary=Vocabulary(["اب", "جد"]),
        sigma=np.ones(2),
        word_vectors=np.array([[1.0, 0.0], [np.nan, np.nan]]),
        provenance=Provenance("none", "", "fp"),
        n_columns=2,
    )
    space_file = tmp_path / "nan.bin"
    save_space(space, space_file)
    code, out, err = run(capsys, "sim", "--space", str(space_file), "اب", "جد")
    assert code == 4
    assert out == ""
    assert "non-finite" in err


def test_sim_space_with_text_that_is_not_utf8_is_data_error(capsys, tiny_corpus, tmp_path):
    space_file = tmp_path / "space.bin"
    run(capsys, "build", "--mode", "light", str(tiny_corpus), "-o", str(space_file))
    first_word = list(load_space(space_file).vocabulary)[0]
    payload = bytearray(space_file.read_bytes()[:-8])
    payload[payload.index(first_word.encode())] = 0xFF
    space_file.write_bytes(bytes(payload) + _checksum(payload))
    code, out, err = run(capsys, "sim", "--space", str(space_file), "السفير", "السفارة")
    assert code == 4
    assert out == ""
    assert "not UTF-8" in err


def test_sim_warns_on_differing_rules(capsys, tiny_corpus, tmp_path):
    from semspace.stemming import RULES_DIR

    space_file = tmp_path / "space.bin"
    run(capsys, "build", "--mode", "light", str(tiny_corpus), "-o", str(space_file))
    other_rules = tmp_path / "rules"
    other_rules.mkdir()
    for name in ("antefixes", "prefixes", "suffixes", "postfixes", "patterns"):
        source = (RULES_DIR / f"{name}.txt").read_text(encoding="utf-8")
        (other_rules / f"{name}.txt").write_text(source, encoding="utf-8")
    (other_rules / "antefixes.txt").write_text("ال\n", encoding="utf-8")
    code, out, err = run(
        capsys, "sim", "--space", str(space_file), "--rules", str(other_rules),
        "السفير", "السفارة",
    )
    assert code == 0
    assert "rule files differ" in err


def test_sim_normalize_rescales_euclidean(capsys, tiny_corpus, tmp_path):
    import math

    space_file = tmp_path / "space.bin"
    run(capsys, "build", "--mode", "light", str(tiny_corpus), "-o", str(space_file))
    code, raw_out, _ = run(capsys, "sim", "--space", str(space_file), "السفير", "السفارة")
    assert code == 0
    code, unit_out, _ = run(
        capsys, "sim", "--space", str(space_file), "--normalize", "السفير", "السفارة"
    )
    assert code == 0
    raw = dict(zip(raw_out.splitlines()[0].split("\t"), map(float, raw_out.splitlines()[1].split("\t"))))
    unit = dict(zip(unit_out.splitlines()[0].split("\t"), map(float, unit_out.splitlines()[1].split("\t"))))
    # outputs carry six significant digits
    assert unit["cosine"] == pytest.approx(raw["cosine"], rel=1e-5)
    assert unit["euclidean"] == pytest.approx(math.sqrt(2.0 - 2.0 * raw["cosine"]), rel=1e-5)


def test_config_file_flag_precedence(capsys, tiny_corpus, tmp_path):
    config = tmp_path / "semspace.conf"
    config.write_text("k = 4\nscaling = usigma\n", encoding="utf-8")
    space_file = tmp_path / "space.bin"
    code, out, err = run(
        capsys, "build", "--mode", "light", "--config", str(config),
        "-k", "2", str(tiny_corpus), "-o", str(space_file),
    )
    assert code == 0
    space = load_space(space_file)
    assert space.k == 2  # flag wins
    assert space.scaling == "usigma"  # config fills the unset flag


def test_config_file_normalize_values(capsys, tiny_corpus, tmp_path):
    space_file = tmp_path / "space.bin"
    run(capsys, "build", "--mode", "light", str(tiny_corpus), "-o", str(space_file))
    config = tmp_path / "semspace.conf"
    outputs = {}
    for value in ("YES", "on", "Off", "0"):
        config.write_text(f"normalize = {value}\n", encoding="utf-8")
        code, outputs[value], err = run(
            capsys, "sim", "--space", str(space_file), "--config", str(config), "السفير", "السفارة"
        )
        assert code == 0
    _, unit_out, _ = run(capsys, "sim", "--space", str(space_file), "--normalize", "السفير", "السفارة")
    _, raw_out, _ = run(capsys, "sim", "--space", str(space_file), "السفير", "السفارة")
    assert outputs["YES"] == outputs["on"] == unit_out
    assert outputs["Off"] == outputs["0"] == raw_out
    assert unit_out != raw_out

    config.write_text("normalize = ture\n", encoding="utf-8")
    code, out, err = run(
        capsys, "sim", "--space", str(space_file), "--config", str(config), "السفير", "السفارة"
    )
    assert code == 1
    assert out == ""
    assert "normalize must be one of" in err


def test_config_file_unknown_key(capsys, tiny_corpus, tmp_path):
    config = tmp_path / "semspace.conf"
    config.write_text("kk = 4\n", encoding="utf-8")
    code, out, err = run(
        capsys, "build", "--mode", "light", "--config", str(config),
        str(tiny_corpus), "-o", str(tmp_path / "s.bin"),
    )
    assert code == 1
    assert "unknown key" in err


def test_config_file_mode_key_is_unknown(capsys, tiny_corpus, tmp_path):
    space_file = tmp_path / "space.bin"
    run(capsys, "build", "--mode", "light", str(tiny_corpus), "-o", str(space_file))
    config = tmp_path / "semspace.conf"
    config.write_text("mode = root\n", encoding="utf-8")
    code, out, err = run(
        capsys, "sim", "--space", str(space_file), "--config", str(config), "السفير", "السفارة"
    )
    assert code == 1  # the stemmer comes from --mode or the space, never the file
    assert out == ""
    assert "unknown key 'mode'" in err


@pytest.mark.parametrize("command, text, key", [
    ("stem", "k = 4\nmodes = root\n", "k"),
    ("stem", "format = bogus\n", "format"),
    ("sim", "k = 4\n", "k"),
    ("build", "normalize = on\n", "normalize"),
], ids=["stem-k", "stem-format", "sim-k", "build-normalize"])
def test_config_file_key_not_used_by_the_subcommand(capsys, tiny_corpus, tmp_path, command, text, key):
    space_file = tmp_path / "space.bin"
    run(capsys, "build", "--mode", "light", str(tiny_corpus), "-o", str(space_file))
    config = tmp_path / "semspace.conf"
    config.write_text(text, encoding="utf-8")
    argv = {
        "stem": ["stem", "--mode", "light", "السفير"],
        "sim": ["sim", "--space", str(space_file), "السفير", "السفارة"],
        "build": ["build", "--mode", "light", str(tiny_corpus), "-o", str(tmp_path / "other.bin")],
    }[command]
    code, out, err = run(capsys, *argv, "--config", str(config))
    assert code == 1
    assert out == ""
    assert f"key {key!r} is not used by {command}" in err


@pytest.mark.parametrize("command, key, value", [
    ("build", "k", "x"),
    ("build", "scaling", "bogus"),
    ("report", "format", "pdf"),
    ("report", "modes", "light,light"),
], ids=["k", "scaling", "format", "modes"])
def test_config_file_value_is_checked_like_its_flag(capsys, tiny_corpus, tmp_path, command, key, value):
    config = tmp_path / "semspace.conf"
    config.write_text(f"{key} = {value}\n", encoding="utf-8")
    argv = {
        "build": ["build", "--mode", "light", str(tiny_corpus), "-o", str(tmp_path / "s.bin")],
        "report": ["report", "--corpus", str(tiny_corpus), "--pairs", str(tmp_path / "pairs.tsv")],
    }[command]
    errors = []
    for source in (["-k" if key == "k" else f"--{key}", value], ["--config", str(config)]):
        with pytest.raises(SystemExit) as exc_info:
            main(argv + source)
        assert exc_info.value.code == 1
        errors.append(capsys.readouterr().err)
    prefix = f"semspace {command}: error: "
    assert errors[0].startswith(f"usage: semspace {command} ") and errors[0].count(prefix) == 1
    assert errors[1] == errors[0].replace(prefix, f"{prefix}{config}:1: ")  # the flag's message, located
    assert f"{value!r}" in errors[1]
    assert not (tmp_path / "s.bin").exists()


def test_config_file_bad_values_name_their_file_and_line(capsys, tiny_corpus, tmp_path):
    space_file = tmp_path / "space.bin"
    run(capsys, "build", "--mode", "light", str(tiny_corpus), "-o", str(space_file))
    config = tmp_path / "semspace.conf"
    config.write_text("# options\nscaling = u\n\nk = x\n", encoding="utf-8")
    with pytest.raises(SystemExit) as exc_info:
        main(["build", "--mode", "light", "--config", str(config), str(tiny_corpus), "-o", str(tmp_path / "s.bin")])
    assert exc_info.value.code == 1
    err = capsys.readouterr().err
    assert err.endswith(f"\nsemspace build: error: {config}:4: argument -k: invalid int value: 'x'\n")

    config.write_text("# options\nnormalize = ture\n", encoding="utf-8")
    code, out, err = run(capsys, "sim", "--space", str(space_file), "--config", str(config), "السفير", "السفارة")
    assert code == 1 and out == ""
    assert err == (f"semspace: error: {config}:2: normalize must be one of "
                   "1, true, yes, on, 0, false, no, off, got 'ture'\n")


def test_config_file_bad_value_is_an_error_under_its_flag(capsys, tiny_corpus, tmp_path):
    config = tmp_path / "semspace.conf"
    config.write_text("k = x\n", encoding="utf-8")
    with pytest.raises(SystemExit) as exc_info:
        main(["build", "--mode", "light", "--config", str(config), "-k", "2", str(tiny_corpus),
              "-o", str(tmp_path / "s.bin")])
    assert exc_info.value.code == 1
    assert "invalid int value: 'x'" in capsys.readouterr().err


def test_config_file_repeated_key_is_usage_error(capsys, tiny_corpus, tmp_path):
    # the later line would win, hiding the bad value of the earlier one
    config = tmp_path / "semspace.conf"
    config.write_text("k = x\n# fixed\nk = 5\n", encoding="utf-8")
    code, out, err = run(
        capsys, "build", "--mode", "light", "--config", str(config), str(tiny_corpus), "-o", str(tmp_path / "s.bin")
    )
    assert code == 1
    assert out == ""
    assert err == f"semspace: error: {config}:3: key 'k' repeats line 1\n"
    assert not (tmp_path / "s.bin").exists()


def test_config_file_builds_the_bytes_of_the_same_flags(capsys, tiny_corpus, tmp_path):
    config = tmp_path / "semspace.conf"
    config.write_text("k = 3\nscaling = usigma\n", encoding="utf-8")
    by_flags, by_file = tmp_path / "flags.bin", tmp_path / "file.bin"
    assert run(capsys, "build", "--mode", "root", "-k", "3", "--scaling", "usigma",
               str(tiny_corpus), "-o", str(by_flags))[0] == 0
    assert run(capsys, "build", "--mode", "root", "--config", str(config),
               str(tiny_corpus), "-o", str(by_file))[0] == 0
    assert by_file.read_bytes() == by_flags.read_bytes()


def test_config_file_with_a_byte_order_mark_builds_as_without(capsys, tiny_corpus, tmp_path):
    config = tmp_path / "semspace.conf"
    config.write_bytes(BOM + b"k = 3\n")
    by_flags, by_file = tmp_path / "flags.bin", tmp_path / "file.bin"
    assert run(capsys, "build", "--mode", "root", "-k", "3", str(tiny_corpus), "-o", str(by_flags))[0] == 0
    assert run(capsys, "build", "--mode", "root", "--config", str(config),
               str(tiny_corpus), "-o", str(by_file))[0] == 0
    assert by_file.read_bytes() == by_flags.read_bytes()


def test_config_file_normalize_off_yields_to_the_flag(capsys, tiny_corpus, tmp_path):
    space_file = tmp_path / "space.bin"
    run(capsys, "build", "--mode", "light", str(tiny_corpus), "-o", str(space_file))
    config = tmp_path / "semspace.conf"
    config.write_text("normalize = off\n", encoding="utf-8")
    words = ("السفير", "السفارة")
    _, unit_out, _ = run(capsys, "sim", "--space", str(space_file), "--normalize", *words)
    _, raw_out, _ = run(capsys, "sim", "--space", str(space_file), *words)
    code, out, err = run(
        capsys, "sim", "--space", str(space_file), "--config", str(config), "--normalize", *words
    )
    assert code == 0
    assert out == unit_out != raw_out


def test_config_file_value_that_starts_with_a_dash_is_a_value(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    config = tmp_path / "semspace.conf"
    config.write_text("rules = -x\n", encoding="utf-8")
    code, out, err = run(capsys, "stem", "--mode", "light", "--config", str(config), "السفير")
    assert code == 4
    assert out == ""
    assert "missing rule file: -x" in err


def test_config_file_comment_starts_at_a_line_start_or_after_whitespace(capsys, tiny_corpus, tmp_path):
    # a '#' inside a value, as in this directory's name, is part of the value
    rules = tmp_path / "rules#1"
    rules.mkdir()
    (rules / "antefixes.txt").write_text("ال\n", encoding="utf-8")
    for name in ("prefixes", "suffixes", "postfixes"):
        (rules / f"{name}.txt").write_text("", encoding="utf-8")
    config = tmp_path / "semspace.conf"
    config.write_text(f"# custom rules\nrules = {rules}  # note\n", encoding="utf-8")
    by_flag = run(capsys, "stem", "--mode", "light", "--rules", str(rules), "العراقية")
    assert by_flag == (0, "العراقية\tعراقية\tstem\tantefix=ال\n", "")
    assert run(capsys, "stem", "--mode", "light", "--config", str(config), "العراقية") == by_flag
    with config.open("a", encoding="utf-8") as file:
        file.write("k = 3\t# note\n")
    by_flags, by_file = tmp_path / "flags.bin", tmp_path / "file.bin"
    assert run(capsys, "build", "--mode", "light", "--rules", str(rules), "-k", "3",
               str(tiny_corpus), "-o", str(by_flags))[0] == 0
    assert run(capsys, "build", "--mode", "light", "--config", str(config),
               str(tiny_corpus), "-o", str(by_file))[0] == 0
    assert by_file.read_bytes() == by_flags.read_bytes()


def test_config_file_that_is_not_utf8_is_usage_error(capsys, tiny_corpus, tmp_path):
    config = tmp_path / "bad.conf"
    config.write_bytes(b"k = 4\xff\n")
    code, out, err = run(
        capsys, "build", "--mode", "light", "--config", str(config), str(tiny_corpus), "-o", str(tmp_path / "s.bin")
    )
    assert code == 1
    assert out == ""
    assert err == f"semspace: error: {config}: not UTF-8: invalid start byte\n"


@pytest.mark.parametrize("text, message", [
    (None, "cannot read config file: [Errno 2] No such file or directory: '{config}'"),
    ("k 4\n", "{config}:1: expected 'key = value'"),
], ids=["missing-file", "no-equals-sign"])
def test_config_file_that_cannot_be_read_or_split_is_usage_error(capsys, tiny_corpus, tmp_path, text, message):
    config = tmp_path / "semspace.conf"
    if text is not None:
        config.write_text(text, encoding="utf-8")
    code, out, err = run(
        capsys, "build", "--mode", "light", "--config", str(config), str(tiny_corpus), "-o", str(tmp_path / "s.bin")
    )
    assert (code, out) == (1, "")
    assert err == f"semspace: error: {message.format(config=config)}\n"
    assert not (tmp_path / "s.bin").exists()


@pytest.mark.parametrize("argv, message", [
    (["stats", ""], "argument corpus_dir: empty path"),
    (["build", "--mode", "light", "", "-o", "{out}"], "argument corpus_dir: empty path"),
    (["report", "--corpus", "", "--pairs", "{pairs}", "-o", "{out}"], "argument --corpus: empty path"),
    (["report", "--corpus", "{corpus}", "--pairs", "{pairs}", "--pairs", "", "-o", "{out}"], "argument --pairs: empty path"),
    (["build", "--mode", "light", "--rules", "", "{corpus}", "-o", "{out}"], "argument --rules: empty path"),
    (["build", "--mode", "light", "--config", "", "{corpus}", "-o", "{out}"], "argument --config: empty path"),
    (["build", "--mode", "light", "--config", "{conf}", "{corpus}", "-o", "{out}"], "{conf}:1: argument --rules: empty path"),
], ids=["stats-corpus_dir", "build-corpus_dir", "report-corpus", "report-pairs", "rules", "config", "config-line-rules"])
def test_empty_input_path_is_usage_error(capsys, monkeypatch, tiny_corpus, tmp_path, argv, message):
    # "" would read the current directory as the corpus or a pair file, or count as no --rules or --config
    work = tmp_path / "work"
    work.mkdir()
    (work / "one.txt").write_bytes((tiny_corpus / "a" / "one.txt").read_bytes())
    monkeypatch.chdir(work)
    monkeypatch.delenv("SEMSPACE_RULES", raising=False)
    names = {"corpus": tiny_corpus, "pairs": tmp_path / "pairs.tsv", "conf": tmp_path / "my.conf", "out": tmp_path / "x.out"}
    names["pairs"].write_text("السفير\tالسفارة\tDifferent\n", encoding="utf-8")
    names["conf"].write_text("rules =\n", encoding="utf-8")
    with pytest.raises(SystemExit) as exc_info:
        main([arg.format(**names) for arg in argv])
    assert exc_info.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(f"\nsemspace {argv[0]}: error: {message.format(**names)}\n")
    assert not names["out"].exists()


def test_rule_file_that_is_not_utf8_is_data_error(capsys, tmp_path):
    rules = tmp_path / "rules"
    rules.mkdir()
    for name in ("prefixes", "suffixes", "postfixes"):
        (rules / f"{name}.txt").write_text("", encoding="utf-8")
    (rules / "antefixes.txt").write_bytes("ال\n".encode() + b"\xff\n")
    code, out, err = run(capsys, "stem", "--mode", "light", "--rules", str(rules), "العراقية")
    assert code == 4
    assert out == ""
    assert f"{rules / 'antefixes.txt'}: not UTF-8" in err


def test_rule_files_with_a_byte_order_mark_stem_as_without(capsys, pair_files, tmp_path):
    words = sorted({w for path in pair_files for pair in load_pairs(path) for w in (pair.word_a, pair.word_b)})
    plain, marked = tmp_path / "plain", tmp_path / "marked"
    plain.mkdir()
    marked.mkdir()
    for path in bundled_data("rules").glob("*.txt"):
        # without its leading comments, each file starts with an entry
        lines = path.read_bytes().splitlines(keepends=True)
        text = b"".join(lines[next(i for i, line in enumerate(lines) if not line.startswith(b"#")):])
        (plain / path.name).write_bytes(text)
        (marked / path.name).write_bytes(BOM + text)
    for mode in ("light", "root"):
        expected = run(capsys, "stem", "--mode", mode, "--rules", str(plain), *words)
        assert expected[0] == 0
        assert run(capsys, "stem", "--mode", mode, "--rules", str(marked), *words) == expected


@pytest.mark.parametrize("command", ["build", "report"])
def test_k_below_one_is_usage_error(capsys, monkeypatch, tiny_corpus, tmp_path, command):
    # a k below 1 is known from the flag alone, so it fails before the corpus pass
    pairs = tmp_path / "pairs.tsv"
    pairs.write_text("السفير\tالسفارة\tSimilar\n", encoding="utf-8")
    k = {"build": "0", "report": "-1"}[command]
    argv = {
        "build": ["build", "--mode", "light", "-k", k, str(tiny_corpus), "-o", str(tmp_path / "s.bin")],
        "report": ["report", "--corpus", str(tiny_corpus), "--pairs", str(pairs), "-k", k],
    }[command]
    _segmenting_fails(monkeypatch)
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err == f"semspace: error: k must be in 1..rank, got {k}\n"
    assert not (tmp_path / "s.bin").exists()


# --- report ------------------------------------------------------------------------

def test_report_tiny_corpus(capsys, tiny_corpus, tmp_path):
    pairs = tmp_path / "pairs.tsv"
    pairs.write_text(
        "السفير\tالسفير\tSimilar\tsame word\t-\n"
        "السفارة\tالسفير\tDifferent\tembassy vs ambassador\t-\n"
        "غائب\tالسفير\tDifferent\toov exercise\t-\n",
        encoding="utf-8",
    )
    out_file = tmp_path / "report.tsv"
    code, out, err = run(
        capsys, "report", "--corpus", str(tiny_corpus), "--pairs", str(pairs),
        "--modes", "root,light", "-k", "3", "-o", str(out_file),
    )
    assert code == 0
    text = out_file.read_text(encoding="utf-8")
    assert "(السفير, السفير)\t-\tsame word\t1\t0\t1\t1\t" in text
    assert "oov=غائب" in text


def test_report_stdout_when_no_output(capsys, tiny_corpus, tmp_path):
    pairs = tmp_path / "pairs.tsv"
    pairs.write_text("السفير\tالسفارة\tDifferent\n", encoding="utf-8")
    code, out, err = run(
        capsys, "report", "--corpus", str(tiny_corpus), "--pairs", str(pairs), "-k", "2",
    )
    assert code == 0
    assert out.startswith("# semspace comparison report")


def _segmenting_fails(monkeypatch):
    def segment_corpus(corpus):
        raise AssertionError("the corpus was segmented before a fast check ran")

    monkeypatch.setattr(cli, "segment_corpus", segment_corpus)


def test_report_into_a_missing_directory_is_io_error(capsys, monkeypatch, tiny_corpus, tmp_path):
    # the directory is checked before the corpus pass, not after the whole run
    pairs = tmp_path / "pairs.tsv"
    pairs.write_text("السفير\tالسفارة\tDifferent\n", encoding="utf-8")
    target = tmp_path / "missing" / "x.tsv"
    _segmenting_fails(monkeypatch)
    code, out, err = run(
        capsys, "report", "--corpus", str(tiny_corpus), "--pairs", str(pairs), "-k", "2", "-o", str(target),
    )
    assert (code, out) == (2, "")
    assert err == f"semspace: error: [Errno 2] No such file or directory: '{target}'\n"
    assert not (tmp_path / "missing").exists()


def test_build_into_a_missing_directory_is_io_error(capsys, monkeypatch, tiny_corpus, tmp_path):
    target = tmp_path / "missing" / "x.bin"
    _segmenting_fails(monkeypatch)
    code, out, err = run(capsys, "build", "--mode", "light", str(tiny_corpus), "-o", str(target))
    assert (code, out) == (2, "")
    assert err == f"semspace: error: [Errno 2] No such file or directory: '{target}'\n"
    assert not (tmp_path / "missing").exists()


def test_report_into_an_empty_path_is_io_error(capsys, monkeypatch, tiny_corpus, tmp_path):
    # an empty -o names no file, as a missing directory does: it fails before the corpus pass, not to stdout
    pairs = tmp_path / "pairs.tsv"
    pairs.write_text("السفير\tالسفارة\tDifferent\n", encoding="utf-8")
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    _segmenting_fails(monkeypatch)
    code, out, err = run(capsys, "report", "--corpus", str(tiny_corpus), "--pairs", str(pairs), "-k", "2", "-o", "")
    assert (code, out) == (2, "")
    assert err == "semspace: error: [Errno 2] No such file or directory: ''\n"
    assert not any(work.iterdir())


def test_build_into_an_empty_path_is_io_error(capsys, monkeypatch, tiny_corpus, tmp_path):
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    _segmenting_fails(monkeypatch)
    code, out, err = run(capsys, "build", "--mode", "light", str(tiny_corpus), "-o", "")
    assert (code, out) == (2, "")
    assert err == "semspace: error: [Errno 2] No such file or directory: ''\n"
    assert not any(work.iterdir())


def test_report_into_a_directory_is_io_error(capsys, monkeypatch, tiny_corpus, tmp_path):
    # a directory named by -o fails before the corpus pass, with the error writing to it would give
    pairs = tmp_path / "pairs.tsv"
    pairs.write_text("السفير\tالسفارة\tDifferent\n", encoding="utf-8")
    target = tmp_path / "out"
    target.mkdir()
    _segmenting_fails(monkeypatch)
    code, out, err = run(
        capsys, "report", "--corpus", str(tiny_corpus), "--pairs", str(pairs), "-k", "2", "-o", str(target),
    )
    assert (code, out) == (2, "")
    assert err == f"semspace: error: [Errno 21] Is a directory: '{target}'\n"
    assert target.is_dir() and not any(target.iterdir())


def test_build_into_a_directory_is_io_error(capsys, monkeypatch, tiny_corpus, tmp_path):
    target = tmp_path / "out"
    target.mkdir()
    _segmenting_fails(monkeypatch)
    code, out, err = run(capsys, "build", "--mode", "light", str(tiny_corpus), "-o", f"{target}/")
    assert (code, out) == (2, "")
    assert err == f"semspace: error: [Errno 21] Is a directory: '{target}/'\n"
    assert target.is_dir() and not any(target.iterdir())


@pytest.mark.parametrize("command", ["build", "report"])
def test_a_failed_run_leaves_its_output_file_alone(capsys, tiny_corpus, tmp_path, command):
    # -k above the rank fails after the corpus pass: an existing -o file keeps its bytes, a new one is not made
    pairs = tmp_path / "pairs.tsv"
    pairs.write_text("السفير\tالسفارة\tDifferent\n", encoding="utf-8")
    args = ["--mode", "light", str(tiny_corpus)] if command == "build" else ["--corpus", str(tiny_corpus), "--pairs", str(pairs)]
    kept, absent = tmp_path / "kept.out", tmp_path / "absent.out"
    kept.write_bytes(b"earlier output")
    for target in (kept, absent):
        code, out, err = run(capsys, command, *args, "-k", "999", "-o", str(target))
        assert (code, out) == (1, "") and err.startswith("semspace: error: k must be in 1..")
    assert kept.read_bytes() == b"earlier output" and not absent.exists()


def test_one_dimension_leaves_pearson_undefined(capsys, mini_corpus_dir, pair_files, tmp_path):
    # one coordinate has no spread to correlate, so every scored row prints "undefined" for Pearson
    pairs = [arg for path in pair_files for arg in ("--pairs", str(path))]
    code, out, err = run(capsys, "report", "--corpus", str(mini_corpus_dir), *pairs, "-k", "1")
    assert code == 0
    rows = [line.split("\t") for line in out.splitlines()[3:] if not line.startswith("## ")]
    scored = [cells for cells in rows if not cells[7]]
    assert len(rows) == 40 and len(scored) == 38  # 20 pairs under each of root and light; 2 rows have an OOV word
    assert all(cells[5] == "undefined" and cells[3:7].count("undefined") == 1 for cells in scored)
    space_file = tmp_path / "light.bin"
    assert run(capsys, "build", "--mode", "light", "-k", "1", str(mini_corpus_dir), "-o", str(space_file))[0] == 0
    code, out, err = run(capsys, "sim", "--space", str(space_file), "السفير", "السفارة")
    assert (code, out) == (0, "cosine\teuclidean\tpearson\tjaccard\n1\t0.0130506\tundefined\t0.895577\n")


def test_report_mode_sections_do_not_depend_on_the_other_modes(capsys, mini_corpus_dir, pair_files, tmp_path):
    # the modes' factorizations share one Jacobi loop; each must come out as it does alone
    pairs = tmp_path / "pairs.tsv"
    pairs.write_bytes(b"".join(path.read_bytes() for path in pair_files))

    def sections(modes):
        code, out, err = run(capsys, "report", "--corpus", str(mini_corpus_dir), "--pairs", str(pairs),
                             "--modes", modes, "-k", "40")
        assert code == 0
        by_mode, mode = {}, None
        for line in out.splitlines(keepends=True):  # each "## stemmer=<mode>\tlabel=<label>" and its rows
            if line.startswith("## stemmer="):
                mode = line[len("## stemmer="):].split("\t", 1)[0]
            if mode:
                by_mode[mode] = by_mode.get(mode, "") + line
        return by_mode

    together = sections("root,light,none")
    assert list(together) == ["root", "light", "none"]
    for mode in together:
        assert sections(mode) == {mode: together[mode]}


def test_sim_prints_the_cells_of_the_report(capsys, mini_corpus_dir, pair_files, tmp_path):
    # both commands score a pair with measure_all and print it with format_value
    pairs = tmp_path / "pairs.tsv"
    pairs.write_bytes(b"".join(path.read_bytes() for path in pair_files))
    for mode in ("root", "light"):
        assert run(capsys, "build", "--mode", mode, "-k", "40", str(mini_corpus_dir),
                   "-o", str(tmp_path / f"{mode}.bin"))[0] == 0
    code, out, err = run(capsys, "report", "--corpus", str(mini_corpus_dir), "--pairs", str(pairs),
                         "--modes", "root,light", "-k", "40", "--format", "tsv")
    assert code == 0
    checked, mode = 0, None
    for line in out.splitlines():
        cells = line.split("\t")
        if line.startswith("## stemmer="):
            mode = cells[0][len("## stemmer="):]
        elif mode and "oov=" not in cells[7]:
            words = cells[0][1:-1].split(", ")
            code, sim_out, _ = run(capsys, "sim", "--space", str(tmp_path / f"{mode}.bin"), *words)
            assert code == 0
            assert sim_out.splitlines()[1].split("\t") == cells[3:7], (mode, words)
            checked += 1
    assert checked == 38  # 20 pairs under each of 2 modes; 2 rows have an OOV word


@pytest.mark.parametrize("fmt", ["tsv", "markdown"])
def test_report_reads_every_repeated_pairs_file_in_order(capsys, mini_corpus_dir, pair_files, tmp_path, fmt):
    # the bundled pairs ship as two files; repeating --pairs reads both, as one file of both would be read
    pairs = tmp_path / "pairs.tsv"
    pairs.write_bytes(b"".join(path.read_bytes() for path in pair_files))
    argv = ("report", "--corpus", str(mini_corpus_dir), "-k", "40", "--format", fmt)
    one = run(capsys, *argv, "--pairs", str(pairs))
    repeated = run(capsys, *argv, *(arg for path in pair_files for arg in ("--pairs", str(path))))
    assert one[0] == 0
    assert repeated == one


def test_report_bad_pairs_file(capsys, tiny_corpus, tmp_path):
    pairs = tmp_path / "pairs.tsv"
    pairs.write_text("اب فقط سطر سيء\n", encoding="utf-8")
    code, out, err = run(
        capsys, "report", "--corpus", str(tiny_corpus), "--pairs", str(pairs),
    )
    assert code == 4


def test_report_pairs_file_that_is_not_utf8_is_data_error(capsys, tiny_corpus, tmp_path):
    pairs = tmp_path / "pairs.tsv"
    pairs.write_bytes("السفير\tالسفارة\tSimilar\n".encode() + b"\xff\n")
    code, out, err = run(capsys, "report", "--corpus", str(tiny_corpus), "--pairs", str(pairs))
    assert code == 4
    assert out == ""
    assert f"{pairs}: not UTF-8" in err


@pytest.mark.parametrize("text", ["السفير\tالسفارة\tDifferent\n", "# a comment\nالسفير\tالسفارة\tDifferent\n"])
def test_pairs_file_with_a_byte_order_mark_reports_as_without(capsys, tiny_corpus, tmp_path, text):
    pairs = tmp_path / "pairs.tsv"
    argv = ("report", "--corpus", str(tiny_corpus), "--pairs", str(pairs), "-k", "2", "--format", "tsv")
    pairs.write_text(text, encoding="utf-8")
    expected = run(capsys, *argv)
    assert expected[0] == 0
    pairs.write_bytes(BOM + text.encode())
    assert run(capsys, *argv) == expected


def test_report_warns_on_skipped_file(capsys, tiny_corpus, tmp_path):
    (tiny_corpus / "a" / "bad.txt").write_bytes(b"\xff\xfebroken")
    pairs = tmp_path / "pairs.tsv"
    pairs.write_text("السفير\tالسفارة\tDifferent\n", encoding="utf-8")
    out_file = tmp_path / "report.tsv"
    code, out, err = run(
        capsys, "report", "--corpus", str(tiny_corpus), "--pairs", str(pairs), "-k", "2",
        "-o", str(out_file),
    )
    assert code == 2
    assert out_file.read_text(encoding="utf-8").startswith("# semspace comparison report")
    warnings = [line for line in err.splitlines() if line.startswith("warning: skipped")]
    assert len(warnings) == 1  # once per file, not once per stemmer
    assert "bad.txt" in warnings[0]


def _report_skipping_one_file(capsys, corpus, tmp_path, *argv):
    """A report over `corpus` with one file added that is not UTF-8."""
    (corpus / "bad.txt").write_bytes(b"\xff\xfebroken")
    pairs = tmp_path / "pairs.tsv"
    pairs.write_text("السفير\tالسفارة\tDifferent\n", encoding="utf-8")
    return run(capsys, "report", "--corpus", str(corpus), "--pairs", str(pairs), *argv)


def test_report_warns_on_skipped_file_before_an_empty_corpus(capsys, tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    code, out, err = _report_skipping_one_file(capsys, corpus, tmp_path)
    assert code == 2
    assert out == ""
    warning, error = err.splitlines()
    assert warning.startswith(f"warning: skipped {corpus / 'bad.txt'}: not UTF-8")
    assert error == "semspace: error: empty corpus"


def test_report_warns_on_skipped_file_before_a_bad_k(capsys, tiny_corpus, tmp_path):
    code, out, err = _report_skipping_one_file(capsys, tiny_corpus, tmp_path, "-k", "1000")
    assert code == 1
    assert out == ""
    warning, error = err.splitlines()
    assert warning.startswith(f"warning: skipped {tiny_corpus / 'bad.txt'}: not UTF-8")
    assert error.startswith("semspace: error: k must be in 1..")


def test_build_reads_the_rules_before_the_corpus_pass(capsys, tiny_corpus, tmp_path, monkeypatch):
    def segment_corpus(corpus):
        raise AssertionError("the corpus was segmented before the rules were read")

    monkeypatch.setattr("semspace.cli.segment_corpus", segment_corpus)
    (tiny_corpus / "bad.txt").write_bytes(b"\xff\xfebroken")
    rules = tmp_path / "rules"
    rules.mkdir()
    code, out, err = run(
        capsys, "build", "--mode", "light", "--rules", str(rules), str(tiny_corpus), "-o", str(tmp_path / "space.bin"),
    )
    assert code == 4
    assert out == ""
    warning, error = err.splitlines()
    assert warning.startswith(f"warning: skipped {tiny_corpus / 'bad.txt'}: not UTF-8")
    assert error.startswith("semspace: error: missing rule file: ")
    assert not (tmp_path / "space.bin").exists()


def test_report_unknown_mode(capsys, tiny_corpus, tmp_path):
    pairs = tmp_path / "pairs.tsv"
    pairs.write_text("اب\tجد\tSimilar\n", encoding="utf-8")
    with pytest.raises(SystemExit) as exc_info:
        main(["report", "--corpus", str(tiny_corpus), "--pairs", str(pairs), "--modes", "root,heavy"])
    assert exc_info.value.code == 1
    assert "argument --modes: unknown mode 'heavy' in 'root,heavy'" in capsys.readouterr().err


@pytest.mark.parametrize("modes", ["root,root", "light,root,light", ",", ""])
def test_report_repeated_or_empty_modes(capsys, tiny_corpus, tmp_path, modes):
    pairs = tmp_path / "pairs.tsv"
    pairs.write_text("السفير\tالسفارة\tSimilar\n", encoding="utf-8")
    with pytest.raises(SystemExit) as exc_info:
        main(["report", "--corpus", str(tiny_corpus), "--pairs", str(pairs), "--modes", modes])
    assert exc_info.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--modes" in captured.err


def test_report_repeated_modes_in_config_file(capsys, tiny_corpus, tmp_path):
    pairs = tmp_path / "pairs.tsv"
    pairs.write_text("السفير\tالسفارة\tSimilar\n", encoding="utf-8")
    config = tmp_path / "semspace.conf"
    config.write_text("modes = light, light\n", encoding="utf-8")
    with pytest.raises(SystemExit) as exc_info:
        main(["report", "--corpus", str(tiny_corpus), "--pairs", str(pairs), "--config", str(config)])
    assert exc_info.value.code == 1
    assert f"error: {config}:1: argument --modes: mode 'light' repeated in 'light, light'\n" in capsys.readouterr().err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc_info:
        main(["--version"])
    assert exc_info.value.code == 0

