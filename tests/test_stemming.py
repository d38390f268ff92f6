import pickle
import random
from importlib.resources import files
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semspace import stemming
from semspace.corpus import normalize
from semspace.errors import RuleFormatError
from semspace.stemming import AffixTable, Pattern, StemmerConfig, StemResult, Stripped, make_config

import oracles


@pytest.fixture(scope="module")
def tables():
    config = make_config("root")
    return config.affixes, config.patterns


def _reconstruct(result: StemResult) -> str:
    """Re-attach the stripped parts around the residual."""
    s = result.stripped
    return (s.antefix or "") + (s.prefix or "") + result.residual + (s.suffix or "") + (s.postfix or "")


def _decompose(config, token) -> tuple:
    """Antefix, prefix, core (the root when a template matched, the residual
    otherwise), suffix and postfix."""
    result = config.stem(token)
    s = result.stripped
    return s.antefix, s.prefix, result.output, s.suffix, s.postfix


# --- light stemmer -----------------------------------------------------------

def test_light_iraqi_feminine(light_config):
    result = light_config.stem("العراقية")
    assert result.output == "عراقي"
    assert result.stripped.antefix == "ال"
    assert result.stripped.suffix == "ة"


def test_light_iraqi_masculine_conflates(light_config):
    assert light_config.stem("العراقي").output == "عراقي"


def test_light_fixpoint(light_config):
    result = light_config.stem("قلم")
    assert result.output == "قلم"
    assert result.stripped == type(result.stripped)()


def test_light_sport_riyadh_merge(light_config):
    assert light_config.stem("للرياضة").output == "رياض"
    assert light_config.stem("الرياض").output == "رياض"


def test_light_never_below_min_len(light_config):
    # stripping ال would leave a single letter, so nothing is stripped
    result = light_config.stem("الي")
    assert result.output == "الي"


# --- root stemmer ------------------------------------------------------------

def test_root_ambassador_embassy_conflate(root_config):
    ambassador = root_config.stem("السفير")
    embassy = root_config.stem("السفارة")
    assert ambassador.output == "سفر"
    assert embassy.output == "سفر"
    assert ambassador.pattern == "فعيل"
    assert embassy.pattern == "فعال"


def test_root_bare_root_fixpoint(root_config):
    result = root_config.stem("سفر")
    assert result.output == "سفر"


def test_root_do_you_remember_us(root_config):
    result = root_config.stem("أتتذكروننا")
    assert result.output == "ذكر"
    assert result.stripped.antefix == "أ"
    assert result.stripped.prefix == "تت"
    assert result.stripped.suffix == "ون"
    assert result.stripped.postfix == "نا"


def test_root_organizations_regression(root_config, light_config):
    # pinned output of the shipped rules: the residual منظم matches مفعل
    result = root_config.stem("منظمات")
    assert result.output == "نظم"
    assert result.stripped.suffix == "ات"
    assert light_config.stem("منظمات").output == "منظم"


def test_root_fallback_keeps_residual(root_config):
    # normalized form of the Table-1 word has no matching template: falls back
    result = root_config.stem(normalize("أتتذكروننا"))
    assert result.output == result.residual == "اتتذكر"
    assert result.pattern is None


def test_root_output_length_when_matched(root_config):
    for word in ("السفير", "واستنكاره", "بالامن", "منظمات", "استقرار"):
        result = root_config.stem(word)
        if result.pattern is not None:
            assert 3 <= len(result.output) <= 4


# --- decomposition -----------------------------------------------------------

def test_decompose_bare_word(root_config):
    assert _decompose(root_config, "قلم") == (None, None, "قلم", None, None)


def test_decompose_five_parts(root_config):
    assert _decompose(root_config, "أتتذكروننا") == ("أ", "تت", "ذكر", "ون", "نا")


def test_decompose_waw_religion(root_config):
    # longest-first antefix matching takes the fused form وال, leaving دين
    antefix, _, core, _, _ = _decompose(root_config, "والدين")
    assert antefix == "وال"
    assert core == "دين"


# --- default tables ----------------------------------------------------------

def test_default_antefixes_contain_definite_article(tables):
    affixes, _ = tables
    assert "ال" in affixes.antefixes


def test_default_postfixes_contain_us_pronoun(tables):
    affixes, _ = tables
    assert "نا" in affixes.postfixes


def test_default_pattern_faeel_positions(tables, root_config):
    _, patterns = tables
    matches = [p for p in patterns if p.template == "فعيل"]
    assert len(matches) == 1
    assert matches[0].root_positions == (0, 1, 3)
    assert root_config.stem("سفير").output == "سفر"


def test_only_the_hamza_alif_entries_are_changed_by_normalize(tables, root_config):
    # README "Stemming rules": normalize folds أ to ا before build, sim and report stem, so these never fire there
    affixes, _ = tables
    changed = {(region, entry) for region, entries in vars(affixes).items() for entry in entries
               if normalize(entry) != entry}
    assert changed == {("antefixes", "أ"), ("prefixes", "أ")}
    assert root_config.stem_token("أتتذكروننا") == "ذكر"
    assert root_config.stem_token(normalize("أتتذكروننا")) == "اتتذكر"


def test_tables_consulted_longest_first(tables):
    affixes, _ = tables
    for entries in (affixes.antefixes, affixes.prefixes, affixes.suffixes, affixes.postfixes):
        lengths = [len(e) for e in entries]
        assert lengths == sorted(lengths, reverse=True)


# --- invariants --------------------------------------------------------------

def _fixture_vocabulary(mini_paragraphs):
    seen = []
    known = set()
    for paragraph in mini_paragraphs:
        for token in paragraph.tokens:
            if token not in known:
                known.add(token)
                seen.append(token)
    return seen


def test_determinism(root_config, light_config, mini_paragraphs):
    for token in _fixture_vocabulary(mini_paragraphs)[:200]:
        assert light_config.stem(token) == make_config("light").stem(token)
        assert root_config.stem(token) == make_config("root").stem(token)


def test_light_stemming_idempotent(light_config, mini_paragraphs):
    for token in _fixture_vocabulary(mini_paragraphs):
        once = light_config.stem(token).output
        assert light_config.stem(once).output == once


def test_length_guard(root_config, light_config, mini_paragraphs):
    for token in _fixture_vocabulary(mini_paragraphs):
        stem = light_config.stem(token)
        assert len(stem.output) >= stemming.MIN_STEM_LEN or stem.output == token
        root = root_config.stem(token)
        if root.pattern is not None:
            assert 3 <= len(root.output) <= 4


def test_conflation_monotonicity(root_config, light_config, mini_paragraphs):
    """Every light-stem class must sit inside a single root-stem class."""
    root_of_light_class: dict[str, str] = {}
    for token in _fixture_vocabulary(mini_paragraphs):
        light = light_config.stem(token).output
        root = root_config.stem(token).output
        assert root_of_light_class.setdefault(light, root) == root, token


def test_reconstruction(root_config, light_config, mini_paragraphs):
    words = _fixture_vocabulary(mini_paragraphs) + ["أتتذكروننا", "والدين", "للرياضة"]
    for token in words:
        assert _reconstruct(light_config.stem(token)) == token
        assert _reconstruct(root_config.stem(token)) == token


@pytest.mark.parametrize("first", ["stem_token", "stem"])
@pytest.mark.parametrize("mode", stemming.MODES)
def test_config_pickles_after_stemming(mode, first, mini_paragraphs):
    # a config caches what it stems with, and all of it must pickle
    config = make_config(mode)
    vocabulary = _fixture_vocabulary(mini_paragraphs)
    getattr(config, first)(vocabulary[0])
    copy = pickle.loads(pickle.dumps(config))
    assert copy == config
    for token in vocabulary:
        assert copy.stem_token(token) == config.stem_token(token)
        assert copy.stem(token) == config.stem(token)


# --- properties over affix-wrapped tokens ------------------------------------

_LETTERS = "".join(chr(c) for c in range(0x0621, 0x064B) if c != 0x0640)  # Arabic letters, no tatweel


def _wrapped_token(data, affixes, core=None) -> str:
    """A core, random unless given, between random stacks of the shipped
    front and back affixes."""
    def stack(entries):
        return "".join(data.draw(st.lists(st.sampled_from(entries), max_size=3)))

    front = stack(affixes.antefixes + affixes.prefixes)
    if core is None:
        core = data.draw(st.text(alphabet=_LETTERS, max_size=6))
    return front + core + stack(affixes.suffixes + affixes.postfixes)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_stemming_properties_on_stacked_affixes(root_config, light_config, data):
    token = _wrapped_token(data, light_config.affixes)
    light = light_config.stem(token)
    root = root_config.stem(token)
    assert _reconstruct(light) == token
    assert _reconstruct(root) == token
    assert light_config.stem(light.output).output == light.output
    # root classes are coarser: the root of a token is the root of its light stem
    assert root_config.stem(light.output).output == root.output
    assert len(light.output) >= stemming.MIN_STEM_LEN or light.output == token
    assert len(root.output) >= stemming.MIN_STEM_LEN or root.output == token


def _strip_matches_reference(token, affixes):
    result = StemmerConfig("light", affixes).stem(token)
    stripped, residual = result.stripped, result.residual
    assert (stripped.antefix, stripped.prefix, stripped.suffix, stripped.postfix, residual) == (
        oracles.strip_affixes(token, affixes)
    )


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_strip_matches_reference_on_shipped_affixes(tables, data):
    affixes, _ = tables
    _strip_matches_reference(_wrapped_token(data, affixes), affixes)


_REGEX_LETTERS = ".*+?()[\\|\nاب"  # regex syntax, a newline and two plain letters


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_strip_matches_reference_on_tables_of_regex_syntax(data):
    # Entries that are prefixes and suffixes of one another, in any order.
    words = st.text(alphabet=_REGEX_LETTERS, min_size=1, max_size=4)
    entries = {}
    for word in data.draw(st.lists(words, min_size=1, max_size=4)):
        cut = data.draw(st.integers(0, len(word)))
        entries.update(dict.fromkeys(e for e in (word, word[:cut], word[cut:]) if e))
    entries = list(entries)
    tables = [tuple(data.draw(st.permutations(entries))[: data.draw(st.integers(0, len(entries)))])
              for _ in range(4)]
    affixes = AffixTable(*tables)
    pieces = st.lists(st.sampled_from(entries), max_size=3).map("".join)
    token = data.draw(pieces) + data.draw(st.text(alphabet=_REGEX_LETTERS, max_size=4)) + data.draw(pieces)
    _strip_matches_reference(token, affixes)


def _filled(data, pattern, alphabet, keep_literals=True) -> str:
    """The pattern's template with random letters at its root positions and,
    unless keep_literals, at each literal position half of the time."""
    def letter(i, ch):
        if i in pattern.root_positions or (not keep_literals and data.draw(st.booleans())):
            return data.draw(st.sampled_from(alphabet))
        return ch

    return "".join(letter(i, ch) for i, ch in enumerate(pattern.template))


def _root_matches_reference(config, token):
    result = config.stem(token)
    antefix, prefix, suffix, postfix, residual = oracles.strip_affixes(token, config.affixes)
    root, template = oracles.match_root(residual, config.patterns) or (residual, None)
    assert (result.output, result.kind, result.stripped, result.residual, result.pattern) == (
        root, stemming.KIND_ROOT, Stripped(antefix, prefix, suffix, postfix), residual, template,
    )


def test_root_stem_matches_reference_on_the_vocabulary(root_config, mini_paragraphs):
    for token in _fixture_vocabulary(mini_paragraphs):
        _root_matches_reference(root_config, token)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_root_stem_matches_reference_on_wrapped_template_cores(root_config, data):
    # a filled-in template makes most residuals fit some template
    pattern = data.draw(st.sampled_from(root_config.patterns))
    core = _filled(data, pattern, _LETTERS) if data.draw(st.booleans()) else None
    _root_matches_reference(root_config, _wrapped_token(data, root_config.affixes, core))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_root_match_matches_reference_on_templates_of_regex_syntax(data):
    patterns = []
    for template in data.draw(st.lists(st.text(alphabet=_REGEX_LETTERS, min_size=3, max_size=5), min_size=1, max_size=6)):
        k = data.draw(st.integers(3, min(4, len(template))))
        positions = data.draw(st.sets(st.integers(0, len(template) - 1), min_size=k, max_size=k))
        patterns.append(Pattern(template, tuple(sorted(positions))))
    patterns = tuple(patterns)
    residual = _filled(data, data.draw(st.sampled_from(patterns)), _REGEX_LETTERS, keep_literals=False)
    expected = oracles.match_root(residual, patterns)
    no_affixes = AffixTable((), (), (), ())
    result = StemmerConfig("root", no_affixes, patterns).stem(residual)
    assert (result.output, result.pattern) == (expected or (residual, None))
    for pattern in patterns:
        single = StemmerConfig("root", no_affixes, (pattern,)).stem(residual)
        assert (single.output if single.pattern else None) == (oracles.match_root(residual, (pattern,)) or (None,))[0]


def _stem_matches_region_oracle(config, token):
    antefix, prefix, suffix, postfix, residual = oracles.strip_affixes_by_region(token, config.affixes)
    output, kind, template = residual, stemming.KIND_STEM, None
    if config.mode == "root":
        kind = stemming.KIND_ROOT
        output, template = oracles.match_root(residual, config.patterns) or (residual, None)
    expected = StemResult(token, output, kind, Stripped(antefix, prefix, suffix, postfix), residual, template)
    assert config.stem(token) == expected
    assert config.stem_token(token) == output


def _seeded_scale_tokens(mini_paragraphs, affixes, seed=3, count=3000):
    """Bundled-corpus words between seeded stacks of up to two shipped front and back affixes."""
    rng = random.Random(seed)
    bases = _fixture_vocabulary(mini_paragraphs)

    def stack(entries):
        return "".join(rng.choices(entries, k=rng.randint(0, 2)))

    fronts, backs = affixes.antefixes + affixes.prefixes, affixes.suffixes + affixes.postfixes
    return [stack(fronts) + rng.choice(bases) + stack(backs) for _ in range(count)]


@pytest.mark.parametrize("mode", stemming.MODES)
def test_stem_matches_region_oracle_on_bundled_and_scale_tokens(mode, mini_paragraphs):
    config = make_config(mode)
    shipped = make_config("light").affixes  # mode none's tables are empty: wrap its words in the shipped ones
    for token in _fixture_vocabulary(mini_paragraphs) + _seeded_scale_tokens(mini_paragraphs, shipped):
        _stem_matches_region_oracle(config, token)


_SHIPPED = make_config("light").affixes
_AFFIX_LETTERS = "".join(sorted({ch for e in _SHIPPED.antefixes + _SHIPPED.prefixes + _SHIPPED.suffixes
                                 + _SHIPPED.postfixes for ch in e}))


@settings(max_examples=500, deadline=None)
@given(word=st.text(alphabet=_AFFIX_LETTERS + "سفر", min_size=1, max_size=12))
def test_stem_matches_region_oracle_on_words_over_the_affix_letters(root_config, light_config, word):
    _stem_matches_region_oracle(root_config, word)
    _stem_matches_region_oracle(light_config, word)


# --- rule data loading -------------------------------------------------------

def test_pattern_rejects_bad_positions():
    with pytest.raises(RuleFormatError):
        Pattern("فعيل", (0, 1))
    with pytest.raises(RuleFormatError):
        Pattern("فعل", (0, 2, 1))
    with pytest.raises(RuleFormatError):
        Pattern("فعل", (0, 1, 9))
    with pytest.raises(RuleFormatError, match="position out of range"):
        Pattern("فعلل", (-1, 0, 1))


def test_load_rejects_malformed_pattern_line(tmp_path):
    for name in ("antefixes.txt", "prefixes.txt", "suffixes.txt", "postfixes.txt"):
        (tmp_path / name).write_text("", encoding="utf-8")  # so the error can only come from patterns.txt
    (tmp_path / "patterns.txt").write_text("فعل\t0,1\t2\n", encoding="utf-8")
    with pytest.raises(RuleFormatError, match="patterns.txt:1"):
        make_config("root", tmp_path)
    (tmp_path / "patterns.txt").write_text("# templates\nفعل\t0,x,2\n", encoding="utf-8")
    with pytest.raises(RuleFormatError, match="patterns.txt:2: positions must be integers"):
        make_config("root", tmp_path)


@pytest.mark.parametrize("mode, message", [("bogus", "unknown stemmer mode: 'bogus'"),
                                           ("root", "root mode requires pattern rules")])
def test_config_rejects_an_unknown_mode_and_root_without_patterns(mode, message):
    with pytest.raises(ValueError, match=message):
        StemmerConfig(mode)


@pytest.mark.parametrize("name", ["antefixes.txt", "patterns.txt"])
def test_load_rejects_rule_file_that_is_not_utf8(tmp_path, name):
    for other in ("antefixes.txt", "prefixes.txt", "suffixes.txt", "postfixes.txt", "patterns.txt"):
        (tmp_path / other).write_text("", encoding="utf-8")
    (tmp_path / name).write_bytes(b"\xff\xfe\n")
    with pytest.raises(RuleFormatError, match=f"{name}: not UTF-8"):
        make_config("root", tmp_path)


def test_edited_rule_file_is_parsed_again(tmp_path):
    # one config per rule files' bytes, which are read on every call
    shipped = stemming.RULES_DIR
    for name in stemming.RULE_FILES:
        (tmp_path / name).write_bytes((shipped / name).read_bytes())
    first = make_config("root", tmp_path)
    again = make_config("root", tmp_path)
    assert again is first
    assert again.patterns is first.patterns and again.affixes is first.affixes
    (tmp_path / "patterns.txt").write_text("فعل\t0,1,2\n", encoding="utf-8")
    (tmp_path / "prefixes.txt").write_text("ست\n", encoding="utf-8")
    edited = make_config("root", tmp_path)
    assert edited is not first and edited != first
    assert edited.patterns == (Pattern("فعل", (0, 1, 2)),)
    assert edited.affixes.prefixes == ("ست",)
    assert edited.affixes.antefixes == first.affixes.antefixes
    assert edited.rules_fingerprint != first.rules_fingerprint
    for name in ("patterns.txt", "prefixes.txt"):
        (tmp_path / name).write_bytes((shipped / name).read_bytes())
    assert make_config("root", tmp_path) is first
    (tmp_path / "patterns.txt").write_text("فعل\t0,1\n", encoding="utf-8")
    with pytest.raises(RuleFormatError, match="needs 3 or 4 root positions"):
        make_config("root", tmp_path)


def test_mode_none_config_is_one_shared_config(tmp_path):
    assert make_config("none") is make_config("none") is make_config("none", tmp_path / "absent")


def test_a_str_rules_dir_reads_as_its_path(tmp_path):
    for name in stemming.RULE_FILES:
        (tmp_path / name).write_bytes((stemming.RULES_DIR / name).read_bytes())
    assert make_config("root", str(tmp_path)) is make_config("root", tmp_path)
    (tmp_path / "suffixes.txt").unlink()
    with pytest.raises(RuleFormatError, match="missing rule file: .*suffixes.txt"):
        make_config("light", str(tmp_path))


def _rules_dir(path, **texts):
    """A rules directory with every rule file empty but those given, by stem."""
    for name in stemming.RULE_FILES:
        (path / name).write_text(texts.get(name[:-4], ""), encoding="utf-8")
    return path


def test_rule_table_lines_load_once_longest_first(tmp_path):
    prefixes = "\ufeffت\n\n# a comment line\n   \nست  # a trailing comment\nي\nت\nاست\nن#\n"
    config = make_config("light", _rules_dir(tmp_path, prefixes=prefixes))
    assert config.affixes.prefixes == ("است", "ست", "ت", "ي", "ن")
    assert config.affixes.antefixes == config.affixes.suffixes == config.affixes.postfixes == ()


def test_light_config_does_not_parse_patterns(tmp_path):
    rules_dir = _rules_dir(tmp_path, patterns="فعل\t0,1\t2\n")
    malformed = make_config("light", rules_dir)
    with pytest.raises(RuleFormatError, match="patterns.txt:1"):
        make_config("root", rules_dir)
    (rules_dir / "patterns.txt").write_text("فعل\t0,1,2\n", encoding="utf-8")
    wellformed = make_config("light", rules_dir)
    (rules_dir / "patterns.txt").unlink()
    absent = make_config("light", rules_dir)
    assert absent.patterns is malformed.patterns is wellformed.patterns is None
    assert absent.affixes == malformed.affixes == wellformed.affixes
    fingerprints = {c.rules_fingerprint for c in (malformed, wellformed, absent)}
    assert len(fingerprints) == 3


def test_default_rules_dir_is_the_package_data():
    assert stemming.RULES_DIR == Path(str(files("semspace") / "data" / "rules"))


@pytest.mark.parametrize("mode", ["root", "light"])
def test_default_rules_dir_gives_the_config_of_no_rules_dir(mode):
    implicit = make_config(mode)
    for rules_dir in (stemming.RULES_DIR, Path(str(files("semspace") / "data" / "rules"))):
        explicit = make_config(mode, rules_dir)
        assert explicit.rules_fingerprint == implicit.rules_fingerprint
        assert explicit.affixes == implicit.affixes
        assert explicit.patterns == implicit.patterns


def test_load_rejects_missing_file(tmp_path):
    with pytest.raises(RuleFormatError, match="missing rule file"):
        make_config("light", tmp_path)
    for name in ("prefixes.txt", "suffixes.txt", "postfixes.txt"):
        (tmp_path / name).write_text("", encoding="utf-8")
    (tmp_path / "antefixes.txt").mkdir()  # a directory is not a rule file
    with pytest.raises(RuleFormatError, match="missing rule file: .*antefixes.txt"):
        make_config("light", tmp_path)
    with pytest.raises(RuleFormatError, match="missing rule file"):  # nor is a file a rules directory
        make_config("light", tmp_path / "prefixes.txt")
