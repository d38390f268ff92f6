import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semspace import stemming
from semspace.corpus import normalize
from semspace.errors import RuleFormatError
from semspace.stemming import (
    AffixTable,
    Pattern,
    Stripped,
    decompose,
    default_tables,
    light_stem,
    make_config,
    root_stem,
)

import oracles


@pytest.fixture(scope="module")
def tables():
    return default_tables()


# --- light stemmer -----------------------------------------------------------

def test_light_iraqi_feminine(tables):
    affixes, _ = tables
    result = light_stem("العراقية", affixes)
    assert result.output == "عراقي"
    assert result.stripped.antefix == "ال"
    assert result.stripped.suffix == "ة"


def test_light_iraqi_masculine_conflates(tables):
    affixes, _ = tables
    assert light_stem("العراقي", affixes).output == "عراقي"


def test_light_fixpoint(tables):
    affixes, _ = tables
    result = light_stem("قلم", affixes)
    assert result.output == "قلم"
    assert result.stripped == type(result.stripped)()


def test_light_sport_riyadh_merge(tables):
    affixes, _ = tables
    assert light_stem("للرياضة", affixes).output == "رياض"
    assert light_stem("الرياض", affixes).output == "رياض"


def test_light_never_below_min_len(tables):
    affixes, _ = tables
    # stripping ال would leave a single letter, so nothing is stripped
    result = light_stem("الي", affixes)
    assert result.output == "الي"


# --- root stemmer ------------------------------------------------------------

def test_root_ambassador_embassy_conflate(tables):
    affixes, patterns = tables
    ambassador = root_stem("السفير", affixes, patterns)
    embassy = root_stem("السفارة", affixes, patterns)
    assert ambassador.output == "سفر"
    assert embassy.output == "سفر"
    assert ambassador.pattern == "فعيل"
    assert embassy.pattern == "فعال"


def test_root_bare_root_fixpoint(tables):
    affixes, patterns = tables
    result = root_stem("سفر", affixes, patterns)
    assert result.output == "سفر"


def test_root_do_you_remember_us(tables):
    affixes, patterns = tables
    result = root_stem("أتتذكروننا", affixes, patterns)
    assert result.output == "ذكر"
    assert result.stripped.antefix == "أ"
    assert result.stripped.prefix == "تت"
    assert result.stripped.suffix == "ون"
    assert result.stripped.postfix == "نا"


def test_root_organizations_regression(tables):
    # pinned output of the shipped rules: the residual منظم matches مفعل
    affixes, patterns = tables
    result = root_stem("منظمات", affixes, patterns)
    assert result.output == "نظم"
    assert result.stripped.suffix == "ات"
    assert light_stem("منظمات", affixes).output == "منظم"


def test_root_fallback_keeps_residual(tables):
    affixes, patterns = tables
    # normalized form of the Table-1 word has no matching template: falls back
    result = root_stem(normalize("أتتذكروننا"), affixes, patterns)
    assert result.output == result.residual == "اتتذكر"
    assert result.pattern is None


def test_root_output_length_when_matched(tables):
    affixes, patterns = tables
    for word in ("السفير", "واستنكاره", "بالامن", "منظمات", "استقرار"):
        result = root_stem(word, affixes, patterns)
        if result.pattern is not None:
            assert 3 <= len(result.output) <= 4


# --- decompose ---------------------------------------------------------------

def test_decompose_bare_word(tables):
    affixes, patterns = tables
    parts = decompose("قلم", affixes, patterns)
    assert (parts.antefix, parts.prefix, parts.core, parts.suffix, parts.postfix) == (
        None, None, "قلم", None, None,
    )


def test_decompose_five_parts(tables):
    affixes, patterns = tables
    parts = decompose("أتتذكروننا", affixes, patterns)
    assert (parts.antefix, parts.prefix, parts.core, parts.suffix, parts.postfix) == (
        "أ", "تت", "ذكر", "ون", "نا",
    )


def test_decompose_waw_religion(tables):
    # longest-first antefix matching takes the fused form وال, leaving دين
    affixes, patterns = tables
    parts = decompose("والدين", affixes, patterns)
    assert parts.antefix == "وال"
    assert parts.core == "دين"


# --- default tables ----------------------------------------------------------

def test_default_antefixes_contain_definite_article(tables):
    affixes, _ = tables
    assert "ال" in affixes.antefixes


def test_default_postfixes_contain_us_pronoun(tables):
    affixes, _ = tables
    assert "نا" in affixes.postfixes


def test_default_pattern_faeel_positions(tables):
    _, patterns = tables
    matches = [p for p in patterns if p.template == "فعيل"]
    assert len(matches) == 1
    assert matches[0].root_positions == (0, 1, 3)
    assert matches[0].match("سفير") == "سفر"


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


def test_determinism(tables, mini_paragraphs):
    affixes, patterns = tables
    for token in _fixture_vocabulary(mini_paragraphs)[:200]:
        assert light_stem(token, affixes) == light_stem(token, affixes)
        assert root_stem(token, affixes, patterns) == root_stem(token, affixes, patterns)


def test_light_stemming_idempotent(tables, mini_paragraphs):
    affixes, _ = tables
    for token in _fixture_vocabulary(mini_paragraphs):
        once = light_stem(token, affixes).output
        assert light_stem(once, affixes).output == once


def test_length_guard(tables, mini_paragraphs):
    affixes, patterns = tables
    for token in _fixture_vocabulary(mini_paragraphs):
        stem = light_stem(token, affixes)
        assert len(stem.output) >= stemming.MIN_STEM_LEN or stem.output == token
        root = root_stem(token, affixes, patterns)
        if root.pattern is not None:
            assert 3 <= len(root.output) <= 4


def test_conflation_monotonicity(tables, mini_paragraphs):
    """Every light-stem class must sit inside a single root-stem class."""
    affixes, patterns = tables
    root_of_light_class: dict[str, str] = {}
    for token in _fixture_vocabulary(mini_paragraphs):
        light = light_stem(token, affixes).output
        root = root_stem(token, affixes, patterns).output
        assert root_of_light_class.setdefault(light, root) == root, token


def test_reconstruction(tables, mini_paragraphs):
    affixes, patterns = tables
    words = _fixture_vocabulary(mini_paragraphs) + ["أتتذكروننا", "والدين", "للرياضة"]
    for token in words:
        assert light_stem(token, affixes).reconstruct() == token
        assert root_stem(token, affixes, patterns).reconstruct() == token


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
def test_stemming_properties_on_stacked_affixes(tables, data):
    affixes, patterns = tables
    token = _wrapped_token(data, affixes)
    light = light_stem(token, affixes)
    root = root_stem(token, affixes, patterns)
    assert light.reconstruct() == token
    assert root.reconstruct() == token
    assert light_stem(light.output, affixes).output == light.output
    # root classes are coarser: the root of a token is the root of its light stem
    assert root_stem(light.output, affixes, patterns).output == root.output
    assert len(light.output) >= stemming.MIN_STEM_LEN or light.output == token
    assert len(root.output) >= stemming.MIN_STEM_LEN or root.output == token


def _strip_matches_reference(token, affixes):
    stripped, residual = stemming._strip_affixes(token, affixes)
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
    result = root_stem(residual, AffixTable((), (), (), ()), patterns)
    assert (result.output, result.pattern) == (expected or (residual, None))
    for pattern in patterns:
        assert pattern.match(residual) == (oracles.match_root(residual, (pattern,)) or (None,))[0]


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


@pytest.mark.parametrize("name", ["antefixes.txt", "patterns.txt"])
def test_load_rejects_rule_file_that_is_not_utf8(tmp_path, name):
    for other in ("antefixes.txt", "prefixes.txt", "suffixes.txt", "postfixes.txt", "patterns.txt"):
        (tmp_path / other).write_text("", encoding="utf-8")
    (tmp_path / name).write_bytes(b"\xff\xfe\n")
    with pytest.raises(RuleFormatError, match=f"{name}: not UTF-8"):
        make_config("root", tmp_path)


def test_edited_rule_file_is_parsed_again(tmp_path):
    # the parsed tables are memoized on the rule files' bytes, which are read on every call
    shipped = stemming.default_rules_dir()
    for name in stemming.RULE_FILES:
        (tmp_path / name).write_bytes((shipped / name).read_bytes())
    first = make_config("root", tmp_path)
    again = make_config("root", tmp_path)
    assert again.patterns is first.patterns and again.affixes is first.affixes
    (tmp_path / "patterns.txt").write_text("فعل\t0,1,2\n", encoding="utf-8")
    (tmp_path / "prefixes.txt").write_text("ست\n", encoding="utf-8")
    edited = make_config("root", tmp_path)
    assert edited.patterns == (Pattern("فعل", (0, 1, 2)),)
    assert edited.affixes.prefixes == ("ست",)
    assert edited.affixes.antefixes == first.affixes.antefixes
    assert edited.rules_fingerprint != first.rules_fingerprint
    (tmp_path / "patterns.txt").write_text("فعل\t0,1\n", encoding="utf-8")
    with pytest.raises(RuleFormatError, match="needs 3 or 4 root positions"):
        make_config("root", tmp_path)


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
