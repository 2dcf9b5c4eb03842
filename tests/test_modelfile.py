import random
import time

import pytest
from hypothesis import given, strategies as st

import helpers
from fuzzts import (
    SCALE,
    Degree,
    Fts,
    FuzzyAutomaton,
    FuzzySet,
    ParseError,
    Relation,
    StateMap,
    parallel_compose,
    parse_map,
    parse_model,
    parse_relation,
    serialize_map,
    serialize_model,
    serialize_relation,
)

CHOICE_LATE_TEXT = """\
system choice_late
states: s0 s1 s2 s3
labels: a b c
init: s0
trans: s0 a 0.9 s1
trans: s1 b 0.8 s2
trans: s1 c 0.7 s3
"""


def test_parse_fixture_text(choice_late):
    model = parse_model(CHOICE_LATE_TEXT)
    assert isinstance(model, Fts)
    assert model == choice_late
    assert model.name == "choice_late"


def test_serialize_is_canonical(choice_late):
    assert serialize_model(choice_late) == CHOICE_LATE_TEXT


def test_round_trip_parse_serialize(dup_branch, twin_fork):
    for f in (dup_branch, twin_fork):
        assert parse_model(serialize_model(f)) == f
    # and in the other direction on canonical text
    assert serialize_model(parse_model(CHOICE_LATE_TEXT)) == CHOICE_LATE_TEXT


def test_round_trip_random_systems():
    rng = random.Random(424242)
    for _ in range(20):
        f = helpers.random_fts(rng, rng.randint(1, 5), ["a", "b"])
        assert parse_model(serialize_model(f)) == f


def test_building_ten_thousand_states_is_linear():
    """10^4 states and 5*10^4 edges: building from triples, parsing the
    serialized file and comparing the two systems take well under a second
    each when construction and equality are linear, and over five seconds
    each when every image costs O(|S|)."""
    rng = random.Random(10_000)
    states = [f"s{i}" for i in range(10_000)]
    edges: dict[tuple[str, str, str], str] = {}
    while len(edges) < 50_000:
        key = (rng.choice(states), rng.choice("ab"), rng.choice(states))
        edges[key] = rng.choice(helpers.NONZERO_DEGREES)
    triples = [(s, a, degree, t) for (s, a, t), degree in edges.items()]
    start = time.perf_counter()
    f = Fts.from_triples(states, ["a", "b"], "s0", triples)
    text = serialize_model(f)
    again = parse_model(text)
    assert again == f
    seconds = time.perf_counter() - start
    assert sum(1 for _ in again.transitions()) == 50_000
    assert serialize_model(again) == text
    assert seconds < 4.0


def test_comments_and_blank_lines():
    text = (
        "# a model\n\nsystem demo   # trailing comment\n"
        "states: s0 s1\n\nlabels: a\ninit: s0\n"
        "trans: s0 a 0.5 s1  # the only edge\n"
    )
    model = parse_model(text)
    assert model.degree("s0", "a", "s1") == Degree.parse("0.5")


def test_final_lines_make_an_automaton(choice_late):
    text = CHOICE_LATE_TEXT + "final: s2 0.5\nfinal: s3 1\n"
    model = parse_model(text)
    assert isinstance(model, FuzzyAutomaton)
    assert model.base == choice_late
    assert model.final("s2") == Degree.parse("0.5")
    assert serialize_model(model) == text


def test_degree_minimal_form_on_output():
    text = (
        "system m\nstates: s0 s1\nlabels: a\ninit: s0\n"
        "trans: s0 a 0.800000000 s1\n"
    )
    assert "trans: s0 a 0.8 s1" in serialize_model(parse_model(text))


def test_composed_model_round_trips(choice_late, twin_fork):
    product = parallel_compose(choice_late, twin_fork)
    assert parse_model(serialize_model(product)) == product


def test_all_zero_final_collapses_to_plain_system():
    # degenerate corner: a zero-only final set is dropped on output, so the
    # reparse is a plain Fts with the same base
    text = "system m\nstates: s0\nlabels: a\ninit: s0\nfinal: s0 0\n"
    model = parse_model(text)
    assert isinstance(model, FuzzyAutomaton)
    again = parse_model(serialize_model(model))
    assert isinstance(again, Fts) and not isinstance(again, FuzzyAutomaton)
    assert again == model.base


@pytest.mark.parametrize(
    "text, line, fragment",
    [
        ("", 1, "missing 'system NAME' header"),
        ("# only comments\n", 1, "missing 'system NAME' header"),
        ("states: s0\n", 1, "expected 'system NAME' header"),
        ("system m\nlabels: a\n", 2, "missing 'states:'"),
        ("system m\nstates: s0\ninit: s0\n", 3, "missing 'labels:'"),
        ("system m\nstates: s0\nlabels: a\n", 3, "missing 'init:'"),
        ("system m\nstates: s0\nstates: s1\n", 3, "duplicate 'states:'"),
        ("system m\nstates: s0\nlabels: a\nlabels: b\n", 4, "duplicate 'labels:'"),
        ("system m\nstates: s0\nlabels: a\ninit: s0\ninit: s0\n", 5, "duplicate 'init:'"),
        ("system m\nstates:\n", 2, "no states"),
        ("system m\nstates: s0 s0\n", 2, "duplicate state"),
        ("system m\nstates: s0\nlabels: a a\n", 3, "duplicate label"),
        ("system m\ninit: s0\n", 2, "'states:' must come before"),
        ("system m\nstates: s0\nlabels: a\ninit: s1\n", 4, "unknown state 's1'"),
        ("system m\nstates: s0\nlabels: a\ninit: s0 s0\n", 4, "expected 'init: STATE'"),
        ("system m\nstates: s0\ntrans: s0 a 1 s0\n", 3, "must come before 'trans:'"),
        ("system m\nstates: s0\nlabels: a\ninit: s0\ntrans: s0 a s0\n", 5,
         "expected 'trans: SRC LABEL DEGREE DST'"),
        ("system m\nstates: s0\nlabels: a\ninit: s0\ntrans: s1 a 1 s0\n", 5,
         "unknown state 's1'"),
        ("system m\nstates: s0\nlabels: a\ninit: s0\ntrans: s0 b 1 s0\n", 5,
         "unknown label 'b'"),
        ("system m\nstates: s0\nlabels: a\ninit: s0\ntrans: s0 a 1 s1\n", 5,
         "unknown state 's1'"),
        ("system m\nstates: s0\nlabels: a\ninit: s0\n"
         "trans: s0 a 1 s0\ntrans: s0 a 0.5 s0\n", 6, "duplicate transition"),
        ("system m\nstates: s0\nlabels: a\ninit: s0\n"
         "trans: s0 a 0 s0\ntrans: s0 a 0 s0\n", 6, "duplicate transition"),
        ("system m\nstates: s0\nlabels: a\ninit: s0\ntrans: s0 a 1.5 s0\n", 5,
         "out of range"),
        ("system m\nstates: s0\nlabels: a\ninit: s0\ntrans: s0 a 0.8000000001 s0\n",
         5, "degree precision"),
        pytest.param(
            "system m\nstates: s0\nlabels: a\ninit: s0\ntrans: s0 a " + "0" * 5000 + "2 s0\n",
            5, "out of range", id="trans-5000-zeros-then-2",
        ),
        pytest.param(
            "system m\nstates: s0\nlabels: a\ninit: s0\nfinal: s0 " + "1" * 5000 + "\n",
            5, "out of range", id="final-5000-ones",
        ),
        ("system m\nstates: s0\nlabels: a\ninit: s0\nfinal: s0\n", 5,
         "expected 'final: STATE DEGREE'"),
        ("system m\nstates: s0\nlabels: a\ninit: s0\nfinal: s1 1\n", 5,
         "unknown state 's1'"),
        ("system m\nstates: s0\nlabels: a\ninit: s0\nfinal: s0 1\nfinal: s0 0.5\n",
         6, "duplicate final degree"),
        ("system m\nstates: s0\nlabels: a\ninit: s0\nbogus: x\n", 5,
         "unknown directive"),
        ("system m\nstates: s0\nlabels: a\ninit: s0\njust words\n", 5,
         "expected 'DIRECTIVE: ...'"),
        ("system m\nstates: s:0\n", 2, "state"),
        ("system m\nstates: s0\nlabels: a\ninit: s0\ntrans: s0 a \u0660.\u0665 s0\n", 5,
         "not a decimal degree literal"),
        ("system m\nstates: s0\nlabels: a\ninit: s0\nfinal: s0 \uff11\n", 5,
         "not a decimal degree literal"),
        ("system m\nstates: s0\nlabels: a b:c\n", 3, "bad label identifier: 'b:c'"),
        ("# a model\n\n# named below\nsystem a:b\n", 4,
         "bad system name identifier: 'a:b'"),
        ("system m\nstates: s0\nlabels: a\ninit: s0\nfinal: s0 2\ntrans: s0 a 1 s0\n",
         5, "degree out of range: '2'"),
    ],
)
def test_parse_errors_carry_line_numbers(text, line, fragment):
    with pytest.raises(ParseError) as err:
        parse_model(text)
    assert err.value.line == line
    assert fragment in str(err.value)
    assert str(err.value).startswith(f"line {line}:")


def test_relation_file_round_trip(skew_pair):
    left, right, rel = skew_pair
    text = serialize_relation(rel)
    assert text == "rel: s0 t0\nrel: s1 u1\nrel: s2 u1\nrel: s2 u2\n"
    assert parse_relation(text, left.states, right.states) == rel
    assert serialize_relation(Relation({"a"}, {"b"}, set())) == ""


def test_relation_file_errors(skew_pair):
    left, right, _ = skew_pair
    with pytest.raises(ParseError) as err:
        parse_relation("rel: s0\n", left.states, right.states)
    assert err.value.line == 1
    with pytest.raises(ParseError, match="unknown left state"):
        parse_relation("rel: zz t0\n", left.states, right.states)
    with pytest.raises(ParseError, match="unknown right state"):
        parse_relation("rel: s0 zz\n", left.states, right.states)


def test_map_file_round_trip(dup_branch):
    table = {"s0": "s0", "s1": "s0", "s2": "s0", "s3": "s3", "s4": "s3"}
    fmap = StateMap(table, dup_branch.states, dup_branch.states)
    text = serialize_map(fmap)
    assert parse_map(text, dup_branch.states, dup_branch.states) == fmap


def test_map_file_errors(dup_branch):
    states = dup_branch.states
    with pytest.raises(ParseError, match="expected 'map: LEFT -> RIGHT'"):
        parse_map("map: s0 s1\n", states, states)
    with pytest.raises(ParseError, match="unknown domain state"):
        parse_map("map: zz -> s0\n", states, states)
    with pytest.raises(ParseError, match="unknown codomain state"):
        parse_map("map: s0 -> zz\n", states, states)
    with pytest.raises(ParseError, match="conflicting entries"):
        parse_map("map: s0 -> s1\nmap: s0 -> s2\n", states, states)
    with pytest.raises(ParseError, match="not total"):
        parse_map("map: s0 -> s0\n", states, states)


def test_empty_label_set_round_trips():
    f = Fts.from_triples(["s0"], [], "s0", [])
    text = serialize_model(f)
    assert "labels:\n" in text
    assert parse_model(text) == f


# identifiers mixing a letter, a digit, the underscore and the prime with
# every reserved character: ( ) [ ] ,
ident = st.text(alphabet="ab0_'()[],", min_size=1, max_size=4)
ident_lists = st.lists(ident, min_size=1, max_size=4, unique=True)
positive_degrees = st.integers(1, SCALE).map(Degree)


@st.composite
def models(draw, automaton: bool):
    states = draw(ident_lists)
    labels = draw(st.lists(ident, max_size=3, unique=True))
    keys = draw(st.lists(
        st.tuples(st.sampled_from(states), st.sampled_from(labels), st.sampled_from(states)),
        max_size=8, unique=True,
    )) if labels else []
    triples = [(s, a, draw(positive_degrees), t) for s, a, t in keys]
    base = Fts.from_triples(states, labels, draw(st.sampled_from(states)), triples, name=draw(ident))
    if not automaton:
        return base
    finals = draw(st.dictionaries(st.sampled_from(states), positive_degrees, min_size=1))
    return FuzzyAutomaton(base, FuzzySet(base.states, finals))


@pytest.mark.parametrize("automaton", [False, True])
@given(data=st.data())
def test_model_round_trip_property(automaton, data):
    model = data.draw(models(automaton))
    text = serialize_model(model)
    parsed = parse_model(text)
    assert parsed == model
    assert serialize_model(parsed) == text


@given(ident_lists, ident_lists, st.data())
def test_relation_file_round_trip_property(left, right, data):
    pairs = data.draw(st.sets(st.tuples(st.sampled_from(left), st.sampled_from(right))))
    rel = Relation(left, right, pairs)
    assert parse_relation(serialize_relation(rel), left, right) == rel


@given(ident_lists, ident_lists, st.data())
def test_map_file_round_trip_property(domain, codomain, data):
    fmap = StateMap({s: data.draw(st.sampled_from(codomain)) for s in domain}, domain, codomain)
    assert parse_map(serialize_map(fmap), domain, codomain) == fmap


# ------------------------------------------------------------- line endings

# characters str.splitlines() ends a line at, besides "\n" and "\r"
NON_NEWLINE_SEPARATORS = ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("sep", NON_NEWLINE_SEPARATORS, ids=ascii)
def test_separators_inside_comments_do_not_end_lines(sep, choice_late):
    head = f"# a{sep}b\n"
    assert parse_model(head + CHOICE_LATE_TEXT) == choice_late
    tail = CHOICE_LATE_TEXT.replace("s1 b 0.8 s2", f"s1 b 0.8 s2  # c{sep}d")
    assert parse_model(head + tail) == choice_late
    with pytest.raises(ParseError) as err:
        parse_model(head + tail + "trans: s0 a 0.5 zz\n")
    assert str(err.value) == "line 9: unknown state 'zz'"
    with pytest.raises(ParseError) as err:
        parse_model(f"system m{sep}\nstates: s0\n")
    assert str(err.value) == "line 2: missing 'labels:' line"


@pytest.mark.parametrize("sep", NON_NEWLINE_SEPARATORS, ids=ascii)
def test_separators_inside_relation_and_map_files(sep, skew_pair, dup_branch):
    left, right, rel = skew_pair
    head = f"# x{sep}y\n"
    assert parse_relation(head + serialize_relation(rel), left.states, right.states) == rel
    with pytest.raises(ParseError) as err:
        parse_relation(head + "rel: zz t0\n", left.states, right.states)
    assert err.value.line == 2
    states = dup_branch.states
    fmap = StateMap({s: "s0" for s in states}, states, states)
    assert parse_map(head + serialize_map(fmap), states, states) == fmap
    with pytest.raises(ParseError) as err:
        parse_map(head + "map: s0 -> s0\n", states, states)
    assert err.value.line == 2 and "not total" in err.value.message


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=ascii)
def test_newlines_count_lines(newline, choice_late):
    text = CHOICE_LATE_TEXT.replace("\n", newline)
    assert parse_model(text) == choice_late
    assert parse_model(text.rstrip(newline)) == choice_late
    with pytest.raises(ParseError) as err:
        parse_model(text + newline + "bogus: x" + newline)
    assert str(err.value) == "line 9: unknown directive 'bogus'"
    with pytest.raises(ParseError) as err:
        parse_model(newline.join(["system m", "states: s0", "", ""]))
    assert str(err.value) == "line 3: missing 'labels:' line"


def test_separator_outside_a_comment_is_whitespace():
    model = parse_model("system m\nstates: s0\fs1\nlabels: a\ninit: s1\n")
    assert model.states == {"s0", "s1"}


# ------------------------------------------- differential test of the parser

def _outcome(parse, text):
    """A parse's result as comparable data: the error text, or the model's
    type, name and value."""
    try:
        model = parse(text)
    except ParseError as err:
        return "error", str(err)
    base = model.base if isinstance(model, FuzzyAutomaton) else model
    return type(model).__name__, base.name, model


def _valid_model(rng: random.Random, i: int):
    if i % 3 == 0:
        return helpers.random_fts(rng, rng.randint(1, 6), ["a", "b"][: rng.randint(1, 2)])
    if i % 3 == 1:
        return helpers.inflated_hom_case(rng)[0]
    return helpers.random_automaton(rng, rng.randint(1, 4), ["a", "b"])


def _decorate(rng: random.Random, lines: list[str]) -> str:
    """The same model with comments, blank lines, spacing around ':' and a
    mix of newline conventions."""
    out = []
    for line in lines:
        roll = rng.random()
        if roll < 0.1:
            out.append("# comment: trans: s0 a 1 s0")
        elif roll < 0.2:
            out.append(rng.choice(["", "   ", "\t"]))
        if rng.random() < 0.3:
            line = line.replace(":", rng.choice([" :", " : ", ":  "]), 1)
        if rng.random() < 0.2:
            line = "  " + line + "   # note #2"
        out.append(line)
    newline = rng.choice(["\n", "\r\n", "\r", None])
    if newline is None:
        return "".join(line + rng.choice(["\n", "\r\n", "\r"]) for line in out)
    return newline.join(out) + rng.choice([newline, ""])


ZERO_LITERALS = ["0", "0.0", "00"]


def _with_zero_lines(rng: random.Random, model, lines: list[str]) -> tuple[list[str], tuple] | None:
    """A canonical model file's lines plus `trans:` lines of degree 0, 0.0
    or 00: the only lines of one (state, label) image that has no positive
    edge, and one beside the lines of a positive image.  Returns the lines
    and that empty image's key, or None when every image is positive."""
    base = model.base if isinstance(model, FuzzyAutomaton) else model
    states = base.sorted_states()
    keys = [(s, a) for s in states for a in base.sorted_labels()]
    empty = [key for key in keys if not base.delta(*key)]
    if not empty:
        return None
    s, a = rng.choice(empty)
    zeros = [
        f"trans: {s} {a} {rng.choice(ZERO_LITERALS)} {t}"
        for t in rng.sample(states, rng.randint(1, len(states)))
    ]
    beside = [
        f"trans: {s2} {a2} {rng.choice(ZERO_LITERALS)} {t}"
        for s2, a2 in keys if base.delta(s2, a2)
        for t in states if t not in base.delta(s2, a2).support
    ]
    if beside:
        zeros.append(rng.choice(beside))
    lines = list(lines)
    for line in zeros:
        # after the header, states and labels lines
        lines.insert(rng.randrange(3, len(lines) + 1), line)
    return lines, (s, a)


# ways to write the "trans:" directive besides the canonical "trans: SRC ..."
TRANS_FORMS = ["trans : ", "trans:", "trans\t:\t", "trans  :"]

BAD_LITERALS = [
    "0.", ".5", "1.0000000001", "\u0665", "1" * 5000, "0" * 5000 + "2",
    "0" * 4999 + "1", "1.1", "-0.1", "0.8000000001", "0,5", "1e-3", "\uff11",
]


def _mutate(rng: random.Random, kind: str, lines: list[str]) -> list[str] | None:
    """One seeded mutation of a canonical model file's lines, or None when
    the file has no line it applies to."""
    lines = list(lines)
    directive = list(range(1, len(lines)))
    uses = [i for i in directive if lines[i].split(":")[0] in ("trans", "init", "final")]
    if kind == "missing-token":
        i = rng.choice([0] + directive)
        tokens = lines[i].split(" ")
        if len(tokens) < 2:
            return None
        del tokens[rng.randrange(1, len(tokens))]
        lines[i] = " ".join(tokens)
    elif kind == "extra-token":
        i = rng.choice([0] + [j for j in directive if not lines[j].startswith(("states", "labels"))])
        lines[i] += " extra"
    elif kind == "unknown-name":
        if not uses:
            return None
        i = rng.choice(uses)
        tokens = lines[i].split(" ")
        slots = [j for j, t in enumerate(tokens[1:], 1) if not t[:1].isdigit()]
        tokens[rng.choice(slots)] = "zz"
        lines[i] = " ".join(tokens)
    elif kind == "duplicate-line":
        i = rng.choice(directive)
        lines.insert(rng.randrange(i + 1, len(lines) + 1), lines[i])
    elif kind == "directive-order":
        if not uses:
            return None
        i = rng.choice(uses)
        lines.insert(rng.choice([1, 2]), lines.pop(i))
    elif kind == "bad-literal":
        degree_lines = [i for i in uses if not lines[i].startswith("init")]
        if not degree_lines:
            return None
        i = rng.choice(degree_lines)
        tokens = lines[i].split(" ")
        tokens[3 if tokens[0] == "trans:" else 2] = rng.choice(BAD_LITERALS)
        lines[i] = " ".join(tokens)
    elif kind == "header-and-directive":
        i = rng.choice([0] + directive)
        if rng.random() < 0.7:
            lines[i] = rng.choice(["bogus: x", "just words", "system", "trans s0 a 1 s0", ""])
        else:
            lines[i] = lines[i].replace(":", ";")
    return lines


MUTATIONS = ("missing-token", "extra-token", "unknown-name", "duplicate-line",
             "directive-order", "bad-literal", "header-and-directive")


class TestAgainstReferenceParser:
    """`parse_model` against `helpers.parse_model_oracle`, the parser that
    dispatched directives in file order and parsed every literal afresh:
    both give an equal model, or the identical `ParseError` text."""

    def test_valid_files(self):
        rng = random.Random(20_240)
        kinds = set()
        for i in range(240):
            text = _decorate(rng, serialize_model(_valid_model(rng, i)).splitlines())
            outcome = _outcome(parse_model, text)
            assert outcome == _outcome(helpers.parse_model_oracle, text), text
            kinds.add(outcome[0])
        assert kinds == {"Fts", "FuzzyAutomaton"}

    def test_valid_files_with_zero_degree_lines(self):
        rng = random.Random("zero-lines")
        checked = 0
        for i in range(480):
            model = _valid_model(rng, i)
            made = _with_zero_lines(rng, model, serialize_model(model).splitlines())
            if made is None:
                continue
            lines, (s, a) = made
            text = _decorate(rng, lines)
            outcome = _outcome(parse_model, text)
            assert outcome == _outcome(helpers.parse_model_oracle, text), text
            parsed = outcome[2]
            assert parsed == parse_model(serialize_model(model))
            base = parsed.base if isinstance(parsed, FuzzyAutomaton) else parsed
            assert not base.delta(s, a)
            checked += 1
        assert checked >= 40

    @pytest.mark.parametrize("kind", ("valid",) + MUTATIONS)
    def test_trans_forms_parse_as_the_spaced_form(self, kind):
        """`trans :`, `trans:SRC ...` and other spacings of the directive
        give the model, or the ParseError, of the canonical `trans: SRC`."""
        rng = random.Random(f"trans-forms-{kind}")
        outcomes = set()
        for i in range(60):
            lines = serialize_model(_valid_model(rng, i)).splitlines()
            if kind != "valid":
                lines = _mutate(rng, kind, lines)
                if lines is None:
                    continue
            spaced = "\n".join(lines) + "\n"
            expected = _outcome(parse_model, spaced)
            assert expected == _outcome(helpers.parse_model_oracle, spaced), spaced
            for form in TRANS_FORMS:
                text = "\n".join(
                    form + line[len("trans: "):] if line.startswith("trans: ") else line
                    for line in lines
                ) + "\n"
                assert _outcome(parse_model, text) == expected, text
            outcomes.add(expected[0])
        assert ("error" in outcomes) == (kind != "valid")

    @pytest.mark.parametrize("kind", MUTATIONS)
    def test_broken_files(self, kind):
        rng = random.Random(f"mutation-{kind}")
        errors = []
        for i in range(60):
            lines = _mutate(rng, kind, serialize_model(_valid_model(rng, i)).splitlines())
            if lines is None:
                continue
            text = _decorate(rng, lines)
            outcome = _outcome(parse_model, text)
            assert outcome == _outcome(helpers.parse_model_oracle, text), text
            if outcome[0] == "error":
                errors.append(outcome[1])
        assert len(errors) >= 20
