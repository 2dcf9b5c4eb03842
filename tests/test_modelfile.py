import random

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
        ("system m\nstates: s0\nlabels: a\ninit: s0\ntrans: s0 a 1.5 s0\n", 5,
         "out of range"),
        ("system m\nstates: s0\nlabels: a\ninit: s0\ntrans: s0 a 0.8000000001 s0\n",
         5, "degree precision"),
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
