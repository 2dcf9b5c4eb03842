import json
import random

import pytest
from hypothesis import given, strategies as st

import helpers
from fuzzts import Degree, DegreeError, FuzzySet, ONE, SCALE, ZERO, as_degree
from fuzzts.degrees import _PARSE_CACHE_MAX_LEN, _parse_cached

degrees = st.integers(min_value=0, max_value=SCALE).map(Degree)


def test_constants():
    assert ZERO == Degree(0)
    assert ONE == Degree(SCALE)
    assert str(ZERO) == "0"
    assert str(ONE) == "1"
    assert not ZERO
    assert ONE


def test_parse_basic():
    assert Degree.parse("0.8") == Degree(800_000_000)
    assert Degree.parse("0.5") == Degree(500_000_000)
    assert Degree.parse("1") == ONE
    assert Degree.parse("0") == ZERO
    assert Degree.parse("1.000000000") == ONE
    assert Degree.parse("0.123456789") == Degree(123_456_789)
    assert Degree.parse("0001") == ONE
    assert Degree.parse("0" * 5000 + "1") == ONE
    assert Degree.parse("0" * 5000 + ".5") == Degree(500_000_000)


def test_parse_padding_is_exact():
    assert Degree.parse("0.80") == Degree.parse("0.8")
    assert Degree.parse("0.800000000") == Degree.parse("0.8")


def test_parse_rejects_ten_fractional_digits():
    with pytest.raises(DegreeError, match="degree precision"):
        Degree.parse("0.8000000001")
    # even an exactly-representable value is rejected when overlong
    with pytest.raises(DegreeError, match="degree precision"):
        Degree.parse("0.8000000000")


@pytest.mark.parametrize(
    "text",
    [
        "1.1", "2", "1.000000001", "10",
        pytest.param("0" * 5000 + "2", id="5000-zeros-then-2"),
        pytest.param("1" * 5000, id="5000-ones"),
    ],
)
def test_parse_rejects_above_one(text):
    with pytest.raises(DegreeError, match="out of range"):
        Degree.parse(text)


@pytest.mark.parametrize("text", ["", "-0.1", "0.8.1", "abc", ".5", "0,5", "1e-3"])
def test_parse_rejects_malformed(text):
    with pytest.raises(DegreeError):
        Degree.parse(text)


@pytest.mark.parametrize("text", ["\u0660.\u0665", "\uff11", "0.\u0665", "\u0967"])
def test_parse_rejects_non_ascii_digits(text):
    """Arabic-Indic, fullwidth and Devanagari digits are not degree digits."""
    with pytest.raises(DegreeError, match="not a decimal degree literal"):
        Degree.parse(text)


def test_constructor_range():
    with pytest.raises(DegreeError):
        Degree(-1)
    with pytest.raises(DegreeError):
        Degree(SCALE + 1)
    with pytest.raises(DegreeError):
        Degree(0.5)
    with pytest.raises(DegreeError):
        Degree(True)


def test_as_degree():
    assert as_degree("0.3") == Degree.parse("0.3")
    with pytest.raises(DegreeError):
        as_degree(0)
    with pytest.raises(DegreeError):
        as_degree(1)
    assert as_degree(ONE) is ONE
    with pytest.raises(DegreeError):
        as_degree(2)
    with pytest.raises(DegreeError):
        as_degree(0.5)


def test_str_minimal_form():
    assert str(Degree.parse("0.800000000")) == "0.8"
    assert str(Degree.parse("0.003")) == "0.003"
    assert str(Degree.parse("0.123456789")) == "0.123456789"


@given(degrees)
def test_str_parse_round_trip(d):
    assert Degree.parse(str(d)) == d


@given(degrees, degrees)
def test_order_matches_numerators(a, b):
    assert (a < b) == (a.numerator < b.numerator)
    assert (a <= b) == (a.numerator <= b.numerator)
    assert (a > b) == (a.numerator > b.numerator)
    assert (a >= b) == (a.numerator >= b.numerator)
    assert (a == b) == (a.numerator == b.numerator)
    assert (a != b) == (a.numerator != b.numerator)
    assert (a <= b) or (b <= a)


@given(degrees, degrees)
def test_join_meet_commute(a, b):
    assert max(a, b) == max(b, a)
    assert min(a, b) == min(b, a)
    assert type(max(a, b)) is Degree
    assert type(min(a, b)) is Degree


@given(degrees, degrees, degrees)
def test_join_meet_associate_and_absorb(a, b, c):
    assert max(a, max(b, c)) == max(max(a, b), c)
    assert min(a, min(b, c)) == min(min(a, b), c)
    assert max(a, min(a, b)) == a
    assert min(a, max(a, b)) == a


@given(degrees)
def test_bounds_are_neutral(d):
    assert max(d, ZERO) == d
    assert min(d, ONE) == d
    assert ZERO <= d <= ONE


@given(degrees)
def test_hash_consistent(d):
    assert hash(d) == hash(Degree(d.numerator))


def test_immutable():
    d = Degree.parse("0.5")
    with pytest.raises(AttributeError):
        d.numerator = 3
    with pytest.raises(AttributeError):
        d.extra = 1


def test_degree_is_its_numerator():
    d = Degree.parse("0.8")
    assert isinstance(d, int)
    assert d == 800_000_000
    assert type(d.numerator) is int and d.numerator == 800_000_000
    assert json.dumps(d) == "800000000"
    assert type(d + d) is int
    assert f"{d}" == "0.8"
    assert repr(d) == "Degree('0.8')"


class TestParseCache:
    """`Degree.parse` remembers literals in a bounded cache."""

    def test_equal_text_gives_the_same_degree(self):
        for text in ("0.8", "1", "0", "0.123456789", " 0.5 ", "0" * 62 + ".5"):
            first = Degree.parse(text)
            assert Degree.parse(text) is first
            assert type(first) is Degree
        assert as_degree("0.37") is Degree.parse("0.37")
        assert FuzzySet({"s"}, {"s": "0.37"})("s") is Degree.parse("0.37")

    @pytest.mark.parametrize(
        "text", ["1.1", "0.", ".5", "1.0000000001", "\u0665", "1" * 5000, "0" * 5000 + "2"],
        ids=lambda t: ascii(t)[:20],
    )
    def test_a_bad_literal_raises_every_time(self, text):
        messages = set()
        for _ in range(3):
            with pytest.raises(DegreeError) as err:
                Degree.parse(text)
            messages.add(str(err.value))
        assert len(messages) == 1

    @pytest.mark.parametrize("zeros", [63, 5000])
    def test_a_long_literal_is_not_kept(self, zeros):
        """Leading zeros make a valid literal of any length; one longer than
        the cut-off parses exactly but never enters the cache."""
        text = "0" * zeros + ".5"
        assert len(text) > _PARSE_CACHE_MAX_LEN
        before = _parse_cached.cache_info()
        for _ in range(3):
            got = Degree.parse(text)
            assert type(got) is Degree and got == SCALE // 2
        after = _parse_cached.cache_info()
        assert (after.hits, after.misses) == (before.hits, before.misses)

    def test_cache_stays_within_its_bound(self):
        bound = _parse_cached.cache_info().maxsize
        assert bound is not None
        for i in range(bound + 500):
            assert Degree.parse(f"0.{i:09d}") == i
        assert _parse_cached.cache_info().currsize <= bound
        # the earliest literals were dropped, and parse them again exactly
        assert Degree.parse("0.000000001") == 1

    def test_matches_the_uncached_parser(self):
        """Value, type and error text equal those of the parser without a
        cache, over valid and invalid literals, each parsed twice."""
        rng = random.Random(7_115)
        pieces = ["0", "1", "2", "9", ".", "5", "00", "-", " ", "e", "\u0665", ","]
        literals = ["1", "0.5", " 0.5 ", "1.000000000", "0.000000001", "", ".5", "0."]
        literals += ["".join(rng.choices(pieces, k=rng.randint(1, 12))) for _ in range(2000)]
        literals += [f"0.{rng.randrange(10**9):09d}"[: rng.randint(2, 12)] for _ in range(500)]
        outcomes = set()
        for text in literals + literals:
            try:
                got = Degree.parse(text)
            except DegreeError as err:
                got = str(err)
            try:
                want = helpers.degree_parse_oracle(text)
            except DegreeError as err:
                want = str(err)
            assert (type(got), got) == (type(want), want), text
            outcomes.add(type(got))
        assert outcomes == {Degree, str}
