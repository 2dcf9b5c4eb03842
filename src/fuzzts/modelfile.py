"""Text formats: model files, relation files, map files.

Model file layout::

    system NAME
    states: s0 s1 ...
    labels: a b ...
    init: s0
    trans: SRC LABEL DEGREE DST
    final: STATE DEGREE

A line ends only at a line feed, a carriage return or the pair of them, the
newlines ``open()`` translates: a form feed, NEL or U+2028 does not end it.
"#" starts a comment, blank lines are ignored, and exactly one each of the
states/labels/init lines must appear before any line that uses them.  Each
line is checked as it is read, so the images go to `Fts._from_images`
unchecked.  Any "final:" line turns the model into a FuzzyAutomaton.
Serialization is canonical: sorted states/labels/transitions/finals,
minimal degree spelling, and only positive final degrees; parse(serialize(m))
== m except that an automaton whose final degrees are all zero collapses back
to a plain system.

Relation files hold "rel: LEFT RIGHT" lines, map files "map: LEFT -> RIGHT"
lines, resolved against externally supplied state sets.
"""

from __future__ import annotations

from collections import defaultdict

from .core import Fts, FuzzyAutomaton, FuzzySet, Relation, StateMap, check_ident
from .degrees import Degree
from .errors import DegreeError, ModelError, ParseError


def _lines(text: str) -> tuple[list[tuple[int, str]], int]:
    """The numbered non-blank lines of ``text``, each cut at "#" and stripped,
    and the number of its last line (1 for an empty text)."""
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    raw = text.removesuffix("\n").split("\n")  # str.splitlines ends more lines
    numbered = []
    for lineno, line in enumerate(raw, 1):
        if "#" in line:
            line = line[: line.index("#")]
        line = line.strip()
        if line:
            numbered.append((lineno, line))
    return numbered, max(1, len(raw))


def parse_model(text: str) -> Fts | FuzzyAutomaton:
    """Parse a model file; every violation carries its line number."""
    name = None
    states: frozenset[str] | None = None
    labels: frozenset[str] | None = None
    init = None
    images: defaultdict[tuple[str, str], dict[str, Degree]] = defaultdict(dict)
    finals: dict[str, Degree] = {}
    lines, end = _lines(text)
    for lineno, line in lines:
        try:
            if name is None:
                parts = line.split()
                if len(parts) != 2 or parts[0] != "system":
                    raise ParseError(lineno, "expected 'system NAME' header")
                name = check_ident("system name", parts[1])
                continue
            # nearly every line is a transition: a first token "trans:" needs
            # no partition, and the transition handler is tested first
            tokens = line.split()
            if tokens[0] == "trans:":
                directive = "trans"
                del tokens[0]
            else:
                directive, sep, rest = line.partition(":")
                directive = directive.strip()
                if not sep or " " in directive:
                    raise ParseError(lineno, "expected 'DIRECTIVE: ...'")
                tokens = rest.split()
            if directive == "trans":
                if states is None or labels is None:
                    raise ParseError(
                        lineno, "'states:' and 'labels:' must come before 'trans:'"
                    )
                if len(tokens) != 4:
                    raise ParseError(lineno, "expected 'trans: SRC LABEL DEGREE DST'")
                src, label, degree_text, dst = tokens
                if src not in states:
                    raise ParseError(lineno, f"unknown state {src!r}")
                if label not in labels:
                    raise ParseError(lineno, f"unknown label {label!r}")
                if dst not in states:
                    raise ParseError(lineno, f"unknown state {dst!r}")
                entries = images[src, label]
                if dst in entries:
                    raise ParseError(lineno, f"duplicate transition {src} {label} {dst}")
                entries[dst] = Degree.parse(degree_text)
            elif directive == "states":
                if states is not None:
                    raise ParseError(lineno, "duplicate 'states:' line")
                if not tokens:
                    raise ParseError(lineno, "no states")
                if len(set(tokens)) != len(tokens):
                    raise ParseError(lineno, "duplicate state in 'states:' line")
                states = frozenset(check_ident("state", t) for t in tokens)
            elif directive == "labels":
                if labels is not None:
                    raise ParseError(lineno, "duplicate 'labels:' line")
                if len(set(tokens)) != len(tokens):
                    raise ParseError(lineno, "duplicate label in 'labels:' line")
                labels = frozenset(check_ident("label", t) for t in tokens)
            elif directive == "init":
                if init is not None:
                    raise ParseError(lineno, "duplicate 'init:' line")
                if states is None:
                    raise ParseError(lineno, "'states:' must come before 'init:'")
                if len(tokens) != 1:
                    raise ParseError(lineno, "expected 'init: STATE'")
                if tokens[0] not in states:
                    raise ParseError(lineno, f"unknown state {tokens[0]!r}")
                init = tokens[0]
            elif directive == "final":
                if states is None:
                    raise ParseError(lineno, "'states:' must come before 'final:'")
                if len(tokens) != 2:
                    raise ParseError(lineno, "expected 'final: STATE DEGREE'")
                state, degree_text = tokens
                if state not in states:
                    raise ParseError(lineno, f"unknown state {state!r}")
                if state in finals:
                    raise ParseError(lineno, f"duplicate final degree for {state!r}")
                finals[state] = Degree.parse(degree_text)
            else:
                raise ParseError(lineno, f"unknown directive {directive!r}")
        except (ModelError, DegreeError) as err:
            # a bad identifier or degree literal; ParseError is neither
            raise ParseError(lineno, str(err)) from None
    if name is None:
        raise ParseError(end, "missing 'system NAME' header")
    if states is None:
        raise ParseError(end, "missing 'states:' line")
    if labels is None:
        raise ParseError(end, "missing 'labels:' line")
    if init is None:
        raise ParseError(end, "missing 'init:' line")
    base = Fts._from_images(states, labels, init, images, name)
    if finals:
        return FuzzyAutomaton(base, FuzzySet(states, finals))
    return base


def serialize_model(model: Fts | FuzzyAutomaton) -> str:
    """Canonical text form; deterministic for equal models."""
    base = model.base if isinstance(model, FuzzyAutomaton) else model
    lines = [
        f"system {base.name}",
        f"states: {' '.join(base.sorted_states())}",
        f"labels: {' '.join(base.sorted_labels())}".rstrip(),
        f"init: {base.init}",
    ]
    for src, label, degree, dst in base.transitions():
        lines.append(f"trans: {src} {label} {degree} {dst}")
    if isinstance(model, FuzzyAutomaton):
        for state, degree in model.final.items():
            lines.append(f"final: {state} {degree}")
    return "\n".join(lines) + "\n"


def parse_relation(text: str, left, right) -> Relation:
    """Parse "rel: LEFT RIGHT" lines against the two given state sets."""
    left = frozenset(left)
    right = frozenset(right)
    pairs = set()
    for lineno, line in _lines(text)[0]:
        tokens = line.split()
        if len(tokens) != 3 or tokens[0] != "rel:":
            raise ParseError(lineno, "expected 'rel: LEFT RIGHT'")
        _, a, b = tokens
        if a not in left:
            raise ParseError(lineno, f"unknown left state {a!r}")
        if b not in right:
            raise ParseError(lineno, f"unknown right state {b!r}")
        pairs.add((a, b))
    return Relation(left, right, pairs)


def serialize_relation(r: Relation) -> str:
    lines = [f"rel: {a} {b}" for a, b in r.sorted_pairs()]
    return "\n".join(lines) + "\n" if lines else ""


def parse_map(text: str, domain, codomain) -> StateMap:
    """Parse "map: LEFT -> RIGHT" lines into a total StateMap."""
    domain = frozenset(domain)
    codomain = frozenset(codomain)
    table: dict[str, str] = {}
    lines, end = _lines(text)
    for lineno, line in lines:
        tokens = line.split()
        if len(tokens) != 4 or tokens[0] != "map:" or tokens[2] != "->":
            raise ParseError(lineno, "expected 'map: LEFT -> RIGHT'")
        _, a, _, b = tokens
        if a not in domain:
            raise ParseError(lineno, f"unknown domain state {a!r}")
        if b not in codomain:
            raise ParseError(lineno, f"unknown codomain state {b!r}")
        if a in table and table[a] != b:
            raise ParseError(lineno, f"conflicting entries for {a!r}")
        table[a] = b
    missing = domain - set(table)
    if missing:
        raise ParseError(
            end, f"map is not total (missing: {' '.join(sorted(missing))})"
        )
    return StateMap(table, domain, codomain)


def serialize_map(fmap: StateMap) -> str:
    lines = [f"map: {a} -> {b}" for a, b in fmap.items()]
    return "\n".join(lines) + "\n" if lines else ""
