"""Command-line interface.

Exit codes: 0 = success / property holds, 1 = property fails (witness
printed), 2 = usage or input error.  All output is deterministic; --json
switches every command to a versioned machine-readable report.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .algebra import (
    NotHomomorphismError,
    check_homomorphism,
    hom_image,
    is_subsystem,
    minimize,
    parallel_compose,
    quotient,
)
from .bisim import (
    Verdict,
    Witness,
    bisimilarity,
    check_automaton_bisimulation,
    check_bisimulation,
    check_bisimulation_naive,
    check_strong_bisimulation,
)
from .core import Fts, FuzzyAutomaton, Word
from .errors import FtsError, ParseError
from .language import accept_degree, lang_degree, lang_table
from .modelfile import parse_map, parse_model, parse_relation, serialize_model


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fuzzts",
        description="Exact max-min fuzzy transition systems.",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit a machine-readable report"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        # accept --json after the subcommand as well
        p.add_argument(
            "--json", action="store_true", default=argparse.SUPPRESS,
            help=argparse.SUPPRESS,
        )
        return p

    p = command("validate", "parse a model file and report its shape")
    p.add_argument("model")

    p = command("lang", "degree of one word in a state's fuzzy language")
    p.add_argument("model")
    p.add_argument("--state", help="source state (default: initial state)")
    p.add_argument("--word", required=True, help="space-separated labels, '-' for the empty word")
    p = command("lang-table", "all word degrees up to a length bound")
    p.add_argument("model")
    p.add_argument("--state", help="source state (default: initial state)")
    p.add_argument("--max-len", type=int, required=True)

    p = command("accept", "acceptance degree of a word (final degrees required)")
    p.add_argument("model")
    p.add_argument("--word", required=True)

    p = command("check-bisim", "check a relation between two systems")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--relation", required=True)
    p.add_argument("--strong", action="store_true", help="per-transition matching check")
    p.add_argument("--naive", action="store_true", help="subset-enumeration oracle (small systems)")

    p = command("bisimilar", "decide bisimilarity of the two initial states")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--print-relation", action="store_true")

    p = command("minimize", "quotient by self-bisimilarity")
    p.add_argument("model")
    p.add_argument("-o", "--output", required=True)

    p = command("compose", "parallel composition")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("-o", "--output", required=True)

    p = command("quotient", "quotient by an equivalence relation")
    p.add_argument("model")
    p.add_argument("--relation", required=True)
    p.add_argument("-o", "--output", required=True)

    p = command("subsystem", "is the first system a subsystem of the second")
    p.add_argument("left")
    p.add_argument("right")

    p = command("hom-check", "check a state map for the homomorphism property")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--map", required=True)

    p = command("hom-image", "subsystem carried by a homomorphism's image")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--map", required=True)
    p.add_argument("-o", "--output", required=True)

    return parser


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as err:
        raise FtsError(f"{path}: {err.strerror or err}") from None


def _load_model(path: str) -> Fts | FuzzyAutomaton:
    try:
        return parse_model(_read(path))
    except ParseError as err:
        raise FtsError(f"{path}: {err}") from None


def _load_relation(path: str, left, right):
    try:
        return parse_relation(_read(path), left, right)
    except ParseError as err:
        raise FtsError(f"{path}: {err}") from None


def _load_map(path: str, domain, codomain):
    try:
        return parse_map(_read(path), domain, codomain)
    except ParseError as err:
        raise FtsError(f"{path}: {err}") from None


def _base(model: Fts | FuzzyAutomaton) -> Fts:
    return model.base if isinstance(model, FuzzyAutomaton) else model


def _write(path: str, text: str) -> None:
    """Write through a temporary file next to the target (symlinks
    followed), then rename it over the target, so a failed run never leaves
    a partial file behind and an existing file stays whole."""
    target = os.path.realpath(path)
    temp = f"{target}.{os.urandom(4).hex()}.tmp"
    created = False
    try:
        with open(temp, "x", encoding="utf-8") as handle:
            created = True
            handle.write(text)
        os.replace(temp, target)
    except OSError as err:
        raise FtsError(f"{path}: {err.strerror or err}") from None
    finally:
        if created and os.path.lexists(temp):
            os.unlink(temp)


def _parse_word(text: str) -> Word:
    tokens = text.split()
    if tokens == ["-"]:
        return ()
    return tuple(tokens)


def _format_word(word: Word) -> str:
    return " ".join(word) or "-"


def _witness_json(w: Witness | None):
    if w is None:
        return None
    return {
        "left": w.left,
        "right": w.right,
        "label": w.label,
        "kind": w.kind,
        "subject": w.subject,
        "leftDegree": None if w.left_degree is None else str(w.left_degree),
        "rightDegree": None if w.right_degree is None else str(w.right_degree),
    }


def _witness_text(w: Witness) -> str:
    parts = [f"kind={w.kind}", f"left={w.left}", f"right={w.right}"]
    if w.label is not None:
        parts.append(f"label={w.label}")
    if w.subject is not None:
        parts.append(f"subject={w.subject}")
    if w.left_degree is not None:
        parts.append(f"left-degree={w.left_degree}")
    if w.right_degree is not None:
        parts.append(f"right-degree={w.right_degree}")
    return "witness " + " ".join(parts)


def _emit(args, payload: dict, lines: list[str]) -> None:
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        for line in lines:
            print(line)


def _payload(args, inputs: dict) -> dict:
    return {"schemaVersion": 1, "command": args.command, "inputs": inputs}


def _state_arg(base: Fts, args) -> str:
    return args.state if args.state is not None else base.init


def _dispatch(args) -> int:
    if args.command == "validate":
        model = _load_model(args.model)
        base = _base(model)
        kind = "automaton" if isinstance(model, FuzzyAutomaton) else "system"
        count = sum(1 for _ in base.transitions())
        payload = _payload(args, {"model": args.model})
        payload.update(
            result=True, kind=kind, name=base.name,
            states=len(base.states), labels=len(base.labels), transitions=count,
        )
        _emit(args, payload, [
            f"ok: {kind} {base.name} "
            f"({len(base.states)} states, {len(base.labels)} labels, {count} transitions)"
        ])
        return 0

    if args.command == "lang":
        base = _base(_load_model(args.model))
        state = _state_arg(base, args)
        word = _parse_word(args.word)
        degree = lang_degree(base, state, word)
        payload = _payload(args, {"model": args.model, "state": state, "word": _format_word(word)})
        payload.update(result=True, degree=str(degree))
        _emit(args, payload, [str(degree)])
        return 0

    if args.command == "lang-table":
        base = _base(_load_model(args.model))
        state = _state_arg(base, args)
        if args.max_len < 0:
            raise FtsError("--max-len must be >= 0")
        table = lang_table(base, state, args.max_len)
        payload = _payload(args, {"model": args.model, "state": state, "maxLen": args.max_len})
        payload.update(
            result=True,
            table=[
                {"word": _format_word(word), "degree": str(degree)}
                for word, degree in table.items()
            ],
        )
        _emit(args, payload, [f"{degree} {_format_word(word)}" for word, degree in table.items()])
        return 0

    if args.command == "accept":
        model = _load_model(args.model)
        if not isinstance(model, FuzzyAutomaton):
            raise FtsError(f"{args.model}: model has no final degrees")
        word = _parse_word(args.word)
        degree = accept_degree(model, word)
        payload = _payload(args, {"model": args.model, "word": _format_word(word)})
        payload.update(result=True, degree=str(degree))
        _emit(args, payload, [str(degree)])
        return 0

    if args.command == "check-bisim":
        if args.strong and args.naive:
            raise FtsError("--strong cannot be combined with --naive")
        left_model = _load_model(args.left)
        right_model = _load_model(args.right)
        left, right = _base(left_model), _base(right_model)
        rel = _load_relation(args.relation, left.states, right.states)
        inputs = {"left": args.left, "right": args.right, "relation": args.relation,
                  "strong": args.strong, "naive": args.naive}
        payload = _payload(args, inputs)
        if args.naive:
            ok = check_bisimulation_naive(left, right, rel)
            witness = None
        elif args.strong:
            verdict = check_strong_bisimulation(left, right, rel)
            ok, witness = verdict.holds, verdict.witness
        elif isinstance(left_model, FuzzyAutomaton) and isinstance(right_model, FuzzyAutomaton):
            verdict = check_automaton_bisimulation(left_model, right_model, rel)
            ok, witness = verdict.holds, verdict.witness
        else:
            verdict = check_bisimulation(left, right, rel)
            ok, witness = verdict.holds, verdict.witness
        payload.update(result=ok, witness=_witness_json(witness))
        lines = ["holds" if ok else "does not hold"]
        if witness is not None:
            lines.append(_witness_text(witness))
        _emit(args, payload, lines)
        return 0 if ok else 1

    if args.command == "bisimilar":
        left = _base(_load_model(args.left))
        right = _base(_load_model(args.right))
        rel = bisimilarity(left, right)
        ok = (left.init, right.init) in rel
        witness = None if ok else Witness(left.init, right.init, None, "absent-pair")
        payload = _payload(args, {"left": args.left, "right": args.right})
        payload.update(result=ok, witness=_witness_json(witness))
        lines = ["bisimilar" if ok else "not bisimilar"]
        if witness is not None:
            lines.append(_witness_text(witness))
        if args.print_relation:
            payload["relation"] = [[a, b] for a, b in rel.sorted_pairs()]
            lines.extend(f"rel: {a} {b}" for a, b in rel.sorted_pairs())
        _emit(args, payload, lines)
        return 0 if ok else 1

    if args.command == "minimize":
        base = _base(_load_model(args.model))
        reduced = minimize(base).quotient
        _write(args.output, serialize_model(reduced))
        payload = _payload(args, {"model": args.model})
        payload.update(result=True, output=args.output, states=len(reduced.states))
        _emit(args, payload, [f"wrote {args.output} ({len(reduced.states)} states)"])
        return 0

    if args.command == "compose":
        left = _base(_load_model(args.left))
        right = _base(_load_model(args.right))
        product = parallel_compose(left, right)
        _write(args.output, serialize_model(product))
        payload = _payload(args, {"left": args.left, "right": args.right})
        payload.update(result=True, output=args.output, states=len(product.states))
        _emit(args, payload, [f"wrote {args.output} ({len(product.states)} states)"])
        return 0

    if args.command == "quotient":
        base = _base(_load_model(args.model))
        rel = _load_relation(args.relation, base.states, base.states)
        reduced = quotient(base, rel).quotient
        _write(args.output, serialize_model(reduced))
        payload = _payload(args, {"model": args.model, "relation": args.relation})
        payload.update(result=True, output=args.output, states=len(reduced.states))
        _emit(args, payload, [f"wrote {args.output} ({len(reduced.states)} states)"])
        return 0

    if args.command == "subsystem":
        left = _base(_load_model(args.left))
        right = _base(_load_model(args.right))
        ok = is_subsystem(left, right)
        payload = _payload(args, {"left": args.left, "right": args.right})
        payload.update(result=ok, witness=None)
        _emit(args, payload, ["subsystem" if ok else "not a subsystem"])
        return 0 if ok else 1

    if args.command in ("hom-check", "hom-image"):
        left = _base(_load_model(args.left))
        right = _base(_load_model(args.right))
        fmap = _load_map(args.map, left.states, right.states)
        inputs = {"left": args.left, "right": args.right, "map": args.map}
        payload = _payload(args, inputs)
        if args.command == "hom-check":
            verdict = check_homomorphism(left, right, fmap)
        else:
            try:
                image = hom_image(left, right, fmap)
            except NotHomomorphismError as err:
                verdict = err.verdict
            else:
                verdict = Verdict(True)
        if not verdict.holds:
            payload.update(result=False, witness=_witness_json(verdict.witness))
            _emit(args, payload, ["not a homomorphism", _witness_text(verdict.witness)])
            return 1
        if args.command == "hom-check":
            payload.update(result=True, witness=None)
            _emit(args, payload, ["homomorphism"])
            return 0
        _write(args.output, serialize_model(image))
        payload.update(result=True, output=args.output, states=len(image.states))
        _emit(args, payload, [f"wrote {args.output} ({len(image.states)} states)"])
        return 0

    raise AssertionError(f"unhandled command {args.command!r}")


def run(argv=None) -> int:
    """Parse arguments, dispatch, and return the exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _dispatch(args)
    except FtsError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
