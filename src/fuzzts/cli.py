"""Command-line interface.

Exit codes: 0 = success / property holds, 1 = property fails (witness
printed), 2 = usage or input error.  All output is deterministic; --json
switches every command to a versioned machine-readable report.

Each command is one handler, bound to its subcommand where the parser
declares it.  A handler takes the parsed arguments and returns the
JSON ``inputs``, the further JSON fields, the text lines and the exit code;
:func:`run` prints the report.  Handlers look the library functions up as
module globals when they run, so a caller that replaces one of them here
(as a tracer does) sees every call.
"""

from __future__ import annotations

import argparse
import functools
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
    are_bisimilar,
    bisimilarity,
    check_automaton_bisimulation,
    check_bisimulation,
    check_strong_bisimulation,
)
from .core import Fts, FuzzyAutomaton, Word
from .errors import FtsError, ParseError
from .language import accept_degree, lang_degree, lang_table
from .modelfile import parse_map, parse_model, parse_relation, serialize_model
from .oracles import check_bisimulation_naive


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fuzzts",
        description="Exact max-min fuzzy transition systems.",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit a machine-readable report"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, help_text: str, handler) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        # accept --json after the subcommand as well
        p.add_argument(
            "--json", action="store_true", default=argparse.SUPPRESS,
            help=argparse.SUPPRESS,
        )
        return p

    p = command("validate", "parse a model file and report its shape", _validate)
    p.add_argument("model")

    p = command("lang", "degree of one word in a state's fuzzy language", _lang)
    p.add_argument("model")
    p.add_argument("--state", help="source state (default: initial state)")
    p.add_argument("--word", required=True, help="space-separated labels, '-' for the empty word")
    p = command("lang-table", "all word degrees up to a length bound", _lang_table)
    p.add_argument("model")
    p.add_argument("--state", help="source state (default: initial state)")
    p.add_argument("--max-len", type=int, required=True)

    p = command("accept", "acceptance degree of a word (final degrees required)", _accept)
    p.add_argument("model")
    p.add_argument("--word", required=True)

    p = command("check-bisim", "check a relation between two systems", _check_bisim)
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--relation", required=True)
    p.add_argument("--strong", action="store_true", help="per-transition matching check")
    p.add_argument("--naive", action="store_true", help="subset-enumeration oracle (small systems)")

    p = command("bisimilar", "decide bisimilarity of the two initial states", _bisimilar)
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--print-relation", action="store_true")

    p = command("minimize", "quotient by self-bisimilarity", _minimize)
    p.add_argument("model")
    p.add_argument("-o", "--output", required=True)

    p = command("compose", "parallel composition", _compose)
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("-o", "--output", required=True)

    p = command("quotient", "quotient by an equivalence relation", _quotient)
    p.add_argument("model")
    p.add_argument("--relation", required=True)
    p.add_argument("-o", "--output", required=True)

    p = command("subsystem", "is the first system a subsystem of the second", _subsystem)
    p.add_argument("left")
    p.add_argument("right")

    p = command("hom-check", "check a state map for the homomorphism property", _hom_check)
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--map", required=True)

    p = command("hom-image", "subsystem carried by a homomorphism's image", _hom_image)
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
    except UnicodeDecodeError as err:
        raise FtsError(f"{path}: not UTF-8 text: {err}") from None


def _load(parse, path: str, *universes):
    """``parse`` applied to the text of ``path`` and ``universes``; a parse
    error is reported with the file name."""
    try:
        return parse(_read(path), *universes)
    except ParseError as err:
        raise FtsError(f"{path}: {err}") from None


def _base(model: Fts | FuzzyAutomaton) -> Fts:
    return model.base if isinstance(model, FuzzyAutomaton) else model


def _plain(path: str, model: Fts | FuzzyAutomaton) -> Fts:
    """``model``, read from ``path``, refused if it has final degrees."""
    if isinstance(model, FuzzyAutomaton):
        raise FtsError(f"{path}: model has final degrees, which this command would drop")
    return model


def _system(path: str) -> Fts:
    return _plain(path, _load(parse_model, path))


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


def _verdict(verdict: Verdict, holds: str, fails: str):
    """JSON fields, text lines and exit code reporting a verdict."""
    lines = [holds if verdict.holds else fails]
    if verdict.witness is not None:
        lines.append(_witness_text(verdict.witness))
    fields = {"result": verdict.holds, "witness": _witness_json(verdict.witness)}
    return fields, lines, 0 if verdict.holds else 1


def _wrote(path: str, system: Fts):
    """Write ``system`` to ``path``; JSON fields, text lines and exit code."""
    _write(path, serialize_model(system))
    count = len(system.states)
    return {"result": True, "output": path, "states": count}, [f"wrote {path} ({count} states)"], 0


def _state_arg(base: Fts, args) -> str:
    return args.state if args.state is not None else base.init


def _validate(args):
    model = _load(parse_model, args.model)
    base = _base(model)
    kind = "automaton" if isinstance(model, FuzzyAutomaton) else "system"
    count = sum(1 for _ in base.transitions())
    fields = dict(
        result=True, kind=kind, name=base.name,
        states=len(base.states), labels=len(base.labels), transitions=count,
    )
    line = (
        f"ok: {kind} {base.name} "
        f"({len(base.states)} states, {len(base.labels)} labels, {count} transitions)"
    )
    return {"model": args.model}, fields, [line], 0


def _lang(args):
    # a state's language ignores final degrees, so an automaton is read as its base
    base = _base(_load(parse_model, args.model))
    state = _state_arg(base, args)
    word = _parse_word(args.word)
    degree = lang_degree(base, state, word)
    inputs = {"model": args.model, "state": state, "word": _format_word(word)}
    return inputs, {"result": True, "degree": str(degree)}, [str(degree)], 0


def _lang_table(args):
    base = _base(_load(parse_model, args.model))
    state = _state_arg(base, args)
    if args.max_len < 0:
        raise FtsError("--max-len must be >= 0")
    table = [
        (_format_word(word), str(degree))
        for word, degree in lang_table(base, state, args.max_len).items()
    ]
    inputs = {"model": args.model, "state": state, "maxLen": args.max_len}
    fields = {"result": True, "table": [{"word": w, "degree": d} for w, d in table]}
    return inputs, fields, [f"{d} {w}" for w, d in table], 0


def _accept(args):
    model = _load(parse_model, args.model)
    if not isinstance(model, FuzzyAutomaton):
        raise FtsError(f"{args.model}: model has no final degrees")
    word = _parse_word(args.word)
    degree = accept_degree(model, word)
    inputs = {"model": args.model, "word": _format_word(word)}
    return inputs, {"result": True, "degree": str(degree)}, [str(degree)], 0


def _check_bisim(args):
    if args.strong and args.naive:
        raise FtsError("--strong cannot be combined with --naive")
    left, right = _load(parse_model, args.left), _load(parse_model, args.right)
    # only the default check of two automata reads final degrees
    automata = all(isinstance(model, FuzzyAutomaton) for model in (left, right))
    if args.strong or args.naive or not automata:
        left, right = _plain(args.left, left), _plain(args.right, right)
    rel = _load(parse_relation, args.relation, _base(left).states, _base(right).states)
    if args.naive:
        verdict = Verdict(check_bisimulation_naive(left, right, rel))
    elif args.strong:
        verdict = check_strong_bisimulation(left, right, rel)
    elif automata:
        verdict = check_automaton_bisimulation(left, right, rel)
    else:
        verdict = check_bisimulation(left, right, rel)
    inputs = {"left": args.left, "right": args.right, "relation": args.relation,
              "strong": args.strong, "naive": args.naive}
    return (inputs, *_verdict(verdict, "holds", "does not hold"))


def _bisimilar(args):
    left, right = _system(args.left), _system(args.right)
    if args.print_relation:
        rel = bisimilarity(left, right)
        ok = (left.init, right.init) in rel
    else:
        ok = are_bisimilar(left, right)
    verdict = Verdict(ok, None if ok else Witness(left.init, right.init, None, "absent-pair"))
    fields, lines, code = _verdict(verdict, "bisimilar", "not bisimilar")
    if args.print_relation:
        pairs = rel.sorted_pairs()
        fields["relation"] = [[a, b] for a, b in pairs]
        lines.extend(f"rel: {a} {b}" for a, b in pairs)
    return {"left": args.left, "right": args.right}, fields, lines, code


def _minimize(args):
    reduced = minimize(_system(args.model)).quotient
    return ({"model": args.model}, *_wrote(args.output, reduced))


def _compose(args):
    product = parallel_compose(_system(args.left), _system(args.right))
    return ({"left": args.left, "right": args.right}, *_wrote(args.output, product))


def _quotient(args):
    base = _system(args.model)
    rel = _load(parse_relation, args.relation, base.states, base.states)
    reduced = quotient(base, rel).quotient
    return ({"model": args.model, "relation": args.relation}, *_wrote(args.output, reduced))


def _subsystem(args):
    verdict = Verdict(is_subsystem(_system(args.left), _system(args.right)))
    return ({"left": args.left, "right": args.right},
            *_verdict(verdict, "subsystem", "not a subsystem"))


def _hom_setting(args):
    left, right = _system(args.left), _system(args.right)
    fmap = _load(parse_map, args.map, left.states, right.states)
    return {"left": args.left, "right": args.right, "map": args.map}, (left, right, fmap)


def _hom_check(args):
    inputs, setting = _hom_setting(args)
    return (inputs, *_verdict(check_homomorphism(*setting), "homomorphism", "not a homomorphism"))


def _hom_image(args):
    inputs, setting = _hom_setting(args)
    try:
        image = hom_image(*setting)
    except NotHomomorphismError as err:
        return (inputs, *_verdict(err.verdict, "homomorphism", "not a homomorphism"))
    return (inputs, *_wrote(args.output, image))


def run(argv=None) -> int:
    """Parse arguments, run the command's handler, print its report and
    return the exit code."""
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        inputs, fields, lines, code = args.handler(args)
    except FtsError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    if args.json:
        report = {"schemaVersion": 1, "command": args.command, "inputs": inputs, **fields}
        print(json.dumps(report, indent=2))
    else:
        for line in lines:
            print(line)
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
