"""Golden transcript of the command-line interface.

Every command runs in text and in ``--json`` mode, on a holding and (where
the command has a verdict) a failing case, plus the program's own input
errors.  The exit code, standard output, standard error and the bytes of
any ``-o`` output file are recorded in ``data/cli_transcript.txt``, so any
change to the CLI's output shows up here byte by byte.  Usage errors that
argparse reports itself are left out: their wording differs between Python
versions.

The transcript runs inside a temporary directory holding copies of the
fixtures, so every path it prints is relative and stable.
"""

import io
import shutil
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from fuzzts.cli import run

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "cli_transcript.txt"

EXTRA_FILES = {
    "bad.fts": "system m\nstates: s0\nlabels: a\ninit: s0\ntrans: s0 a 0.1234567891 s0\n",
    "accept_other.fts": (
        "system accept_other\nstates: s0 s1 s2 s3\nlabels: a b c\ninit: s0\n"
        "trans: s0 a 0.9 s1\ntrans: s1 b 0.8 s2\ntrans: s1 c 0.7 s3\n"
        "final: s2 0.4\nfinal: s3 1\n"
    ),
    "tail.fts": (
        "system tail\nstates: s1 s2 s3\nlabels: a b c\ninit: s1\n"
        "trans: s1 b 0.8 s2\ntrans: s1 c 0.7 s3\n"
    ),
    "left.fts": "system l\nstates: a a,b\nlabels: x\ninit: a\n",
    "right.fts": "system r\nstates: c b,c\nlabels: x\ninit: c\n",
    "accept.rel": "".join(f"rel: s{i} s{i}\n" for i in range(4)),
    "late_early.rel": "rel: s0 t0\nrel: s1 t1\nrel: s1 t1'\nrel: s2 t2\nrel: s3 t3\n",
    "zz.rel": "rel: s0 zz\n",
    "eq.rel": (
        "rel: s0 s0\nrel: s1 s1\nrel: s2 s2\nrel: s3 s3\nrel: s4 s4\n"
        "rel: s1 s2\nrel: s2 s1\nrel: s3 s4\nrel: s4 s3\n"
    ),
    "notequiv.rel": "rel: s0 s1\n",
    "swap.map": (
        "map: s0 -> [s1]\nmap: s1 -> [s1]\nmap: s2 -> [s1]\n"
        "map: s3 -> [s3]\nmap: s4 -> [s3]\n"
    ),
    "const.map": "".join(f"map: s{i} -> [s0]\n" for i in range(5)),
    "partial.map": "map: s0 -> [s0]\n",
}

CASES = [
    ["validate", "choice_late.fts"],
    ["validate", "choice_accept.fts"],
    ["validate", "nope.fts"],
    ["validate", "bad.fts"],
    ["lang", "choice_late.fts", "--state", "s0", "--word", "a b"],
    ["lang", "choice_late.fts", "--word", "-"],
    ["lang", "choice_late.fts", "--word", "q"],
    ["lang-table", "choice_late.fts", "--max-len", "2"],
    ["lang-table", "choice_early.fts", "--state", "t1", "--max-len", "1"],
    ["lang-table", "choice_late.fts", "--max-len", "-1"],
    ["accept", "choice_accept.fts", "--word", "a b"],
    ["accept", "choice_late.fts", "--word", "a"],
    ["check-bisim", "skew_left.fts", "skew_right.fts", "--relation", "skew.rel"],
    ["check-bisim", "skew_left.fts", "skew_right.fts", "--relation", "skew.rel", "--strong"],
    ["check-bisim", "skew_left.fts", "skew_right.fts", "--relation", "skew.rel", "--naive"],
    ["check-bisim", "skew_left.fts", "skew_right.fts", "--relation", "skew.rel",
     "--strong", "--naive"],
    ["check-bisim", "skew_left.fts", "skew_right.fts", "--relation", "zz.rel"],
    ["check-bisim", "choice_late.fts", "choice_early.fts", "--relation", "late_early.rel"],
    ["check-bisim", "choice_late.fts", "choice_early.fts", "--relation", "late_early.rel",
     "--naive"],
    ["check-bisim", "choice_accept.fts", "choice_accept.fts", "--relation", "accept.rel"],
    ["check-bisim", "choice_accept.fts", "accept_other.fts", "--relation", "accept.rel"],
    ["check-bisim", "choice_accept.fts", "accept_other.fts", "--relation", "accept.rel",
     "--strong"],
    ["check-bisim", "choice_accept.fts", "accept_other.fts", "--relation", "accept.rel",
     "--naive"],
    ["check-bisim", "choice_accept.fts", "choice_late.fts", "--relation", "accept.rel"],
    ["bisimilar", "choice_late.fts", "choice_early.fts"],
    ["bisimilar", "choice_late.fts", "choice_early.fts", "--print-relation"],
    ["bisimilar", "dup_branch.fts", "dup_min.fts", "--print-relation"],
    ["bisimilar", "choice_late.fts", "choice_late.fts"],
    ["bisimilar", "choice_accept.fts", "accept_other.fts"],
    ["minimize", "dup_branch.fts", "-o", "min.fts"],
    ["minimize", "choice_accept.fts", "-o", "min.fts"],
    ["compose", "skew_left.fts", "skew_right.fts", "-o", "prod.fts"],
    ["compose", "left.fts", "right.fts", "-o", "prod.fts"],
    ["quotient", "dup_branch.fts", "--relation", "eq.rel", "-o", "q.fts"],
    ["quotient", "dup_branch.fts", "--relation", "notequiv.rel", "-o", "q.fts"],
    ["subsystem", "tail.fts", "choice_late.fts"],
    ["subsystem", "dup_min.fts", "dup_branch.fts"],
    ["hom-check", "dup_branch.fts", "dup_min.fts", "--map", "dup_branch.map"],
    ["hom-check", "dup_branch.fts", "dup_min.fts", "--map", "swap.map"],
    ["hom-check", "dup_branch.fts", "dup_min.fts", "--map", "const.map"],
    ["hom-check", "dup_branch.fts", "dup_min.fts", "--map", "partial.map"],
    ["hom-image", "dup_branch.fts", "dup_min.fts", "--map", "dup_branch.map", "-o", "img.fts"],
    ["hom-image", "dup_branch.fts", "dup_min.fts", "--map", "const.map", "-o", "img.fts"],
]


def _block(title: str, text: str) -> list[str]:
    """A titled section quoting ``text`` exactly, one "| " line per line."""
    lines = [title]
    for line in text.splitlines(keepends=True):
        if line.endswith("\n"):
            lines.append("| " + line[:-1])
        else:
            lines += ["| " + line, "\\ no newline at end"]
    return lines


def setup_fixtures(directory: Path) -> None:
    for path in DATA.iterdir():
        if path.suffix in (".fts", ".rel", ".map"):
            shutil.copy(path, directory / path.name)
    for name, text in EXTRA_FILES.items():
        (directory / name).write_text(text, encoding="utf-8")


def transcript() -> str:
    """Run every case in the current directory and record what it did."""
    lines = []
    for case in CASES:
        output = Path(case[case.index("-o") + 1]) if "-o" in case else None
        for argv in (case, ["--json", *case]):
            if output is not None:
                output.unlink(missing_ok=True)
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = run(argv)
            lines.append("$ fuzzts " + " ".join(repr(a) if " " in a else a for a in argv))
            lines.append(f"exit {code}")
            lines += _block("stdout:", out.getvalue())
            lines += _block("stderr:", err.getvalue())
            if output is not None:
                if output.exists():
                    lines += _block(f"file {output}:", output.read_text(encoding="utf-8"))
                else:
                    lines.append(f"file {output}: not written")
            lines.append("")
    return "\n".join(lines)


def test_transcript_matches_golden(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    setup_fixtures(tmp_path)
    assert transcript() == GOLDEN.read_text(encoding="utf-8")
