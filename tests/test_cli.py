import argparse
import errno
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import fuzzts.algebra
import fuzzts.bisim
import fuzzts.cli
from fuzzts import parse_model
from fuzzts.cli import run

DATA = Path(__file__).parent / "data"


def invoke(capsys, *argv):
    code = run([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestValidate:
    def test_ok(self, capsys):
        code, out, err = invoke(capsys, "validate", DATA / "choice_late.fts")
        assert code == 0
        assert out == "ok: system choice_late (4 states, 3 labels, 3 transitions)\n"
        assert err == ""

    def test_automaton_reported(self, capsys):
        code, out, _ = invoke(capsys, "validate", DATA / "choice_accept.fts")
        assert code == 0
        assert "automaton choice_accept" in out

    def test_parse_error_is_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.fts"
        bad.write_text("system m\nstates: s0\nlabels: a\ninit: s0\n"
                       "trans: s0 a 0.1234567891 s0\n")
        code, out, err = invoke(capsys, "validate", bad)
        assert code == 2
        assert out == ""
        assert "line 5" in err and "degree precision" in err

    def test_overlong_degree_literal_is_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.fts"
        bad.write_text("system m\nstates: s0 s1\nlabels: a\ninit: s0\n"
                       f"trans: s0 a {'0' * 5000}1 s1\n"
                       f"trans: s1 a {'0' * 5000}2 s0\n")
        code, out, err = invoke(capsys, "validate", bad)
        assert code == 2
        assert out == ""
        assert "line 6" in err and "out of range" in err

    def test_missing_file_is_exit_2(self, capsys, tmp_path):
        code, _, err = invoke(capsys, "validate", tmp_path / "nope.fts")
        assert code == 2
        assert "error:" in err

    def test_non_utf8_file_is_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.fts"
        bad.write_bytes(b"system m\nstates: s0\xff\n")
        code, out, err = invoke(capsys, "validate", bad)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {bad}: ")
        assert "0xff" in err


class TestLang:
    def test_word_degree(self, capsys):
        code, out, _ = invoke(
            capsys, "lang", DATA / "choice_late.fts", "--state", "s0", "--word", "a b"
        )
        assert (code, out) == (0, "0.8\n")

    def test_state_defaults_to_init(self, capsys):
        code, out, _ = invoke(capsys, "lang", DATA / "choice_late.fts", "--word", "a")
        assert (code, out) == (0, "0.9\n")

    def test_empty_word_dash(self, capsys):
        code, out, _ = invoke(capsys, "lang", DATA / "choice_late.fts", "--word", "-")
        assert (code, out) == (0, "1\n")

    def test_unknown_label_is_exit_2(self, capsys):
        code, _, err = invoke(capsys, "lang", DATA / "choice_late.fts", "--word", "q")
        assert code == 2
        assert "unknown label" in err

    def test_json_report(self, capsys):
        code, out, _ = invoke(
            capsys, "--json", "lang", DATA / "choice_late.fts", "--word", "a b"
        )
        assert code == 0
        report = json.loads(out)
        assert report["schemaVersion"] == 1
        assert report["command"] == "lang"
        assert report["degree"] == "0.8"
        assert report["inputs"]["word"] == "a b"

    def test_json_flag_after_subcommand(self, capsys):
        code, out, _ = invoke(
            capsys, "lang", DATA / "choice_late.fts", "--word", "a", "--json"
        )
        assert code == 0
        assert json.loads(out)["degree"] == "0.9"


class TestLangTable:
    def test_depth_two_table(self, capsys):
        code, out, _ = invoke(
            capsys, "lang-table", DATA / "choice_late.fts",
            "--state", "s0", "--max-len", "2",
        )
        assert code == 0
        assert out == "1 -\n0.9 a\n0.8 a b\n0.7 a c\n"

    def test_both_fixtures_match_at_depth_two(self, capsys):
        _, out_late, _ = invoke(
            capsys, "lang-table", DATA / "choice_late.fts", "--max-len", "2"
        )
        _, out_early, _ = invoke(
            capsys, "lang-table", DATA / "choice_early.fts", "--max-len", "2"
        )
        assert out_late == out_early

    def test_huge_max_len_prints_the_full_table(self, capsys):
        def out_of_time(signum, frame):
            raise TimeoutError("lang-table --max-len 2**63 exceeded 1 s")

        previous = signal.signal(signal.SIGALRM, out_of_time)
        signal.setitimer(signal.ITIMER_REAL, 1.0)
        try:
            code, out, err = invoke(
                capsys, "lang-table", DATA / "choice_late.fts", "--max-len", 2**63
            )
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        assert (code, err) == (0, "")
        _, expected, _ = invoke(
            capsys, "lang-table", DATA / "choice_late.fts", "--max-len", "4"
        )
        assert out == expected

    def test_negative_max_len(self, capsys):
        code, _, err = invoke(
            capsys, "lang-table", DATA / "choice_late.fts", "--max-len", "-1"
        )
        assert code == 2
        assert "--max-len" in err


class TestAccept:
    def test_degree(self, capsys):
        code, out, _ = invoke(
            capsys, "accept", DATA / "choice_accept.fts", "--word", "a b"
        )
        assert (code, out) == (0, "0.5\n")

    def test_plain_system_rejected(self, capsys):
        code, _, err = invoke(
            capsys, "accept", DATA / "choice_late.fts", "--word", "a"
        )
        assert code == 2
        assert "no final degrees" in err


class TestAutomatonOperands:
    """Commands on plain systems refuse an automaton operand, whose final
    degrees they would drop, and name its file; so does ``check-bisim``
    unless both operands are automata and it runs its default check, the
    one that compares final degrees.  The language commands read the
    automaton's base, since a state's language ignores final degrees."""

    ACCEPT, LATE = DATA / "choice_accept.fts", DATA / "choice_late.fts"

    @pytest.mark.parametrize("argv", [
        ["bisimilar", "{A}", "{P}"],
        ["bisimilar", "{P}", "{A}", "--print-relation"],
        ["minimize", "{A}", "-o", "{out}"],
        ["compose", "{A}", "{P}", "-o", "{out}"],
        ["compose", "{P}", "{A}", "-o", "{out}"],
        ["quotient", "{A}", "--relation", "{rel}", "-o", "{out}"],
        ["subsystem", "{A}", "{P}"],
        ["subsystem", "{P}", "{A}"],
        ["hom-check", "{A}", "{P}", "--map", "{map}"],
        ["hom-check", "{P}", "{A}", "--map", "{map}"],
        ["hom-image", "{A}", "{P}", "--map", "{map}", "-o", "{out}"],
        ["hom-image", "{P}", "{A}", "--map", "{map}", "-o", "{out}"],
        ["check-bisim", "{A}", "{P}", "--relation", "{rel}"],
        ["check-bisim", "{P}", "{A}", "--relation", "{rel}"],
        ["check-bisim", "{A}", "{A}", "--relation", "{rel}", "--strong"],
        ["check-bisim", "{A}", "{A}", "--relation", "{rel}", "--naive"],
    ])
    def test_refused_with_the_file_named(self, capsys, tmp_path, argv):
        files = {
            "A": self.ACCEPT, "P": self.LATE, "out": tmp_path / "out.fts",
            "rel": tmp_path / "diag.rel", "map": tmp_path / "id.map",
        }
        files["rel"].write_text("".join(f"rel: s{i} s{i}\n" for i in range(4)))
        files["map"].write_text("".join(f"map: s{i} -> s{i}\n" for i in range(4)))
        code, out, err = invoke(capsys, *(a.format(**files) for a in argv))
        assert (code, out) == (2, "")
        drop = "model has final degrees, which this command would drop"
        assert err == f"error: {self.ACCEPT}: {drop}\n"
        assert not files["out"].exists()
        # the same command on the plain system runs
        code, _, _ = invoke(capsys, *(a.format(**{**files, "A": self.LATE}) for a in argv))
        assert code in (0, 1)

    @pytest.mark.parametrize("mode", [[], ["--strong"], ["--naive"]])
    def test_check_bisim_reads_plain_systems_in_every_mode(self, capsys, tmp_path, mode):
        rel = tmp_path / "diag.rel"
        rel.write_text("".join(f"rel: s{i} s{i}\n" for i in range(4)))
        result = invoke(capsys, "check-bisim", self.LATE, self.LATE, "--relation", rel, *mode)
        assert result == (0, "holds\n", "")

    @pytest.mark.parametrize("argv", [
        ["lang", "--word", "a b"],
        ["lang", "--state", "s1", "--word", "c"],
        ["lang-table", "--max-len", "3"],
    ])
    def test_language_reads_the_base(self, capsys, argv):
        on_automaton = invoke(capsys, argv[0], self.ACCEPT, *argv[1:])
        assert on_automaton == invoke(capsys, argv[0], self.LATE, *argv[1:])
        assert on_automaton[0] == 0


class TestCheckBisim:
    def test_holds(self, capsys):
        code, out, _ = invoke(
            capsys, "check-bisim", DATA / "skew_left.fts", DATA / "skew_right.fts",
            "--relation", DATA / "skew.rel",
        )
        assert (code, out) == (0, "holds\n")

    def test_strong_fails_with_witness(self, capsys):
        code, out, _ = invoke(
            capsys, "check-bisim", DATA / "skew_left.fts", DATA / "skew_right.fts",
            "--relation", DATA / "skew.rel", "--strong",
        )
        assert code == 1
        assert out.splitlines()[0] == "does not hold"
        assert "kind=left-move left=s0 right=t0 label=a subject=s1" in out
        assert "left-degree=0.8 right-degree=0.3" in out

    def test_naive_agrees(self, capsys):
        code, out, _ = invoke(
            capsys, "check-bisim", DATA / "skew_left.fts", DATA / "skew_right.fts",
            "--relation", DATA / "skew.rel", "--naive",
        )
        assert (code, out) == (0, "holds\n")

    def test_strong_naive_conflict(self, capsys):
        code, _, err = invoke(
            capsys, "check-bisim", DATA / "skew_left.fts", DATA / "skew_right.fts",
            "--relation", DATA / "skew.rel", "--strong", "--naive",
        )
        assert code == 2
        assert "--strong" in err

    def test_json_witness_object(self, capsys):
        code, out, _ = invoke(
            capsys, "--json", "check-bisim", DATA / "skew_left.fts",
            DATA / "skew_right.fts", "--relation", DATA / "skew.rel", "--strong",
        )
        assert code == 1
        report = json.loads(out)
        assert report["result"] is False
        assert report["witness"] == {
            "left": "s0", "right": "t0", "label": "a", "kind": "left-move",
            "subject": "s1", "leftDegree": "0.8", "rightDegree": "0.3",
        }

    def test_bad_relation_file(self, capsys, tmp_path):
        rel = tmp_path / "bad.rel"
        rel.write_text("rel: s0 zz\n")
        code, _, err = invoke(
            capsys, "check-bisim", DATA / "skew_left.fts", DATA / "skew_right.fts",
            "--relation", rel,
        )
        assert code == 2
        assert "line 1" in err


class TestBisimilar:
    def test_not_bisimilar_with_witness(self, capsys):
        code, out, _ = invoke(
            capsys, "bisimilar", DATA / "choice_late.fts", DATA / "choice_early.fts"
        )
        assert code == 1
        assert out == "not bisimilar\nwitness kind=absent-pair left=s0 right=t0\n"

    def test_bisimilar_with_relation(self, capsys):
        code, out, _ = invoke(
            capsys, "bisimilar", DATA / "dup_branch.fts", DATA / "dup_min.fts",
            "--print-relation",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "bisimilar"
        assert "rel: s0 [s0]" in lines
        assert "rel: s1 [s1]" in lines

    def test_json_relation_list(self, capsys):
        code, out, _ = invoke(
            capsys, "--json", "bisimilar", DATA / "dup_branch.fts",
            DATA / "dup_min.fts", "--print-relation",
        )
        assert code == 0
        report = json.loads(out)
        assert report["result"] is True
        assert ["s0", "[s0]"] in report["relation"]

    def test_self_bisimilar(self, capsys):
        code, out, _ = invoke(
            capsys, "bisimilar", DATA / "choice_late.fts", DATA / "choice_late.fts"
        )
        assert (code, out) == (0, "bisimilar\n")

    @pytest.mark.parametrize("print_relation", [False, True])
    @pytest.mark.parametrize("right", ["dup_min.fts", "choice_early.fts"])
    def test_relation_built_only_when_printed(self, capsys, monkeypatch, print_relation, right):
        calls = []
        relation = fuzzts.bisim.bisimilarity

        def counted(*args):
            calls.append(args)
            return relation(*args)

        monkeypatch.setattr(fuzzts.bisim, "bisimilarity", counted)
        monkeypatch.setattr(fuzzts.cli, "bisimilarity", counted)
        flags = ["--print-relation"] if print_relation else []
        code, _, _ = invoke(
            capsys, "bisimilar", DATA / "dup_branch.fts", DATA / right, *flags
        )
        assert code == (0 if right == "dup_min.fts" else 1)
        assert len(calls) == (1 if print_relation else 0)


class TestFileProducingCommands:
    def test_minimize(self, capsys, tmp_path):
        out_path = tmp_path / "min.fts"
        code, out, _ = invoke(
            capsys, "minimize", DATA / "dup_branch.fts", "-o", out_path
        )
        assert code == 0
        assert out == f"wrote {out_path} (3 states)\n"
        assert out_path.read_text() == (DATA / "dup_min.fts").read_text()

    def test_compose(self, capsys, tmp_path):
        out_path = tmp_path / "prod.fts"
        code, _, _ = invoke(
            capsys, "compose", DATA / "skew_left.fts", DATA / "skew_right.fts",
            "-o", out_path,
        )
        assert code == 0
        product = parse_model(out_path.read_text())
        assert len(product.states) == 9
        assert product.init == "(s0,t0)"

    def test_compose_rejects_colliding_ids(self, capsys, tmp_path):
        left = tmp_path / "left.fts"
        right = tmp_path / "right.fts"
        left.write_text("system l\nstates: a a,b\nlabels: x\ninit: a\n")
        right.write_text("system r\nstates: c b,c\nlabels: x\ninit: c\n")
        out_path = tmp_path / "prod.fts"
        code, out, err = invoke(capsys, "compose", left, right, "-o", out_path)
        assert (code, out) == (2, "")
        assert "collide" in err
        assert not out_path.exists()

    def test_quotient(self, capsys, tmp_path):
        rel = tmp_path / "eq.rel"
        rel.write_text(
            "rel: s0 s0\nrel: s1 s1\nrel: s2 s2\nrel: s3 s3\nrel: s4 s4\n"
            "rel: s1 s2\nrel: s2 s1\nrel: s3 s4\nrel: s4 s3\n"
        )
        out_path = tmp_path / "q.fts"
        code, _, _ = invoke(
            capsys, "quotient", DATA / "dup_branch.fts", "--relation", rel,
            "-o", out_path,
        )
        assert code == 0
        assert out_path.read_text() == (DATA / "dup_min.fts").read_text()

    def test_quotient_rejects_non_equivalence(self, capsys, tmp_path):
        rel = tmp_path / "bad.rel"
        rel.write_text("rel: s0 s1\n")
        code, _, err = invoke(
            capsys, "quotient", DATA / "dup_branch.fts", "--relation", rel,
            "-o", tmp_path / "q.fts",
        )
        assert code == 2
        assert "not an equivalence" in err

    def test_hom_image(self, capsys, tmp_path):
        out_path = tmp_path / "img.fts"
        code, _, _ = invoke(
            capsys, "hom-image", DATA / "dup_branch.fts", DATA / "dup_min.fts",
            "--map", DATA / "dup_branch.map", "-o", out_path,
        )
        assert code == 0
        assert out_path.read_text() == (DATA / "dup_min.fts").read_text()

    def test_hom_image_failure_writes_nothing(self, capsys, tmp_path):
        fmap = tmp_path / "const.map"
        fmap.write_text(
            "map: s0 -> [s0]\nmap: s1 -> [s0]\nmap: s2 -> [s0]\n"
            "map: s3 -> [s0]\nmap: s4 -> [s0]\n"
        )
        out_path = tmp_path / "img.fts"
        code, out, _ = invoke(
            capsys, "hom-image", DATA / "dup_branch.fts", DATA / "dup_min.fts",
            "--map", fmap, "-o", out_path,
        )
        assert code == 1
        assert "not a homomorphism" in out
        assert not out_path.exists()

    @pytest.mark.parametrize("homomorphism", [True, False])
    def test_hom_image_checks_the_map_once(self, capsys, tmp_path, monkeypatch, homomorphism):
        fmap = DATA / "dup_branch.map"
        if not homomorphism:
            fmap = tmp_path / "const.map"
            fmap.write_text("".join(f"map: s{i} -> [s0]\n" for i in range(5)))
        calls = []
        check = fuzzts.algebra.check_homomorphism

        def counted(*args):
            calls.append(args)
            return check(*args)

        monkeypatch.setattr(fuzzts.algebra, "check_homomorphism", counted)
        monkeypatch.setattr(fuzzts.cli, "check_homomorphism", counted)
        code, _, _ = invoke(
            capsys, "hom-image", DATA / "dup_branch.fts", DATA / "dup_min.fts",
            "--map", fmap, "-o", tmp_path / "img.fts",
        )
        assert code == (0 if homomorphism else 1)
        assert len(calls) == 1

    def test_failed_write_keeps_existing_output(self, capsys, tmp_path, monkeypatch):
        out_path = tmp_path / "min.fts"
        out_path.write_text("previous contents\n")

        def no_space(src, dst):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(os, "replace", no_space)
        code, out, err = invoke(
            capsys, "minimize", DATA / "dup_branch.fts", "-o", out_path
        )
        assert (code, out) == (2, "")
        assert err == f"error: {out_path}: {os.strerror(errno.ENOSPC)}\n"
        assert out_path.read_text() == "previous contents\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["min.fts"]

    def test_written_output_replaces_file_with_plain_mode(self, capsys, tmp_path):
        out_path = tmp_path / "min.fts"
        out_path.write_text("previous contents\n")
        code, _, _ = invoke(capsys, "minimize", DATA / "dup_branch.fts", "-o", out_path)
        assert code == 0
        assert out_path.read_text() == (DATA / "dup_min.fts").read_text()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["min.fts"]
        umask = os.umask(0)
        os.umask(umask)
        assert out_path.stat().st_mode & 0o777 == 0o666 & ~umask


class TestSubsystemAndHomCheck:
    def test_subsystem_false(self, capsys):
        code, out, _ = invoke(
            capsys, "subsystem", DATA / "dup_min.fts", DATA / "dup_branch.fts"
        )
        assert (code, out) == (1, "not a subsystem\n")

    def test_subsystem_true(self, capsys, tmp_path):
        tail = tmp_path / "tail.fts"
        tail.write_text(
            "system tail\nstates: s1 s2 s3\nlabels: a b c\ninit: s1\n"
            "trans: s1 b 0.8 s2\ntrans: s1 c 0.7 s3\n"
        )
        code, out, _ = invoke(
            capsys, "subsystem", tail, DATA / "choice_late.fts"
        )
        assert (code, out) == (0, "subsystem\n")

    def test_hom_check_holds(self, capsys):
        code, out, _ = invoke(
            capsys, "hom-check", DATA / "dup_branch.fts", DATA / "dup_min.fts",
            "--map", DATA / "dup_branch.map",
        )
        assert (code, out) == (0, "homomorphism\n")

    def test_hom_check_fails(self, capsys, tmp_path):
        fmap = tmp_path / "swap.map"
        fmap.write_text(
            "map: s0 -> [s1]\nmap: s1 -> [s1]\nmap: s2 -> [s1]\n"
            "map: s3 -> [s3]\nmap: s4 -> [s3]\n"
        )
        code, out, _ = invoke(
            capsys, "hom-check", DATA / "dup_branch.fts", DATA / "dup_min.fts",
            "--map", fmap,
        )
        assert code == 1
        assert out.splitlines()[0] == "not a homomorphism"
        assert "kind=init-map" in out

    def test_map_not_total(self, capsys, tmp_path):
        fmap = tmp_path / "partial.map"
        fmap.write_text("map: s0 -> [s0]\n")
        code, _, err = invoke(
            capsys, "hom-check", DATA / "dup_branch.fts", DATA / "dup_min.fts",
            "--map", fmap,
        )
        assert code == 2
        assert "not total" in err


class TestUsage:
    def test_no_command(self, capsys):
        assert run([]) == 2

    def test_unknown_command(self, capsys):
        assert run(["frobnicate"]) == 2

    def test_missing_required_option(self, capsys):
        assert run(["lang", str(DATA / "choice_late.fts")]) == 2

    def test_parser_is_built_once(self, capsys, monkeypatch):
        assert run(["validate", str(DATA / "choice_late.fts")]) == 0

        def rebuilt(*args, **kwargs):
            raise AssertionError("parser rebuilt")

        monkeypatch.setattr(argparse, "ArgumentParser", rebuilt)
        assert run(["validate", str(DATA / "choice_late.fts")]) == 0
        assert run(["lang", str(DATA / "choice_late.fts")]) == 2


class TestDeterminismAndEntryPoints:
    def test_byte_identical_repeated_runs(self, capsys):
        outputs = []
        for _ in range(2):
            _, out, _ = invoke(
                capsys, "--json", "lang-table", DATA / "choice_late.fts",
                "--max-len", "3",
            )
            outputs.append(out)
        assert outputs[0] == outputs[1]

    def test_module_entry_point(self):
        result = subprocess.run(
            [sys.executable, "-m", "fuzzts", "lang",
             str(DATA / "choice_late.fts"), "--word", "a c"],
            capture_output=True, text=True,
        )
        assert result.returncode == 0
        assert result.stdout == "0.7\n"

    def test_console_script(self):
        result = subprocess.run(
            ["fuzzts", "bisimilar", str(DATA / "choice_late.fts"),
             str(DATA / "choice_early.fts")],
            capture_output=True, text=True,
        )
        assert result.returncode == 1
        assert result.stdout.startswith("not bisimilar")
