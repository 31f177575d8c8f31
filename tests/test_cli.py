"""End to end runs of the command line interface."""

import hashlib
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from permdfa import cli, harness

GOLDEN = Path(__file__).parent / "golden"

LEFT_DFA = """\
states 2
alphabet a b
trans a id
trans b (0,1)
initial 0
final 0
"""

RIGHT_DFA = """\
states 3
alphabet a b
trans a (0,1,2)
trans b (0,1)
initial 0
final 0 1
"""

RIGHT_PLAIN = """\
states 3
alphabet a b
trans a (0,1,2)
trans b (0,1)
initial 0
"""


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "permdfa", *args],
        capture_output=True, text=True)


@pytest.fixture
def automata(tmp_path):
    paths = {}
    for name, text in (("left.aut", LEFT_DFA), ("right.aut", RIGHT_DFA),
                       ("plain.aut", RIGHT_PLAIN)):
        p = tmp_path / name
        p.write_text(text)
        paths[name.split(".")[0]] = str(p)
    return paths


class TestConjugateBases:
    def test_conjugate_pair(self):
        r = run_cli("perm", "conjugate-bases", "-n", "3",
                    "--b1", "(0,1,2);(0,1)", "--b2", "(0,1,2);(1,2)")
        assert r.returncode == 0
        assert r.stdout == "(0,1,2)\n"

    def test_non_conjugate_pair(self):
        r = run_cli("perm", "conjugate-bases", "-n", "3",
                    "--b1", "(0,1,2);(0,1)", "--b2", "(0,1);(0,1,2)")
        assert r.returncode == 0
        assert r.stdout == "none\n"

    def test_degree_nine(self):
        # (0,1,...,8);(0,1) relabelled by (0,4,2)(1,7)(3,8,5,6)
        r = run_cli("perm", "conjugate-bases", "-n", "9",
                    "--b1", "(0,1,2,3,4,5,6,7,8);(0,1)",
                    "--b2", "(0,8,2,6,3,1,5,4,7);(4,7)")
        assert r.returncode == 0, r.stderr
        assert r.stdout == "(0,4,2)(1,7)(3,8,5,6)\n"

    def test_bad_cycle_text(self):
        r = run_cli("perm", "conjugate-bases", "-n", "3",
                    "--b1", "(0,5);(0,1)", "--b2", "(0,1,2);(0,1)")
        assert r.returncode == 2
        assert r.stderr.startswith("error:")


class TestComplexity:
    def test_by_name(self, automata):
        r = run_cli("complexity", "--left", automata["left"],
                    "--right", automata["right"], "--op", "xor")
        assert r.returncode == 0
        assert r.stdout == "6\n"

    def test_by_table(self, automata):
        r = run_cli("complexity", "--left", automata["left"],
                    "--right", automata["right"], "--table", "0110")
        assert r.returncode == 0
        assert r.stdout == "6\n"

    def test_table_text_through_either_flag(self, automata):
        for args in (("--op", "0110"), ("--table", "xor")):
            r = run_cli("complexity", "--left", automata["left"],
                        "--right", automata["right"], *args)
            assert r.returncode == 0
            assert r.stdout == "6\n"

    def test_bad_table(self, automata):
        r = run_cli("complexity", "--left", automata["left"],
                    "--right", automata["right"], "--table", "01x0")
        assert r.returncode == 2
        assert r.stderr.startswith("error:")

    def test_missing_finals(self, automata):
        r = run_cli("complexity", "--left", automata["left"],
                    "--right", automata["plain"], "--op", "and")
        assert r.returncode == 2
        assert "no final line" in r.stderr

    def test_op_and_table_conflict(self, automata):
        r = run_cli("complexity", "--left", automata["left"],
                    "--right", automata["right"],
                    "--op", "and", "--table", "0001")
        assert r.returncode == 2

    def test_right_letters_in_any_order(self, tmp_path):
        # every trans line names its letter, so the order of the alphabet
        # line carries no meaning
        left = tmp_path / "left.aut"
        left.write_text("states 3\nalphabet a b\ntrans a (0,1,2)\n"
                        "trans b (0,1)\ninitial 0\nfinal 0 1\n")
        outputs = []
        for letters in ("a b", "b a"):
            right = tmp_path / "right.aut"
            right.write_text(f"states 4\nalphabet {letters}\n"
                             "trans a (0,1)\ntrans b (1,3,2)\ninitial 0\n"
                             "final 0 1\n")
            for command in ("complexity", "pairgraph"):
                r = run_cli(command, "--left", str(left),
                            "--right", str(right), "--op", "xor")
                assert (r.returncode, r.stderr) == (0, "")
                outputs.append(r.stdout)
        assert outputs[0] == "12\n"
        assert outputs[2:] == outputs[:2]

    def test_missing_file(self, automata, tmp_path):
        r = run_cli("complexity", "--left", str(tmp_path / "nope.aut"),
                    "--right", automata["right"], "--op", "and")
        assert r.returncode == 2
        assert r.stderr.startswith("error:")


class TestPairgraph:
    def test_with_operation(self, automata):
        r = run_cli("pairgraph", "--left", automata["left"],
                    "--right", automata["right"], "--op", "xor")
        assert r.returncode == 0
        lines = r.stdout.splitlines()
        assert lines[0] == ("pairgraph m=2 n=3 vertices=15 components=4 "
                            "connected=true")
        assert lines[-1] == "predicted minimal: true"
        assert any(ln.endswith("*") for ln in lines)

    def test_table_matches_name(self, automata):
        by_name = run_cli("pairgraph", "--left", automata["left"],
                          "--right", automata["right"], "--op", "xor")
        by_table = run_cli("pairgraph", "--left", automata["left"],
                           "--right", automata["right"], "--table", "0110")
        assert by_table.returncode == 0
        assert by_table.stdout == by_name.stdout

    def test_without_operation(self, automata):
        r = run_cli("pairgraph", "--left", automata["left"],
                    "--right", automata["plain"])
        assert r.returncode == 0
        assert "*" not in r.stdout
        assert "predicted minimal" not in r.stdout

    def test_operation_needs_finals(self, automata):
        r = run_cli("pairgraph", "--left", automata["left"],
                    "--right", automata["plain"], "--op", "and")
        assert r.returncode == 2
        assert "cannot apply an operation" in r.stderr


class TestVerify:
    def test_exhaustive_to_file(self, tmp_path):
        out = tmp_path / "report.tsv"
        r = run_cli("verify", "--m", "2", "--n", "3", "--exhaustive",
                    "--out", str(out))
        assert r.returncode == 0
        assert r.stdout == ""
        assert r.stderr.strip() == ("summary: total=6480 pass=6480"
                                    " exception-expected=0 fail=0 conjugate=0")
        lines = out.read_text().splitlines()
        assert len(lines) == 6481
        assert lines[0].split("\t")[:2] == ["m", "n"]

    @pytest.mark.parametrize("m, reason", [("5", "budget"),
                                           ("6", "limited to degree 5")])
    def test_refused_exhaustive_leaves_out_file_alone(self, tmp_path, m, reason):
        kept = tmp_path / "kept.tsv"
        kept.write_text("an earlier report\n")
        absent = tmp_path / "absent.tsv"
        for out in (kept, absent):
            r = run_cli("verify", "--m", m, "--n", "5", "--exhaustive",
                        "--out", str(out))
            assert r.returncode == 2
            assert reason in r.stderr
        assert kept.read_text() == "an earlier report\n"
        assert not absent.exists()

    def test_exhaustive_to_stdout(self):
        r = run_cli("verify", "--m", "2", "--n", "2", "--exhaustive")
        assert r.returncode == 0
        lines = r.stdout.splitlines()
        assert len(lines) == 361
        assert "exception-expected=48" in r.stderr

    def test_sampled(self):
        r = run_cli("verify", "--m", "3", "--n", "3",
                    "--samples", "6", "--seed", "4")
        assert r.returncode == 0
        assert len(r.stdout.splitlines()) == 7
        assert "total=6" in r.stderr

    def test_samples_need_seed(self):
        r = run_cli("verify", "--m", "3", "--n", "3", "--samples", "5")
        assert r.returncode == 2
        assert "--samples requires --seed" in r.stderr

    def test_seed_rejected_when_exhaustive(self):
        r = run_cli("verify", "--m", "2", "--n", "2", "--exhaustive",
                    "--seed", "1")
        assert r.returncode == 2

    def test_ops_filter(self):
        r = run_cli("verify", "--m", "2", "--n", "2", "--exhaustive",
                    "--ops", "xor,and")
        assert r.returncode == 0
        assert "total=72" in r.stderr

    def test_unknown_op(self):
        r = run_cli("verify", "--m", "2", "--n", "2", "--exhaustive",
                    "--ops", "frobnicate")
        assert r.returncode == 2

    @pytest.mark.parametrize("ops", ["", ","])
    def test_empty_ops_rejected(self, ops):
        # an empty list given on purpose is an error, not the default
        r = run_cli("verify", "--m", "2", "--n", "2", "--exhaustive",
                    "--ops", ops)
        assert r.returncode == 2
        assert r.stdout == ""
        assert r.stderr == "error: no operations given\n"

    def test_improper_op(self):
        r = run_cli("verify", "--m", "2", "--n", "2", "--exhaustive",
                    "--ops", "0000")
        assert r.returncode == 2
        assert "proper" in r.stderr

    def test_improper_op_beside_a_proper_one(self):
        r = run_cli("verify", "--m", "2", "--n", "3", "--exhaustive",
                    "--ops", "and,0011")
        assert r.returncode == 2
        assert r.stdout == ""
        assert r.stderr == ("error: '0011' depends on at most one argument;"
                            " campaigns only cover proper operations\n")

    def test_out_of_memory_exits_two(self, monkeypatch, capsys, tmp_path):
        # a campaign too large for memory, such as --m 1000 --n 1000, fails
        # in product.pair_count, in this process on any number of CPUs
        def exhausted(actions, reachable, start, flat, state_count):
            raise MemoryError

        monkeypatch.setattr(harness, "pair_count", exhausted)
        for cpus in ({0}, {0, 1}):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
            assert cli.main(["verify", "--m", "2", "--n", "3", "--exhaustive",
                             "--out", str(tmp_path / "report.tsv")]) == 2
            assert capsys.readouterr().err == "error: out of memory\n"

    def test_out_of_memory_in_a_child_range_exits_two(self, monkeypatch,
                                                       capsys):
        # On two CPUs a forked child judges samples 50 to 99; the left basis
        # of sample 60 first appears there, so only that range runs out of
        # memory, and this process judges it again and fails the same way.
        real = harness._PairJudge

        def context(b1, b2, start=0):
            if str(b1) == "(0,1,3,4,2);(0,3,4)(1,2)":
                raise MemoryError
            return real(b1, b2, start)

        monkeypatch.setattr(harness, "_PairJudge", context)
        for cpus in ({0}, {0, 1}):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
            assert cli.main(["verify", "--m", "5", "--n", "5", "--samples",
                             "100", "--seed", "1", "--out", os.devnull]) == 2
            assert capsys.readouterr().err == "error: out of memory\n"

    @pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
    def test_seed_outside_64_bits(self, seed):
        # splitmix64 keeps 64 bits of the seed, so such a seed would repeat
        # the report of another one
        r = run_cli("verify", "--m", "3", "--n", "3", "--samples", "40",
                    "--seed", seed)
        assert r.returncode == 2
        assert r.stdout == ""
        assert r.stderr == f"error: seed must be in 0..2^64-1, got {seed}\n"


class TestPinnedReports:
    # Report digests and summaries recorded from the CLI before any
    # refactoring; perfbench/reference.json holds the same entries for the
    # first, second, third and sixth case.
    CASES = [
        (("--m", "2", "--n", "3", "--exhaustive"),
         "e8fc49ff9e60d8e514d256870a19d6dc13dae607a8d5404208e999377030a873",
         "summary: total=6480 pass=6480 exception-expected=0 fail=0"
         " conjugate=0"),
        (("--m", "5", "--n", "5", "--samples", "1000", "--seed", "1"),
         "f881ff7136c3fb512558ea9c83db3f8857c2acacf2ba5de3c1575256b1730c74",
         "summary: total=1000 pass=1000 exception-expected=0 fail=0"
         " conjugate=143"),
        (("--m", "3", "--n", "4", "--exhaustive", "--ops", "xor,xnor"),
         "e2c154aea89bacf7170d0c2ea3d088e2faf384c32501ddf859b0238be3837d67",
         "summary: total=653184 pass=622080 exception-expected=31104 fail=0"
         " conjugate=0"),
        (("--m", "3", "--n", "3", "--exhaustive"),
         "c141bf397bfc665993f6b73fc30337e35ee814bc519788acf60a848110ee5ed5",
         "summary: total=116640 pass=116640 exception-expected=0 fail=0"
         " conjugate=38880"),
        (("--m", "2", "--n", "4", "--exhaustive"),
         "d43b43934d117e70e447f888487304aa0a62f864833f32cfc4637890471e417b",
         "summary: total=181440 pass=181440 exception-expected=0 fail=0"
         " conjugate=0"),
        (("--m", "3", "--n", "4", "--exhaustive"),
         "41e73bd2b800a0e1f60a09c6bcf697c4ee11fbab1af502f07fe472308caf0b89",
         "summary: total=3265920 pass=3172608 exception-expected=93312 fail=0"
         " conjugate=0"),
        # Sampled campaigns at degrees 7 and 10; the second took about 140 s
        # with the factorial generation test.
        (("--m", "7", "--n", "7", "--samples", "50", "--seed", "42"),
         "b5c1393367b35fcbae39003a911c963f7e271c03a3d383bcf8c5fde49c869577",
         "summary: total=50 pass=50 exception-expected=0 fail=0 conjugate=6"),
        (("--m", "10", "--n", "10", "--samples", "100", "--seed", "42"),
         "b4395b296ea6a044741d41acfe384988e0a6de1d304f70b50caf5fb3bb4e7458",
         "summary: total=100 pass=100 exception-expected=0 fail=0"
         " conjugate=12"),
        # Conjugate pairs are most of this sweep; it took about 80 s when
        # each of them was judged on its own.
        (("--m", "4", "--n", "4", "--exhaustive", "--ops", "and"),
         "81bd4fe1c068f2e5171d133f4512cc769021a56bfd7c42df89f48bd788170e4d",
         "summary: total=9144576 pass=9144576 exception-expected=0 fail=0"
         " conjugate=1016064"),
        # The first degree-5 exhaustive report: 6,840 bases on the right.
        (("--m", "2", "--n", "5", "--exhaustive", "--ops", "and"),
         "f6a9cfe1c5cde2708151c8c28f93f3ebafadffb65f8ff7c5ff2cebf8dc0a711c",
         "summary: total=1231200 pass=1231200 exception-expected=0 fail=0"
         " conjugate=0"),
    ]

    @pytest.mark.parametrize("args,sha256,summary", CASES)
    def test_report_digest(self, tmp_path, args, sha256, summary):
        # Reports reach hundreds of megabytes, so --out names a FIFO that a
        # thread hashes 1 MiB at a time, and no report reaches the disk.
        out = tmp_path / "report.tsv"
        os.mkfifo(out)
        digest = hashlib.sha256()

        def hash_report():
            with out.open("rb") as fh:
                while chunk := fh.read(1 << 20):
                    digest.update(chunk)

        reader = threading.Thread(target=hash_report)
        reader.start()
        try:
            r = run_cli("verify", *args, "--out", str(out))
        finally:
            if reader.is_alive():
                # a writer that never opened the FIFO leaves the reader
                # waiting in open; an empty write end releases it
                os.close(os.open(out, os.O_WRONLY | os.O_NONBLOCK))
            reader.join()
        assert r.returncode == 0
        assert r.stderr == summary + "\n"
        assert digest.hexdigest() == sha256

    def test_benchmark_references_agree(self):
        # perfbench/reference.json keys a reference by its verify command
        references = json.loads(
            (Path(__file__).parents[1] / "perfbench" / "reference.json")
            .read_text())
        pinned = {" ".join(("verify", *args)):
                  {"summary": summary, "sha256": sha256}
                  for args, sha256, summary in self.CASES}
        shared = pinned.keys() & references.keys()
        assert len(shared) == 4
        for command in shared:
            assert references[command] == pinned[command]


class TestReproduce:
    def test_fixed_example(self):
        r = run_cli("reproduce", "example-3.3")
        assert r.returncode == 0
        assert r.stdout == (GOLDEN / "example-3.3.txt").read_text()

    def test_prop1(self):
        r = run_cli("reproduce", "prop-1", "--m", "3", "--n", "4")
        assert r.returncode == 0
        assert r.stdout == (GOLDEN / "prop-1-m3-n4.txt").read_text()

    def test_unknown_id(self):
        # the id is checked before the --m/--n rule
        for degrees in ((), ("--m", "3")):
            r = run_cli("reproduce", "example-9.9", *degrees)
            assert r.returncode == 2
            assert r.stderr.startswith(
                "error: unknown reproduction id 'example-9.9'; known ids: ")

    def test_degrees_rejected(self):
        r = run_cli("reproduce", "example-1", "--m", "3")
        assert r.returncode == 2

    def test_disagreement_exits_one(self, monkeypatch, capsys):
        count = harness.pair_count
        monkeypatch.setattr(harness, "pair_count",
                            lambda *args: count(*args) - 1)
        assert cli.main(["reproduce", "example-3.4"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "two-path disagreement: Moore 16 vs pair route 15 on instance: ")
