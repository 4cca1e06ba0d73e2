"""End-to-end command line checks, run through a real subprocess."""

import subprocess
import sys

import pytest

from planalg import make_verlinde
from planalg.table_algebra import TableAlgebra
from planalg.selftest import CHECKS, KNOWN_FAILURES, run_check

IDENTITY_2 = "1 * n=2 | 1-4:0 2-3:0\n"

TLBASIS_I24 = """\
group: I2(4)
wc: 7
c[e] = (1) t~[e]
c[1] = (v^-1) t~[e] + (1) t~[1]
c[2] = (v^-1) t~[e] + (1) t~[2]
c[12] = (v^-2) t~[e] + (v^-1) t~[1] + (v^-1) t~[2] + (1) t~[12]
c[21] = (v^-2) t~[e] + (v^-1) t~[1] + (v^-1) t~[2] + (1) t~[21]
c[121] = (v^-3) t~[e] + (v^-2) t~[1] + (v^-2) t~[2] + (v^-1) t~[12] + (v^-1) t~[21] + (1) t~[121]
c[212] = (v^-3) t~[e] + (v^-2) t~[1] + (v^-2) t~[2] + (v^-1) t~[12] + (v^-1) t~[21] + (1) t~[212]
oracle: theta(C'_w) == c_w for all w
"""


def run_cli(*args, stdin=""):
    return subprocess.run(
        [sys.executable, "-m", "planalg", *args],
        input=stdin,
        capture_output=True,
        text=True,
    )


def test_drank_plain_and_machine():
    proc = run_cli("drank", "--r", "1", "--nmax", "5")
    assert proc.returncode == 0
    assert proc.stdout == "1 2 5 14 42\n"
    proc = run_cli("--machine", "drank", "--r", "2", "--nmax", "4")
    assert proc.stdout.splitlines() == [
        "drank[1]=2", "drank[2]=6", "drank[3]=20", "drank[4]=70",
    ]


def test_trace_of_unit():
    proc = run_cli("trace", "--n", "2", "--verlinde", "3", stdin=IDENTITY_2)
    assert proc.returncode == 0
    assert proc.stdout == "tau: 1 + 2v^-2 + v^-4\n"
    proc = run_cli("--machine", "trace", "--n", "2", "--verlinde", "3",
                   stdin=IDENTITY_2)
    assert proc.stdout == "tau=1 + 2v^-2 + v^-4\n"


def test_trace_of_cap():
    stdin = "1 * n=2 | 1-2:0 3-4:0\n"
    proc = run_cli("trace", "--n", "2", "--verlinde", "2", stdin=stdin)
    assert proc.stdout == "tau: v^-1 + v^-3\n"


def test_mul_identity_is_neutral():
    cap = "1 * n=2 | 1-2:0 3-4:0\n"
    proc = run_cli("mul", "--n", "2", "--verlinde", "2",
                   stdin=cap + "--\n" + IDENTITY_2)
    assert proc.returncode == 0
    assert proc.stdout == cap


def test_star_swaps_halves_and_bars_coefficients():
    proc = run_cli("star", "--n", "2", "--verlinde", "3",
                   stdin="v * n=2 | 1-2:1 3-4:2\n")
    assert proc.stdout == "v^-1 * n=2 | 1-2:2 3-4:1\n"
    again = run_cli("star", "--n", "2", "--verlinde", "3", stdin=proc.stdout)
    assert again.stdout == "v * n=2 | 1-2:1 3-4:2\n"


def test_verlinde_output_round_trips():
    proc = run_cli("verlinde", "3")
    assert proc.returncode == 0
    assert TableAlgebra.from_text(proc.stdout) == make_verlinde(3)


def test_basis_sizes():
    proc = run_cli("--machine", "basis", "--n", "2", "--verlinde", "2")
    assert proc.stdout.splitlines()[0] == "size=8"
    proc = run_cli("--machine", "dbasis", "--n", "3", "--verlinde", "3")
    assert proc.stdout.splitlines()[0] == "size=51"


def test_omega_moves_plain_cap():
    proc = run_cli("omega", "--n", "2", "--verlinde", "3",
                   stdin="1 * n=2 | 1-2:0 3-4:0\n")
    assert proc.stdout == "1 * n=2 | 1-2:2 3-4:2\n"


def test_axioms_machine_report():
    proc = run_cli("--machine", "axioms", "--n", "2", "--verlinde", "2")
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    for key in ("A1", "A2", "A3", "A4", "A5", "a_function", "exhaustive"):
        assert f"{key}=True" in lines


def test_tlbasis_golden():
    proc = run_cli("tlbasis", "--type", "I", "--rank", "2", "--m", "4")
    assert proc.returncode == 0
    assert proc.stdout == TLBASIS_I24


def test_embed_machine_report():
    proc = run_cli("--machine", "embed", "--type", "I", "--rank", "2",
                   "--m", "4")
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    for want in ("variant=I", "group=I2(4)", "target=P(3,3)",
                 "canonical_images=7", "image_matches=True",
                 "bijection=True"):
        assert want in lines


def test_conjecture_exit_zero():
    proc = run_cli("conjecture", "--type", "B", "--rank", "2")
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert "elements=8" in lines
    assert "zero_images=1" in lines
    assert "ok=True" in lines


@pytest.mark.parametrize("args,stdin", [
    (("nosuchcmd",), ""),
    (("mul", "--n", "2", "--verlinde", "2"), ""),  # missing second element
    (("trace", "--n", "2", "--verlinde", "2"), "garbage text\n"),
    (("embed", "--type", "Q", "--rank", "2"), ""),
    (("selftest", "--only", "99"), ""),
    (("tlbasis", "--type", "I", "--rank", "2", "--m", "2"), ""),
])
def test_usage_errors_exit_two(args, stdin):
    proc = run_cli(*args, stdin=stdin)
    assert proc.returncode == 2


@pytest.mark.parametrize("command", ["mul", "trace"])
@pytest.mark.parametrize("line", [
    "1 * n=2 | 1-3:0 2-4:0",  # crossing strands
    "1 * n=2 | 1-2:7 3-4:0",  # label outside V_2
    "1 * n=2 | 1-2:-1 3-4:0",  # negative label
    "1 * n=3 | 1-6:0 2-5:0 3-4:0",  # diagram of the wrong size
])
def test_bad_diagrams_exit_two_with_a_message(command, line):
    stdin = line + "\n" + ("--\n" + IDENTITY_2 if command == "mul" else "")
    proc = run_cli(command, "--n", "2", "--verlinde", "2", stdin=stdin)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("planalg: cannot parse element")


@pytest.mark.parametrize("command", ["tlbasis", "embed", "conjecture"])
def test_h4_is_refused_up_front(command):
    proc = run_cli(command, "--type", "H", "--rank", "4")
    assert proc.returncode == 2
    assert "--rank 4" in proc.stderr


def test_selftest_single_check_passes():
    proc = run_cli("selftest", "--only", "3")
    assert proc.returncode == 0
    line = proc.stdout.splitlines()[0]
    assert line.startswith("check 03 sqrt2-homomorphism: PASS")
    proc = run_cli("--machine", "selftest", "--only", "3")
    assert proc.stdout.startswith(
        "check=03 name=sqrt2-homomorphism result=pass")


def test_selftest_only_dedups_and_sorts():
    proc = run_cli("selftest", "--only", "3,1,3")
    assert proc.returncode == 0
    assert [line[:8] for line in proc.stdout.splitlines()] == [
        "check 01", "check 03"]
    proc = run_cli("--machine", "selftest", "--only", "3,1,3")
    assert proc.returncode == 0
    assert [line.split()[:2] for line in proc.stdout.splitlines()] == [
        ["check=01", "name=fusion-rings"],
        ["check=03", "name=sqrt2-homomorphism"],
    ]


def test_selftest_known_failure_exits_one():
    proc = run_cli("selftest", "--only", "11")
    assert proc.returncode == 1
    assert "FAIL" in proc.stdout
    assert "I2(6): MOVED" in proc.stdout


def test_check_table_consistency():
    numbers = [number for number, _, _, _ in CHECKS]
    assert numbers == list(range(1, 15))
    assert KNOWN_FAILURES == {11}
    res = run_check(3)
    assert res.passed and res.number == 3
