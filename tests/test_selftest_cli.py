"""End-to-end command line checks, run through a real subprocess."""

import hashlib
import re
import resource
import subprocess
import sys

import pytest

from planalg import make_verlinde
from planalg.cli import MAX_DIAGRAMS, MAX_RANK, _basis_size, _emit
from planalg.planar import Context
from planalg.embed import rho_build, rho_verify_bijection
from planalg.table_algebra import (
    TableAlgebra, cyclic_group_algebra, permutation_group_algebra,
)
from planalg.selftest import CHECKS, KNOWN_FAILURES, CheckResult, run_check
from planalg.tabular import AxiomReport

IDENTITY_2 = "1 * n=2 | 1-4:0 2-3:0\n"
# parses at --n 13, so only the size bound can refuse it
IDENTITY_13 = "1 * n=13 | " + " ".join(f"{i}-{27 - i}:0" for i in range(1, 14)) + "\n"
# every strand u_3: in V_8 each stacked strand fuses to four labels, 4^9 terms
U3_9 = "1 * n=9 | " + " ".join(f"{i}-{19 - i}:3" for i in range(1, 10)) + "\n"
# stands for a file holding the table of Z/33, one rank above MAX_RANK
Z33_FILE = "<Z/33 table file>"
# stands for a file holding the table of V_2, a valid label algebra
V2_FILE = "<V_2 table file>"
# stand for element files: the bytes ff fe, a label spelled with a
# non-ASCII letter, the identity of P(2, r), a path that does not exist
# and a directory
BYTES_FILE = "<element file of bytes ff fe>"
ACUTE_FILE = "<element file with an accented label>"
IDENTITY_FILE = "<identity element file>"
MISSING_FILE = "<missing element file>"
DIR_FILE = "<directory>"
# stand for the element files of the two-file mul golden row
X_FILE = "<element file v * cap>"
Y_FILE = "<element file 1 * labeled identity>"


def _input_files(tmp_path) -> dict:
    """Each file placeholder above mapped to a path written under tmp_path."""
    texts = {
        Z33_FILE: cyclic_group_algebra(MAX_RANK + 1).to_text().encode(),
        V2_FILE: make_verlinde(2).to_text().encode(),
        BYTES_FILE: b"\xff\xfe",
        ACUTE_FILE: "1 * n=2 | 1-4:0 2-3:\u00e9\n".encode(),
        IDENTITY_FILE: IDENTITY_2.encode(),
        X_FILE: b"v * n=2 | 1-2:1 3-4:0\n",
        Y_FILE: b"1 * n=2 | 1-4:1 2-3:1\n",
    }
    files = {MISSING_FILE: str(tmp_path / "missing.txt"), DIR_FILE: str(tmp_path)}
    for k, (name, data) in enumerate(texts.items()):
        path = tmp_path / f"input{k}.txt"
        path.write_bytes(data)
        files[name] = str(path)
    return files

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


def run_cli(*args, stdin="", preexec_fn=None):
    """The CLI in a subprocess; bytes stdin gives bytes output."""
    return subprocess.run(
        [sys.executable, "-m", "planalg", *args],
        input=stdin,
        capture_output=True,
        text=not isinstance(stdin, bytes),
        preexec_fn=preexec_fn,
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


def test_zero_element_text_is_still_zero():
    proc = run_cli("star", "--n", "2", "--verlinde", "2", stdin="0\n")
    assert (proc.returncode, proc.stdout) == (0, "0\n")


def test_verlinde_output_round_trips():
    proc = run_cli("verlinde", "3")
    assert proc.returncode == 0
    assert TableAlgebra.from_text(proc.stdout) == make_verlinde(3)


def test_basis_sizes():
    proc = run_cli("--machine", "basis", "--n", "2", "--verlinde", "2")
    assert proc.stdout.splitlines()[0] == "size=8"
    proc = run_cli("--machine", "dbasis", "--n", "3", "--verlinde", "3")
    assert proc.stdout.splitlines()[0] == "size=51"


def test_basis_help_texts():
    # dbasis lists the exposed sub-basis, not the whole basis.
    helps = {line.split()[0]: " ".join(line.split()[1:])
             for line in run_cli("--help").stdout.splitlines()
             if line.startswith("    ") and line.split()[0] in ("basis", "dbasis")}
    assert helps == {"basis": "list basis diagrams",
                     "dbasis": "list the exposed sub-basis D(n, r)"}


def test_omega_moves_plain_cap():
    proc = run_cli("omega", "--n", "2", "--verlinde", "3",
                   stdin="1 * n=2 | 1-2:0 3-4:0\n")
    assert proc.stdout == "1 * n=2 | 1-2:2 3-4:2\n"


@pytest.mark.parametrize("line", [
    "1 * n=2 | 1-2:0 3-4:0",  # w * u_0 is one label, but w is refused anyway
    "1 * n=2 | 1-2:2 3-4:0",  # w * w = u_0 + u_2 is two basis elements
])
def test_omega_refuses_a_top_element_that_is_not_group_like(tmp_path, line):
    # V_3 with u_1 and u_2 swapped: a valid label algebra whose top basis
    # element is u_1
    v3, swap = make_verlinde(3), (0, 2, 1)
    rows = {(swap[a], swap[b]): {swap[c]: m for c, m in row.items()}
            for (a, b), row in v3.rows.items()}
    path = tmp_path / "v3_top_u1.txt"
    path.write_text(TableAlgebra(3, 0, (0, 1, 2), rows, ("u0", "u2", "u1")).to_text())
    proc = run_cli("omega", "--n", "2", "--algebra", str(path), stdin=line + "\n")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == ("planalg: omega: top basis element is not group-like: "
                           "w*b2 = {0: 1, 1: 1}\n")


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


# sha256 of the tlbasis stdout, recorded from the unit-coordinate
# recursion before c_w was kept in the t-basis.
TLBASIS_SHA256 = {
    "B": "815c1ced27d5d58b23cc85121a0aab490f60f92df38b213a4b4b93cd1b20a173",
    "H": "52e738069627f5be0ddc19d27c0ca17ba46c0b48b5ac743eaf9a4ff627358b89",
}


@pytest.mark.parametrize("family", ["B", "H"])
def test_tlbasis_rank_three_is_pinned(family):
    proc = run_cli("tlbasis", "--type", family, "--rank", "3")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == TLBASIS_SHA256[family]


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
    (("tlbasis", "--type", "A", "--rank", "5"), ""),
    (("embed", "--type", "B", "--rank", "4"), ""),
    (("conjecture", "--type", "I", "--rank", "2", "--m", "13"), ""),
    (("conjecture", "--type", "A", "--rank", "1"), ""),
    # refused from the closed-form size, before any diagram is listed
    (("basis", "--n", "7", "--verlinde", "4"), ""),
    (("dbasis", "--n", "7", "--verlinde", "4"), ""),
    (("axioms", "--n", "5", "--verlinde", "5"), ""),
    (("drank", "--r", "2", "--nmax", "9"), ""),
    (("mul", "--n", "13", "--verlinde", "1"), IDENTITY_13 + "--\n" + IDENTITY_13),
    (("star", "--n", "13", "--verlinde", "1"), IDENTITY_13),
    (("trace", "--n", "13", "--verlinde", "1"), IDENTITY_13),
    (("omega", "--n", "13", "--verlinde", "1"), IDENTITY_13),
    # refused from the rank, before the label algebra is built or checked
    (("verlinde", "33"), ""),
    (("basis", "--n", "1", "--verlinde", "33"), ""),
    (("drank", "--r", "33", "--nmax", "1"), ""),
    (("basis", "--n", "1", "--algebra", Z33_FILE), ""),
    # refused from a bound on its terms, before the product is formed
    (("mul", "--n", "9", "--verlinde", "8"), U3_9 + "--\n" + U3_9),
    # refused from a rank below 1, before the label algebra is built
    (("basis", "--n", "2", "--verlinde", "-1"), ""),
    (("axioms", "--n", "2", "--verlinde", "-1"), ""),
    (("mul", "--n", "2", "--verlinde", "-1"), IDENTITY_2 + "--\n" + IDENTITY_2),
    (("trace", "--n", "2", "--verlinde", "-3"), IDENTITY_2),
    # two contexts named, refused before either algebra is built
    (("basis", "--n", "2", "--verlinde", "3", "--algebra", V2_FILE), ""),
    (("mul", "--n", "2", "--algebra", V2_FILE, "--verlinde", "2"),
     IDENTITY_2 + "--\n" + IDENTITY_2),
    (("axioms", "--n", "2", "--verlinde", "0", "--algebra", V2_FILE), ""),
    # a strand token without its label, refused rather than read as label 0
    (("trace", "--n", "2", "--verlinde", "3"), "1 * n=2 | 1-2 3-4:\n"),
    (("trace", "--n", "2", "--verlinde", "3"), "1 * n=2 | 1-2:0 3-4:\n"),
    (("mul", "--n", "2", "--verlinde", "2"), "1 * n=2 | 1-4 2-3:0\n--\n" + IDENTITY_2),
    # --nmax above MAX_N, refused before Catalan(n) * r^n is computed
    (("drank", "--r", "32", "--nmax", "100000"), ""),
    (("drank", "--r", "1", "--nmax", "4000000"), ""),
    # element text with no '<coeff> * <diagram>' line; "0" is the zero element
    (("trace", "--n", "2", "--verlinde", "2"), ""),
    (("star", "--n", "2", "--verlinde", "2"), ""),
    (("trace", "--n", "2", "--verlinde", "2"), "\n  \n"),
    (("mul", "--n", "2", "--verlinde", "2"), "1 * n=2 | 1-2:0 3-4:0\n--\n"),
    # element files that are not ASCII text
    (("trace", "--n", "2", "--verlinde", "2", BYTES_FILE), ""),
    (("trace", "--n", "2", "--verlinde", "2", ACUTE_FILE), ""),
    # the context, group and count refusals
    (("basis", "--n", "0", "--verlinde", "2"), ""),
    (("basis", "--n", "2"), ""),
    (("tlbasis", "--type", "X", "--rank", "2"), ""),
    (("tlbasis", "--type", "A", "--rank", "2", "--m", "3"), ""),
    (("verlinde", "0"), ""),
    (("drank", "--r", "0", "--nmax", "3"), ""),
    (("selftest", "--only", "x"), ""),
    (("mul", "--n", "2", "--verlinde", "2", IDENTITY_FILE), ""),
    (("star", "--n", "2", "--verlinde", "2", IDENTITY_FILE, IDENTITY_FILE), ""),
    (("trace", "--n", "2", "--verlinde", "2", MISSING_FILE), ""),
    (("trace", "--n", "2", "--verlinde", "2", DIR_FILE), ""),
])
def test_usage_errors_exit_two(tmp_path, args, stdin):
    files = _input_files(tmp_path)
    args = [files.get(a, a) for a in args]
    proc = run_cli(*args, stdin=stdin)
    assert proc.returncode == 2
    # argparse prints its usage first; a traceback would end otherwise.
    assert proc.stderr.splitlines()[-1].startswith("planalg:")


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def test_non_ascii_element_file_is_named(tmp_path):
    files = _input_files(tmp_path)
    proc = run_cli("trace", "--n", "2", "--verlinde", "2", files[BYTES_FILE])
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith(f"planalg: {files[BYTES_FILE]}: 'ascii' codec")


@pytest.mark.parametrize("command", ["trace", "star", "mul"])
@pytest.mark.parametrize("line", [
    "1 * n=2 | 1-4:\u0660 2-3:\u0660",  # Arabic-Indic zero as a label
    "\u0967 * n=2 | 1-4:0 2-3:0",  # Devanagari one as a coefficient
], ids=["label", "coefficient"])
def test_non_ascii_digits_on_stdin_are_refused(command, line):
    # int() reads any Unicode digit, so stdin must be ASCII, as a file is.
    stdin = line + "\n" + ("--\n" + IDENTITY_2 if command == "mul" else "")
    proc = run_cli(command, "--n", "2", "--verlinde", "2", stdin=stdin.encode())
    assert (proc.returncode, proc.stdout) == (2, b"")
    assert proc.stderr.startswith(b"planalg: <stdin>: 'ascii' codec can't decode byte")


def test_huge_declared_rank_is_refused_within_one_gigabyte(tmp_path):
    # the inv line lists one index, so the header is refused before one
    # default label per declared basis index is made
    path = tmp_path / "huge.txt"
    path.write_text("rank 100000000 identity 0\ninv: 0\n")
    proc = run_cli("basis", "--n", "1", "--algebra", str(path),
                   preexec_fn=_cap_address_space)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.splitlines()[-1] == (
        f"planalg: --algebra {path}: inv must be a permutation of the basis indices")


def test_axioms_at_rank_twelve_fit_in_one_gigabyte():
    # P(3, 12): a table of the cube of V_12 alone would not fit
    proc = run_cli("--machine", "axioms", "--n", "3", "--verlinde", "12",
                   preexec_fn=_cap_address_space)
    assert (proc.returncode, proc.stderr) == (0, "")
    lines = proc.stdout.splitlines()
    for key in ("A1", "A2", "A3", "A4", "A5"):
        assert f"{key}=True" in lines
    # 8,640 diagrams: sampled, so the a-function is not checked or reported
    assert "exhaustive=False" in lines
    assert not [line for line in lines if line.startswith("a_function")]


def test_closed_form_basis_size():
    for n, r in [(1, 1), (2, 3), (3, 2), (4, 2), (5, 1), (3, 4)]:
        assert _basis_size(n, r) == len(Context(n, make_verlinde(r)).basis())
    assert _basis_size(7, 4) == 7_028_736 > MAX_DIAGRAMS
    assert _basis_size(6, 3) == 96_228 <= MAX_DIAGRAMS


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


Z2 = cyclic_group_algebra(2).to_text()


@pytest.mark.parametrize("text,message", [
    (Z2 + "1 1 3 1\n", "structure constant of b1 b1 names index 3 outside 0..1"),
    (Z2.replace("1 1 0 1", "1 1 0 -1"), "fails t1: kappa(1,1,0) = -1"),
    (Z2.replace("1 1 0 1", "1 1 0 2"),
     "fails t3_normalized: kappa(b1, b0 b1) != kappa(b0, b1 b1)"),
    (Z2.replace("inv: 0 1", "inv: 1 0"), "fails t2: anti-involution moves the identity"),
    (Z2.replace("1 1 0 1", "1 1 0 5\n1 1 0 1"), "repeated line: '1 1 0 1'"),
    (permutation_group_algebra(3).to_text(), None),
])
def test_algebra_files_are_checked(tmp_path, text, message):
    path = tmp_path / "labels.txt"
    path.write_text(text)
    square = "1 * n=2 | 1-4:0 2-3:1\n--\n1 * n=2 | 1-4:0 2-3:1\n"
    proc = run_cli("mul", "--n", "2", "--algebra", str(path), stdin=square)
    if message is None:
        assert (proc.returncode, proc.stderr) == (0, "")
    else:
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == f"planalg: --algebra {path}: {message}\n"


@pytest.mark.parametrize("command", ["conjecture"])
def test_h4_is_refused_up_front(command):
    # conjecture maps C'_w for every element of W.
    proc = run_cli(command, "--type", "H", "--rank", "4")
    assert proc.returncode == 2
    assert "--rank 4" in proc.stderr
    assert "14,400 elements" in proc.stderr


def test_h4_tlbasis_is_accepted():
    # The oracle reads only the lower Bruhat ideal of W_c.
    proc = run_cli("tlbasis", "--type", "H", "--rank", "4")
    assert (proc.returncode, proc.stderr) == (0, "")
    lines = proc.stdout.splitlines()
    assert lines[:2] == ["group: H4", "wc: 195"]
    assert len(lines) == 2 + 195 + 1
    assert lines[-1] == "oracle: theta(C'_w) == c_w for all w"


def test_h4_embedding_is_accepted():
    proc = run_cli("--machine", "embed", "--type", "H", "--rank", "4")
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert "canonical_images=195" in lines
    assert "bijection=True" in lines


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


# -- report output, byte for byte (timings masked) ------------------------------

AXIOMS_FLAGS = ["A1", "A2", "A3", "A4", "A5", "a_function"]
# a sampled report leaves out the a-function, which needs all pairs
SAMPLED_FLAGS = AXIOMS_FLAGS[:-1]
EMBED_B3 = """\
variant=B
group=B3
target=P(4,3)
canonical_images=24
single_unit=True
injective=True
image_matches=True
bijection=True
"""
SELFTEST_3_11 = """\
check 03 sqrt2-homomorphism: PASS in X.XXs (budget 1s) - phi multiplicative \
on V_3; images 1, (1'+z')/sqrt2, z' pinned
check 11 twist-compatibility: FAIL in X.XXs (budget 10s) - B3: fixed; \
I2(4): fixed; I2(6): MOVED; A2: moved as required
  (known failure: the twist moves the m = 6 dihedral image; u_4 u_1 = u_3 in V_5)
"""

GOLDEN = [
    (("axioms", "--n", "2", "--verlinde", "2"), 0,
     "".join(f"{k}: ok\n" for k in AXIOMS_FLAGS) + "mode: exhaustive\n"),
    (("--machine", "axioms", "--n", "2", "--verlinde", "2"), 0,
     "".join(f"{k}=True\n" for k in AXIOMS_FLAGS) + "exhaustive=True\n"),
    (("--machine", "axioms", "--n", "4", "--verlinde", "2"), 0,
     "".join(f"{k}=True\n" for k in SAMPLED_FLAGS) + "exhaustive=False\n"),
    (("embed", "--type", "B", "--rank", "3"), 0, EMBED_B3),
    (("--machine", "embed", "--type", "B", "--rank", "3"), 0, EMBED_B3),
    (("embed", "--type", "A", "--rank", "2", "--variant", "uniform"), 0, """\
variant=uniform
group=A2
target=P(3,2)
canonical_images=5
single_unit=True
injective=True
image_matches=True
bijection=True
"""),
    (("basis", "--n", "1", "--verlinde", "2"), 0, "n=1 | 1-2:0\nn=1 | 1-2:1\n"),
    (("mul", "--n", "2", "--verlinde", "3", X_FILE, Y_FILE), 0,
     "v * n=2 | 1-2:1 3-4:0\nv * n=2 | 1-2:1 3-4:2\n"),
    (("conjecture", "--type", "B", "--rank", "2"), 0, """\
group=B2
target=P(3,3)
elements=8
zero_images=1
nonzero_images=7
fully_commutative=7
single_unit=True
exposed=True
injective=True
zero_exactly_complex=True
ok=True
"""),
    (("selftest", "--only", "3,11"), 1, SELFTEST_3_11),
    (("--machine", "selftest", "--only", "3,11"), 1, """\
check=03 name=sqrt2-homomorphism result=pass seconds=X
check=11 name=twist-compatibility result=fail seconds=X
"""),
]


def _mask_timings(text):
    text = re.sub(r"seconds=\d+\.\d\d", "seconds=X", text)
    return re.sub(r" in \d+\.\d\ds ", " in X.XXs ", text)


@pytest.mark.parametrize("args,code,stdout", GOLDEN,
                         ids=[" ".join(args) for args, _, _ in GOLDEN])
def test_report_output_is_pinned(tmp_path, args, code, stdout):
    files = _input_files(tmp_path)
    proc = run_cli(*[files.get(a, a) for a in args])
    assert (proc.returncode, _mask_timings(proc.stdout)) == (code, stdout)


def test_a_function_failure_alone_fails_the_axiom_report(capsys):
    rep = AxiomReport(True, True, True, True, True, False, True)
    assert not rep.ok
    assert _emit(rep, machine=True) == 1
    assert "a_function=False" in capsys.readouterr().out.splitlines()
    assert _emit(rep, machine=False) == 1
    assert "a_function: FAIL" in capsys.readouterr().out.splitlines()


def test_embedding_report_fails_until_the_bijection_is_verified():
    rep = rho_build("A", "A", 2)
    assert rep.single_unit and rep.injective
    assert not rep.ok
    assert rep.lines()[-1] == "bijection=False"
    assert rho_verify_bijection(rep)
    assert rep.ok
    assert rep.lines()[-2:] == ["image_matches=True", "bijection=True"]


def test_check_over_budget_fails(capsys):
    res = CheckResult(3, "slow", True, seconds=2.5, budget=1.0, detail="done")
    assert not res.ok
    assert res.lines(machine=True) == [
        "check=03 name=slow result=fail seconds=2.50"]
    assert res.lines() == ["check 03 slow: FAIL in 2.50s (budget 1s) - done"]
    assert _emit(res, machine=False) == 1
