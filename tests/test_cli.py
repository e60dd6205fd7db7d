import hashlib
import importlib
import re
import subprocess
import sys
import time

import pytest

from obidet import cli, group_oracle
from obidet.cli import main
from obidet.gl_straighten import BidetTerm, Combination
from obidet.on_straighten import on_straighten
from obidet.polyring import ZHALF
from obidet.golden import GOLDEN_CASES
from obidet.tableaux import Tableau, _letters, enumerate_on_standard

gl_module = importlib.import_module("obidet.gl_straighten")


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_straighten_gl_golden(capsys):
    case = GOLDEN_CASES[0]
    args = ["straighten", "--mode", "gl", "--n", "6",
            "--left", case.left, "--right", case.right]
    code, out, _ = run_cli(args, capsys)
    assert code == 0
    result = Combination.parse_certificate(out)
    # the full rewrite recurses the rebalanced terms further than one step
    assert result
    assert all(line.count("\t") == 3 for line in out.strip().splitlines())
    # --coeff applies in GL mode too: -1 becomes 6 in F_7
    code, over_f7, _ = run_cli(args + ["--coeff", "f7"], capsys)
    assert code == 0
    coefs = [(line.split("\t")[0], other.split("\t")[0])
             for line, other in zip(out.splitlines(), over_f7.splitlines())]
    assert ("-1", "6") in coefs
    assert all(q == f or (q, f) == ("-1", "6") for q, f in coefs)


@pytest.mark.parametrize("mode", ["gl", "on"])
def test_straighten_points_check_runs_over_prime_field(capsys, monkeypatch, mode):
    case = GOLDEN_CASES[1]
    args = ["straighten", "--mode", mode, "--n", "6", "--coeff", "f7", "--points", "3",
            "--left", case.left, "--right", case.right]
    code, _, _ = run_cli(args, capsys)
    assert code == 0

    name = "gl_straighten" if mode == "gl" else "on_straighten"
    straighten = getattr(cli, name)

    def off_by_one(s, t, *a, **kw):
        return straighten(s, t, *a, **kw) + Combination([BidetTerm(1, 0, s, t)])

    monkeypatch.setattr(cli, name, off_by_one)
    code, out, err = run_cli(args, capsys)
    assert code == 3
    check = "polynomial" if mode == "gl" else "point"
    assert f"{check} verification" in err and not out


@pytest.mark.parametrize("n, left, right", [(1, "0 0", "0 0"), (2, "1b 1", "1 1b")])
def test_straighten_gl_points_check_below_three(capsys, monkeypatch, n, left, right):
    args = ["straighten", "--mode", "gl", "--n", str(n), "--points", "3",
            "--left", left, "--right", right]
    code, out, err = run_cli(args, capsys)
    assert code == 0, err
    assert out.strip()

    straighten = cli.gl_straighten

    def off_by_one(s, t, *a, **kw):
        return straighten(s, t, *a, **kw) + Combination([BidetTerm(1, 0, s, t)])

    monkeypatch.setattr(cli, "gl_straighten", off_by_one)
    code, out, err = run_cli(args, capsys)
    assert code == 3
    assert "polynomial verification" in err and not out


def test_straighten_gl_check_sees_errors_in_the_orthogonal_ideal(capsys, monkeypatch):
    # the GL-straightened sum over i of [i bar(i) : 1 1b] - [i bar(i) : 2 2b]
    # vanishes on O(4) but not in Z[X]; added to a GL result it must fail
    # the GL check, by polynomial equality and at integer matrices
    error = Combination()
    for x in _letters(4):
        row = Tableau.from_columns([[x], [x.bar()]])
        error = (error + cli.gl_straighten(row, Tableau.parse("1 1b"), 4)
                 - cli.gl_straighten(row, Tableau.parse("2 2b"), 4))
    assert len(error) == 8
    args = ["straighten", "--mode", "gl", "--n", "4", "--points", "3",
            "--left", "2 1", "--right", "1b 2"]
    straighten = cli.gl_straighten
    monkeypatch.setattr(cli, "gl_straighten", lambda *a, **kw: straighten(*a, **kw) + error)
    for bound, check in ((gl_module.GL_SYMBOLIC_MONOMIALS, "polynomial"), (0, "point")):
        monkeypatch.setattr(gl_module, "GL_SYMBOLIC_MONOMIALS", bound)
        code, out, err = run_cli(args, capsys)
        assert code == 3
        assert f"{check} verification" in err and not out


def test_straighten_gl_large_alphabet(capsys):
    # membership is checked per letter, with no list of the alphabet built
    code, out, err = run_cli(["straighten", "--mode", "gl", "--n", "100000000",
                              "--left", "1 2", "--right", "1 2"], capsys)
    assert code == 0, err
    assert out == "1\t0\t1 2\t1 2\n"


def test_straighten_on_large_alphabet(capsys):
    # the standardness report scans only the indices the tableau reaches
    start = time.perf_counter()
    code, out, err = run_cli(["straighten", "--mode", "on", "--n", "2000000",
                              "--left", "1 2", "--right", "1 2"], capsys)
    assert code == 0, err
    assert out == "1\t0\t1 2\t1 2\n"
    assert time.perf_counter() - start < 5


def test_straighten_letter_index_bound(capsys):
    code, out, err = run_cli(["straighten", "--mode", "gl", "--n", "4",
                              "--left", "2305843009213693952", "--right", "1"], capsys)
    assert code == 2
    assert "2^61" in err and not out


def test_straighten_gl_shape_mismatch_is_an_input_error(capsys):
    code, out, err = run_cli(["straighten", "--mode", "gl", "--n", "4",
                              "--left", "1 2", "--right", "1"], capsys)
    assert code == 2
    assert err == "error: shape mismatch\n" and not out


NEGATIVE_BOUNDS = [
    (["straighten", "--n", "4", "--left", "1b", "--right", "1", "--points", "-2"], "--points"),
    (["verify", "--n", "3", "--degree", "1", "--points", "-3"], "--points"),
    (["golden", "--points", "-1"], "--points"),
    (["straighten", "--n", "4", "--left", "1b", "--right", "1", "--max-terms", "-3"],
     "--max-terms"),
    (["verify", "--n", "3", "--degree", "1", "--cap", "-1"], "--cap"),
    (["enumerate", "--n", "-1", "--shape", "1"], "--n"),
    (["enumerate", "--n", "0", "--shape", "1"], "--n"),
    (["straighten", "--mode", "gl", "--n", "0", "--left", "1", "--right", "1"], "--n"),
    (["verify", "--n", "-2", "--degree", "1"], "--n"),
]


# positional ids, so every case keeps its name when cases are appended
@pytest.mark.parametrize("args, option", NEGATIVE_BOUNDS,
                         ids=[f"args{i}" for i in range(len(NEGATIVE_BOUNDS))])
def test_negative_points_rejected(capsys, args, option):
    code, out, err = run_cli(args, capsys)
    assert code == 2
    assert option in err and not out


def test_straighten_on_example(capsys):
    case = GOLDEN_CASES[1]
    code, out, _ = run_cli([
        "straighten", "--mode", "on", "--n", "6",
        "--left", case.left, "--right", case.right,
    ], capsys)
    assert code == 0
    assert Combination.parse_certificate(out) == Combination.parse_certificate(out)


def test_straighten_standard_is_single_line(capsys):
    tabs = list(enumerate_on_standard((2, 1), 4))
    s, t = tabs[0].format(), tabs[1].format()
    code, out, _ = run_cli([
        "straighten", "--mode", "on", "--n", "4", "--left", s, "--right", t,
    ], capsys)
    assert code == 0
    assert out.strip() == f"1\t0\t{s}\t{t}"


def test_straighten_deterministic(capsys):
    case = GOLDEN_CASES[1]
    args = ["straighten", "--mode", "on", "--n", "6",
            "--left", case.left, "--right", case.right, "--seed", "5"]
    _, out1, _ = run_cli(args, capsys)
    _, out2, _ = run_cli(args, capsys)
    assert out1 == out2


def test_straighten_roundtrip(capsys):
    case = GOLDEN_CASES[3]
    code, out, _ = run_cli([
        "straighten", "--mode", "on", "--n", "6",
        "--left", case.left, "--right", case.right,
    ], capsys)
    parsed = Combination.parse_certificate(out)
    assert parsed.certificate() == out.strip()


def test_straighten_parse_error_exit_code(capsys):
    code, _, err = run_cli([
        "straighten", "--mode", "on", "--n", "6",
        "--left", "1 2; zz", "--right", "1",
    ], capsys)
    assert code == 2
    assert "error" in err


def test_straighten_cap_exit_code(capsys):
    case = GOLDEN_CASES[1]
    code, _, err = run_cli([
        "straighten", "--mode", "on", "--n", "6",
        "--left", case.left, "--right", case.right, "--max-terms", "1",
    ], capsys)
    assert code == 4


def test_straighten_trace_goes_to_stderr(capsys):
    for mode, case, kinds in (("on", GOLDEN_CASES[1], "GL|COLSUM|OS[123]"),
                              ("gl", GOLDEN_CASES[0], "GL")):
        code, out, err = run_cli([
            "straighten", "--mode", mode, "--n", "6",
            "--left", case.left, "--right", case.right, "--trace",
        ], capsys)
        assert code == 0
        assert "# step" in err
        assert "# step" not in out
        assert all(re.fullmatch(rf"# step ({kinds}) witness=\d+ terms ->\d+", line)
                   for line in err.splitlines())


def test_straighten_shared_terms_case_within_default_caps(capsys):
    code, out, _ = run_cli([
        "straighten", "--mode", "on", "--n", "7",
        "--left", "2 1 1 1b 1", "--right", "1b 2b 1 2 1",
    ], capsys)
    assert code == 0
    assert Combination.parse_certificate(out)


def test_straighten_go_points_check_gamma_powers(capsys, monkeypatch):
    case = GOLDEN_CASES[1]
    args = ["straighten", "--mode", "go", "--n", "6", "--points", "3",
            "--left", case.left, "--right", case.right]
    code, out, _ = run_cli(args, capsys)
    assert code == 0
    assert any(line.split("\t")[1] != "0" for line in out.strip().splitlines())

    # dropping the gamma powers is invisible at gamma = 1 only
    def gamma_dropped(*a, **kw):
        return Combination(BidetTerm(x.coef, 0, x.left, x.right)
                           for x in on_straighten(*a, **kw))

    monkeypatch.setattr(cli, "on_straighten", gamma_dropped)
    code, _, err = run_cli(args, capsys)
    assert code == 3
    assert "point verification" in err


def test_straighten_from_file(tmp_path, capsys):
    case = GOLDEN_CASES[1]
    path = tmp_path / "pair.txt"
    path.write_text(f"{case.left}\n{case.right}\n", encoding="utf-8")
    code, out, _ = run_cli([
        "straighten", "--mode", "on", "--n", "6", "--file", str(path),
    ], capsys)
    assert code == 0
    assert out.strip()


def test_straighten_out_file(tmp_path, capsys):
    case = GOLDEN_CASES[2]
    target = tmp_path / "cert.txt"
    code, out, _ = run_cli([
        "straighten", "--mode", "on", "--n", "7",
        "--left", case.left, "--right", case.right, "--out", str(target),
    ], capsys)
    assert code == 0
    assert target.read_text(encoding="utf-8").strip()


@pytest.mark.parametrize("flag", ["--file", "--out", "--file-not-utf8"])
def test_straighten_file_errors_exit_code(tmp_path, capsys, flag):
    case = GOLDEN_CASES[1]
    args = ["straighten", "--mode", "on", "--n", "6"]
    if flag == "--file":
        args += ["--file", str(tmp_path / "missing.txt")]
    elif flag == "--out":
        args += ["--left", case.left, "--right", case.right,
                 "--out", str(tmp_path / "missing" / "cert.txt")]
    else:
        path = tmp_path / "pair.txt"
        path.write_bytes(b"\xff\xfe1\n1\n")
        args += ["--file", str(path)]
    code, out, err = run_cli(args, capsys)
    assert code == 2
    assert err.startswith("error:") and not out


def test_enumerate_single_cells(capsys):
    code, out, _ = run_cli(["enumerate", "--n", "4", "--shape", "1"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[:-1] == ["1b", "1", "2b", "2"]
    assert lines[-1] == "count 4"


def test_enumerate_column_condition_note(capsys):
    code, out, _ = run_cli(["enumerate", "--n", "3", "--shape", "1,1,1,1"], capsys)
    assert code == 0
    assert "count 0" in out and "column condition" in out


def test_enumerate_matches_library(capsys):
    code, out, _ = run_cli(["enumerate", "--n", "4", "--shape", "2,1"], capsys)
    lines = out.strip().splitlines()
    expected = [t.format() for t in enumerate_on_standard((2, 1), 4)]
    assert lines[:-1] == expected
    assert lines[-1] == f"count {len(expected)}"


def test_enumerate_bad_shape(capsys):
    code, _, err = run_cli(["enumerate", "--n", "4", "--shape", "1,2"], capsys)
    assert code == 2


@pytest.mark.parametrize("option", [["--coeff", "q"], ["--points", "5"], ["--seed", "9"]])
def test_enumerate_rejects_unused_options(capsys, option):
    code, out, _ = run_cli(["enumerate", "--n", "4", "--shape", "2,1"] + option, capsys)
    assert code == 2 and not out


def test_verify_small(capsys):
    code, out, _ = run_cli(["verify", "--n", "3", "--degree", "2", "--mode", "on"], capsys)
    assert code == 0
    assert out.strip().endswith("PASS")


def test_verify_go(capsys):
    code, out, _ = run_cli(["verify", "--n", "4", "--degree", "2", "--mode", "go"], capsys)
    assert code == 0
    assert out.strip().endswith("PASS")


def test_verify_prime_field(capsys):
    code, out, _ = run_cli(["verify", "--n", "3", "--degree", "2", "--coeff", "f5"], capsys)
    assert code == 0
    assert out.strip().endswith("PASS")


def test_verify_small_prime_field_block_ranks_pass(capsys):
    # 48 points of O(3, F_3) cannot separate all 44 functions of degree <= 2
    # at once, but each torus-weight block is full at them; the split holds
    # over the algebraic closure of F_3, so the block ranks prove independence
    code, out, _ = run_cli(["verify", "--n", "3", "--degree", "2", "--coeff", "f3"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "PASS"
    assert lines.count("independence rank=44 expected=44") == 2


def test_verify_small_prime_field_is_undecided(capsys):
    # one torus-weight block of the 119 functions of degree <= 3 is short on
    # all of O(3, F_3): a short rank over F_p decides nothing, and no retry helps
    start = time.monotonic()
    code, out, _ = run_cli(["verify", "--n", "3", "--degree", "3", "--coeff", "f3",
                            "--points", "48"], capsys)
    assert time.monotonic() - start < 10
    assert code == 3
    lines = out.strip().splitlines()
    assert lines[-1] == "UNDECIDED"
    assert "independence rank=118 expected=119 undecided" in lines
    assert "short blocks=1 of 74 (largest 4)" in lines
    # the first batch holds all of O(3, F_3), so a second could only redraw it
    assert sum(line.startswith("independence rank=") for line in lines) == 1
    assert "batch 1 skipped: batch 0 holds all 48 points of O(3, F_3)" in lines


@pytest.mark.parametrize("seed", [1, 3, 4, 5, 8])
def test_verify_whole_group_first_draw_skips_batch_one(capsys, seed):
    # at these seeds the first draw holds all 48 points of O(3, F_3); the
    # skip rests on that draw, not on a retry that redraws fewer residues
    code, out, _ = run_cli(["verify", "--n", "3", "--degree", "3", "--coeff", "f3",
                            "--points", "48", "--seed", str(seed)], capsys)
    assert code == 3
    lines = out.strip().splitlines()
    assert lines[-1] == "UNDECIDED"
    assert sum(line.startswith("independence rank=") for line in lines) == 1
    assert "batch 1 skipped: batch 0 holds all 48 points of O(3, F_3)" in lines


def test_verify_zhalf_straightens_in_zhalf(capsys, monkeypatch):
    domains = []

    def recording(s, t, mode, n, domain, **kw):
        domains.append(domain)
        return on_straighten(s, t, mode, n, domain, **kw)

    monkeypatch.setattr(group_oracle, "on_straighten", recording)
    code, out, _ = run_cli(["verify", "--n", "3", "--degree", "1", "--coeff", "zhalf"],
                           capsys)
    assert code == 0
    assert out.strip().endswith("PASS")
    assert domains and set(domains) == {ZHALF}


def test_verify_reports_are_pinned(capsys):
    # the reports byte for byte, over suites with full, short and retried
    # blocks, a whole prime-field group and UNDECIDED verdicts: changes to
    # point draws or to ranking must keep every certificate
    digest = hashlib.sha256()
    for n, r, mode, coeff in ((3, 3, "on", "q"), (4, 2, "go", "q"), (4, 2, "on", "f7"),
                              (3, 3, "on", "f3"), (3, 2, "go", "q"), (3, 3, "on", "f5")):
        for seed in range(1, 9):
            code, out, _ = run_cli(["verify", "--n", str(n), "--degree", str(r), "--mode", mode,
                                    "--coeff", coeff, "--seed", str(seed)], capsys)
            digest.update(f"{code}\n{out}".encode())
    assert digest.hexdigest() == (
        "c09d5f664c7d4eedc83cd292b581ea37d4670c148061271af90cd70491f59f43")


def test_verify_rejects_gl_mode(capsys):
    code, out, err = run_cli(["verify", "--n", "3", "--degree", "1", "--mode", "gl"],
                             capsys)
    assert code == 2
    assert "error:" in err and not out


def test_verify_rejects_small_n(capsys):
    for n in ("1", "2"):
        code, out, err = run_cli(["verify", "--n", n, "--degree", "1"], capsys)
        assert code == 2
        assert "need n >= 3" in err and not out


def test_verify_rejects_negative_degree(capsys):
    for mode in ("on", "go"):
        code, out, err = run_cli(["verify", "--n", "3", "--degree", "-1", "--mode", mode],
                                 capsys)
        assert code == 2
        assert "error:" in err and not out


def test_modulus_of_2_to_the_64_or_more_exits_2_at_once(capsys):
    for command in (["straighten", "--n", "4", "--left", "1 2", "--right", "1 2"],
                    ["verify", "--n", "3", "--degree", "1"]):
        for p in (2 ** 64 + 13, 2 ** 127 - 1):
            start = time.perf_counter()
            code, out, err = run_cli(command + ["--coeff", f"f{p}"], capsys)
            assert code == 2 and not out and "below 2^64" in err
            assert time.perf_counter() - start < 1
    code, out, _ = run_cli(["straighten", "--n", "4", "--left", "1 2", "--right", "1 2",
                            "--coeff", f"f{2 ** 61 - 1}"], capsys)
    assert code == 0 and out


def test_verify_cap_exit(capsys):
    code, out, _ = run_cli([
        "verify", "--n", "4", "--degree", "2", "--mode", "on", "--cap", "5",
    ], capsys)
    assert code == 4


def test_verify_deterministic(capsys):
    args = ["verify", "--n", "3", "--degree", "1", "--mode", "on", "--seed", "9"]
    _, out1, _ = run_cli(args, capsys)
    _, out2, _ = run_cli(args, capsys)
    assert out1 == out2


def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_a_refused_parse_leaves_the_shared_parser_as_it_was(capsys):
    # every call parses with one parser: a parse refused after reading
    # --seed, --points and --n must leave none of them to the next call
    code, out, err = run_cli(["verify", "--n", "4", "--degree", "2", "--seed", "7",
                              "--points", "3", "--mode", "gl"], capsys)
    assert code == 2 and not out and "invalid choice" in err
    code, out, _ = run_cli(["verify", "--n", "3", "--degree", "2"], capsys)
    assert code == 0
    assert out == group_oracle.basis_suite(3, 2).text() + "\n"


def test_straighten_point_verification_flag(capsys):
    case = GOLDEN_CASES[1]
    code, out, _ = run_cli([
        "straighten", "--mode", "on", "--n", "6",
        "--left", case.left, "--right", case.right, "--points", "5",
    ], capsys)
    assert code == 0
    assert out.strip()


def test_golden_passes(capsys):
    code, out, _ = run_cli(["golden"], capsys)
    assert code == 0
    assert out.count("PASS") == 4


def test_golden_with_points(capsys):
    code, out, _ = run_cli(["golden", "--points", "3"], capsys)
    assert code == 0
    assert out.count("PASS") == 4


def test_golden_points_catch_a_wrong_expected_certificate(capsys, monkeypatch):
    # compute and expected agree on a wrong expansion: only the points see it
    from obidet.golden import GoldenCase

    def wrong(case):
        return Combination.parse_certificate(case.certificate).scale(2)

    monkeypatch.setattr(GoldenCase, "compute", wrong)
    monkeypatch.setattr(GoldenCase, "expected", wrong)
    code, out, _ = run_cli(["golden"], capsys)
    assert code == 0 and out.count("PASS") == 4
    code, out, _ = run_cli(["golden", "--points", "3"], capsys)
    assert code == 3 and out.count("FAIL") == 4


def test_golden_detects_corruption(capsys, monkeypatch):
    import obidet.cli as cli_module
    from obidet.golden import GoldenCase

    broken = list(GOLDEN_CASES)
    case = broken[1]
    bad_cert = case.certificate.replace("-1\t0\t1b\t1", "1\t0\t1b\t1", 1)
    broken[1] = GoldenCase(case.name, case.kind, case.n, case.left,
                           case.right, case.witness, bad_cert)
    monkeypatch.setattr(cli_module, "GOLDEN_CASES", tuple(broken))
    code, out, _ = run_cli(["golden"], capsys)
    assert code == 3
    assert "FAIL" in out and "--- expected" in out


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "obidet.cli", "golden"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.count("PASS") == 4
