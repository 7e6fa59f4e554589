import contextlib
import io
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modgrob.cli import main

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _one_line_usage_error(capsys, argv, message):
    """argv exits 2 with usage and one error line, which starts with message,
    and no traceback."""
    with pytest.raises(SystemExit) as exc:
        main([str(a) for a in argv])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    (line,) = [line for line in captured.err.splitlines() if "error:" in line]
    assert line.startswith(message)
    assert "Traceback" not in captured.err


def test_gb_chain_over_zz(capsys):
    code, out, _ = run(capsys, "gb", CORPUS / "chain_dp.mg")
    assert code == 0
    assert out == "3x\n3y+2x\n3z+2y+2x\nx^2\nyx\ny^2+2zx\n"


def test_gb_output_is_deterministic(capsys):
    _, first, _ = run(capsys, "gb", CORPUS / "pair_a.mg")
    _, second, _ = run(capsys, "gb", CORPUS / "pair_a.mg")
    assert first == second


def test_gb_coefficient_override(capsys):
    code, out, _ = run(capsys, "gb", CORPUS / "pair_a.mg", "--coeff", "ZZ/9")
    assert code == 0
    assert out == "x^3\n3yx\nyx^2\n3y^2+2yx\n"


def test_gb_json_format(capsys):
    code, out, _ = run(capsys, "gb", CORPUS / "chain_z9_dp.mg", "--json")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "modgrob-machine 1"
    assert lines[1] == "command=gb"
    assert lines[2] == "basis=x,3y,3z+2y,y^2"


def test_torsion_command(capsys):
    code, out, _ = run(capsys, "torsion", CORPUS / "chain_dp.mg")
    assert code == 0
    assert out.splitlines()[0] == "m = 27"
    assert "  z: 27" in out and "  y: 9" in out and "  x: 3" in out


def test_torsion_json(capsys):
    code, out, _ = run(capsys, "torsion", CORPUS / "chain_dp.mg", "--json")
    assert code == 0
    assert "m=27" in out.splitlines()


def test_torsion_requires_zz(capsys):
    code, _, err = run(capsys, "torsion", CORPUS / "mixed.mg")
    assert code == 2
    assert "ZZ" in err


def test_arnold_counterexample_exit_code(capsys):
    code, out, _ = run(capsys, "arnold-verify", CORPUS / "arnold_counterexample.mg",
                       "--mod", "2")
    assert code == 1
    assert "InapplicableNonHomogeneous" in out


def test_arnold_homogenized_condition_three(capsys):
    code, out, _ = run(capsys, "arnold-verify", CORPUS / "arnold_homogenized.mg",
                       "--mod", "2")
    assert code == 1
    assert "ConditionFailed(3)" in out


def test_arnold_verified_exit_zero(tmp_path, capsys):
    path = tmp_path / "ok.mg"
    path.write_text("ring r = ZZ, (x), lp; ideal I = x; ideal G = x;\n")
    code, out, _ = run(capsys, "arnold-verify", path, "--mod", "5")
    assert code == 0
    assert "verdict: Verified" in out


def test_arnold_candidate_incomplete_over_qq(tmp_path, capsys):
    # G generates I but is not a Groebner basis over QQ, so the verifier
    # completes G to decide condition 3, which holds: y^3 is in (G).
    path = tmp_path / "incomplete.mg"
    path.write_text("ring r = ZZ, (x, y), dp;\n"
                    "ideal I = x2+y2, xy, y3;\n"
                    "ideal G = x2+y2, xy;\n")
    code, out, _ = run(capsys, "arnold-verify", path, "--mod", "5")
    assert code == 1
    assert out.splitlines()[-1] == "verdict: ConditionFailed(1,2)"
    code, out, _ = run(capsys, "arnold-verify", path, "--mod", "5", "--json")
    assert code == 1
    assert "failed=1,2" in out.splitlines()


def test_arnold_needs_prime(capsys):
    code, _, err = run(capsys, "arnold-verify", CORPUS / "arnold_counterexample.mg")
    assert code == 2 and "--mod" in err


def test_solve_p_demo(capsys):
    code, out, _ = run(capsys, "solve-p", CORPUS / "solve_p_demo.mg")
    assert code == 0
    assert "prefix k = 1: rejected" in out
    assert "prefix k = 2: accepted" in out
    assert "mod 2: MISMATCH" in out


def test_solve_p_exhaustion_exit_code(tmp_path, capsys):
    path = tmp_path / "never.mg"
    path.write_text("""
        ring r = ZZ, (x), lp;
        stream = 2x;
        oracle = x;
    """)
    code, out, err = run(capsys, "solve-p", path)
    assert code == 1
    assert "rejected" in out
    assert "stream exhausted" in err


def test_solve_p_json(capsys):
    code, out, _ = run(capsys, "solve-p", CORPUS / "solve_p_demo.mg", "--json")
    assert code == 0
    blocks = out.strip().split("modgrob-machine 1")
    assert "accepted=false" in blocks[1] and "m=2" in blocks[1]
    assert "accepted=true" in blocks[2] and "basis=x" in blocks[2]


def test_check_lemma_rejection_exit_code(tmp_path, capsys):
    path = tmp_path / "check.mg"
    path.write_text("""
        ring r = ZZ, (x), lp;
        ideal J = 2x;
        oracle = 2x, 3x;
    """)
    code, out, _ = run(capsys, "check-lemma", path)
    assert code == 1
    assert "rejected" in out


def test_check_lemma_acceptance(tmp_path, capsys):
    path = tmp_path / "check.mg"
    path.write_text("""
        ring r = ZZ, (x), lp;
        ideal J = 2x, 3x;
        oracle = 2x, 3x;
    """)
    code, out, _ = run(capsys, "check-lemma", path)
    assert code == 0
    assert "accepted" in out


def test_check_lemma_oracle_from_file(tmp_path, capsys):
    full = tmp_path / "full.mg"
    full.write_text("ring r = ZZ, (x), lp; ideal I = 2x, 3x;\n")
    path = tmp_path / "check.mg"
    path.write_text("ring r = ZZ, (x), lp; ideal J = 2x, 3x;\n")
    code, out, _ = run(capsys, "check-lemma", path, "--oracle", full)
    assert code == 0 and "accepted" in out
    # the file is named by --oracle only, not by a statement in the problem file
    path.write_text('ring r = ZZ, (x), lp; ideal J = 2x, 3x; oracle = "full.mg";\n')
    code, out, err = run(capsys, "check-lemma", path)
    assert code == 2 and out == ""
    assert err == "parse error: line 1, column 50: unexpected character '\"'\n"


def test_check_lemma_oracle_section_flag(tmp_path, capsys):
    path = tmp_path / "check.mg"
    path.write_text("""
        ring r = ZZ, (x), lp;
        ideal J = 2x, 3x;
        ideal FULL = 2x, 3x;
    """)
    code, out, _ = run(capsys, "check-lemma", path, "--oracle", "FULL")
    assert code == 0 and "accepted" in out


def test_missing_oracle_is_usage_error(tmp_path, capsys):
    path = tmp_path / "check.mg"
    path.write_text("ring r = ZZ, (x), lp; ideal J = x;\n")
    code, _, err = run(capsys, "check-lemma", path)
    assert code == 2 and "oracle" in err


def test_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "broken.mg"
    path.write_text("ring r = ZZ, (x), lp; ideal I = x + w;\n")
    code, _, err = run(capsys, "gb", path)
    assert code == 2
    assert "parse error" in err


def test_resource_cap_exit_code(tmp_path, capsys):
    path = tmp_path / "hard.mg"
    path.write_text("ring r = ZZ, (z, y, x), lp;"
                    " ideal I = 3z2-y2+zx, 7yx2-z-1, 5x3+2zy-4;\n")
    code, _, err = run(capsys, "gb", path, "--max-pairs", "2")
    assert code == 2
    assert "resource limit" in err


def test_max_pairs_environment_variable(tmp_path, capsys, monkeypatch):
    """The pair budget is set by --max-pairs only; the environment is not read."""
    path = tmp_path / "hard.mg"
    path.write_text("ring r = ZZ, (z, y, x), lp;"
                    " ideal I = 3z2-y2+zx, 7yx2-z-1, 5x3+2zy-4;\n")
    monkeypatch.delenv("MODGROB_MAX_PAIRS", raising=False)
    expected = run(capsys, "gb", path)
    assert expected[0] == 0
    for value in ("2", "abc", "-5"):
        monkeypatch.setenv("MODGROB_MAX_PAIRS", value)
        assert run(capsys, "gb", path) == expected


def test_max_pairs_zero_is_a_budget_of_zero_pairs(tmp_path, capsys):
    path = tmp_path / "hard.mg"
    path.write_text("ring r = ZZ, (z, y, x), lp;"
                    " ideal I = 3z2-y2+zx, 7yx2-z-1, 5x3+2zy-4;\n")
    code, _, err = run(capsys, "gb", path, "--max-pairs", "0")
    assert code == 2 and "resource limit" in err
    # a single generator makes no pairs, so a zero budget suffices
    path.write_text("ring r = ZZ, (x), lp; ideal I = 2x;\n")
    code, out, _ = run(capsys, "gb", path, "--max-pairs", "0")
    assert code == 0 and out == "2x\n"


def test_negative_max_pairs_is_usage_error(tmp_path, capsys):
    path = tmp_path / "one.mg"
    path.write_text("ring r = ZZ, (x), lp; ideal I = 2x;\n")
    code, out, err = run(capsys, "gb", path, "--max-pairs", "-1")
    assert code == 2 and out == ""
    assert err == "error: pair budget must be >= 0, got -1\n"


def test_non_utf8_file_is_usage_error(tmp_path, capsys):
    path = tmp_path / "latin1.mg"
    path.write_bytes("ring r = ZZ, (x), lp; ideal I = x; // caf\u00e9\n".encode("latin-1"))
    code, _, err = run(capsys, "gb", path)
    assert code == 2 and "cannot read" in err


def test_gb_order_override(capsys):
    code, out, _ = run(capsys, "gb", CORPUS / "chain_dp.mg", "--order", "lp",
                       "--coeff", "ZZ/9")
    assert code == 0
    assert out == "x\n3y\ny^2\n3z+2y\n"


def test_missing_file_is_usage_error(capsys):
    code, _, err = run(capsys, "gb", "no_such_file.mg")
    assert code == 2 and "cannot read" in err


def test_gb_with_declared_block_order(tmp_path, capsys):
    path = tmp_path / "elim.mg"
    path.write_text("ring r = ZZ, (t, y, x), block((t): lp, (y, x): dp);"
                    " ideal I = 3t-y, ty-x;\n")
    code, out, _ = run(capsys, "gb", path)
    assert code == 0
    lines = out.splitlines()
    assert "3t-y" in lines
    # the t-free part is the elimination ideal: y^2 - 3x lands there
    assert "y^2-3x" in lines


def test_module_entry_point():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "modgrob", "gb", str(CORPUS / "chain_dp.mg")],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.startswith("3x\n")


def test_output_bytes_stable_across_hash_seeds():
    import os
    import subprocess
    import sys

    outputs = set()
    for seed in ("0", "1", "31337"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        proc = subprocess.run(
            [sys.executable, "-m", "modgrob", "torsion", str(CORPUS / "chain_dp.mg"),
             "--json"],
            capture_output=True, env=env)
        assert proc.returncode == 0
        outputs.add(proc.stdout)
    assert len(outputs) == 1


def test_duplicate_variable_is_parse_error(tmp_path, capsys):
    path = tmp_path / "dup.mg"
    path.write_text("ring r = ZZ, (x, x), dp; ideal I = x;\n")
    code, out, err = run(capsys, "gb", path)
    assert code == 2 and out == ""
    assert err == "parse error: line 1, column 18: duplicate variable 'x'\n"


def test_huge_exponent_is_parse_error(tmp_path, capsys):
    path = tmp_path / "exp.mg"
    path.write_text("ring r = ZZ, (x), lp;\nideal I = x^99999999999;\n")
    code, out, err = run(capsys, "gb", path)
    assert code == 2 and out == ""
    assert err.startswith("parse error: line 2, column 11: exponent out of range")


@pytest.mark.parametrize("ideal", ["(x)^99999999999", "2^99999999999"])
def test_huge_power_is_parse_error_at_once(tmp_path, capsys, ideal):
    path = tmp_path / "pow.mg"
    path.write_text(f"ring r = ZZ, (x), lp;\nideal I = {ideal};\n")
    start = time.perf_counter()
    code, out, err = run(capsys, "gb", path)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err.startswith("parse error: line 2, column")
    assert "exponent out of range: 99999999999" in err


@pytest.mark.parametrize("ideal", ["(x+y+z+1)^400", "(x+1)^3000000", "2^2147483647"])
def test_power_past_expansion_cap_is_parse_error_at_once(tmp_path, capsys, ideal):
    path = tmp_path / "pow.mg"
    path.write_text(f"ring r = ZZ, (x, y, z), lp;\nideal I = {ideal};\n")
    start = time.perf_counter()
    code, out, err = run(capsys, "gb", path)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    exponent = ideal.rsplit("^", 1)[1]
    assert err.startswith("parse error: line 2, column")
    assert err.rstrip().endswith(f"power too large to expand: ^{exponent}")


@pytest.mark.parametrize("factor, count", [("(x+y+z+1)", 60), ("(x+1)", 400)])
def test_long_written_out_product_is_parse_error_at_once(tmp_path, capsys, factor, count):
    """Each multiplication stays under the cap; together they pass it."""
    path = tmp_path / "product.mg"
    path.write_text(f"ring r = ZZ, (x, y, z), lp;\nideal I = {factor * count};\n")
    start = time.perf_counter()
    code, out, err = run(capsys, "gb", path)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err.startswith("parse error: line 2, column")
    assert err.rstrip().endswith("product too large to expand")


@pytest.mark.parametrize("summand, joiner, message", [
    ("(x+y+z+1)^16", "+", "power too large to expand: ^16"),
    ("(x+y+z+1)" * 10, "+", "product too large to expand"),
    ("(x+y+z+1)^16", ", ", "power too large to expand: ^16"),
], ids=["powers", "products", "listed-powers"])
def test_long_sum_of_expansions_is_parse_error_at_once(tmp_path, capsys, summand, joiner,
                                                      message):
    """Each summand stays under the cap; the file's summands together pass it,
    whether they add up to one polynomial or are listed as many."""
    path = tmp_path / "sum.mg"
    path.write_text(f"ring r = ZZ, (x, y, z), lp;\nideal I = {joiner.join([summand] * 50)};\n")
    start = time.perf_counter()
    code, out, err = run(capsys, "gb", path)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err.startswith("parse error: line 2, column")
    assert err.rstrip().endswith(message)


def test_deep_nesting_is_parse_error(tmp_path, capsys):
    path = tmp_path / "deep.mg"
    path.write_text("ring r = ZZ, (x), lp; ideal I = " + "(" * 3000 + "x"
                    + ")" * 3000 + ";\n")
    code, out, err = run(capsys, "gb", path)
    assert code == 2 and out == ""
    assert err.startswith("parse error: line 1, column 133: parentheses nested deeper")


_BIG = "1" + "0" * 5000  # more digits than Python's int() converts


@pytest.mark.parametrize("text, where", [
    (f"ring r = ZZ, (x), lp;\nideal I = {_BIG}x;\n", "line 2, column 11"),
    (f"ring r = ZZ, (x), lp;\nideal I = x^{_BIG};\n", "line 2, column 13"),
    (f"ring r = ZZ, (x), lp;\nideal I = x{_BIG};\n", "line 2, column 12"),
    (f"ring r = ZZ/{_BIG}, (x), lp;\nideal I = x;\n", "line 1, column 13"),
], ids=["coefficient", "exponent", "juxtaposed-exponent", "modulus"])
def test_overlong_integer_literal_is_parse_error(tmp_path, capsys, text, where):
    path = tmp_path / "big.mg"
    path.write_text(text)
    code, out, err = run(capsys, "gb", path)
    assert code == 2 and out == ""
    assert err == f"parse error: {where}: integer literal too long: 5001 digits\n"


@pytest.mark.parametrize("argv, message", [
    (["gb", CORPUS / "chain_dp.mg", "--ideal", "NOPE"], "no ideal section named 'NOPE'"),
    (["torsion", CORPUS / "chain_dp.mg", "--ideal", "NOPE"], "no ideal section named 'NOPE'"),
    (["check-lemma", CORPUS / "solve_p_demo.mg", "--ideal", "NOPE"],
     "no ideal section named 'NOPE'"),
    (["arnold-verify", CORPUS / "arnold_counterexample.mg", "--mod", "2", "--ideal", "NOPE"],
     "no ideal section named 'NOPE'"),
    (["gb", "none.mg"], "the problem file declares no ideal sections"),
    (["check-lemma", CORPUS / "solve_p_demo.mg", "--oracle", "none.mg"],
     "the problem file declares no ideal sections"),
], ids=["gb", "torsion", "check-lemma", "arnold-verify", "file", "oracle-file"])
def test_missing_ideal_section_is_usage_error(tmp_path, capsys, monkeypatch, argv, message):
    (tmp_path / "none.mg").write_text("ring r = ZZ, (x), lp; stream = 2x;\n")
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


def test_gb_modulus_below_two_is_usage_error(capsys):
    _one_line_usage_error(capsys, ["gb", CORPUS / "chain_dp.mg", "--coeff", "ZZ/0"],
                          "modgrob gb: error: argument --coeff: line 1, column 4:"
                          " modulus must be >= 2")


@pytest.mark.parametrize("flags, message", [
    (["--coeff", "ZZ/1"], "argument --coeff: line 1, column 4: modulus must be >= 2"),
    (["--coeff", "ZZ/"], "argument --coeff: line 1, column 4: expected 'INT'"),
    (["--order", "xx"], "argument --order: line 1, column 1: unknown term order 'xx'"),
], ids=["coeff-ZZ/1", "coeff-ZZ/", "order-xx"])
def test_bad_domain_or_order_flag_is_usage_error(capsys, flags, message):
    _one_line_usage_error(capsys, ["gb", CORPUS / "chain_dp.mg"] + flags,
                          f"modgrob gb: error: {message}")


# the flags each command reads, besides --max-pairs and --json
_READS = {
    "gb": {"--ideal", "--order", "--coeff"},
    "torsion": {"--ideal", "--order"},
    "check-lemma": {"--ideal", "--order", "--oracle"},
    "solve-p": {"--order", "--stream", "--oracle"},
    "arnold-verify": {"--ideal", "--order", "--mod"},
}
_VALID = {"--ideal": "I", "--order": "lp", "--coeff": "ZZ", "--mod": "2",
          "--stream": "I", "--oracle": "I"}


@pytest.mark.parametrize("command, flag", [
    (command, flag) for command, reads in _READS.items() for flag in _VALID
    if flag not in reads])
def test_flag_a_command_does_not_read_is_rejected(capsys, command, flag):
    """gb --mod among them: a gb modulus is spelt --coeff ZZ/m."""
    _one_line_usage_error(capsys, [command, CORPUS / "chain_dp.mg", flag, _VALID[flag]],
                          f"modgrob: error: unrecognized arguments: {flag} {_VALID[flag]}")


_FUZZ_FILES = ["chain_dp.mg", "chain_z9_dp.mg", "pair_a.mg", "mixed.mg", "mixed_zz.mg",
               "solve_p_demo.mg", "arnold_counterexample.mg"]
_FUZZ_VALUES = {
    "--ideal": ["I", "J", "G", "NOPE", ""],
    "--order": ["lp", "dp", "xx", "block", ""],
    "--coeff": ["ZZ", "QQ", "ZZ/9", "ZZ/5", "ZZ/1", "ZZ/", "xx"],
    "--mod": ["2", "5", "9", "0", "-3", "x"],
    "--stream": ["I", "NOPE"],
    "--oracle": ["I", "NOPE", "no_such_file.mg", str(CORPUS / "chain_dp.mg")],
    "--max-pairs": ["0", "3", "-1", "x"],
}


@settings(max_examples=100, deadline=None)
@given(command=st.sampled_from(sorted(_READS)), name=st.sampled_from(_FUZZ_FILES),
       flags=st.fixed_dictionaries({}, optional={
           flag: st.sampled_from(values) for flag, values in _FUZZ_VALUES.items()}),
       json=st.booleans())
def test_any_argv_ends_in_an_exit_code(command, name, flags, json):
    """Valid or not, a command line ends in 0, 1 or 2 (argparse's SystemExit)."""
    argv = [command, str(CORPUS / name)] + [part for item in flags.items() for part in item]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv + ["--json"] * json)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2)


# Most draws are well formed, so that the commands run past the parser.
_FILE_DOMAINS = ["ZZ"] * 8 + ["QQ", "ZZ/2", "ZZ/5", "ZZ/6", "ZZ/9", "ZZ/1", "RR"]
_FILE_COEFFS = ["", "", "1", "2", "-3", "6", "9", "12", "-1", "0"]
_FILE_SECTIONS = ["ideal I", "ideal J", "ideal G", "stream", "oracle", "ideal I"]


@st.composite
def _term(draw, variables, domain):
    """A term of total degree at most 3, written in one of the accepted spellings."""
    coeff = draw(st.sampled_from(_FILE_COEFFS + ["1/2", "-5/3"] * (domain == "QQ")))
    degree = 0
    factors = []
    for name in draw(st.lists(st.sampled_from(variables), max_size=3)):
        if degree == 3:
            break
        e = draw(st.integers(min_value=1, max_value=3 - degree))
        degree += e
        factors.append(draw(st.sampled_from([f"{name}^{e}", f"{name}{e}"])) if e > 1
                       else name)
    body = "*".join(factors)
    if not coeff:
        return body or "1"
    return f"{coeff}*{body}" if body else coeff


@st.composite
def _problem_files(draw):
    """Problem-file text in at most 3 variables and degree 3, perhaps malformed."""
    variables = draw(st.lists(st.sampled_from(["z", "y", "x"]), min_size=1, max_size=3,
                              unique=True))
    orders = ["lp", "dp"] * 3 + ["xx"]
    if len(variables) > 1:
        k = draw(st.integers(min_value=1, max_value=len(variables) - 1))
        orders.append(f"block(({', '.join(variables[:k])}): lp, "
                      f"({', '.join(variables[k:])}): dp)")
    domain = draw(st.sampled_from(_FILE_DOMAINS))
    polys = st.lists(_term(variables, domain), min_size=1, max_size=3).map(
        lambda ts: "+".join(ts).replace("+-", "-"))
    lines = [f"ring r = {domain}, "
             f"({', '.join(variables)}), {draw(st.sampled_from(orders))};"]
    for head in draw(st.lists(st.sampled_from(_FILE_SECTIONS), max_size=4, unique=True)):
        lines.append(f"{head} = {', '.join(draw(st.lists(polys, min_size=1, max_size=3)))};")
    text = "\n".join(lines) + "\n"
    for _ in range(draw(st.sampled_from([0] * 6 + [1, 2]))):
        cut = draw(st.integers(min_value=0, max_value=len(text)))
        junk = draw(st.sampled_from(["", ";", ",", "(", "^", "/", "x", "0", "#"]))
        dropped = draw(st.integers(min_value=0, max_value=2))
        text = text[:cut] + junk + text[cut + dropped:]
    return text


@settings(max_examples=150, deadline=None)
@given(text=_problem_files(), command=st.sampled_from(sorted(_READS)),
       mod=st.sampled_from(["2", "3", "4", "32003"]))
def test_any_problem_file_ends_in_an_exit_code(tmp_path_factory, text, command, mod):
    """Well-formed or not, a small problem file ends every command in 0, 1
    or 2 under a pair budget of 200, and never in another exception."""
    path = tmp_path_factory.mktemp("fuzz") / "problem.mg"
    path.write_text(text, encoding="utf-8")
    argv = [command, str(path), "--max-pairs", "200"]
    argv += ["--mod", mod] * (command == "arnold-verify")
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2)
