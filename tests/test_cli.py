"""End-to-end command-line behavior: output shapes, exit codes, and
reproducibility."""

import json
import shlex
from pathlib import Path

import pytest

from latticesec.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_theta_at_one(capsys):
    code, out, _ = run(capsys, "theta", "--y", "1")
    assert code == 0
    assert "z = 0.25" in out.splitlines()
    assert "regime = series" in out


def test_theta_symmetry(capsys):
    _, out2, _ = run(capsys, "theta", "--y", "2")
    _, outhalf, _ = run(capsys, "theta", "--y", "0.5")
    z2 = [l for l in out2.splitlines() if l.startswith("z =")]
    zh = [l for l in outhalf.splitlines() if l.startswith("z =")]
    a = float(z2[0].split("=")[1])
    b = float(zh[0].split("=")[1])
    assert abs(a - b) <= 1e-10


def test_theta_small_y(capsys):
    code, out, _ = run(capsys, "theta", "--y", "0.0105")
    assert code == 0
    assert "regime = series" in out


def test_theta_usage_errors(capsys):
    assert run(capsys, "theta", "--y", "-1")[0] == 2
    assert run(capsys, "theta")[0] == 2
    assert run(capsys)[0] == 2
    assert run(capsys, "nonsense")[0] == 2


def test_secrecy_gain(capsys):
    code, out, _ = run(capsys, "secrecy", "gain", "--dim", "8")
    assert code == 0 and out.strip() == "4/3"
    code, out, _ = run(capsys, "secrecy", "gain", "--all")
    assert code == 0
    assert out.splitlines()[0] == "8 4/3"
    assert len(out.splitlines()) == 10
    assert run(capsys, "secrecy", "gain")[0] == 2
    assert run(capsys, "secrecy", "gain", "--dim", "9")[0] == 2


def test_secrecy_verify_all(capsys):
    code, out, _ = run(capsys, "secrecy", "verify", "--all")
    assert code == 0
    docs = json.loads(out)
    assert len(docs) == 10
    assert all(doc["holds"] for doc in docs)
    assert [doc["dimension"] for doc in docs] == list(range(8, 88, 8))


def test_secrecy_verify_single(capsys):
    code, out, _ = run(capsys, "secrecy", "verify", "--dim", "24")
    assert code == 0
    assert json.loads(out)["holds"] is True


def test_secrecy_verify_poly_file(capsys, tmp_path):
    poly = tmp_path / "poly.txt"
    poly.write_text("1 -4 16\n")
    code, out, _ = run(capsys, "secrecy", "verify", "--poly", str(poly))
    assert code == 0
    doc = json.loads(out)
    assert doc["holds"] is False
    assert doc["critical_intervals"] == [["1/8", "1/8"]]
    assert run(capsys, "secrecy", "verify", "--poly",
               str(tmp_path / "missing.txt"))[0] == 2
    bad = tmp_path / "bad.txt"
    bad.write_text("2 1\n")
    assert run(capsys, "secrecy", "verify", "--poly", str(bad))[0] == 2


def test_secrecy_table(capsys):
    code, out, _ = run(capsys, "secrecy", "table")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 10
    assert lines[0] == "dim 8: 1 - z"


@pytest.mark.parametrize("name, argv", [
    pytest.param("secrecy_verify_all.json", ["verify", "--all"], id="verify"),
    pytest.param("secrecy_gain_all.txt", ["gain", "--all"], id="gain"),
    pytest.param("secrecy_table.txt", ["table"], id="table")])
def test_secrecy_bytes_are_frozen(capsys, name, argv):
    # The frozen files pin the certificate half: every certificate, gain
    # and table polynomial of the catalogued dimensions.
    frozen = (Path(__file__).parent / "data" / name).read_text()
    assert run(capsys, "secrecy", *argv) == (0, frozen, "")


def test_sum_single_row(capsys):
    code, out, _ = run(capsys, "sum", "--lattice", "lambda2", "--m", "1")
    assert code == 0
    assert out.splitlines() == [
        "lattice,m,p_lim,size,p_max,p_ave,s_value",
        "lambda2,1,inf,81,4.00,2.67,2.83706e+06",
    ]


def test_sum_carved_row(capsys):
    code, out, _ = run(capsys, "sum", "--lattice", "lambda3", "--m", "12",
                       "--target-size", "2401")
    assert code == 0
    assert out.splitlines()[1] == "lambda3,12,,2401,24.00,15.24,8.57291e+06"


def test_sum_usage_errors(capsys):
    assert run(capsys, "sum")[0] == 2
    assert run(capsys, "sum", "--m", "1")[0] == 2
    assert run(capsys, "sum", "--lattice", "lambda9", "--m", "1")[0] == 2
    assert run(capsys, "sum", "--lattice", "lambda3", "--m", "1",
               "--p-lim", "4", "--target-size", "10")[0] == 2
    assert run(capsys, "sum", "--lattice", "lambda3", "--m", "1",
               "--p-lim", "inf", "--target-size", "10")[0] == 2
    assert run(capsys, "sum", "--reproduce", "table1",
               "--lattice", "lambda1")[0] == 2


def test_sum_json_format(capsys):
    code, out, _ = run(capsys, "sum", "--lattice", "lambda3", "--m", "8",
                       "--p-lim", "4", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc[0]["size"] == 79
    assert doc[0]["p_lim"] == 4.0


def test_sum_text_format(capsys):
    code, out, _ = run(capsys, "sum", "--lattice", "lambda2", "--m", "1",
                       "--format", "text")
    assert code == 0
    header = out.splitlines()[0].split()
    assert header == ["lattice", "m", "p_lim", "size", "p_max", "p_ave",
                      "s_value"]


def test_reproduce_table1(capsys):
    code, out, _ = run(capsys, "sum", "--reproduce", "table1")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 21
    assert lines[1].startswith("lambda1,1,inf,81,")
    assert lines[11].startswith("lambda2,1,inf,81,")


@pytest.mark.parametrize("table, fmt", [
    pytest.param("table1", "csv", id="table1"),
    pytest.param("table2", "csv", id="table2"),
    pytest.param("table2", "json", id="table2-json")])
def test_reproduce_full_precision_bytes_are_frozen(capsys, table, fmt):
    # The frozen files pin every bit of both tables, and of table2's JSON
    # report with its carved row.
    frozen = (Path(__file__).parent / "data" / f"{table}_full_precision.{fmt}").read_text()
    code, out, err = run(capsys, "sum", "--reproduce", table, "--format", fmt,
                         "--full-precision")
    assert (code, out, err) == (0, frozen, "")


def test_full_precision_flag(capsys):
    _, out, _ = run(capsys, "sum", "--lattice", "lambda2", "--m", "1",
                    "--full-precision")
    assert "2837058.9849108425" in out


def test_compare_text_and_json(capsys):
    code, out, _ = run(capsys, "compare", "--lattice", "lambda1",
                       "--lattice", "lambda2", "--m", "2",
                       "--gamma-db", "20")
    assert code == 0
    assert out.splitlines()[0].split()[0] == "rank"
    code, out, _ = run(capsys, "compare", "--lattice", "lambda2", "--m", "1",
                       "--gamma", "10", "--format", "json")
    assert code == 0
    assert json.loads(out)["entries"][0]["lattice"] == "lambda2"


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("suffix, codebook", [
    pytest.param("", [], id="uncapped"),
    pytest.param("_p_lim30", ["--p-lim", "30"], id="p_lim30"),
    pytest.param("_target300", ["--target-size", "300"], id="target300")])
def test_compare_bytes_are_frozen(capsys, suffix, codebook, fmt):
    # The frozen files pin a three-lattice ranking at m = 4 for each kind
    # of codebook, as text and as JSON.
    ext = "txt" if fmt == "text" else "json"
    frozen = (Path(__file__).parent / "data" / f"compare_m4{suffix}.{ext}").read_text()
    argv = ["compare", "--lattice", "lambda1", "--lattice", "lambda2",
            "--lattice", "lambda3", "--m", "4", "--gamma-db", "10",
            "--format", fmt, *codebook]
    assert run(capsys, *argv) == (0, frozen, "")


@pytest.mark.parametrize("argv", [
    pytest.param(["sum", "--lattice", "lambda1", "--m", "2"], id="sum"),
    pytest.param(["compare", "--lattice", "lambda1", "--m", "2",
                  "--gamma-db", "10"], id="compare")])
def test_jobs_is_not_an_option(capsys, argv):
    # Every sum runs in one thread, and S is the cube sum; a --jobs or an
    # --exponent left in a script is a usage error, not a silently
    # ignored flag.
    for flag, value in (("--jobs", "2"), ("--exponent", "3")):
        code, out, err = run(capsys, *argv, flag, value)
        assert (code, out) == (2, "") and flag in err


@pytest.mark.parametrize("m,small,rule", [
    pytest.param(10 ** 10, 10 ** 9, ["--p-lim", "4"], id="capped"),
    pytest.param(10 ** 22, 3, ["--target-size", "5"], id="carved")])
def test_a_box_bound_past_the_machine_integers_is_an_error_line(capsys, m, small, rule):
    # The cap is an integer root and the walk clips the box bound to the
    # ball's own bounds, so a box bound past int64 gives the row of a small
    # box that holds the same codebook, apart from m.
    code, out, err = run(capsys, "sum", "--lattice", "lambda1", "--m", str(m), *rule)
    want = run(capsys, "sum", "--lattice", "lambda1", "--m", str(small), *rule)[1]
    assert (code, err) == (0, "")
    assert out == want.replace(",%d," % small, ",%d," % m)
    assert out != want


def test_a_carve_target_past_the_largest_double_is_an_error_line(capsys):
    # The carve's first radius takes the target as a float, which raises
    # OverflowError: one error line and the usage/domain exit code, not a
    # traceback.
    code, out, err = run(capsys, "sum", "--lattice", "lambda1", "--m", str(10 ** 200),
                         "--target-size", str(10 ** 400))
    assert (code, out) == (2, "")
    assert err == "error: value out of range\n"


def _readme_cli_examples() -> list[tuple[list[str], str | None]]:
    """(argv, expected stdout or None) of each `latticesec` line in the
    README's CLI block; `# -> value` gives the expected output."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    examples = []
    for line in block.splitlines():
        if line.startswith("latticesec "):
            command, _, comment = line.partition("#")
            comment = comment.strip()
            expect = comment[2:].strip() if comment.startswith("->") else None
            examples.append((shlex.split(command)[1:], expect))
    return examples


def test_readme_cli_examples(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "my_poly.txt").write_text("1 -1\n")
    examples = _readme_cli_examples()
    assert any(expect is not None for _, expect in examples)
    for argv, expect in examples:
        code, out, err = run(capsys, *argv)
        assert code == 0, (argv, err)
        if expect is not None:
            assert out.strip() == expect, argv


def test_compare_gamma_flags(capsys):
    assert run(capsys, "compare", "--lattice", "lambda2", "--m", "1")[0] == 2
    assert run(capsys, "compare", "--lattice", "lambda2", "--m", "1",
               "--gamma", "2", "--gamma-db", "3")[0] == 2
    # --p-lim and --target-size are exclusive, as for sum
    for p_lim in ("5", "inf"):
        assert run(capsys, "compare", "--lattice", "lambda1",
                   "--lattice", "lambda3", "--m", "3", "--p-lim", p_lim,
                   "--target-size", "50", "--gamma-db", "10")[0] == 2
    # an SNR that overflows a float, or an infinite SNR or cell volume,
    # is refused with an error line, not a traceback or invalid JSON
    for flags in (("--gamma-db", "1e5"), ("--gamma", "inf"),
                  ("--gamma", "10", "--vol-b", "inf", "--format", "json")):
        code, out, err = run(capsys, "compare", "--lattice", "lambda1",
                             "--m", "1", *flags)
        assert (code, out) == (2, "") and err.startswith("error:")


@pytest.mark.parametrize("gamma", ["1e-100", "1e200", "1e-200", "1e-77"])
def test_compare_probability_out_of_float_range(capsys, gamma):
    # The prefactor overflows (1e-100, and 1e200 through gamma^2), divides
    # by an underflowed 4 gamma^2 (1e-200), or times S overflows (1e-77).
    for fmt in ("text", "json"):
        code, out, err = run(capsys, "compare", "--lattice", "lambda1",
                             "--m", "1", "--gamma", gamma, "--format", fmt)
        assert (code, out) == (2, "") and err.startswith("error:")


def test_compare_takes_no_exponent(capsys):
    # p_correct is the cube sum's bound only; S of another exponent would
    # print a number that bounds nothing.
    code, out, err = run(capsys, "compare", "--lattice", "lambda1", "--m", "1",
                         "--gamma", "10", "--exponent", "2")
    assert (code, out) == (2, "") and "--exponent" in err


@pytest.mark.parametrize("argv", [
    ("sum", "--reproduce", "table2", "--p-lim", "10"),
    ("sum", "--reproduce", "table1", "--target-size", "5"),
    ("secrecy", "table", "--dim", "8"),
    ("secrecy", "verify", "--all", "--dim", "8"),
    ("secrecy", "gain", "--poly", "/nonexistent", "--dim", "8"),
])
def test_ignored_flags_are_refused(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "") and err.startswith("error:")


def test_data_dir_override_and_corruption(capsys, tmp_path, monkeypatch, shipped):
    path = shipped("lambda2")
    monkeypatch.setenv("LATTICESEC_DATA", str(tmp_path))
    code, out, _ = run(capsys, "sum", "--lattice", "lambda2", "--m", "1")
    assert code == 0 and "2.83706e+06" in out

    # a corrupted matrix must be refused with the invariant exit code
    doc = json.loads(path.read_text())
    doc["generator"][0][0] *= 2.0
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "sum", "--lattice", "lambda2", "--m", "1")
    assert code == 3
    assert "error" in err

    # missing files are a usage-level problem
    code, _, _ = run(capsys, "sum", "--lattice", "lambda1", "--m", "1")
    assert code == 2


def _truncated(text):
    return text[:len(text) // 2]


def _without_generator(text):
    doc = json.loads(text)
    del doc["generator"]
    return json.dumps(doc)


def _non_numeric_entry(text):
    doc = json.loads(text)
    doc["generator"][1][2] = "x"
    return json.dumps(doc)


def _nan_entry(text):
    doc = json.loads(text)
    doc["generator"][0][0] = float("nan")
    return json.dumps(doc)


def _non_square(text):
    doc = json.loads(text)
    doc["generator"] = [row[:3] for row in doc["generator"]]
    return json.dumps(doc)


@pytest.mark.parametrize("damage", [_truncated, _without_generator,
                                    _non_numeric_entry, _nan_entry, _non_square])
def test_malformed_data_file_exits_3(capsys, tmp_path, monkeypatch, shipped, damage):
    path = shipped("lambda2")
    path.write_text(damage(path.read_text()))
    monkeypatch.setenv("LATTICESEC_DATA", str(tmp_path))
    code, out, err = run(capsys, "sum", "--lattice", "lambda2", "--m", "1")
    assert (code, out) == (3, "")
    assert err.startswith("error: %s: malformed lattice data file" % path)
