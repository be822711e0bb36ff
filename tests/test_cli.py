import json
import random

import pytest

from exactntt import cli
from exactntt.convolution import convolve_direct
from exactntt.errors import NttError
from exactntt.registry import ENV_REGISTRY


def write_seq(path, values, bound=None, json_mode=False):
    with open(path, "w") as fh:
        cli.write_sequence(fh, values, json_mode=json_mode, bound=bound)


def run(args):
    return cli.main([str(a) for a in args])


# -- sequence file round trips ----------------------------------------------


@pytest.mark.parametrize("json_mode", [False, True])
@pytest.mark.parametrize("bound", [None, 99])
def test_sequence_file_round_trip(tmp_path, json_mode, bound):
    path = tmp_path / ("seq.json" if json_mode else "seq.txt")
    values = [0, -7, 99, 3]
    write_seq(path, values, bound=bound, json_mode=json_mode)
    back, declared = cli.read_sequence_file(str(path), json_mode)
    assert back == values
    assert declared == bound


def test_sequence_file_validation(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("3\n1\n2\n")  # count mismatch
    with pytest.raises(NttError):
        cli.read_sequence_file(str(bad), False)
    bad.write_text("2 5\n1\n9\n")  # bound violated
    with pytest.raises(NttError):
        cli.read_sequence_file(str(bad), False)
    bad.write_text("")
    with pytest.raises(NttError):
        cli.read_sequence_file(str(bad), False)


@pytest.mark.parametrize(
    "obj",
    [
        {"length": 2.9, "values": [1, 2], "bound": 2.5},
        {"length": 2, "values": [1, 2], "bound": 2.5},
        {"length": True, "values": [1]},
        {"length": 2, "values": [1, 1], "bound": True},
        {"length": "2", "values": [1, 2]},
    ],
)
def test_json_header_must_be_integers(tmp_path, obj):
    path = tmp_path / "seq.json"
    path.write_text(json.dumps(obj))
    with pytest.raises(NttError):
        cli.read_sequence_file(str(path), True)
    assert run(["convolve", path, path, "--json"]) == 2


def test_sequence_file_comments_and_header_bound(tmp_path):
    path = tmp_path / "seq.txt"
    path.write_text("# comment\n2 10\n5  # inline comment\n-10\n")
    values, bound = cli.read_sequence_file(str(path), False)
    assert values == [5, -10] and bound == 10


# -- convolve ------------------------------------------------------------------


def test_convolve_explicit_modulus(tmp_path, capsys):
    f, g = [1, 1, 0, 0], [1, 0, 1, 0]
    write_seq(tmp_path / "f.txt", f)
    write_seq(tmp_path / "g.txt", g)
    out = tmp_path / "h.txt"
    code = run(["convolve", tmp_path / "f.txt", tmp_path / "g.txt", "--modulus", 641, "--out", out])
    assert code == 0
    values, _ = cli.read_sequence_file(str(out), False)
    assert values == convolve_direct(f, g)


def test_convolve_auto_stdout_and_diagnostics(tmp_path, capsys):
    f = [3, -1, 4, 1, -5, 9, 2, 6]
    g = [2, 7, 1, -8, 2, 8, 1, 8]
    write_seq(tmp_path / "f.txt", f)
    write_seq(tmp_path / "g.txt", g)
    assert run(["convolve", tmp_path / "f.txt", tmp_path / "g.txt"]) == 0
    captured = capsys.readouterr()
    got = [int(v) for v in captured.out.split()[1:]]
    assert got == convolve_direct(f, g)
    assert "auto-selected" in captured.err
    assert captured.out.split()[0] == "8"


def test_convolve_json_mode(tmp_path, capsys):
    f, g = [1, 2, 3, 4], [5, 6, 7, 8]
    write_seq(tmp_path / "f.json", f, json_mode=True)
    write_seq(tmp_path / "g.json", g, json_mode=True)
    assert run(["convolve", tmp_path / "f.json", tmp_path / "g.json", "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["values"] == convolve_direct(f, g)


def test_convolve_exit_codes(tmp_path):
    write_seq(tmp_path / "f3.txt", [1, 1, 0])
    write_seq(tmp_path / "g3.txt", [1, 0, 1])
    # 3 does not divide 64
    assert run(["convolve", tmp_path / "f3.txt", tmp_path / "g3.txt", "--modulus", 641]) == 4

    big = [600] * 64
    write_seq(tmp_path / "fb.txt", big)
    write_seq(tmp_path / "gb.txt", big)
    assert run(["convolve", tmp_path / "fb.txt", tmp_path / "gb.txt", "--modulus", 641]) == 3

    (tmp_path / "garbage.txt").write_text("not a number\n")
    assert run(["convolve", tmp_path / "garbage.txt", tmp_path / "gb.txt"]) == 2
    assert run(["convolve", tmp_path / "missing.txt", tmp_path / "gb.txt"]) == 2


def test_convolve_shared_moduli_fail_before_audit(tmp_path, capsys):
    write_seq(tmp_path / "f.txt", [1, 1, 0, 0])
    write_seq(tmp_path / "g.txt", [1, 0, 1, 0])
    code = run([
        "convolve", tmp_path / "f.txt", tmp_path / "g.txt",
        "--modulus", 641, "--modulus", 641,
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert "shares factor" in err and "bound audit" not in err


def test_convolve_length_mismatch_fails_before_audit(tmp_path, capsys):
    write_seq(tmp_path / "f.txt", [1, 2, 3, 4])
    write_seq(tmp_path / "g.txt", [1, 2])
    assert run(["convolve", tmp_path / "f.txt", tmp_path / "g.txt"]) == 2
    err = capsys.readouterr().err
    assert "lengths differ: 4 vs 2" in err
    assert "bound audit" not in err and "moduli" not in err


def test_convolve_audit_reports_the_data_requirement(tmp_path, capsys):
    # the header bound 100 is a checked promise; the moduli and the audit
    # follow from the data, whose need is 4 * 1 * 1
    (tmp_path / "f.txt").write_text("4 100\n1\n1\n0\n0\n")
    (tmp_path / "g.txt").write_text("4 100\n1\n0\n1\n0\n")
    code = run(["convolve", tmp_path / "f.txt", tmp_path / "g.txt", "--modulus", 641])
    assert code == 0
    captured = capsys.readouterr()
    assert "bound audit: N*Bf*Bg = 4 < capacity 641" in captured.err
    assert [int(v) for v in captured.out.split()[1:]] == convolve_direct([1, 1, 0, 0], [1, 0, 1, 0])


def test_convolve_inadequate_modulus_fails_without_audit(tmp_path, capsys):
    big = [600] * 64
    write_seq(tmp_path / "fb.txt", big)
    write_seq(tmp_path / "gb.txt", big)
    code = run(["convolve", tmp_path / "fb.txt", tmp_path / "gb.txt", "--modulus", 641])
    assert code == 3
    captured = capsys.readouterr()
    assert f"need {64 * 600 * 600}, capacity 641" in captured.err
    assert "bound audit" not in captured.err and captured.out == ""


def test_convolve_explicit_crt_set(tmp_path, capsys):
    rnd = random.Random(0)
    f = [rnd.randrange(-1000, 1000) for _ in range(128)]
    g = [rnd.randrange(-1000, 1000) for _ in range(128)]
    write_seq(tmp_path / "f.txt", f)
    write_seq(tmp_path / "g.txt", g)
    code = run([
        "convolve", tmp_path / "f.txt", tmp_path / "g.txt",
        "--modulus", 2424833, "--modulus", 13631489,
    ])
    assert code == 0
    got = [int(v) for v in capsys.readouterr().out.split()[1:]]
    assert got == convolve_direct(f, g)


def test_convolve_self_test():
    assert run(["convolve", "--self-test"]) == 0


def test_convolve_auto_escalates_to_crt(tmp_path, capsys):
    rnd = random.Random(1)
    f = [rnd.randrange(10**6) for _ in range(64)]
    g = [rnd.randrange(10**6) for _ in range(64)]
    write_seq(tmp_path / "f.txt", f)
    write_seq(tmp_path / "g.txt", g)
    assert run(["convolve", tmp_path / "f.txt", tmp_path / "g.txt"]) == 0
    captured = capsys.readouterr()
    got = [int(v) for v in captured.out.split()[1:]]
    assert got == convolve_direct(f, g)


# -- mul -------------------------------------------------------------------------


def test_mul_examples(capsys):
    assert run(["mul", "12", "34"]) == 0
    assert capsys.readouterr().out.strip() == "408"
    assert run(["mul", "0", "98765"]) == 0
    assert capsys.readouterr().out.strip() == "0"
    assert run(["mul", "-25", "4"]) == 0
    assert capsys.readouterr().out.strip() == "-100"


def test_mul_thousand_digits(capsys):
    rnd = random.Random(7)
    a = rnd.randrange(10**999, 10**1000)
    b = rnd.randrange(10**999, 10**1000)
    assert run(["mul", str(a), str(b)]) == 0
    assert capsys.readouterr().out.strip() == str(a * b)


def test_mul_malformed(capsys):
    assert run(["mul", "12x", "3"]) == 2


# -- verify ------------------------------------------------------------------------


def test_verify_table1(capsys):
    assert run(["verify", "--table1"]) == 0
    out = capsys.readouterr().out
    assert "4/4 pass" in out
    assert out.count("PASS table1") == 4


def test_verify_fermat_identity(capsys):
    assert run(["verify", "--fermat-identity", 5]) == 0
    assert "PASS" in capsys.readouterr().out


def test_verify_poulet(capsys):
    assert run(["verify", "--poulet"]) == 0
    out = capsys.readouterr().out
    assert "nu = 10" in out and "lambda = 30" in out


def test_verify_theorem2(capsys):
    assert run(["verify", "--theorem2", 641]) == 0
    assert run(["verify", "--theorem2", 6700417, "--fermat-index", 5, "--n-max", 64]) == 0
    capsys.readouterr()
    assert run(["verify", "--theorem2", 13631489, "--fermat-index", 18, "--n-max", 1024]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_verify_requires_a_check():
    assert run(["verify"]) == 2


def test_verify_broken_registry_row(tmp_path, capsys):
    reg = tmp_path / "reg.txt"
    reg.write_text("641 5 64\n2424833 9 2048\n")
    assert run(["verify", "--table1", "--registry", reg]) == 1
    out = capsys.readouterr().out
    assert "summary: 1/2 pass" in out
    assert "FAIL table1: m=2424833" in out


def test_verify_table1_honours_env_registry(tmp_path, monkeypatch, capsys):
    reg = tmp_path / "reg.txt"
    reg.write_text("641 5 128\n")
    monkeypatch.setenv(ENV_REGISTRY, str(reg))
    assert run(["verify", "--table1"]) == 1
    out = capsys.readouterr().out
    assert "FAIL table1: m=641" in out
    assert "summary: 0/1 pass" in out


# -- registry / order / dyadic --------------------------------------------------------


def test_registry_listing(capsys):
    assert run(["registry"]) == 0
    out = capsys.readouterr().out
    assert "641" in out and "13631489" in out and "524288" in out


def test_registry_env_override(tmp_path, monkeypatch, capsys):
    reg = tmp_path / "reg.txt"
    reg.write_text("641 5 64\n")
    monkeypatch.setenv(ENV_REGISTRY, str(reg))
    assert run(["registry"]) == 0
    out = capsys.readouterr().out
    assert "641" in out and "13631489" not in out


def test_registry_flag_beats_env(tmp_path, monkeypatch, capsys):
    env_reg = tmp_path / "env.txt"
    env_reg.write_text("641 5 64\n")
    flag_reg = tmp_path / "flag.txt"
    flag_reg.write_text("6700417 5 64\n")
    monkeypatch.setenv(ENV_REGISTRY, str(env_reg))
    assert run(["registry", "--registry", flag_reg]) == 0
    out = capsys.readouterr().out
    assert "6700417" in out and "641 " not in out


def test_order_query(capsys):
    assert run(["order", "2", "341"]) == 0
    out = capsys.readouterr().out
    assert "= 10" in out and "lambda(341) = 30" in out and "phi(341) = 300" in out


def test_dyadic_validate(capsys):
    assert run(["dyadic", "validate", "--length", 2, "--alpha", 16, "--beta", 4]) == 0
    assert "VALIDATED" in capsys.readouterr().out
    assert run(["dyadic", "validate", "--length", 4, "--alpha", 4, "--root", 3]) == 1
    assert "witness=(1, 8)" in capsys.readouterr().out
    assert run(["dyadic", "validate", "--length", 2, "--alpha", 5, "--beta", 4]) == 2


def test_dyadic_validate_length_shorthand(capsys):
    assert run(["dyadic", "validate", "--length", "2^1", "--alpha", 16, "--beta", 4]) == 0
    assert "VALIDATED length=2" in capsys.readouterr().out
    for bad in ("2^-1", "0^-1", "2^x"):
        with pytest.raises(SystemExit) as info:
            run(["dyadic", "validate", "--length", bad, "--alpha", 16, "--beta", 4])
        assert info.value.code == 2
        assert "argument --length" in capsys.readouterr().err


def test_dyadic_convolve(tmp_path, capsys):
    write_seq(tmp_path / "f.txt", [3, 1])
    write_seq(tmp_path / "g.txt", [2, 5])
    code = run([
        "dyadic", "convolve", tmp_path / "f.txt", tmp_path / "g.txt",
        "--alpha", 16, "--beta", 4,
    ])
    assert code == 0
    got = [int(v) for v in capsys.readouterr().out.split()[1:]]
    assert got == [11, 17]
