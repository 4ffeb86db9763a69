"""The `eop` command line: a golden artifact corpus, the exit codes, round trips."""

import argparse
import csv
import hashlib
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from mpmath import mp

from eoplab import cli, constructions, exactrows, holonomic, numcore
from eoplab.cli import EXIT_DOMAIN, EXIT_OK, EXIT_USAGE, main
from eoplab.holonomic import LinearRecurrence
from eoplab.kernels import PolyQ


def _case(case_id, *argvs, digests=None):
    return pytest.param([argv.split() for argv in argvs], digests, id=case_id)


# Each case runs its command lines in order in an empty directory, with
# relative output paths because manifests record them. The digests pin every
# file left there, in the order the commands print their paths.
GOLDEN = [
    _case("gamma-csv", "gamma-approx --alpha=1/3 --n 40 --out out", digests={
        "out/gamma_approx.csv": "7b0c2138c816dcca0240809f78616b4256e18d72927332e3a8c4667f825b8714",
        "out/gamma_approx.manifest.json": "9878f21eb712df1673dd28f737066e25ff0c02687beec0573a6f10018b737156",
    }),
    _case("gamma-json", "gamma-approx --alpha=-5/3 --n 24 --method recurrence "
          "--format json --digits 12 --prec 128 --out out", digests={
        "out/gamma_approx.json": "3fbb4ffdc0d69f90e22579455fd9433568d8fce1ad1dd7b3a991e4316cc1bbfc",
        "out/gamma_approx.manifest.json": "7b74b0d5f88b8d76289457b654d493ecfa24ed949395fce3fcc9c3670b66573e",
    }),
    _case("gamma-closed-csv", "gamma-approx --alpha=-7/11 --n 64 --method closed --out out",
          digests={
        "out/gamma_approx.csv": "83c0f88301bb8355b500717ccfeffe5cdeb3edad497e383bef7ca37bd3aba875",
        "out/gamma_approx.manifest.json": "07207fddbe91a76e15753decd4d048672ad41a03f7f9003b381e56f78d648898",
    }),
    _case("gamma-series-csv", "gamma-approx --alpha=5/12 --n 64 --method series --out out",
          digests={
        "out/gamma_approx.csv": "36243bdb650476e7bf2560a43485042f30874fa9d1a457c260424be1ea091a82",
        "out/gamma_approx.manifest.json": "2353059be09596bdec2428b45d0f170468110655708f4b44709e3b28d3de85a2",
    }),
    _case("gamma-series-long-csv", "gamma-approx --alpha=-29/12 --n 200 --method series "
          "--out out", digests={
        "out/gamma_approx.csv": "da907924df06c068ba333134ecf35ae757ecb62a5934b42f5881e0ad201ddabb",
        "out/gamma_approx.manifest.json": "a3293f17ac3c2eac830aa6d2f953f7b4d07cd4a4ae2cccd5a01740d7cef4faba",
    }),
    _case("euler-csv", "euler-approx --n 32 --out out", digests={
        "out/euler_approx.csv": "80d27e4770f2b32431a2cbddc2ef3e7d428c892b4d84687cd557898525b01467",
        "out/euler_approx.manifest.json": "713668d24680f1506bfa345ddf6b0a1924e610d580e7df5e3a20558133d9d05e",
    }),
    _case("euler-json", "euler-approx --n 32 --method series --format json --out out", digests={
        "out/euler_approx.json": "19ab6e0c2db9c851946d05877af34af4b09ca18f6c306cf69e4f07a3e58ba853",
        "out/euler_approx.manifest.json": "96d268168a5e2e9a4bfa70c874ede6945eb3950d78f4a7f53717df5e8c987156",
    }),
    _case("pade-csv", "pade --n 6 --z=-1/2 --out out", digests={
        "out/pade.csv": "7099272f72d2c36d33b9f1facbe372725eb92b1ca22922ae80c5a0a155061379",
        "out/pade.manifest.json": "107a7b471a05e5842e2465a393dcf030a4e78d1ee688a14e6d0838a701f9281e",
    }),
    _case("pade-long-csv", "pade --n 40 --z=7/3 --out out", digests={
        "out/pade.csv": "c8debd971b98ef8e246d7dc9332819ef82981c38b4cd4b790750b867d6d71223",
        "out/pade.manifest.json": "b999c595efaa2dac28e1bf254820cb83b1e32182fba8bc1a646c1784a4377c8b",
    }),
    _case("pade-json", "pade --n 4 --format json --out out", digests={
        "out/pade.json": "a24239ba2b23bf8c35d6b0d40642e9fbe54cea7d43d460263990b901881b48a0",
        "out/pade.manifest.json": "fade008be2df048e06f754ca72b11363d15d12fe9970d7dd540e870fa0e248d5",
    }),
    _case("e-convergents-csv", "e-convergents --n 12 --out out", digests={
        "out/e_convergents.csv": "29631a53828f6dbc8c1ac45328561f46edee7ee0fa2acbe4621381bd9adb5302",
        "out/e_convergents.manifest.json": "78b9b321dd7adb1c52a94d0fd58592dbb3a34c61c369d8bd8b2f8b70073d378d",
    }),
    _case("e-convergents-json", "e-convergents --n 12 --format json --out out", digests={
        "out/e_convergents.json": "6f4bb9f4e397e04bd42c89d4c45a76b1d07aa6d5da0ed166759a32e1446c17cc",
        "out/e_convergents.manifest.json": "54568bb2cfa4f9cc96ef696f3b2880774c37879977a1afbb7a4d6ae5561bc45f",
    }),
    _case("intseq-csv", "intseq --k 16 --prec 128 --out out", digests={
        "out/intseq.csv": "4aed5244ab618409a1274339e865040aa0a48ac5ea58da2fd7e4dffed74fb55c",
        "out/intseq.manifest.json": "a09bf2e9964e22104d74eddc27f501da0a27b5afefcc0f71501154e7ef6a462c",
    }),
    _case("intseq-json", "intseq --k 16 --format json --digits 20 --out out", digests={
        "out/intseq.json": "ae388ac180f736129be0f6e327723b992a91d7c7332edebdf1c42ff62ac72a4e",
        "out/intseq.manifest.json": "d4e6693293944d64837abfbc0d3ff794c9bc2c48e9bd5f36f0394d7edb8cdd8e",
    }),
    _case("asym-ealpha-csv", "asym-check --which ealpha --alpha=1/3 --z 12 --out out", digests={
        "out/asym_check.csv": "570646e8ddd243cd091e47e1e307285ea4740c7f877ca8afcee238afa94a1ed0",
        "out/asym_check.manifest.json": "b24819d8546c8ebb0be9fe8aacbfbe1be2af6f686b449bc6a66e6f06b617d629",
    }),
    _case("asym-ealpha-json", "asym-check --which ealpha --alpha=-5/3 --z=25/2 "
          "--format json --out out", digests={
        "out/asym_check.json": "8ad1f538bf6bca975ae4837ea3ffd7fbc51411a45b39401b2b33cf7dfa7d1e28",
        "out/asym_check.manifest.json": "592018f88654d97dff73ad9a37a7c66288ee7da8385d9407cfe7fa0252e2ebd4",
    }),
    _case("asym-elog-csv", "asym-check --which elog --z 10 --out out", digests={
        "out/asym_check.csv": "8e05c6a963c6ac46faed5fa7113b113d0507bda7f9bf394e246bcc60bc322ea4",
        "out/asym_check.manifest.json": "198789536b9f21a0c4c9ba6794e51159497859cc6b2c15d4cce721e8270660a0",
    }),
    _case("asym-elog-json", "asym-check --which elog --z 10 --format json --out out", digests={
        "out/asym_check.json": "0f252e81cbf52e4569866acca88c1ee6c6180cdffab18e8f9ce30cfda4374da2",
        "out/asym_check.manifest.json": "c999e15dcb798da6203cd59640582e66e796dce9f66dc658cfc017697ff91092",
    }),
    _case("gamma-deriv-csv", "gamma-deriv --s=1/3 --order 2 --out out", digests={
        "out/gamma_deriv.csv": "3b681c720bf96c8cf2d877131145c7f70d8a877de1cea3e4b86c7fe52d78cd03",
        "out/gamma_deriv.manifest.json": "047c3fa06f05ac00f953bf096af9531aabd6ccc5ee7641eba09c0b76f81e2131",
    }),
    _case("gamma-deriv-json", "gamma-deriv --s=-5/3 --order 3 --format json "
          "--digits 20 --out out", digests={
        "out/gamma_deriv.json": "f52680134f62febbc450347497bad1a7c9ceb10e645927498ed8549092642cf1",
        "out/gamma_deriv.manifest.json": "4eec33583e02db342aa75b688a924c3fedbe8e570818bfe7809f066f95131ad1",
    }),
    _case("fit-csv", "gamma-approx --alpha=1/3 --n 40 --out seq",
          "fit --input seq/gamma_approx.csv --out out", digests={
        "seq/gamma_approx.csv": "7b0c2138c816dcca0240809f78616b4256e18d72927332e3a8c4667f825b8714",
        "seq/gamma_approx.manifest.json": "ec80daacc6af70825d7d2bb726dfd5bac430826fa589f360b99e4ef8cf515980",
        "out/fit.csv": "a426d50c45e22d9c1dfa3f929a5b8c01a8ed46d2dce6d30dd3002a6639c05ca3",
        "out/fit.manifest.json": "81edca1d5cb4b901b5be30a83412fa1fe4d71db62b14e18108cdaf77a850dd0a",
    }),
    _case("fit-json", "euler-approx --n 40 --out seq",
          "fit --input seq/euler_approx.csv --format json --out out", digests={
        "seq/euler_approx.csv": "4052afe56ed8a1eb6b201d5e775d1444ca7837e7398360500b47655bf4baa081",
        "seq/euler_approx.manifest.json": "50acf06057a91bb68d0e00b47e06eaa7c94a2a235554c1a9025ad6f04a713509",
        "out/fit.json": "712a2496b6408404ffa2a8afdc99f1eb71fd48dc6dc8f942bd0af8be5292a980",
        "out/fit.manifest.json": "9341ae5b93de41cd3bf0c4801a333d0666a7f04fddcf4bba964fe5e3e2b7351c",
    }),
    _case("replay-json", "gamma-approx --alpha=1/3 --n 20 --method closed "
          "--format json --digits 12 --out a",
          "replay a/gamma_approx.manifest.json --out b", digests={
        "a/gamma_approx.json": "c2bb04e4a1d5592c11458c9b4660ef49d2c22359a5c65338d59394a0fbea5332",
        "a/gamma_approx.manifest.json": "1306ed6e07ccf5a1f576968cd84758e5ec3a69439461b0e31506938ae8b3f980",
        "b/gamma_approx.json": "4998879abe51699e02434170568cf79991dc86a0bccd93bd21680e203c8d2263",
        "b/gamma_approx.manifest.json": "e82c556c3d987d28a1ac3bcf850fe9c69a6ce8eaed60b91dc0a209f25b5e5f0b",
    }),
    _case("replay-in-place", "asym-check --which elog --z 10 --digits 15 --out a",
          "replay a/asym_check.manifest.json", digests={
        "a/asym_check.csv": "b94074b77001446f64a76a366c88e16affcce514433e81936f8aa837caef795b",
        "a/asym_check.manifest.json": "99bbcc3422da3b7c4c3d8449e2de5446f00079d9bb1d56c7cfbb4d366e2f8583",
    }),
]


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@pytest.fixture(autouse=True)
def ambient_precision():
    # `eop` runs at mpmath's default 53 bits, not at the suite's 400, so a
    # result rounded outside its working precision shows here
    with mp.workprec(53):
        yield


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


@pytest.mark.parametrize("argvs,digests", GOLDEN)
def test_golden_artifacts(workdir, capsys, argvs, digests):
    for argv in argvs:
        assert main(argv) == EXIT_OK, argv
    printed = list(dict.fromkeys(capsys.readouterr().out.split()))
    assert printed == list(digests)
    files = sorted(str(p.relative_to(workdir)) for p in workdir.rglob("*") if p.is_file())
    assert files == sorted(digests)
    assert {path: _sha256(path) for path in printed} == digests


def _without(argv, *flags):
    """argv without each flag in flags and the value after it."""
    out = list(argv)
    for flag in flags:
        if flag in out:
            i = out.index(flag)
            del out[i:i + 2]
    return out


def _read_csv(path):
    """(rows, footer) of a CSV artifact, after checking that csv.reader returns
    exactly the comma-separated fields written, so that unquoted rows are valid CSV."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    assert list(csv.reader(lines)) == [line.split(",") for line in lines]
    footer = dict(line[2:].split(",") for line in lines if line.startswith("# "))
    return [line.split(",") for line in lines if not line.startswith("#")], footer


def _expected_rows(doc):
    """The CSV rows that a JSON artifact's fields stand for."""
    cmd, est = doc["command"], doc["estimates"]
    exact = ["n", "numerator", "denominator"]
    if cmd in ("gamma_approx", "euler_approx", "e_convergents"):
        return [exact, *([str(n), a, b] for n, a, b in doc["values"])]
    if cmd == "pade":
        at_z = [[f"{k}(z)", *est[f"{k}_at_z"].split("/")] for k in "pq" if est]
        return [exact, *([f"{k}{i}", *c] for k in "pq" for i, c in enumerate(doc[f"{k}_coeffs"])),
                *at_z]
    if cmd == "intseq":
        return [exact, *([str(k), u, v] for k, (u, v) in enumerate(zip(doc["U"], doc["V"])))]
    if cmd == "gamma_deriv":
        return [["n", "value"], *([str(k), v] for k, v in doc["values"])]
    return [["n", "value"], *sorted([k, str(v)] for k, v in est.items())]  # asym_check, fit


@pytest.mark.parametrize("argvs", [pytest.param(case.values[0], id=case.id) for case in GOLDEN])
def test_csv_and_json_artifacts_carry_the_same_values(workdir, argvs):
    # the command of each golden case (a replay's is the one it replays), run
    # after the commands before it, once per format
    *before, argv = [a for a in argvs if a[0] != "replay"]
    for prior in before:
        assert main(prior) == EXIT_OK
    argv = _without(argv, "--format", "--out")
    assert main([*argv, "--out", "c"]) == EXIT_OK
    assert main([*argv, "--format", "json", "--out", "j"]) == EXIT_OK
    name = argv[0].replace("-", "_")
    doc = json.loads(Path("j", f"{name}.json").read_text(encoding="utf-8"))
    rows, footer = _read_csv(Path("c", f"{name}.csv"))
    if doc["command"] in ("asym_check", "fit"):  # rows of estimates, which JSON sorts by key
        rows[1:] = sorted(rows[1:])
    assert rows == _expected_rows(doc)
    if doc["command"] in ("gamma_approx", "euler_approx", "intseq"):
        assert footer == {k: str(v) for k, v in doc["estimates"].items()}
    else:
        assert footer == {}


def _exit_code(argv, capsys):
    rc = main(argv)
    err = capsys.readouterr().err
    assert "Traceback" not in err
    return rc, err


@pytest.mark.parametrize("argv", [
    "asym-check --which ealpha --z 12",  # ealpha needs --alpha
    "asym-check --which elog --alpha=1/3 --z 12",  # and elog takes none
    "fit --input missing.csv",
    "gamma-approx --alpha 0.5 --n 10",  # a decimal is not an exact rational
    "gamma-approx --alpha=1/0 --n 10",
    "gamma-approx --n 10",
    "pade --n 5 --format xml",
    "frobnicate",
    "gamma-approx --alpha=1/3 --n 10 --prec -5",
    "gamma-approx --alpha=1/3 --n 10 --prec 0",
    "gamma-approx --alpha=1/3 --n 10 --prec many",
    "gamma-deriv --s=1/3 --order 1 --digits 0",
    "gamma-deriv --s=1/3 --order 1 --digits -3",
    "replay missing.json",
    "fit --input .",  # a directory
    "e-convergents --n 5 --out /dev/null",  # an existing file
    "e-convergents --n 5 --out /dev/null/x",
])
def test_usage_errors_exit_1(workdir, capsys, argv):
    rc, err = _exit_code(argv.split(), capsys)
    assert rc == EXIT_USAGE
    assert err.startswith("usage error: ")
    assert list(workdir.iterdir()) == []


@pytest.mark.parametrize("text", [
    "{not json",
    "[1, 2]",
    '{"params": {"n": 5}, "precision_bits": 64}',
    '{"command": "e_convergents", "precision_bits": 64}',
    '{"command": "e_convergents", "params": {"n": 5}}',
])
def test_replay_of_a_malformed_manifest_exits_1(workdir, capsys, text):
    (workdir / "bad.json").write_text(text, encoding="utf-8")
    rc, err = _exit_code(["replay", "bad.json", "--out", "b"], capsys)
    assert rc == EXIT_USAGE and err.startswith("usage error: ")
    assert [p.name for p in workdir.iterdir()] == ["bad.json"]


@pytest.mark.parametrize("text", [
    None,  # gamma-deriv's n,value CSV
    b"n,numerator,denominator\n0,1,x\n",
    b"n,numerator,denominator\n0,1,0\n",
    b"n,numerator\n0,1\n",
    b"n,numerator,denominator\n0,1\n",
    b"n,numerator,denominator\n0,\xff,1\n",
], ids=["n-value", "not-an-integer", "zero-denominator", "no-denominator", "short-row",
        "not-utf8"])
def test_fit_rejects_a_csv_without_numerators(workdir, capsys, text):
    if text is None:
        assert main(["gamma-deriv", "--s=1/3", "--order", "1"]) == EXIT_OK
        Path("gamma_deriv.manifest.json").unlink()
    else:
        Path("gamma_deriv.csv").write_bytes(text)
    rc, err = _exit_code(["fit", "--input", "gamma_deriv.csv"], capsys)
    assert rc == EXIT_USAGE and "n,numerator,denominator" in err
    assert [p.name for p in workdir.iterdir()] == ["gamma_deriv.csv"]


@pytest.mark.parametrize("argv", [
    "gamma-approx --alpha=2 --n 10",  # Gamma's sequence needs alpha < 1
    "asym-check --which ealpha --alpha=-1 --z 12",
    "asym-check --which elog --z 0",
    "asym-check --which elog --z=-3",
    "asym-check --which ealpha --alpha=1/3 --z=-5/2",
])
def test_domain_errors_exit_2(workdir, capsys, argv):
    rc, err = _exit_code(argv.split(), capsys)
    assert rc == EXIT_DOMAIN
    assert err.startswith("domain error: ")
    assert list(workdir.iterdir()) == []


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), complex(1, 1)])
def test_a_non_finite_point_past_the_parser_exits_2(workdir, capsys, monkeypatch, bad):
    # the parser reads exact rationals only; a value that reaches gammalab
    # through the Python API is read by numcore.exact_real, whose DomainError
    # the CLI maps to exit 2
    from eoplab import gammalab

    real = gammalab.gamma_deriv
    monkeypatch.setattr(gammalab, "gamma_deriv", lambda n, s, prec: real(n, bad, prec))
    rc, err = _exit_code(["gamma-deriv", "--s=1/3", "--order", "1"], capsys)
    assert rc == EXIT_DOMAIN
    assert "is not a real finite number" in err


def test_gamma_approx_on_the_aitken_path_finishes(workdir, capsys):
    # the limit estimate takes its Aitken path here, and each Delta^2 step
    # roughly triples the size of the exact values it works on
    argv = "gamma-approx --alpha=-29/2 --n 40 --format json --out out"
    assert _exit_code(argv.split(), capsys) == (EXIT_OK, "")
    manifest = json.loads(Path("out/gamma_approx.manifest.json").read_text())
    assert manifest["params"]["alpha"] == "-29/2"
    assert json.loads(Path("out/gamma_approx.json").read_text())["estimates"]


@pytest.mark.parametrize("argv", [
    "intseq --k 1700 --prec 32 --digits 5",
    "gamma-approx --alpha=1/3 --n 1500 --method recurrence",
    "e-convergents --n 1500",
])
def test_integers_wider_than_the_int_str_digit_limit_are_written(workdir, capsys, argv):
    assert _exit_code([*argv.split(), "--out", "out"], capsys) == (EXIT_OK, "")
    path = next(Path("out").glob("*.csv"))
    rows = [line.split(",") for line in path.read_text(encoding="utf-8").splitlines()
            if not line.startswith("#")]
    assert max(len(field) for row in rows for field in row) > 4300
    if argv.startswith("e-convergents"):
        want = [(n, Fraction(*pair)) for n, pair in enumerate(constructions.e_convergents(1500), 1)]
        assert [(int(n), Fraction(numcore._parse_int(a), numcore._parse_int(b)))
                for n, a, b in rows[1:]] == want
    if argv.startswith("gamma-approx"):
        # a long run: the limit, its decay fit and the wide fields all pinned
        assert _sha256(path) == "56dd0c333528c0c5caaffc7ea2b09cdbda39a9e935c0445027faf86d2d6ea4d6"
        json_argv = [*argv.split(), "--format", "json", "--out", "out"]
        assert _exit_code(json_argv, capsys) == (EXIT_OK, "")
        assert _sha256("out/gamma_approx.json") == (
            "cb13135b35aed51a994141190f9e8954484a4b7fb03a78e41e9817dbd630b801")
        assert _exit_code(["fit", "--input", str(path), "--out", "fit"], capsys) == (EXIT_OK, "")
        assert Path("fit/fit.csv").read_text(encoding="utf-8").startswith("n,value\nq,1.0000")


def test_wide_integer_fields_read_back():
    for x in (7**6000, -(7**6000), 10**4300, -(10**4299), 0, -1, 12):
        assert numcore._parse_int(numcore._decimal_str(x)) == x
    for bad in ("1 2" * 2000, "12-3" * 1200, "+" + "9" * 5000 + "x", "", "-"):
        with pytest.raises(ValueError):
            numcore._parse_int(bad)


@pytest.mark.parametrize("k", [855, 1000])
def test_intseq_prints_values_wider_than_the_int_str_digit_limit(workdir, capsys, k):
    # A_k is carried at about 2 log2(k!) bits (14 300 at k = 855), and printing
    # the unrounded value passed Python's int/str digit limit
    argv = f"intseq --k {k} --prec 64 --digits 10 --format json --out out"
    assert _exit_code(argv.split(), capsys) == (EXIT_OK, "")
    assert sorted(os.listdir("out")) == ["intseq.json", "intseq.manifest.json"]
    A = json.loads(Path("out/intseq.json").read_text())["A"]
    # A_k = (-1)^k I_k(2)
    assert [A[0], A[k]] == [mp.nstr(s * mp.besseli(i, 2), 10, strip_zeros=False)
                            for i, s in ((0, 1), (k, (-1) ** k))]


def test_intseq_csv_rows_are_the_coprime_pairs(workdir):
    # (U_k, V_k) = (0, 1), (1, 0), (1, 1), ... with U_k V_(k+1) - U_(k+1) V_k = +-1
    assert main("intseq --k 40 --prec 64 --out out".split()) == EXIT_OK
    rows, _ = _read_csv("out/intseq.csv")
    pairs = [(int(u), int(v)) for k, u, v in rows[1:]]
    assert [row[0] for row in rows[1:]] == [str(k) for k in range(41)]
    assert rows[2] == ["1", "1", "0"]
    assert all(abs(u * w - x * v) == 1 for (u, v), (x, w) in zip(pairs, pairs[1:]))
    # the zero denominator of row 1 is not a sequence value: fit refuses the file
    assert main("fit --input out/intseq.csv --out f".split()) == EXIT_USAGE


def test_route_disagreement_exits_2(workdir, capsys, monkeypatch):
    # the series route's D_n P_n, all zero
    monkeypatch.setitem(constructions._METHODS, "series", lambda family, D: [0] * len(D))
    rc, err = _exit_code("gamma-approx --alpha=1/3 --n 20".split(), capsys)
    assert rc == EXIT_DOMAIN
    assert err == "domain error: method disagreement in gamma_seq\n"
    assert list(workdir.iterdir()) == []


@pytest.mark.parametrize("cmd", ["gamma-approx --alpha=1/3", "euler-approx"])
def test_a_single_route_beyond_the_explicit_denominator_exits_2(workdir, capsys, monkeypatch, cmd):
    # D_n/2 from the first n past the seeds where 2 divides D_n/D_(n-1): still
    # a chain, but one that a later term's reduced denominator does not divide
    real = constructions._denominators

    def short(family, N):
        D = real(family, N)
        n0 = next(n for n in range(3, N) if D[n] // D[n - 1] % 2 == 0)
        return D[:n0] + [d // 2 for d in D[n0:]]

    monkeypatch.setattr(constructions, "_denominators", short)
    rc, err = _exit_code(f"{cmd} --n 20 --method recurrence".split(), capsys)
    assert rc == EXIT_DOMAIN
    assert err.startswith("domain error: a denominator of ")
    assert err.endswith(" does not divide D_n\n")
    assert list(workdir.iterdir()) == []


@pytest.mark.parametrize("cmd", ["gamma-approx --alpha=1/3", "gamma-approx --alpha=-7/12",
                                 "gamma-approx --alpha=5/11", "gamma-approx --alpha=-2/3",
                                 "euler-approx"])
@pytest.mark.parametrize("n", [1, 2, 3, 16, 40])
def test_every_method_writes_the_same_rows(workdir, cmd, n):
    rows = {}
    for method in ("closed", "series", "recurrence", "all"):
        out = workdir / method
        assert main(f"{cmd} --n {n} --method {method} --out {out}".split()) == EXIT_OK
        text = next(out.glob("*.csv")).read_text(encoding="utf-8")
        rows[method] = [line for line in text.splitlines() if not line.startswith("#")]
    assert rows["closed"][0] == "n,numerator,denominator" and len(rows["closed"]) == n + 1
    assert rows["closed"] == rows["series"] == rows["recurrence"] == rows["all"]


def test_csv_sequences_build_no_json_values(workdir, monkeypatch):
    def refuse(v):
        raise AssertionError("JSON values built for a CSV artifact")

    monkeypatch.setattr(exactrows, "_ratio", refuse)
    monkeypatch.setattr(exactrows, "_decimal_str", refuse)
    for argv in ("gamma-approx --alpha=1/3 --n 20", "euler-approx --n 20",
                 "e-convergents --n 5"):
        assert main(argv.split()) == EXIT_OK


def test_importing_the_cli_leaves_the_command_modules_unloaded():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import sys, eoplab.cli; print(sorted(m for m in sys.modules "
            "if m in ('eoplab.asymlab', 'eoplab.constructions', 'eoplab.gammalab')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_the_package_imports_polyq_on_first_access():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import sys, eoplab; print('eoplab.kernels' in sys.modules); "
            "from eoplab import PolyQ; from eoplab.kernels import PolyQ as P; print(PolyQ is P)")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.split() == ["False", "True"]


# Prints the eoplab modules loaded by "import eoplab.cli", then main's exit
# code on the command line given, the eoplab modules that main added and
# whether it built the full parser, then which of the modules that no numeric
# command needs are loaded.
FOOTPRINT = """
import sys
import eoplab.cli
def ours():
    return {m for m in sys.modules if m.partition(".")[0] == "eoplab"}
loaded = ours()
print(sorted(loaded))
rc = eoplab.cli.main(sys.argv[1:])
print(rc, sorted(ours() - loaded), eoplab.cli._build_parser.cache_info().currsize)
print(sorted(m for m in ("csv", "dataclasses", "eoplab.exactrows", "eoplab.holonomic",
                         "eoplab.kernels", "eoplab.series", "inspect")
             if m in sys.modules))
"""

# the modules that no numeric command (gamma-deriv, asym-check, intseq) loads
_EXACT_ONLY = ("eoplab.exactrows", "eoplab.holonomic", "eoplab.kernels", "eoplab.series")
_SEQUENCE_MODULES = ["eoplab.constructions", *_EXACT_ONLY]


@pytest.mark.parametrize("argv,added", [
    ("gamma-deriv --s=1/3 --order 2", ["eoplab.gammalab"]),
    ("asym-check --which elog --z 10", ["eoplab.asymlab", "eoplab.gammalab"]),
    ("asym-check --which ealpha --alpha=-5/3 --z 12", ["eoplab.asymlab", "eoplab.gammalab"]),
    ("intseq --k 20 --prec 128", ["eoplab.constructions"]),
    ("gamma-approx --alpha=1/3 --n 20", _SEQUENCE_MODULES),
    ("euler-approx --n 20", _SEQUENCE_MODULES),
    ("pade --n 6 --z=1/2", ["eoplab.constructions", "eoplab.exactrows", "eoplab.kernels"]),
    ("e-convergents --n 12", ["eoplab.constructions", "eoplab.exactrows"]),
    ("fit --input e_convergents.csv",
     ["eoplab.constructions", "eoplab.exactrows", "eoplab.kernels"]),
])
def test_each_command_imports_only_the_modules_it_runs(tmp_path, argv, added):
    # only fit reads CSV, so only fit loads csv
    if argv.startswith("fit"):
        assert main(["e-convergents", "--n", "40", "--out", str(tmp_path)]) == EXIT_OK
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", FOOTPRINT, *argv.split()], env=env,
                         cwd=tmp_path, capture_output=True, text=True, check=True)
    lines = out.stdout.splitlines()
    assert lines[0] == str(["eoplab", "eoplab.cli", "eoplab.numcore"])
    needed = [m for m in added if m in _EXACT_ONLY]
    if argv.startswith("fit"):
        needed.insert(0, "csv")
    # a command line that names its command builds that sub-parser alone
    assert lines[-2:] == [f"{EXIT_OK} {added} 0", str(needed)]


def test_leading_coefficient_vanishes_is_one_class():
    assert holonomic.LeadingCoefficientVanishes is numcore.LeadingCoefficientVanishes


def _golden(case_id):
    return next(case.values for case in GOLDEN if case.id == case_id)


@pytest.mark.parametrize("bad,case_id", [
    ("frobnicate", "gamma-deriv-json"),
    ("gamma-approx --n 10", "gamma-csv"),
    ("gamma-approx --alpha=1/0 --n 10", "gamma-json"),
    ("pade --n 5 --format xml", "pade-json"),
    ("intseq --k", "intseq-json"),
    ("gamma-deriv --s=1/3 --order 1 --digits 0", "gamma-deriv-csv"),
])
def test_the_parser_is_built_once_and_keeps_no_state(workdir, capsys, bad, case_id):
    assert cli._build_parser() is cli._build_parser()
    assert _exit_code(bad.split(), capsys)[0] == EXIT_USAGE
    assert list(workdir.iterdir()) == []
    argvs, digests = _golden(case_id)
    test_golden_artifacts(workdir, capsys, argvs, digests)


def _full_sub_parsers() -> dict:
    """The sub-parsers of the full parser, by command name."""
    return next(action.choices for action in cli._build_parser()._actions
                if isinstance(action, argparse._SubParsersAction))


def test_each_lazy_sub_parser_is_the_full_parsers():
    full = _full_sub_parsers()
    assert list(full) == [*(c.name for c in cli.COMMANDS), "replay"]
    for name, parser in full.items():
        lazy = cli._command_parser(name)
        assert lazy is not parser and lazy is cli._command_parser(name)
        assert lazy.format_help() == parser.format_help(), name
        assert lazy.format_usage() == parser.format_usage(), name


@pytest.mark.parametrize("argv", [
    "gamma-approx --alpha=-5/3 --n 12 --method closed --digits 12 --format json",
    "euler-approx --n 12 --prec 64 --out o",
    "pade --n 4 --z -1/2",
    "e-convergents --n 6",
    "intseq --k 8",
    "asym-check --which ealpha --alpha=1/3 --z 12",
    "gamma-deriv --s -5/3 --order 2",
    "fit --input seq.csv",
    "replay m.manifest.json --out o",
])
def test_the_lazy_parse_reads_what_the_full_parser_reads(argv):
    assert vars(cli._parse(argv.split())) == vars(cli._build_parser().parse_args(argv.split()))


@pytest.mark.parametrize("argv", [
    "gamma-approx --alpha=1/3 --n 5 --frob 1",  # a bad flag
    "gamma-approx --n 5",  # a missing required flag
    "gamma-approx --alpha=0.5 --n 5",  # a bad rational
    "euler-approx --n 5 --method fast",
    "pade --n 4 --z=1/0",
    "e-convergents --n x",
    "intseq --k 5 extra",
    "asym-check --which elog",
    "gamma-deriv --s=1/x --order 1",
    "gamma-deriv --s=1/3 --order 1 --version",
    "fit",
    "replay",
    "replay m.json --bogus",
])
def test_a_bad_command_line_fails_alike_either_way(workdir, capsys, argv):
    with pytest.raises(numcore.UsageError) as exc:
        cli._build_parser().parse_args(argv.split())
    assert _exit_code(argv.split(), capsys) == (EXIT_USAGE, f"usage error: {exc.value}\n")
    assert list(workdir.iterdir()) == []


def test_the_full_parser_answers_no_command_help_version_and_an_unknown_one(capsys):
    names = ", ".join(repr(name) for name in _full_sub_parsers())
    assert _exit_code([], capsys) == (
        EXIT_USAGE, "usage error: the following arguments are required: cmd\n")
    assert _exit_code(["frobnicate"], capsys) == (
        EXIT_USAGE, f"usage error: argument cmd: invalid choice: 'frobnicate' "
                    f"(choose from {names})\n")
    for flag, text in (("--help", cli._build_parser().format_help()), ("--version", "0.1.0\n")):
        with pytest.raises(SystemExit) as exc:
            main([flag])
        assert exc.value.code == 0
        assert capsys.readouterr().out == text


def test_vanishing_leading_coefficient_exits_2(workdir, capsys, monkeypatch):
    # leading coefficient n - 5 dies at n = 5
    broken = LinearRecurrence([PolyQ([1]), PolyQ([]), PolyQ([]), PolyQ([-5, 1])])
    monkeypatch.setattr(constructions, "gamma_coefficient_recurrence", lambda alpha: broken)
    rc, err = _exit_code("gamma-approx --alpha=1/3 --n 20 --method recurrence".split(),
                         capsys)
    assert rc == EXIT_DOMAIN
    assert err == "domain error: leading recurrence coefficient vanishes at n=5\n"
    assert list(workdir.iterdir()) == []


@pytest.mark.parametrize("separate,joined", [
    ("gamma-approx --alpha -5/3 --n 20", "gamma-approx --alpha=-5/3 --n 20"),
    ("gamma-deriv --s -5/3 --order 1", "gamma-deriv --s=-5/3 --order 1"),
    ("pade --n 7 --z -1/2", "pade --n 7 --z=-1/2"),
])
def test_negative_rational_as_a_separate_argument(workdir, separate, joined):
    assert main([*separate.split(), "--out", "a"]) == EXIT_OK
    assert main([*joined.split(), "--out", "a2"]) == EXIT_OK
    for path in sorted((workdir / "a").iterdir()):
        twin = workdir / "a2" / path.name
        assert path.read_bytes() == twin.read_bytes().replace(b"a2/", b"a/")


@pytest.mark.parametrize("argv,stem", [
    ("pade --n 7 --z=-1/2", "pade"),
    ("gamma-approx --alpha=-5/3 --n 20 --format json", "gamma_approx"),
    ("asym-check --which ealpha --alpha=-1/2 --z 11", "asym_check"),
])
def test_replay_of_a_negative_rational_manifest(workdir, argv, stem):
    assert main([*argv.split(), "--out", "a"]) == EXIT_OK
    assert main(["replay", f"a/{stem}.manifest.json", "--out", "b"]) == EXIT_OK
    first = json.loads((workdir / "a" / f"{stem}.manifest.json").read_text(encoding="utf-8"))
    again = json.loads((workdir / "b" / f"{stem}.manifest.json").read_text(encoding="utf-8"))
    assert again == {**first, "outputs": [p.replace("a/", "b/") for p in first["outputs"]]}
    for path in first["outputs"]:
        artifact = Path(path).read_bytes()
        assert artifact.replace(b"a/", b"b/") == Path(path.replace("a/", "b/")).read_bytes()


def test_fit_reads_a_sequence_csv_with_its_footer(tmp_path):
    seq_dir, fit_dir = tmp_path / "seq", tmp_path / "fit"
    assert main(["gamma-approx", "--alpha=1/3", "--n", "40", "--out", str(seq_dir)]) == EXIT_OK
    csv_path = seq_dir / "gamma_approx.csv"
    assert csv_path.read_text(encoding="utf-8").splitlines()[-1].startswith("# ")
    assert main(["fit", "--input", str(csv_path), "--out", str(fit_dir)]) == EXIT_OK
    manifest = json.loads((fit_dir / "fit.manifest.json").read_text(encoding="utf-8"))
    assert manifest["command"] == "fit"
    assert manifest["outputs"] == [str(fit_dir / "fit.csv")]
    assert (fit_dir / "fit.csv").read_text(encoding="utf-8").startswith("n,value\nq,")


HELP_FLAGS = {
    "gamma-approx": "--alpha --n --method",
    "euler-approx": "--n --method",
    "pade": "--n --z",
    "e-convergents": "--n",
    "intseq": "--k",
    "asym-check": "--which --alpha --z",
    "gamma-deriv": "--s --order",
    "fit": "--input",
}


@pytest.mark.parametrize("cmd,flags", HELP_FLAGS.items())
def test_help_lists_each_flag(capsys, cmd, flags):
    with pytest.raises(SystemExit) as exc:
        main([cmd, "--help"])
    assert exc.value.code == 0
    listed = set(re.findall(r"--[a-z-]+", capsys.readouterr().out))
    digits = {"--digits"} if cmd in DIGITS_COMMANDS else set()
    assert listed == {*flags.split(), *digits, "--format", "--prec", "--out", "--help"}


# The commands that print numeric digits; the others have no --digits.
DIGITS_COMMANDS = {"gamma-approx", "euler-approx", "intseq", "asym-check", "gamma-deriv"}


@pytest.mark.parametrize("argv", [
    "pade --n 4 --digits 12",
    "e-convergents --n 6 --digits 12",
    "fit --input missing.csv --digits 12",
])
def test_digits_is_a_usage_error_where_no_digits_are_printed(workdir, capsys, argv):
    code, err = _exit_code(argv.split(), capsys)
    assert code == EXIT_USAGE and "--digits" in err
    assert not os.listdir(".")


# The flags of one command line per subcommand: every declared flag given
# (the test adds --digits where it is declared), and the optional --z and
# --alpha both given and omitted.
GIVEN_FLAGS = [
    ("gamma-approx", {"alpha": "-5/3", "n": 12, "method": "closed"}),
    ("euler-approx", {"n": 12, "method": "recurrence"}),
    ("pade", {"n": 4, "z": "-1/2"}),
    ("pade", {"n": 4}),
    ("e-convergents", {"n": 6}),
    ("intseq", {"k": 8}),
    ("asym-check", {"which": "ealpha", "alpha": "1/3", "z": "12"}),
    ("asym-check", {"which": "elog", "z": "21/2"}),
    ("gamma-deriv", {"s": "1/3", "order": 2}),
    ("fit", {"input": "seq/gamma_approx.csv"}),
]


@pytest.mark.parametrize("cmd,given", GIVEN_FLAGS,
                         ids=[f"{cmd}:{'+'.join(given)}" for cmd, given in GIVEN_FLAGS])
def test_manifest_params_are_the_given_flags(workdir, cmd, given):
    assert {c for c, _ in GIVEN_FLAGS} == {c.name for c in cli.COMMANDS}
    assert main("gamma-approx --alpha=1/3 --n 32 --out seq".split()) == EXIT_OK
    digits = {"digits": 12} if cmd in DIGITS_COMMANDS else {}
    argv = [cmd, *(f"--{k}={v}" for k, v in {**given, **digits}.items())]
    assert main([*argv, "--format", "json", "--out", "m"]) == EXIT_OK
    name = cmd.replace("-", "_")
    manifest = json.loads(Path("m", f"{name}.manifest.json").read_text(encoding="utf-8"))
    doc = json.loads(Path("m", f"{name}.json").read_text(encoding="utf-8"))
    assert manifest["params"] == {**given, "format": "json", **digits}
    assert doc["params"] == given


# One quick command line per subcommand.
WRITE_ONCE = [
    "gamma-approx --alpha=1/3 --n 12",
    "euler-approx --n 12",
    "pade --n 4 --z=1/2",
    "e-convergents --n 6",
    "intseq --k 8",
    "asym-check --which elog --z 10",
    "gamma-deriv --s=1/3 --order 1",
    "fit --input seq/gamma_approx.csv",
]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_each_output_file_is_opened_for_writing_once(workdir, monkeypatch, fmt):
    assert main("gamma-approx --alpha=1/3 --n 32 --out seq".split()) == EXIT_OK
    opened = []
    real_open = Path.open

    def counting_open(self, mode="r", *args, **kwargs):
        if set(mode) & set("wax+"):
            opened.append(str(self))
        return real_open(self, mode, *args, **kwargs)

    monkeypatch.setattr(Path, "open", counting_open)
    for argv in WRITE_ONCE:
        opened.clear()
        assert main([*argv.split(), "--format", fmt]) == EXIT_OK, argv
        assert len(opened) == 2 and len(set(opened)) == 2, (argv, opened)
