"""The `eop` command line: a golden artifact corpus, the exit codes, round trips."""

import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from mpmath import mp

from eoplab import cli, constructions, holonomic, numcore
from eoplab.cli import EXIT_DOMAIN, EXIT_OK, EXIT_USAGE, main
from eoplab.holonomic import LinearRecurrence
from eoplab.numcore import PolyQ


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
        "out/intseq.csv": "d7ea82a4c23f6ffb50bda5bb285faaec9c5f6960965307718759a59065ffbcbb",
        "out/intseq.manifest.json": "a09bf2e9964e22104d74eddc27f501da0a27b5afefcc0f71501154e7ef6a462c",
    }),
    _case("intseq-json", "intseq --k 16 --format json --digits 20 --out out", digests={
        "out/intseq.json": "2716dc7e387a43389957376f5a848f8b13c8476a344f62d1fab4d41a0388983e",
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
    monkeypatch.delenv("EOP_DEFAULT_PREC", raising=False)
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


def _exit_code(argv, capsys):
    rc = main(argv)
    err = capsys.readouterr().err
    assert "Traceback" not in err
    return rc, err


@pytest.mark.parametrize("argv", [
    "asym-check --which ealpha --z 12",  # ealpha needs --alpha
    "fit --input missing.csv",
    "gamma-approx --alpha 0.5 --n 10",  # a decimal is not an exact rational
    "gamma-approx --alpha=1/0 --n 10",
    "gamma-approx --n 10",
    "pade --n 5 --format xml",
    "frobnicate",
    "gamma-approx --alpha=1/3 --n 10 --prec -5",
    "gamma-approx --alpha=1/3 --n 10 --prec 0",
    "gamma-deriv --s=1/3 --order 1 --digits 0",
    "gamma-deriv --s=1/3 --order 1 --digits -3",
    "replay missing.json",
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


def test_fit_rejects_a_csv_without_numerators(workdir, capsys):
    assert main(["gamma-deriv", "--s=1/3", "--order", "1"]) == EXIT_OK
    rc, err = _exit_code(["fit", "--input", "gamma_deriv.csv"], capsys)
    assert rc == EXIT_USAGE and "n,numerator,denominator" in err


@pytest.mark.parametrize("env", ["0", "-3", "many"])
def test_bad_default_precision_is_a_usage_error(workdir, capsys, monkeypatch, env):
    monkeypatch.setenv("EOP_DEFAULT_PREC", env)
    rc, err = _exit_code(["e-convergents", "--n", "5"], capsys)
    assert rc == EXIT_USAGE and err.startswith("usage error: ")
    assert list(workdir.iterdir()) == []


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


def test_route_disagreement_exits_2(workdir, capsys, monkeypatch):
    monkeypatch.setitem(constructions._GAMMA_METHODS, "series", lambda alpha, N: [0] * N)
    rc, err = _exit_code("gamma-approx --alpha=1/3 --n 20".split(), capsys)
    assert rc == EXIT_DOMAIN
    assert err == "domain error: method disagreement in gamma_seq\n"
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

    monkeypatch.setattr(cli, "_ratio", refuse)
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


# Prints the eoplab modules loaded by "import eoplab.cli", then main's exit
# code on the command line given and the eoplab modules that main added, then
# which of the modules that no numeric command needs are loaded.
FOOTPRINT = """
import sys
import eoplab.cli
def ours():
    return {m for m in sys.modules if m.partition(".")[0] == "eoplab"}
loaded = ours()
print(sorted(loaded))
rc = eoplab.cli.main(sys.argv[1:])
print(rc, sorted(ours() - loaded))
print(sorted(m for m in ("dataclasses", "inspect", "eoplab.series", "eoplab.holonomic")
             if m in sys.modules))
"""


@pytest.mark.parametrize("argv,added", [
    ("gamma-deriv --s=1/3 --order 2", ["eoplab.gammalab"]),
    ("asym-check --which elog --z 10", ["eoplab.asymlab", "eoplab.gammalab"]),
    ("asym-check --which ealpha --alpha=-5/3 --z 12", ["eoplab.asymlab", "eoplab.gammalab"]),
    ("intseq --k 20 --prec 128", ["eoplab.constructions"]),
])
def test_each_command_imports_only_the_modules_it_runs(tmp_path, argv, added):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", FOOTPRINT, *argv.split()], env=env,
                         cwd=tmp_path, capture_output=True, text=True, check=True)
    lines = out.stdout.splitlines()
    assert lines[0] == str(["eoplab", "eoplab.cli", "eoplab.numcore"])
    assert lines[-2:] == [f"{EXIT_OK} {added}", "[]"]


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
    assert listed == {*flags.split(), "--format", "--digits", "--prec", "--out", "--help"}


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
