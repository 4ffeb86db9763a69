import json

from eoplab.cli import EXIT_OK, main


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
