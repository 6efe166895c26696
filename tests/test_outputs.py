"""``tools/outputs.py`` on fixed manifests and one real command."""

import hashlib
import importlib.util
import json
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location("outputs", _ROOT / "tools" / "outputs.py")
outputs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(outputs)


def _tree(path, files):
    path.mkdir()
    for name, text in files.items():
        (path / name).write_text(text)
    return outputs.write_manifest(path)


def test_manifest_is_sha256sum_format_and_reads_back(tmp_path):
    digests = _tree(tmp_path / "a", {"x.csv": "1,2\n", "y.out": ""})
    lines = (tmp_path / "a" / outputs.MANIFEST).read_text().splitlines()
    assert lines == [
        hashlib.sha256(b"1,2\n").hexdigest() + "  x.csv",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855  y.out",  # empty file
    ]
    assert outputs.read_manifest(tmp_path / "a") == digests


def test_compare_names_changed_and_missing_files(tmp_path, capsys):
    _tree(tmp_path / "a", {"same.csv": "1\n", "moved.out": "a\n", "gone.err": ""})
    _tree(tmp_path / "b", {"same.csv": "1\n", "moved.out": "b\n", "new.err": ""})
    assert outputs.main(["--compare", str(tmp_path / "a"), str(tmp_path / "b")]) == 1
    assert capsys.readouterr().out.splitlines() == ["gone.err", "moved.out", "new.err"]
    assert outputs.main(["--compare", str(tmp_path / "a"), str(tmp_path / "a")]) == 0
    assert capsys.readouterr().out == ""


def test_commands_read_only_files_written_before_them():
    written = set(outputs.INPUTS)
    for name, argv in outputs.COMMANDS:
        if argv[0] == "gen":
            prefix = argv[argv.index("--out-prefix") + 1]
            written |= {f"{prefix}-{part}.json" for part in ("frame", "k", "c")}
        inputs = [a for a in argv if a.endswith(".json") and argv[argv.index(a) - 1] != "--out"]
        assert set(inputs) <= written, name
        assert "--deterministic" in argv or argv[0] == "gen"


def test_write_outputs_runs_the_cli_of_a_checkout(tmp_path):
    commands = [("gen", ["gen", "--kind", "paper-c3", "--out-prefix", "c3"]),
                ("bad", ["check", "missing.json"])]
    digests = outputs.write_outputs(_ROOT, tmp_path / "run", commands)
    run = tmp_path / "run"
    assert json.loads((run / "exit_codes.json").read_text()) == {"bad": 1, "gen": 0}
    assert (run / "gen.out").read_text().startswith("wrote c3-frame.json")
    assert "missing.json" in (run / "bad.err").read_text()
    assert set(digests) == {
        "bad.err", "bad.out", "c3-c.json", "c3-frame.json", "c3-k.json", "exit_codes.json",
        "gen.err", "gen.out", *outputs.INPUTS,
    }
