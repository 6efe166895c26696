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
    assert capsys.readouterr().out.splitlines() == [
        "gone.err: only in A",
        "moved.out: different: line 1: 'a' != 'b' (1 of 1 lines differ)",
        "new.err: only in B",
    ]
    assert outputs.main(["--compare", str(tmp_path / "a"), str(tmp_path / "a")]) == 0
    assert capsys.readouterr().out == ""


def _classify(tmp_path, name, text_a, text_b):
    (tmp_path / "a").mkdir(exist_ok=True)
    (tmp_path / "b").mkdir(exist_ok=True)
    (tmp_path / "a" / name).write_text(text_a)
    (tmp_path / "b" / name).write_text(text_b)
    return outputs.classify(tmp_path / "a" / name, tmp_path / "b" / name)


REPORT = {"kframe": {"is_bessel": True, "is_kframe": True, "lower_opt": 1.0},
          "rows": [{"x": 1}, {"x": 2}], "manifest": {"command": "check", "seed": 0}}


def test_a_json_tree_with_keys_removed_and_added_is_class_keys(tmp_path):
    after = json.loads(json.dumps(REPORT))
    del after["kframe"]["is_bessel"], after["manifest"]["seed"]
    after["rows"][1]["y"] = None
    assert _classify(tmp_path, "r.out", json.dumps(REPORT, indent=2), json.dumps(after)) == (
        "keys: -kframe.is_bessel +rows[1].y -manifest.seed"
    )


def test_a_json_leaf_that_differs_is_named_with_its_path_and_values(tmp_path):
    after = json.loads(json.dumps(REPORT))
    del after["manifest"]["seed"]  # a key change does not hide a leaf change
    after["kframe"]["lower_opt"] = 1  # an integer is not the float 1.0
    after["rows"][0]["x"] = 3
    assert _classify(tmp_path, "r.out", json.dumps(REPORT), json.dumps(after)) == (
        "different: leaf kframe.lower_opt: 1.0 != 1 (2 of 6 leaves differ)"
    )
    after = {**REPORT, "rows": [{"x": 1}]}
    assert _classify(tmp_path, "r.out", json.dumps(REPORT), json.dumps(after)) == (
        "different: leaf rows: [{'x': 1}, {'x': 2}] != [{'x': 1}] (1 of 6 leaves differ)"
    )
    assert _classify(tmp_path, "r.out", json.dumps(REPORT), json.dumps(REPORT, indent=1)) == (
        "different: the same leaves in other bytes"
    )


def test_a_csv_cell_that_differs_is_named_by_row_and_column(tmp_path):
    before = "kind,dim,iters\nill,4,12\nill,8,30\n"
    assert _classify(tmp_path, "b.csv", before, "kind,dim,iters\nill,4,12\nill,8,31\n") == (
        "different: cell row 3, column iters: '30' != '31' (1 of 9 cells differ)"
    )
    assert _classify(tmp_path, "b.csv", before, "kind,dim,iters\nill,4,12\n") == (
        "different: cell row 3, column kind: 'ill' != None (3 of 9 cells differ)"
    )


def test_a_text_line_that_differs_is_named_by_number(tmp_path):
    before = "tolerances: rel_eq=1e-09; seed=0\nverdict\n"
    assert _classify(tmp_path, "c.err", before, "tolerances: rel_eq=1e-09\nverdict\n") == (
        "different: line 1: 'tolerances: rel_eq=1e-09; seed=0' != 'tolerances: rel_eq=1e-09' "
        "(1 of 2 lines differ)"
    )
    assert _classify(tmp_path, "c.err", before, before + "more\n") == (
        "different: line 3: None != 'more' (1 of 3 lines differ)"
    )
    assert _classify(tmp_path, "c.err", "1\n", "1") == "different: the same lines in other bytes"


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
