"""The CLI builds only the output form it prints."""

import json

import posetlab.cli as cli
from posetlab.cli import run


def test_transform_json_never_builds_text_lines(capsys, tmp_path, monkeypatch):
    fn = tmp_path / "f.json"
    fn.write_text(json.dumps({"poset": "divisibility", "values": {"1": "1", "6": "-2/3"}}))

    def refuse(*args):
        raise AssertionError("text lines built for --json output")

    monkeypatch.setattr(cli, "_function_lines", refuse)
    assert run(["transform", "--fn", str(fn), "--bound", "12", "--json"]) == 0
    values = json.loads(capsys.readouterr().out)["values"]
    assert values == {"1": "1", "2": "1", "3": "1", "4": "1", "5": "1", "6": "1/3",
                      "7": "1", "8": "1", "9": "1", "10": "1", "11": "1", "12": "1/3"}


def test_text_output_never_builds_json_payload(capsys, tmp_path, monkeypatch):
    fn = tmp_path / "f.json"
    fn.write_text(json.dumps({"poset": "divisibility", "values": {"1": "1"}}))

    def refuse(*args):
        raise AssertionError("JSON payload built for text output")

    monkeypatch.setattr(cli, "function_to_document", refuse)
    assert run(["invert-transform", "--fn", str(fn), "--bound", "4"]) == 0
    assert capsys.readouterr().out == "1 = 1\n2 = -1\n3 = -1\n"
