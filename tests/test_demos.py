"""Every demo script runs to completion."""

import importlib.util
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("path", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(path, tmp_path, capsys):
    spec = importlib.util.spec_from_file_location(f"demo_{path.stem}", path)
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    if path.stem == "room_simulation":
        demo.main(str(tmp_path))
        assert (tmp_path / "dry.wav").is_file()
    else:
        demo.main()
    assert capsys.readouterr().out
