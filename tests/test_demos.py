"""The demo scripts, run as scripts on the tier-1 corpora."""

import runpy
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

import gifield as gf

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("zeros", [True, False], ids=["all-zero", "digits"])
def test_full_sweep_demo_prints_the_report(
    tmp_path, data_dir, tiny_dict_file, monkeypatch, capsys, zeros
):
    """Demo 05 summarizes its run through ``gifield report``: one gain line per
    sampling ratio, never ``nan``, and "both exact" when every image comes back exact."""
    out = tmp_path / "gifield_demo"
    out.mkdir()
    shutil.copyfile(tiny_dict_file, out / "dictionary.gim")
    if zeros:
        gf.data.write_idx_images(out / "test.idx", np.zeros((5, 7, 7)))
    else:
        shutil.copyfile(data_dir / "tiny_test.idx", out / "test.idx")
    script = DEMOS / "05_full_sweep.py"
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "argv", [str(script), "--test", "5"])
    runpy.run_path(str(script), run_name="__main__")
    text = capsys.readouterr().out
    assert "nan" not in text
    gains = [line for line in text.splitlines() if line.startswith("SR ")]
    grid = gf.load_config(out / "sweep.ini").sr_grid
    assert len(gains) == len(grid)
    assert sorted(float(line.split()[1].rstrip(":")) for line in gains) == sorted(grid)
    if zeros:
        assert all(line.endswith("both exact") for line in gains)
