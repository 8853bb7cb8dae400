"""The demo scripts, run as scripts on the tier-1 corpora."""

import os
import runpy
import shutil
import subprocess
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


@pytest.mark.parametrize("script, printed", [
    ("03_optimize_fields.py", "successive sampling: the 20-row field is the first 20 rows"),
    ("04_measure_and_reconstruct.py", "opt+noise: PSNR"),
], ids=["03", "04"])
def test_dictionary_demos_run_on_the_desk_dictionary(data_dir, desk_dictionary_file, script,
                                                     printed):
    """Demos 03 and 04 exit 0 under ``-W error`` with ``--out`` at a directory that
    holds the desk ``dictionary.gim`` and 28 x 28 ``test.idx``."""
    assert desk_dictionary_file == data_dir / "dictionary.gim"
    src = str(Path(gf.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-W", "error", str(DEMOS / script), "--out", str(data_dir)],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert printed in proc.stdout
