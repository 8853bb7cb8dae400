"""A small pipeline whose outputs must match the committed reference.

The pipeline runs the CLI end to end: ``train-dict`` on 900 synthetic images
(K = 784, T0 = 8, 2 sweeps), then ``build-fields`` and ``run`` for two
configs on 40 test images: the desk SR grid with 3 Gaussian draws, and an
8-bit, 30 dB AWGN M grid. ``reference_run.json`` holds what it wrote: every
CSV line, and each ``.gim`` file's shape, metadata and a fingerprint of its
payload. Numbers compare at rtol 1e-9 and text exactly, so a change that only
rounds differently passes and one that moves an output fails.

A change that moves outputs on purpose rewrites the reference in the same
commit, by hand, from the root of a checkout::

    PYTHONPATH=src python tests/test_reference_run.py
"""

import json
import math
import tempfile
from pathlib import Path

import numpy as np

from gifield import Dictionary, synthdata
from gifield.cli import main
from gifield.data import read_matrix, read_matrix_meta

REFERENCE = Path(__file__).with_name("reference_run.json")
RTOL = 1e-9
# the optimized field's hash of its dictionary: a rounding-level move of the
# atoms changes it, so it is checked against the run's own dictionary, whose
# payload the fingerprint checks
_CHECKSUM = "dictionary_checksum"


def _write_config(path: Path, sections: dict) -> Path:
    path.write_text("".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
                            for name, keys in sections.items()), encoding="utf-8")
    return path


def _pipeline(root: Path) -> None:
    """Run every command of the reference pipeline, writing under ``root``."""
    train = synthdata.generate_idx(root / "train.idx", 900, seed=21)
    test = synthdata.generate_idx(root / "test.idx", 40, seed=22)
    data = {"train": train, "test": test, "train_count": 900, "train_seed": 21,
            "test_count": 40, "test_seed": 23}
    dictionary = {"path": root / "dictionary.gim", "atoms": 784, "sparsity": 8, "sweeps": 2,
                  "seed": 21}
    runs = {
        "sr": {"fields": {"gaussian_seeds": 3}},
        "m": {"fields": {"m": "8,16,39,78,120", "qbits": 8, "gaussian_seeds": 3},
              "noise": {"kind": "awgn", "snr_db": 30, "seed": 24}},
    }
    for i, (name, sections) in enumerate(runs.items()):
        config = _write_config(root / f"{name}.ini", {
            "data": data, "dictionary": dictionary, **sections, "run": {"out": root / name},
        })
        for command in (["train-dict"] if i == 0 else []) + ["build-fields", "run"]:
            if main([command, "--config", str(config)]) != 0:
                raise AssertionError(f"{command} on {name}.ini failed")


def _relative(value, root: str):
    """``value`` with ``root`` and the path separator after it cut from every string."""
    if isinstance(value, str):
        return value.replace(root + "/", "")
    if isinstance(value, list):
        return [_relative(v, root) for v in value]
    if isinstance(value, dict):
        return {k: _relative(v, root) for k, v in value.items()}
    return value


def _fingerprint(payload: np.ndarray) -> list[float]:
    """Three seeded projections ``u @ A @ v`` of a payload: a moved atom or a flipped sign shows."""
    u, v = _projections(payload.shape)
    return [float(a @ payload @ b) for a, b in zip(u, v)]


def _projections(shape) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(20)
    return rng.standard_normal((3, shape[0])), rng.standard_normal((3, shape[1]))


def _outputs(root: Path) -> dict:
    """What the pipeline under ``root`` wrote: CSV lines and ``.gim`` summaries by relative path."""
    csvs, gims = {}, {}
    for path in sorted(root.rglob("*.csv")):
        csvs[path.relative_to(root).as_posix()] = path.read_text(encoding="utf-8").splitlines()
    for path in sorted(root.rglob("*.gim")):
        payload = read_matrix(path)
        meta = _relative(read_matrix_meta(path), str(root))
        if _CHECKSUM in meta:
            meta[_CHECKSUM] = "<the checksum of dictionary.gim>"
        gims[path.relative_to(root).as_posix()] = {
            "shape": list(payload.shape), "meta": meta, "fingerprint": _fingerprint(payload),
        }
    return {"csv": csvs, "gim": gims}


def _close(got, want) -> bool:
    """Numbers within ``RTOL`` (non-finite ones equal), the rest equal."""
    if isinstance(want, list):
        return isinstance(got, list) and len(got) == len(want) and all(map(_close, got, want))
    if isinstance(want, dict):
        return isinstance(got, dict) and got.keys() == want.keys() and all(
            _close(got[k], want[k]) for k in want)
    if isinstance(want, float) and isinstance(got, (int, float)):
        return math.isclose(got, want, rel_tol=RTOL) or got == want
    return got == want


def _number(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def rewrite_reference() -> Path:
    """Run the pipeline in a temporary directory and write its outputs to ``REFERENCE``."""
    with tempfile.TemporaryDirectory() as tmp:
        _pipeline(Path(tmp))
        outputs = _outputs(Path(tmp))
    REFERENCE.write_text(json.dumps(outputs, indent=1) + "\n", encoding="utf-8")
    return REFERENCE


def test_the_pipeline_matches_its_reference(tmp_path):
    _pipeline(tmp_path)
    got = _outputs(tmp_path)
    want = json.loads(REFERENCE.read_text(encoding="utf-8"))
    assert sorted(got["csv"]) == sorted(want["csv"])
    for name, lines in want["csv"].items():
        assert len(got["csv"][name]) == len(lines), name
        for number, (new, old) in enumerate(zip(got["csv"][name], lines), start=1):
            new_cells, old_cells = [_number(c) for c in new.split(",")], [
                _number(c) for c in old.split(",")]
            assert _close(new_cells, old_cells), f"{name} line {number}: {new!r} != {old!r}"
    assert sorted(got["gim"]) == sorted(want["gim"])
    dictionary = read_matrix(tmp_path / "dictionary.gim")
    for name, entry in want["gim"].items():
        new = got["gim"][name]
        assert new["shape"] == entry["shape"], name
        assert _close(new["meta"], entry["meta"]), f"{name}: {new['meta']} != {entry['meta']}"
        payload = read_matrix(tmp_path / name)
        u, v = _projections(payload.shape)
        scale = np.linalg.norm(u, axis=1) * np.linalg.norm(payload) * np.linalg.norm(v, axis=1)
        moved = np.abs(np.subtract(new["fingerprint"], entry["fingerprint"]))
        assert (moved <= RTOL * scale).all(), f"{name}: fingerprint moved by {moved / scale}"
        if _CHECKSUM in entry["meta"]:
            checksum = read_matrix_meta(tmp_path / name)[_CHECKSUM]
            assert checksum == Dictionary(atoms=dictionary, sparsity=8).checksum, name


if __name__ == "__main__":
    print(f"wrote {rewrite_reference()}")
