"""Shared fixtures: synthetic corpora and the desk-scale trained pipeline.

The expensive artifacts (trained 784x1024 dictionary, full-grid sweep runs)
are session-scoped and lazily built, so fast unit tests stay fast. Wall-clock
costs are collected in ``timings`` for the acceptance budget checks.
"""

import logging
import struct
import time
from pathlib import Path

import numpy as np
import pytest

import gifield as gf
from gifield import data, synthdata

DESK_TRAIN = 2000
DESK_TEST = 200
DESK_GRID = "0.05,0.10,0.20,0.30,0.51"


def random_dictionary(n, k, seed):
    """Random n x k dictionary that meets the structural constraints, with budget n // 8 (at least 1)."""
    if k < n:
        raise ValueError("need at least as many atoms as pixels")
    rng = np.random.default_rng(seed)
    atoms = np.empty((n, k))
    atoms[:, 0] = n**-0.5
    for j in range(1, k):
        v = rng.standard_normal(n)
        v -= v.mean()
        atoms[:, j] = v / np.linalg.norm(v)
    return gf.Dictionary(atoms=atoms, sparsity=max(1, n // 8))


def write_payload_only(path, m):
    """A matrix file that ends at its payload, with no metadata block: a layout
    ``write_matrix`` never writes and the readers refuse."""
    m = np.asarray(m, dtype="<f8")
    Path(path).write_bytes(data.MATRIX_MAGIC + struct.pack("<QQ", *m.shape) + m.tobytes())
    return Path(path)


def write_unholdable_matrix(path, shape):
    """A dictionary file of ``shape``, one dimension 0 so the payload is empty,
    with a valid metadata block: a shape numpy cannot hold makes it corrupt."""
    meta = b'{"role": "dictionary", "sparsity": 2}'
    Path(path).write_bytes(data.MATRIX_MAGIC + struct.pack("<QQ", *shape)
                           + struct.pack("<I", len(meta)) + meta)
    return Path(path)


@pytest.fixture(scope="session")
def timings():
    return {}


@pytest.fixture(scope="session")
def data_dir(tmp_path_factory):
    """Synthetic IDX corpora: 28x28 train/test, a mean-pooled 7x7 pair and
    twenty all-zero 4x4 images."""
    root = tmp_path_factory.mktemp("corpus")
    synthdata.generate_idx(root / "train.idx", 2200, seed=0)
    synthdata.generate_idx(root / "test.idx", 300, seed=99)
    for name, count, seed in (("tiny_train.idx", 260, 7), ("tiny_test.idx", 40, 8)):
        imgs = synthdata.make_digit_images(count, seed=seed)
        pooled = imgs.reshape(count, 7, 4, 7, 4).mean(axis=(2, 4))
        data.write_idx_images(root / name, np.floor(pooled + 0.5))
    data.write_idx_images(root / "zero_train.idx", np.zeros((20, 4, 4)))
    return root


@pytest.fixture(scope="session")
def tiny_dict_file(data_dir, tmp_path_factory, timings):
    """K=64 dictionary on the pooled 7x7 corpus (the quick-start recipe)."""
    out = tmp_path_factory.mktemp("tinydict")
    cfg_path = write_run_config(
        out / "train.ini", data_dir, None, out,
        train=data_dir / "tiny_train.idx", test=data_dir / "tiny_test.idx",
        train_count=200, test_count=20, atoms=64, sparsity=4, sweeps=3,
    )
    start = time.perf_counter()
    gf.train_dictionary(gf.load_config(cfg_path), out / "dictionary.gim")
    timings["tiny_train"] = time.perf_counter() - start
    return out / "dictionary.gim"


class _Messages(logging.Handler):
    """Keeps the message of every record it handles."""

    def __init__(self):
        super().__init__(logging.DEBUG)
        self.messages = []

    def emit(self, record):
        self.messages.append(record.getMessage())


@pytest.fixture(scope="session")
def desk_training(data_dir, timings):
    """The 784x1024 dictionary trained at the desk-scale defaults: (dictionary,
    objectives, the DEBUG messages of ``gifield.dictionary`` during training)."""
    ds = gf.load_idx_images(data_dir / "train.idx")
    x = gf.random_subset(ds, DESK_TRAIN, seed=0).as_columns()
    cfg = gf.TrainingConfig(atom_count=1024, sparsity=8, sweeps=30, seed=0)
    logger = logging.getLogger("gifield.dictionary")
    handler, level = _Messages(), logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.DEBUG)
    try:
        start = time.perf_counter()
        psi, objectives = gf.ksvd_train(x, cfg)
        timings["train"] = time.perf_counter() - start
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)
    return psi, objectives, handler.messages


@pytest.fixture(scope="session")
def desk_dictionary(desk_training):
    psi, objectives, _ = desk_training
    return psi, objectives


@pytest.fixture(scope="session")
def desk_dictionary_file(desk_dictionary, data_dir):
    psi, _ = desk_dictionary
    path = data_dir / "dictionary.gim"
    gf.write_matrix(path, psi.atoms, meta={"role": "dictionary", "sparsity": psi.sparsity})
    return path


@pytest.fixture(scope="session")
def desk_state(desk_dictionary):
    psi, _ = desk_dictionary
    return gf.build_state(psi)


def write_run_config(path, data_dir, dict_path, out_dir, **overrides):
    """Write an INI run description; keyword overrides patch the field/run keys."""
    fields = {
        "sr": overrides.get("sr", DESK_GRID),
        "methods": overrides.get("methods", "optimized,gaussian"),
        "qbits": overrides.get("qbits", 0),
        "gaussian_seeds": overrides.get("gaussian_seeds", 3),
        "seed": overrides.get("field_seed", 0),
    }
    if "m" in overrides:
        fields["m"] = overrides["m"]
        del fields["sr"]
    dictionary = [f"path = {dict_path}"] if dict_path else []
    for key in ("atoms", "sparsity", "sweeps"):
        if key in overrides:
            dictionary.append(f"{key} = {overrides[key]}")
    lines = [
        "[data]",
        f"train = {overrides.get('train', data_dir / 'train.idx')}",
        f"test = {overrides.get('test', data_dir / 'test.idx')}",
        f"train_count = {overrides.get('train_count', DESK_TRAIN)}",
        f"test_count = {overrides.get('test_count', DESK_TEST)}",
        f"test_seed = {overrides.get('test_seed', 1)}",
        "",
        "[dictionary]",
        *dictionary,
        "",
        "[fields]",
        *(f"{k} = {v}" for k, v in fields.items()),
        "",
        "[run]",
        f"out = {out_dir}",
    ]
    if "t0" in overrides:
        lines.append(f"t0 = {overrides['t0']}")
    if "noise" in overrides:
        kind, snr = overrides["noise"]
        lines += ["", "[noise]", f"kind = {kind}", f"snr_db = {snr}"]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return Path(path)


@pytest.fixture(scope="session")
def desk_run(data_dir, desk_dictionary_file, tmp_path_factory, timings):
    """Full-grid unquantized sweep: (records, output dir)."""
    out = tmp_path_factory.mktemp("run_plain")
    cfg_path = write_run_config(out / "run.ini", data_dir, desk_dictionary_file, out)
    start = time.perf_counter()
    records = gf.run_experiment(gf.load_config(cfg_path))
    timings["run_plain"] = time.perf_counter() - start
    return records, out


@pytest.fixture(scope="session")
def desk_run_q8(data_dir, desk_dictionary_file, tmp_path_factory, timings):
    """Full-grid sweep with 8-bit quantized patterns."""
    out = tmp_path_factory.mktemp("run_q8")
    cfg_path = write_run_config(out / "run.ini", data_dir, desk_dictionary_file, out, qbits=8)
    start = time.perf_counter()
    records = gf.run_experiment(gf.load_config(cfg_path))
    timings["run_q8"] = time.perf_counter() - start
    return records, out
