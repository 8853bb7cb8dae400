"""Experiment harness: config parsing, sweep outputs, and reproducibility."""

import csv
import dataclasses
import itertools
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gifield as gf
from gifield import data, harness

from conftest import random_dictionary, write_payload_only, write_run_config

# tiny sweep shared by most tests here: 6 cells on the 7x7 corpus
TINY_GRID = "0.2,0.4,0.8"


def _tiny_cfg(tmp_path, data_dir, tiny_dict_file, out_name="out", **overrides):
    out = tmp_path / out_name
    opts = dict(
        train=data_dir / "tiny_train.idx",
        test=data_dir / "tiny_test.idx",
        train_count=200,
        test_count=12,
        sr=TINY_GRID,
        gaussian_seeds=2,
    )
    opts.update(overrides)
    path = write_run_config(tmp_path / f"{out_name}.ini", data_dir, tiny_dict_file, out, **opts)
    return gf.load_config(path), out


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory, data_dir, tiny_dict_file):
    tmp = tmp_path_factory.mktemp("tinyrun")
    cfg, out = _tiny_cfg(tmp, data_dir, tiny_dict_file)
    return gf.run_experiment(cfg), out, cfg


def test_load_config_defaults(tmp_path):
    path = tmp_path / "min.ini"
    path.write_text("[data]\ntest = t.idx\n[run]\nout = o\n", encoding="utf-8")
    cfg = gf.load_config(path)
    assert cfg == gf.ExperimentConfig(
        train_path="", test_path="t.idx", train_count=2000, train_seed=0,
        test_count=200, test_seed=1,
        training=gf.TrainingConfig(atom_count=1024, sparsity=8, sweeps=30, seed=0),
        sr_grid=(0.05, 0.10, 0.20, 0.30, 0.51), m_grid=(),
        methods=("optimized", "gaussian"), qbits=0,
        noise=gf.NoiseModel(kind="none", snr_db=None, seed=0),
        out_dir="o", gaussian_seeds=3, field_seed=0, recon_sparsity=None,
        dictionary_path="",
    )
    # an empty value takes the default for string, list and optional keys ...
    empty = tmp_path / "empty.ini"
    empty.write_text(
        "[data]\ntrain =\ntest = t.idx\n[dictionary]\npath =\n"
        "[fields]\nsr =\nm =\nmethods = ,\n[noise]\nkind =\nsnr_db =\n"
        "[run]\nout = o\nt0 =\n",
        encoding="utf-8",
    )
    assert gf.load_config(empty) == cfg
    # ... and is an error for integer keys
    bad = tmp_path / "bad.ini"
    bad.write_text("[data]\ntest = t.idx\ntrain_count =\n[run]\nout = o\n", encoding="utf-8")
    with pytest.raises(gf.ValidationError, match="config value error"):
        gf.load_config(bad)


def test_load_config_inline_comments(tmp_path):
    path = tmp_path / "c.ini"
    path.write_text(
        "[data]\ntest = t.idx\n[fields]\nqbits = 8  # DMD depth\n[run]\nout = o\n",
        encoding="utf-8",
    )
    assert gf.load_config(path).qbits == 8


def test_load_config_errors(tmp_path):
    with pytest.raises(gf.ValidationError):
        gf.load_config(tmp_path / "missing.ini")
    bad = tmp_path / "bad.ini"
    bad.write_text("[fields]\nqbits = soon\n", encoding="utf-8")
    with pytest.raises(gf.ValidationError):
        gf.load_config(bad)
    zero_t0 = tmp_path / "t0.ini"
    zero_t0.write_text("[data]\ntest = t.idx\n[run]\nout = o\nt0 = 0\n", encoding="utf-8")
    with pytest.raises(gf.ValidationError, match="config value error: run.t0 must be >= 1"):
        gf.load_config(zero_t0)


@pytest.mark.parametrize("out", ["runs/100%done", "runs/100%%done", "runs/%(x)s"])
def test_load_config_reads_values_as_written(tmp_path, out):
    path = tmp_path / "c.ini"
    path.write_text(f"[data]\ntest = t.idx\n[run]\nout = {out}\n", encoding="utf-8")
    assert gf.load_config(path).out_dir == out


@pytest.mark.parametrize("snr", ["nan", "inf", "-inf"])
def test_load_config_rejects_a_non_finite_snr(tmp_path, snr):
    path = tmp_path / "c.ini"
    path.write_text(
        f"[data]\ntest = t.idx\n[noise]\nkind = awgn\nsnr_db = {snr}\n[run]\nout = o\n",
        encoding="utf-8",
    )
    with pytest.raises(gf.ValidationError, match="finite target SNR"):
        gf.load_config(path)


def test_load_config_rejects_an_snr_without_awgn(tmp_path):
    path = tmp_path / "c.ini"
    path.write_text(
        "[data]\ntest = t.idx\n[noise]\nkind = none\nsnr_db = 10\n[run]\nout = o\n",
        encoding="utf-8",
    )
    with pytest.raises(gf.ValidationError, match="needs kind 'awgn'"):
        gf.load_config(path)


@pytest.mark.parametrize(
    "text, named",
    [
        ("[data]\ntest = t.idx\n[feilds]\nsr = 0.1\n[run]\nout = o\n", "[feilds]"),
        ("[data]\ntest = t.idx\ntest_cuont = 5\n[run]\nout = o\n", "data.test_cuont"),
        ("[DEFAULT]\nseed = 1\n[data]\ntest = t.idx\n[run]\nout = o\n", "[DEFAULT] seed"),
        ("[data]\ntest = t.idx\n[dictionary]\nreplacement = worst\n[run]\nout = o\n",
         "dictionary.replacement"),
    ],
    ids=["section", "key", "default", "retired-key"],
)
def test_load_config_rejects_unknown_names(tmp_path, text, named):
    path = tmp_path / "typo.ini"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(gf.ValidationError, match=re.escape(named)):
        gf.load_config(path)


def test_load_config_rejects_a_file_that_is_not_utf8(tmp_path):
    path = tmp_path / "c.ini"
    path.write_bytes(b"[data]\ntest = t.idx\n[run]\nout = o\n\xff\n")
    with pytest.raises(gf.ValidationError, match=re.escape(f"{path} is not UTF-8")):
        gf.load_config(path)


@pytest.mark.parametrize(
    "section, key",
    [("data", "train_seed"), ("data", "test_seed"), ("dictionary", "seed"),
     ("fields", "seed"), ("noise", "seed")],
)
def test_load_config_rejects_a_negative_seed(tmp_path, section, key):
    path = tmp_path / "c.ini"
    path.write_text(f"[{section}]\n{key} = -5\n", encoding="utf-8")
    with pytest.raises(gf.ValidationError, match=rf"{section}\.{key}: seed -5 must be >= 0"):
        gf.load_config(path)
    path.write_text(f"[{section}]\n{key} = 0\n", encoding="utf-8")
    gf.load_config(path)


def test_repeated_method_rejected_before_any_output(tmp_path, data_dir, tiny_dict_file):
    with pytest.raises(gf.ValidationError, match="fields.methods names 'optimized' more than once"):
        _tiny_cfg(tmp_path, data_dir, tiny_dict_file, methods="optimized,optimized")
    assert [p.name for p in tmp_path.iterdir()] == ["out.ini"]


def test_a_config_built_by_hand_checks_itself(tmp_path):
    """The rules hold for any ExperimentConfig, not only one load_config makes;
    they raise a plain ValueError naming the key, which load_config types."""
    path = tmp_path / "c.ini"
    path.write_text("[fields]\nm = 10\n", encoding="utf-8")
    cfg = gf.load_config(path)
    for change, key in (({"methods": ("fourier",)}, "fields.methods"),
                        ({"methods": ()}, "fields.methods must name at least one method"),
                        ({"qbits": 17}, "fields.qbits"),
                        ({"sr_grid": (0.5,)}, "fields.sr and fields.m"),
                        ({"train_seed": -1}, "data.train_seed: seed -1"),
                        ({"test_seed": -4}, "data.test_seed: seed -4"),
                        ({"field_seed": -7}, "fields.seed: seed -7")):
        with pytest.raises(ValueError, match=re.escape(key)) as caught:
            dataclasses.replace(cfg, **change)
        assert type(caught.value) is ValueError
    # the sub-configs name their own field
    for make, seed in ((lambda: dataclasses.replace(cfg.training, seed=-3), -3),
                       (lambda: gf.NoiseModel(kind="awgn", snr_db=30, seed=-2), -2)):
        with pytest.raises(ValueError, match=f"^seed {seed} must be >= 0$") as caught:
            make()
        assert type(caught.value) is ValueError


def test_a_negative_seed_built_by_hand_keeps_the_finished_run(tmp_path, data_dir, tiny_dict_file):
    """A config built by hand with a negative seed is refused when made, so an
    earlier run in ``run.out`` keeps every byte, ``_DONE`` included."""
    cfg, out = _tiny_cfg(tmp_path, data_dir, tiny_dict_file, sr="0.4", test_count=4)
    gf.run_experiment(cfg)
    finished = {path.name: path.read_bytes() for path in out.iterdir()}
    assert harness.DONE_MARKER in finished
    for change in (lambda: {"noise": gf.NoiseModel(kind="awgn", snr_db=30, seed=-2)},
                   lambda: {"field_seed": -7}):
        with pytest.raises(ValueError, match="must be >= 0"):
            gf.run_experiment(dataclasses.replace(cfg, **change()))
        assert {path.name: path.read_bytes() for path in out.iterdir()} == finished


_CONFIG_TEXT = st.text(max_size=10)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(entries=st.lists(st.tuples(
    st.sampled_from(sorted({section for section, _ in harness._CONFIG_TABLE})) | _CONFIG_TEXT,
    st.sampled_from(sorted({key for _, key in harness._CONFIG_TABLE})) | _CONFIG_TEXT,
    st.sampled_from(["", "0", "-1", "3", "0.2", "nan", "1e999", "optimized,gaussian", "awgn"])
    | _CONFIG_TEXT,
), max_size=6), tail=st.binary(max_size=4))
def test_any_config_text_loads_or_raises_validation_error(entries, tail):
    """Random sections, keys and values, and random bytes after them, either
    make a valid config or raise ``ValidationError``, never anything else."""
    sections = {"data": {"test": "t.idx"}, "run": {"out": "o"}}
    for section, key, value in entries:
        sections.setdefault(section, {})[key] = value
    text = "".join(
        f"[{section}]\n" + "".join(f"{key} = {value}\n" for key, value in keys.items())
        for section, keys in sections.items()
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.ini"
        path.write_bytes(text.encode("utf-8") + tail)
        try:
            gf.load_config(path)
        except gf.ValidationError:
            pass


def test_readme_config_loads(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"```ini\n(.*?)```", readme, re.DOTALL).group(1)
    path = tmp_path / "run.ini"
    path.write_text(block, encoding="utf-8")
    cfg = gf.load_config(path)
    assert cfg.dictionary_path == "out/dictionary.gim" and cfg.qbits == 0
    assert cfg.training.sweeps == 30 and cfg.gaussian_seeds == 3


def _readme_key_rows():
    """The README's config key table as (section, key, default cell) rows, in order."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    lines = readme.splitlines()
    start = lines.index("| Section | Key | Default | Meaning |") + 2
    return [tuple(cell.strip().strip("`") for cell in line.split("|")[1:4])
            for line in itertools.takewhile(lambda text: text.startswith("|"), lines[start:])]


def test_readme_key_table_matches_the_config_table(tmp_path):
    """The README lists every config key once, with the default load_config uses."""
    rows = {}
    for section, key, default in _readme_key_rows():
        assert (section, key) not in rows, f"{section}.{key} listed twice"
        rows[section, key] = default
    assert set(rows) == set(harness._CONFIG_TABLE)
    (tmp_path / "none.ini").write_text("", encoding="utf-8")
    defaults = gf.load_config(tmp_path / "none.ini")
    for (section, key), default in rows.items():
        path = tmp_path / f"{section}.{key}.ini"
        path.write_text(f"[{section}]\n{key} = {default}\n", encoding="utf-8")
        assert gf.load_config(path) == defaults, f"README default of {section}.{key}"


def test_readme_key_table_shows_each_default_as_written_in_table_order(tmp_path):
    """The README's rows follow ``_CONFIG_TABLE`` key for key, and each default
    cell is that key's default as a config value: empty for ``""``, ``None`` and
    an empty list, and for ``fields.sr`` the desk grid that ``load_config`` fills
    in, each ratio with two decimals."""

    def written(value):
        if isinstance(value, tuple):
            return ",".join(map(written, value))
        if isinstance(value, float):
            return f"{value:.2f}"
        return "" if value is None else str(value)

    rows = _readme_key_rows()
    defaults = {key: default for key, (_, _, default) in harness._CONFIG_TABLE.items()}
    (tmp_path / "none.ini").write_text("", encoding="utf-8")
    defaults["fields", "sr"] = gf.load_config(tmp_path / "none.ini").sr_grid
    assert [(section, key) for section, key, _ in rows] == list(harness._CONFIG_TABLE)
    assert [cell for _, _, cell in rows] == [written(value) for value in defaults.values()]


@pytest.mark.parametrize(
    "meta",
    [*({"sparsity": value} for value in (0, -2, 2.7, "x", None, [3], True)),
     None, {"role": "dictionary"}],
    ids=["zero", "negative", "fraction", "text", "null", "list", "bool", "no_block", "no_key"],
)
def test_load_dictionary_rejects_bad_sparsity_metadata(tmp_path, meta):
    """The training budget comes from the file alone: without one it is corrupt."""
    path = tmp_path / "d.gim"
    atoms = random_dictionary(16, 32, 0).atoms
    if meta is None:
        write_payload_only(path, atoms)
    else:
        gf.write_matrix(path, atoms, meta=meta)
    with pytest.raises(gf.CorruptionError, match=re.escape(str(path))):
        gf.load_dictionary(path)


@pytest.mark.parametrize("t0", [None, 1])
def test_run_t0_sets_the_coding_budget(tmp_path, data_dir, tiny_dict_file, monkeypatch, t0):
    """Every cell codes with run.t0 when it is set, else with the dictionary
    file's own budget (4 here), not dictionary.sparsity (2)."""
    coder, budgets = harness.sparse_code_columns, []

    def recording(atoms, x, t0):
        budgets.append(t0)
        return coder(atoms, x, t0)

    monkeypatch.setattr(harness, "sparse_code_columns", recording)
    overrides = {} if t0 is None else {"t0": t0}
    cfg, _ = _tiny_cfg(tmp_path, data_dir, tiny_dict_file, sparsity=2, **overrides)
    records = gf.run_experiment(cfg)
    # one call per cell and field variant: 3 grid points x (1 optimized + 2 Gaussian)
    assert len(records) == 6
    assert budgets == [4 if t0 is None else t0] * 9


def test_one_coherence_call_per_field_variant(tmp_path, data_dir, tiny_dict_file, monkeypatch):
    """All of a variant's cells share one coherence call over its row
    prefixes, and each cell gets its own M's value back from an m grid
    given in descending order."""
    coherence, calls = harness.mutual_coherence, []

    def counting(d, prefixes=None):
        calls.append(list(prefixes))
        return coherence(d, prefixes)

    monkeypatch.setattr(harness, "mutual_coherence", counting)
    cfg, _ = _tiny_cfg(tmp_path, data_dir, tiny_dict_file, m="39,20,10")
    records = gf.run_experiment(cfg)
    # 1 optimized + 2 Gaussian variants, each with the whole grid in its order
    assert calls == [[39, 20, 10]] * 3

    psi = gf.load_dictionary(tiny_dict_file)
    field_cfg, _ = _tiny_cfg(tmp_path, data_dir, tiny_dict_file, out_name="fields", m="39,20,10")
    fields = {}
    for path in harness.write_fields(field_cfg):
        fields.setdefault(gf.read_matrix_meta(path)["provenance"], []).append(gf.read_matrix(path))
    assert [(r.method, r.m) for r in records] == [(k, m) for k in fields for m in (39, 20, 10)]
    for r in records:
        expected = float(np.mean([coherence(phi[: r.m] @ psi.atoms) for phi in fields[r.method]]))
        assert r.mu == pytest.approx(expected, rel=1e-12, abs=0)
    # the three cells of a method differ, so a value put on the wrong cell shows
    assert len({r.mu for r in records[:3]}) == 3


def test_train_dictionary_persists_objectives(tmp_path, data_dir):
    path = write_run_config(
        tmp_path / "train.ini", data_dir, None, tmp_path,
        train=data_dir / "tiny_train.idx", test=data_dir / "tiny_test.idx",
        train_count=60, atoms=49, sparsity=3, sweeps=4,
    )
    cfg = gf.load_config(path)
    gf.train_dictionary(cfg, tmp_path / "d.gim")
    meta = gf.read_matrix_meta(tmp_path / "d.gim")
    x = gf.random_subset(
        gf.load_idx_images(data_dir / "tiny_train.idx"), 60, cfg.train_seed
    ).as_columns()
    _, objectives = gf.ksvd_train(x, cfg.training)
    assert meta["objectives"] == objectives.tolist()


def test_both_grids_rejected(tmp_path):
    path = tmp_path / "both.ini"
    path.write_text(
        "[data]\ntest = t.idx\n[fields]\nsr = 0.1\nm = 20\n[run]\nout = o\n",
        encoding="utf-8",
    )
    with pytest.raises(gf.ValidationError, match="fields.sr and fields.m"):
        gf.load_config(path)


@pytest.mark.parametrize(
    "patch",
    [
        {"methods": "optimized,fourier"},
        {"qbits": 17},
        {"gaussian_seeds": 0},
        {"sr": "0.0,0.5"},
        {"sr": "1.5"},
        {"m": "0"},
        {"test_count": 0},
    ],
)
def test_validate_rejects(tmp_path, data_dir, patch):
    """load_config refuses a bad value, naming its key."""
    (name,) = patch
    key = "data.test_count" if name == "test_count" else f"fields.{name}"
    path = write_run_config(tmp_path / "v.ini", data_dir, "dict.gim", tmp_path, **patch)
    with pytest.raises(gf.ValidationError, match=re.escape(key)):
        gf.load_config(path)


@pytest.mark.parametrize(
    "grid",
    [{"sr": "0.2,0.21"}, {"m": "10,20,10"}],  # 0.2 and 0.21 of 49 pixels both give M=10
    ids=["sr-rounding", "repeated-m"],
)
def test_duplicate_m_rejected(tmp_path, data_dir, tiny_dict_file, grid):
    cfg, out = _tiny_cfg(tmp_path, data_dir, tiny_dict_file, **grid)
    with pytest.raises(gf.ValidationError, match="M=10"):
        gf.run_experiment(cfg)
    assert not (out / "results.csv").exists()


def test_awgn_grid_with_one_pattern_rejected(tmp_path, data_dir, tiny_dict_file):
    """One reading has no spread to scale noise to: refused before any output."""
    cfg, out = _tiny_cfg(tmp_path, data_dir, tiny_dict_file, m="10,1", noise=("awgn", 30.0))
    with pytest.raises(gf.ValidationError, match="M=1"):
        gf.run_experiment(cfg)
    with pytest.raises(gf.ValidationError, match="M=1"):
        harness.write_fields(cfg)
    assert not out.exists()
    noiseless, _ = _tiny_cfg(tmp_path, data_dir, tiny_dict_file, out_name="clean", m="10,1")
    assert [r.m for r in gf.run_experiment(noiseless)] == [10, 1, 10, 1]


def _recorded_measure(monkeypatch):
    """Wrap ``harness.measure``; return the list its (field, noise) arguments go to."""
    measure, calls = harness.measure, []

    def recording(phi, x, noise):
        calls.append((phi, noise))
        return measure(phi, x, noise)

    monkeypatch.setattr(harness, "measure", recording)
    return calls


def test_noise_seeds_never_collide(tmp_path, data_dir, tiny_dict_file, monkeypatch):
    """A variant's noise is keyed by its method and field seed, nothing else."""
    base = gf.NoiseModel(kind="awgn", snr_db=20.0, seed=5)
    variants = [("optimized", None)] + [("gaussian", s) for s in range(8000)]
    seeds = {harness._noise_for(base, *v).seed for v in variants}
    assert len(seeds) == len(variants)
    assert base.seed not in seeds
    # another base seed gives another family of variant seeds
    other = gf.NoiseModel("awgn", 20.0, seed=6)
    assert not {harness._noise_for(other, *v).seed for v in variants} & seeds
    model = harness._noise_for(base, "gaussian", 3)
    assert model == harness._noise_for(base, "gaussian", 3)
    assert model.kind == "awgn" and model.snr_db == 20.0
    assert harness._noise_for(gf.NoiseModel(), "gaussian", 1) == gf.NoiseModel()
    # Gaussian draw 3 measures with one noise model whether fields.seed is 0 or 3
    calls = _recorded_measure(monkeypatch)
    for first, count in ((0, 4), (3, 1)):
        cfg, _ = _tiny_cfg(tmp_path, data_dir, tiny_dict_file, out_name=f"first{first}",
                           sr="0.4", methods="gaussian", gaussian_seeds=count,
                           field_seed=first, noise=("awgn", 30.0))
        gf.run_experiment(cfg)
    assert len(calls) == 5
    (phi, noise), (alone_phi, alone_noise) = calls[3], calls[4]
    np.testing.assert_array_equal(phi, alone_phi)
    assert noise == alone_noise
    assert len({noise.seed for _, noise in calls[:4]}) == 4


def test_every_field_variant_measures_with_its_own_noise_seed(
    tmp_path, data_dir, tiny_dict_file, monkeypatch
):
    """In an AWGN run, all cells of a variant share one noise seed, and no
    two variants (the optimized field among them) share one."""
    calls = _recorded_measure(monkeypatch)
    cfg, _ = _tiny_cfg(tmp_path, data_dir, tiny_dict_file, noise=("awgn", 30.0))
    gf.run_experiment(cfg)
    # variant-major: optimized, then Gaussian draws 0 and 1, each over 3 cells
    seeds = [noise.seed for _, noise in calls]
    per_variant = [set(seeds[i: i + 3]) for i in range(0, 9, 3)]
    assert len(seeds) == 9 and all(len(one) == 1 for one in per_variant)
    assert len(set.union(*per_variant)) == 3
    assert cfg.noise.seed not in seeds


def test_tiny_run_outputs(tiny_run):
    records, out, cfg = tiny_run
    assert len(records) == 6  # 2 methods x 3 grid points
    # method-major, grid order preserved
    assert [r.method for r in records] == ["optimized"] * 3 + ["gaussian"] * 3
    assert [r.m for r in records[:3]] == [10, 20, 39]  # round(sr * 49)
    for r in records:
        assert 0.0 < r.mu <= 1.0
        assert r.mse.shape == r.psnr.shape == r.ssim.shape == (12,)
        assert np.isfinite(r.report.ssim_mean)
    assert (out / harness.DONE_MARKER).exists()

    results = (out / "results.csv").read_text(encoding="utf-8").splitlines()
    assert results[0] == "method,sr,M,qbits,psnr_mean,psnr_std,ssim_mean,ssim_std,mu,n_exact"
    assert len(results) == 7
    per_image = (out / "per_image.csv").read_text(encoding="utf-8").splitlines()
    assert per_image[0] == "method,sr,M,qbits,image,mse,psnr,ssim"
    assert len(per_image) == 1 + 6 * 12
    for method in ("optimized", "gaussian"):
        for metric in ("psnr", "ssim"):
            curve = (out / f"curve_{method}_{metric}.csv").read_text(encoding="utf-8")
            lines = curve.splitlines()
            assert lines[0] == f"sr,{metric}_mean"
            srs = [float(line.split(",")[0]) for line in lines[1:]]
            assert srs == sorted(srs) == [0.2, 0.4, 0.8]


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def test_results_csv_matches_records(tiny_run):
    """Every column of both tables holds what the record gives it, in its own place."""
    records, out, _ = tiny_run
    rows = _read_csv(out / "results.csv")
    assert len(rows) == len(records)
    for record, row in zip(records, rows):
        assert row["method"] == record.method
        assert float(row["sr"]) == record.sr
        assert int(row["M"]) == record.m
        assert int(row["qbits"]) == record.qbits
        assert float(row["psnr_mean"]) == record.report.psnr_mean
        assert float(row["psnr_std"]) == record.report.psnr_std
        assert float(row["ssim_mean"]) == record.report.ssim_mean
        assert float(row["ssim_std"]) == record.report.ssim_std
        assert float(row["mu"]) == record.mu
        assert int(row["n_exact"]) == record.n_exact
    per_image = _read_csv(out / "per_image.csv")
    assert len(per_image) == sum(len(r.mse) for r in records)
    cells = [(r, i) for r in records for i in range(len(r.mse))]
    for (record, i), row in zip(cells, per_image):
        assert (row["method"], float(row["sr"])) == (record.method, record.sr)
        assert (int(row["M"]), int(row["qbits"]), int(row["image"])) == (record.m, record.qbits, i)
        assert float(row["mse"]) == record.mse[i]
        assert float(row["psnr"]) == record.psnr[i]
        assert float(row["ssim"]) == record.ssim[i]


def test_an_all_zero_image_is_exact_and_left_out_of_psnr_mean(
    tmp_path, data_dir, tiny_dict_file
):
    """Under AWGN an all-zero test image reads zeros, so every field reconstructs it
    exactly: it counts once per field variant in ``n_exact``, its ``per_image.csv``
    psnr is inf, and ``psnr_mean`` is the mean over the other images."""
    images = gf.load_idx_images(data_dir / "tiny_test.idx").images[:12].reshape(12, 7, 7)
    images = np.where(np.arange(12)[:, None, None] == 5, 0.0, images)
    data.write_idx_images(tmp_path / "one_zero.idx", images)
    cfg, out = _tiny_cfg(tmp_path, data_dir, tiny_dict_file, test=tmp_path / "one_zero.idx",
                         noise=("awgn", 30.0), gaussian_seeds=3)
    subset = gf.random_subset(gf.load_idx_images(cfg.test_path), 12, cfg.test_seed).images
    (zero,) = np.flatnonzero(~subset.any(axis=1))
    records = gf.run_experiment(cfg)
    assert [r.n_exact for r in records] == [1] * 3 + [3] * 3  # 1 optimized field, 3 draws
    assert [int(row["n_exact"]) for row in _read_csv(out / "results.csv")] == [1] * 3 + [3] * 3
    per_image = _read_csv(out / "per_image.csv")
    assert [row["psnr"] for row in per_image if int(row["image"]) == zero] == ["inf"] * 6
    for r in records:
        assert r.psnr[zero] == np.inf
        assert r.report.psnr_mean == np.mean(np.delete(r.psnr, zero))


def test_quality_improves_with_sr(tiny_run):
    records, _, _ = tiny_run
    optimized = records[:3]
    assert optimized[0].report.ssim_mean < optimized[-1].report.ssim_mean


def test_full_rank_constant_image_is_recovered(tmp_path, data_dir, tiny_dict_file):
    """At M = rank, an image the dictionary represents exactly comes back >= 40 dB."""
    flat = np.full((1, 7, 7), 128.0)
    data.write_idx_images(tmp_path / "flat.idx", flat)
    psi = gf.load_dictionary(tiny_dict_file)
    rank = gf.build_state(psi).rank
    cfg, _ = _tiny_cfg(
        tmp_path, data_dir, tiny_dict_file,
        test=tmp_path / "flat.idx", test_count=1, m=str(rank), methods="optimized",
    )
    (record,) = gf.run_experiment(cfg)
    assert record.report.psnr_mean >= 40.0


def test_m_grid_beyond_rank_rejected(tmp_path, data_dir, tiny_dict_file):
    cfg, _ = _tiny_cfg(tmp_path, data_dir, tiny_dict_file, m="200")
    with pytest.raises(gf.ValidationError):
        gf.run_experiment(cfg)


def test_pixel_count_mismatch_rejected(tmp_path, data_dir, tiny_dict_file):
    # 28x28 test images against the 7x7 dictionary
    cfg, _ = _tiny_cfg(tmp_path, data_dir, tiny_dict_file, test=data_dir / "test.idx")
    with pytest.raises(gf.ValidationError):
        gf.run_experiment(cfg)


def test_missing_dictionary_file_rejected(tmp_path, data_dir):
    cfg, _ = _tiny_cfg(tmp_path, data_dir, tmp_path / "nope.gim")
    with pytest.raises(gf.ValidationError):
        gf.run_experiment(cfg)


def test_missing_test_dataset_rejected(tmp_path, data_dir, tiny_dict_file):
    """The dictionary loads first, so it is a valid one here."""
    cfg, out = _tiny_cfg(tmp_path, data_dir, tiny_dict_file, test=tmp_path / "nope.idx")
    with pytest.raises(gf.ValidationError, match="test dataset not found"):
        gf.run_experiment(cfg)
    assert not out.exists()


def test_train_dictionary_requires_train_path(tmp_path, data_dir, tiny_dict_file):
    cfg, _ = _tiny_cfg(tmp_path, data_dir, tiny_dict_file, train="")
    with pytest.raises(gf.ValidationError):
        gf.train_dictionary(cfg, tmp_path / "d.gim")


def test_train_dictionary_refuses_an_output_under_a_file_before_training(
    tmp_path, data_dir, tiny_dict_file, monkeypatch
):
    blocker = tmp_path / "blocker"
    blocker.touch()

    def no_training(*args):
        raise AssertionError("trained before checking where the dictionary goes")

    monkeypatch.setattr(harness, "ksvd_train", no_training)
    cfg, _ = _tiny_cfg(tmp_path, data_dir, tiny_dict_file, atoms=49)
    with pytest.raises(gf.ValidationError, match="dictionary.path"):
        gf.train_dictionary(cfg, blocker / "d.gim")
    assert blocker.read_bytes() == b""


def test_an_interrupted_training_leaves_no_directory(tmp_path, data_dir, tiny_dict_file,
                                                     monkeypatch):
    """The dictionary's directory is made with its file, so a training that
    fails leaves nothing at ``dictionary.path``, not even the directory."""
    def interrupted(*args):
        raise RuntimeError("interrupted")

    monkeypatch.setattr(harness, "ksvd_train", interrupted)
    cfg, _ = _tiny_cfg(tmp_path, data_dir, tiny_dict_file, atoms=49)
    with pytest.raises(RuntimeError, match="interrupted"):
        gf.train_dictionary(cfg, tmp_path / "dict" / "d.gim")
    assert [path.name for path in tmp_path.iterdir()] == ["out.ini"]


@pytest.mark.parametrize("out_path", ["", None, "made"], ids=["empty", "none", "directory"])
def test_train_dictionary_refuses_no_destination_before_reading(
    tmp_path, data_dir, tiny_dict_file, monkeypatch, out_path
):
    def no_reading(*args):
        raise AssertionError("read the training images before checking the destination")

    monkeypatch.setattr(harness, "load_idx_images", no_reading)
    monkeypatch.chdir(tmp_path)
    made = [tmp_path / "made"] if out_path == "made" else []
    for directory in made:
        directory.mkdir()
    cfg, _ = _tiny_cfg(tmp_path, data_dir, tiny_dict_file)
    with pytest.raises(gf.ValidationError, match="dictionary.path"):
        gf.train_dictionary(cfg, out_path)
    assert sorted(tmp_path.rglob("*")) == sorted([tmp_path / "out.ini", *made])


def test_a_grid_and_its_reverse_give_the_same_rows(tmp_path, data_dir, tiny_dict_file):
    """Each variant's cells come back in the grid's own order, so the rows of
    ``results.csv`` and ``per_image.csv`` match."""
    def rows(path):
        with open(path, newline="", encoding="utf-8") as fh:
            return sorted(tuple(row.values()) for row in csv.DictReader(fh))

    outs = []
    for name, grid in (("up", "8,16,40"), ("down", "40,16,8")):
        cfg, out = _tiny_cfg(tmp_path, data_dir, tiny_dict_file, out_name=name, m=grid,
                             test_count=6)
        gf.run_experiment(cfg)
        outs.append(out)
    up, down = outs
    for name in ("results.csv", "per_image.csv"):
        assert rows(up / name) == rows(down / name)
    assert len(rows(up / "results.csv")) == 6


def test_awgn_run_hurts_quality_and_stays_deterministic(tmp_path, data_dir, tiny_dict_file):
    kwargs = dict(sr="0.4", test_count=6, methods="optimized", gaussian_seeds=1)
    cfg_clean, _ = _tiny_cfg(tmp_path, data_dir, tiny_dict_file, out_name="clean", **kwargs)
    (clean,) = gf.run_experiment(cfg_clean)
    noisy_runs = []
    for name in ("noisy1", "noisy2"):
        cfg, out = _tiny_cfg(
            tmp_path, data_dir, tiny_dict_file, out_name=name, noise=("awgn", 20.0), **kwargs
        )
        (rec,) = gf.run_experiment(cfg)
        noisy_runs.append((rec, out))
    assert noisy_runs[0][0].report.psnr_mean < clean.report.psnr_mean
    (_, first), (_, second) = noisy_runs
    names = ["results.csv", "per_image.csv", *sorted(p.name for p in first.glob("curve_*.csv"))]
    assert len(names) == 4
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes(), name


def test_stale_done_marker_removed(tmp_path, data_dir, tiny_dict_file, monkeypatch):
    """A rerun into a finished ``run.out`` that fails in its sweep leaves the
    earlier run byte for byte, ``_DONE`` included; once it starts writing, a
    stale ``_DONE`` never survives its failure."""
    cfg, out = _tiny_cfg(tmp_path, data_dir, tiny_dict_file, sr="0.4", test_count=4)
    gf.run_experiment(cfg)

    def files():
        return {path.name: path.read_bytes() for path in out.iterdir()}

    finished = files()
    assert harness.DONE_MARKER in finished
    measure, calls = harness.measure, []

    def measure_then_fail(*args):
        calls.append(args)
        if len(calls) > 1:  # the second of the three variants' measure calls
            raise RuntimeError("interrupted")
        return measure(*args)

    monkeypatch.setattr(harness, "measure", measure_then_fail)
    with pytest.raises(RuntimeError, match="interrupted"):
        gf.run_experiment(cfg)
    assert len(calls) == 2
    assert files() == finished  # nothing written, nothing cleared
    monkeypatch.undo()

    write = harness.atomic_write

    def write_then_fail(path):
        if Path(path).name == "per_image.csv":
            raise RuntimeError("interrupted")
        return write(path)

    monkeypatch.setattr(harness, "atomic_write", write_then_fail)
    with pytest.raises(RuntimeError, match="interrupted"):
        gf.run_experiment(cfg)
    assert not (out / harness.DONE_MARKER).exists()  # cleared before the first file
    monkeypatch.undo()
    gf.run_experiment(cfg)
    assert files() == finished


def _record(method="optimized", sr=0.1, psnr=(30.0,)):
    psnr = np.array(psnr)
    return gf.ExperimentRecord(
        method=method, sr=sr, m=int(sr * 100), qbits=0,
        mse=np.ones_like(psnr), psnr=psnr, ssim=np.full_like(psnr, 0.9), mu=0.5, n_exact=0,
    )


def test_experiment_record_invariants():
    with pytest.raises(ValueError, match="equal length"):
        gf.ExperimentRecord(
            method="optimized", sr=0.1, m=10, qbits=0, mse=np.ones(2), psnr=np.ones(1),
            ssim=np.ones(2), mu=0.5, n_exact=0,
        )
    # the report aggregates the record's own scores, which cannot change after
    record = _record(psnr=(10.0, 20.0, np.inf))
    assert (record.report.psnr_mean, record.report.psnr_std) == (15.0, 5.0)
    with pytest.raises(ValueError, match="read-only"):
        record.psnr[0] = 40.0


def test_emit_curves_sorts(tmp_path):
    records = [
        _record("optimized", 0.5, (28.0,)),  # out of order
        _record("optimized", 0.1, (30.0,)),
    ]
    harness._emit_curves(records, tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "curve_optimized_psnr.csv", "curve_optimized_ssim.csv",
    ]
    lines = (tmp_path / "curve_optimized_psnr.csv").read_text(encoding="utf-8").splitlines()
    assert lines == ["sr,psnr_mean", "0.1,30.0", "0.5,28.0"]
