"""The gifield command line: train-dict / build-fields / run / report."""

import re
import shlex
import struct
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gifield as gf
from gifield import cli, harness
from gifield.cli import main
from gifield.data import IDX_IMAGE_MAGIC

from conftest import write_payload_only, write_run_config, write_unholdable_matrix


@pytest.fixture(scope="module")
def workdir(tmp_path_factory, data_dir):
    """A quick-start config on the 7x7 corpus, dictionary not yet trained."""
    tmp = tmp_path_factory.mktemp("cli")
    out = tmp / "out"
    cfg = write_run_config(
        tmp / "run.ini", data_dir, out / "dictionary.gim", out,
        train=data_dir / "tiny_train.idx", test=data_dir / "tiny_test.idx",
        train_count=200, test_count=20, atoms=64, sparsity=4, sweeps=3,
        sr="0.2,0.6", gaussian_seeds=2,
    )
    return cfg, out


def test_pipeline_end_to_end(workdir, capsys):
    cfg, out = workdir

    start = time.perf_counter()
    assert main(["train-dict", "--config", str(cfg)]) == 0
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0  # the quick-start promise
    assert (out / "dictionary.gim").is_file()
    assert "dictionary: 49x64" in capsys.readouterr().out

    assert main(["build-fields", "--config", str(cfg)]) == 0
    capsys.readouterr()
    psi = gf.load_dictionary(out / "dictionary.gim")
    rank = gf.build_state(psi).rank
    assert rank >= 29  # round(0.6 * 49), the grid's largest M
    phi = gf.read_matrix(out / "field_optimized.gim")
    assert phi.shape == (rank, 49) and phi.min() >= 0.0
    assert gf.read_matrix_meta(out / "field_optimized.gim") == {
        "role": "sampling", "provenance": "optimized", "qbits": 0,
        "dictionary_checksum": psi.checksum,
    }
    for s in (0, 1):
        g = out / f"field_gaussian_s{s}.gim"
        gauss = gf.read_matrix(g)
        assert gauss.shape == (rank, 49) and gauss.min() >= 0.0
        assert gf.read_matrix_meta(g) == {
            "role": "sampling", "provenance": "gaussian", "qbits": 0, "seed": s,
        }

    assert main(["run", "--config", str(cfg)]) == 0
    capsys.readouterr()
    assert (out / "_DONE").is_file()
    per_image = (out / "per_image.csv").read_text(encoding="utf-8").splitlines()
    assert len(per_image) == 1 + 4 * 20  # 2 methods x 2 SRs x data.test_count images

    assert main(["report", "--config", str(cfg)]) == 0
    text = capsys.readouterr().out
    assert "optimized" in text and "gaussian" in text
    assert "vs gaussian" in text


@pytest.mark.parametrize("command", ["train-dict", "build-fields", "run", "report"])
@pytest.mark.parametrize("flag", ["--seed", "--limit", "--out"])
def test_settings_come_only_from_the_config(tmp_path, command, flag):
    for argv in ([command, "--config", str(tmp_path / "run.ini"), flag, "3"], [command, flag, "3"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


def test_run_without_dictionary_exits_2(tmp_path, data_dir, capsys):
    cfg = write_run_config(
        tmp_path / "r.ini", data_dir, None, tmp_path / "out",
        train=data_dir / "tiny_train.idx", test=data_dir / "tiny_test.idx",
    )
    assert main(["run", "--config", str(cfg)]) == 2
    assert "train-dict first" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()  # refused before any output is made
    missing = write_run_config(
        tmp_path / "m.ini", data_dir, tmp_path / "nope.gim", tmp_path / "out",
        test=data_dir / "tiny_test.idx",
    )
    assert main(["build-fields", "--config", str(missing)]) == 2


def test_build_fields_writes_row_prefixes(tmp_path, data_dir, desk_dictionary_file, capsys):
    """Each variant is written once, with the Gram rank of rows, as the sweep
    builds it; a build on another grid rewrites the same files, bytes and all."""
    out = tmp_path / "out"

    def build(m):
        path = write_run_config(tmp_path / f"{m}.ini", data_dir, desk_dictionary_file, out,
                                m=m, qbits=8, gaussian_seeds=2)
        assert main(["build-fields", "--config", str(path)]) == 0
        return gf.load_config(path), {p.name: p.read_bytes() for p in out.iterdir()}

    cfg, both = build("40,400")
    _, alone = build("40")
    capsys.readouterr()
    names = ["field_optimized.gim", "field_gaussian_s0.gim", "field_gaussian_s1.gim"]
    assert sorted(both) == sorted(names)
    assert alone == both
    state = gf.build_state(gf.load_dictionary(desk_dictionary_file))
    variants = [phi for _, _, phi in harness._field_variants(cfg, state)]
    for name, phi in zip(names, variants, strict=True):
        assert phi.shape == (state.rank, 784)
        np.testing.assert_array_equal(gf.read_matrix(out / name), phi)
        assert gf.read_matrix_meta(out / name)["qbits"] == 8


def test_train_dict_needs_a_destination(tmp_path, data_dir, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    cfg = write_run_config(
        tmp_path / "r.ini", data_dir, None, tmp_path / "out",
        train=data_dir / "tiny_train.idx", test=data_dir / "tiny_test.idx",
        train_count=60, atoms=49, sparsity=3, sweeps=1,
    )
    assert main(["train-dict", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "dictionary.path" in err
    assert not list(tmp_path.rglob("*.gim"))  # refused before training


def test_train_dict_reads_only_training_keys(tmp_path, data_dir, capsys):
    cfg, out = tmp_path / "train.ini", tmp_path / "d.gim"
    cfg.write_text(
        f"[data]\ntrain = {data_dir / 'tiny_train.idx'}\ntrain_count = 60\n"
        f"[dictionary]\npath = {out}\natoms = 49\nsparsity = 3\nsweeps = 2\n",
        encoding="utf-8",
    )
    assert main(["train-dict", "--config", str(cfg)]) == 0
    assert "dictionary: 49x49" in capsys.readouterr().out
    assert gf.load_dictionary(out).sparsity == 3


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"atoms": 10, "train_count": 60}, "dictionary.atoms 10 < the 49 pixels"),
        ({"atoms": 64, "train_count": 50}, "data.train_count 50 < dictionary.atoms 64"),
        ({"train": "zero_train.idx", "atoms": 16, "train_count": 20, "sparsity": 2},
         "training images that are all zero"),
    ],
    ids=["atoms-below-pixels", "signals-below-atoms", "all-zero-images"],
)
def test_train_dict_refuses_an_impossible_dictionary(
    tmp_path, data_dir, monkeypatch, capsys, overrides, message
):
    def no_training(*args):
        raise AssertionError("trained before checking the dictionary's shape")

    monkeypatch.setattr(gf.harness, "ksvd_train", no_training)
    opts = {"sparsity": 3, "sweeps": 1, **overrides}
    opts["train"] = data_dir / opts.get("train", "tiny_train.idx")
    cfg = write_run_config(
        tmp_path / "r.ini", data_dir, tmp_path / "dict" / "d.gim", tmp_path / "out", **opts
    )
    assert main(["train-dict", "--config", str(cfg)]) == 2
    assert message in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == [cfg]  # not even the dictionary's directory


@pytest.mark.parametrize("command", ["train-dict", "build-fields", "run", "report"])
@pytest.mark.parametrize(
    "patch, key",
    [({"qbits": 17}, "fields.qbits"), ({"sr": "1.5"}, "fields.sr"),
     ({"methods": "fourier"}, "fields.methods"), ({"atoms": 0}, "dictionary.atoms"),
     ({"sweeps": 0}, "dictionary.sweeps"), ({"noise": ("pink", "")}, "noise.kind")],
    ids=["qbits", "sr", "methods", "atoms", "sweeps", "noise-kind"],
)
def test_every_command_refuses_a_malformed_value(
    tmp_path, data_dir, monkeypatch, capsys, command, patch, key
):
    """A bad value of any key is refused when the config loads, whatever the
    command reads: exit 2, before training and before any directory exists."""
    def no_training(*args):
        raise AssertionError("trained on a malformed config")

    monkeypatch.setattr(gf.harness, "ksvd_train", no_training)
    opts = {"train_count": 60, "atoms": 49, "sparsity": 3, "sweeps": 1, **patch}
    cfg = write_run_config(
        tmp_path / "r.ini", data_dir, tmp_path / "dict" / "d.gim", tmp_path / "out",
        train=data_dir / "tiny_train.idx", **opts,
    )
    assert main([command, "--config", str(cfg)]) == 2
    assert key in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == [cfg]


def test_only_run_needs_test_images(tmp_path, tiny_dict_file, capsys):
    out = tmp_path / "out"
    cfg = tmp_path / "r.ini"
    cfg.write_text(
        f"[dictionary]\npath = {tiny_dict_file}\n[fields]\nm = 10\ngaussian_seeds = 1\n"
        f"[run]\nout = {out}\n",
        encoding="utf-8",
    )
    assert main(["run", "--config", str(cfg)]) == 2
    assert "data.test" in capsys.readouterr().err
    assert not out.exists()
    assert main(["build-fields", "--config", str(cfg)]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["field_gaussian_s0.gim", "field_optimized.gim"]


@pytest.mark.parametrize("command", ["build-fields", "run"])
@pytest.mark.parametrize("n_atoms", [0, 1])
def test_a_sweep_refuses_a_dictionary_of_fewer_than_two_atoms(
    tmp_path, data_dir, capsys, command, n_atoms
):
    """No atoms is no dictionary; the constant atom alone is one no sweep can
    score. Both are refused, naming the file, before ``run.out`` exists."""
    path = tmp_path / "d.gim"
    gf.write_matrix(path, np.full((49, n_atoms), 49**-0.5), meta={"sparsity": 1})
    cfg = write_run_config(tmp_path / "r.ini", data_dir, path, tmp_path / "out",
                           test=data_dir / "tiny_test.idx", test_count=4, m="1")
    assert main([command, "--config", str(cfg)]) == 2
    assert str(path) in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_train_dict_refuses_more_than_one_atom_for_1_pixel_images(
    tmp_path, data_dir, monkeypatch, capsys
):
    """A 1-pixel image has no zero-mean atom, so only the constant atom can be
    learnt: more atoms are refused before training and before any directory."""
    def no_training(*args):
        raise AssertionError("trained a dictionary that 1-pixel images cannot hold")

    monkeypatch.setattr(gf.harness, "ksvd_train", no_training)
    images = tmp_path / "one_pixel.idx"
    gf.data.write_idx_images(images, np.arange(20.0).reshape(20, 1, 1))
    cfg = write_run_config(tmp_path / "r.ini", data_dir, tmp_path / "dict" / "d.gim",
                           tmp_path / "out", train=images, train_count=20, atoms=2,
                           sparsity=1, sweeps=1)
    assert main(["train-dict", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert ("dictionary.atoms 2 > 1 needs images of at least 2 pixels,"
            f" not the 1 pixel of the images in {images}") in err
    assert sorted(tmp_path.iterdir()) == [images, cfg]  # no dictionary, not even its directory


def test_train_dict_refuses_images_without_pixels(tmp_path, data_dir, capsys):
    images = tmp_path / "empty.idx"
    images.write_bytes(struct.pack(">IIII", IDX_IMAGE_MAGIC, 3000, 0, 0))
    cfg = write_run_config(tmp_path / "r.ini", data_dir, tmp_path / "dict" / "d.gim",
                           tmp_path / "out", train=images)
    assert main(["train-dict", "--config", str(cfg)]) == 2
    assert f"{images}: header declares images of 0 x 0 pixels" in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == [images, cfg]


def test_refused_runs_write_nothing(tmp_path, data_dir, tiny_dict_file, capsys):
    """Bad input is refused before any output: a finished run keeps its files
    byte for byte, ``_DONE`` included, and a fresh ``run.out`` is never made."""
    def config(name, out, dictionary=tiny_dict_file, **overrides):
        opts = {"test": data_dir / "tiny_test.idx", "test_count": 4, "sr": "0.2", **overrides}
        return write_run_config(tmp_path / f"{name}.ini", data_dir, dictionary, out, **opts)

    def files(out):
        return {path.name: path.read_bytes() for path in out.iterdir()}

    done = tmp_path / "done"
    assert main(["run", "--config", str(config("good", done))]) == 0
    finished = files(done)
    assert {"_DONE", "results.csv"} <= finished.keys()
    capsys.readouterr()
    # the training budget comes from the dictionary file's metadata block alone
    no_budget = write_payload_only(tmp_path / "no_budget.gim", gf.read_matrix(tiny_dict_file))
    fresh = tmp_path / "fresh"
    for out in (done, fresh):
        beyond_rank = config("beyond_rank", out, m="5,50")  # the Gram rank is 49
        overdraw = config("overdraw", out, test_count=41)  # tiny_test.idx holds 40
        unbudgeted = config("no_budget", out, dictionary=no_budget)
        for command, cfg, reason in (("run", beyond_rank, "M=50 exceeds"),
                                     ("run", overdraw, "data.test_count 41 exceeds"),
                                     ("run", unbudgeted, f"{no_budget}: no metadata block"),
                                     ("build-fields", beyond_rank, "M=50 exceeds")):
            assert main([command, "--config", str(cfg)]) == 2
            assert reason in capsys.readouterr().err
            assert files(done) == finished
            assert not fresh.exists()


@pytest.mark.parametrize("command", ["train-dict", "build-fields", "run"])
def test_output_path_through_a_file_exits_2(
    tmp_path, data_dir, tiny_dict_file, monkeypatch, capsys, command
):
    blocker = tmp_path / "blocker"
    blocker.touch()

    def no_training(*args):
        raise AssertionError("trained before checking where the dictionary goes")

    monkeypatch.setattr(gf.harness, "ksvd_train", no_training)
    for below in (blocker, blocker / "sub"):  # the file is the direct parent, or two levels up
        if command == "train-dict":
            key, path = "dictionary.path", below / "d.gim"
            cfg = write_run_config(
                tmp_path / "r.ini", data_dir, path, tmp_path / "out",
                train=data_dir / "tiny_train.idx", train_count=60, atoms=49, sparsity=3,
                sweeps=1,
            )
        else:
            key, path = "run.out", below
            cfg = write_run_config(
                tmp_path / "r.ini", data_dir, tiny_dict_file, below,
                test=data_dir / "tiny_test.idx", test_count=4, sr="0.2",
            )
        assert main([command, "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert key in err and str(path) in err
        assert sorted(tmp_path.iterdir()) == [blocker, tmp_path / "r.ini"]  # nothing written
        assert blocker.read_bytes() == b""


def _write_bad_magic(path):
    path.write_bytes(b"NOTAGIM!" + bytes(64))


def _write_unholdable_shape(path):
    write_unholdable_matrix(path, (0, 2**62))


def _write_broken_constraints(path):
    atoms = np.random.default_rng(0).standard_normal((49, 64))
    gf.write_matrix(path, atoms, meta={"role": "dictionary", "sparsity": 2})


@pytest.mark.parametrize(
    "key, write",
    [
        ("dictionary", _write_bad_magic),
        ("dictionary", _write_broken_constraints),
        ("dictionary", _write_unholdable_shape),
        ("test", _write_bad_magic),
        ("test", None),  # test_count beyond the 40 images of tiny_test.idx
    ],
    ids=["dictionary-bad-magic", "dictionary-constraints", "dictionary-unholdable-shape",
         "test-bad-magic", "test-overdraw"],
)
def test_run_with_bad_input_file_exits_2(tmp_path, data_dir, tiny_dict_file, capsys, key, write):
    files = {"dictionary": tiny_dict_file, "test": data_dir / "tiny_test.idx"}
    if write:
        files[key] = tmp_path / f"bad_{key}"
        write(files[key])
    cfg = write_run_config(
        tmp_path / "r.ini", data_dir, files["dictionary"], tmp_path / "out",
        test=files["test"], test_count=4 if write else 41,
    )
    assert main(["run", "--config", str(cfg)]) == 2
    assert str(files[key]) in capsys.readouterr().err


def test_other_failures_exit_1(tmp_path, data_dir, monkeypatch, capsys):
    def fail(cfg):
        raise RuntimeError("disk on fire")

    monkeypatch.setattr(cli, "run_experiment", fail)
    cfg = write_run_config(tmp_path / "r.ini", data_dir, tmp_path / "d.gim", tmp_path / "out")
    assert main(["run", "--config", str(cfg)]) == 1
    assert "disk on fire" in capsys.readouterr().err


def _report_config(out_dir):
    """The path of a config, written into ``out_dir``, that names it as ``run.out``."""
    path = Path(out_dir) / "report.ini"
    path.write_text(f"[run]\nout = {out_dir}\n", encoding="utf-8")
    return str(path)


def test_report_on_empty_dir_exits_2(tmp_path, capsys):
    assert main(["report", "--config", _report_config(tmp_path)]) == 2
    assert "results.csv" in capsys.readouterr().err


def _write_results(directory):
    row = "optimized,0.1,78,0,21.5,1.2,0.81,0.05,0.31,0"
    (directory / "results.csv").write_text(
        f"{_HEADER}\n{row}\n", encoding="utf-8"
    )


def test_report_config_needs_run_out(tmp_path, monkeypatch, capsys):
    # a stray results.csv in the working directory must not stand in for run.out
    monkeypatch.chdir(tmp_path)
    _write_results(tmp_path)
    cfg = tmp_path / "r.ini"
    cfg.write_text("[data]\ntest = t.idx\n", encoding="utf-8")
    assert main(["report", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert "run.out" in captured.err and not captured.out


def test_report_warns_on_unfinished_run(tmp_path, capsys):
    _write_results(tmp_path)
    assert main(["report", "--config", _report_config(tmp_path)]) == 0
    captured = capsys.readouterr()
    assert "did not finish" in captured.err
    assert "optimized" in captured.out


_HEADER = "method,sr,M,qbits,psnr_mean,psnr_std,ssim_mean,ssim_std,mu,n_exact"
_ROW = "optimized,0.1,78,0,21.5,1.2,0.81,0.05,0.31,0"


@pytest.mark.parametrize(
    "content, named",
    [
        (_HEADER.replace(",M,", ",") + "\n" + _ROW.replace(",78,", ",") + "\n", "no 'M' column"),
        (f"{_HEADER}\n{_ROW.replace(',0.1,', ',tenth,')}\n", "line 2, column sr: 'tenth'"),
        (f"{_HEADER}\n{_ROW}\n{_ROW.removesuffix(',0')},none\n",
         "line 3, column n_exact: 'none'"),
        (f"{_HEADER}\n{_ROW},1\n", "line 2: 11 fields, expected 10"),
        (f"{_HEADER},a,b\n{_ROW},0.2,0.004\n", "header is not"),  # an older 12-column file
        (b"\xff\xfe" + f"{_HEADER}\n{_ROW}\n".encode(), "not a readable CSV file"),
    ],
    ids=["missing-column", "text-ratio", "text-count", "extra-field", "extra-column",
         "not-utf8"],
)
def test_report_on_a_malformed_results_file_exits_2(tmp_path, capsys, content, named):
    results = tmp_path / "results.csv"
    if isinstance(content, str):
        results.write_text(content, encoding="utf-8")
    else:
        results.write_bytes(content)
    assert main(["report", "--config", _report_config(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert named in captured.err and str(results) in captured.err
    assert not captured.out


def test_report_on_an_all_exact_sweep(tmp_path, data_dir, tiny_dict_file, capsys):
    """All-zero test images come back exact in every cell: the run reads back with
    psnr_mean inf and psnr_std 0, and report calls each pair both exact, never nan."""
    gf.data.write_idx_images(tmp_path / "zeros.idx", np.zeros((4, 7, 7)))
    cfg = write_run_config(tmp_path / "r.ini", data_dir, tiny_dict_file, tmp_path / "out",
                           test=tmp_path / "zeros.idx", test_count=4, sr="0.2,0.4")
    assert main(["run", "--config", str(cfg)]) == 0
    rows, finished = harness.read_results(gf.load_config(cfg))
    assert finished and len(rows) == 4
    assert all(row["psnr_mean"] == np.inf and row["psnr_std"] == 0.0 for row in rows)
    capsys.readouterr()
    assert main(["report", "--config", str(cfg)]) == 0
    text = capsys.readouterr().out
    assert "nan" not in text
    assert text.count("optimized and gaussian both exact") == 2


def test_report_names_m_in_each_gain_line(tmp_path, capsys):
    """Ratios that print alike at three decimals still give distinct gain lines:
    each names its M after ``SR <ratio>``."""
    rows = [f"{method},{m / 4096!r},{m},0,{psnr!r},0.0,0.5,0.0,0.9,{exact}"
            for method, shift in (("optimized", 1.5), ("gaussian", 0.0))
            for m, psnr, exact in ((1, 10.0 + shift, 0), (2, 12.0 + shift, 0), (3, np.inf, 3))]
    (tmp_path / "results.csv").write_text("\n".join([_HEADER, *rows]) + "\n", encoding="utf-8")
    assert main(["report", "--config", _report_config(tmp_path)]) == 0
    gains = [line for line in capsys.readouterr().out.splitlines() if line.startswith("SR ")]
    assert gains == [
        "SR 0.000 M=1: optimized +1.50 dB vs gaussian",
        "SR 0.000 M=2: optimized +1.50 dB vs gaussian",
        "SR 0.001 M=3: optimized and gaussian both exact",
    ]


_CELL = st.sampled_from(["optimized", "gaussian", "0.1", "78", "-0", "nan", "inf", "1e400", ""])


@settings(derandomize=True, deadline=None, max_examples=60)
@given(content=st.one_of(
    st.binary(max_size=200),
    st.lists(st.lists(_CELL | st.text(max_size=6), min_size=9, max_size=11), max_size=3)
    .map(lambda rows: "".join(",".join(row) + "\n" for row in [_HEADER.split(","), *rows])
         .encode("utf-8")),
))
def test_report_on_any_results_bytes_exits_0_or_2(content):
    """Whatever ``results.csv`` holds, ``report`` prints it or exits 2, never 1."""
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "results.csv").write_bytes(content)
        assert main(["report", "--config", _report_config(tmp)]) in (0, 2)


def test_run_with_a_config_that_is_not_utf8_exits_2(tmp_path, data_dir, tiny_dict_file, capsys):
    cfg = write_run_config(tmp_path / "r.ini", data_dir, tiny_dict_file, tmp_path / "out")
    cfg.write_bytes(cfg.read_bytes() + b"\xff")
    assert main(["run", "--config", str(cfg)]) == 2
    assert f"{cfg} is not UTF-8" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_missing_config_exits_2(tmp_path):
    assert main(["run", "--config", str(tmp_path / "absent.ini")]) == 2


def test_console_entry_exits_with_the_command_code(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "gifield.cli", "run", "--config", str(tmp_path / "absent.ini")],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert "config file not found" in proc.stderr


def test_bad_usage_raises_systemexit():
    with pytest.raises(SystemExit) as exc:
        main(["run", "--bogus"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        main([])  # a subcommand is required


def test_console_script_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "gifield.cli", "--help"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert "train-dict" in proc.stdout and "report" in proc.stdout


def test_readme_command_lines_parse():
    """Every ``gifield`` line in the README's shell blocks is a command line the CLI takes."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    lines = [shlex.split(line, comments=True)
             for block in re.findall(r"```sh\n(.*?)```", readme, re.DOTALL)
             for line in block.splitlines() if line.startswith("gifield ")]
    commands = [cli._build_parser().parse_args(words[1:]).command for words in lines]
    assert sorted(commands) == ["build-fields", "report", "run", "train-dict"]
