"""Experiment orchestration: sweep sampling ratios, emit CSV tables and curves.

A run is fully described by one INI-style config file: dataset paths, training
knobs, the SR grid, methods, quantization, noise. ``write_fields``
(``build-fields``) and ``run_experiment`` share one set-up, and write nothing
until every check has passed. No command makes a directory: the first file
written into one makes it (``data.atomic_write``). Each field variant is built
once, with the Gram rank of rows, by one lift-and-scale rule (lifted by its
own minimum, quantized against its own peak); ``write_fields`` writes it
whole, and a sweep forms its D = Phi Psi once, at the grid's largest M, and
gives every (method, SR) cell row prefixes of both. A sweep makes one pass per
field variant: each cell measures all test images together, under one noise
model seeded from the variant's method and field seed; cells taken in order of
M share one ``sparse_code_columns`` call, one reconstruction product and one
scoring while their images fit ``_BATCH_IMAGES`` (a cell of more goes alone),
and each adds its scores to its running sums. After a method's last
variant each cell is one record: per-image means over field seeds, as arrays,
and their aggregate. Outputs: ``results.csv`` (aggregates), ``per_image.csv`` (one row per test
image per cell), per-method curves and a zero-byte ``_DONE`` marker written
last to flag unfinished runs. ``read_results`` reads ``results.csv`` back.

Every output is byte-reproducible across runs with one BLAS build and thread
count; each cell's INFO log line carries its coding batch's time per
reconstruction.
"""

from __future__ import annotations

import configparser
import csv
import dataclasses
import itertools
import logging
import operator
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import (
    atomic_write,
    load_idx_images,
    random_subset,
    read_matrix,
    read_matrix_meta,
    write_matrix,
)
from .dictionary import Dictionary, TrainingConfig, ksvd_train, sparse_code_columns
from .errors import CorruptionError, FormatError, ValidationError
from .fieldopt import (
    FieldOptState,
    build_state,
    gaussian_sampling,
    nn_lift,
    optimize_sampling,
    quantize_matrix,
)
from .imaging import NoiseModel, measure
from .imaging import reconstruct  # noqa: F401 - benchmarks/gibench/trace.py wraps this name
from .metrics import QualityReport, aggregate, mse, mutual_coherence, psnr, ssim

log = logging.getLogger(__name__)

DONE_MARKER = "_DONE"

METHODS = ("optimized", "gaussian")

# images a sweep codes in one sparse_code_columns call: a variant's cells share a
# call while their images fit, and a cell of more images goes alone. Larger
# batches leave the allocator's heap at higher levels: with 4-image cells and a
# 784 x 1024 dictionary, 128 and 96 peaked up to 12 and 4 MB above coding each
# cell alone on some seeds, 64 within 0.6 MB on seeds 0-9, so measure peak memory
# on several seeds before raising it.
_BATCH_IMAGES = 64


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one sweep needs, straight from a config file; checked when made."""

    train_path: str
    test_path: str
    train_count: int
    train_seed: int
    test_count: int
    test_seed: int
    training: TrainingConfig
    sr_grid: tuple[float, ...]
    m_grid: tuple[int, ...]  # explicit M values; mutually exclusive with sr_grid
    methods: tuple[str, ...]
    qbits: int  # 0 = unquantized
    noise: NoiseModel
    out_dir: str
    gaussian_seeds: int
    field_seed: int
    recon_sparsity: int | None  # None: the dictionary's training budget
    dictionary_path: str  # the trained dictionary a sweep reads

    def __post_init__(self):
        if self.train_count < 1 or self.test_count < 1:
            raise ValueError("data.train_count and data.test_count must be >= 1")
        for name in ("train_seed", "test_seed", "field_seed"):
            if (seed := getattr(self, name)) < 0:
                raise ValueError(f"{_KEY_OF[name]}: seed {seed} must be >= 0")
        if bool(self.sr_grid) == bool(self.m_grid):
            raise ValueError("give exactly one of fields.sr and fields.m")
        for sr in self.sr_grid:
            if not 0.0 < sr <= 1.0:
                raise ValueError(f"fields.sr: sampling ratio {sr} outside (0, 1]")
        for m in self.m_grid:
            if m < 1:
                raise ValueError(f"fields.m: row count {m} must be >= 1")
        if not self.methods:
            raise ValueError("fields.methods must name at least one method")
        for i, name in enumerate(self.methods):
            if name not in METHODS:
                raise ValueError(f"fields.methods: unknown method {name!r}")
            if name in self.methods[:i]:
                raise ValueError(f"fields.methods names {name!r} more than once")
        if self.qbits != 0 and not 1 <= self.qbits <= 16:
            raise ValueError("fields.qbits must be 0 (off) or in [1, 16]")
        if self.gaussian_seeds < 1:
            raise ValueError("fields.gaussian_seeds must be >= 1")
        if self.recon_sparsity is not None and self.recon_sparsity < 1:
            raise ValueError("run.t0 must be >= 1")


@dataclass(frozen=True)
class ExperimentRecord:
    """One (method, SR) cell: per-image scores, their aggregate and coherence.

    ``mse``, ``psnr`` and ``ssim`` hold each test image's mean over field seeds
    (``psnr``'s over the ones below +inf, +inf if all are exact) and are made read-only.
    """

    method: str
    sr: float
    m: int
    qbits: int
    mse: np.ndarray
    psnr: np.ndarray
    ssim: np.ndarray
    mu: float
    n_exact: int  # reconstructions (image x field seed) with +inf PSNR
    report: QualityReport = dataclasses.field(init=False)

    def __post_init__(self):
        for scores in (self.mse, self.psnr, self.ssim):
            scores.setflags(write=False)
        object.__setattr__(self, "report", aggregate(self.psnr, self.ssim))


# results.csv header name -> the ExperimentRecord attribute that gives it, in file
# order: the one place a sweep's columns are named. A per_image.csv row holds the
# first four of them, then "image" (the image's index), then the record's _SCORES.
_RESULTS_COLUMNS = {
    "method": "method", "sr": "sr", "M": "m", "qbits": "qbits",
    "psnr_mean": "report.psnr_mean", "psnr_std": "report.psnr_std",
    "ssim_mean": "report.ssim_mean", "ssim_std": "report.ssim_std",
    "mu": "mu", "n_exact": "n_exact",
}
_SCORES = ("mse", "psnr", "ssim")


def _optional(convert):
    """Parse a value with ``convert``; an empty value parses to None."""
    return lambda raw: convert(raw) if raw else None


def _items(convert):
    """Parse a comma-separated list; an empty list parses to None."""
    return lambda raw: tuple(convert(tok.strip()) for tok in raw.split(",") if tok.strip()) or None


# (section, key) -> (ExperimentConfig field, parser, default). A dotted field
# names a field of the TrainingConfig or NoiseModel sub-config. An absent key,
# or a value that parses to None, takes the default; an empty integer is an
# error. The README's key table mirrors this one.
_CONFIG_TABLE = {
    ("data", "train"): ("train_path", _optional(str), ""),
    ("data", "test"): ("test_path", _optional(str), ""),
    ("data", "train_count"): ("train_count", int, 2000),
    ("data", "train_seed"): ("train_seed", int, 0),
    ("data", "test_count"): ("test_count", int, 200),
    ("data", "test_seed"): ("test_seed", int, 1),
    ("dictionary", "path"): ("dictionary_path", _optional(str), ""),
    ("dictionary", "atoms"): ("training.atom_count", int, 1024),
    ("dictionary", "sparsity"): ("training.sparsity", int, 8),
    ("dictionary", "sweeps"): ("training.sweeps", int, 30),
    ("dictionary", "seed"): ("training.seed", int, 0),
    ("fields", "sr"): ("sr_grid", _items(float), ()),
    ("fields", "m"): ("m_grid", _items(int), ()),
    ("fields", "methods"): ("methods", _items(str), METHODS),
    ("fields", "qbits"): ("qbits", int, 0),
    ("fields", "gaussian_seeds"): ("gaussian_seeds", int, 3),
    ("fields", "seed"): ("field_seed", int, 0),
    ("noise", "kind"): ("noise.kind", _optional(str), "none"),
    ("noise", "snr_db"): ("noise.snr_db", _optional(float), None),
    ("noise", "seed"): ("noise.seed", int, 0),
    ("run", "out"): ("out_dir", _optional(str), ""),
    ("run", "t0"): ("recon_sparsity", _optional(int), None),
}
_KEY_OF = {field: f"{section}.{key}" for (section, key), (field, _, _) in _CONFIG_TABLE.items()}


def load_config(path) -> ExperimentConfig:
    """Parse an INI-style run description; see the README for the key table."""
    path = Path(path)
    if not path.is_file():
        raise ValidationError(f"config file not found: {path}")
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",), interpolation=None)
    try:
        parser.read(path, encoding="utf-8")
    except configparser.Error as exc:
        raise ValidationError(f"config parse error: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ValidationError(f"config file {path} is not UTF-8 text: {exc}") from exc
    sections = {section for section, _ in _CONFIG_TABLE}
    unknown = [f"[{name}]" for name in parser.sections() if name not in sections]
    unknown += [f"[DEFAULT] {key}" for key in parser.defaults()]
    unknown += [
        f"{name}.{key}"
        for name in parser.sections() if name in sections
        for key in parser[name]
        if (name, key) not in _CONFIG_TABLE and key not in parser.defaults()
    ]
    if unknown:
        raise ValidationError(f"config: unknown section or key: {', '.join(unknown)}")

    values: dict = {"training": {}, "noise": {}}
    for (section, key), (field, parse, default) in _CONFIG_TABLE.items():
        try:
            raw = parser.get(section, key, fallback=None)
            value = None if raw is None else parse(raw)
        except (ValueError, configparser.Error) as exc:
            raise ValidationError(f"config value error: {section}.{key}: {exc}") from exc
        owner, _, name = field.rpartition(".")
        (values[owner] if owner else values)[name] = default if value is None else value
    if not values["sr_grid"] and not values["m_grid"]:  # the desk-scale SR sweep
        values["sr_grid"] = (0.05, 0.10, 0.20, 0.30, 0.51)
    for owner, make in (("training", TrainingConfig), ("noise", NoiseModel)):
        try:
            values[owner] = make(**values[owner])
        except ValueError as exc:  # each type names the refused field first
            name = str(exc).split(" ", 1)[0]
            key = _KEY_OF.get(f"{owner}.{name}", name)
            raise ValidationError(f"config value error: {key}: {exc}") from exc
    try:
        return ExperimentConfig(**values)
    except ValueError as exc:
        raise ValidationError(f"config value error: {exc}") from exc


def train_dictionary(cfg: ExperimentConfig, out_path) -> Dictionary:
    """Train per config and persist the atoms with their training metadata.

    The metadata holds the whole K-SVD objective trajectory (``objectives``,
    one value per sweep). Every value was checked when ``cfg`` was made; here go
    the checks, first that ``out_path`` names a file, with no directory there and
    no file where its directory must go, then those on ``data.train`` and its
    images. Nothing is written, nor any directory made, before training ends.
    """
    if not (out_path := Path(out_path or "")).name:
        raise ValidationError("config: dictionary.path must name the file to train into")
    if out_path.is_dir():
        raise ValidationError(f"config: dictionary.path {out_path} is a directory, not a file")
    _check_dir(out_path.parent, "dictionary.path", str(out_path))
    if not cfg.train_path:
        raise ValidationError("config: data.train path is required to train")
    atoms = cfg.training.atom_count
    if cfg.train_count < atoms:
        raise ValidationError(
            f"config: data.train_count {cfg.train_count} < dictionary.atoms {atoms}"
        )
    data = _subset_or_invalid(cfg.train_path, "train", cfg.train_count, cfg.train_seed)
    if atoms < data.pixels_per_image:
        raise ValidationError(
            f"config: dictionary.atoms {atoms} < the {data.pixels_per_image} pixels"
            f" of the images in {cfg.train_path}"
        )
    if atoms > 1 and data.pixels_per_image < 2:  # a centred 1-pixel atom is always 0
        raise ValidationError(
            f"config: dictionary.atoms {atoms} > 1 needs images of at least 2 pixels,"
            f" not the 1 pixel of the images in {cfg.train_path}"
        )
    if not np.any(data.images):
        raise ValidationError(
            f"config: data.train {cfg.train_path} gives {len(data)} training images"
            " that are all zero"
        )
    log.info(
        "training dictionary: %d signals, %d atoms, T0=%d, %d sweeps",
        len(data), cfg.training.atom_count, cfg.training.sparsity, cfg.training.sweeps,
    )
    start = time.perf_counter()
    dictionary, objectives = ksvd_train(data.as_columns(), cfg.training)
    log.info(
        "trained in %.1f s, objective %.4g -> %.4g",
        time.perf_counter() - start, objectives[0], objectives[-1],
    )
    write_matrix(
        out_path,
        dictionary.atoms,
        meta={
            "role": "dictionary",
            "sparsity": dictionary.sparsity,
            "seed": cfg.training.seed,
            "sweeps": cfg.training.sweeps,
            "train_source": data.source,
            "objectives": objectives.tolist(),
        },
    )
    return dictionary


def _check_dir(path, key: str, value: str) -> Path:
    """``path`` as the directory that config ``key`` = ``value`` needs, checked, not made.

    An empty ``path`` (not the working directory) or a file where the directory
    or one of its parents must go is a ``ValidationError`` naming the key.
    """
    if not path:
        raise ValidationError(f"config: {key} directory is required")
    path = Path(path)
    for part in (path, *path.parents):
        if part.exists() and not part.is_dir():
            raise ValidationError(
                f"config: {key} {value}: a file stands where a directory must go ({part})"
            )
    return path


def _subset_or_invalid(path: str, split: str, count: int, seed: int):
    if not Path(path).is_file():
        raise ValidationError(f"{split} dataset not found: {path}")
    dataset = load_idx_images(path)
    if count > len(dataset):
        raise ValidationError(
            f"config: data.{split}_count {count} exceeds the {len(dataset)} images in {path}"
        )
    return random_subset(dataset, count, seed)


def load_dictionary(path) -> Dictionary:
    """The trained dictionary saved at ``path``, with the training budget it was saved with.

    No file at ``path`` is a ``ValidationError``. A ``sparsity`` metadata
    entry that is missing or not an integer >= 1, or atoms that are no
    :class:`Dictionary`, make the file a ``CorruptionError``.
    """
    path = Path(path)
    if not path.is_file():
        raise ValidationError(f"trained dictionary not found: {path}")
    # two parses, each a view of the file's bytes: the benchmark's tracer wraps
    # both readers by name, so both stay called until ROADMAP item 10
    atoms, meta = read_matrix(path), read_matrix_meta(path)
    try:
        return Dictionary(atoms=atoms, sparsity=meta.get("sparsity"))
    except ValueError as exc:
        raise CorruptionError(f"{path}: {exc}") from exc


def _resolve_grid(cfg: ExperimentConfig, state: FieldOptState) -> list[tuple[float, int]]:
    """The grid as (sampling ratio, M) pairs: distinct M, within the Gram rank, >= 2 under AWGN."""
    n = state.n_pixels
    if cfg.m_grid:
        grid = [(m / n, m) for m in cfg.m_grid]
    else:
        grid = [(sr, max(1, int(round(sr * n)))) for sr in cfg.sr_grid]
    for i, (_, m) in enumerate(grid):
        if m > state.rank:
            raise ValidationError(f"config: M={m} exceeds the dictionary Gram rank {state.rank}")
        if any(m == other for _, other in grid[:i]):
            raise ValidationError(f"config: the grid gives M={m} more than once")
        if m == 1 and cfg.noise.kind == "awgn":
            raise ValidationError("config: AWGN needs M >= 2, and the grid gives M=1")
    return grid


def _set_up(cfg: ExperimentConfig):
    """Check ``cfg`` and its dictionary for a sweep; return ``(out, psi, state, grid)``."""
    out = _check_dir(cfg.out_dir, "run.out", cfg.out_dir)
    if not cfg.dictionary_path:
        raise ValidationError(
            "no trained dictionary configured (dictionary.path); run train-dict first"
        )
    psi = load_dictionary(cfg.dictionary_path)
    if psi.n_atoms < 2:
        raise ValidationError(
            f"dictionary {cfg.dictionary_path} holds only the constant atom; a sweep needs more"
        )
    state = build_state(psi)
    return out, psi, state, _resolve_grid(cfg, state)


def _field_variants(cfg: ExperimentConfig, state: FieldOptState):
    """Yield each lifted, and per ``fields.qbits`` quantized, field variant once.

    A variant is a ``(method, seed, field)`` triple, in ``fields.methods``
    order: seed None for the optimized field, ``fields.seed``,
    ``fields.seed + 1``, ... for the Gaussian draws. Each field has
    ``state.rank`` rows and is quantized against its own peak.
    """
    for method in cfg.methods:
        seeds = ((None,) if method == "optimized"
                 else range(cfg.field_seed, cfg.field_seed + cfg.gaussian_seeds))
        for seed in seeds:
            phi = nn_lift(optimize_sampling(state, state.rank) if seed is None
                          else gaussian_sampling(state.rank, state.n_pixels, seed))
            if cfg.qbits:
                phi = quantize_matrix(phi, cfg.qbits)
            yield method, seed, phi


def write_fields(cfg: ExperimentConfig) -> list[Path]:
    """Write each variant's whole field to ``run.out``, once; return the paths written.

    ``field_optimized.gim`` or ``field_gaussian_s{seed}.gim`` holds the rank-row
    field ``run`` measures with; its metadata ends in the checksum or the seed.
    """
    out, psi, state, _ = _set_up(cfg)
    paths = []
    for method, seed, phi in _field_variants(cfg, state):
        origin = {"dictionary_checksum": psi.checksum} if seed is None else {"seed": seed}
        path = out / (f"field_{method}.gim" if seed is None else f"field_{method}_s{seed}.gim")
        write_matrix(path, phi, meta={"role": "sampling", "provenance": method,
                                      "qbits": cfg.qbits, **origin})
        paths.append(path)
    return paths


def _noise_for(base: NoiseModel, method: str, seed: int | None) -> NoiseModel:
    """The noise model of one field variant's readings, keyed by its method and field
    seed (0 for the optimized field): no two variants of a run share a stream, and a
    Gaussian draw's noise depends neither on ``fields.seed`` nor on the other methods."""
    if base.kind == "none":
        return base
    key = (METHODS.index(method), 0 if seed is None else seed)
    seq = np.random.SeedSequence(base.seed, spawn_key=key)
    return dataclasses.replace(base, seed=int(seq.generate_state(1, np.uint64)[0]))


def _run_method(
    method: str,
    variants,
    grid: list[tuple[float, int]],
    psi: Dictionary,
    x_test: np.ndarray,
    cfg: ExperimentConfig,
) -> list[ExperimentRecord]:
    """Score every grid cell of ``method``, one pass per ``(method, seed, field)`` variant.

    Each cell is measured alone. A variant's cells, in order of M, go to the
    coder in batches of ``_BATCH_IMAGES // test images`` (at least 1): the
    batch's readings, zero-padded to its largest M, are one
    ``sparse_code_columns`` call with a row count per column, then one
    ``psi.atoms`` product and one ``mse``, ``psnr`` and ``ssim`` call, whose
    columns each cell takes back. A cell's coding time is its share of its
    batch's: the batch's time over its cells.
    """
    t0 = cfg.recon_sparsity or psi.sparsity
    ms = [m for _, m in grid]
    n_images = x_test.shape[1]
    per_batch = max(1, _BATCH_IMAGES // n_images)  # cells a coder call takes
    # cells go to the coder in order of M, so that a cell's batch and its place in
    # it, and so its bytes, do not depend on the order the grid is given in
    by_m = np.argsort(ms)
    # x_test once per cell of the largest batch, in x_test's memory order (concatenate
    # keeps it), so that each column scores bit for bit as it does in x_test alone
    cells_at_most = min(per_batch, len(ms))
    truth = x_test if cells_at_most == 1 else np.concatenate([x_test] * cells_at_most, axis=1)

    # per cell: running sums over field seeds of each image's mse, inexact psnr
    # and ssim, and its count of inexact (not +inf) PSNRs, all scored together
    # on row prefixes of the variant's field and D; the records view these arrays
    mses, psnrs, ssims, n_inexact = np.zeros((4, len(grid), n_images))
    mu = np.zeros(len(grid))
    coding_sec = np.zeros(len(grid))
    n_variants = 0
    for _, seed, phi in variants:
        equivalent = phi[: max(ms)] @ psi.atoms
        noise = _noise_for(cfg.noise, method, seed)
        mu += mutual_coherence(equivalent, ms)
        for first in range(0, len(ms), per_batch):
            cells = by_m[first:first + per_batch]
            counts = [ms[c] for c in cells]
            # each cell measured alone, its readings zero-padded to the batch's largest M
            readings = np.zeros((max(counts), len(counts) * n_images))
            for j, m in enumerate(counts):
                readings[:m, j * n_images:(j + 1) * n_images] = measure(phi[:m], x_test, noise)
            start = time.perf_counter()
            images = psi.atoms @ sparse_code_columns(
                equivalent[: max(counts)], readings, t0, np.repeat(counts, n_images))
            coding_sec[cells] += (time.perf_counter() - start) / len(counts)
            shown = truth[:, : images.shape[1]]
            db = psnr(shown, images).reshape(len(counts), n_images)
            # only +inf is exact: a -inf or NaN PSNR stays in the sum for aggregate to refuse
            inexact = db != np.inf
            mses[cells] += mse(shown, images).reshape(db.shape)
            psnrs[cells] += np.where(inexact, db, 0.0)
            ssims[cells] += ssim(shown, images).reshape(db.shape)
            n_inexact[cells] += inexact
        n_variants += 1
        del phi, equivalent  # one variant's field and D alive at a time

    # means over field seeds; exact (+inf) PSNRs are tallied apart, not averaged
    psnrs[:] = np.where(n_inexact > 0, psnrs / np.maximum(n_inexact, 1), np.inf)
    mses /= n_variants
    ssims /= n_variants
    mu /= n_variants
    records = []
    n_recons = n_variants * n_images
    for c_idx, (sr, m) in enumerate(grid):
        record = ExperimentRecord(
            method=method,
            sr=sr,
            m=m,
            qbits=cfg.qbits,
            mse=mses[c_idx],
            psnr=psnrs[c_idx],
            ssim=ssims[c_idx],
            n_exact=n_recons - int(n_inexact[c_idx].sum()),
            mu=float(mu[c_idx]),
        )
        log.info(
            "%s sr=%.4g M=%d: PSNR %.2f dB, SSIM %.4f, mu %.4f,"
            " %.3g s per reconstruction of its coding batch",
            method, sr, m, record.report.psnr_mean, record.report.ssim_mean, record.mu,
            coding_sec[c_idx] / n_recons,
        )
        records.append(record)
    return records


def _write_csv(path: Path, columns, rows) -> None:
    """``columns`` as the header, then one line per row: floats as ``repr`` gives them (numpy's
    as Python's), the rest as ``str``."""
    lines = [",".join(columns), *(",".join(repr(float(v)) if isinstance(v, float) else str(v)
                                           for v in row) for row in rows)]
    with atomic_write(path) as fh:
        fh.write(("\n".join(lines) + "\n").encode("utf-8"))


def read_results(cfg: ExperimentConfig) -> tuple[list[dict], bool]:
    """The rows of ``run.out``'s ``results.csv``, numbers parsed, and whether the run finished.

    No ``run.out``, no ``results.csv`` under it, or one with no records, is a
    ``ValidationError``; a malformed one is a ``FormatError``. ``finished``
    says whether the ``_DONE`` marker is there.
    """
    out = _check_dir(cfg.out_dir, "run.out", cfg.out_dir)
    path = out / "results.csv"
    if not path.is_file():
        raise ValidationError(f"no results.csv under {out}")
    columns = list(_RESULTS_COLUMNS)
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, [])
            lines = [(reader.line_num, row) for row in reader if row]
    except (UnicodeDecodeError, csv.Error) as exc:
        raise FormatError(f"{path}: not a readable CSV file: {exc}") from exc
    if header != columns:
        missing = [name for name in columns if name not in header]
        raise FormatError(f"{path}: no {missing[0]!r} column" if missing
                          else f"{path}: header is not {','.join(columns)!r}")
    if not lines:
        raise ValidationError(f"{path} has no records")
    rows = []
    for line, values in lines:
        if len(values) != len(columns):
            raise FormatError(f"{path} line {line}: {len(values)} fields, expected {len(columns)}")
        rows.append(row := dict(zip(columns, values)))
        for name in columns[1:]:
            try:
                row[name] = float(row[name])
            except ValueError as exc:
                raise FormatError(
                    f"{path} line {line}, column {name}: {row[name]!r} is not a number"
                ) from exc
    return rows, (out / DONE_MARKER).is_file()


def _emit_curves(records: list[ExperimentRecord], out_dir: Path) -> None:
    """Write per-method (sr, psnr_mean) and (sr, ssim_mean) files, sorted by sr."""
    for method in dict.fromkeys(r.method for r in records):
        cells = sorted((r for r in records if r.method == method), key=lambda r: r.sr)
        for column in ("psnr_mean", "ssim_mean"):
            mean = operator.attrgetter(_RESULTS_COLUMNS[column])
            _write_csv(out_dir / f"curve_{method}_{column.removesuffix('_mean')}.csv",
                       ("sr", column), [(r.sr, mean(r)) for r in cells])


def run_experiment(cfg: ExperimentConfig) -> list[ExperimentRecord]:
    """Execute the full sweep described by ``cfg`` and write all outputs.

    Returns the records in (method, grid) order. Every check runs before the
    sweep, and the sweep before any output: a stale ``_DONE`` marker is cleared
    just before the first file is written, and the marker is written only after
    every file is flushed, so a run that fails before writing leaves ``run.out``
    as it was, and one that fails while writing leaves no marker.
    """
    if not cfg.test_path:
        raise ValidationError("config: data.test path is required")
    out, psi, state, grid = _set_up(cfg)
    test = _subset_or_invalid(cfg.test_path, "test", cfg.test_count, cfg.test_seed)
    if test.pixels_per_image != psi.n_pixels:
        raise ValidationError(
            f"test images have {test.pixels_per_image} pixels, dictionary has {psi.n_pixels}"
        )
    x_test = test.as_columns()

    records = [
        record
        for method, variants in itertools.groupby(_field_variants(cfg, state), lambda v: v[0])
        for record in _run_method(method, variants, grid, psi, x_test, cfg)
    ]

    marker = out / DONE_MARKER
    marker.unlink(missing_ok=True)
    names, attributes = zip(*_RESULTS_COLUMNS.items())
    _write_csv(out / "results.csv", names, map(operator.attrgetter(*attributes), records))
    cell, scores = operator.attrgetter(*attributes[:4]), operator.attrgetter(*_SCORES)
    _write_csv(out / "per_image.csv", (*names[:4], "image", *_SCORES), [
        (*cell(r), i, *image) for r in records for i, image in enumerate(zip(*scores(r)))
    ])
    _emit_curves(records, out)
    marker.touch()
    return records
