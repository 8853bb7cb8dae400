"""The three workloads: inputs made from one seed, the timed operation, output checks.

* ``train`` times ``ksvd_train`` at desk shapes. Only the ``dictionary``
  layer works, so it is the bypass workload for reconstruction-side changes.
* ``sweep`` times ``run_experiment`` on the paper's desk grid (5 sampling
  ratios, optimized plus 3 Gaussian seeds, 200 test images): 4000
  reconstructions, mostly OMP on the short, wide ``D = Phi Psi``.
* ``sweep_fine`` times ``run_experiment`` on M = 8..400 in steps of 8 with
  only 4 test images, 8-bit fields and AWGN at 40 dB. Per-cell fixed costs
  (coherence, forming ``D``, field construction) dominate it, so a per-cell
  precompute that pays off on ``sweep`` can lose here.

Every call into the package goes through a module attribute
(``harness.run_experiment``, ``dictionary.ksvd_train``, ...) so that a traced
run can wrap it.

``setup`` writes a workload's files into its work directory and loads them;
``load`` loads them again in another process, without redoing the set-up.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from gifield import data, dictionary, harness, synthdata


@dataclass(frozen=True)
class Shape:
    """Problem sizes; ``DESK`` is the benchmark, ``TINY`` a seconds-long smoke run."""

    train_count: int = 2000
    atoms: int = 1024
    sparsity: int = 8
    train_sweeps: int = 2  # timed K-SVD sweeps on `train`
    setup_sweeps: int = 1  # sweeps of the dictionary each sweep workload trains in set-up
    test_count: int = 200  # `sweep`
    fine_test_count: int = 4  # `sweep_fine`
    eval_test_count: int = 100  # untimed desk-grid evaluation on `train` and `sweep_fine`
    sr_grid: tuple[float, ...] = (0.05, 0.10, 0.20, 0.30, 0.51)
    m_grid: tuple[int, ...] = tuple(range(8, 401, 8))
    gaussian_seeds: int = 3
    setup_reps: int = 3


DESK = Shape()
TINY = Shape(
    train_count=900, atoms=784, sparsity=8, train_sweeps=2, setup_sweeps=1,
    test_count=40, fine_test_count=2, eval_test_count=10,
    sr_grid=(0.10, 0.20), m_grid=(16, 32, 48), gaussian_seeds=1, setup_reps=2,
)

# criterion 5 of the acceptance gates: optimized beats Gaussian by this much here
GAP_SRS = (0.10, 0.20)
GAP_DB = 1.0


@dataclass(frozen=True)
class Seeds:
    """Independent seeds for every random choice, all derived from the workload seed."""

    train_corpus: int
    test_corpus: int
    train_subset: int
    test_subset: int
    ksvd: int
    fields: int
    noise: int

    @classmethod
    def derive(cls, seed: int) -> "Seeds":
        return cls(*(int(v) for v in np.random.SeedSequence(seed).generate_state(7)))


@dataclass
class Context:
    """What set-up leaves for the timed operations."""

    work: Path
    x: np.ndarray | None = None
    training: dictionary.TrainingConfig | None = None
    config: harness.ExperimentConfig | None = None
    dict_path: Path | None = None
    digest: dict | None = None  # the first operation's output hashes, for cross-run checks


def _write_ini(path: Path, sections: dict[str, dict]) -> Path:
    lines = []
    for section, items in sections.items():
        lines.append(f"[{section}]")
        lines.extend(f"{key} = {value}" for key, value in items.items())
        lines.append("")
    path.write_text("\n".join(lines), encoding="utf-8")
    return path


def _grid_summary(records) -> dict[str, float]:
    by = {(r.method, r.sr): r for r in records}
    grid = sorted({r.sr for r in records})
    opt = [by["optimized", sr].report.psnr_mean for sr in grid]
    gauss = [by["gaussian", sr].report.psnr_mean for sr in grid]
    return {
        "psnr_opt_db": float(np.mean(opt)),
        "psnr_gain_db": float(np.mean(opt) - np.mean(gauss)),
        "mu_opt": float(np.mean([r.mu for r in records if r.method == "optimized"])),
    }


def _desk_grid_eval(work: Path, dict_path: Path, seeds: Seeds, shape: Shape):
    """Untimed, untraced desk-grid sweep of a dictionary on ``eval_test_count`` images."""
    test_idx = synthdata.generate_idx(work / "eval.idx", shape.eval_test_count, seeds.test_corpus)
    ini = _write_ini(work / "eval.ini", {
        "data": {"test": test_idx, "test_count": shape.eval_test_count, "test_seed": seeds.test_subset},
        "dictionary": {"path": dict_path},
        "fields": {"sr": ",".join(map(str, shape.sr_grid)), "methods": "optimized,gaussian",
                   "gaussian_seeds": shape.gaussian_seeds, "seed": seeds.fields},
        "run": {"out": work / "eval"},
    })
    return harness.run_experiment(harness.load_config(ini))


def _train_columns(work: Path, seeds: Seeds, shape: Shape) -> np.ndarray:
    """The training signals that set-up wrote, one per column."""
    ds = data.random_subset(data.load_idx_images(work / "train.idx"), shape.train_count, seeds.train_subset)
    return ds.as_columns()


def _final_objective(atoms: np.ndarray, x: np.ndarray, sparsity: int) -> float:
    """``||X - Psi Z||_F**2`` of a trained dictionary, with ``Z`` coded afresh.

    ``ksvd_train`` records its objective before each sweep's atom update; this
    one comes after the last update, so that update shows in it too.
    """
    z = dictionary.sparse_code_columns(atoms, x, sparsity)
    residual = x - atoms @ z
    return float(np.sum(residual * residual))


def _output_digest(out_dir: Path) -> dict[str, str]:
    """sha256 of every output that must repeat byte for byte.

    ``results.csv`` is hashed without its two wall-clock columns.
    """
    digests = {}
    for path in sorted(out_dir.glob("*.csv")):
        raw = path.read_bytes()
        if path.name == "results.csv":
            raw = b"\n".join(b",".join(line.split(b",")[:-2]) for line in raw.split(b"\n"))
        digests[path.name] = hashlib.sha256(raw).hexdigest()
    return digests


class Train:
    def __init__(self, seed: int, shape: Shape = DESK):
        self.seeds = Seeds.derive(seed)
        self.shape = shape

    def setup(self, work: Path) -> Context:
        synthdata.generate_idx(work / "train.idx", self.shape.train_count, self.seeds.train_corpus)
        return self.load(work)

    def load(self, work: Path) -> Context:
        s, sh = self.seeds, self.shape
        training = dictionary.TrainingConfig(
            atom_count=sh.atoms, sparsity=sh.sparsity, sweeps=sh.train_sweeps, seed=s.ksvd
        )
        return Context(work=work, x=_train_columns(work, s, sh), training=training)

    def run(self, ctx: Context):
        return dictionary.ksvd_train(ctx.x, ctx.training)

    def check(self, ctx: Context, out) -> list[str]:
        psi, objectives = out
        failures = []
        try:
            psi.validate()
        except ValueError as exc:
            failures.append(f"dictionary constraints: {exc}")
        if not np.all(np.isfinite(objectives)):
            failures.append("non-finite training objective")
        elif not objectives[-1] < objectives[0]:
            failures.append(f"objective did not fall: {objectives[0]:.6g} -> {objectives[-1]:.6g}")
        digest = {"dictionary": psi.checksum}
        if ctx.digest is None:
            ctx.digest = digest
        elif digest != ctx.digest:
            failures.append("dictionary differs between runs of one seed")
        return failures

    def quality(self, ctx: Context, out) -> dict[str, float]:
        """Objective of the timed training, and imaging quality of its dictionary.

        The dictionary is scored on the desk grid with a small test set; this
        runs after timing and outside the trace.
        """
        psi, _ = out
        dict_path = ctx.work / "trained.gim"
        data.write_matrix(dict_path, psi.atoms, meta={"role": "dictionary", "sparsity": psi.sparsity})
        records = _desk_grid_eval(ctx.work, dict_path, self.seeds, self.shape)
        return {"objective_final": _final_objective(psi.atoms, ctx.x, psi.sparsity),
                **_grid_summary(records)}


class Sweep:
    """``run_experiment`` over a grid described by ``fields``/``noise`` config sections."""

    def __init__(self, seed: int, shape: Shape, test_count: int, fields: dict, noise: dict | None):
        self.seeds = Seeds.derive(seed)
        self.shape = shape
        self.test_count = test_count
        self.fields = fields
        self.noise = noise

    def setup(self, work: Path) -> Context:
        s, sh = self.seeds, self.shape
        train_idx = synthdata.generate_idx(work / "train.idx", sh.train_count, s.train_corpus)
        test_idx = synthdata.generate_idx(work / "test.idx", self.test_count, s.test_corpus)
        dict_path = work / "dictionary.gim"
        sections = {
            "data": {"train": train_idx, "test": test_idx, "train_count": sh.train_count,
                     "train_seed": s.train_subset, "test_count": self.test_count,
                     "test_seed": s.test_subset},
            "dictionary": {"atoms": sh.atoms, "sparsity": sh.sparsity,
                           "sweeps": sh.setup_sweeps, "seed": s.ksvd},
            "fields": {**self.fields, "methods": "optimized,gaussian",
                       "gaussian_seeds": sh.gaussian_seeds, "seed": s.fields},
            "run": {"out": work / "out"},
        }
        if self.noise:
            sections["noise"] = {**self.noise, "seed": s.noise}
        harness.train_dictionary(harness.load_config(_write_ini(work / "train.ini", sections)), dict_path)
        sections["dictionary"] = {"path": dict_path}
        _write_ini(work / "run.ini", sections)
        return self.load(work)

    def load(self, work: Path) -> Context:
        config = harness.load_config(work / "run.ini")
        return Context(work=work, config=config, dict_path=work / "dictionary.gim")

    def run(self, ctx: Context):
        return harness.run_experiment(ctx.config)

    def check(self, ctx: Context, records) -> list[str]:
        out_dir = Path(ctx.config.out_dir)
        failures = []
        if not (out_dir / harness.DONE_MARKER).exists():
            failures.append("_DONE marker missing")
        digest = _output_digest(out_dir)
        if "per_image.csv" not in digest or not any(n.startswith("curve_") for n in digest):
            failures.append(f"outputs missing: {sorted(digest)}")
        if ctx.digest is None:
            ctx.digest = digest
        elif digest != ctx.digest:
            changed = sorted(n for n in digest.keys() | ctx.digest.keys()
                             if digest.get(n) != ctx.digest.get(n))
            failures.append(f"outputs differ between runs: {changed}")
        return failures + self.criteria(records)

    def criteria(self, records) -> list[str]:
        return []

    def quality(self, ctx: Context, records) -> dict[str, float]:
        """Objective of the set-up dictionary; PSNR and coherence of this grid."""
        atoms = data.read_matrix(ctx.dict_path)
        x = _train_columns(ctx.work, self.seeds, self.shape)
        return {"objective_final": _final_objective(atoms, x, self.shape.sparsity),
                **_grid_summary(records)}


class DeskSweep(Sweep):
    def __init__(self, seed: int, shape: Shape = DESK):
        super().__init__(seed, shape, shape.test_count,
                         {"sr": ",".join(map(str, shape.sr_grid)), "qbits": 0}, None)

    def criteria(self, records) -> list[str]:
        """Criterion 5: a >= 1 dB PSNR gap at SR 0.10 and 0.20, SSIM ordered everywhere."""
        by = {(r.method, r.sr): r.report for r in records}
        failures = []
        for sr in GAP_SRS:
            gap = by["optimized", sr].psnr_mean - by["gaussian", sr].psnr_mean
            if gap < GAP_DB:
                failures.append(f"PSNR gap {gap:+.2f} dB at SR {sr} (>= {GAP_DB} required)")
        for sr in sorted({r.sr for r in records}):
            if by["optimized", sr].ssim_mean < by["gaussian", sr].ssim_mean:
                failures.append(f"SSIM order broken at SR {sr}")
        return failures


class FineSweep(Sweep):
    def __init__(self, seed: int, shape: Shape = DESK):
        super().__init__(seed, shape, shape.fine_test_count,
                         {"m": ",".join(map(str, shape.m_grid)), "qbits": 8},
                         {"kind": "awgn", "snr_db": 40})

    def criteria(self, records) -> list[str]:
        bad = sorted({r.qbits for r in records} - {8})
        return [f"records with qbits {bad}, expected 8"] if bad else []

    def quality(self, ctx: Context, records) -> dict[str, float]:
        """``mu_opt`` from the fine grid; PSNR from the desk grid, noiseless and unquantized.

        The fine grid's own PSNR rests on 4 noisy images and its optimized -
        Gaussian gap sits near 0 dB, so it cannot carry a relative bound.
        """
        desk = _grid_summary(_desk_grid_eval(ctx.work, ctx.dict_path, self.seeds, self.shape))
        own = super().quality(ctx, records)
        return {**own, "psnr_opt_db": desk["psnr_opt_db"], "psnr_gain_db": desk["psnr_gain_db"]}


WORKLOADS = {"train": Train, "sweep": DeskSweep, "sweep_fine": FineSweep}
