"""The three benchmark workloads, driven through mclab's public functions.

Each workload builds its mclab config from the master seed alone, sets up
once per ``setup`` call, runs one closed-loop pass per ``run_pass`` call (the
caller waits for every pass to finish) and checks a pass's outputs in
``check``, outside the timed section. A pass returns the sha256 digest of its
artifacts, so passes of one invocation can be compared byte for byte.

Every workload runs the default experiment config with these changes, so
that one invocation fits its time budget and the work per pass does not
depend on the seed:

- ``train.max_epochs = train.patience = EPOCHS``: every run trains exactly
  EPOCHS epochs (early stopping cannot fire), where the default stops after
  a seed-dependent 18 to 53 epochs;
- ``gbdt.n_rounds = GBDT_ROUNDS`` (default 200) for the corrector fits;
- ``dataset.n_total = SWEEP_N_TOTAL`` (default 7000) for ``sweep`` and
  ``compose_infer``. At this size the sweep still spends a little more time
  fitting correctors than training, as the default sweep does.
"""

from __future__ import annotations

import hashlib
import json
import shutil
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from mclab import basemodel, composer, core, corrector, datagen, harness, metrics

EPOCHS = 8
GBDT_ROUNDS = 30
SWEEP_N_TOTAL = 1750
COMPOSE_EXCLUDED = 6
COMPOSE_BATCH = 50_000

# The hard floors of the sweep fixture. Only the base-TPR floor is a check:
# it follows from masking the class out of training and holds for every seed.
# retention_macro_min and gain_excluded_min were recorded for master seed 0
# at n_total=7000; other seeds miss them even at the default config (seed 1,
# n_total=3500: retention_macro 0.850 with class 3 excluded), so they are
# reported, not enforced.
FIXTURE = Path("tests/fixtures/reference_toy.json")


def experiment_config(seed: int, output_dir: str, n_total: int | None = None):
    doc = {
        "name": "bench",
        "seed": seed,
        "output_dir": output_dir,
        "train": {"max_epochs": EPOCHS, "patience": EPOCHS},
        "gbdt": {"n_rounds": GBDT_ROUNDS},
    }
    if n_total is not None:
        doc["dataset"] = {"n_total": n_total}
    return harness.normalize_config(doc)


def train_split_size(config) -> int:
    """Build and split the dataset the way a run does; checks that every
    exclusion run can fit its corrector, and returns the train split size."""
    data = harness.build_dataset(config)
    spec = core.SplitSpec(
        fractions=config.split.fractions,
        seed=core.derived_seed(config.seed, "split"),
        stratified=config.split.stratified,
    )
    train_set, correct_set, _ = core.split_dataset(data, spec)
    missing = set(range(config.model.n_classes)) - set(np.unique(correct_set.labels).tolist())
    if missing:
        raise ValueError(f"correct split lacks classes {sorted(missing)}")
    return len(train_set)


def sha256_files(*paths: Path) -> str:
    digest = hashlib.sha256()
    for path in paths:
        digest.update(path.read_bytes())
    return digest.hexdigest()


@dataclass
class PassOutput:
    digest: str
    items: int  # units of work the pass completed, for the throughput metric
    result: object  # what the check inspects


class Workload:
    name = ""
    why = ""
    throughput_name = ""  # the name the output gives this workload's throughput
    item = ""  # what one unit of throughput is
    setup_repeats = 5
    uses_pool = False  # True: passes run over one worker process per CPU

    def __init__(self, root: Path, seed: int):
        self.root = root
        self.seed = seed
        self.work = Path(".bench_work") / f"{self.name}-seed{seed}"

    def setup(self) -> None:
        raise NotImplementedError

    def run_pass(self, jobs: int) -> PassOutput:
        raise NotImplementedError

    def check(self, out: PassOutput) -> list[str]:
        """Problems found in a pass's outputs; empty when they are correct."""
        raise NotImplementedError

    def quality(self, out: PassOutput) -> dict:
        return {}


class TrainBase(Workload):
    name = "train_base"
    why = ("base training alone at the default 7000 samples: conv fwd/bwd dominate, "
           "corrector and composer are bypassed")
    throughput_name = "train_throughput"
    item = "sample-epochs"

    def setup(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        self.config = experiment_config(self.seed, str(self.work))
        self.fit_size = train_split_size(self.config)

    def run_pass(self, jobs: int) -> PassOutput:
        result = harness.run_single(self.config, excluded=None, base_only=True)
        run_dir = Path(result.run_dir)
        return PassOutput(
            digest=sha256_files(run_dir / "model.bin", run_dir / "history.csv"),
            items=self.fit_size * len(result.history.rows),
            result=result,
        )

    def check(self, out: PassOutput) -> list[str]:
        problems = []
        rows = out.result.history.rows
        if len(rows) != EPOCHS:
            problems.append(f"trained {len(rows)} epochs, expected {EPOCHS}")
        if not all(np.isfinite(loss) for _, loss, _ in rows):
            problems.append("non-finite train loss")
        model = basemodel.load_model(Path(out.result.run_dir) / "model.bin")
        if model.config != self.config.model:
            problems.append("model.bin holds another architecture")
        if not out.result.history.best_val_acc > 1.0 / self.config.model.n_classes:
            problems.append(f"best val accuracy {out.result.history.best_val_acc} is at chance")
        return problems

    def quality(self, out: PassOutput) -> dict:
        return {"best_val_acc": out.result.history.best_val_acc}


class Sweep(Workload):
    name = "sweep"
    why = ("the paper's exclusion sweep (baseline + 7 runs, n_total 1750) over nproc "
           "workers: corrector fit and training share the time, plus pool and persist")
    throughput_name = "runs_per_s"
    item = "runs"
    uses_pool = True

    def setup(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        self.config = experiment_config(self.seed, str(self.work), SWEEP_N_TOTAL)
        train_split_size(self.config)
        thresholds = json.loads((self.root / FIXTURE).read_text(encoding="utf-8"))["thresholds"]
        self.thresholds = {k: v for k, v in thresholds.items() if k != "fixture_drift"}

    def run_pass(self, jobs: int) -> PassOutput:
        sweep = harness.run_sweep(self.config, jobs=jobs)
        return PassOutput(
            digest=sha256_files(sweep.root / "manifest.json"),
            items=1 + len(sweep.runs),
            result=sweep,
        )

    def check(self, out: PassOutput) -> list[str]:
        problems = []
        sweep = out.result
        tpr_max = self.thresholds["tpr_base_excluded_max"]
        for c, run in sweep.runs.items():
            tpr = run.report.per_class[c].tpr_base
            if tpr is None or tpr > tpr_max:
                problems.append(f"class {c}: base TPR of the excluded class {tpr} > {tpr_max}")
        manifest = json.loads((sweep.root / "manifest.json").read_text(encoding="ascii"))
        for tag, files in manifest["runs"].items():
            for fname, digest in files.items():
                if sha256_files(sweep.root / tag / fname) != digest:
                    problems.append(f"{tag}/{fname} does not match manifest.json")
        reloaded = harness.load_sweep(sweep.root)
        if reloaded.baseline.report != sweep.baseline.report:
            problems.append("baseline report differs after load_sweep")
        for c, run in sweep.runs.items():
            if reloaded.runs[c].report != run.report:
                problems.append(f"class {c}: report differs after load_sweep")
        return problems

    def quality(self, out: PassOutput) -> dict:
        runs = out.result.runs
        retention = {c: r.report.aggregate.retention_macro for c, r in runs.items()}
        gain = {c: r.report.per_class[c].gain for c, r in runs.items()}
        t = self.thresholds
        return {
            "retention_macro": retention,
            "gain_excluded": gain,
            "floors_met": {
                "retention_macro_min": sum(v >= t["retention_macro_min"] for v in retention.values()),
                "gain_excluded_min": sum(v is not None and v > t["gain_excluded_min"]
                                         for v in gain.values()),
                "of": len(runs),
            },
        }


class ComposeInfer(Workload):
    name = "compose_infer"
    why = ("one class-6 exclusion run is set up, then 50k fresh samples go through "
           "compose_batch: forward passes and tree evaluation only, no fitting")
    throughput_name = "compose_samples_per_s"
    item = "samples"
    setup_repeats = 3

    def setup(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        self.config = config = experiment_config(self.seed, str(self.work), SWEEP_N_TOTAL)
        result = harness.run_single(config, excluded=COMPOSE_EXCLUDED)
        run_dir = Path(result.run_dir)
        self.model = basemodel.load_model(run_dir / "model.bin")
        self.ensemble = corrector.load_ensemble(run_dir / "corrector.txt")
        self.policy = replace(config.policy, excluded_label=COMPOSE_EXCLUDED)
        rng = core.Rng.from_seed(self.seed).derive("perfbench", "compose_batch")
        cluster = config.dataset.profile.to_cluster_spec()
        self.batch = datagen.generate_gaussian(cluster, COMPOSE_BATCH, rng)
        self.k = config.model.n_classes
        self.log_path = self.work / "preds.csv"

    def run_pass(self, jobs: int) -> PassOutput:
        preds = composer.compose_batch(self.model, self.ensemble, self.policy, self.batch)
        composer.write_prediction_log(preds, self.batch.labels, self.k, self.log_path)
        paired = metrics.PairedPredictions(
            self.batch.labels,
            np.array([p.base_label for p in preds], dtype=np.int64),
            np.array([p.corrected_label for p in preds], dtype=np.int64),
            self.k,
        )
        report = metrics.evaluate(paired)
        return PassOutput(
            digest=sha256_files(self.log_path), items=len(preds), result=(preds, report)
        )

    def check(self, out: PassOutput) -> list[str]:
        problems = []
        preds, report = out.result
        # the excluded_only policy, applied to whole arrays
        _, base_probs = basemodel.predict_batch(self.model, self.batch)
        latents, _ = basemodel.stack_latents(basemodel.extract_latents(self.model, self.batch))
        corr_probs = self.ensemble.predict_proba(latents)
        exc = self.policy.excluded_label
        base_label = base_probs.argmax(axis=1)
        fire = (corr_probs.argmax(axis=1) == exc) & (corr_probs[:, exc] >= self.policy.tau)
        expected = np.where(fire, core.NEW_CLASS if self.policy.as_new_class else exc, base_label)
        got_base = np.array([p.base_label for p in preds])
        got = np.array([p.corrected_label for p in preds])
        got_fired = np.array([p.overridden for p in preds])
        if not np.array_equal(got_base, base_label):
            problems.append("base labels differ from predict_batch")
        if not np.array_equal(got, expected):
            problems.append(f"{int(np.sum(got != expected))} corrected labels differ "
                            "from the vectorised excluded_only policy")
        if not np.array_equal(got_fired, expected != base_label):
            problems.append("override flags differ from the vectorised policy")
        log = composer.read_prediction_log(self.log_path)
        paired = metrics.PairedPredictions.from_log(log)
        fast = metrics.evaluate(paired)
        if fast != metrics.brute_force_oracle(paired):
            problems.append("metrics.evaluate differs from brute_force_oracle on the log")
        if fast != report:
            problems.append("report of the re-read log differs from the pass's report")
        return problems

    def quality(self, out: PassOutput) -> dict:
        preds, report = out.result
        return {
            "override_rate": sum(p.overridden for p in preds) / len(preds),
            "gain_excluded": report.per_class[COMPOSE_EXCLUDED].gain,
            "retention_macro": report.aggregate.retention_macro,
        }


WORKLOADS = {w.name: w for w in (TrainBase, Sweep, ComposeInfer)}
