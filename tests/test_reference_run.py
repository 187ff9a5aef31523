"""Whole runs of `sca train` against benchmarks/reference.py, an independent Gram-form derivation.

The reference re-derives the vocabulary, split, init, median bandwidth, seeded schedule, both
trainers, lr halving and held-out perplexity from the generated documents alone, sharing no code
with src/sca. Each case runs the program in-process through cli.main on the toy_sca workload with
fewer epochs, embeddings only or in joint mode, and checks the three figures the benchmark's
output check gates, at its tolerance. One joint recipe weights the coherence term enough that
the epoch loss turns up, so the learning-rate halving is checked too.
"""

import csv
import dataclasses
import json
import sys
from pathlib import Path

import pytest

from sca import cli
from sca.trainer import TrainConfig

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))
from reference import reference  # noqa: E402
from workloads import WORKLOADS, write_config, write_corpus  # noqa: E402

# the benchmark's check tolerance |got - ref| <= RTOL |ref| + ATOL_SCALE loss_first, copied
# from benchmarks/run.py, which pins BLAS threads when imported
RTOL = 1e-6
ATOL_SCALE = 1e-6
CHECKED = ("loss_first", "loss_final", "perplexity_heldout")

TOY = WORKLOADS["toy_sca"]
RECIPES = {
    "toy_sca": dataclasses.replace(TOY, epochs=10),
    "joint_cosine": dataclasses.replace(TOY, epochs=5, kernel="cosine", lam=0.5),
    "joint_rbf": dataclasses.replace(TOY, epochs=5, kernel="rbf", lam=0.5),
    # a coherence weight large enough that the epoch loss turns up, so the rate halves
    "joint_halving": dataclasses.replace(TOY, epochs=10, kernel="cosine", lam=2.0),
}
# the lowest learning rate in each recipe's loss_curve.csv, at both seeds; the others keep lr
LOWEST_LR = {"joint_halving": TrainConfig.lr / 4}


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("recipe", list(RECIPES))
def test_run_matches_the_reference(tmp_path, recipe, seed):
    workload = RECIPES[recipe]
    docs = workload.documents(seed)
    manifest = write_corpus(docs, tmp_path / "corpus")
    out = tmp_path / "run"
    argv = ["train", "--corpus", str(manifest), "--config", str(write_config(tmp_path)),
            "--out", str(out), *workload.train_flags(seed)]
    assert cli.main(argv) == 0
    got = json.loads((out / "reports" / "summary.json").read_text(encoding="utf-8"))
    ref = reference(docs, workload, seed)
    assert got["epochs_run"] == workload.epochs
    with open(out / "loss_curve.csv", encoding="utf-8", newline="") as fh:
        rates = [float(row["lr"]) for row in csv.DictReader(fh)]
    assert rates[0] == TrainConfig.lr and min(rates) == LOWEST_LR.get(recipe, TrainConfig.lr)
    for key in CHECKED:
        want = getattr(ref, key)
        assert abs(got[key] - want) <= RTOL * abs(want) + ATOL_SCALE * ref.loss_first, key
    # the reference never bounds a field, so it holds only while the default bound cannot act
    assert ref.sigma_max < TrainConfig.rho
