"""Every file reader under damage: a valid file truncated at any byte or with
any byte flipped must either load or raise a ValueError that names the path,
and a non-ASCII byte in a file's text is named by its line and offset."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mclab.basemodel import ModelConfig, StagedModel, load_model, save_model
from mclab.composer import Predictions, read_prediction_log, write_prediction_log
from mclab.core import NEW_CLASS, Rng
from mclab.corrector import GbdtConfig, fit, load_ensemble, save_ensemble
from mclab.datagen import generate_gaussian, load_dataset, save_dataset

from test_datagen import two_cluster_spec

READERS = {
    "model.bin": load_model,
    "corrector.txt": load_ensemble,
    "preds.csv": read_prediction_log,
    "dataset.csv": load_dataset,
    "dataset.bin": load_dataset,
}


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("readers")
    gen = np.random.default_rng(0)
    config = ModelConfig(input_shape=(1, 8, 8), conv_channels=(1, 1, 2), n_heads=1, n_classes=3)
    save_model(StagedModel(config, seed=3), root / "model.bin")
    x, labels = gen.normal(size=(30, 4)), np.arange(30) % 3
    save_ensemble(fit(x, labels, GbdtConfig(n_rounds=2, max_depth=2, seed=1), n_classes=3),
                  root / "corrector.txt")
    base, corr = gen.dirichlet(np.ones(3), size=5), gen.dirichlet(np.ones(3), size=5)
    base_labels, corrected = base.argmax(axis=1), corr.argmax(axis=1)
    corrected[0] = NEW_CLASS
    preds = Predictions(base_labels, corrected, corrected != base_labels, base, corr)
    write_prediction_log(preds, np.arange(5) % 3, 3, root / "preds.csv")
    data = generate_gaussian(two_cluster_spec(dim=2), 20, Rng.from_seed(0))
    save_dataset(data, root / "dataset.csv")
    save_dataset(data, root / "dataset.bin")
    return root, {name: (root / name).read_bytes() for name in READERS}


# the line of each file that gets a non-ASCII byte: a text line of each text
# file, and a line of the text header of each binary one
NON_ASCII_LINE = {"model.bin": 2, "corrector.txt": 3, "preds.csv": 4, "dataset.csv": 5,
                  "dataset.bin": 1}


@pytest.mark.parametrize("name", sorted(READERS))
def test_non_ascii_byte_names_its_line(valid_files, name):
    root, raws = valid_files
    raw, line = raws[name], NON_ASCII_LINE[name]
    offset = 0
    for _ in range(line - 1):
        offset = raw.index(b"\n", offset) + 1
    path = root / f"non_ascii.{name}"
    path.write_bytes(raw[:offset + 1] + b"\xe9" + raw[offset + 1:])
    with pytest.raises(ValueError) as err:
        READERS[name](path)
    assert str(err.value).startswith(
        f"{path}: line {line}: non-ASCII byte 0xe9 at offset {offset + 1}")


def test_non_ascii_line_counts_every_line_break(tmp_path):
    path = tmp_path / "preds.csv"
    path.write_bytes(b"# mclab-preds v1 K=3\rsample_id\xe9\n")
    with pytest.raises(ValueError) as err:
        read_prediction_log(path)
    assert str(err.value).startswith(f"{path}: line 2: non-ASCII byte 0xe9 at offset 30")


@pytest.mark.parametrize("name", sorted(READERS))
@settings(max_examples=120, deadline=None)
@given(edit=st.data())
def test_damaged_file_loads_or_names_its_path(valid_files, name, edit):
    root, raws = valid_files
    raw = raws[name]
    at = edit.draw(st.integers(0, len(raw) - 1), label="byte")
    if edit.draw(st.booleans(), label="truncate"):
        damaged = raw[:at]
    else:
        mask = edit.draw(st.integers(1, 255), label="xor mask")
        damaged = raw[:at] + bytes([raw[at] ^ mask]) + raw[at + 1:]
    path = root / f"damaged.{name}"
    path.write_bytes(damaged)
    try:
        READERS[name](path)
    except ValueError as exc:
        assert str(path) in str(exc)
