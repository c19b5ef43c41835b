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

from test_basemodel import init_rng
from test_datagen import two_cluster_spec

READERS = {
    "model.bin": load_model,
    "corrector.txt": load_ensemble,
    "preds.csv": read_prediction_log,
    "dataset.csv": load_dataset,
}


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("readers")
    gen = np.random.default_rng(0)
    config = ModelConfig(input_shape=(1, 8, 8), conv_channels=(1, 1, 2), n_classes=3)
    save_model(StagedModel(config, init_rng(3)), root / "model.bin")
    x, labels = gen.normal(size=(30, 4)), np.arange(30) % 3
    save_ensemble(fit(x, labels, GbdtConfig(n_rounds=2, max_depth=2), n_classes=3),
                  root / "corrector.txt")
    base, corr = gen.dirichlet(np.ones(3), size=5), gen.dirichlet(np.ones(3), size=5)
    base_labels, corrected = base.argmax(axis=1), corr.argmax(axis=1)
    corrected[0] = NEW_CLASS
    preds = Predictions(base_labels, corrected, corrected != base_labels, base, corr)
    write_prediction_log(preds, np.arange(5) % 3, 3, root / "preds.csv")
    data = generate_gaussian(two_cluster_spec(dim=2), 20, Rng.from_seed(0))
    save_dataset(data, root / "dataset.csv")
    return root, {name: (root / name).read_bytes() for name in READERS}


# the line of each file that gets a non-ASCII byte: a text line of each text
# file, and a line of the text header of the binary checkpoint
NON_ASCII_LINE = {"model.bin": 2, "corrector.txt": 3, "preds.csv": 4, "dataset.csv": 5}


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


def _node_cell(lines: list[str], leaf: bool, cell: int, value: str) -> int:
    """Set one cell of the first leaf (or split) node line; its index."""
    row = next(i for i, line in enumerate(lines) if line.count(",") == 5
               and (line.split(",")[1] == "-1") == leaf)
    cells = lines[row].split(",")
    cells[cell] = value
    lines[row] = ",".join(cells)
    return row


def _header_field(lines: list[str], key: str, value: str) -> int:
    """Set a field of the second header line (index 2); its index."""
    lines[2] = " ".join(f"{key}={value}" if part.startswith(key + "=") else part
                        for part in lines[2].split())
    return 2


def _last_number(lines: list[str], prefix: str, value: str) -> int:
    """Set the last number of the line starting with ``prefix``; its index."""
    row = next(i for i, line in enumerate(lines) if line.startswith(prefix))
    lines[row] = lines[row].rpartition(",")[0] + "," + value
    return row


# edits of a valid corrector.txt that put there a number fit never writes;
# each returns the 0-based index of the line it changed
NON_FINITE = {
    "base_score_inf": lambda ls: _last_number(ls, "base_score=", "inf"),
    "base_score_nan": lambda ls: _last_number(ls, "base_score=", "nan"),
    "importance_inf": lambda ls: _last_number(ls, "importance=", "inf"),
    "loss_curve_nan": lambda ls: _last_number(ls, "loss_curve=", "nan"),
    "loss_curve_minus_inf": lambda ls: _last_number(ls, "loss_curve=", "-inf"),
    "leaf_value_inf": lambda ls: _node_cell(ls, True, 5, "inf"),
    "leaf_value_nan": lambda ls: _node_cell(ls, True, 5, "nan"),
    "threshold_nan": lambda ls: _node_cell(ls, False, 2, "nan"),
    "min_child_weight_inf": lambda ls: _header_field(ls, "min_child_weight", "inf"),
    "lambda_l2_nan": lambda ls: _header_field(ls, "lambda_l2", "nan"),
}


@pytest.mark.parametrize("case", sorted(NON_FINITE))
def test_non_finite_checkpoint_number_names_its_line(valid_files, case):
    root, raws = valid_files
    lines = raws["corrector.txt"].decode("ascii").splitlines()
    row = NON_FINITE[case](lines)
    path = root / f"{case}.corrector.txt"
    path.write_text("\n".join(lines) + "\n", encoding="ascii")
    with pytest.raises(ValueError, match="not finite|is NaN|must be finite") as err:
        load_ensemble(path)
    assert str(err.value).startswith(f"{path}: line {row + 1}: ")


@pytest.mark.parametrize("threshold", ["inf", "-inf"])
def test_infinite_threshold_loads(valid_files, threshold):
    root, raws = valid_files
    lines = raws["corrector.txt"].decode("ascii").splitlines()
    _node_cell(lines, False, 2, threshold)
    path = root / f"threshold_{threshold}.corrector.txt"
    path.write_text("\n".join(lines) + "\n", encoding="ascii")
    ensemble = load_ensemble(path)
    probs = ensemble.predict_proba(np.array([[np.inf] * 4, [-np.inf] * 4, [0.0] * 4]))
    assert np.isfinite(probs).all()

