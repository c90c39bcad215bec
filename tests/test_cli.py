import json
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from nncompress import tensor as T
from nncompress.api import create_compressed_model
from nncompress.cli import main
from nncompress.data import make_dataset
from nncompress.models import build_model
from nncompress.serialize import (
    SerializationError, deserialize_model, load_checkpoint, load_model, save_checkpoint, save_model, serialize_model,
)
from nncompress.tensor import Tensor
from nncompress.train import train_model

from test_api import BAD_VALUE_IDS, BAD_VALUES, NEGATIVE_SEEDS, REPO
from test_serialize import (
    BAD_BATCHNORM_ATTRS, DELETE, JSON_VALUES, MALFORMED_HOOKS, MALFORMED_MANIFESTS, MISMATCHED_PARAMETERS, _setting,
    binarized_model, live_manifest, quantized_model, with_manifest,
)


def run_cli(argv, capsys):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def train_args(out_dir, config=None, model="mlp-small", dataset="blobs", epochs=2, seed=0,
               extra=()):
    argv = ["train", "--model", model, "--dataset", dataset, "--epochs", str(epochs),
            "--seed", str(seed), "--out", str(out_dir), "--samples", "128"]
    if config is not None:
        argv += ["--config", str(config)]
    return argv + list(extra)


def write_config(tmp_path, cfg, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return p


def test_train_writes_metrics_and_checkpoint(tmp_path, capsys):
    out = tmp_path / "run"
    code, stdout, _ = run_cli(train_args(out), capsys)
    assert code == 0
    lines = (out / "metrics.jsonl").read_text().strip().splitlines()
    assert len(lines) == 2
    rec = json.loads(lines[-1])
    assert {"epoch", "task_loss", "val_accuracy", "val_loss"} <= set(rec)
    assert (out / "checkpoint.nncm").exists()
    # every epoch is also echoed to stdout as json
    assert json.loads(stdout.strip().splitlines()[0])["epoch"] == 0


def test_train_is_deterministic(tmp_path, capsys):
    cfg = write_config(tmp_path, {"compression": [{"algorithm": "quantization", "bits": 8}]})
    blobs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code, _, _ = run_cli(train_args(out, config=cfg, epochs=3), capsys)
        assert code == 0
        blobs.append(((out / "metrics.jsonl").read_bytes(), (out / "checkpoint.nncm").read_bytes()))
    assert blobs[0] == blobs[1]


def test_env_seed_overrides_flag(tmp_path, capsys, monkeypatch):
    out_flag = tmp_path / "flag"
    code, _, _ = run_cli(train_args(out_flag, seed=9), capsys)
    assert code == 0

    monkeypatch.setenv("NNCOMPRESS_SEED", "9")
    out_env = tmp_path / "env"
    code, _, _ = run_cli(train_args(out_env, seed=1234), capsys)
    assert code == 0
    assert (out_env / "metrics.jsonl").read_bytes() == (out_flag / "metrics.jsonl").read_bytes()


def test_missing_and_malformed_config(tmp_path, capsys):
    code, _, err = run_cli(train_args(tmp_path / "o1", config=tmp_path / "nope.json"), capsys)
    assert code == 2 and "cannot read config" in err

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli(train_args(tmp_path / "o2", config=bad), capsys)
    assert code == 2

    cfg = write_config(tmp_path, {"compression": [{"algorithm": "quantization", "bitz": 4}]})
    code, _, err = run_cli(train_args(tmp_path / "o3", config=cfg), capsys)
    assert code == 2 and "bitz" in err


@pytest.mark.parametrize("section, path", BAD_VALUES, ids=BAD_VALUE_IDS)
def test_mistyped_config_exits_2(tmp_path, capsys, section, path):
    cfg = write_config(tmp_path, {"compression": [section]})
    argv = train_args(tmp_path / "out", config=cfg, model="cnn-residual", dataset="stripes")
    code, _, err = run_cli(argv, capsys)
    assert code == 2 and f"compression[0].{path}" in err


@pytest.mark.parametrize("config, path", NEGATIVE_SEEDS, ids=[p for _, p in NEGATIVE_SEEDS])
def test_negative_config_seed_exits_2(tmp_path, capsys, config, path):
    argv = train_args(tmp_path / "out", config=write_config(tmp_path, config), model="cnn-small", dataset="stripes")
    code, _, err = run_cli(argv, capsys)
    assert code == 2 and f"config key {path!r} is out of range" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_unknown_dataset_and_model(tmp_path, capsys):
    code, _, err = run_cli(train_args(tmp_path / "o", dataset="mnist"), capsys)
    assert code == 2 and "dataset" in err
    with pytest.raises(SystemExit) as exc:
        main(train_args(tmp_path / "o", model="resnet50"))
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["train", "--batch-size", "0"],
        ["train", "--samples", "1"],
        ["eval", "--model", "model.nncm", "--dataset", "blobs", "--samples", "0"],
    ],
    ids=["train-batch-size-0", "train-samples-1", "eval-samples-0"],
)
def test_sizes_below_one_exit_2(tmp_path, capsys, argv):
    if argv[0] == "train":
        argv = train_args(tmp_path / "o") + argv[1:]
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("epochs", ["0", "-2"])
def test_epochs_below_one_exit_2(tmp_path, capsys, epochs):
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        main(train_args(out, extra=["--epochs", epochs]))
    assert exc.value.code == 2
    assert "--epochs: must be a positive integer" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "flag, value",
    [("--lr", "-0.1"), ("--lr", "0"), ("--lr", "nan"), ("--lr", "inf"), ("--momentum", "1.5"), ("--momentum", "-1"),
     ("--seed", "-3")],
)
def test_bad_training_flag_exits_2(tmp_path, capsys, flag, value):
    """A learning rate that is not a finite number > 0, a momentum outside
    [0, 1) or a negative seed is refused while parsing, before any training."""
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        main(train_args(out, extra=[flag, value]))
    assert exc.value.code == 2
    assert f"argument {flag}: must be " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "variable, value, message",
    [("NNCOMPRESS_LOG_LEVEL", "bogus", "must be a logging level name, got 'BOGUS'"),
     ("NNCOMPRESS_SEED", "abc", "must be a non-negative integer, got 'abc'"),
     ("NNCOMPRESS_SEED", "-3", "must be a non-negative integer, got -3")],
)
def test_bad_environment_variable_exits_2(tmp_path, capsys, monkeypatch, variable, value, message):
    monkeypatch.setenv(variable, value)
    out = tmp_path / "o"
    code, _, err = run_cli(train_args(out), capsys)
    assert code == 2 and f"error: {variable}: {message}" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_exits_3(tmp_path, capsys):
    code, _, err = run_cli(
        train_args(tmp_path / "o", epochs=3, extra=["--lr", "1e100"]), capsys
    )
    assert code == 3
    assert "non-finite" in err


def test_export_then_eval_flow(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {"compression": [{"algorithm": "filter_pruning", "criterion": "l2", "pruning_rate": 0.3}]},
    )
    out = tmp_path / "run"
    code, _, _ = run_cli(
        train_args(out, config=cfg, model="cnn-small", dataset="stripes", epochs=3), capsys
    )
    assert code == 0

    model_path = tmp_path / "model.nncm"
    code, stdout, _ = run_cli(
        ["export", "--checkpoint", str(out / "checkpoint.nncm"), "--out", str(model_path)], capsys
    )
    assert code == 0
    before, after = [int(s) for s in stdout.split("parameters")[1].split("->")]
    assert after < before

    code, stdout, _ = run_cli(
        ["eval", "--model", str(model_path), "--dataset", "stripes", "--samples", "64"], capsys
    )
    assert code == 0
    acc = float(stdout.split("accuracy")[1].split()[0])
    assert 0.0 <= acc <= 1.0


def test_eval_shape_mismatch(tmp_path, capsys):
    out = tmp_path / "run"
    code, _, _ = run_cli(train_args(out), capsys)
    assert code == 0
    model_path = tmp_path / "m.nncm"
    code, _, _ = run_cli(
        ["export", "--checkpoint", str(out / "checkpoint.nncm"), "--out", str(model_path)], capsys
    )
    assert code == 0
    # mlp trained on 8-dim blobs cannot consume 8x8 images
    code, _, err = run_cli(["eval", "--model", str(model_path), "--dataset", "stripes"], capsys)
    assert code == 2 and err


@pytest.mark.parametrize(
    "edit",
    [
        lambda attrs: attrs.pop("kernel"),
        lambda attrs: attrs.update(kernel="2"),
        lambda attrs: attrs.update(kernel=True),
    ],
    ids=["missing", "string", "bool"],
)
def test_bad_node_attr_is_a_graph_error(tmp_path, capsys, edit):
    def edit_conv1(manifest):
        edit(next(n for n in manifest["nodes"] if n["id"] == "conv1")["attrs"])
        return manifest

    path = tmp_path / "m.nncm"
    path.write_bytes(with_manifest(serialize_model(build_model("cnn-small")), edit_conv1))
    with pytest.raises(SerializationError, match="Conv2D 'conv1': .*attr 'kernel'"):
        load_model(path)
    code, _, err = run_cli(["eval", "--model", str(path), "--dataset", "stripes", "--samples", "16"], capsys)
    assert code == 2 and "conv1" in err and "kernel" in err


# an edit of a checkpoint's ``extra.checkpoint`` record, and the field its error names
BAD_CHECKPOINT_RECORDS = {
    "record-int": (_setting("extra", "checkpoint", value=5), "'checkpoint'"),
    "record-list": (_setting("extra", "checkpoint", value=[]), "'checkpoint'"),
    "config-missing": (_setting("extra", "checkpoint", "config", value=DELETE), "'config'"),
    "config-string": (_setting("extra", "checkpoint", "config", value="cfg.json"), "'config'"),
    "epoch-missing": (_setting("extra", "checkpoint", "epoch", value=DELETE), "'epoch'"),
    "epoch-negative": (_setting("extra", "checkpoint", "epoch", value=-1), "'epoch'"),
    "epoch-float": (_setting("extra", "checkpoint", "epoch", value=1.5), "'epoch'"),
    "epoch-bool": (_setting("extra", "checkpoint", "epoch", value=True), "'epoch'"),
    "state-null": (_setting("extra", "checkpoint", "state", value=None), "'state'"),
}


@pytest.mark.parametrize("command", ["stats", "export"])
@pytest.mark.parametrize("case", sorted(BAD_CHECKPOINT_RECORDS))
def test_bad_checkpoint_record_exits_2(tmp_path, capsys, command, case):
    """The checksum covers only the blob, so an edited record loads this far;
    both commands that read a checkpoint reject it with the field's name."""
    edit, name = BAD_CHECKPOINT_RECORDS[case]
    good = tmp_path / "good.nncm"
    save_checkpoint(build_model("cnn-small"), good, config={"compression": []}, epoch=0)
    path = tmp_path / "ckpt.nncm"
    path.write_bytes(with_manifest(good.read_bytes(), edit))
    with pytest.raises(SerializationError, match=name):
        load_checkpoint(path)
    argv = {"stats": ["stats", "--checkpoint", str(path)],
            "export": ["export", "--checkpoint", str(path), "--out", str(tmp_path / "out.nncm")]}[command]
    code, _, err = run_cli(argv, capsys)
    assert code == 2 and name in err and "Traceback" not in err
    assert not (tmp_path / "out.nncm").exists()
    assert run_cli(argv[:2] + [str(good)] + argv[3:], capsys)[0] == 0


@pytest.mark.parametrize("edit,message", MALFORMED_MANIFESTS)
def test_malformed_manifest_exits_2(tmp_path, capsys, edit, message):
    path = tmp_path / "m.nncm"
    path.write_bytes(with_manifest(serialize_model(build_model("cnn-small")), edit))
    code, _, err = run_cli(["eval", "--model", str(path), "--dataset", "stripes", "--samples", "16"], capsys)
    assert code == 2 and re.search(message, err)


def eval_exits_2(tmp_path, capsys, data: bytes) -> str:
    """``eval`` of a model file holding ``data`` exits 2 without a traceback; returns its stderr."""
    path = tmp_path / "m.nncm"
    path.write_bytes(data)
    code, _, err = run_cli(["eval", "--model", str(path), "--dataset", "stripes", "--samples", "16"], capsys)
    assert code == 2 and err.startswith("error: ") and "Traceback" not in err
    return err


@pytest.mark.parametrize("model,edit,message", MALFORMED_HOOKS)
def test_malformed_hook_exits_2(tmp_path, capsys, model, edit, message):
    assert re.search(message, eval_exits_2(tmp_path, capsys, with_manifest(serialize_model(model()), edit)))


@pytest.mark.parametrize("edit, message", MISMATCHED_PARAMETERS)
def test_parameter_table_mismatch_exits_2(tmp_path, capsys, edit, message):
    err = eval_exits_2(tmp_path, capsys, with_manifest(serialize_model(build_model("cnn-small")), edit))
    assert message in err


@pytest.mark.parametrize("model", [quantized_model, binarized_model], ids=["pre-param", "pre-input"])
def test_hook_before_the_input_exits_2(tmp_path, capsys, model):
    data = with_manifest(serialize_model(model()), _setting("hooks", 1, "node_id", value="input"))
    assert "the input has only an output" in eval_exits_2(tmp_path, capsys, data)


def test_stats_lists_compression_hooks(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {
            "compression": [
                {"algorithm": "magnitude_sparsity", "schedule": {"init": 0.2, "target": 0.5, "epochs": 2}},
                {"algorithm": "quantization", "bits": 4},
            ]
        },
    )
    out = tmp_path / "run"
    code, _, _ = run_cli(
        train_args(out, config=cfg, model="cnn-small", dataset="stripes", epochs=3), capsys
    )
    assert code == 0
    code, stdout, _ = run_cli(["stats", "--checkpoint", str(out / "checkpoint.nncm")], capsys)
    assert code == 0
    assert "magnitude_sparsity" in stdout and "quantization" in stdout
    assert "fake-quant symmetric" in stdout and "4b" in stdout
    assert "parameters: 418" in stdout


def test_stats_shows_pruned_filter_counts(tmp_path, capsys):
    cfg = write_config(
        tmp_path, {"compression": [{"algorithm": "filter_pruning", "pruning_rate": 0.3}]}
    )
    out = tmp_path / "run"
    code, _, _ = run_cli(
        train_args(out, config=cfg, model="cnn-small", dataset="stripes", epochs=2), capsys
    )
    assert code == 0
    code, stdout, _ = run_cli(["stats", "--checkpoint", str(out / "checkpoint.nncm")], capsys)
    assert code == 0
    assert "1/4 filters pruned" in stdout
    assert "2/8 filters pruned" in stdout


# stats rows of one-epoch cnn-small checkpoints, as printed before each hook
# transform described itself
PINNED_STATS_ROWS = {
    "binarize": [
        "conv2  pre_param:weight  binarization  binarize[xnor] off",
        "conv2  pre_input         binarization  ActivationBinarizer off",
    ],
    "rb_sparsity50": [
        "conv1  pre_param:weight  rb_sparsity  stochastic gates: 7/36 off at eval",
        "conv2  pre_param:weight  rb_sparsity  stochastic gates: 35/288 off at eval",
        "fc     pre_param:weight  rb_sparsity  stochastic gates: 7/64 off at eval",
    ],
}


@pytest.mark.parametrize("config", sorted((REPO / "configs").glob("*.json")), ids=lambda p: p.stem)
def test_stats_describes_every_hook(tmp_path, capsys, config):
    out = tmp_path / "run"
    code, _, _ = run_cli(train_args(out, config=config, model="cnn-small", dataset="stripes", epochs=1), capsys)
    assert code == 0
    code, stdout, _ = run_cli(["stats", "--checkpoint", str(out / "checkpoint.nncm")], capsys)
    assert code == 0
    graph, _ = load_checkpoint(out / "checkpoint.nncm")
    lines = stdout.splitlines()
    assert lines[0].split() == ["node", "point", "family", "detail"]
    assert [line.split()[0] for line in lines[1:-1]] == [h.node_id for h in graph.hooks]
    assert lines[-1] == f"parameters: {graph.num_params()}  epoch: 0"
    for row in PINNED_STATS_ROWS.get(config.stem, []):
        assert row in lines


def test_csv_dataset_round_trip(tmp_path, capsys):
    rng = np.random.default_rng(0)
    rows = ["f0,f1,f2,f3,f4,f5,f6,f7,label"]
    for i in range(80):
        label = i % 2
        feats = rng.normal(loc=(2 * label - 1) * 0.8, scale=0.5, size=8)
        rows.append(",".join(f"{v:.5f}" for v in feats) + f",{label}")
    csv = tmp_path / "toy.csv"
    csv.write_text("\n".join(rows) + "\n")

    out = tmp_path / "run"
    code, _, _ = run_cli(train_args(out, dataset=str(csv), epochs=3), capsys)
    assert code == 0
    model_path = tmp_path / "m.nncm"
    code, _, _ = run_cli(
        ["export", "--checkpoint", str(out / "checkpoint.nncm"), "--out", str(model_path)], capsys
    )
    assert code == 0
    code, stdout, _ = run_cli(
        ["eval", "--model", str(model_path), "--dataset", str(csv)], capsys
    )
    assert code == 0
    assert float(stdout.split("accuracy")[1].split()[0]) > 0.8


def _csv_with_label(tmp_path, label):
    """Eighty rows of eight features, labelled 0 and 1 except row 7, labelled ``label``."""
    rng = np.random.default_rng(0)
    rows = ["f0,f1,f2,f3,f4,f5,f6,f7,label"]
    for i in range(80):
        rows.append(",".join(f"{v:.5f}" for v in rng.normal(size=8)) + f",{label if i == 7 else i % 2}")
    path = tmp_path / "labels.csv"
    path.write_text("\n".join(rows) + "\n")
    return path


@pytest.mark.parametrize("label", [5, -1])
def test_label_outside_the_classes_exits_2(tmp_path, capsys, label):
    """Train and eval of a two-class model name the label that has no class."""
    csv = _csv_with_label(tmp_path, label)
    model_path = tmp_path / "m.nncm"
    save_model(build_model("mlp-small"), model_path)
    for argv in (
        train_args(tmp_path / "run", dataset=str(csv), epochs=1),
        ["eval", "--model", str(model_path), "--dataset", str(csv)],
    ):
        code, _, err = run_cli(argv, capsys)
        assert code == 2 and "Traceback" not in err
        assert f"error: label {label} is outside the model's 2 classes (0 to 1)" in err


def test_console_script_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "nncompress.cli", "train", "--model", "mlp-small",
         "--dataset", "blobs", "--epochs", "1", "--seed", "0",
         "--out", str(tmp_path / "o"), "--samples", "64"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "o" / "checkpoint.nncm").exists()


def test_out_naming_a_file_exits_2(tmp_path, capsys):
    taken = tmp_path / "model.nncm"
    taken.write_bytes(b"")
    code, _, err = run_cli(train_args(taken, epochs=1), capsys)
    assert code == 2 and err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("attr, value, expect", BAD_BATCHNORM_ATTRS)
def test_bad_batchnorm_attr_exits_2(tmp_path, capsys, attr, value, expect):
    path = tmp_path / "m.nncm"
    edit = _setting("nodes", 1, "attrs", attr, value=value)
    path.write_bytes(with_manifest(serialize_model(build_model("cnn-small")), edit))
    code, _, err = run_cli(["eval", "--model", str(path), "--dataset", "stripes", "--samples", "16"], capsys)
    assert code == 2 and f"BatchNorm 'bn1': attr {attr!r} must be {expect}" in err


@pytest.mark.parametrize("config", sorted((REPO / "configs").glob("*.json")), ids=lambda p: p.stem)
def test_epoch_records_and_scheduler_states_are_json_native(config):
    """The CLI writes both with a bare json.dumps, with no conversion pass."""
    x, y = make_dataset("stripes", 64, 0)
    controllers, g = create_compressed_model(build_model("cnn-small", 0), json.loads(config.read_text()), [(x, y)])
    for record in train_model(g, controllers, (x, y), (x, y), epochs=1):
        json.dumps(record)
    for ctrl in controllers:
        json.dumps(ctrl.scheduler.state_dict())


def entry_paths(value, path=()):
    """The path of every entry of a JSON tree, inner entries included."""
    entries = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in entries:
        yield path + (key,)
        yield from entry_paths(child, path + (key,))


# the attrs each kind's executor reads, present in the file or not
EXECUTOR_ATTRS = {
    "Conv2D": ("kernel", "stride", "padding"), "BatchNorm": ("eps", "momentum"), "MaxPool2D": ("kernel", "stride"),
}


@st.composite
def hook_points(draw):
    """A hook's position, with the parameter name or input index that position reads."""
    position = draw(st.sampled_from(["pre_param", "pre_input", "post_output"]), label="position")
    names = st.sampled_from(["weight", "bias", "gamma", "running_var"])
    return {
        "position": position,
        "param_name": draw(names, label="param_name") if position == "pre_param" else None,
        "input_index": draw(st.integers(0, 2), label="input_index") if position == "pre_input" else 0,
    }



@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(
    derandomize=True, max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(draw=st.data())
def test_fuzzed_manifest_evaluates_or_exits_2(tmp_path, capsys, draw):
    """Replacing or deleting any one manifest entry (top level, node, parameter
    table or hook), setting an attr an executor reads, or moving a hook to
    another point of its node gives a graph that evaluates or a
    SerializationError, and eval exits 0 or 2 without a traceback."""
    data, manifest = live_manifest("int8_sparse50")
    change = draw.draw(st.sampled_from(["executor attr", "entry", "hook point"]), label="change")
    if change == "executor attr":
        nodes = manifest["nodes"]
        targets = [("nodes", i, "attrs", a) for i, n in enumerate(nodes) for a in EXECUTOR_ATTRS.get(n["kind"], ())]
        edit = _setting(*draw.draw(st.sampled_from(targets), label="attr"), value=draw.draw(JSON_VALUES, label="value"))
    elif change == "entry":
        path = draw.draw(st.sampled_from(list(entry_paths(manifest))), label="entry")
        edit = _setting(*path, value=draw.draw(st.just(DELETE) | JSON_VALUES, label="value"))
    else:
        hook, point = draw.draw(st.integers(0, len(manifest["hooks"]) - 1), label="hook"), draw.draw(hook_points())

        def edit(m):
            m["hooks"][hook].update(point)
            return m

    edited = with_manifest(data, edit)
    try:
        g, _ = deserialize_model(edited)
    except SerializationError:
        pass
    else:
        with T.no_grad():
            g.run(Tensor(np.zeros((2, *g.input_shape))))
    model = tmp_path / "m.nncm"
    model.write_bytes(edited)
    code, _, err = run_cli(["eval", "--model", str(model), "--dataset", "stripes", "--samples", "16"], capsys)
    assert code in (0, 2) and "Traceback" not in err
