"""Whole pipeline in one sitting: stack two algorithms, train, ship, verify.

An 8-bit quantizer and a magnitude sparsifier share one model.  The
sparsity masks run first on each weight so the quantizer always sees the
already-masked tensor.  After fine-tuning, the exported file carries the
zeros baked in and the quantizers still attached; reloading it needs no
compression machinery and reproduces the training-side outputs exactly.

The same flow is then driven through the command line.
"""

import json
import pathlib
import subprocess
import tempfile

import numpy as np

from nncompress import (
    Tensor,
    build_model,
    create_compressed_model,
    evaluate,
    export_graph,
    load_model,
    make_dataset,
    train_model,
    train_val_split,
)

config = {
    "seed": 0,
    "input_shape": [1, 8, 8],
    "compression": [
        {
            "algorithm": "magnitude_sparsity",
            "schedule": {"mode": "polynomial", "init": 0.1, "target": 0.5, "epochs": 6},
        },
        {
            "algorithm": "quantization",
            "mode": "symmetric",
            "bits": 8,
            "per_channel": True,
            "init": {"num_batches": 2, "type": "minmax"},
        },
    ],
}

graph = build_model("cnn-small", seed=0)
x, y = make_dataset("stripes", 512, seed=0)
train_set, val_set = train_val_split(x, y, val_fraction=0.25, seed=0)
init_batches = [(x[:64], y[:64]), (x[64:128], y[64:128])]

controllers, model = create_compressed_model(graph, config, init_batches)
print("controllers:", [c.name for c in controllers])
wq = controllers[1].handles["weight"]["conv1"]
print(f"conv1 weight quantizer: {wq.bits}-bit, per-channel scales {wq.scale.data.ravel()[:2]} ...")

history = train_model(model, controllers, train_set, val_set, epochs=8, lr=0.1, seed=0)
for rec in history[-3:]:
    print(
        f"epoch {rec['epoch']}: task {rec['task_loss']:.4f}"
        f"  val_acc {rec['val_accuracy']:.3f}"
    )
print("final sparsity:", round(controllers[0].statistics()["achieved_sparsity"], 3))

out = pathlib.Path(tempfile.mkdtemp())
exported = export_graph(model, out / "model.nncm")
reloaded, meta = load_model(out / "model.nncm")
probe = make_dataset("stripes", 100, seed=123)[0]
drift = np.abs(model.run(Tensor(probe), mode="eval").data - reloaded.run(Tensor(probe), mode="eval").data).max()
acc, loss = evaluate(reloaded, *val_set)
print(f"reloaded file: val_acc {acc:.3f}, max output drift {drift:.2e}")

# same recipe through the CLI
print("\n-- command line --")
cfg_path = out / "stack.json"
cfg_path.write_text(json.dumps(config))
run_dir = out / "run"


def cli(*args):
    r = subprocess.run(
        ["python3", "-m", "nncompress.cli", *args], capture_output=True, text=True
    )
    if r.returncode != 0:
        raise SystemExit(f"cli failed: {r.stderr}")
    return r.stdout


cli(
    "train", "--config", str(cfg_path), "--model", "cnn-small", "--dataset", "stripes",
    "--epochs", "4", "--seed", "0", "--samples", "512", "--out", str(run_dir),
)
last = json.loads((run_dir / "metrics.jsonl").read_text().splitlines()[-1])
print(f"train: epoch {last['epoch']} val_acc {last['val_accuracy']:.3f}")
print("export:", cli("export", "--checkpoint", str(run_dir / "checkpoint.nncm"),
                     "--out", str(out / "cli.nncm")).strip())
print("eval:  ", cli("eval", "--model", str(out / "cli.nncm"),
                     "--dataset", "stripes").strip())
