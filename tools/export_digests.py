"""Print sha256 digests of everything a seeded compression run writes.

For every ``configs/*.json`` plus an uncompressed run, on each of
``mlp-small``, ``cnn-small`` and ``cnn-residual`` (model and data seed 7,
two ``train_model`` epochs), the output JSON holds the digests of:

* the export of the freshly compressed model (``untrained_export``);
* the export after training (``trained_export``);
* the training checkpoint (``checkpoint``);
* the validation logits of the reloaded trained export (``eval_logits``);
* the mixed-precision plan, with every float in hex (``mp_plan``), for
  configs that make one;
* one Hessian-vector product of the trained model (``hessian_probe``),
  taken last:
  a train-mode forward on the first 64 training samples, the gradient of
  cross entropy plus compression loss w.r.t. the first weight layer's
  weight with ``create_graph``, and its product with one Rademacher vector
  drawn from seed ``SEED``.  This pins every config's double-backward
  path, not only the mixed-precision plan's.

A case whose config does not fit the model records its ``ConfigError``
instead; any other error stops the script.
Two revisions that should not change any output must print the same JSON:

    PYTHONPATH=src python tools/export_digests.py > digests.json
"""

from __future__ import annotations

import glob
import hashlib
import json
import os
import sys
import tempfile

import numpy as np

from nncompress import (
    ConfigError,
    Tensor,
    build_model,
    create_compressed_model,
    export_graph,
    load_model,
    make_dataset,
    no_grad,
    save_checkpoint,
    total_compression_loss,
    train_model,
    train_val_split,
)
from nncompress import tensor as T
from nncompress.util import cross_entropy

SEED = 7
EPOCHS = 2
SAMPLES = 256
MODELS = {"mlp-small": "blobs", "cnn-small": "stripes", "cnn-residual": "stripes"}
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _file_sha(path: str) -> str:
    with open(path, "rb") as fh:
        return _sha(fh.read())


def _plan_text(plan) -> str:
    """The plan with every float spelled exactly, in hex."""
    profiles = [
        [p.node_id, p.avg_trace.hex(), p.flops, {str(b): e.hex() for b, e in sorted(p.errors.items())}]
        for p in plan.profiles
    ]
    return json.dumps(
        [sorted(plan.assignment.items()), plan.achieved_ratio.hex(), plan.metric.hex(), profiles]
    )


def _hessian_probe(graph, controllers, x, y) -> bytes:
    """The bytes of H v for the first weight layer's weight and one fixed v."""
    w = next(node.params["weight"] for node in graph.nodes.values() if "weight" in node.params)
    out = graph.run(Tensor(x), mode="train", rng=np.random.default_rng(SEED))
    loss = T.add(cross_entropy(out, y), total_compression_loss(controllers))
    (g,) = T.grad(loss, [w], create_graph=True)
    v = np.random.default_rng(SEED).integers(0, 2, size=w.shape).astype(np.float64) * 2.0 - 1.0
    (hv,) = T.grad(T.tsum(T.mul(g, Tensor(v))), [w])
    return np.ascontiguousarray(hv.data).tobytes()


def digest_case(config: dict, model: str, workdir: str) -> dict:
    graph = build_model(model, SEED)
    x, y = make_dataset(MODELS[model], SAMPLES, SEED)
    (x_train, y_train), (x_val, y_val) = train_val_split(x, y, seed=SEED)
    init = [(x_train[i : i + 64], y_train[i : i + 64]) for i in range(0, len(x_train), 64)]
    untrained, trained, checkpoint = (os.path.join(workdir, f"{k}.nncm") for k in ("untrained", "trained", "ckpt"))
    out = {}
    try:
        controllers, compressed = create_compressed_model(graph, config, init)
        export_graph(compressed, untrained)
        out["untrained_export"] = _file_sha(untrained)
        train_model(compressed, controllers, (x_train, y_train), (x_val, y_val), epochs=EPOCHS, seed=SEED)
        export_graph(compressed, trained)
        out["trained_export"] = _file_sha(trained)
        state = {"schedulers": {c.name: c.scheduler.state_dict() for c in controllers}}
        save_checkpoint(compressed, checkpoint, config, EPOCHS - 1, state)
        out["checkpoint"] = _file_sha(checkpoint)
        loaded, _ = load_model(trained)
        with no_grad():
            logits = loaded.run(Tensor(x_val), mode="eval").data
        out["eval_logits"] = _sha(np.ascontiguousarray(logits).tobytes())
        for ctrl in controllers:
            plan = getattr(ctrl, "mixed_precision_plan", None)
            if plan is not None:
                out["mp_plan"] = _sha(_plan_text(plan).encode())
        # last: its train-mode forward moves BatchNorm's running statistics
        out["hessian_probe"] = _sha(_hessian_probe(compressed, controllers, x_train[:64], y_train[:64]))
    except ConfigError as err:
        out["error"] = f"ConfigError: {err}"
    return out


def main() -> int:
    configs = {"uncompressed": {}}
    for path in sorted(glob.glob(os.path.join(ROOT, "configs", "*.json"))):
        with open(path) as fh:
            configs[os.path.splitext(os.path.basename(path))[0]] = json.load(fh)
    digests = {}
    with tempfile.TemporaryDirectory() as workdir:
        for name, config in configs.items():
            for model in MODELS:
                digests[f"{name}/{model}"] = digest_case(config, model, workdir)
    json.dump(digests, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
