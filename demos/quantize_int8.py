"""Quantization-aware training on a small CNN.

Wraps the model so every weighted layer and activation passes through a
simulated INT8 grid, initializes quantizer ranges from a few batches of
data, fine-tunes, and exports a model file whose outputs reproduce the
in-memory compressed model exactly.
"""

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

seed = 0
graph = build_model("cnn-small", seed)
x, y = make_dataset("stripes", 512, seed)
(x_train, y_train), (x_val, y_val) = train_val_split(x, y, seed=seed)

config = {
    "compression": [
        {
            "algorithm": "quantization",
            "mode": "symmetric",
            "bits": 8,
            "per_channel": True,
            "init": {"num_batches": 2, "type": "percentile",
                     "min_percentile": 0.5, "max_percentile": 99.5},
        }
    ]
}

init_batches = [(x_train[i:i + 64], y_train[i:i + 64]) for i in (0, 64)]
controllers, model = create_compressed_model(graph, config, init_batches)
ctrl = controllers[0]

print("quantizers inserted:")
stats = ctrl.statistics()
for nid, desc in stats["weight_quantizers"].items():
    print(f"  weight {nid}: {desc}")
for nid, desc in list(stats["activation_quantizers"].items())[:3]:
    print(f"  activation {nid}: {desc}")
print(f"  ... {len(stats['activation_quantizers'])} activation quantizers total")

history = train_model(model, controllers, (x_train, y_train), (x_val, y_val),
                      epochs=8, batch_size=32, lr=0.1, seed=seed)
print(f"\nfinal val accuracy {history[-1]['val_accuracy']:.3f}")

exported = export_graph(model, "/tmp/int8.nncm")
loaded, _ = load_model("/tmp/int8.nncm")
probe = Tensor(np.random.default_rng(1).normal(size=(16, 1, 8, 8)))
drift = float(np.abs(model.run(probe).data - loaded.run(probe).data).max())
acc, loss = evaluate(loaded, x_val, y_val)
print(f"exported -> /tmp/int8.nncm, reload drift {drift:.2e}, accuracy {acc:.3f}")
