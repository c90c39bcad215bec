"""Structured pruning: drop whole conv filters, then shrink the network.

Filter importance is distance-from-the-pack: a filter whose weights sit
near the geometric median of its layer is redundant.  Masks propagate
through batch norm and into downstream input channels; a residual join
only tolerates matching masks.  Export slices the surviving channels out
of every affected tensor, so the saved model is physically smaller yet
computes the same function as the masked one.
"""

import numpy as np

from nncompress import (
    Tensor,
    build_model,
    create_compressed_model,
    export_graph,
    load_model,
    make_dataset,
    train_model,
    train_val_split,
)

graph = build_model("cnn-residual", seed=7)
x, y = make_dataset("stripes", 512, seed=7)
train_set, val_set = train_val_split(x, y, val_fraction=0.25, seed=7)

config = {
    "seed": 7,
    "compression": [
        {
            "algorithm": "filter_pruning",
            "criterion": "geometric_median",
            "pruning_rate": 0.5,
            "scheduler": {"mode": "exponential", "warmup_epochs": 2, "epochs": 6},
        }
    ],
}
controllers, model = create_compressed_model(graph, config)
ctrl = controllers[0]

print("epoch  rate   frozen  pruned filters          val_acc")


def report(rec):
    s = ctrl.statistics()
    counts = "  ".join(
        f"{nid}:{d['pruned']}/{d['total']}" for nid, d in sorted(s["per_layer"].items())
    )
    print(f"{rec['epoch']:>5}  {s['rate']:.3f}  {str(s['frozen']):<6}  {counts:<22}  {rec['val_accuracy']:.3f}")


train_model(model, controllers, train_set, val_set, epochs=9, lr=0.1, seed=7, on_epoch=report)

stats = ctrl.statistics()
print("\nwhich convolutions could actually be pruned:")
for nid, ok in sorted(stats["prunable"].items()):
    note = "" if ok else "  (cancelled: mask conflicts at a residual join or the output)"
    print(f"  {nid}: {ok}{note}")

before = sum(p.data.size for _, _, p in model.parameters())
exported = export_graph(model, "/tmp/pruned.nncm")
after = sum(p.data.size for _, _, p in exported.parameters())
print(f"\nparameters {before} -> {after} after stripping")
for nid in sorted(exported.nodes):
    node = exported.nodes[nid]
    if node.kind == "Conv2D":
        w = node.params["weight"].data
        print(f"  {nid}: weight {w.shape}")

# the stripped network must agree with the masked one everywhere
probe = make_dataset("stripes", 64, seed=99)[0]
masked_out = model.run(Tensor(probe), mode="eval").data
reloaded, _ = load_model("/tmp/pruned.nncm")
stripped_out = reloaded.run(Tensor(probe), mode="eval").data
print(f"max |masked - stripped| on fresh inputs: {np.abs(masked_out - stripped_out).max():.2e}")
