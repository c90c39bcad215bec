"""Two routes to sparse weights on the same task.

Magnitude pruning masks the globally smallest weights against a level
that a polynomial schedule ramps from 5% to 60%.  The stochastic-gate
variant instead learns a Bernoulli score per weight, pushed toward the
target by a quadratic penalty on the expected density; at eval the gates
harden to their most likely state.
"""

from nncompress import (
    build_model,
    create_compressed_model,
    export_graph,
    make_dataset,
    train_model,
    train_val_split,
)

x, y = make_dataset("stripes", 512, seed=4)
train_set, val_set = train_val_split(x, y, val_fraction=0.25, seed=4)

print("== magnitude, polynomial ramp 0.05 -> 0.60 over 8 epochs ==")
graph = build_model("cnn-small", seed=4)
config = {
    "seed": 4,
    "compression": [
        {
            "algorithm": "magnitude_sparsity",
            "schedule": {
                "mode": "polynomial",
                "init": 0.05,
                "target": 0.60,
                "epochs": 8,
                "power": 3,
            },
        }
    ],
}
controllers, model = create_compressed_model(graph, config)
ctrl = controllers[0]

print("epoch  scheduled  achieved  threshold  val_acc")


def report(rec):
    s = ctrl.statistics()
    print(
        f"{rec['epoch']:>5}  {s['scheduled_level']:>9.3f}  {s['achieved_sparsity']:>8.3f}"
        f"  {s['threshold']:>9.5f}  {rec['val_accuracy']:.3f}"
    )


train_model(model, controllers, train_set, val_set, epochs=10, lr=0.1, seed=4, on_epoch=report)
stats = ctrl.statistics()
print("per-layer zero fraction:")
for nid, frac in sorted(stats["per_layer"].items()):
    print(f"  {nid}: {frac:.3f}")

exported = export_graph(model, "/tmp/magnitude60.nncm")
zeros = sum(int((p.data == 0).sum()) for _, _, p in exported.parameters())
total = sum(p.data.size for _, _, p in exported.parameters())
print(f"exported with masks baked in: {zeros}/{total} parameters are exactly zero")

print("\n== stochastic gates, fixed 50% target ==")
graph = build_model("cnn-small", seed=4)
config = {
    "seed": 4,
    "compression": [
        {
            "algorithm": "rb_sparsity",
            "schedule": {"target": 0.5},
            "score_lr_multiplier": 5000.0,
        }
    ],
}
controllers, model = create_compressed_model(graph, config)
ctrl = controllers[0]


def report_rb(rec):
    s = ctrl.statistics()
    print(
        f"epoch {rec['epoch']}: penalty {rec['compression_loss']:.4f}"
        f"  mean gate prob {s['mean_gate_probability']:.3f}"
        f"  eval sparsity {s['eval_sparsity']:.3f}  val_acc {rec['val_accuracy']:.3f}"
    )


train_model(model, controllers, train_set, val_set, epochs=15, lr=0.1, seed=4, on_epoch=report_rb)
exported = export_graph(model, "/tmp/magnitude60.nncm")
zeros = sum(int((p.data == 0).sum()) for _, _, p in exported.parameters())
total = sum(p.data.size for _, _, p in exported.parameters())
print(f"hardened gates zero out {zeros}/{total} parameters at export")
