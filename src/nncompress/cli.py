"""Command-line trainer: build, compress, fine-tune, export, inspect.

Exit codes, mapped from error types in ``main`` alone: 0 success, 2
configuration, data, model-file or file-system problems, 3 numeric failure
during training.  NNCOMPRESS_SEED and NNCOMPRESS_LOG_LEVEL override the
seed argument and log verbosity; a bad value of either, or of a flag, exits 2.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import time

from .api import ConfigError, create_compressed_model, export_graph
from .data import make_dataset, train_val_split
from .models import PRESETS, build_model
from .serialize import load_checkpoint, load_model, save_checkpoint
from .train import NumericError, evaluate, train_model
from .util import COUNT, FINITE_POSITIVE, FRACTION, POSITIVE

log = logging.getLogger("nncompress")

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3


def cmd_train(args) -> int:
    seed = args.seed
    config = {}
    if args.config:
        try:
            with open(args.config) as fh:
                config = json.load(fh)
        except (OSError, json.JSONDecodeError) as err:
            raise ConfigError(f"cannot read config {args.config}: {err}") from None
    graph = build_model(args.model, seed)
    x, y = make_dataset(args.dataset, args.samples, seed)
    (x_train, y_train), (x_val, y_val) = train_val_split(x, y, seed=seed)
    init_batches = [
        (x_train[i : i + 64], y_train[i : i + 64]) for i in range(0, min(len(x_train), 256), 64)
    ]
    controllers, compressed = create_compressed_model(graph, config, init_batches)

    os.makedirs(args.out, exist_ok=True)
    metrics_path = os.path.join(args.out, "metrics.jsonl")
    records = []

    def on_epoch(record):
        line = json.dumps(record)
        print(line)
        records.append(line)

    history = train_model(
        compressed,
        controllers,
        (x_train, y_train),
        (x_val, y_val),
        epochs=args.epochs,
        batch_size=args.batch_size,
        lr=args.lr,
        momentum=args.momentum,
        seed=seed,
        on_epoch=on_epoch,
    )

    with open(metrics_path, "w") as fh:
        fh.write("\n".join(records) + "\n")
    ckpt_path = os.path.join(args.out, "checkpoint.nncm")
    state = {
        "schedulers": {c.name: c.scheduler.state_dict() for c in controllers},
        "final": {k: v for k, v in history[-1].items() if k != "stats"} if history else {},
        "seed": seed,
        "model": args.model,
        "dataset": args.dataset,
    }
    save_checkpoint(compressed, ckpt_path, config=config, epoch=args.epochs - 1, state=state)
    if history:
        log.info("final val accuracy %.4f", history[-1]["val_accuracy"])
    log.info("checkpoint written to %s", ckpt_path)
    return EXIT_OK


def cmd_export(args) -> int:
    graph, _ = load_checkpoint(args.checkpoint)
    exported = export_graph(graph, args.out)
    before, after = graph.num_params(), exported.num_params()
    print(f"exported {args.out}: parameters {before} -> {after}")
    return EXIT_OK


def cmd_eval(args) -> int:
    graph, _ = load_model(args.model)
    x, y = make_dataset(args.dataset, args.samples, args.seed)
    start = time.perf_counter()
    acc, loss = evaluate(graph, x, y)
    elapsed = time.perf_counter() - start
    print(f"accuracy {acc:.4f}  loss {loss:.4f}  throughput {len(x) / elapsed:.0f} samples/s")
    return EXIT_OK


def cmd_stats(args) -> int:
    graph, meta = load_checkpoint(args.checkpoint)
    rows = [("node", "point", "family", "detail")]
    for h in graph.hooks:
        point = h.position.value + ("" if h.param_name is None else f":{h.param_name}")
        rows.append((h.node_id, point, h.family, h.transform.describe()))
    widths = [max(len(r[i]) for r in rows) for i in range(3)]
    for r in rows:
        print(f"{r[0]:<{widths[0]}}  {r[1]:<{widths[1]}}  {r[2]:<{widths[2]}}  {r[3]}")
    print(f"parameters: {graph.num_params()}  epoch: {meta.get('epoch')}")
    return EXIT_OK


def _typed(parse, kind):
    """An argparse type: the text read by ``parse``, which must pass ``kind``."""

    def convert(text: str):
        try:
            value = parse(text)
        except ValueError:
            value = text  # which no numeric kind passes
        if not kind[0](value):
            raise argparse.ArgumentTypeError(f"must be {kind[1]}, got {value!r}")
        return value

    return convert


_POSITIVE_INT, _SEED = _typed(int, POSITIVE), _typed(int, COUNT)
_LOG_LEVEL = _typed(str.upper, (lambda v: isinstance(logging.getLevelName(v), int), "a logging level name"))


def _from_env(name: str, convert, default):
    """Environment variable ``name`` read by an argparse type, or ``default`` when it is unset."""
    try:
        return convert(os.environ[name]) if name in os.environ else default
    except argparse.ArgumentTypeError as err:
        raise ValueError(f"{name}: {err}") from None


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="nncompress", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("train", help="fine-tune a preset model under a compression config")
    t.add_argument("--config", help="compression config (JSON); omit for uncompressed training")
    t.add_argument("--model", required=True, choices=PRESETS)
    t.add_argument("--dataset", required=True, help="blobs, stripes, or a .csv path")
    t.add_argument("--epochs", type=_POSITIVE_INT, default=10)
    t.add_argument("--seed", type=_SEED, default=0)
    t.add_argument("--out", required=True, help="output directory")
    t.add_argument("--batch-size", type=_POSITIVE_INT, default=32)
    t.add_argument("--lr", type=_typed(float, FINITE_POSITIVE), default=0.1)
    t.add_argument("--momentum", type=_typed(float, FRACTION), default=0.0)
    t.add_argument("--samples", type=_POSITIVE_INT, default=512, help="synthetic dataset size")
    t.set_defaults(fn=cmd_train)

    e = sub.add_parser("export", help="strip and bake a checkpoint into a deployable model file")
    e.add_argument("--checkpoint", required=True)
    e.add_argument("--out", required=True)
    e.set_defaults(fn=cmd_export)

    v = sub.add_parser("eval", help="accuracy of a model file on a dataset")
    v.add_argument("--model", required=True)
    v.add_argument("--dataset", required=True)
    v.add_argument("--samples", type=_POSITIVE_INT, default=256)
    v.add_argument("--seed", type=_SEED, default=1)
    v.set_defaults(fn=cmd_eval)

    s = sub.add_parser("stats", help="per-layer compression state of a checkpoint")
    s.add_argument("--checkpoint", required=True)
    s.set_defaults(fn=cmd_stats)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        level = _from_env("NNCOMPRESS_LOG_LEVEL", _LOG_LEVEL, "INFO")
        logging.basicConfig(level=level, format="%(levelname)s %(message)s")
        if "seed" in args:
            args.seed = _from_env("NNCOMPRESS_SEED", _SEED, args.seed)
        return args.fn(args)
    except (NumericError, ValueError, OSError) as err:  # every other typed error of the package is a ValueError
        print(f"error: {err}", file=sys.stderr)
        return EXIT_NUMERIC if isinstance(err, NumericError) else EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
