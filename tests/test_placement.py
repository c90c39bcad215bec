"""Where compression goes, pinned on every preset and every graph in
``topologies``: quantizer handles, the binarization denylist, the eval-time
BatchNorm fold (on the plain and on the quantized graph) and the propagated
filter-pruning masks.  ``placements.json`` holds the expected records; a
change that moves any placement edits that file on purpose."""

import json
from pathlib import Path

import numpy as np
import pytest

from nncompress.binarization import default_denylist
from nncompress.models import PRESETS, build_model
from nncompress.pruning import propagate_pruning_masks
from nncompress.quantization import QuantizationSpec, insert_quantizers
from topologies import TOPOLOGIES

EXPECTED = json.loads((Path(__file__).parent / "placements.json").read_text())


def _bits(mask) -> str:
    return "".join("1" if keep else "0" for keep in np.asarray(mask, dtype=bool))


def _preset(name):
    """A preset, with each convolution (the i-th in node order) dropping channel i."""
    g = build_model(name, 0)
    convs = [node for node in g.nodes.values() if node.kind == "Conv2D"]
    masks = {}
    for i, node in enumerate(convs):
        masks[node.id] = np.ones(node.attrs["out_channels"], dtype=bool)
        masks[node.id][i % len(masks[node.id])] = False
    return g, masks


GRAPHS = [(name, lambda name=name: _preset(name)) for name in PRESETS] + [
    (name, lambda build=build: build(np.random.default_rng(0))) for name, build in TOPOLOGIES
]


def placement(graph, masks) -> dict:
    quantized = graph.copy()
    handles = insert_quantizers(quantized, QuantizationSpec())
    mask_map = propagate_pruning_masks(graph, masks)
    return {
        "weight": {nid: [q.grid, q.per_channel] for nid, q in handles["weight"].items()},
        "activation": {nid: q.grid for nid, q in handles["activation"].items()},
        "mirror": handles["mirror"],
        "denylist": default_denylist(graph),
        "folds": {src: node.id for src, node in graph._folds().items()},
        "quantized_folds": {src: node.id for src, node in quantized._folds().items()},
        "output_masks": {nid: _bits(m) for nid, m in mask_map.output_masks.items()},
        "input_masks": {nid: [_bits(m) for m in ms] for nid, ms in mask_map.input_masks.items()},
        "verdicts": mask_map.verdicts,
    }


def test_every_graph_is_pinned():
    assert sorted(EXPECTED) == sorted(name for name, _ in GRAPHS)


@pytest.mark.parametrize("name, build", GRAPHS, ids=[name for name, _ in GRAPHS])
def test_placement_is_unchanged(name, build):
    assert placement(*build()) == EXPECTED[name]
