import collections
import dataclasses
import json
import math
import re
import typing
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nncompress import base
from nncompress.api import (
    ALGORITHMS,
    ConfigError,
    ConfigSpec,
    create_compressed_model,
    export_graph,
    export_model,
    scheduler_epoch_step,
    scheduler_step,
    total_compression_loss,
    validate_config,
)
from nncompress.mixed_precision import MAX_TRACE_SAMPLES
from nncompress.models import PRESETS, build_model
from nncompress.pruning import FilterPruningSpec, PruningController, PruningSchedulerSpec, pruning_rate_at_epoch
from nncompress.quantization import FakeQuantizer
from nncompress.serialize import SerializationError, load_checkpoint, load_model, save_checkpoint, serialize_model
from nncompress.sparsity import RBGate, SparsityScheduleSpec, sparsity_level_at_epoch
from nncompress.tensor import Tensor
from nncompress.train import SGD

REPO = Path(__file__).resolve().parent.parent

# (section, dotted path of the mistyped key); a string where a list of
# patterns is expected must not be read one character at a time
MISTYPED = [
    ({"algorithm": "filter_pruning", "pruning_rate": 0.3, "exclude": "conv*"}, "exclude"),
    ({"algorithm": "binarization", "allowlist": "conv*"}, "allowlist"),
    ({"algorithm": "binarization", "denylist": "conv1"}, "denylist"),
    ({"algorithm": "quantization", "bits": "8"}, "bits"),
    ({"algorithm": "quantization", "per_channel": 1}, "per_channel"),
    ({"algorithm": "binarization", "stage_epochs": 3}, "stage_epochs"),
    ({"algorithm": "magnitude_sparsity", "schedule": {"epochs": "6"}}, "schedule.epochs"),
    ({"algorithm": "magnitude_sparsity", "schedule": {"steps": [[1, 0.2, 3]]}}, "schedule.steps[0]"),
    ({"algorithm": "quantization", "mixed_precision": {"candidate_bits": [4, "8"]}},
     "mixed_precision.candidate_bits[1]"),
]

# (section, dotted path of the out-of-range key): the right type, a value no
# algorithm can use
OUT_OF_RANGE = [
    ({"algorithm": "quantization", "bits": 1}, "bits"),
    ({"algorithm": "quantization", "mode": "bogus"}, "mode"),
    ({"algorithm": "quantization", "init": {"num_batches": 0}}, "init.num_batches"),
    ({"algorithm": "quantization", "mixed_precision": {"trace_samples": 0}}, "mixed_precision.trace_samples"),
    ({"algorithm": "quantization", "init": {"type": "bogus"}}, "init.type"),
    ({"algorithm": "quantization", "init": {"max_percentile": 150}}, "init.max_percentile"),
    ({"algorithm": "quantization", "init": {"min_percentile": 60, "max_percentile": 50}}, "init.min_percentile"),
    ({"algorithm": "quantization", "mixed_precision": {"direction": "sideways"}}, "mixed_precision.direction"),
    ({"algorithm": "quantization", "mixed_precision": {"candidate_bits": [1, 8]}}, "mixed_precision.candidate_bits"),
    ({"algorithm": "filter_pruning", "pruning_rate": 1.5}, "pruning_rate"),
    ({"algorithm": "filter_pruning", "pruning_rate": 0.3, "criterion": "l3"}, "criterion"),
    ({"algorithm": "filter_pruning", "pruning_rate": 0.3, "scheduler": {"mode": "linear"}}, "scheduler.mode"),
    ({"algorithm": "binarization", "stage_epochs": [1, 2]}, "stage_epochs"),
    ({"algorithm": "binarization", "weight_scheme": "foo"}, "weight_scheme"),
    ({"algorithm": "magnitude_sparsity", "schedule": {"target": 1.5}}, "schedule.target"),
    # each of these once validated, then divided by zero at epoch 0 or scheduled a level out of [init, target]
    ({"algorithm": "magnitude_sparsity",
      "schedule": {"mode": "polynomial", "init": 0, "target": 0.5, "epochs": 4, "power": -1}}, "schedule.power"),
    ({"algorithm": "rb_sparsity", "schedule": {"mode": "adaptive", "init": 0.1, "target": 0.5, "step": -0.2}},
     "schedule.step"),
    ({"algorithm": "magnitude_sparsity", "schedule": {"mode": "multistep", "init": 0.3, "steps": [[1, 0.1], [2, 0.5]]}},
     "schedule.steps"),
    # numbers too large for a float: each once raised OverflowError, in validation or at the first epoch
    ({"algorithm": "magnitude_sparsity", "schedule": {"power": 10**400}}, "schedule.power"),
    ({"algorithm": "magnitude_sparsity", "schedule": {"mode": "exponential", "epochs": 10**400}}, "schedule.epochs"),
    ({"algorithm": "filter_pruning", "pruning_rate": 0.5, "scheduler": {"mode": "exponential", "epochs": 10**400}},
     "scheduler.epochs"),
    # each of these once validated, then trained wrongly
    ({"algorithm": "rb_sparsity", "score_lr_multiplier": -5}, "score_lr_multiplier"),
    ({"algorithm": "rb_sparsity", "score_init": math.nan}, "score_init"),
    ({"algorithm": "quantization", "mixed_precision": {"ratio_threshold": -1}}, "mixed_precision.ratio_threshold"),
    ({"algorithm": "filter_pruning", "pruning_rate": 0.5, "scheduler": {"warmup_epochs": -3}},
     "scheduler.warmup_epochs"),
    ({"algorithm": "filter_pruning", "pruning_rate": 0.5, "scheduler": {"epochs": -1}}, "scheduler.epochs"),
    # once validated, then probed the Hessian without end
    ({"algorithm": "quantization", "mixed_precision": {"trace_samples": 10**9}}, "mixed_precision.trace_samples"),
]
BAD_VALUES = MISTYPED + OUT_OF_RANGE


def _range_ids(cases):
    """An out-of-range key's id is its path plus "=range", and the count of the path's earlier cases."""
    seen = collections.Counter()
    for _, path in cases:
        yield f"{path}=range{seen[path] or ''}"
        seen[path] += 1


# ids stay unique: a mistyped key's id is its path, an out-of-range key's comes from _range_ids
BAD_VALUE_IDS = [p for _, p in MISTYPED] + list(_range_ids(OUT_OF_RANGE))


def stripes_like(n, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 1, 8, 8))
    y = rng.integers(0, 2, size=n)
    return x, y


# -- config validation -----------------------------------------------------


def test_unknown_keys_rejected_with_path():
    with pytest.raises(ConfigError, match="'sead'"):
        validate_config({"sead": 1})
    cfg = {"compression": [{"algorithm": "quantization", "bitz": 4}]}
    with pytest.raises(ConfigError, match=r"compression\[0\].bitz"):
        validate_config(cfg)
    cfg = {"compression": [{"algorithm": "filter_pruning", "pruning_rate": 0.3,
                            "scheduler": {"warmup": 1}}]}
    with pytest.raises(ConfigError, match=r"compression\[0\].scheduler.warmup"):
        validate_config(cfg)


def test_single_section_normalized_to_list():
    cfg = validate_config({"compression": {"algorithm": "quantization"}})
    assert isinstance(cfg["compression"], list)
    assert cfg["compression"][0]["algorithm"] == "quantization"


def test_duplicate_family_rejected():
    cfg = {"compression": [{"algorithm": "quantization"}, {"algorithm": "quantization"}]}
    with pytest.raises(ConfigError, match="duplicate"):
        validate_config(cfg)


def test_binarization_quantization_incompatible():
    cfg = {"compression": [{"algorithm": "binarization"}, {"algorithm": "quantization"}]}
    with pytest.raises(ConfigError, match="cannot be combined"):
        validate_config(cfg)
    # a binarizer does not keep a pruned channel at zero, so the stripped file would compute another model
    pruning = {"algorithm": "filter_pruning", "pruning_rate": 0.4}
    for sections in ([pruning, {"algorithm": "binarization"}], [{"algorithm": "binarization"}, pruning]):
        with pytest.raises(ConfigError, match="binarization and filter_pruning cannot be combined"):
            validate_config({"compression": sections})


def test_export_refuses_binarized_pruned_graph(tmp_path):
    # a graph that carries both families' hooks, as a checkpoint written before the config check did
    binarize = {"algorithm": "binarization", "denylist": []}  # the default denylist spares both of cnn-small's convs
    ctrls, g = create_compressed_model(build_model("cnn-small", 0), {"compression": binarize})
    PruningController(g, FilterPruningSpec(pruning_rate=0.4)).scheduler.epoch_step()
    save_checkpoint(g, tmp_path / "ckpt.nncm", {}, 0)
    restored, _ = load_checkpoint(tmp_path / "ckpt.nncm")
    with pytest.raises(ValueError, match="binarization and filter_pruning"):
        export_graph(restored, tmp_path / "model.nncm")
    assert not (tmp_path / "model.nncm").exists()


def test_bad_algorithm_and_bad_shapes():
    with pytest.raises(ConfigError, match="algorithm"):
        validate_config({"compression": [{"algorithm": "prune_everything"}]})
    with pytest.raises(ConfigError, match="input_shape"):
        validate_config({"input_shape": "8x8"})
    with pytest.raises(ConfigError, match="must be an object"):
        validate_config({"compression": [{"algorithm": "quantization", "init": 4}]})


@pytest.mark.parametrize("section, path", BAD_VALUES, ids=BAD_VALUE_IDS)
def test_mistyped_values_rejected_with_path(section, path):
    with pytest.raises(ConfigError, match=re.escape(f"'compression[0].{path}'")):
        validate_config({"compression": [section]})


def _declared_kinds(spec_cls, prefix=""):
    """(dotted key, annotated type, kind) of every field, nested specs
    included, that declares a kind with ``setting``."""
    hints = typing.get_type_hints(spec_cls)
    for f in dataclasses.fields(spec_cls):
        tp = hints[f.name]
        nested = [t for t in (tp, *typing.get_args(tp)) if dataclasses.is_dataclass(t)]
        if nested:
            yield from _declared_kinds(nested[0], f"{prefix}{f.name}.")
        elif "kind" in f.metadata:
            yield prefix + f.name, tp, f.metadata["kind"]


DECLARED_KINDS = [(name, *declared) for name, c in ALGORITHMS.items() for declared in _declared_kinds(c.spec_class)]
# a section's required keys, at values that pass
REQUIRED_KEYS = {"filter_pruning": {"pruning_rate": 0.5}}
PROBES = (-1, 0, 1.5, 101, math.nan, "bogus", [])


@pytest.mark.parametrize("algorithm, key, tp, kind", DECLARED_KINDS, ids=[f"{a}.{k}" for a, k, *_ in DECLARED_KINDS])
def test_every_declared_rule_is_enforced_with_its_path(algorithm, key, tp, kind):
    """Each probe that the field's type accepts and its kind refuses is a
    ConfigError naming the field's dotted path and the kind."""
    refused = 0
    for probe in PROBES:
        try:
            value = base._convert(tp, probe, key)
        except ConfigError:
            continue  # the type refuses it before the kind is asked
        if kind[0](value):
            continue
        section = {"algorithm": algorithm, **REQUIRED_KEYS.get(algorithm, {})}
        *parents, leaf = key.split(".")
        target = section
        for parent in parents:
            target = target.setdefault(parent, {})
        target[leaf] = probe
        message = f"config key 'compression[0].{key}' is out of range: must be {kind[1]}, got "
        with pytest.raises(ConfigError, match=re.escape(message)):
            validate_config({"compression": [section]})
        refused += 1
    assert refused, "no probe reaches this kind"


# values a schedule field may be given: in range, at the edges and beyond them
SCHEDULE_NUMBERS = st.sampled_from([0, 0.1, 0.5, 0.9, -1, 1, 1e308, 5e-324, math.inf, math.nan]) | st.floats(-2, 2)
SCHEDULE_VALUES = {
    float: SCHEDULE_NUMBERS,
    int: st.integers(-3, 25),
    str: st.sampled_from(["polynomial", "exponential", "multistep", "adaptive", "baseline", "bogus"]),
}


def _values(tp, pool):
    """A strategy for the values of a field of annotated type ``tp``, as JSON gives them, from
    ``pool`` (a strategy per scalar type); a nested spec's are its sections."""
    if tp in pool:
        return pool[tp]
    if dataclasses.is_dataclass(tp):
        return _sections(tp, pool)
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is typing.Union:  # Optional[X]
        return st.none() | _values(args[0], pool)
    if origin is tuple and args[-1] is not Ellipsis:
        return st.tuples(*(_values(a, pool) for a in args)).map(list)
    return st.lists(_values(args[0], pool), max_size=3)


def _sections(spec_cls, pool=SCHEDULE_VALUES, **fixed):
    """Sections that give each required field of ``spec_cls``, and any of the others, a drawn
    value; each ``fixed`` key is drawn from its own strategy."""
    fields = base._spec_fields(spec_cls)
    required = {**fixed, **{key: _values(tp, pool) for key, (tp, req) in fields.items() if req}}
    optional = {key: _values(tp, pool) for key, (tp, req) in fields.items() if not req}
    return st.fixed_dictionaries(required, optional=optional)


def _multistep(section):
    """The section as a multistep schedule whose last step reaches its target, as that mode requires."""
    steps = section.get("steps") or []
    last = [max([e for e, _ in steps], default=0), section.get("target", SparsityScheduleSpec.target)]
    return {**section, "mode": "multistep", "steps": steps + [last]}


@settings(derandomize=True, max_examples=1000, deadline=None)
@given(
    schedule=_sections(SparsityScheduleSpec) | _sections(SparsityScheduleSpec).map(_multistep),
    scheduler=_sections(PruningSchedulerSpec),
    rate=SCHEDULE_NUMBERS,
)
def test_schedules_that_validate_stay_in_range(schedule, scheduler, rate):
    """Every sparsity schedule and pruning scheduler that validates gives a
    finite level in [init, target], or a rate in [0, pruning_rate], at
    every epoch from 0 to 20."""
    for section in ({"algorithm": "magnitude_sparsity", "schedule": schedule},
                    {"algorithm": "filter_pruning", "pruning_rate": rate, "scheduler": scheduler}):
        try:
            validate_config({"compression": [section]})
        except ConfigError:
            continue
        options = {k: v for k, v in section.items() if k != "algorithm"}
        spec = base.load_spec(ALGORITHMS[section["algorithm"]].spec_class, options)
        for epoch in range(21):
            if section["algorithm"] == "magnitude_sparsity":
                s = spec.schedule
                level, low, high = sparsity_level_at_epoch(s, epoch, [1.0] * epoch), s.init, s.target  # stalled losses
            else:
                s = spec.scheduler
                level = pruning_rate_at_epoch(s.mode, epoch, spec.pruning_rate, s.warmup_epochs, s.epochs)[0]
                low, high = 0.0, spec.pruning_rate
            assert math.isfinite(level) and low <= level <= high, (section, epoch, level)


# values any config field may be given: the edges of every declared kind, and beyond them
EDGE_INTEGERS = [-3, -1, 0, 1, 2, 3, 8, 32, 33, 10**400, -10**400]
EDGE_NUMBERS = EDGE_INTEGERS + [-0.5, 5e-324, 0.5, 1 - 2**-53, 1.5, 99.9, 100, 101, 1e308,
                                math.nan, math.inf, -math.inf]
EDGE_VALUES = {
    int: st.sampled_from(EDGE_INTEGERS),
    float: st.sampled_from(EDGE_NUMBERS),
    bool: st.booleans(),
    str: st.sampled_from(["symmetric", "asymmetric", "minmax", "percentile", "at_least", "at_most", "xnor",
                          "dorefa", "l1", "l2", "geometric_median", "baseline", "exponential", "polynomial",
                          "multistep", "adaptive", "conv*", "fc", "*", "bogus"]),
}
EDGE_SECTIONS = st.one_of([_sections(c.spec_class, EDGE_VALUES, algorithm=st.just(name))
                           for name, c in ALGORITHMS.items()])


@settings(derandomize=True, max_examples=500, deadline=None)
@given(section=EDGE_SECTIONS)
def test_a_section_that_validates_builds_and_schedules(section):
    """A section that validate_config accepts builds on cnn-small from one
    labeled batch and runs three epochs of its schedule; anything it raises
    is a ValueError, which the CLI reports with exit code 2."""
    config = {"compression": [section]}
    try:
        validate_config(config)
    except ConfigError:
        return
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # patterns that match no layer
            controllers, _ = create_compressed_model(build_model("cnn-small", 0), config, [stripes_like(8)])
            for _ in range(3):
                scheduler_epoch_step(controllers)
    except ValueError:
        pass


def test_empty_candidate_bits_rejected_with_path():
    section = {"algorithm": "quantization", "mixed_precision": {"candidate_bits": []}}
    with pytest.raises(ConfigError, match=re.escape("'compression[0].mixed_precision.candidate_bits'")):
        validate_config({"compression": [section]})


def test_trace_samples_ceiling_is_the_last_valid_count():
    def section(n):
        return {"compression": [{"algorithm": "quantization", "mixed_precision": {"trace_samples": n}}]}

    for n in (32, MAX_TRACE_SAMPLES):
        validate_config(section(n))
    message = (f"'compression[0].mixed_precision.trace_samples' is out of range: must be an integer of at least 1 "
               f"and at most {MAX_TRACE_SAMPLES}, got {MAX_TRACE_SAMPLES + 1}")
    with pytest.raises(ConfigError, match=re.escape(message)):
        validate_config(section(MAX_TRACE_SAMPLES + 1))


def test_seed_too_large_for_a_float_is_a_config_error():
    with pytest.raises(ConfigError, match=re.escape("config key 'seed' must be an integer that a float can hold")):
        validate_config({"seed": 10**400})


def test_missing_required_key_rejected_with_path():
    with pytest.raises(ConfigError, match=re.escape("'compression[0].pruning_rate'")):
        validate_config({"compression": [{"algorithm": "filter_pruning"}]})


NEGATIVE_SEEDS = [
    ({"seed": -1, "compression": [{"algorithm": "quantization", "mixed_precision": {}}]}, "seed"),
    ({"compression": [{"algorithm": "quantization", "mixed_precision": {"seed": -1}}]},
     "compression[0].mixed_precision.seed"),
]


@pytest.mark.parametrize("config, path", NEGATIVE_SEEDS, ids=[p for _, p in NEGATIVE_SEEDS])
def test_negative_seed_is_a_config_error(config, path):
    """A seed that numpy's generators would refuse is refused as a config key."""
    message = f"config key {path!r} is out of range: must be a non-negative integer, got -1"
    with pytest.raises(ConfigError, match=re.escape(message)):
        validate_config(config)
    with pytest.raises(ConfigError, match=re.escape(message)):
        create_compressed_model(build_model("cnn-small", 0), config, [stripes_like(16)])


def test_mixed_precision_defaults():
    def plan(top_seed, **mixed_precision):
        section = {"algorithm": "quantization", "mixed_precision": mixed_precision}
        cfg = {"seed": top_seed, "compression": [section]}
        controllers, _ = create_compressed_model(build_model("cnn-small", 0), cfg, [stripes_like(16)])
        return controllers[0].mixed_precision_plan

    implicit = plan(3, trace_samples=2)
    # the ratio default is the spec's 1.5, and the probe seed falls back to
    # the top-level seed
    explicit = plan(0, trace_samples=2, ratio_threshold=1.5, seed=3, candidate_bits=[2, 4, 8],
                    direction="at_least")
    assert (implicit.assignment, implicit.metric) == (explicit.assignment, explicit.metric)
    assert implicit.metric != plan(0, trace_samples=2).metric


def _spec_defaults(spec_cls, prefix=""):
    """Dotted key -> default for every leaf field of a spec, nested specs expanded."""
    out = {}
    hints = typing.get_type_hints(spec_cls)
    for f in dataclasses.fields(spec_cls):
        tp = hints[f.name]
        nested = [t for t in (tp, *typing.get_args(tp)) if dataclasses.is_dataclass(t)]
        if nested:
            out.update(_spec_defaults(nested[0], f"{prefix}{f.name}."))
        elif f.default_factory is not dataclasses.MISSING:
            out[prefix + f.name] = f.default_factory()
        else:
            out[prefix + f.name] = f.default
    return out


def test_readme_config_table_matches_specs():
    text = (REPO / "README.md").read_text()
    section = text[text.index("## Configuration"):text.index("## Model files")]
    table = {}
    rows = [line for line in section.splitlines() if line.startswith("| ")]
    for line in rows[2:]:  # after the header and its rule
        cells = [c.strip() for c in line.strip("| ").split(" | ")]
        key = re.match(r"`([^`]+)`", cells[1]).group(1)
        table.setdefault(cells[0], {})[key] = cells[2]
    specs = {"top level": ConfigSpec, **{name: c.spec_class for name, c in ALGORITHMS.items()}}
    assert set(table) == set(specs)
    for name, spec_cls in specs.items():
        defaults = _spec_defaults(spec_cls)
        assert set(table[name]) == set(defaults), name
        for key, cell in table[name].items():
            literal = re.fullmatch(r"`([^`]+)`", cell)
            if literal:  # a JSON literal; prose cells describe computed defaults
                want = list(defaults[key]) if isinstance(defaults[key], tuple) else defaults[key]
                assert json.loads(literal.group(1)) == want, f"{name}.{key}"


# -- model wrapping --------------------------------------------------------


def test_empty_config_transparent_wrapper():
    g = build_model("cnn-small", 3)
    controllers, wrapped = create_compressed_model(g, {})
    assert controllers == []
    x = Tensor(np.random.default_rng(0).normal(size=(4, 1, 8, 8)))
    np.testing.assert_array_equal(wrapped.run(x).data, g.run(x).data)
    assert wrapped is not g


def test_quantization_config_covers_every_weighted_layer():
    g = build_model("cnn-small", 3)
    controllers, wrapped = create_compressed_model(
        g, {"compression": [{"algorithm": "quantization", "bits": 8}]}
    )
    assert len(controllers) == 1
    hooked = {h.node_id for h in wrapped.hooks if h.param_name == "weight"}
    assert hooked == {"conv1", "conv2", "fc"}


def test_stack_orders_hooks_per_config():
    g = build_model("cnn-small", 3)
    cfg = {
        "compression": [
            {"algorithm": "rb_sparsity"},
            {"algorithm": "quantization", "bits": 8},
        ]
    }
    controllers, wrapped = create_compressed_model(g, cfg, [stripes_like(32)])
    assert [c.name for c in controllers] == ["rb_sparsity", "quantization"]
    conv_w = [
        h for h in wrapped.hooks if h.node_id == "conv1" and h.param_name == "weight"
    ]
    assert isinstance(conv_w[0].transform, RBGate)
    assert isinstance(conv_w[1].transform, FakeQuantizer)


def test_same_seed_same_bytes():
    cfg = {
        "compression": [
            {"algorithm": "magnitude_sparsity", "schedule": {"target": 0.4}},
            {"algorithm": "quantization", "bits": 4, "mode": "asymmetric"},
        ]
    }
    runs = []
    for _ in range(2):
        g = build_model("cnn-small", 7)
        _, wrapped = create_compressed_model(g, cfg, [stripes_like(16, seed=5)])
        runs.append(serialize_model(wrapped))
    assert runs[0] == runs[1]


def test_init_batch_shape_mismatch():
    g = build_model("cnn-small", 0)
    with pytest.raises(ConfigError, match="init batch"):
        create_compressed_model(
            g,
            {"compression": [{"algorithm": "quantization"}]},
            [np.zeros((4, 3, 8, 8))],
        )
    with pytest.raises(ConfigError, match="input_shape"):
        create_compressed_model(g, {"input_shape": [2, 8, 8]})


def test_range_init_consumes_configured_batches():
    g = build_model("cnn-small", 0)
    x, y = stripes_like(64, seed=2)
    controllers, wrapped = create_compressed_model(
        g,
        {"compression": [{"algorithm": "quantization", "init": {"num_batches": 1}}]},
        [(x[:32], y[:32]), (x[32:] * 100, y[32:])],
    )
    q = controllers[0].handles["activation"]["input"]
    assert q.initialized
    # the wild second batch was ignored, so the input range stays moderate
    assert float(q.scale.data) < 50


def test_mixed_precision_requires_labels_then_applies():
    g = build_model("cnn-small", 0)
    cfg = {
        "compression": [
            {
                "algorithm": "quantization",
                "mixed_precision": {"candidate_bits": [4, 8], "trace_samples": 2, "ratio_threshold": 1.2},
            }
        ]
    }
    with pytest.raises(ConfigError, match="label"):
        create_compressed_model(g, cfg, [stripes_like(16)[0]])
    controllers, wrapped = create_compressed_model(g, cfg, [stripes_like(16, seed=3)])
    ctrl = controllers[0]
    assert ctrl.bit_config is not None
    assert set(ctrl.bit_config) == {"conv1", "conv2", "fc"}
    assert all(b in (4, 8) for b in ctrl.bit_config.values())


# -- controller aggregation ------------------------------------------------


def test_total_loss_sums_only_rb():
    g = build_model("cnn-small", 1)
    cfg = {
        "compression": [
            {"algorithm": "rb_sparsity", "schedule": {"target": 0.5}},
            {"algorithm": "quantization", "bits": 8},
        ]
    }
    controllers, wrapped = create_compressed_model(g, cfg, [stripes_like(16)])
    scheduler_epoch_step(controllers)
    total = total_compression_loss(controllers).item()
    rb_alone = controllers[0].loss().item()
    assert total == pytest.approx(rb_alone, abs=1e-15)
    assert total > 0

    g2 = build_model("cnn-small", 1)
    mag, _ = create_compressed_model(
        g2, {"compression": [{"algorithm": "magnitude_sparsity"}]}
    )
    assert total_compression_loss(mag).item() == 0.0


def test_epoch_steps_drive_schedules_and_metric():
    g = build_model("cnn-small", 1)
    cfg = {
        "compression": [
            {
                "algorithm": "magnitude_sparsity",
                "schedule": {"mode": "polynomial", "init": 0.0, "target": 0.5, "epochs": 10},
            }
        ]
    }
    controllers, wrapped = create_compressed_model(g, cfg)
    for _ in range(11):
        scheduler_epoch_step(controllers, metric=1.0)
    assert controllers[0].level == 0.5
    stats = controllers[0].statistics()
    n = sum(m.mask.size for m in controllers[0].hooks.values())
    assert stats["achieved_sparsity"] == pytest.approx(round(0.5 * n) / n)


@pytest.mark.parametrize("config_path", sorted(REPO.glob("configs/*.json")), ids=lambda p: p.name)
def test_scheduler_state_restores_every_algorithm(config_path):
    """A controller given another's scheduler state, through JSON as a
    checkpoint stores it, steps on to the same state and statistics."""
    config = json.loads(config_path.read_text())
    graph = build_model("cnn-small", 3)
    first, _ = create_compressed_model(graph, config, [stripes_like(16)])
    second, _ = create_compressed_model(graph, config, [stripes_like(16)])
    for metric in (None, 1.0, 0.99995):  # the last epoch stalls, for adaptive schedules
        scheduler_epoch_step(first, metric=metric)
        scheduler_step(first)
    for a, b in zip(first, second):
        b.scheduler.load_state_dict(json.loads(json.dumps(a.scheduler.state_dict())))
    for controllers in (first, second):
        scheduler_epoch_step(controllers, metric=0.5)
    for a, b in zip(first, second):
        state = a.scheduler.state_dict()
        assert {"epoch", "steps", "metric_history"} <= set(state)
        assert state == b.scheduler.state_dict()
        assert a.statistics() == b.statistics()


def test_batch_step_is_noop_for_quantization():
    g = build_model("cnn-small", 1)
    controllers, wrapped = create_compressed_model(
        g, {"compression": [{"algorithm": "quantization"}]}, [stripes_like(16)]
    )
    before = controllers[0].statistics()
    scheduler_step(controllers)
    assert controllers[0].statistics() == before
    assert controllers[0].scheduler.steps == 1


def test_extra_params_aggregated():
    g = build_model("cnn-small", 1)
    cfg = {
        "compression": [
            {"algorithm": "rb_sparsity", "score_lr_multiplier": 4.0},
            {"algorithm": "quantization", "mode": "asymmetric"},
        ]
    }
    controllers, wrapped = create_compressed_model(g, cfg, [stripes_like(16)])
    params = [p for ctrl in controllers for p in ctrl.extra_params()]
    names = [n for n, _, _ in params]
    assert any(n.startswith("rb_sparsity:") for n in names)
    assert any(n.startswith("quantization:") for n in names)
    # the gate scores take their section's multiplier, the quantizer ranges the default
    assert {m for n, _, m in params if n.startswith("rb_sparsity:")} == {4.0}
    assert {m for n, _, m in params if n.startswith("quantization:")} == {1.0}


# the tensors each config's hooks add on cnn-residual, as the controllers once listed them by hand
RESIDUAL_EXTRA_PARAMS = {"int8_sparse50": 12, "rb_sparsity50": 4, "binarize": 6, "quant_asym_percentile": 24}


@pytest.mark.filterwarnings("ignore:binarization denylist pattern")
@pytest.mark.parametrize("preset", PRESETS)
@pytest.mark.parametrize("config_path", sorted(REPO.glob("configs/*.json")), ids=lambda p: p.name)
def test_trainable_names_are_unique(config_path, preset):
    """train_model's optimizer takes every stack's trainables: each tensor once, each under its own name."""
    graph = build_model(preset, 0)
    rng = np.random.default_rng(0)
    batch = (rng.normal(size=(16, *graph.input_shape)), rng.integers(0, 2, size=16))
    config = json.loads(config_path.read_text())
    config.pop("input_shape", None)  # the stack is what counts here, on every preset
    controllers, g = create_compressed_model(graph, config, [batch])
    extra = [p for ctrl in controllers for p in ctrl.extra_params()]
    params = [(f"model:{nid}:{pname}", p, 1.0) for nid, pname, p in g.parameters()] + extra
    assert len({name for name, _, _ in params}) == len(params)
    assert len({id(t) for _, t, _ in params}) == len(params)
    assert all(t.requires_grad for _, t, _ in params)
    SGD(params, lr=0.1, momentum=0.9)
    if preset == "cnn-residual" and config_path.stem in RESIDUAL_EXTRA_PARAMS:
        assert len(extra) == RESIDUAL_EXTRA_PARAMS[config_path.stem]


# -- export ----------------------------------------------------------------


def test_export_quantized_round_trip(tmp_path):
    g = build_model("cnn-small", 2)
    controllers, wrapped = create_compressed_model(
        g, {"compression": [{"algorithm": "quantization", "bits": 8}]}, [stripes_like(32)]
    )
    path = tmp_path / "model.nncm"
    exported = export_model(controllers, wrapped, path)
    loaded, _ = load_model(path)
    x = Tensor(np.random.default_rng(4).normal(size=(8, 1, 8, 8)))
    a = wrapped.run(x).data
    np.testing.assert_allclose(loaded.run(x).data, a, atol=1e-9)
    kinds = {type(h.transform).__name__ for h in loaded.hooks}
    assert kinds == {"FakeQuantizer"}


def test_export_sparse_bakes_zeros(tmp_path):
    g = build_model("cnn-small", 2)
    cfg = {
        "compression": [
            {"algorithm": "magnitude_sparsity", "schedule": {"init": 0.5, "target": 0.5, "epochs": 0}}
        ]
    }
    controllers, wrapped = create_compressed_model(g, cfg)
    scheduler_epoch_step(controllers)
    path = tmp_path / "sparse.nncm"
    exported = export_model(controllers, wrapped, path)
    loaded, _ = load_model(path)
    weights = np.concatenate(
        [loaded.nodes[nid].params["weight"].data.ravel() for nid in ("conv1", "conv2", "fc")]
    )
    assert (weights == 0).mean() >= 0.5
    assert not loaded.hooks


def test_export_pruned_strips(tmp_path):
    g = build_model("cnn-small", 2)
    cfg = {
        "compression": [
            {"algorithm": "filter_pruning", "criterion": "l2", "pruning_rate": 0.3}
        ]
    }
    controllers, wrapped = create_compressed_model(g, cfg)
    scheduler_epoch_step(controllers)
    x = Tensor(np.random.default_rng(5).normal(size=(8, 1, 8, 8)))
    ref = wrapped.run(x).data
    path = tmp_path / "pruned.nncm"
    exported = export_model(controllers, wrapped, path)
    assert exported.num_params() < wrapped.num_params()
    assert exported.nodes["conv1"].attrs["out_channels"] == 3
    assert exported.nodes["conv2"].attrs["out_channels"] == 6
    loaded, _ = load_model(path)
    np.testing.assert_allclose(loaded.run(x).data, ref, atol=1e-9)


@pytest.mark.parametrize("config_path", sorted(REPO.glob("configs/*.json")), ids=lambda p: p.name)
def test_export_from_checkpoint_matches_live(config_path, tmp_path):
    config = json.loads(config_path.read_text())
    controllers, wrapped = create_compressed_model(build_model("cnn-small", 2), config, [stripes_like(64)])
    for _ in range(9):  # past every sample schedule's ramp, so masks and stages are live
        scheduler_epoch_step(controllers)
    export_graph(wrapped, tmp_path / "live.nncm")
    save_checkpoint(wrapped, tmp_path / "checkpoint.nncm", config=config, epoch=8)
    restored, _ = load_checkpoint(tmp_path / "checkpoint.nncm")
    export_graph(restored, tmp_path / "restored.nncm")
    assert (tmp_path / "live.nncm").read_bytes() == (tmp_path / "restored.nncm").read_bytes()


def test_export_drops_pruning_hooks_when_nothing_is_prunable(tmp_path):
    g = build_model("cnn-small", 2)
    cfg = {"compression": [{"algorithm": "filter_pruning", "pruning_rate": 0.5, "exclude": ["*"]}]}
    controllers, wrapped = create_compressed_model(g, cfg)
    scheduler_epoch_step(controllers)
    assert controllers[0].prunable == [] and wrapped.hooks
    exported = export_graph(wrapped, tmp_path / "dense.nncm")
    assert not exported.hooks
    assert serialize_model(exported) == serialize_model(g)


def test_export_rejects_uninitialized_quantizers(tmp_path):
    g = build_model("cnn-small", 2)
    controllers, wrapped = create_compressed_model(
        g, {"compression": [{"algorithm": "quantization"}]}
    )
    with pytest.raises(SerializationError, match="uninitialized"):
        export_model(controllers, wrapped, tmp_path / "x.nncm")
    with pytest.raises(SerializationError, match="uninitialized"):
        export_graph(wrapped, tmp_path / "y.nncm")
