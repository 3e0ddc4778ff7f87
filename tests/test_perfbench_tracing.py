"""The benchmark's tracer wraps module-level names of ite_bench from outside
(perfbench/tracing.py, BINDINGS). This guard fails when a wrapped name moves,
which would crash a traced benchmark run, or when a call bypasses its module
binding, which would make that layer's traced metrics read 0."""

import importlib

from perfbench_module import load_perfbench

from ite_bench import model
from ite_bench.simulate import SimConfig, simulate_dataset


def test_tracer_wraps_every_binding_and_records_the_training_layers(tmp_path):
    tracing = load_perfbench("tracing")
    ds = simulate_dataset(SimConfig(n=120, d=4, k=3, seed=2))
    shape = model.ModelShape(cov_width=8, cov_out=4, treat_width=4, treat_out=3, head_width=4)
    cfg = model.TrainConfig(batch_size=32, epochs_max=1, seed=0)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for name, (bindings, _) in tracing.BINDINGS.items():
            for module_name, attr in bindings:
                bound = getattr(importlib.import_module(module_name), attr)
                assert hasattr(bound, "__wrapped__"), f"{name}: {module_name}.{attr}"
        trained = model.train(ds, shape, cfg, "joint")
        model.save_checkpoint(tmp_path / "checkpoint.json", trained)
        model.load_checkpoint(tmp_path / "checkpoint.json")
    finally:
        tracer.uninstall()
    assert not hasattr(model.train, "__wrapped__")

    calls = {}
    for span in tracer.spans:
        calls[span.name] = calls.get(span.name, 0) + 1
    for name in ("nn.forward", "nn.backward", "nn.sgd_step", "mmd.balance", "model.batch_loss"):
        assert calls.get(name, 0) > 0, name
    n_batches = -(-len(ds.splits["train"]) // cfg.batch_size)
    assert calls["model.batch_loss"] == calls["nn.sgd_step"] == n_batches
    assert calls["model.ckpt_save"] == calls["model.ckpt_load"] == 1
