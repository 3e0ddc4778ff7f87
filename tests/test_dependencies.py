"""The package runs on numpy and the standard library alone, and only a
pooled sweep loads the standard library's process pool."""

import ast
import subprocess
import sys
import textwrap
from pathlib import Path

import ite_bench

PACKAGE = Path(ite_bench.__file__).resolve().parent


def _imported_modules(path):
    """(line, top-level module) of every absolute import in the file; a
    relative import yields None for the module."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            top = None if node.level else node.module.split(".")[0]
            yield node.lineno, top


def test_every_import_is_relative_numpy_or_stdlib():
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) >= 10
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    outside = [
        f"{path.name}:{line}: {module}"
        for path in sources
        for line, module in _imported_modules(path)
        if module is not None and module not in allowed
    ]
    assert outside == []


def test_a_fit_and_a_serial_sweep_load_no_process_pool(tmp_path):
    # a fresh interpreter: pytest itself may have loaded the pool modules
    code = textwrap.dedent(f"""
        import sys
        sys.path.insert(0, {str(PACKAGE.parent)!r})
        from ite_bench.experiments import ExperimentConfig, SweepSpec, run_sweep
        from ite_bench.metrics import evaluate_model
        from ite_bench.model import ModelShape, TrainConfig, train
        from ite_bench.simulate import SimConfig, simulate_dataset

        shape = ModelShape(
            cov_layers=1, cov_width=4, cov_out=3, treat_layers=1, treat_width=4,
            treat_out=2, head_layers=1, head_width=4, dropout_rate=0.0,
        )
        cfg = TrainConfig(batch_size=32, epochs_max=1, base_lr=0.05)
        sim = SimConfig(n=80, d=4, k=2, seed=3)
        fit = train(simulate_dataset(sim), shape, cfg)
        evaluate_model(fit.model, simulate_dataset(sim))
        base = ExperimentConfig(sim=sim, model=shape, train=cfg)
        run_sweep(SweepSpec(base, {{"train.base_lr": [0.05, 0.2]}}), {str(tmp_path)!r}, threads=1)
        print(sorted(m for m in ("multiprocessing", "concurrent.futures.process") if m in sys.modules))
    """)
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"
