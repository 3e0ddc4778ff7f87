"""The untrained model a fit starts from: every fit runs at least one epoch,
so a test that needs the initialization builds it here."""

import numpy as np

from ite_bench import model as model_module


def initial_model(ds, shape, cfg, variant="joint"):
    """train's initialization for dataset ds, shape, cfg and variant: the
    first of SeedSequence(cfg.seed)'s three children seeds the weights.
    build_model is looked up when called, so the zero_init fixture applies."""
    s_init = np.random.SeedSequence(cfg.seed).spawn(3)[0]
    return model_module.build_model(ds.d, ds.k, shape, variant, rng=np.random.default_rng(s_init))
