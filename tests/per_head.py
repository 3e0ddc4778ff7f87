"""The per-head reference that the bit-for-bit tests of the head stack
compare against: heads run one at a time, each as a one-segment pass over
its own rows through buffers of its own."""

import numpy as np

from ite_bench import model as model_module
from ite_bench.mmd import treatment_regularization_loss
from ite_bench.nn import mlp_backward, mlp_forward, stack_backward, stack_forward


def head_pass(model, s, head_in, rng=None):
    """Head s alone on the rows of head_in: its output column and the cache."""
    rngs = None if rng is None else [rng]
    out, cache = stack_forward(model.head_stack, head_in, [(s, 0, len(head_in))], None, rngs)
    return out[:, 0], cache


def fresh_column(model, cov_out, t_emb, t):
    """predict_all_outcomes' column t for the rows of cov_out: head t, or
    the mean of the trained heads when head t is untrained and some other
    head is not."""
    head_in = cov_out
    if model.variant == "joint":
        treat = mlp_forward(model.treat_net, t_emb[t : t + 1])[0]
        head_in = np.concatenate([cov_out, np.repeat(treat, len(cov_out), axis=0)], axis=1)
    trained = [s for s in range(model.k) if model.head_trained(s)]
    if t in trained or not trained:
        return head_pass(model, t, head_in)[0]
    return np.mean([head_pass(model, s, head_in)[0] for s in trained], axis=0)


def per_head_batch_loss(model, batch, t_emb, cfg, dropout_seed):
    """batch_loss as a loop over the heads: each head runs forward and
    backward on its own rows, gathered out of the batch, and scatters its
    input gradient back. Returns total, mse, balance, the gradient and the
    rows per head."""
    x, t, y = batch
    n = t.size
    grad = np.zeros_like(model.theta)
    views = model.views(grad)

    def rng(i):
        return model_module._dropout_rng(dropout_seed, i)

    cov_out, cov_cache = mlp_forward(model.cov_net, x, rng(0))
    head_in = cov_out
    if model.variant == "joint":
        treat_out, treat_cache = mlp_forward(model.treat_net, t_emb[t], rng(1))
        head_in = np.concatenate([cov_out, treat_out], axis=1)
    resid = np.empty(n)
    d_head_in = np.zeros_like(head_in)
    rows_by_t = [np.flatnonzero(t == s) for s in range(model.k)]
    for s, rows in enumerate(rows_by_t):
        if rows.size:
            out, cache = head_pass(model, s, head_in[rows], rng(2 + s))
            resid[rows] = out - y[rows]
            upstream = (cfg.alpha * ((2.0 / n) * resid[rows]))[:, None]
            d_head_in[rows] += stack_backward(model.head_stack, cache, upstream, views[-1])
    mse = float(np.mean(resid * resid))
    balance = 0.0
    if model.variant == "joint":
        groups = {s: head_in[rows] for s, rows in enumerate(rows_by_t) if rows.size}
        balance, bal_grads = treatment_regularization_loss(groups, cfg.bandwidth)
        for s, g in bal_grads.items():
            d_head_in[rows_by_t[s]] += cfg.beta * g
    width = cov_out.shape[1]
    mlp_backward(model.cov_net, cov_cache, d_head_in[:, :width], views[0])
    if model.variant == "joint":
        mlp_backward(model.treat_net, treat_cache, d_head_in[:, width:], views[1])
    total = cfg.alpha * mse + cfg.beta * balance
    return total, mse, balance, grad, tuple(rows.size for rows in rows_by_t)
