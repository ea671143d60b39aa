"""One-hidden-layer network: softmax output, cross-entropy loss.

Mini-batch training (batch 32) for at most 200 epochs with Glorot-uniform
init from the model's seed stream. Solvers: plain SGD with momentum 0.9
(step 0.01) or Adam (step 0.001, betas 0.9/0.999). Training stops once
the mean epoch loss has failed to improve by 1e-4 for 10 straight epochs;
hitting the epoch cap first returns the model flagged non-converged.

``w1, b1, w2, b2`` are views of one flat parameter buffer, and their
gradients views of one flat gradient buffer, written in place by
``matmul(..., out=)`` and ``sum(axis=0, out=)``. The solver state
(momentum, or Adam's two moments) is flat too, so a step is a dozen
whole-buffer ufuncs with ``out=`` instead of temporaries per parameter.
Every operation keeps its operands and their order, so the numbers equal
a per-parameter update bit for bit. ``fit`` returns copies of the views.
"""
from __future__ import annotations

import numpy as np

from ..errors import UnsupportedKind
from ..seeding import rng_from

BATCH_SIZE = 32
MAX_EPOCHS = 200
LOSS_TOL = 1e-4
PATIENCE = 10
SGD_LR = 0.01
SGD_MOMENTUM = 0.9
ADAM_LR = 0.001
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# added to the softmax output inside the loss's log
LOG_EPS = 1e-12

GRID = {"hidden": [50, 100, 200], "activation": ["relu", "tanh"], "solver": ["sgd", "adam"]}
COUNTS = ("hidden",)
STATE = ("w1", "b1", "w2", "b2", "activation")


def _glorot(rng, fan_in, fan_out):
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def _act(z, kind):
    if kind == "relu":
        return np.maximum(z, 0.0)
    if kind == "tanh":
        return np.tanh(z)
    raise UnsupportedKind(f"unknown NeuralNet activation {kind!r}")


def _act_grad(z, a, kind):
    return (z > 0).astype(float) if kind == "relu" else 1.0 - a**2


def softmax(z):
    """Row-wise softmax, shifted by each row's maximum."""
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _views(flat, shapes):
    """Consecutive views of ``flat`` with the given shapes."""
    ends = np.cumsum([np.prod(shape, dtype=int) for shape in shapes])
    return [part.reshape(shape) for part, shape in zip(np.split(flat, ends[:-1]), shapes)]


def fit(Xs: np.ndarray, y: np.ndarray, k: int, hp: dict, seed: int):
    n, d = Xs.shape
    hidden = int(hp["hidden"])
    activation = hp["activation"]
    solver = hp["solver"]
    rng = rng_from(seed, "neural")
    shapes = [(d, hidden), (hidden,), (hidden, k), (k,)]
    size = (d + 1) * hidden + (hidden + 1) * k
    params, grads = np.zeros(size), np.zeros(size)
    w1, b1, w2, b2 = _views(params, shapes)
    gw1, gb1, gw2, gb2 = _views(grads, shapes)
    w1[...] = _glorot(rng, d, hidden)
    w2[...] = _glorot(rng, hidden, k)
    onehot = np.eye(k)[y]

    # velocity (sgd) or first moment (adam), second moment, two scratch buffers
    moment1, moment2, step, scale = (np.zeros(size) for _ in range(4))
    adam_t = 0

    best_loss = np.inf
    stall = 0
    converged = False
    for _epoch in range(MAX_EPOCHS):
        order = rng.permutation(n)
        losses = []
        for start in range(0, n, BATCH_SIZE):
            batch = order[start : start + BATCH_SIZE]
            xb, tb = Xs[batch], onehot[batch]
            m = len(batch)
            z1 = xb @ w1 + b1
            a1 = _act(z1, activation)
            probs = softmax(a1 @ w2 + b2)
            losses.append(float(-(tb * np.log(probs + LOG_EPS)).sum() / m))
            dz2 = (probs - tb) / m
            dz1 = (dz2 @ w2.T) * _act_grad(z1, a1, activation)
            np.matmul(xb.T, dz1, out=gw1)
            dz1.sum(axis=0, out=gb1)
            np.matmul(a1.T, dz2, out=gw2)
            dz2.sum(axis=0, out=gb2)
            if solver == "sgd":
                moment1 *= SGD_MOMENTUM
                np.multiply(SGD_LR, grads, out=step)
                moment1 -= step
                params += moment1
            else:
                adam_t += 1
                correct1 = 1 - ADAM_BETA1**adam_t
                correct2 = 1 - ADAM_BETA2**adam_t
                moment1 *= ADAM_BETA1
                np.multiply(1 - ADAM_BETA1, grads, out=step)
                moment1 += step
                moment2 *= ADAM_BETA2
                np.square(grads, out=step)
                np.multiply(1 - ADAM_BETA2, step, out=step)
                moment2 += step
                np.divide(moment1, correct1, out=step)            # m-hat
                np.multiply(ADAM_LR, step, out=step)
                np.divide(moment2, correct2, out=scale)           # v-hat
                np.sqrt(scale, out=scale)
                scale += ADAM_EPS
                step /= scale
                params -= step
        epoch_loss = np.add.reduce(losses) / len(losses)
        if epoch_loss > best_loss - LOSS_TOL:
            stall += 1
            if stall >= PATIENCE:
                converged = True
                break
        else:
            stall = 0
        best_loss = min(best_loss, epoch_loss)
    return {"w1": w1.copy(), "b1": b1.copy(), "w2": w2.copy(), "b2": b2.copy(),
            "activation": activation}, converged


def predict(params: dict, Xs: np.ndarray, k: int, hp: dict):
    a1 = _act(Xs @ params["w1"] + params["b1"], params["activation"])
    scores = softmax(a1 @ params["w2"] + params["b2"])
    return np.argmax(scores, axis=1), scores

