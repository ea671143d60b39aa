"""One-hidden-layer network: softmax output, cross-entropy loss.

Mini-batch training (batch 32) for at most 200 epochs with Glorot-uniform
init from the model's seed stream. Solvers: plain SGD with momentum 0.9
(step 0.01) or Adam (step 0.001, betas 0.9/0.999). Training stops once
the mean epoch loss has failed to improve by 1e-4 for 10 straight epochs;
hitting the epoch cap first returns the model flagged non-converged.
"""
from __future__ import annotations

import numpy as np

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

GRID = {"hidden": [50, 100, 200], "activation": ["relu", "tanh"], "solver": ["sgd", "adam"]}
COUNTS = ("hidden",)
STATE = ("w1", "b1", "w2", "b2", "activation")


def _glorot(rng, fan_in, fan_out):
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def _act(z, kind):
    return np.maximum(z, 0.0) if kind == "relu" else np.tanh(z)


def _act_grad(z, a, kind):
    return (z > 0).astype(float) if kind == "relu" else 1.0 - a**2


def _softmax(z):
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def fit(Xs: np.ndarray, y: np.ndarray, k: int, hp: dict, seed: int):
    n, d = Xs.shape
    hidden = int(hp["hidden"])
    activation = hp["activation"]
    solver = hp["solver"]
    rng = rng_from(seed, "neural")
    w1 = _glorot(rng, d, hidden)
    b1 = np.zeros(hidden)
    w2 = _glorot(rng, hidden, k)
    b2 = np.zeros(k)
    onehot = np.eye(k)[y]

    velocity = [np.zeros_like(p) for p in (w1, b1, w2, b2)]
    adam_m = [np.zeros_like(p) for p in (w1, b1, w2, b2)]
    adam_v = [np.zeros_like(p) for p in (w1, b1, w2, b2)]
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
            probs = _softmax(a1 @ w2 + b2)
            eps = 1e-12
            losses.append(float(-(tb * np.log(probs + eps)).sum() / m))
            dz2 = (probs - tb) / m
            dz1 = (dz2 @ w2.T) * _act_grad(z1, a1, activation)
            grads = [xb.T @ dz1, dz1.sum(axis=0), a1.T @ dz2, dz2.sum(axis=0)]
            params = [w1, b1, w2, b2]
            if solver == "sgd":
                for p, g, v in zip(params, grads, velocity):
                    v *= SGD_MOMENTUM
                    v -= SGD_LR * g
                    p += v
            else:
                adam_t += 1
                correct1 = 1 - ADAM_BETA1**adam_t
                correct2 = 1 - ADAM_BETA2**adam_t
                for p, g, m1, v1 in zip(params, grads, adam_m, adam_v):
                    m1 *= ADAM_BETA1
                    m1 += (1 - ADAM_BETA1) * g
                    v1 *= ADAM_BETA2
                    v1 += (1 - ADAM_BETA2) * g**2
                    mhat = m1 / correct1
                    vhat = v1 / correct2
                    p -= ADAM_LR * mhat / (np.sqrt(vhat) + ADAM_EPS)
        epoch_loss = float(np.mean(losses))
        if epoch_loss > best_loss - LOSS_TOL:
            stall += 1
            if stall >= PATIENCE:
                converged = True
                break
        else:
            stall = 0
        best_loss = min(best_loss, epoch_loss)
    return {"w1": w1, "b1": b1, "w2": w2, "b2": b2, "activation": activation}, converged


def predict(params: dict, Xs: np.ndarray, k: int, hp: dict):
    a1 = _act(Xs @ params["w1"] + params["b1"], params["activation"])
    scores = _softmax(a1 @ params["w2"] + params["b2"])
    return np.argmax(scores, axis=1), scores

