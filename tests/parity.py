"""Print one SHA-256 over the numbers of a train step and an eval forward of every model.

For each preset, guidance type and dtype (float32, float64) it builds the model
with seed 0, runs a train-mode forward of a batch of 4 at 96x128, the loss and
the backward, then an eval forward, and hashes the prediction, every loss term,
every parameter gradient and the eval prediction, in that order.

The value depends on the machine (BLAS kernels and thread count), so compare
two checkouts on one machine, each through its own ``src``:

    PYTHONPATH=<checkout>/src python tests/parity.py

Every recorded op of a batch of 4 splits its batch, so on a host of more than
one core with numpy's bundled OpenBLAS a train step runs every GEMM on one BLAS
thread, and its numbers are the same with OpenBLAS pinned to one thread or not.
Without a ``test_`` prefix pytest does not collect this file.
"""

import hashlib

import numpy as np

from guidedepth import blocks as B
from guidedepth import losses as L
from guidedepth import tensor as T


def digest() -> str:
    h = hashlib.sha256()
    for preset in B.PRESETS:
        for guidance in B.GUIDANCE_TYPES:
            for dt in (np.float32, np.float64):
                model = B.build_model(B.ModelConfig(preset, guidance), 0, dt)
                rng = np.random.default_rng(1)
                x = T.Tensor(rng.uniform(0, 1, (4, 3, 96, 128)), dtype=dt)
                y = T.Tensor(rng.uniform(0.1, 1, (4, 1, 96, 128)), dtype=dt)
                pred = model.forward(x, train=True)
                terms = L.loss_terms(y, pred, L.LossConfig())
                T.backward(terms["total"])
                arrays = [pred.data, *(t.data for t in terms.values())]
                arrays += [p.grad for p in model.parameters()] + [model.forward(x).data]
                for a in arrays:
                    h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


if __name__ == "__main__":
    print(digest())
