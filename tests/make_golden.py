"""Write ``tests/golden_values.py``, the float64 goldens ``tests/test_golden.py`` checks.

For each guidance type it builds a float64 ``guidedepth-tiny`` with seed 0, draws
``x`` (4, 3, 32, 48) and ``y`` (4, 1, 32, 48) from ``np.random.default_rng(1)``, runs
the train forward, ``loss_terms`` and ``backward``, then the eval forward of ``x``.
Each of those arrays (the prediction, each loss term, each parameter gradient by
name and the eval prediction) is recorded as its sum, its sum of squares and
three fixed entries. Then it records the six metrics of ``evaluate`` on
``generate_dataset(4, 100, 64, 96)`` at (32, 48), crop ``none``, with flip
averaging.

In float64 two machines differ only by BLAS kernel rounding, about 1e-15
relative, so the test's 1e-9 tells a change that only reorders a sum from one
that moves a number. Regenerate only for a change that moves the numbers on
purpose, and say so where the change is recorded:

    PYTHONPATH=src python tests/make_golden.py

Without a ``test_`` prefix pytest does not collect this file.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

import numpy as np

from guidedepth import blocks as B
from guidedepth import data as D
from guidedepth import evaluate as E
from guidedepth import losses as L
from guidedepth import tensor as T

STEP_SEED = 1  # of the rng that draws x and y
DATA_SEED = 100  # base seed of the evaluated scenes


def summary(a: np.ndarray) -> tuple[float, ...]:
    """``(sum, sum of squares, first entry, middle entry, last entry)`` of ``a``, flat."""
    flat = a.ravel()
    return (float(flat.sum()), float(np.square(flat).sum()), *(float(flat[i]) for i in (0, flat.size // 2, -1)))


def predictor(model: B.DepthNet) -> E.Predictor:
    """``model_predictor(model)`` with its output mapped into the normalized depth
    range (1, 10): an untrained model's raw output lies below 1, where every
    prediction is clipped to ``d_max``."""
    forward = E.model_predictor(model)

    def predict(image: T.Tensor, sample: D.DepthSample) -> T.Tensor:
        return T.affine(T.sigmoid(forward(image, sample)), 9.0, 1.0)

    return predict


def record(guidance: str) -> tuple[dict[str, tuple[float, ...]], dict[str, float]]:
    """The ``summary`` of every array of the step, by name, and the metrics of ``evaluate``."""
    model = B.build_model(B.ModelConfig("guidedepth-tiny", guidance), 0, np.float64)
    rng = np.random.default_rng(STEP_SEED)
    x = T.Tensor(rng.uniform(0, 1, (4, 3, 32, 48)), dtype=np.float64)
    y = T.Tensor(rng.uniform(0.1, 1, (4, 1, 32, 48)), dtype=np.float64)
    pred = model.forward(x, train=True)
    terms = L.loss_terms(y, pred, L.LossConfig())
    T.backward(terms["total"])
    arrays = {"pred": pred.data}
    arrays.update((f"loss.{k}", t.data) for k, t in terms.items())
    arrays.update((f"grad.{name}", p.grad) for name, p in model.named_parameters())
    arrays["eval"] = model.forward(x).data
    metrics = E.evaluate(predictor(model), D.generate_dataset(4, DATA_SEED, 64, 96), (32, 48), "none", True)
    return {k: summary(a) for k, a in arrays.items()}, dataclasses.asdict(metrics)


def main() -> None:
    step, metrics = {}, {}
    for guidance in B.GUIDANCE_TYPES:
        step[guidance], metrics[guidance] = record(guidance)
    lines = [
        '"""Float64 goldens of ``tests/test_golden.py``, written by ``tests/make_golden.py``; do not edit."""',
        "",
        "# guidance -> array name -> (sum, sum of squares, first, middle and last entry)",
        "STEP = {",
    ]
    for guidance, arrays in step.items():
        lines.append(f'    "{guidance}": {{')
        lines += [f'        "{name}": {values!r},' for name, values in arrays.items()]
        lines.append("    },")
    lines += ["}", "", "# guidance -> metric -> value", "METRICS = {"]
    for guidance, values in metrics.items():
        lines.append(f'    "{guidance}": {{' + ", ".join(f'"{k}": {v!r}' for k, v in values.items()) + "},")
    lines.append("}")
    Path(__file__).with_name("golden_values.py").write_text("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
