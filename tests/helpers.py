"""Shared test utilities: finite-difference oracles and gradient checks."""

from __future__ import annotations

import numpy as np

from guidedepth import tensor as T


def finite_diff_grad(f, t: T.Tensor, step: float = 1e-3) -> np.ndarray:
    """Central finite differences of scalar f() w.r.t. every entry of t.

    f must re-run the forward pass using t.data; evaluation happens under
    no_grad so the probes build no graph.
    """
    base = t.data.copy()
    g = np.zeros_like(base, dtype=np.float64)
    flat = t.data.reshape(-1)
    with T.no_grad():
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            lp = f().item()
            flat[i] = orig - step
            lm = f().item()
            flat[i] = orig
            g.reshape(-1)[i] = (lp - lm) / (2.0 * step)
    t.data[...] = base
    return g


def conv2d_reference(x, w, b, stride, padding, g):
    """Plain-loop float64 cross-correlation and its gradients, for parity tests.

    Loops over every output position and kernel tap. Returns
    ``(y, dx, dw, db)`` where the gradients are those of ``sum(y * g)``.
    """
    x, w, b, g = (np.asarray(a, dtype=np.float64) for a in (x, w, b, g))
    n, ci, h, wd = x.shape
    co, _, kh, kw = w.shape
    s, p = stride, padding
    xp = np.zeros((n, ci, h + 2 * p, wd + 2 * p))
    xp[:, :, p : p + h, p : p + wd] = x
    oh, ow = (h + 2 * p - kh) // s + 1, (wd + 2 * p - kw) // s + 1
    y = np.zeros((n, co, oh, ow)) + b
    dxp, dw = np.zeros_like(xp), np.zeros_like(w)
    for i in range(oh):
        for j in range(ow):
            for k in range(kh):
                for l in range(kw):
                    r, c = s * i + k, s * j + l
                    y[:, :, i, j] += xp[:, :, r, c] @ w[:, :, k, l].T
                    dw[:, :, k, l] += g[:, :, i, j].T @ xp[:, :, r, c]
                    dxp[:, :, r, c] += g[:, :, i, j] @ w[:, :, k, l]
    db = g.sum(axis=(0, 2, 3)).reshape(1, co, 1, 1)
    return y, dxp[:, :, p : p + h, p : p + wd], dw, db


def perturb_params(module, rng, scale: float = 0.05) -> None:
    """Nudge every parameter off its init so FD probes avoid ReLU/abs kinks."""
    for _, p in module.named_parameters():
        p.data += (scale * rng.standard_normal(p.shape)).astype(p.data.dtype)


def rel_err(a: np.ndarray, b: np.ndarray, floor: float = 1e-8) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom))


def check_grads(build_loss, tensors, step=1e-3, tol=1e-3, floor=1e-6):
    """Analytic gradients of build_loss() vs central differences, per tensor.

    tensors is a dict name -> Tensor with requires_grad set. Returns the worst
    relative error observed (also asserted against tol).
    """
    for t in tensors.values():
        t.grad = None
    loss = build_loss()
    T.backward(loss)
    worst = 0.0
    for name, t in tensors.items():
        assert t.grad is not None, f"{name}: no gradient populated"
        fd = finite_diff_grad(build_loss, t, step=step)
        err = rel_err(t.grad, fd, floor=floor)
        assert err < tol, f"{name}: gradient rel err {err:.3e} >= {tol:.0e}"
        worst = max(worst, err)
    return worst


def directional_grad_check(build_loss, tensors, rng, step=1e-4):
    """Directional derivative along a random direction over all tensors at once.

    Returns (analytic, numeric): g.v versus (f(x+hv) - f(x-hv)) / 2h. Checks
    the full gradient with just two extra forward passes.
    """
    for t in tensors:
        t.grad = None
    loss = build_loss()
    T.backward(loss)
    dirs = []
    analytic = 0.0
    for t in tensors:
        v = rng.standard_normal(t.shape)
        v /= np.linalg.norm(v.ravel())
        dirs.append(v)
        assert t.grad is not None
        analytic += float((t.grad.astype(np.float64) * v).sum())
    bases = [t.data.copy() for t in tensors]
    with T.no_grad():
        for t, v, base in zip(tensors, dirs, bases):
            t.data[...] = (base + step * v).astype(t.data.dtype)
        lp = build_loss().item()
        for t, v, base in zip(tensors, dirs, bases):
            t.data[...] = (base - step * v).astype(t.data.dtype)
        lm = build_loss().item()
        for t, base in zip(tensors, bases):
            t.data[...] = base
    numeric = (lp - lm) / (2.0 * step)
    return analytic, numeric
