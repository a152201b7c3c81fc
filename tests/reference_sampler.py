"""A reference for ``classes.sample_batch``: the sampler as one case
analysis over the class kinds, before each kind's draw and decode moved
into the parameter table.

``sample_batch``, which decodes the table's draws, must return the same
stack bit for bit and leave the generator in the same state, so it
shares none of that code.
"""

import numpy as np

from dgstab.classes import ClassKind, MatrixClass

_LOG_RANGE = (-3.0, 3.0)


def _member_arrays(c: MatrixClass) -> list[np.ndarray]:
    return [np.array(m, dtype=float) for m in c.members]


def _log_uniform(rng: np.random.Generator, shape) -> np.ndarray:
    return 10.0 ** rng.uniform(*_LOG_RANGE, size=shape)


def sample_batch(c: MatrixClass, rng: np.random.Generator, count: int) -> np.ndarray:
    """Draw ``count`` members as a (count, n, n) stack.

    Deterministic given the generator state; every draw satisfies
    ``contains``, at tolerances up to 1e-7 (the engine re-checks
    witnesses at 1e-7).
    """
    n = c.order
    k = c.kind
    out = np.zeros((count, n, n))

    if k is ClassKind.SYMMETRIC:
        g = rng.standard_normal((count, n, n))
        return g + np.swapaxes(g, 1, 2)
    if k in (ClassKind.SPD, ClassKind.ALPHA_BLOCK_SPD):
        # SPD is the one-block case; the shift puts every draw's smallest
        # eigenvalue above 1e-7 times its largest diagonal entry, which
        # is what contains(c, g, 1e-7) asks of it
        for block in c.partition.blocks if c.partition else (range(n),):
            sel = np.asarray(block)
            b = rng.standard_normal((count, sel.size, sel.size))
            out[np.ix_(range(count), sel, sel)] = np.swapaxes(b, 1, 2) @ b
        shift = 1e-6 * out.diagonal(axis1=1, axis2=2).max(axis=1)
        return out + shift[:, None, None] * np.eye(n)
    if k is ClassKind.DIAG:
        vals = rng.choice([-1.0, 1.0], size=(count, n)) * _log_uniform(rng, (count, n))
    elif k is ClassKind.POS_DIAG:
        vals = _log_uniform(rng, (count, n))
    elif k is ClassKind.SIGN_DIAG:
        vals = np.asarray(c.signs, dtype=float) * _log_uniform(rng, (count, n))
    elif k in (ClassKind.ALPHA_SCALAR, ClassKind.POS_ALPHA_SCALAR):
        p = len(c.partition.blocks)
        bvals = _log_uniform(rng, (count, p))
        if k is ClassKind.ALPHA_SCALAR:
            bvals = bvals * rng.choice([-1.0, 1.0], size=(count, p))
        vals = np.zeros((count, n))
        for j, block in enumerate(c.partition.blocks):
            vals[:, np.asarray(block)] = bvals[:, j : j + 1]
    elif k is ClassKind.THETA_ORDERED:
        raw = np.sort(_log_uniform(rng, (count, n)), axis=1)[:, ::-1]
        vals = np.zeros((count, n))
        vals[:, np.asarray(c.theta)] = raw
    elif k is ClassKind.BOX_DIAG:
        vals = rng.uniform(np.asarray(c.lo), np.asarray(c.hi), size=(count, n))
    elif k is ClassKind.VERTEX_DIAG:
        vals = rng.choice([-1.0, 1.0], size=(count, n))
    elif k in (ClassKind.RANK_K_POSITIVE, ClassKind.SUM_RANK_ONE_POSITIVE):
        u = rng.uniform(0.1, 10.0, size=(count, c.rank, n))
        v = rng.uniform(0.1, 10.0, size=(count, c.rank, n))
        return np.einsum("cki,ckj->cij", u, v)
    elif k is ClassKind.PARAMETRIC_RANK_ONE:
        taus = rng.uniform(c.tau[0], c.tau[1], size=count)
        return taus[:, None, None] * np.outer(c.x, c.y)[None, :, :]
    elif k is ClassKind.EXPLICIT_LIST:
        refs = np.stack(_member_arrays(c))
        return refs[rng.integers(0, len(refs), size=count)]
    else:
        raise AssertionError(k)

    idx = np.arange(n)
    out[:, idx, idx] = vals
    return out
