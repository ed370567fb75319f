import numpy as np
import pytest

from copula_lab import GridCopula


def sinkhorn_grid(rng: np.random.Generator, n: int, permutations: int = 0) -> GridCopula:
    """Random valid grid: positive matrix balanced to uniform marginals.

    ``permutations`` > 0 keeps only the cells of that many random
    permutation matrices: a sparse grid whose balancing still converges.
    """
    m = rng.uniform(0.1, 1.0, size=(n, n))
    if permutations:
        support = np.zeros((n, n), dtype=bool)
        for _ in range(permutations):
            support[np.arange(n), rng.permutation(n)] = True
        m[~support] = 0.0
    for _ in range(10_000):
        m /= m.sum(axis=1, keepdims=True) * n
        m /= m.sum(axis=0, keepdims=True) * n
        if (
            np.abs(m.sum(axis=1) - 1.0 / n).max() < 1e-14
            and np.abs(m.sum(axis=0) - 1.0 / n).max() < 1e-14
        ):
            break
    return GridCopula(resolution=n, masses=m)


@pytest.fixture
def grid_factory():
    return sinkhorn_grid
