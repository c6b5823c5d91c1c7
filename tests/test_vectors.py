import numpy as np
import pytest

from sparserec.errors import UsageError
from sparserec.expander import SignedSketchOperator
from sparserec.recursive import RecursionTree, RecursiveParams
from sparserec.toplevel import TopLevelConfig, TopLevelSystem
from sparserec.vectors import distinct, head_indices
from sparserec.weak import WeakLayer, WeakParams


def _lexsort_head(x, k):
    """Reference top-k: stable sort by decreasing magnitude, NaN last."""
    x = np.asarray(x)
    if k <= 0:
        return np.zeros(0, dtype=np.int64)
    order = np.lexsort((np.arange(x.size), -np.abs(x)))
    return np.sort(order[:k])


CASES = {
    "ties": [2.0, -2.0, 1.0, 2.0, -1.0, 2.0, 0.5],
    "ties-at-kth": [5.0, 1.0, -1.0, 1.0, 3.0, -1.0],
    "nan": [np.nan, 3.0, np.nan, -1.0, 3.0, 0.0],
    "nan-fills": [np.nan, 1.0, np.nan, np.nan, -2.0],
    "all-nan": [np.nan, np.nan, np.nan],
    "signed-zeros": [0.0, -0.0, 1.0, -0.0, 0.0, -1.0, 0.0],
    "only-zeros": [-0.0, 0.0, -0.0, 0.0],
    "empty": [],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_head_indices_matches_lexsort_reference(name):
    x = np.array(CASES[name], dtype=np.float64)
    for k in range(-1, x.size + 3):
        got = head_indices(x, k)
        assert got.dtype == np.int64
        assert np.array_equal(got, _lexsort_head(x, k)), (name, k)


def test_head_indices_random_ties_nan_and_zeros():
    rng = np.random.default_rng(11)
    for _ in range(300):
        n = int(rng.integers(1, 80))
        x = rng.integers(-3, 4, size=n).astype(np.float64)
        x[rng.random(n) < 0.15] = np.nan
        x[rng.random(n) < 0.15] = -0.0
        for k in (0, 1, int(rng.integers(0, n + 1)), n - 1, n, n + 5):
            assert np.array_equal(head_indices(x, k), _lexsort_head(x, k))


def test_distinct_is_np_unique():
    rng = np.random.default_rng(3)
    for x in (np.zeros(0, dtype=np.int64), np.array([7]), rng.integers(0, 20, 200),
              rng.integers(-(1 << 62), 1 << 62, 50), rng.integers(0, 5, (6, 7))):
        got = distinct(x)
        assert got.dtype == x.dtype and np.array_equal(got, np.unique(x))


_DENSE_ENTRY_POINTS = {
    "operator": lambda: SignedSketchOperator.build(256, 5, 64, seed=3, sign_independence=8).apply,
    "weak-layer": lambda: WeakLayer(WeakParams(k=2, eta=0.5, ell=5), domain=256,
                                    n_buckets=64, seed=3).encode,
    "tree": lambda: RecursionTree(256, RecursiveParams(k=2, leaf_target=64, code_kind="split"),
                                  seed=3).encode,
    "system": lambda: TopLevelSystem(TopLevelConfig(n=256, k=2), seed=3).encode,
}


@pytest.mark.parametrize("entry", sorted(_DENSE_ENTRY_POINTS))
def test_every_dense_entry_point_refuses_a_vector_of_the_wrong_shape(entry):
    encode = _DENSE_ENTRY_POINTS[entry]()
    x = np.zeros(256)
    x[[3, 200]] = [1.0, -2.0]
    encode(x)
    for bad in (x[:100], np.zeros(300), x.reshape(16, 16), x[None, :]):
        with pytest.raises(UsageError, match="length 256"):
            encode(bad)
