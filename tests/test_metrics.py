import itertools
import math

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from similearn.metrics import accuracy, contingency, hungarian, nmi


def brute_force_accuracy(pred, truth):
    """Try every injective mapping from predicted groups to true groups."""
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    pu = np.unique(pred)
    tu = np.unique(truth)
    best = 0
    if len(pu) <= len(tu):
        for perm in itertools.permutations(tu, len(pu)):
            mapping = dict(zip(pu, perm))
            best = max(best, sum(mapping[p] == t for p, t in zip(pred, truth)))
    else:
        for perm in itertools.permutations(pu, len(tu)):
            mapping = dict(zip(perm, tu))
            best = max(
                best,
                sum(mapping.get(p) == t for p, t in zip(pred, truth)),
            )
    return best / pred.size


def nmi_reference(pred, truth):
    """Independent recomputation straight from the probability tables."""
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    n = pred.size
    ps = sorted(set(pred.tolist()))
    ts = sorted(set(truth.tolist()))
    joint = {}
    for p, t in zip(pred.tolist(), truth.tolist()):
        joint[(p, t)] = joint.get((p, t), 0) + 1
    hp = 0.0
    for p in ps:
        q = sum(v for (pp, _), v in joint.items() if pp == p) / n
        hp -= q * math.log(q)
    ht = 0.0
    for t in ts:
        q = sum(v for (_, tt), v in joint.items() if tt == t) / n
        ht -= q * math.log(q)
    if hp == 0.0 and ht == 0.0:
        return 1.0
    if hp == 0.0 or ht == 0.0:
        return 0.0
    mi = 0.0
    for (p, t), v in joint.items():
        pj = v / n
        pp = sum(w for (a, _), w in joint.items() if a == p) / n
        pt = sum(w for (_, b), w in joint.items() if b == t) / n
        mi += pj * math.log(pj / (pp * pt))
    return max(mi, 0.0) / max(hp, ht)


def test_accuracy_pinned_examples():
    assert accuracy([1, 1, 2, 2], [2, 2, 1, 1]) == 1.0
    assert accuracy([1, 1, 1, 2], [1, 1, 2, 2]) == 0.75
    assert accuracy([3, 1, 4, 1, 5], [3, 1, 4, 1, 5]) == 1.0


def test_accuracy_matches_brute_force(rng):
    for trial in range(300):
        n = int(rng.integers(1, 7))
        pred = rng.integers(0, 3, size=n)
        truth = rng.integers(0, 3, size=n)
        assert accuracy(pred, truth) == pytest.approx(
            brute_force_accuracy(pred, truth), abs=1e-12
        )


def test_accuracy_relabeling_invariance(rng):
    for trial in range(50):
        pred = rng.integers(0, 4, size=30)
        truth = rng.integers(0, 3, size=30)
        base = accuracy(pred, truth)
        pp = rng.permutation(4)[pred]
        tp = rng.permutation(3)[truth]
        assert accuracy(pp, tp) == pytest.approx(base, abs=1e-12)


def test_accuracy_input_errors():
    with pytest.raises(ValueError):
        accuracy([1, 2], [1])
    with pytest.raises(ValueError):
        accuracy([], [])


def test_nmi_pinned_examples():
    assert nmi([1, 1, 2, 2], [2, 2, 1, 1]) == pytest.approx(1.0, abs=1e-12)
    # worked example, checked against the reference recomputation below
    assert nmi([1, 1, 2, 2], [1, 1, 1, 2]) == pytest.approx(0.3113, abs=1e-3)
    assert nmi([1, 2, 1, 2], [1, 1, 2, 2]) == pytest.approx(0.0, abs=1e-12)


def test_nmi_degenerate_conventions():
    assert nmi([1, 1, 1], [2, 2, 2]) == 1.0
    assert nmi([1, 1, 1], [1, 2, 3]) == 0.0
    assert nmi([1, 2, 3], [1, 1, 1]) == 0.0


def test_nmi_matches_reference(rng):
    for trial in range(200):
        n = int(rng.integers(2, 12))
        pred = rng.integers(0, 4, size=n)
        truth = rng.integers(0, 3, size=n)
        assert nmi(pred, truth) == pytest.approx(
            nmi_reference(pred, truth), abs=1e-9
        )


def test_nmi_symmetry_and_range(rng):
    for trial in range(100):
        pred = rng.integers(0, 5, size=25)
        truth = rng.integers(0, 3, size=25)
        a = nmi(pred, truth)
        b = nmi(truth, pred)
        assert abs(a - b) <= 1e-12
        assert 0.0 <= a <= 1.0 + 1e-12
        acc = accuracy(pred, truth)
        assert 0.0 <= acc <= 1.0


def test_contingency_counts():
    w = contingency([1, 1, 2, 2], [1, 1, 1, 2])
    np.testing.assert_array_equal(w, [[2, 0], [1, 1]])
    assert w.sum() == 4


def test_hungarian_identity():
    cost = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert np.array_equal(hungarian(cost), [0, 1])


def _exhaustive_min_cost(cost):
    """Least total cost over injective maps of the smaller side into the larger."""
    r, c = cost.shape
    if r <= c:
        maps = itertools.permutations(range(c), r)
        return min(sum(cost[i, p[i]] for i in range(r)) for p in maps)
    maps = itertools.permutations(range(r), c)
    return min(sum(cost[p[j], j] for j in range(c)) for p in maps)


def test_hungarian_matches_exhaustive(rng):
    for r, c in [(3, 3), (2, 3), (3, 2), (4, 2)]:
        for trial in range(100):
            cost = rng.integers(-10, 20, size=(r, c)).astype(float)
            got = hungarian(cost)
            assert got.shape == (r,)
            assert (got == -1).sum() == max(0, r - c)
            real = got[got >= 0]
            assert len(set(real.tolist())) == real.size
            total = sum(cost[i, j] for i, j in enumerate(got) if j >= 0)
            assert total == pytest.approx(_exhaustive_min_cost(cost))


def test_hungarian_total_matches_scipy(rng):
    # integer totals are exact; random float costs have one optimum, so both
    # solvers pick the same pairs and the row-order sums agree bit for bit
    for trial in range(400):
        r, c = (int(k) for k in rng.integers(1, 26, size=2))
        if trial % 2:
            cost = rng.integers(-50, 50, size=(r, c)).astype(float)
        else:
            cost = rng.standard_normal((r, c)) * 10.0 ** rng.uniform(-3, 3)
        got = hungarian(cost)
        assert got.shape == (r,)
        assert (got == -1).sum() == max(0, r - c)
        real = got[got >= 0]
        assert len(set(real.tolist())) == real.size
        rows, cols = linear_sum_assignment(cost)
        total = sum(cost[i, j] for i, j in enumerate(got) if j >= 0)
        assert total == sum(cost[i, j] for i, j in zip(rows, cols)), (r, c)


def test_hungarian_all_equal_costs():
    cost = np.full((3, 3), 7.0)
    got = hungarian(cost)
    assert sorted(got.tolist()) == [0, 1, 2]
    assert sum(cost[i, got[i]] for i in range(3)) == 21.0


def test_hungarian_rectangular_padding():
    # more rows than columns: exactly one row stays unmatched
    cost = np.array([[-5.0, -1.0], [-4.0, -2.0], [-3.0, -6.0]])
    got = hungarian(cost)
    assert (got == -1).sum() == 1
    real = got[got >= 0]
    assert len(set(real.tolist())) == len(real)


def test_hungarian_rejects_nonfinite():
    with pytest.raises(ValueError):
        hungarian(np.array([[np.nan, 1.0], [1.0, 0.0]]))
