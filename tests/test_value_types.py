"""The array rule shared by the nine value types: checked, copied and frozen once, at construction."""

import dataclasses

import numpy as np
import pytest

from stiefelgen.dmd import SnapshotMatrix, fit_dmd, synth_spatiotemporal
from stiefelgen.fda import FunctionalEnsemble, functional_boxplot
from stiefelgen.novelty import SensorDataset, fit_one_class, fit_pca, generate_shm_dataset
from stiefelgen.signal import PageMatrix, TimeSeries
from stiefelgen.sphere import SpherePoint, SphereTangent
from stiefelgen.stiefel import StiefelPoint, TangentVector, _built

STIEFEL_BASE = StiefelPoint(np.eye(4, 2))
SPHERE_BASE = SpherePoint(np.array([1.0, 0.0, 0.0]))

#: type name -> (constructor from the array, a valid array); every array's first entry may be set freely
VALUES = {
    "TimeSeries": (TimeSeries, np.arange(6.0)),
    "PageMatrix": (lambda a: PageMatrix(a, 12, "truncate"), np.arange(12.0).reshape(3, 4)),
    "StiefelPoint": (StiefelPoint, np.eye(4, 2)),
    # U* delta = [[0, 1], [-1, 0]] is skew
    "TangentVector": (lambda a: TangentVector(a, STIEFEL_BASE), np.array([[0.0, 1.0], [-1.0, 0.0], [2.0, 3.0], [4.0, 5.0]])),
    "SpherePoint": (SpherePoint, np.array([0.0, 0.6, 0.8])),
    "SphereTangent": (lambda a: SphereTangent(a, SPHERE_BASE), np.array([0.0, 1.0, 0.5])),
    "FunctionalEnsemble": (FunctionalEnsemble, np.arange(15.0).reshape(3, 5)),
    "SnapshotMatrix": (lambda a: SnapshotMatrix(a, 1.0), np.arange(20.0).reshape(4, 5) + 1j),
    "SensorDataset": (lambda a: SensorDataset(a, 2.0, 2.5), np.arange(30.0).reshape(2, 3, 5)),
}


def stored(value) -> np.ndarray:
    return getattr(value, dataclasses.fields(value)[0].name)


@pytest.mark.parametrize("name", sorted(VALUES))
def test_one_array_rule(name):
    build, valid = VALUES[name]
    given = valid.copy()
    value = build(given)
    assert not stored(value).flags.writeable
    given.flat[0] = 7.0
    assert np.array_equal(stored(value), valid)
    for entry in (np.nan, np.inf):
        bad = valid.copy()
        bad.flat[0] = entry
        with pytest.raises(ValueError, match="non-finite"):
            build(bad)
    with pytest.raises(ValueError, match="-d"):
        build(valid[None])


def test_built_hands_its_array_over():
    derived = np.eye(4, 2)
    point = _built(StiefelPoint, derived)
    assert point.matrix is derived and not derived.flags.writeable
    # a real array of another dtype is cast, the one case that copies
    assert _built(StiefelPoint, np.eye(4, 2, dtype=np.float32)).matrix.dtype == np.float64


def arrays_in(value) -> list:
    """Every array a value holds, those nested in its dicts and tuples included."""
    found, todo = [], [getattr(value, f.name) for f in dataclasses.fields(value)]
    while todo:
        item = todo.pop()
        if isinstance(item, np.ndarray):
            found.append(item)
        elif isinstance(item, dict):
            todo.extend(item.values())
        elif isinstance(item, (tuple, list)):
            todo.extend(item)
    return found


def test_results_hand_out_read_only_arrays():
    # a write to a fitted basis or envelope would silently move every later projection or plot
    pca = fit_pca(generate_shm_dataset(2, 6, rng=np.random.default_rng(0)))
    results = [
        pca,
        fit_one_class(pca.points),
        fit_dmd(synth_spatiotemporal(np.linspace(-5, 5, 20), np.linspace(0, 2, 12)), 2),
        functional_boxplot(FunctionalEnsemble(np.arange(20.0).reshape(4, 5) % 7), (0.5, 0.75)),
    ]
    for value in results:
        arrays = arrays_in(value)
        assert arrays and not any(a.flags.writeable for a in arrays), type(value).__name__
    # the boxplot's two envelopes and two fences, and its depths
    assert len(arrays_in(results[-1])) == 7
