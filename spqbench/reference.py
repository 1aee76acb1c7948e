"""Reference answers and the answer comparator.

References come from a serial, unsharded ``SPQEngine`` over the same dataset
file, grid and algorithm, computed outside the timed region.  Writes are
replayed as bulk states (the base dataset with the first ``e`` write batches
applied, extent pinned), the way ``benchmarks/bench_ingest.py`` stages its
oracles, so the delta overlay under test is never its own oracle.
"""

from __future__ import annotations

import json
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

Entry = Tuple[str, float]

#: Algorithms whose equal-score ties may resolve to another top-k subset
#: (the pinned exception in ROADMAP.md; the other one, non-aligned shard
#: grids, never occurs here because every sharded layout is grid-aligned).
TIE_TOLERANT_ALGORITHMS = frozenset({"espq-sco"})


def answers_match(got: Sequence[Entry], want: Sequence[Entry], allow_ties: bool) -> bool:
    """True when ``got`` is an acceptable answer given reference ``want``.

    Only oids and scores are compared.  Without ``allow_ties`` the lists must
    be equal.  With it, the score lists must still be equal and every object
    scoring strictly above the k-th score must be present; objects tied at
    the k-th score may be any equally scored subset.
    """
    got, want = list(got), list(want)
    if got == want:
        return True
    if not allow_ties or len(got) != len(want) or not want:
        return False
    if [score for _, score in got] != [score for _, score in want]:
        return False
    boundary = want[-1][1]
    above_got = sorted(oid for oid, score in got if score != boundary)
    above_want = sorted(oid for oid, score in want if score != boundary)
    return above_got == above_want and len(set(oid for oid, _ in got)) == len(got)


def response_entries(response: Mapping[str, object]) -> List[Entry]:
    """The (oid, score) list of one service response."""
    return [(entry["oid"], entry["score"]) for entry in response["results"]]


def spec_key(spec: Mapping[str, object], algorithm: str) -> Tuple[object, ...]:
    """Canonical identity of a query spec (what the reference depends on)."""
    return (
        tuple(sorted(spec["keywords"])),
        spec["k"],
        float(spec["radius"]),
        spec.get("algorithm", algorithm),
    )


def apply_writes(data, features, batches: Iterable[Mapping[str, object]]):
    """Bulk state after ``batches`` (deletes before appends, as the server does)."""
    from repro.model.objects import DataObject, FeatureObject

    data, features = list(data), list(features)
    for batch in batches:
        delete = batch.get("delete", {})
        gone_data = set(delete.get("data_oids", []))
        gone_features = set(delete.get("feature_oids", []))
        data = [obj for obj in data if obj.oid not in gone_data]
        features = [obj for obj in features if obj.oid not in gone_features]
        append = batch.get("append", {})
        data += [
            DataObject(oid=obj["oid"], x=obj["x"], y=obj["y"])
            for obj in append.get("data_objects", [])
        ]
        features += [
            FeatureObject(
                oid=obj["oid"], x=obj["x"], y=obj["y"],
                keywords=frozenset(obj["keywords"]),
            )
            for obj in append.get("feature_objects", [])
        ]
    return data, features


#: Below this many queries the references are computed inline; above it
#: they are split over a pool of ``nproc`` worker processes.
POOL_THRESHOLD = 16

#: Reference engines of this process, one per (dataset, write epoch).  Pool
#: workers are forked, so they inherit every engine built before the pool
#: started (the setup probe's, for epoch 0) instead of rebuilding it.
_ENGINES: Dict[Tuple[object, ...], object] = {}


def _reference_engine(path: str, writes: Sequence[Mapping[str, object]],
                      extent: Tuple[float, ...], grid_size: int):
    """The serial unsharded engine over ``path`` after ``writes``, extent pinned."""
    from repro import EngineConfig, SPQEngine
    from repro.datagen.io import load_dataset
    from repro.spatial.geometry import BoundingBox

    key = (path, json.dumps(list(writes), sort_keys=True), extent, grid_size)
    if key not in _ENGINES:
        data, features = apply_writes(*load_dataset(path), writes)
        _ENGINES[key] = SPQEngine(data, features, config=EngineConfig(grid_size=grid_size),
                                  extent=BoundingBox(*extent))
    return _ENGINES[key]


def reference_answers(path: str, writes: Sequence[Mapping[str, object]], extent: Tuple[float, ...],
                      grid_size: int, keys: Sequence[Tuple[object, ...]]) -> List[List[Entry]]:
    """Reference top-k lists of ``keys`` after ``writes`` (inline or in a worker)."""
    from repro import BatchQuery, SpatialPreferenceQuery

    items = [
        BatchQuery(
            query=SpatialPreferenceQuery.create(k=key[1], radius=key[2], keywords=set(key[0])),
            algorithm=key[3],
            grid_size=grid_size,
        )
        for key in keys
    ]
    engine = _reference_engine(path, writes, extent, grid_size)
    return [[(e.obj.oid, e.score) for e in result] for result in engine.execute_many(items)]


class ReferenceBook:
    """Reference top-k lists per (write epoch, query), computed on demand.

    Args:
        path: The dataset file the server loads.
        grid_size: The served grid size.
        algorithm: The default algorithm of specs that carry none.
        writes: Write batch bodies in the order they are sent; epoch ``e``
            is the base dataset with the first ``e`` batches applied.
    """

    def __init__(self, path: str, grid_size: int, algorithm: str,
                 writes: Sequence[Mapping[str, object]] = ()) -> None:
        from repro.core.centralized import dataset_extent
        from repro.datagen.io import load_dataset

        self.path = path
        self.grid_size = grid_size
        self.algorithm = algorithm
        self.writes = list(writes)
        box = dataset_extent(*load_dataset(path))
        self.extent = (box.min_x, box.min_y, box.max_x, box.max_y)
        self._answers: Dict[Tuple[int, Tuple[object, ...]], List[Entry]] = {}

    def compute(self, wanted: Iterable[Tuple[int, Mapping[str, object]]]) -> None:
        """Compute references for (epoch, spec) pairs not yet known."""
        by_epoch: Dict[int, Dict[Tuple[object, ...], None]] = {}
        for epoch, spec in wanted:
            key = spec_key(spec, self.algorithm)
            if (epoch, key) not in self._answers:
                by_epoch.setdefault(epoch, {})[key] = None
        tasks = []
        workers = max(1, min(2, os.cpu_count() or 1))
        for epoch, keys in sorted(by_epoch.items()):
            keys = list(keys)
            chunks = workers if len(keys) >= POOL_THRESHOLD else 1
            for index in range(chunks):
                tasks.append((epoch, keys[index::chunks]))
        if sum(len(keys) for _, keys in tasks) < POOL_THRESHOLD:
            results = [reference_answers(self.path, self.writes[:epoch], self.extent,
                                         self.grid_size, keys) for epoch, keys in tasks]
        else:
            context = multiprocessing.get_context("fork")
            with ProcessPoolExecutor(max_workers=workers, mp_context=context) as pool:
                futures = [pool.submit(reference_answers, self.path, self.writes[:epoch],
                                       self.extent, self.grid_size, keys)
                           for epoch, keys in tasks]
                results = [future.result() for future in futures]
        for (epoch, keys), answers in zip(tasks, results):
            for key, answer in zip(keys, answers):
                self._answers[(epoch, key)] = answer

    def check(self, spec: Mapping[str, object], got: Sequence[Entry],
              epochs: Iterable[int] = (0,)) -> bool:
        """True when ``got`` matches the reference of any candidate epoch."""
        key = spec_key(spec, self.algorithm)
        allow_ties = key[3] in TIE_TOLERANT_ALGORITHMS
        return any(
            answers_match(got, self._answers[(epoch, key)], allow_ties)
            for epoch in epochs
        )
