"""The cluster model file, ``clusters.bin``: a minimal deterministic binary format.

Layout (all integers little-endian):

    magic       4 bytes  b"KMC1"
    k           uint64   number of clusters
    dim         uint64   embedding dimension
    count       uint64   number of instances
    centroids   k * dim float64, row-major
    assignment  count uint32, the cluster of each instance id

The encoding is byte-deterministic for a given model, so re-running
``cluster`` with identical inputs reproduces an identical file.
"""

from __future__ import annotations

import struct

import numpy as np

from .clustering import ClusterModel
from .errors import DataError

CLUSTER_MAGIC = b"KMC1"


def encode_cluster_model(model: ClusterModel) -> bytes:
    """Binary layout: (k, dim, count) uint64 LE, float64 centroids, uint32 assignment."""
    return b"".join([CLUSTER_MAGIC, struct.pack("<QQQ", model.k, model.dim, model.count),
                     model.centroids.astype("<f8").tobytes(),
                     model.assignment.astype("<u4").tobytes()])


def load_cluster_model(path) -> ClusterModel:
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != CLUSTER_MAGIC:
        raise DataError(f"{path}: not a cluster model file (bad magic)")
    if len(data) < 4 + 24:
        raise DataError(f"{path}: truncated cluster header")
    k, dim, count = struct.unpack_from("<QQQ", data, 4)
    off = 4 + 24
    want = k * dim * 8 + count * 4
    if len(data) - off != want:
        raise DataError(f"{path}: truncated cluster payload")
    centroids = np.frombuffer(data, dtype="<f8", count=k * dim, offset=off).reshape(k, dim).copy()
    off += k * dim * 8
    assignment = np.frombuffer(data, dtype="<u4", count=count, offset=off).copy()
    if assignment.size and assignment.max() >= k:
        raise DataError(f"{path}: assignment index out of range")
    return ClusterModel(k=int(k), centroids=centroids, assignment=assignment)
