"""Misc kernels: optionals, entities, deterministic sampling, experiments.

- ``ResolveOptional`` — stdlib/udfs/resolve_optional.py:30-42 semantics.
- ``Entity`` — typed entity handle collapsed to a ``type/id`` string key
  (engine/language_types/entities.py:12-69; SURVEY §1.5 mapping).
- ``RandomBool`` / ``RandomInt`` — the reference uses true randomness
  (random_bool.py:11-34, random_int.py:12-27); ours is keyed-hash
  deterministic (seeded by the row key) so replays and kill/resume are
  bit-stable, per SURVEY §2.2.
- ``ExperimentBucket`` — murmur3_32(f"{name}/{entity}", seed=42) % 10000,
  unsigned, exactly the reference's bucketing
  (stdlib/udfs/experiments.py:155-158, seed :23).  mmh3 isn't available in
  this environment so we carry a pure-Python murmur3-x86-32 (public
  algorithm) with a test vector check.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from osprey_ray.expr import ExprError
from osprey_ray.kernels import kernel

EXPERIMENT_GRANULARITY = 10_000
EXPERIMENT_SEED = 42


def murmur3_32(data: bytes, seed: int = 0) -> int:
    """murmur3 x86 32-bit, unsigned (Austin Appleby's public algorithm)."""
    c1, c2 = 0xCC9E2D51, 0x1B873593
    h = seed & 0xFFFFFFFF
    n = len(data)
    rounded = n - (n % 4)
    for i in range(0, rounded, 4):
        k = struct.unpack_from("<I", data, i)[0]
        k = (k * c1) & 0xFFFFFFFF
        k = ((k << 15) | (k >> 17)) & 0xFFFFFFFF
        k = (k * c2) & 0xFFFFFFFF
        h ^= k
        h = ((h << 13) | (h >> 19)) & 0xFFFFFFFF
        h = (h * 5 + 0xE6546B64) & 0xFFFFFFFF
    k = 0
    tail = data[rounded:]
    if len(tail) >= 3:
        k ^= tail[2] << 16
    if len(tail) >= 2:
        k ^= tail[1] << 8
    if len(tail) >= 1:
        k ^= tail[0]
        k = (k * c1) & 0xFFFFFFFF
        k = ((k << 15) | (k >> 17)) & 0xFFFFFFFF
        k = (k * c2) & 0xFFFFFFFF
        h ^= k
    h ^= n
    h ^= h >> 16
    h = (h * 0x85EBCA6B) & 0xFFFFFFFF
    h ^= h >> 13
    h = (h * 0xC2B2AE35) & 0xFFFFFFFF
    h ^= h >> 16
    return h


@kernel("ResolveOptional")
class ResolveOptional:
    @staticmethod
    def batch(ctx, target, default=None):
        if default is None:
            return target
        return pc.fill_null(target, default)

    @staticmethod
    def row(rctx, target, default=None):
        return default if target is None else target


@kernel("Coalesce")
class Coalesce:
    @staticmethod
    def batch(ctx, a, b):
        return pc.coalesce(a, b)

    @staticmethod
    def row(rctx, a, b):
        return a if a is not None else b


@kernel("Entity")
class Entity:
    """Entity(type=..., id=expr) → "type/id" string key."""

    @staticmethod
    def batch(ctx, type, id):
        ids = id if pa.types.is_string(id.type) else pc.cast(id, pa.string())
        prefix = pa.array([f"{type}/"] * ctx.n, pa.string())
        return pc.binary_join_element_wise(prefix, ids, "")

    @staticmethod
    def row(rctx, type, id):
        if id is None:
            raise ExprError("None entity id")
        return f"{type}/{id}"


@kernel("GetActionName")
class GetActionName:
    """The action name ≅ the turn's role (stdlib/udfs/get_action_name.py:9-15;
    SURVEY §1.5 maps action_name dispatch onto role/tool)."""

    @staticmethod
    def batch(ctx):
        return ctx.resolve("role")

    @staticmethod
    def row(rctx):
        return rctx.resolve("role")


def _key_hash_u32(key: str, salt: str) -> int:
    return zlib.crc32(f"{salt}|{key}".encode()) & 0xFFFFFFFF


@kernel("RandomBool")
class RandomBool:
    """True for ~percentage% of rows, deterministically keyed by ``key``."""

    @staticmethod
    def batch(ctx, key, percentage, salt="rb"):
        ks = key.to_pylist()
        out = np.fromiter(
            ((_key_hash_u32(k, salt) % 10_000) < percentage * 100 if k is not None else False for k in ks),
            dtype=bool,
            count=len(ks),
        )
        return pa.array(out, pa.bool_())

    @staticmethod
    def row(rctx, key, percentage, salt="rb"):
        if key is None:
            return False
        return (_key_hash_u32(key, salt) % 10_000) < percentage * 100


@kernel("RandomInt")
class RandomInt:
    """Deterministic keyed uniform int in [start, end] (inclusive)."""

    @staticmethod
    def batch(ctx, key, start, end, salt="ri"):
        span = end - start + 1
        ks = key.to_pylist()
        out = [
            None if k is None else start + (_key_hash_u32(k, salt) % span) for k in ks
        ]
        return pa.array(out, pa.int64())

    @staticmethod
    def row(rctx, key, start, end, salt="ri"):
        if key is None:
            raise ExprError("None")
        return start + (_key_hash_u32(key, salt) % (end - start + 1))


@kernel("ExperimentBucket")
class ExperimentBucket:
    """Deterministic experiment bucketing (experiments.py:155-158 parity)."""

    @staticmethod
    def batch(ctx, name, entity):
        ents = entity.to_pylist()
        out = [
            None
            if e is None
            else murmur3_32(f"{name}/{e}".encode(), EXPERIMENT_SEED) % EXPERIMENT_GRANULARITY
            for e in ents
        ]
        return pa.array(out, pa.int64())

    @staticmethod
    def row(rctx, name, entity):
        if entity is None:
            raise ExprError("None")
        return murmur3_32(f"{name}/{entity}".encode(), EXPERIMENT_SEED) % EXPERIMENT_GRANULARITY


NOT_IN_EXPERIMENT_BUCKET = ""  # experiments.py / language_types/experiments.py:20


def validate_experiment_config(buckets: tuple, bucket_sizes: tuple) -> None:
    """The reference's compile-time experiment validation
    (stdlib/udfs/experiments.py:83-135): 1–10 buckets, 'control' present,
    equal lengths, ≤0.01%% precision, each bucket within 100/n_buckets."""
    from decimal import Decimal
    from math import floor

    if not (1 <= len(buckets) <= 10):
        raise ValueError("number of experiment buckets must be between 1 and 10 inclusive")
    if "control" not in buckets:
        raise ValueError("'control' must be one of the buckets")
    if len(buckets) != len(bucket_sizes):
        raise ValueError("buckets and bucket_sizes must have the same number of elements")
    for p in bucket_sizes:
        units = Decimal(str(p)) * Decimal(EXPERIMENT_GRANULARITY / 100)
        if floor(units) != units:
            raise ValueError(
                "experiment bucket size precision is too high (at most the hundredth decimal place)"
            )
    max_units = EXPERIMENT_GRANULARITY // len(buckets)
    for p in bucket_sizes:
        units = int(Decimal(str(p)) * Decimal(EXPERIMENT_GRANULARITY / 100))
        if units > max_units:
            raise ValueError(
                f"bucket size {p} is over the max of {max_units / (EXPERIMENT_GRANULARITY / 100)}"
            )


def _resolve_bucket(name: str, entity: str, buckets: tuple, bucket_sizes: tuple) -> str:
    """get_bucket (experiments.py:178-210): hash unit → bucket slot; outside
    the ramped share of its slot ⇒ not in experiment (empty string)."""
    from decimal import Decimal

    unit = murmur3_32(f"{name}/{entity}".encode(), EXPERIMENT_SEED) % EXPERIMENT_GRANULARITY
    max_units = EXPERIMENT_GRANULARITY // len(buckets)
    bi = unit // max_units
    off = max_units * bi
    if bi + 1 > len(buckets):
        return NOT_IN_EXPERIMENT_BUCKET
    ramped = int(Decimal(str(bucket_sizes[bi])) * Decimal(EXPERIMENT_GRANULARITY / 100))
    if unit >= ramped + off:
        return NOT_IN_EXPERIMENT_BUCKET
    return buckets[bi]


@kernel("Experiment")
class Experiment:
    """Full ExperimentT semantics (stdlib/udfs/experiments.py:50-212): the
    entity resolves to a named bucket via its hash slot, ramped by
    bucket_sizes percentages; outside the ramp ⇒ '' (not in experiment).
    ``version``/``revision`` participate in validation only (≥ 0), matching
    the reference (they tag the ExperimentT value, not the hash)."""

    @staticmethod
    def _check(buckets, bucket_sizes, version, revision):
        if version < 0:
            raise ValueError("experiment version must be zero or greater")
        if revision < 0:
            raise ValueError("experiment revision must be zero or greater")
        validate_experiment_config(tuple(buckets), tuple(bucket_sizes))

    @staticmethod
    def batch(ctx, name, entity, buckets, bucket_sizes, version=0, revision=0):
        Experiment._check(buckets, bucket_sizes, version, revision)
        ents = entity.to_pylist()
        out = [
            None if e is None else _resolve_bucket(name, e, tuple(buckets), tuple(bucket_sizes))
            for e in ents
        ]
        return pa.array(out, pa.string())

    @staticmethod
    def row(rctx, name, entity, buckets, bucket_sizes, version=0, revision=0):
        Experiment._check(buckets, bucket_sizes, version, revision)
        if entity is None:
            raise ExprError("None")
        return _resolve_bucket(name, entity, tuple(buckets), tuple(bucket_sizes))
