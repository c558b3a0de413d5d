"""Golden counters: every engine's reported numbers, pinned exactly.

The behavioural contract of an engine is what it reports — ``count``,
per-level intermediate tuples, intersection work, intersection-cache
hits and misses, Yannakakis bag sizes, and the modeled per-phase cost
breakdown.  The values below were recorded from the historical inline
(executor-free) evaluation on Q1 (triangle), Q5, Q9 (4-cycle) and Q11
(triangle plus a pendant edge) over the same seeded graphs; every
backend and transport must reproduce them bit for bit, because the
executor only changes *where* the cubes run, never what they compute.
"""

import dataclasses

import numpy as np
import pytest

from repro.data import Database, Relation
from repro.distributed import Cluster
from repro.engines import (
    ADJ,
    BigJoin,
    HCubeJ,
    HCubeJCache,
    SparkSQLJoin,
    YannakakisJoin,
)
from repro.query import paper_query
from repro.runtime import create_executor

#: Engine-reported counters compared besides count/shuffle/rounds/cost.
EXTRA_KEYS = ("level_tuples", "leapfrog_work", "cache_hits",
              "cache_misses", "bag_sizes", "total_bindings",
              "intermediate_tuples", "semijoin_rounds",
              "join_intermediates")

#: breakdown = (optimization, precompute, communication, computation).
GOLDEN = {
    ('Q1', 'HCubeJ'): dict(
        count=268, shuffled_tuples=920, rounds=1,
        breakdown=(1.05e-05, 0.0, 0.0184, 0.001019),
        level_tuples=[81, 184, 268], leapfrog_work=3665),
    ('Q1', 'HCubeJ+Cache'): dict(
        count=268, shuffled_tuples=920, rounds=1,
        breakdown=(1.05e-05, 0.0, 0.0184, 0.001019),
        level_tuples=[81, 184, 268], leapfrog_work=3665, cache_hits=0,
        cache_misses=268),
    ('Q1', 'BigJoin'): dict(
        count=268, shuffled_tuples=215, rounds=3,
        breakdown=(4.5e-06, 0.0, 0.009042999999999999, 0.000607),
        level_tuples=[30, 184, 268], total_bindings=482),
    ('Q1', 'SparkSQL'): dict(
        count=268, shuffled_tuples=1687, rounds=2,
        breakdown=(4.5e-06, 0.0, 0.0063374, 0.000515),
        intermediate_tuples=1403),
    ('Q1', 'Yannakakis'): dict(
        count=268, shuffled_tuples=0, rounds=1,
        breakdown=(5e-07, 0.0006982333333333333, 0.003, 4.4666666666666664e-05),
        bag_sizes=[268], semijoin_rounds=0, join_intermediates=0),
    ('Q1', 'ADJ'): dict(
        count=268, shuffled_tuples=920, rounds=1,
        breakdown=(0.0006826666666666666, 0.0, 0.009092000000000001, 0.0009589),
        level_tuples=[81, 467, 268], leapfrog_work=5050),
    ('Q5', 'HCubeJ'): dict(
        count=603, shuffled_tuples=2392, rounds=1,
        breakdown=(3.85e-05, 0.0, 0.04784, 0.006172),
        level_tuples=[79, 406, 212, 330, 603], leapfrog_work=29224),
    ('Q5', 'HCubeJ+Cache'): dict(
        count=603, shuffled_tuples=2392, rounds=1,
        breakdown=(3.85e-05, 0.0, 0.04784, 0.0050425),
        level_tuples=[79, 406, 212, 330, 603], leapfrog_work=22411,
        cache_hits=300, cache_misses=730),
    ('Q5', 'BigJoin'): dict(
        count=603, shuffled_tuples=757, rounds=5,
        breakdown=(1.75e-05, 0.0, 0.015151399999999999, 0.0049055),
        level_tuples=[30, 184, 212, 330, 603], total_bindings=1359),
    ('Q5', 'SparkSQL'): dict(
        count=603, shuffled_tuples=24482, rounds=6,
        breakdown=(2.45e-05, 0.0, 0.022896400000000004, 0.0080465),
        intermediate_tuples=23797),
    ('Q5', 'Yannakakis'): dict(
        count=603, shuffled_tuples=6612, rounds=7,
        breakdown=(4.5e-06, 0.0015762666666666667, 0.0163224, 0.0011843333333333335),
        bag_sizes=[212, 1135, 1135], semijoin_rounds=4,
        join_intermediates=885),
    ('Q5', 'ADJ'): dict(
        count=603, shuffled_tuples=2083, rounds=1,
        breakdown=(0.009759166666666666, 0.0010358333333333335, 0.0122083, 0.0014225),
        level_tuples=[30, 184, 268, 358, 603], leapfrog_work=7483),
    ('Q9', 'HCubeJ'): dict(
        count=1541, shuffled_tuples=1472, rounds=1,
        breakdown=(1.8e-05, 0.0, 0.02944, 0.004509000000000001),
        level_tuples=[84, 184, 1135, 1541], leapfrog_work=21933),
    ('Q9', 'HCubeJ+Cache'): dict(
        count=1541, shuffled_tuples=1472, rounds=1,
        breakdown=(1.8e-05, 0.0, 0.02944, 0.003035),
        level_tuples=[84, 184, 1135, 1541], leapfrog_work=13913,
        cache_hits=347, cache_misses=1059),
    ('Q9', 'BigJoin'): dict(
        count=1541, shuffled_tuples=1350, rounds=4,
        breakdown=(8e-06, 0.0, 0.01227, 0.0036468333333333335),
        level_tuples=[30, 184, 1135, 1541], total_bindings=2890),
    ('Q9', 'SparkSQL'): dict(
        count=1541, shuffled_tuples=8912, rounds=3,
        breakdown=(8e-06, 0.0, 0.010782400000000001, 0.0031048333333333336),
        intermediate_tuples=9717),
    ('Q9', 'Yannakakis'): dict(
        count=1541, shuffled_tuples=0, rounds=1,
        breakdown=(5e-07, 0.0037940333333333336, 0.003, 0.00025683333333333336),
        bag_sizes=[1541], semijoin_rounds=0, join_intermediates=0),
    ('Q9', 'ADJ'): dict(
        count=1541, shuffled_tuples=1472, rounds=1,
        breakdown=(0.004034333333333333, 0.0, 0.0121472, 0.006085999999999999),
        level_tuples=[84, 510, 2851, 1541], leapfrog_work=33182),
    ('Q11', 'HCubeJ'): dict(
        count=1698, shuffled_tuples=1104, rounds=1,
        breakdown=(1.8e-05, 0.0, 0.02208, 0.001586),
        level_tuples=[81, 184, 268, 1698], leapfrog_work=6175),
    ('Q11', 'HCubeJ+Cache'): dict(
        count=1698, shuffled_tuples=1104, rounds=1,
        breakdown=(1.8e-05, 0.0, 0.02208, 0.001278),
        level_tuples=[81, 184, 268, 1698], leapfrog_work=4656, cache_hits=239,
        cache_misses=297),
    ('Q11', 'BigJoin'): dict(
        count=1698, shuffled_tuples=483, rounds=4,
        breakdown=(8e-06, 0.0, 0.012096599999999999, 0.00104),
        level_tuples=[30, 184, 268, 1698], total_bindings=2180),
    ('Q11', 'SparkSQL'): dict(
        count=1698, shuffled_tuples=2139, rounds=3,
        breakdown=(8e-06, 0.0, 0.0094278, 0.0008733333333333334),
        intermediate_tuples=3101),
    ('Q11', 'Yannakakis'): dict(
        count=1698, shuffled_tuples=2602, rounds=4,
        breakdown=(2e-06, 0.0007707, 0.0095204, 0.0005081666666666667),
        bag_sizes=[268, 184], semijoin_rounds=2, join_intermediates=1698),
    ('Q11', 'ADJ'): dict(
        count=1698, shuffled_tuples=452, rounds=1,
        breakdown=(0.0016535, 0.0006430333333333334, 0.0060452, 0.0005836),
        level_tuples=[29, 179, 895, 1698], leapfrog_work=2831),
}

QUERIES = ("Q1", "Q5", "Q9", "Q11")


def graph_case(query_name, seed=11, n=200, dom=30):
    query = paper_query(query_name)
    rng = np.random.default_rng(seed)
    edges = rng.integers(0, dom, size=(n, 2))
    db = Database(Relation(a.relation, ("x", "y"), edges)
                  for a in query.atoms)
    return query, db


def engines():
    return (HCubeJ(), HCubeJCache(), BigJoin(), SparkSQLJoin(),
            YannakakisJoin(), ADJ(num_samples=15))


def observed(result) -> dict:
    record = {"count": result.count,
              "shuffled_tuples": result.shuffled_tuples,
              "rounds": result.rounds,
              "breakdown": dataclasses.astuple(result.breakdown)}
    for key in EXTRA_KEYS:
        if key in result.extra:
            value = result.extra[key]
            record[key] = list(value) if isinstance(value, (list, tuple)) \
                else value
    return record


@pytest.mark.parametrize("query_name", QUERIES)
def test_default_executor_reproduces_golden_counters(query_name):
    """``executor`` omitted: the engines' own serial default."""
    query, db = graph_case(query_name)
    cluster = Cluster(num_workers=3)
    for engine in engines():
        result = engine.run(query, db, cluster)
        assert observed(result) == GOLDEN[(query_name, engine.name)], \
            engine.name


@pytest.mark.parametrize("backend,transport",
                         [("serial", "shm"), ("threads", "pickle"),
                          ("threads", "tcp")])
@pytest.mark.parametrize("query_name", QUERIES)
def test_backends_and_transports_reproduce_golden_counters(
        query_name, backend, transport):
    query, db = graph_case(query_name)
    cluster = Cluster(num_workers=3)
    with create_executor(backend, 2, transport=transport) as ex:
        for engine in engines():
            result = engine.run(query, db, cluster, executor=ex)
            assert observed(result) == GOLDEN[(query_name, engine.name)], \
                (engine.name, backend, transport)
