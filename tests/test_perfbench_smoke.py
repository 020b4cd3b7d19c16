"""The benchmark's query paths, replayed in process on a few queries.

Each workload's first queries go through ``perfbench/workloads.execute``
(the timed path) and ``perfbench/tracing.run_traced`` (the traced path,
which calls the library layer by layer: ``successors``, ``pair_space``,
``triple_space``, ``triple_transitions``, ``sub_triples`` and the
``ProcessState`` transition functions), and must give the reference
verdicts.  The corpus's process files are written under ``tmp_path``.
"""

import os

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench")

# workload -> how many of its first queries to replay
FIRST = {"f1-pair": 18, "f1-posetal": 18, "chain-step": 9, "corpus-cli": 28}


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import tracing
    import workloads

    return workloads, tracing


@pytest.mark.parametrize("workload", FIRST)
def test_first_queries_give_reference_verdicts(perfbench, workload, tmp_path):
    workloads, tracing = perfbench
    inputs = workloads.Inputs(workload, 1, str(tmp_path / workload))
    try:
        queries = inputs.first[:FIRST[workload]]
        for q in queries:
            assert workloads.outcome_ok(q, workloads.execute(q)), \
                workloads.describe_failure(q)
        errors = []
        _, _, counts, failed, _ = tracing.run_traced(inputs, len(queries),
                                                     errors)
        assert (failed, errors) == (0, [])
        assert counts["trace.queries"] == len(queries)
        if workload != "corpus-cli":  # the corpus mixes all four kinds
            posetal = workload == "f1-posetal"
            assert (counts["engine.triples"] > 0) == posetal
            assert (counts["engine.pairs"] > 0) != posetal
    finally:
        inputs.cleanup()
