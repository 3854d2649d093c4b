"""Property checks on workflow DAG generation: the WaaS demand model
must be acyclic and seed-reproducible."""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads.generators import DAG_SHAPES, make_workflow_dag

dag_args = dict(
    shape=st.sampled_from(DAG_SHAPES),
    n_tasks=st.integers(min_value=1, max_value=40),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)


@settings(max_examples=60, deadline=None)
@given(**dag_args)
def test_property_dags_validate_and_edges_point_backwards(shape, n_tasks, seed):
    dag = make_workflow_dag(shape, n_tasks=n_tasks, seed=seed)
    dag.validate()  # dense ids, non-negative work, parents < id
    assert dag.n_tasks == n_tasks
    for t in dag.tasks:
        assert all(p < t.id for p in t.parents)
        assert len(set(t.parents)) == len(t.parents), "duplicate edge"
    # every non-root task is reachable from task 0 (single entry point)
    for t in dag.tasks[1:]:
        assert t.parents, f"task {t.id} has no parents (disconnected)"


@settings(max_examples=40, deadline=None)
@given(**dag_args)
def test_property_same_args_same_dag(shape, n_tasks, seed):
    assert make_workflow_dag(shape, n_tasks=n_tasks, seed=seed) == (
        make_workflow_dag(shape, n_tasks=n_tasks, seed=seed)
    )


def longest_chain_work(dag):
    """The longest path's work, recomputed backwards: each task's chain is
    its own work plus the longest chain ending at one of its parents."""
    chain = {}

    def ending_at(task_id):
        if task_id not in chain:
            task = dag.tasks[task_id]
            chain[task_id] = task.cpu_work + max(
                (ending_at(p) for p in task.parents), default=0.0
            )
        return chain[task_id]

    return max(ending_at(t.id) for t in dag.tasks)


@settings(max_examples=40, deadline=None)
@given(**dag_args)
def test_property_work_bounds_and_critical_path(shape, n_tasks, seed):
    dag = make_workflow_dag(shape, n_tasks=n_tasks, seed=seed,
                            mean_work_s=90.0, work_spread=4.0)
    for t in dag.tasks:
        # log-uniform over [mean/spread, mean*spread], ms-rounded
        assert 90.0 / 4.0 - 0.001 <= t.cpu_work <= 90.0 * 4.0 + 0.001
        assert t.cpu_work == round(t.cpu_work, 3)
    cp = dag.critical_path_work
    assert cp == longest_chain_work(dag)
    assert 0 < cp <= dag.total_work + 1e-9
    longest_task = max(t.cpu_work for t in dag.tasks)
    assert cp >= longest_task - 1e-9


@settings(max_examples=20, deadline=None)
@given(**dag_args)
def test_property_work_survives_json_round_trip(shape, n_tasks, seed):
    dag = make_workflow_dag(shape, n_tasks=n_tasks, seed=seed)
    works = [t.cpu_work for t in dag.tasks]
    assert json.loads(json.dumps(works)) == works


def test_chain_and_fanout_structure():
    chain = make_workflow_dag("chain", n_tasks=5, seed=0)
    assert [t.parents for t in chain.tasks] == [(), (0,), (1,), (2,), (3,)]
    fan = make_workflow_dag("fanout", n_tasks=6, seed=0)
    assert fan.tasks[0].parents == ()
    assert all(t.parents == (0,) for t in fan.tasks[1:-1])
    assert fan.tasks[-1].parents == (1, 2, 3, 4)
