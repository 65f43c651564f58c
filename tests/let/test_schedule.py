"""The one-pass LET schedule against an independent brute-force oracle.

The oracle runs Algorithm 1 at every instant on its own, straight from
the corrected Eqs. (1)-(2) (``necessary_write_indices`` /
``necessary_read_indices``): a task's job at ``t`` carries a write
(read) toward a peer when its index within the pair's ``LCM(T_w, T_r)``
cycle is a necessary one.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.let import active_instants, communications_at, let_groups
from repro.let.communication import Communication
from repro.let.grouping import carry_schedule, let_schedule
from repro.let.skipping import necessary_read_indices, necessary_write_indices
from repro.model import Application, Label, Platform, Task, TaskSet
from repro.workloads.waters_like import WatersLikeSpec, generate_waters_like


def oracle_groups(app, t, task_name):
    task = app.tasks[task_name]
    writes, reads = set(), set()
    if t % task.period_us:
        return [], []
    for peer in app.tasks:
        if peer.name == task_name:
            continue
        cycle = math.lcm(task.period_us, peer.period_us)
        job = (t % cycle) // task.period_us
        for label in app.shared_between(task_name, peer.name):
            if job in necessary_write_indices(task.period_us, peer.period_us):
                writes.add(Communication.write(task_name, label.name))
        for label in app.shared_between(peer.name, task_name):
            if job in necessary_read_indices(task.period_us, peer.period_us):
                reads.add(Communication.read(label.name, task_name))
    key = lambda c: c.sort_key  # noqa: E731
    return sorted(writes, key=key), sorted(reads, key=key)


def oracle_communications(app, t):
    comms = []
    for task in app.tasks:
        writes, reads = oracle_groups(app, t, task.name)
        comms.extend(writes + reads)
    return sorted(comms, key=lambda c: c.sort_key)


def oracle_active_instants(app, horizon):
    releases = {
        t for task in app.tasks for t in range(0, horizon, task.period_us)
    }
    return [t for t in sorted(releases) if oracle_communications(app, t)]


def assert_matches_oracle(app):
    hyperperiod = app.tasks.hyperperiod_us()
    assert active_instants(app) == oracle_active_instants(app, hyperperiod)
    # t >= H reduces modulo H; t < H covers every release of one period.
    releases = sorted(
        {t for task in app.tasks for t in range(0, 2 * hyperperiod, task.period_us)}
    )
    for t in releases:
        assert communications_at(app, t) == oracle_communications(app, t), t
        for task in app.tasks:
            assert let_groups(app, t, task.name) == oracle_groups(app, t, task.name)
    for horizon in (1, hyperperiod // 2 + 7, hyperperiod + 1, 2 * hyperperiod + 5):
        assert active_instants(app, horizon) == oracle_active_instants(app, horizon)


def _app(periods, edges, cores):
    tasks = TaskSet(
        [
            Task(f"T{i}", period, period / 10, cores[i], i)
            for i, period in enumerate(periods)
        ]
    )
    labels = {}
    for producer, consumer in edges:
        name = f"l{producer}"
        readers = labels.get(name, ())
        labels[name] = readers + (f"T{consumer}",)
    return Application(
        Platform.symmetric(2),
        tasks,
        [
            Label(name, 64, writer=f"T{name[1:]}", readers=readers)
            for name, readers in labels.items()
        ],
    )


class TestAgainstOracle:
    @pytest.mark.parametrize("seed", range(3))
    def test_waters_like(self, seed):
        app = generate_waters_like(
            WatersLikeSpec(num_perception=2, num_control=3, seed=seed)
        )
        assert_matches_oracle(app)

    @settings(max_examples=25, deadline=None)
    @given(
        periods=st.lists(
            st.sampled_from([2_000, 3_000, 4_000, 5_000, 6_000, 7_000, 9_000]),
            min_size=2,
            max_size=4,
        ),
        data=st.data(),
    )
    def test_random_non_harmonic_periods(self, periods, data):
        n = len(periods)
        cores = ["P1", "P2"] + [
            data.draw(st.sampled_from(["P1", "P2"])) for _ in range(n - 2)
        ]
        edges = data.draw(
            st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                    lambda e: e[0] != e[1]
                ),
                min_size=1,
                max_size=5,
                unique=True,
            )
        )
        assert_matches_oracle(_app(periods, edges, cores))

    def test_write_only_task(self):
        # T0 only writes (to a slower and a faster reader on P2).
        app = _app([4_000, 6_000, 3_000], [(0, 1), (0, 2)], ["P1", "P2", "P2"])
        assert_matches_oracle(app)
        for t in range(0, app.tasks.hyperperiod_us(), 4_000):
            writes, reads = let_groups(app, t, "T0")
            assert reads == []
            assert writes == oracle_groups(app, t, "T0")[0]

    def test_non_release_instants_are_empty(self, multirate_app):
        for t in (1, 1_999, 4_001, 12_000 + 1):
            assert communications_at(multirate_app, t) == []
            for task in multirate_app.tasks:
                assert let_groups(multirate_app, t, task.name) == ([], [])

    def test_patterns_partition_instants(self):
        app = generate_waters_like(WatersLikeSpec(seed=1))
        schedule = let_schedule(app)
        assert len(set(schedule.patterns)) == len(schedule.patterns)
        for t, pattern in zip(schedule.instants, schedule.pattern_ids):
            assert list(schedule.patterns[pattern]) == communications_at(app, t)



class TestCarrySchedule:
    def test_different_periods_rejected(self, multirate_app):
        tasks = TaskSet(
            [
                Task(task.name, task.period_us * 2, task.wcet_us, task.core_id,
                     task.priority)
                for task in multirate_app.tasks
            ]
        )
        other = Application(multirate_app.platform, tasks, multirate_app.labels)
        with pytest.raises(ValueError):
            carry_schedule(multirate_app, other)
