"""Unit tests for clusters, the assembled machine, faults, and tracing."""

import pytest

from repro.errors import ConfigurationError, FaultError, RoutingError
from repro.hardware import (
    Cluster,
    EventEngine,
    FaultInjector,
    Machine,
    MachineConfig,
    MetricsRegistry,
    PEState,
    TraceRecorder,
)


@pytest.fixture
def machine():
    return Machine(MachineConfig(n_clusters=4, pes_per_cluster=3, topology="ring"))


class TestMachineConfig:
    def test_defaults_valid(self):
        MachineConfig().validate()

    def test_invalid_configs_rejected(self):
        with pytest.raises(ConfigurationError):
            MachineConfig(n_clusters=0).validate()
        with pytest.raises(ConfigurationError):
            MachineConfig(pes_per_cluster=1).validate()
        with pytest.raises(ConfigurationError):
            MachineConfig(topology="blob").validate()
        with pytest.raises(ConfigurationError):
            MachineConfig(memory_words_per_cluster=0).validate()
        with pytest.raises(ConfigurationError):
            MachineConfig(flop_cycles=-1).validate()

    def test_engine_names(self):
        # both names build the one heapq engine
        for name in ("default", "reference"):
            assert type(Machine(MachineConfig(engine=name)).engine) \
                is EventEngine

    @pytest.mark.parametrize("name", ["fast", "compiled"])
    def test_removed_engine_names_rejected(self, name):
        with pytest.raises(ConfigurationError, match="'reference'"):
            MachineConfig(engine=name)
        with pytest.raises(ConfigurationError, match="'reference'"):
            MachineConfig().scaled(engine=name)

    def test_total_workers(self):
        cfg = MachineConfig(n_clusters=4, pes_per_cluster=5)
        assert cfg.total_workers == 16

    def test_scaled_copies(self):
        cfg = MachineConfig().scaled(n_clusters=8)
        assert cfg.n_clusters == 8
        assert cfg.pes_per_cluster == MachineConfig().pes_per_cluster

    def test_presets(self):
        for preset in (MachineConfig.small(), MachineConfig.medium(), MachineConfig.large()):
            preset.validate()


class TestCluster:
    def test_kernel_pe_is_pe_zero(self, machine):
        c = machine.cluster(0)
        assert c.kernel_pe.is_kernel
        assert all(not pe.is_kernel for pe in c.worker_pes)

    def test_available_workers_excludes_kernel_and_busy(self, machine):
        c = machine.cluster(0)
        assert len(c.available_workers()) == 2
        c.worker_pes[0].execute(10, lambda: None)
        assert len(c.available_workers()) == 1

    def test_minimum_two_pes(self):
        with pytest.raises(ConfigurationError):
            Cluster(EventEngine(), MetricsRegistry(), 0, 1, 100)

    def test_enqueue_fires_hook_and_tracks_high_water(self, machine):
        c = machine.cluster(1)
        seen = []
        c.on_message = lambda cl: seen.append(len(cl.input_queue))
        c.enqueue("m1")
        c.enqueue("m2")
        assert seen == [1, 2]
        assert c.queue_high_water == 2
        assert c.dequeue() == "m1"

    def test_failed_cluster_rejects_messages(self, machine):
        c = machine.cluster(1)
        c.fail()
        with pytest.raises(FaultError):
            c.enqueue("m")
        assert all(pe.state is PEState.FAULTY for pe in c.pes)


class TestMachine:
    def test_deliver_incurs_network_latency(self, machine):
        got = []
        machine.cluster(2).on_message = lambda c: got.append((machine.now, c.dequeue()))
        machine.deliver(0, 2, size_words=40, payload="hello")
        machine.run_to_completion()
        # ring 0->2: 2 hops * 10 + ceil(40/4) = 30
        assert got == [(30, "hello")]
        assert machine.metrics.get("comm.messages") == 1
        assert machine.metrics.get("comm.words") == 40

    def test_deliver_to_self_is_cheap(self, machine):
        got = []
        machine.cluster(0).on_message = lambda c: got.append(machine.now)
        machine.deliver(0, 0, size_words=4, payload="x")
        machine.run_to_completion()
        assert got == [1]  # ceil(4/4) with zero hops

    def test_deliver_to_down_cluster_raises(self, machine):
        FaultInjector(machine).fail_cluster(1)
        with pytest.raises(RoutingError):
            machine.deliver(0, 1, 4, "x")

    def test_message_lost_if_cluster_fails_in_flight(self, machine):
        machine.deliver(0, 2, size_words=400, payload="slow")
        machine.run(until=5)
        machine.cluster(2).fail()  # direct hardware failure, no reroute
        machine.run_to_completion()
        assert machine.metrics.get("fault.messages_lost") == 1

    def test_run_to_completion_guards_runaway(self, machine):
        def forever():
            machine.engine.schedule(1, forever)

        machine.engine.schedule(1, forever)
        with pytest.raises(ConfigurationError):
            machine.run_to_completion(max_events=100)

    def test_describe(self, machine):
        assert "4 clusters" in machine.describe()


class TestFaultInjector:
    def test_pe_failure_logged(self, machine):
        inj = FaultInjector(machine)
        inj.fail_pe(0, 1)
        assert machine.cluster(0).pes[1].state is PEState.FAULTY
        assert inj.log[0].kind == "pe"
        assert inj.healthy_worker_count() == 7

    def test_kernel_pe_failure_requires_cluster_failure(self, machine):
        inj = FaultInjector(machine)
        with pytest.raises(FaultError):
            inj.fail_pe(0, 0)

    def test_cluster_failure_with_reconfiguration_reroutes(self, machine):
        inj = FaultInjector(machine, reconfigure=True)
        inj.fail_cluster(1)
        # 0->2 still possible the long way
        assert machine.network.route(0, 2) == [0, 3, 2]

    def test_cluster_failure_without_reconfiguration_keeps_routes(self, machine):
        inj = FaultInjector(machine, reconfigure=False)
        inj.fail_cluster(1)
        # network still routes through the dead cluster (no isolation) ...
        assert machine.network.route(0, 2) == [0, 1, 2]
        # ... but delivery to it fails at the hardware level
        with pytest.raises(RoutingError):
            machine.deliver(0, 1, 4, "x")

    def test_scheduled_failure_fires_at_time(self, machine):
        inj = FaultInjector(machine)
        inj.schedule_pe_failure(100, 0, 1)
        machine.run(until=50)
        assert machine.cluster(0).pes[1].state is PEState.IDLE
        machine.run(until=150)
        assert machine.cluster(0).pes[1].state is PEState.FAULTY

    def test_repair_pe(self, machine):
        inj = FaultInjector(machine)
        inj.fail_pe(0, 1)
        inj.repair_pe(0, 1)
        assert machine.cluster(0).pes[1].is_available()

    def test_summary_lists_faults(self, machine):
        inj = FaultInjector(machine)
        inj.fail_pe(0, 1)
        inj.fail_link(0, 1)
        text = inj.summary()
        assert "2 faults" in text and "link" in text


class TestTraceRecorder:
    def test_record_and_query(self):
        tr = TraceRecorder()
        tr.record(5, "send", src=0, dst=1)
        tr.record(9, "dispatch", pe=(1, 2))
        assert len(tr) == 2
        assert tr.events("send")[0].get("dst") == 1
        assert tr.count_by_kind() == {"send": 1, "dispatch": 1}
        assert [e.kind for e in tr.between(0, 6)] == ["send"]

    def test_capacity_bound_drops_oldest(self):
        tr = TraceRecorder(capacity=3)
        for i in range(5):
            tr.record(i, "e", i=i)
        assert len(tr) == 3
        assert tr.dropped == 2
        assert tr.events()[0].get("i") == 2

    def test_disabled_recorder_is_free(self):
        tr = TraceRecorder(enabled=False)
        tr.record(1, "e")
        assert len(tr) == 0 and tr.recorded == 0

    def test_filter(self):
        tr = TraceRecorder()
        for i in range(10):
            tr.record(i, "e", i=i)
        assert len(tr.filter(lambda e: e.get("i") % 2 == 0)) == 5
