"""Unit tests for fault injection, detection, and reliable transport."""

import numpy as np
import pytest

from repro.comm import (
    ANY,
    CORI_HASWELL,
    ChecksumError,
    DeadlockError,
    FaultPlan,
    FaultRule,
    RecvTimeout,
    ReliableTransport,
    Simulator,
    StallError,
)
from repro.comm.faults import corrupt_payload, payload_checksum

MACHINE = CORI_HASWELL


def pingpong(nmsgs=5):
    """Rank 0 sends nmsgs arrays to rank 1, which sums them."""
    def fn(ctx):
        if ctx.rank == 0:
            for k in range(nmsgs):
                yield ctx.send(1, np.full(4, float(k)), tag=k)
            return None
        total = 0.0
        for _ in range(nmsgs):
            _, _, v = yield ctx.recv(src=0)
            total += float(v.sum())
        return total
    return fn


# -- fault plan determinism --------------------------------------------------


def test_same_seed_same_schedule_and_clocks():
    plan = FaultPlan.uniform(seed=42, drop=0.3, delay=0.3, corrupt=0.2)
    kw = dict(faults=plan, reliable=True, checksums=True)
    r1 = Simulator(2, MACHINE, **kw).run(pingpong())
    r2 = Simulator(2, MACHINE, **kw).run(pingpong())
    assert np.array_equal(r1.clocks, r2.clocks)
    assert [(e.kind, e.time, e.src, e.dst) for e in r1.fault_events] == \
           [(e.kind, e.time, e.src, e.dst) for e in r2.fault_events]
    assert r1.fault_counts()  # the plan actually did something


def test_fork_changes_stream_not_rules():
    plan = FaultPlan.uniform(seed=7, drop=0.5)
    child = plan.fork(1)
    assert child.rules == plan.rules
    assert child.seed != plan.seed
    # Generous retry budget: the test is about RNG streams, not loss.
    t = ReliableTransport(max_retries=16)
    r1 = Simulator(2, MACHINE, faults=plan, reliable=t).run(pingpong(20))
    r2 = Simulator(2, MACHINE, faults=child, reliable=t).run(pingpong(20))
    sched1 = [(e.kind, e.time) for e in r1.fault_events]
    sched2 = [(e.kind, e.time) for e in r2.fault_events]
    assert sched1 != sched2


def test_lossless_plan_injects_nothing():
    plan = FaultPlan.uniform(seed=3)  # all rates zero -> no rules
    base = Simulator(2, MACHINE).run(pingpong())
    res = Simulator(2, MACHINE, faults=plan).run(pingpong())
    assert np.array_equal(base.clocks, res.clocks)
    assert res.fault_events == []
    assert res.fault_counts() == {}


# -- recv timeout ------------------------------------------------------------


def test_recv_timeout_raises_typed_error():
    def fn(ctx):
        yield ctx.recv(src=0, tag="never", timeout=0.5)

    with pytest.raises(RecvTimeout, match="timed out"):
        Simulator(1, MACHINE).run(fn)


def test_recv_timeout_is_catchable_and_charges_wait():
    def fn(ctx):
        try:
            yield ctx.recv(src=0, tag="never", timeout=0.25, category="w")
        except RecvTimeout as e:
            return ("timed-out", e.waited)

    res = Simulator(1, MACHINE).run(fn)
    assert res.results[0] == ("timed-out", 0.25)
    assert res.clocks[0] == pytest.approx(0.25)
    assert res.time_by(category="w")[0] == pytest.approx(0.25)


def test_recv_timeout_loses_to_earlier_message():
    """A message that can arrive before the deadline is delivered instead."""
    def fn(ctx):
        if ctx.rank == 0:
            yield ctx.compute(0.1)
            yield ctx.send(1, np.ones(2), tag="t")
        else:
            _, _, v = yield ctx.recv(src=0, tag="t", timeout=10.0)
            return float(v.sum())

    res = Simulator(2, MACHINE).run(fn)
    assert res.results[1] == 2.0


def _big_message_arrival():
    """When an 80 MB message sent by rank 0 at t = 0 lands on rank 1."""
    net = MACHINE.net
    return net.send_overhead + net.latency(80_000_000,
                                           MACHINE.same_node(0, 1))


@pytest.mark.parametrize("timeout,delivered", [
    (1e-9, False),                      # the issue's case: 27 ms too late
    (_big_message_arrival(), True),     # a tie goes to the message
    (1.0, True),
])
def test_recv_deadline_beats_a_late_message_already_queued(timeout,
                                                           delivered):
    """A matching message that is queued when the receive is posted but
    arrives after the deadline loses to the timeout and stays queued."""
    def fn(ctx):
        if ctx.rank == 0:
            yield ctx.send(1, np.ones(1), tag="big", nbytes=80_000_000)
            return None
        try:
            yield ctx.recv(src=0, tag="big", timeout=timeout)
        except RecvTimeout:
            return "timeout"
        return "delivered"

    res = Simulator(2, MACHINE).run(fn)
    arrival = _big_message_arrival()
    if delivered:
        assert res.results[1] == "delivered"
        assert res.clocks[1] == arrival + MACHINE.net.recv_overhead
        assert res.unconsumed_msgs == []
    else:
        assert res.results[1] == "timeout"
        assert res.clocks[1] == timeout
        [left] = res.unconsumed_msgs
        assert (left.dst, left.src, left.tag, left.arrival) == \
            (1, 0, "big", arrival)


def test_recv_rejects_nonpositive_timeout():
    def fn(ctx):
        yield ctx.recv(src=0, timeout=0.0)

    with pytest.raises(ValueError, match="timeout"):
        Simulator(1, MACHINE).run(fn)


# -- satellite (a): recv src validation --------------------------------------


def test_recv_invalid_src_rejected():
    def fn(ctx):
        yield ctx.recv(src=99)

    with pytest.raises(ValueError, match="invalid rank 99"):
        Simulator(2, MACHINE).run(fn)

    def fn2(ctx):
        yield ctx.recv(src="zero")

    with pytest.raises(ValueError, match="rank index or ANY"):
        Simulator(2, MACHINE).run(fn2)


def test_recv_accepts_numpy_integer_src():
    def fn(ctx):
        if ctx.rank == 0:
            yield ctx.send(1, np.ones(1), tag=0)
        else:
            _, _, v = yield ctx.recv(src=np.int64(0), tag=0)
            return float(v[0])

    res = Simulator(2, MACHINE).run(fn)
    assert res.results[1] == 1.0


# -- checksums ---------------------------------------------------------------


def test_checksum_detects_corruption():
    plan = FaultPlan.uniform(seed=1, corrupt=1.0)

    with pytest.raises(ChecksumError, match="corrupted payload"):
        Simulator(2, MACHINE, faults=plan, checksums=True).run(pingpong(1))


def test_checksum_error_catchable_in_rank():
    plan = FaultPlan.uniform(seed=1, corrupt=1.0)

    def fn(ctx):
        if ctx.rank == 0:
            yield ctx.send(1, np.arange(8.0), tag=0)
        else:
            try:
                yield ctx.recv(src=0, tag=0)
            except ChecksumError as e:
                return ("detected", e.src)

    res = Simulator(2, MACHINE, faults=plan, checksums=True).run(fn)
    assert res.results[1] == ("detected", 0)


def test_corruption_silent_without_checksums():
    plan = FaultPlan.uniform(seed=1, corrupt=1.0)

    def fn(ctx):
        if ctx.rank == 0:
            yield ctx.send(1, np.full(4, np.pi), tag=0)
        else:
            _, _, v = yield ctx.recv(src=0, tag=0)
            return v

    res = Simulator(2, MACHINE, faults=plan).run(fn)
    # Delivered, wrong data, no error: exactly why checksums exist.  A
    # single bit flip in a nonzero float always changes its bit pattern.
    got = res.results[1]
    assert got.view(np.uint8).tolist() != np.full(4, np.pi).view(
        np.uint8).tolist()
    assert res.fault_counts().get("corrupt", 0) == 1


def test_payload_checksum_discriminates():
    a = np.arange(16.0)
    c0 = payload_checksum(a)
    assert c0 == payload_checksum(a.copy())
    b = a.copy()
    b[3] += 1e-12
    assert payload_checksum(b) != c0
    assert payload_checksum([a]) != payload_checksum((a,))
    assert payload_checksum({"k": a}) != payload_checksum({"j": a})


def test_corrupt_payload_flips_one_bit():
    rng = np.random.default_rng(0)
    a = np.zeros(32)
    assert corrupt_payload({"x": a}, rng)
    assert np.count_nonzero(a.view(np.uint8)) == 1
    assert not corrupt_payload("no arrays here", rng)


# -- reliable transport ------------------------------------------------------


def test_reliable_delivers_under_drop():
    plan = FaultPlan.uniform(seed=5, drop=0.4)
    res = Simulator(2, MACHINE, faults=plan, reliable=True).run(pingpong(10))
    assert res.results[1] == pytest.approx(4.0 * sum(range(10)))
    counts = res.fault_counts()
    assert counts["drop"] >= 1
    assert counts["retransmit"] == counts["drop"]
    # Every delivery acked; retransmitted copies counted as traffic.
    assert res.msgs_by(category="ack") == 10
    assert res.msgs_by(category="comm") == 10 + counts["retransmit"]


def test_reliable_retransmits_corrupted_when_checksummed():
    plan = FaultPlan.uniform(seed=5, corrupt=0.3)
    res = Simulator(2, MACHINE, faults=plan,
                    reliable=ReliableTransport(max_retries=16),
                    checksums=True).run(pingpong(10))
    # Corrupted copies were retransmitted until clean: correct data arrived.
    assert res.results[1] == pytest.approx(4.0 * sum(range(10)))
    assert res.fault_counts()["retransmit"] >= 1


def test_reliable_costs_time():
    plan = FaultPlan.uniform(seed=5, drop=0.4)
    clean = Simulator(2, MACHINE).run(pingpong(10))
    res = Simulator(2, MACHINE, faults=plan, reliable=True).run(pingpong(10))
    assert res.clocks[1] > clean.clocks[1]


def test_reliable_gives_up_after_max_retries():
    plan = FaultPlan.uniform(seed=0, drop=1.0)
    transport = ReliableTransport(max_retries=3)
    with pytest.raises(DeadlockError):
        Simulator(2, MACHINE, faults=plan,
                  reliable=transport).run(pingpong(1))
    # The lost message is in the schedule attached to the error.
    try:
        Simulator(2, MACHINE, faults=plan,
                  reliable=transport).run(pingpong(1))
    except DeadlockError as e:
        kinds = [ev.kind for ev in e.fault_events]
        assert kinds.count("retransmit") == 3
        assert "lost" in kinds


def test_reliable_suppresses_duplicates():
    plan = FaultPlan.uniform(seed=2, duplicate=1.0)
    bare = Simulator(2, MACHINE, faults=plan).run(pingpong(1))
    # Without the envelope the duplicate copy lingers undelivered.
    assert bare.fault_counts()["duplicate"] == 1
    res = Simulator(2, MACHINE, faults=plan, reliable=True).run(pingpong(1))
    assert res.fault_counts() == {"dup-suppressed": 1}
    assert res.results[1] == 0.0


# -- duplicates, reorder, delay (unreliable fabric) --------------------------


def test_duplicate_delivers_two_copies():
    plan = FaultPlan.uniform(seed=2, duplicate=1.0)

    def fn(ctx):
        if ctx.rank == 0:
            yield ctx.send(1, np.ones(2), tag="t")
        else:
            got = []
            for _ in range(2):
                _, _, v = yield ctx.recv(src=0, tag="t")
                got.append(float(v.sum()))
            return got

    res = Simulator(2, MACHINE, faults=plan).run(fn)
    assert res.results[1] == [2.0, 2.0]


def test_reorder_swaps_arrivals():
    plan = FaultPlan(seed=0, rules=(
        FaultRule(reorder=1.0, src=0, dst=1),))

    def fn(ctx):
        if ctx.rank == 0:
            yield ctx.send(1, np.array([1.0]), tag="a")
            yield ctx.send(1, np.array([2.0]), tag="b")
        else:
            yield ctx.compute(1.0)  # let both arrive first
            first = yield ctx.recv(src=0, tag=ANY)
            second = yield ctx.recv(src=0, tag=ANY)
            return (first[1], second[1])

    res = Simulator(2, MACHINE, faults=plan).run(fn)
    assert res.results[1] == ("b", "a")


def test_delay_spike_slows_arrival():
    slow = FaultPlan.uniform(seed=0, delay=1.0, delay_seconds=0.5)
    clean = Simulator(2, MACHINE).run(pingpong(1))
    res = Simulator(2, MACHINE, faults=slow).run(pingpong(1))
    assert res.results[1] == clean.results[1]
    assert res.clocks[1] >= clean.clocks[1] + 0.25  # >= 0.5 * 0.5 jitter


# -- crash and slowdown ------------------------------------------------------


def test_crash_stops_rank_and_is_reported():
    plan = FaultPlan(seed=0, crash={0: 0.0})
    with pytest.raises(DeadlockError, match="crashed"):
        Simulator(2, MACHINE, faults=plan).run(pingpong(1))
    try:
        Simulator(2, MACHINE, faults=plan).run(pingpong(1))
    except DeadlockError as e:
        assert any(ev.kind == "crash" and ev.src == 0
                   for ev in e.fault_events)


def test_crash_after_work_keeps_partial_results():
    plan = FaultPlan(seed=0, crash={1: 5.0})

    def fn(ctx):
        yield ctx.compute(1.0)
        if ctx.rank == 1:
            yield ctx.compute(10.0)  # crosses the crash time
            return "survived"
        return "done"

    res = Simulator(2, MACHINE, faults=plan).run(fn)
    assert res.results[0] == "done"
    assert res.results[1] is None
    assert res.crashed == [1]


def test_slowdown_scales_compute():
    plan = FaultPlan(seed=0, slowdown={0: (0.0, 3.0)})

    def fn(ctx):
        yield ctx.compute(2.0)

    res = Simulator(1, MACHINE, faults=plan).run(fn)
    assert res.clocks[0] == pytest.approx(6.0)
    assert res.fault_counts()["slowdown"] == 1


# -- watchdog: stall vs deadlock ---------------------------------------------


def test_watchdog_catches_zero_cost_spin():
    def fn(ctx):
        while True:
            yield ctx.compute(0.0)

    with pytest.raises(StallError, match="livelock"):
        Simulator(1, MACHINE, watchdog_events=1000).run(fn)


def test_watchdog_reports_per_rank_state():
    def fn(ctx):
        ctx.set_phase("spin")
        while True:
            yield ctx.compute(0.0)

    with pytest.raises(StallError, match="spin"):
        Simulator(2, MACHINE, watchdog_events=1000).run(fn)


def test_watchdog_does_not_misfire_on_progress():
    def fn(ctx):
        for _ in range(5000):
            yield ctx.compute(1e-9)

    res = Simulator(1, MACHINE, watchdog_events=1000).run(fn)
    assert res.clocks[0] == pytest.approx(5e-6)


def test_true_deadlock_still_deadlock_with_watchdog():
    def fn(ctx):
        yield ctx.recv(src=ANY, tag="never")

    with pytest.raises(DeadlockError):
        Simulator(2, MACHINE, watchdog_events=1000).run(fn)


# -- satellite (c): enriched deadlock diagnostics ----------------------------


def test_deadlock_reports_mailbox_state():
    def fn(ctx):
        if ctx.rank == 0:
            yield ctx.send(1, np.ones(1), tag="present")
            yield ctx.send(1, np.ones(1), tag="present")
        else:
            ctx.set_phase("usolve")
            yield ctx.recv(src=0, tag="absent")

    with pytest.raises(DeadlockError) as ei:
        Simulator(2, MACHINE).run(fn)
    msg = str(ei.value)
    assert "phase='usolve'" in msg
    assert "2 pending" in msg
    assert "'present'" in msg
    assert "earliest arrival" in msg


def test_deadlock_reports_empty_mailbox():
    def fn(ctx):
        yield ctx.recv(src=0, tag="never")

    with pytest.raises(DeadlockError, match="mailbox empty"):
        Simulator(1, MACHINE).run(fn)


# -- satellite (b): payload sizing -------------------------------------------


def test_payload_nbytes_dict_and_scalar():
    from repro.comm.simulator import _payload_nbytes

    assert _payload_nbytes(np.zeros(10)) == 80
    assert _payload_nbytes(np.float64(1.0)) == 8
    assert _payload_nbytes(np.int32(1)) == 4
    assert _payload_nbytes({"x": np.zeros(4), "n": np.int64(2)}) == \
        _payload_nbytes("x") + 32 + _payload_nbytes("n") + 8 + 16
    assert _payload_nbytes([np.zeros(2), np.zeros(2)]) == 16 + 16 + 16
    assert _payload_nbytes("opaque") == 32


def test_send_charges_dict_payload_bytes():
    payload = {"rows": np.zeros(8), "count": np.int64(3)}

    def fn(ctx):
        if ctx.rank == 0:
            yield ctx.send(1, payload, tag=0, category="xy")
        else:
            _, _, got = yield ctx.recv(src=0, tag=0)
            assert set(got) == {"rows", "count"}
            assert got["rows"] is not payload["rows"]  # deep-copied

    res = Simulator(2, MACHINE).run(fn)
    from repro.comm.simulator import _payload_nbytes
    assert res.bytes_by(category="xy") == _payload_nbytes(payload)


# -- default path unchanged --------------------------------------------------


def test_resilience_off_is_bit_identical():
    base = Simulator(2, MACHINE).run(pingpong(8))
    off = Simulator(2, MACHINE, faults=None, reliable=False,
                    checksums=False, watchdog_events=None).run(pingpong(8))
    assert np.array_equal(base.clocks, off.clocks)
    assert base.results == off.results
    assert off.fault_events is None
