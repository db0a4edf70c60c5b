"""The open-loop generator times from due times and owns up to lateness."""

import pytest

from perfbench.workloads import OpenLoopSchedule


class FakeTime:
    def __init__(self):
        self.now = 100.0
        self.slept = []

    def clock(self):
        return self.now

    def sleep(self, seconds):
        self.slept.append(seconds)
        self.now += seconds


def test_due_times_are_fixed_and_latency_counts_from_them():
    fake = FakeTime()
    schedule = OpenLoopSchedule(rate=2.0, count=4, clock=fake.clock, sleep=fake.sleep)
    sent = []

    def send(i):
        sent.append((i, fake.now))
        if i == 1:
            fake.now += 1.2  # the generator stalls for more than two periods

    schedule.run(send)
    assert schedule.due == [100.0, 100.5, 101.0, 101.5]
    # Queries 2 and 3 were due during the stall and go out late, back to back.
    assert [at for _, at in sent] == [100.0, 100.5, 101.7, 101.7]
    assert schedule.late == pytest.approx([0.0, 0.0, 0.7, 0.2])
    # A query answered 0.1 s after it was finally sent waited 0.8 s from its due time.
    assert schedule.latency(2, done_at=101.8) == pytest.approx(0.8)
    assert fake.slept == pytest.approx([0.5])
