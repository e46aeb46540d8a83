"""Property tests: FIFOs against reference models."""

import pickle
from collections import deque

from hypothesis import given
from hypothesis import strategies as st

from repro.obs.export import prometheus_text
from repro.obs.metrics import MetricsRegistry
from repro.sim.fifo import AsyncFifo, SyncFifo

ops = st.lists(
    st.one_of(
        st.tuples(st.just("push"), st.integers(0, 2**32 - 1)),
        st.tuples(st.just("pop"), st.just(0)),
    ),
    max_size=200,
)


@given(capacity=st.integers(1, 64), operations=ops)
def test_sync_fifo_matches_reference_model(capacity, operations):
    fifo = SyncFifo(capacity)
    model = deque()
    drops = 0
    for op, value in operations:
        if op == "push":
            accepted = fifo.push(value)
            if len(model) < capacity:
                assert accepted
                model.append(value)
            else:
                assert not accepted
                drops += 1
        else:
            if model:
                assert fifo.pop() == model.popleft()
            else:
                assert fifo.empty
        assert len(fifo) == len(model)
        assert fifo.empty == (not model)
        assert fifo.full == (len(model) == capacity)
        assert fifo.drops == drops


@given(
    capacity=st.integers(1, 64),
    slack=st.integers(0, 64),
    pushes=st.integers(0, 64),
)
def test_almost_full_is_remaining_space_threshold(capacity, slack, pushes):
    fifo = SyncFifo(capacity, almost_full_slack=slack)
    for value in range(min(pushes, capacity)):
        fifo.push(value)
    assert fifo.almost_full == (fifo.remaining <= slack)


@given(
    words=st.lists(st.integers(0, 2**32 - 1), max_size=100),
    capacity=st.integers(1, 128),
)
def test_fifo_preserves_order_and_content(words, capacity):
    fifo = SyncFifo(capacity)
    accepted = [w for w in words if fifo.push(w)]
    assert fifo.drain() == accepted
    assert accepted == words[: min(len(words), capacity)]


@given(
    words=st.lists(st.integers(0, 255), min_size=1, max_size=50),
    sync_stages=st.integers(0, 4),
)
def test_async_fifo_sync_empty_never_shows_phantom_data(words, sync_stages):
    """sync_empty may lag reality but never claims data that isn't there."""
    fifo = AsyncFifo(256, sync_stages=sync_stages)
    for word in words:
        fifo.push(word)
        if not fifo.sync_empty:
            assert not fifo.empty
        fifo.reader_tick()
    # after enough reader cycles every word becomes visible
    for _ in range(sync_stages + 1):
        fifo.reader_tick()
    assert not fifo.sync_empty
    assert fifo.drain() == words


class StampedFifo:
    """Reference synchroniser: every resident word carries the reader
    cycle at which it becomes visible."""

    def __init__(self, capacity, sync_stages):
        self.capacity = capacity
        self.sync_stages = sync_stages
        self.reader_cycle = 0
        self.words = deque()

    def push(self, word):
        if len(self.words) >= self.capacity:
            return False
        self.words.append((word, self.reader_cycle + self.sync_stages))
        return True

    @property
    def sync_empty(self):
        return not self.words or self.words[0][1] > self.reader_cycle


sync_ops = st.lists(
    st.sampled_from(["push", "pop", "tick", "tick", "clear", "drain"]),
    max_size=200,
)


@given(
    capacity=st.integers(1, 8),
    sync_stages=st.integers(0, 4),
    operations=sync_ops,
)
def test_async_fifo_sync_empty_matches_stamped_model(
    capacity, sync_stages, operations
):
    fifo = AsyncFifo(capacity, sync_stages=sync_stages)
    model = StampedFifo(capacity, sync_stages)
    for value, op in enumerate(operations):
        if op == "push":
            assert fifo.push(value) == model.push(value)
        elif op == "pop" and model.words:
            assert fifo.pop() == model.words.popleft()[0]
        elif op == "tick":
            fifo.reader_tick()
            model.reader_cycle += 1
        elif op == "clear":
            fifo.clear()
            model.words.clear()
        elif op == "drain":
            assert fifo.drain() == [word for word, _ in model.words]
            model.words.clear()
        assert fifo.sync_empty == model.sync_empty
        assert len(fifo) == len(model.words)
        # the tick record is O(1): only the last sync_stages ticks matter
        assert len(fifo._ticks) <= sync_stages


def _twin_registries(capacity, label="f"):
    """A FIFO bound to one registry (tallied occupancy) and an empty
    ``observe()``-fed twin registry for its instruments."""
    tallied, observed = MetricsRegistry(), MetricsRegistry()
    fifo = SyncFifo(capacity, name=label)
    fifo.bind_metrics(tallied)
    return fifo, tallied, observed


def _drive(fifo, tallied, observed, operations):
    labels = {"fifo": fifo.name}
    hist = observed.histogram("repro_fifo_occupancy", labels=labels)
    drops = observed.counter("repro_fifo_drops_total", labels=labels)
    for op in operations:
        if op == "push":
            if fifo.push(0):
                hist.observe(len(fifo))
            else:
                drops.inc()
        elif op == "pop" and len(fifo):
            fifo.pop()
        elif op == "read":  # a scrape mid-stream folds the tally early
            prometheus_text(tallied)


def _assert_same(tallied, observed):
    for a, b in zip(tallied.metrics(), observed.metrics()):
        assert (a.name, a.labels, a.kind) == (b.name, b.labels, b.kind)
        if a.kind == "histogram":
            assert a.counts == b.counts
            assert a.sum == b.sum and type(a.sum) is type(b.sum)
            assert a.count == b.count
            assert a.cumulative() == b.cumulative()
    assert prometheus_text(tallied) == prometheus_text(observed)


tally_ops = st.lists(
    st.sampled_from(["push", "push", "pop", "read"]), max_size=300
)


@given(
    capacity=st.integers(1, 1100), first=tally_ops, second=tally_ops
)
def test_tallied_occupancy_histogram_equals_observed_twin(
    capacity, first, second
):
    fifo, tallied, observed = _twin_registries(capacity)
    _drive(fifo, tallied, observed, first)
    # pool workers ship registries by pickle and fold them with merge;
    # the shipped copy must neither share nor lose the unread tally
    text = prometheus_text(observed)
    shipped_t = pickle.loads(pickle.dumps(tallied))
    shipped_o = pickle.loads(pickle.dumps(observed))
    _assert_same(tallied, observed)
    _drive(fifo, tallied, observed, second)
    _assert_same(shipped_t, shipped_o)
    assert prometheus_text(shipped_t) == text
    _assert_same(tallied, observed)
    other, more_t, more_o = _twin_registries(capacity)
    _drive(other, more_t, more_o, second + first)
    for registry_t, registry_o in ((shipped_t, shipped_o), (more_t, more_o)):
        registry_t.merge(tallied)
        registry_o.merge(observed)
        _assert_same(registry_t, registry_o)
    merged_t, merged_o = MetricsRegistry(), MetricsRegistry()
    for registry_t, registry_o in ((tallied, observed), (more_t, more_o)):
        merged_t.merge(registry_t)
        merged_o.merge(registry_o)
    _assert_same(merged_t, merged_o)
