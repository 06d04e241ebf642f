"""The real-bytes store under any sequence of operations: a stateful test.

One ``ECFusion(6, 3, queue_capacity=2)`` takes writes, overwrites (at
another block length too), data, parity and streamed recoveries, and
deletes in whatever order Hypothesis draws.  Queue2 holds two stripes, so
almost every recovery of a third evicts one: stripes keep converting
RS → MSR (recovery insert) and MSR → RS (eviction) over the
intermediary-parity highway.  After every step:

* every stored stripe reads back exactly the data last written to it;
* its parity is what its current family's codec encodes from that data,
  ``transformer.encode(data, kind).parity`` — every conversion and every
  in-place repair left a codeword behind;
* the store's conversion cost is the paper's block count (Fig. 12) summed
  over the conversions it reported, and the journal holds nothing open.

A lost data row is poisoned before every repair, so a repair — or the
stripe's own RS → MSR conversion that runs first — that read the row it
rebuilds would be caught too.  A lost parity row is poisoned whenever the
stripe is already in MSR form (its index addresses the layout after any
conversion, which computes that row afresh).
"""

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.fusion import CodeKind, ECFusion

K, R = 6, 3
Q = 2  # MSR groups of EC-Fusion(6, 3)
UNIT = R * R  # block lengths are multiples of the MSR sub-packetization
#: blocks (data read, parity read, written) per conversion, Fig. 12
EDGE_COST = {
    CodeKind.MSR: ((Q - 1) * R, R, Q * R),  # RS → MSR: the last group is derived
    CodeKind.RS: (0, Q * R, R),  # MSR → RS: parities only
}
POISON = 0xA5

picks = st.integers(0, 1 << 16)
units = st.integers(1, 3)
seeds = st.integers(0, 1 << 32)


class StoreMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.fusion = ECFusion(K, R, queue_capacity=2)
        self.data: dict[int, np.ndarray] = {}  # the last bytes written per stripe
        self.next_key = 0
        self.cost = [0, 0, 0]
        self.conversions = 0

    def _pick(self, pick: int) -> int:
        keys = sorted(self.data)
        return keys[pick % len(keys)]

    def _write(self, key: int, units: int, seed: int) -> None:
        data = np.random.default_rng(seed).integers(0, 256, (K, UNIT * units), np.uint8)
        self.fusion.write(key, data)  # its own code flip is free: re-encoded
        self.data[key] = data

    def _book(self, conversions) -> None:
        for conv in conversions:
            self.conversions += 1
            for i, blocks in enumerate(EDGE_COST[conv.target]):
                self.cost[i] += blocks

    @rule(units=units, seed=seeds)
    def write(self, units, seed):
        self._write(self.next_key, units, seed)
        self.next_key += 1

    @precondition(lambda self: self.data)
    @rule(pick=picks, units=units, seed=seeds)
    def overwrite(self, pick, units, seed):
        self._write(self._pick(pick), units, seed)

    @precondition(lambda self: self.data)
    @rule(pick=picks, block=st.integers(0, K - 1))
    def recover(self, pick, block):
        key = self._pick(pick)
        self.fusion.read_stripe(key)[block] = POISON
        self._book(self.fusion.recover(key, block).conversions)

    @precondition(lambda self: self.data)
    @rule(pick=picks, index=st.integers(0, Q * R - 1))
    def recover_parity(self, pick, index):
        key = self._pick(pick)
        store = self.fusion._locate(key)
        if store.kind is CodeKind.MSR:
            g, x = divmod(index, R)
            store.parity[g][x] = POISON
        else:
            index %= R  # addresses a parity in either layout
        self._book(self.fusion.recover_parity(key, index).conversions)

    @precondition(lambda self: self.data)
    @rule(
        pick=picks,
        block=st.integers(0, K - 1),
        chunk=st.sampled_from([1, 64, 1 << 16]),
    )
    def recover_streamed(self, pick, block, chunk):
        key = self._pick(pick)
        self.fusion.read_stripe(key)[block] = POISON
        report = self.fusion.recover_streamed(key, block, chunk_size=chunk)
        self._book(report.conversions)

    @precondition(lambda self: self.data)
    @rule(pick=picks)
    def delete(self, pick):
        key = self._pick(pick)
        self.fusion.delete(key)
        del self.data[key]

    @invariant()
    def stripes_read_back_and_are_codewords(self):
        assert len(self.fusion) == len(self.data)
        tr = self.fusion.transformer
        for key, data in self.data.items():
            assert np.array_equal(self.fusion.read_stripe(key), data), key
            store = self.fusion._locate(key)
            assert store.kind is self.fusion.selector.code_of(key)
            want = tr.encode(data, store.kind).parity
            assert len(store.parity) == len(want)
            for got, expect in zip(store.parity, want):
                assert np.array_equal(got, expect), (key, store.kind)

    @invariant()
    def conversions_cost_the_paper_block_counts(self):
        tr, cost = self.fusion.transformer, self.fusion.transform_cost
        assert tr.journal_open == 0
        assert tr.journal_committed == self.conversions
        got = [cost.data_blocks_read, cost.parity_blocks_read, cost.blocks_written]
        assert got == self.cost


StoreMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None
)
TestStoreMachine = StoreMachine.TestCase
