"""Error parity of the real-bytes entry points: one table of malformed inputs.

The bytes path validates its arrays once, in the native kernel entry, and
falls back to the Python checks only for what the entry refuses.  This
referee pins that no check was lost on the way.  Every public entry —
``CodingPlan.apply_into``, a codec's ``encode(out=…)``, the ``(data,
parity)`` form of ``repair``, ``FusionTransformer.convert``,
``rs_to_msr`` and ``msr_to_rs``, and ``ECFusion.write`` — is fed the same
kinds of malformed input: wrong rows, wrong width, an ``int16`` input, an
``int8`` out, a read-only out, a column-strided input, a row-strided
stripe, a list and a short parity set.  The stripe-batched entries
(``apply_batch``, ``encode_batch``, ``repair_batch``, ``rs_to_msr_batch``,
``msr_to_rs_batch``) and the mapping form of ``repair_streamed`` are fed
the malformed stacks and mappings their own checks refuse.  :data:`EXPECTED` records what each
entry did while every layer still checked its arrays in Python: the
exception type and message, or a digest of the bytes it converted the
input to.  Each case must do the same, and a refusal must write nothing:
every output is poisoned first, and everything the case touches must come
back byte for byte.  Every entry is warmed with valid input first, so the
malformed call meets the warm path (a plan's first application lowers it
through the Python checks anyway).

The table holds whichever backend serves: CI runs it under every forced
NumPy backend (Python checks only) and through the ctypes entry as well.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.codes import MSRCode, ReedSolomonCode
from repro.fusion import CodeKind, ECFusion
from repro.fusion.transform import FusionTransformer, StripeStore
from repro.gf import CodingPlan, systematic_rs_parity

K, R = 6, 3  # RS(6, 3) ↔ MSR(6, 3, 3, 9): two groups, blocks a multiple of 9
L = 72
POISON = 0xA5


def _bytes(rows, width=L, seed=0, dtype=np.uint8, high=256):
    rng = np.random.default_rng(seed)
    return rng.integers(0, high, (rows, width)).astype(dtype)


def _poisoned(rows, width=L, dtype=np.uint8):
    return np.full((rows, width), POISON, np.uint8).astype(dtype)


def _column_strided(a):
    wide = np.repeat(a, 2, axis=1)
    return wide[:, ::2]


def _row_strided(a):
    tall = np.repeat(a, 2, axis=0)
    return tall[::2]


def _read_only(a):
    a = a.copy()
    a.setflags(write=False)
    return a


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(repr((part.dtype.str, part.shape)).encode())
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(repr(part).encode())
    return h.hexdigest()[:16]


#: case name → a builder returning ``(run, state)``: ``run()`` calls the
#: entry and returns what it produced, ``state()`` digests everything the
#: case touches
CASES: dict = {}


# -- CodingPlan.apply_into ------------------------------------------------------


def _apply_case(blocks=None, out=None, tail=None, accumulate=False, out_tail=None):
    plan = CodingPlan(systematic_rs_parity(K, R))
    plan.apply_into(_bytes(K), np.empty((R, L), np.uint8))  # warm
    blocks = _bytes(K) if blocks is None else blocks
    out = _poisoned(R) if out is None else out

    def run():
        got = [plan.apply_into(blocks, out, accumulate, tail, out_tail)]
        return got if out_tail is None else got + [out_tail]

    return run, lambda: _digest(out, blocks, tail, out_tail)


APPLY = {
    "ok": lambda: _apply_case(),
    "ok-tail-accumulate": lambda: _apply_case(_bytes(4), tail=_bytes(2, seed=1), accumulate=True),
    "wrong-rows": lambda: _apply_case(_bytes(K - 1)),
    "short-tail": lambda: _apply_case(_bytes(3), tail=_bytes(2, seed=1)),
    "wrong-out-rows": lambda: _apply_case(out=_poisoned(R - 1)),
    "wrong-width": lambda: _apply_case(out=_poisoned(R, L - 8)),
    "tail-wrong-width": lambda: _apply_case(_bytes(3), tail=_bytes(3, L - 8, seed=1)),
    "int16-input": lambda: _apply_case(_bytes(K, dtype=np.int16, high=512)),
    "int8-out": lambda: _apply_case(out=_poisoned(R, dtype=np.int8)),
    "read-only-out": lambda: _apply_case(out=_read_only(_poisoned(R))),
    "column-strided-input": lambda: _apply_case(_column_strided(_bytes(K))),
    "row-strided-input": lambda: _apply_case(_row_strided(_bytes(K))),
    "column-strided-out": lambda: _apply_case(out=_column_strided(_poisoned(R))),
    "list-input": lambda: _apply_case(_bytes(K).tolist()),
    "list-out": lambda: _apply_case(out=_poisoned(R).tolist()),
    "ok-out-tail": lambda: _apply_case(out=_poisoned(1), out_tail=_poisoned(R - 1)),
    "out-tail-wrong-rows": lambda: _apply_case(out=_poisoned(1), out_tail=_poisoned(R)),
    "out-tail-read-only": lambda: _apply_case(out=_poisoned(1), out_tail=_read_only(_poisoned(R - 1))),
}
for _name, _build in APPLY.items():
    CASES[f"apply_into/{_name}"] = _build


# -- encode(out=…) and repair((data, parity)) on both codecs -------------------

CODECS = {"rs": lambda: ReedSolomonCode(K, R), "msr": lambda: MSRCode(2 * R, R)}


def _encode_case(code, data=None, out=None):
    codec = CODECS[code]()
    codec.encode(_bytes(codec.k), out=np.empty((codec.n - codec.k, L), np.uint8))  # warm
    data = _bytes(codec.k) if data is None else data
    out = _poisoned(codec.n - codec.k) if out is None else out

    def run():
        res = codec.encode(data, out=out)
        return list(res) if type(res) is tuple else [res]

    return run, lambda: _digest(*(out if type(out) is tuple else (out,)), data)


def _repair_case(code, data=None, parity=None, stripe=None, failed=1):
    codec = CODECS[code]()
    good = codec.encode(_bytes(codec.k))
    codec.repair(failed, (good[: codec.k].copy(), good[codec.k :].copy()))  # warm
    data = good[: codec.k].copy() if data is None else data
    parity = good[codec.k :].copy() if parity is None else parity
    if isinstance(data, np.ndarray) and data.flags.writeable and len(data) > failed:
        data[failed] = _poisoned(1, data.shape[1], data.dtype)[0]  # the lost row: never read
    stripe = (data, parity) if stripe is None else stripe

    def run():
        res = codec.repair(failed, stripe)
        return [res.block, data, parity, sorted(res.bytes_read.items())]

    return run, lambda: _digest(data, parity)


for _code in CODECS:
    _k = {"rs": K, "msr": R}[_code]
    ENCODE = {
        "ok": lambda c=_code: _encode_case(c),
        "wrong-rows": lambda c=_code, k=_k: _encode_case(c, _bytes(k + 1)),
        "shortened-rows": lambda c=_code, k=_k: _encode_case(c, _bytes(k - 1)),
        "wrong-width": lambda c=_code: _encode_case(c, out=_poisoned(R, L - 9)),
        "short-parity-out": lambda c=_code: _encode_case(c, out=_poisoned(R - 1)),
        "ragged-width": lambda c=_code, k=_k: _encode_case(c, _bytes(k, L - 2), _poisoned(R, L - 2)),
        "int16-input": lambda c=_code, k=_k: _encode_case(c, _bytes(k, dtype=np.int16)),
        "int8-out": lambda c=_code: _encode_case(c, out=_poisoned(R, dtype=np.int8)),
        "read-only-out": lambda c=_code: _encode_case(c, out=_read_only(_poisoned(R))),
        "column-strided-input": lambda c=_code, k=_k: _encode_case(c, _column_strided(_bytes(k))),
        "row-strided-out": lambda c=_code: _encode_case(c, out=_row_strided(_poisoned(R))),
        "list-input": lambda c=_code, k=_k: _encode_case(c, _bytes(k).tolist()),
        "ok-stripe": lambda c=_code, k=_k: _encode_case(c, out=(_poisoned(k), _poisoned(R))),
        "stripe-short-data-rows": lambda c=_code, k=_k: _encode_case(
            c, out=(_poisoned(k - 1), _poisoned(R))
        ),
        "stripe-read-only-data-rows": lambda c=_code, k=_k: _encode_case(
            c, out=(_read_only(_poisoned(k)), _poisoned(R))
        ),
    }
    for _name, _build in ENCODE.items():
        CASES[f"encode/{_code}/{_name}"] = _build
    REPAIR = {
        "ok": lambda c=_code: _repair_case(c),
        "ok-parity-node": lambda c=_code, k=_k: _repair_case(c, failed=k + 1),
        "wrong-rows": lambda c=_code, k=_k: _repair_case(c, data=_bytes(k + 1)),
        "short-rows": lambda c=_code, k=_k: _repair_case(c, data=_bytes(k - 1)),
        "wrong-parity-rows": lambda c=_code: _repair_case(c, parity=_bytes(R - 1)),
        "wrong-width": lambda c=_code: _repair_case(c, parity=_bytes(R, L - 9)),
        "int16-stripe": lambda c=_code, k=_k: _repair_case(c, data=_bytes(k, dtype=np.int16)),
        "int8-stripe": lambda c=_code, k=_k: _repair_case(c, data=_bytes(k, dtype=np.int8)),
        "read-only-stripe": lambda c=_code, k=_k: _repair_case(c, data=_read_only(_bytes(k))),
        "column-strided-stripe": lambda c=_code, k=_k: _repair_case(c, data=_column_strided(_bytes(k))),
        "row-strided-stripe": lambda c=_code, k=_k: _repair_case(c, data=_row_strided(_bytes(k))),
        "list-stripe": lambda c=_code, k=_k: _repair_case(c, stripe=(_bytes(k).tolist(), _bytes(R))),
        "not-a-pair": lambda c=_code, k=_k: _repair_case(c, stripe=(_bytes(k),)),
    }
    for _name, _build in REPAIR.items():
        CASES[f"repair/{_code}/{_name}"] = _build


# -- the converter --------------------------------------------------------------


def _stripe(kind, data=None, parity=None):
    tr = FusionTransformer(K, R)
    good = tr.encode(_bytes(K), kind)
    tr.convert(tr.encode(_bytes(K, seed=9), kind), "msr" if kind == "rs" else "rs")  # warm
    data = good.data if data is None else data
    parity = good.parity if parity is None else parity
    return tr, StripeStore(CodeKind(kind), data, parity)


def _convert_case(kind, data=None, parity=None):
    tr, stripe = _stripe(kind, data, parity)
    target = "msr" if kind == "rs" else "rs"
    arrays = [a for a in (stripe.data, *stripe.parity) if isinstance(a, np.ndarray)]
    identity = [id(p) for p in stripe.parity]

    def run():
        cost = tr.convert(stripe, target)
        return [stripe.kind.value, *stripe.parity, cost.blocks_read, cost.blocks_written]

    def state():
        return _digest(stripe.kind.value, *arrays, [id(p) for p in stripe.parity] == identity,
                       tr.journal_open)  # fmt: skip

    return run, state


def _parities(rows=R, width=L, dtype=np.uint8, seed=2):
    return [_bytes(rows, width, seed + g, dtype) for g in range(2)]


CONVERT = {
    "rs-msr/ok": lambda: _convert_case("rs"),
    "msr-rs/ok": lambda: _convert_case("msr"),
    "rs-msr/wrong-rows": lambda: _convert_case("rs", _bytes(K - 1)),
    "rs-msr/wrong-width": lambda: _convert_case("rs", parity=[_bytes(R, L - 9)]),
    "rs-msr/ragged-width": lambda: _convert_case("rs", _bytes(K, L - 2), [_bytes(R, L - 2)]),
    "msr-rs/short-parity-set": lambda: _convert_case("msr", parity=_parities()[:1]),
    "msr-rs/wrong-parity-rows": lambda: _convert_case("msr", parity=[_bytes(R), _bytes(R - 1)]),
    "rs-msr/int16-data": lambda: _convert_case("rs", _bytes(K, dtype=np.int16)),
    "rs-msr/int8-data": lambda: _convert_case("rs", _bytes(K, dtype=np.int8)),
    "rs-msr/int16-parity": lambda: _convert_case("rs", parity=[_bytes(R, dtype=np.int16)]),
    "rs-msr/column-strided-data": lambda: _convert_case("rs", _column_strided(_bytes(K))),
    "rs-msr/row-strided-data": lambda: _convert_case("rs", _row_strided(_bytes(K))),
    "rs-msr/read-only-data": lambda: _convert_case("rs", _read_only(_bytes(K))),
    "rs-msr/list-data": lambda: _convert_case("rs", _bytes(K).tolist()),
    "msr-rs/int16-parity": lambda: _convert_case("msr", parity=_parities(dtype=np.int16)),
    "msr-rs/int8-parity": lambda: _convert_case("msr", parity=_parities(dtype=np.int8)),
    "msr-rs/column-strided-parity": lambda: _convert_case(
        "msr", parity=[_column_strided(p) for p in _parities()]
    ),
    "msr-rs/row-strided-parity": lambda: _convert_case(
        "msr", parity=[_row_strided(p) for p in _parities()]
    ),
    "msr-rs/list-parity": lambda: _convert_case("msr", parity=[p.tolist() for p in _parities()]),
}
for _name, _build in CONVERT.items():
    CASES[f"convert/{_name}"] = _build


def _rs_to_msr_case(data=None, parity=None):
    tr = FusionTransformer(K, R)
    good = tr.rs.encode(_bytes(K))
    tr.rs_to_msr(good[:K], good[K:])  # warm
    data = good[:K].copy() if data is None else data
    parity = good[K:].copy() if parity is None else parity

    def run():
        res = tr.rs_to_msr(data, parity)
        return [*res.parity, res.cost.blocks_read]

    return run, lambda: _digest(*(a for a in (data, parity) if isinstance(a, np.ndarray)))


RS_TO_MSR = {
    "ok": lambda: _rs_to_msr_case(),
    "wrong-parity-rows": lambda: _rs_to_msr_case(parity=_bytes(R - 1)),
    "extra-data-row": lambda: _rs_to_msr_case(data=_bytes(K + 1)),
    **{
        f"{rows}-data-rows": lambda rows=rows: _rs_to_msr_case(data=_bytes(rows))
        for rows in (R, R + 1, R + 2, 3 * R)
    },
    "wrong-width": lambda: _rs_to_msr_case(data=_bytes(K, L - 9)),
    "ragged-width": lambda: _rs_to_msr_case(_bytes(K, L - 2), _bytes(R, L - 2)),
    "parity-narrower": lambda: _rs_to_msr_case(parity=_bytes(R, L - 9)),
    "int16-data": lambda: _rs_to_msr_case(data=_bytes(K, dtype=np.int16)),
    "int8-parity": lambda: _rs_to_msr_case(parity=_bytes(R, dtype=np.int8)),
    "column-strided-data": lambda: _rs_to_msr_case(data=_column_strided(_bytes(K))),
    "row-strided-parity": lambda: _rs_to_msr_case(parity=_row_strided(_bytes(R))),
    "list-data": lambda: _rs_to_msr_case(data=_bytes(K).tolist()),
}
for _name, _build in RS_TO_MSR.items():
    CASES[f"rs_to_msr/{_name}"] = _build


def _msr_to_rs_case(parities=None, data=None):
    tr = FusionTransformer(K, R)
    good = tr.encode(_bytes(K), "msr")
    tr.msr_to_rs(good.parity, data=good.data)  # warm
    parities = [p.copy() for p in good.parity] if parities is None else parities
    arrays = [a for a in (data, *parities) if isinstance(a, np.ndarray)]

    def run():
        res = tr.msr_to_rs(parities, data=data)
        return [res.parity, res.cost.blocks_read]

    return run, lambda: _digest(*arrays)


MSR_TO_RS = {
    "ok": lambda: _msr_to_rs_case(),
    "ok-with-data": lambda: _msr_to_rs_case(data=_bytes(K)),
    "short-parity-set": lambda: _msr_to_rs_case(_parities()[:1]),
    "wrong-rows": lambda: _msr_to_rs_case([_bytes(R), _bytes(R - 1)]),
    "wrong-width": lambda: _msr_to_rs_case([_bytes(R), _bytes(R, L - 9)]),
    "ragged-width": lambda: _msr_to_rs_case(_parities(width=L - 2)),
    "int16-parity": lambda: _msr_to_rs_case(_parities(dtype=np.int16)),
    "int8-parity": lambda: _msr_to_rs_case(_parities(dtype=np.int8)),
    "column-strided-parity": lambda: _msr_to_rs_case([_column_strided(p) for p in _parities()]),
    "list-parity": lambda: _msr_to_rs_case([p.tolist() for p in _parities()]),
    "wrong-data-rows": lambda: _msr_to_rs_case(data=_bytes(K - 1)),
    "int16-data": lambda: _msr_to_rs_case(data=_bytes(K, dtype=np.int16)),
}
for _name, _build in MSR_TO_RS.items():
    CASES[f"msr_to_rs/{_name}"] = _build


# -- the stripe-batched entries -------------------------------------------------

B = 3  # stripes per batch


def _stack(rows, width=L, seed=0, dtype=np.uint8, batch=B):
    stack = np.empty((batch, rows, width), dtype)
    for b in range(batch):
        stack[b] = _bytes(rows, width, seed + b, dtype)
    return stack


def _results(results):
    """A list of repair or conversion results as digestible parts."""
    parts = []
    for res in results:
        if hasattr(res, "bytes_read"):
            parts += [res.block, sorted(res.bytes_read.items())]
        else:
            cost = res.cost
            parts += [*(res.parity if type(res.parity) is list else [res.parity])]
            parts += [(cost.blocks_read, cost.blocks_written, cost.gf_ops)]
    return parts


def _apply_batch_case(stacked=None, out=None):
    plan = CodingPlan(systematic_rs_parity(K, R))
    plan.apply_batch(_stack(K))  # warm
    stacked = _stack(K) if stacked is None else stacked

    def run():
        return [plan.apply_batch(stacked, out=out)]

    return run, lambda: _digest(*(a for a in (stacked, out) if isinstance(a, np.ndarray)))


APPLY_BATCH = {
    "ok": lambda: _apply_batch_case(),
    "ok-out": lambda: _apply_batch_case(out=_poisoned(B * R).reshape(B, R, L)),
    "ok-empty": lambda: _apply_batch_case(_stack(K, batch=0)),
    "not-3d": lambda: _apply_batch_case(_bytes(K)),
    "wrong-rows": lambda: _apply_batch_case(_stack(K - 1)),
    "wrong-out-shape": lambda: _apply_batch_case(out=_poisoned(B * (R - 1)).reshape(B, R - 1, L)),
    "int8-out": lambda: _apply_batch_case(out=_poisoned(B * R, dtype=np.int8).reshape(B, R, L)),
    "int16-input": lambda: _apply_batch_case(_stack(K, dtype=np.int16)),
}
for _name, _build in APPLY_BATCH.items():
    CASES[f"apply_batch/{_name}"] = _build


def _encode_batch_case(code, stripes=None):
    codec = CODECS[code]()
    codec.encode_batch(_stack(codec.k))  # warm
    stripes = _stack(codec.k) if stripes is None else stripes

    def run():
        return [codec.encode_batch(stripes)]

    return run, lambda: _digest(stripes)


def _repair_batch_case(code, shards=None, failed=1, drop=()):
    codec = CODECS[code]()
    coded = codec.encode_batch(_stack(codec.k))
    codec.repair_batch(1, {i: coded[:, i] for i in range(codec.n) if i != 1})  # warm
    helpers = [i for i in range(codec.n) if i != failed and i not in drop]
    shards = {i: coded[:, i].copy() for i in helpers} if shards is None else shards

    def run():
        return _results(codec.repair_batch(failed, shards))

    return run, lambda: _digest(*(shards[i] for i in sorted(shards)))


def _streamed_case(code, shards=None, failed=1, drop=(), chunk_size=16, strided=False):
    codec = CODECS[code]()
    coded = codec.encode(_bytes(codec.k))
    if strided:
        coded = _row_strided(coded)
    codec.repair_streamed(1, {i: coded[i] for i in range(codec.n) if i != 1})  # warm
    helpers = [i for i in range(codec.n) if i != failed and i not in drop]
    shards = {i: coded[i] for i in helpers} if shards is None else shards

    def run():
        return _results([codec.repair_streamed(failed, shards, chunk_size=chunk_size)])

    return run, lambda: _digest(*(shards[i] for i in sorted(shards)))


for _code in CODECS:
    _k = {"rs": K, "msr": R}[_code]
    _n = _k + R
    ENCODE_BATCH = {
        "ok": lambda c=_code, k=_k: _encode_batch_case(c),
        "ok-empty": lambda c=_code, k=_k: _encode_batch_case(c, _stack(k, batch=0)),
        "not-3d": lambda c=_code, k=_k: _encode_batch_case(c, _bytes(k)),
        "wrong-rows": lambda c=_code, k=_k: _encode_batch_case(c, _stack(k + 1)),
        "ragged-width": lambda c=_code, k=_k: _encode_batch_case(c, _stack(k, L - 2)),
        "int16-input": lambda c=_code, k=_k: _encode_batch_case(c, _stack(k, dtype=np.int16)),
    }
    for _name, _build in ENCODE_BATCH.items():
        CASES[f"encode_batch/{_code}/{_name}"] = _build
    REPAIR_BATCH = {
        "ok": lambda c=_code: _repair_batch_case(c),
        "ok-parity-node": lambda c=_code, k=_k: _repair_batch_case(c, failed=k + 1),
        "missing-helper": lambda c=_code, n=_n: _repair_batch_case(c, drop=(n - 1,)),
        "too-few-helpers": lambda c=_code, n=_n: _repair_batch_case(c, drop=range(n - R, n)),
        "empty-mapping": lambda c=_code: _repair_batch_case(c, {}),
        "failed-among-shards": lambda c=_code, n=_n: _repair_batch_case(
            c, {i: _stack(1)[:, 0] for i in range(n)}
        ),
        "failed-out-of-range": lambda c=_code, n=_n: _repair_batch_case(c, failed=n),
        "shard-out-of-range": lambda c=_code, n=_n: _repair_batch_case(
            c, {0: _stack(1)[:, 0], n: _stack(1)[:, 0]}
        ),
        "not-2d-stacks": lambda c=_code, n=_n: _repair_batch_case(
            c, {i: _bytes(1)[0] for i in range(n) if i != 1}
        ),
        "inconsistent-stacks": lambda c=_code, n=_n: _repair_batch_case(
            c, {i: _stack(1, batch=B - (i == 2))[:, 0] for i in range(n) if i != 1}
        ),
        "ragged-width": lambda c=_code, n=_n: _repair_batch_case(
            c, {i: _stack(1, L - 2)[:, 0] for i in range(n) if i != 1}
        ),
        "int16-stacks": lambda c=_code, n=_n: _repair_batch_case(
            c, {i: _stack(1, dtype=np.int16)[:, 0] for i in range(n) if i != 1}
        ),
    }
    for _name, _build in REPAIR_BATCH.items():
        CASES[f"repair_batch/{_code}/{_name}"] = _build
    STREAMED = {
        "ok": lambda c=_code: _streamed_case(c),
        "ok-parity-node": lambda c=_code, k=_k: _streamed_case(c, failed=k + 1),
        "ok-one-chunk": lambda c=_code: _streamed_case(c, chunk_size=1 << 20),
        "row-strided-stripe": lambda c=_code: _streamed_case(c, strided=True),
        "chunk-size-0": lambda c=_code: _streamed_case(c, chunk_size=0),
        "missing-helper": lambda c=_code, n=_n: _streamed_case(c, drop=(n - 1,)),
        "too-few-helpers": lambda c=_code, n=_n: _streamed_case(c, drop=range(n - R, n)),
        "failed-among-shards": lambda c=_code, n=_n: _streamed_case(
            c, {i: _bytes(1)[0] for i in range(n)}
        ),
        "empty-mapping": lambda c=_code: _streamed_case(c, {}),
    }
    for _name, _build in STREAMED.items():
        CASES[f"repair_streamed/{_code}/{_name}"] = _build


def _rs_to_msr_batch_case(data=None, parity=None):
    tr = FusionTransformer(K, R)
    good = tr.rs.encode_batch(_stack(K))
    tr.rs_to_msr_batch(good[:, :K], good[:, K:])  # warm
    data = good[:, :K].copy() if data is None else data
    parity = good[:, K:].copy() if parity is None else parity

    def run():
        return _results(tr.rs_to_msr_batch(data, parity))

    return run, lambda: _digest(data, parity)


RS_TO_MSR_BATCH = {
    "ok": lambda: _rs_to_msr_batch_case(),
    "ok-empty": lambda: _rs_to_msr_batch_case(_stack(K, batch=0), _stack(R, batch=0)),
    "not-3d": lambda: _rs_to_msr_batch_case(_bytes(K)),
    "wrong-k": lambda: _rs_to_msr_batch_case(_stack(K - 1)),
    "wrong-r": lambda: _rs_to_msr_batch_case(parity=_stack(R - 1)),
    "wrong-batch": lambda: _rs_to_msr_batch_case(parity=_stack(R, batch=B - 1)),
    "ragged-width": lambda: _rs_to_msr_batch_case(_stack(K, L - 2), _stack(R, L - 2)),
    "int16-data": lambda: _rs_to_msr_batch_case(_stack(K, dtype=np.int16)),
}
for _name, _build in RS_TO_MSR_BATCH.items():
    CASES[f"rs_to_msr_batch/{_name}"] = _build


def _msr_to_rs_batch_case(parities=None):
    tr = FusionTransformer(K, R)
    good = [_stack(R, seed=10 * g) for g in range(tr.q)]
    tr.msr_to_rs_batch(good)  # warm
    parities = good if parities is None else parities

    def run():
        return _results(tr.msr_to_rs_batch(parities))

    return run, lambda: _digest(*(p for p in parities if isinstance(p, np.ndarray)))


MSR_TO_RS_BATCH = {
    "ok": lambda: _msr_to_rs_batch_case(),
    "ok-empty": lambda: _msr_to_rs_batch_case([_stack(R, batch=0)] * 2),
    "short-parity-set": lambda: _msr_to_rs_batch_case([_stack(R)]),
    "not-3d": lambda: _msr_to_rs_batch_case([_bytes(R)] * 2),
    "wrong-r": lambda: _msr_to_rs_batch_case([_stack(R - 1)] * 2),
    "inconsistent-shapes": lambda: _msr_to_rs_batch_case([_stack(R), _stack(R, batch=B - 1)]),
    "ragged-width": lambda: _msr_to_rs_batch_case([_stack(R, L - 2)] * 2),
    "int16-parity": lambda: _msr_to_rs_batch_case([_stack(R, dtype=np.int16)] * 2),
}
for _name, _build in MSR_TO_RS_BATCH.items():
    CASES[f"msr_to_rs_batch/{_name}"] = _build


# -- ECFusion.write -------------------------------------------------------------


def _write_case(data, to_msr=False):
    store = ECFusion(K, R)
    store.write("s", _bytes(K, seed=7))
    if to_msr:
        store.recover("s", 0)  # the first recovery converts it to MSR

    def state():
        s = store._stripes["s"]
        return _digest(s.kind.value, s.data, *s.parity, store.selector.stats())

    def run():
        store.write("s", data)
        return [state()]

    return run, state


WRITE = {
    "ok": lambda: _write_case(_bytes(K)),
    "ok-msr": lambda: _write_case(_bytes(K), to_msr=True),
    "wrong-rows": lambda: _write_case(_bytes(K - 1)),
    "wrong-width": lambda: _write_case(_bytes(K, L - 2)),
    "int16": lambda: _write_case(_bytes(K, dtype=np.int16)),
    "int8": lambda: _write_case(_bytes(K, dtype=np.int8)),
    "read-only": lambda: _write_case(_read_only(_bytes(K))),
    "column-strided": lambda: _write_case(_column_strided(_bytes(K)), to_msr=True),
    "row-strided": lambda: _write_case(_row_strided(_bytes(K))),
    "list": lambda: _write_case(_bytes(K).tolist()),
}
for _name, _build in WRITE.items():
    CASES[f"write/{_name}"] = _build


def outcome(name):
    """``(exception type, message)`` or ``("ok", digest of the result)``; a
    refusal must leave everything the case touches as it was."""
    run, state = CASES[name]()
    before = state()
    try:
        result = run()
    except Exception as exc:  # the table records what was raised
        assert state() == before, f"{name}: a refusal wrote"
        return type(exc).__name__, str(exc)
    return "ok", _digest(*result)


#: recorded while every layer checked its arrays in Python
EXPECTED = {  # fmt: skip
    'apply_batch/int16-input': ('ok', 'd7dd2d94a1af8f5f'),
    'apply_batch/int8-out': ('ValueError', "out must be C-contiguous <class 'numpy.uint8'> of shape (3, 3, 72)"),
    'apply_batch/not-3d': ('ValueError', 'incompatible shapes: (3, 6) batch-applied to (6, 72)'),
    'apply_batch/ok': ('ok', 'd7dd2d94a1af8f5f'),
    'apply_batch/ok-empty': ('ok', '824bc8c35a35f2ba'),
    'apply_batch/ok-out': ('ok', 'd7dd2d94a1af8f5f'),
    'apply_batch/wrong-out-shape': ('ValueError', "out must be C-contiguous <class 'numpy.uint8'> of shape (3, 3, 72)"),
    'apply_batch/wrong-rows': ('ValueError', 'incompatible shapes: (3, 6) batch-applied to (3, 5, 72)'),
    'apply_into/column-strided-input': ('ok', 'b56494b20efb8a37'),
    'apply_into/column-strided-out': ('ValueError', "out must be a writeable <class 'numpy.uint8'> array of shape (3, 72) with contiguous rows"),
    'apply_into/int16-input': ('ok', '67ab840790787cc1'),
    'apply_into/int8-out': ('ValueError', "out must be a writeable <class 'numpy.uint8'> array of shape (3, 72) with contiguous rows"),
    'apply_into/list-input': ('ok', 'b56494b20efb8a37'),
    'apply_into/list-out': ('ValueError', "out must be a writeable <class 'numpy.uint8'> array of shape (3, 72) with contiguous rows"),
    'apply_into/ok': ('ok', 'b56494b20efb8a37'),
    'apply_into/ok-out-tail': ('ok', '2a4b39bfa2381c80'),
    'apply_into/ok-tail-accumulate': ('ok', '43bd35a413097f3f'),
    'apply_into/out-tail-read-only': ('ValueError', "out_tail must be a writeable <class 'numpy.uint8'> array of at most 3 rows of 72 columns with contiguous rows"),
    'apply_into/out-tail-wrong-rows': ('ValueError', "out must be a writeable <class 'numpy.uint8'> array of shape (0, 72) with contiguous rows"),
    'apply_into/read-only-out': ('ValueError', "out must be a writeable <class 'numpy.uint8'> array of shape (3, 72) with contiguous rows"),
    'apply_into/row-strided-input': ('ok', 'b56494b20efb8a37'),
    'apply_into/short-tail': ('ValueError', 'incompatible shapes: (3, 6) applied to (5, 72)'),
    'apply_into/tail-wrong-width': ('ValueError', 'tail rows (3, 64) do not continue blocks (3, 72)'),
    'apply_into/wrong-out-rows': ('ValueError', "out must be a writeable <class 'numpy.uint8'> array of shape (3, 72) with contiguous rows"),
    'apply_into/wrong-rows': ('ValueError', 'incompatible shapes: (3, 6) applied to (5, 72)'),
    'apply_into/wrong-width': ('ValueError', "out must be a writeable <class 'numpy.uint8'> array of shape (3, 72) with contiguous rows"),
    'convert/msr-rs/column-strided-parity': ('ok', '46af8b1e19b00b09'),
    'convert/msr-rs/int16-parity': ('ValueError', 'msr parity dtype int16 is wider than GF(2^8) symbols'),
    'convert/msr-rs/int8-parity': ('ok', '46af8b1e19b00b09'),
    'convert/msr-rs/list-parity': ('AttributeError', "'list' object has no attribute 'shape'"),
    'convert/msr-rs/ok': ('ok', '2ddc1e1e7704272a'),
    'convert/msr-rs/row-strided-parity': ('ok', '46af8b1e19b00b09'),
    'convert/msr-rs/short-parity-set': ('ValueError', 'a msr->rs stripe is (6, L) data and 2 (3, L) parity arrays, L a multiple of 9; got (6, 72) and [(3, 72)]'),
    'convert/msr-rs/wrong-parity-rows': ('ValueError', 'a msr->rs stripe is (6, L) data and 2 (3, L) parity arrays, L a multiple of 9; got (6, 72) and [(3, 72), (2, 72)]'),
    'convert/rs-msr/column-strided-data': ('ok', '9fe1cb8518257921'),
    'convert/rs-msr/int16-data': ('ValueError', 'data dtype int16 is wider than GF(2^8) symbols'),
    'convert/rs-msr/int16-parity': ('ValueError', 'rs_parity dtype int16 is wider than GF(2^8) symbols'),
    'convert/rs-msr/int8-data': ('ok', '9fe1cb8518257921'),
    'convert/rs-msr/list-data': ('AttributeError', "'list' object has no attribute 'shape'"),
    'convert/rs-msr/ok': ('ok', '9fe1cb8518257921'),
    'convert/rs-msr/ragged-width': ('ValueError', 'a rs->msr stripe is (6, L) data and 1 (3, L) parity arrays, L a multiple of 9; got (6, 70) and [(3, 70)]'),
    'convert/rs-msr/read-only-data': ('ok', '9fe1cb8518257921'),
    'convert/rs-msr/row-strided-data': ('ok', '9fe1cb8518257921'),
    'convert/rs-msr/wrong-rows': ('ValueError', 'a rs->msr stripe is (6, L) data and 1 (3, L) parity arrays, L a multiple of 9; got (5, 72) and [(3, 72)]'),
    'convert/rs-msr/wrong-width': ('ValueError', 'a rs->msr stripe is (6, L) data and 1 (3, L) parity arrays, L a multiple of 9; got (6, 72) and [(3, 63)]'),
    'encode/msr/column-strided-input': ('ok', '2d55c580c23cd4fd'),
    'encode/msr/int16-input': ('ValueError', 'data dtype int16 is wider than GF(2^8) symbols'),
    'encode/msr/int8-out': ('ValueError', 'out must be a C-contiguous uint8 array of shape (6, 72) or (3, 72)'),
    'encode/msr/list-input': ('ValueError', 'data dtype int64 is wider than GF(2^8) symbols'),
    'encode/msr/ok': ('ok', '2d55c580c23cd4fd'),
    'encode/msr/ok-stripe': ('ok', 'd4211b32284cbce8'),
    'encode/msr/ragged-width': ('ValueError', 'block length 70 not a multiple of sub-packetization 9'),
    'encode/msr/read-only-out': ('ValueError', "out must be a writeable <class 'numpy.uint8'> array of shape (27, 8) with contiguous rows"),
    'encode/msr/row-strided-out': ('ValueError', 'out must be a C-contiguous uint8 array of shape (6, 72) or (3, 72)'),
    'encode/msr/short-parity-out': ('ValueError', 'out must be a C-contiguous uint8 array of shape (6, 72) or (3, 72)'),
    'encode/msr/shortened-rows': ('ok', '376e2c256baa6202'),
    'encode/msr/stripe-read-only-data-rows': ('ValueError', 'stripe rows must be writeable C-contiguous 2-D uint8 arrays'),
    'encode/msr/stripe-short-data-rows': ('ValueError', "the stripe's data rows (2, 72) do not match data (3, 72)"),
    'encode/msr/wrong-rows': ('ValueError', 'data must have shape (k=3, L), got (4, 72)'),
    'encode/msr/wrong-width': ('ValueError', 'out must be a C-contiguous uint8 array of shape (6, 72) or (3, 72)'),
    'encode/rs/column-strided-input': ('ok', 'b56494b20efb8a37'),
    'encode/rs/int16-input': ('ValueError', 'data dtype int16 is wider than GF(2^8) symbols'),
    'encode/rs/int8-out': ('ValueError', 'out must be a C-contiguous uint8 array of shape (9, 72) or (3, 72)'),
    'encode/rs/list-input': ('ValueError', 'data dtype int64 is wider than GF(2^8) symbols'),
    'encode/rs/ok': ('ok', 'b56494b20efb8a37'),
    'encode/rs/ok-stripe': ('ok', 'feab59214415be90'),
    'encode/rs/ragged-width': ('ok', '84ff063088f8fbea'),
    'encode/rs/read-only-out': ('ValueError', "out must be a writeable <class 'numpy.uint8'> array of shape (3, 72) with contiguous rows"),
    'encode/rs/row-strided-out': ('ValueError', 'out must be a C-contiguous uint8 array of shape (9, 72) or (3, 72)'),
    'encode/rs/short-parity-out': ('ValueError', 'out must be a C-contiguous uint8 array of shape (9, 72) or (3, 72)'),
    'encode/rs/shortened-rows': ('ok', '32e9281b5dc2f5c5'),
    'encode/rs/stripe-read-only-data-rows': ('ValueError', 'stripe rows must be writeable C-contiguous 2-D uint8 arrays'),
    'encode/rs/stripe-short-data-rows': ('ValueError', "the stripe's data rows (5, 72) do not match data (6, 72)"),
    'encode/rs/wrong-rows': ('ValueError', 'data must have shape (k=6, L), got (7, 72)'),
    'encode/rs/wrong-width': ('ValueError', 'out must be a C-contiguous uint8 array of shape (9, 72) or (3, 72)'),
    'encode_batch/msr/int16-input': ('ValueError', 'data dtype int16 is wider than GF(2^8) symbols'),
    'encode_batch/msr/not-3d': ('ValueError', 'stripes must have shape (batch, k=3, L), got (3, 72)'),
    'encode_batch/msr/ok': ('ok', '7d46ff1ca27cc276'),
    'encode_batch/msr/ok-empty': ('ok', '0206acfe6756a28e'),
    'encode_batch/msr/ragged-width': ('ValueError', 'block length 70 not a multiple of sub-packetization 9'),
    'encode_batch/msr/wrong-rows': ('ValueError', 'stripes must have shape (batch, k=3, L), got (3, 4, 72)'),
    'encode_batch/rs/int16-input': ('ValueError', 'data dtype int16 is wider than GF(2^8) symbols'),
    'encode_batch/rs/not-3d': ('ValueError', 'stripes must have shape (batch, k=6, L), got (6, 72)'),
    'encode_batch/rs/ok': ('ok', 'f7154771e2e4b727'),
    'encode_batch/rs/ok-empty': ('ok', '0fca86793ae86d75'),
    'encode_batch/rs/ragged-width': ('ok', 'd0afd93d636d2d31'),
    'encode_batch/rs/wrong-rows': ('ValueError', 'stripes must have shape (batch, k=6, L), got (3, 7, 72)'),
    'msr_to_rs/column-strided-parity': ('ok', '4143a94ed84de46f'),
    'msr_to_rs/int16-data': ('ValueError', 'data dtype int16 is wider than GF(2^8) symbols'),
    'msr_to_rs/int16-parity': ('ValueError', 'msr parity dtype int16 is wider than GF(2^8) symbols'),
    'msr_to_rs/int8-parity': ('ok', '4143a94ed84de46f'),
    'msr_to_rs/list-parity': ('ValueError', 'msr parity dtype int64 is wider than GF(2^8) symbols'),
    'msr_to_rs/ok': ('ok', '38c063765f643500'),
    'msr_to_rs/ok-with-data': ('ok', '38c063765f643500'),
    'msr_to_rs/ragged-width': ('ValueError', 'block length 70 not a multiple of MSR sub-packetization 9'),
    'msr_to_rs/short-parity-set': ('ValueError', 'expected 2 parity groups, got 1'),
    'msr_to_rs/wrong-data-rows': ('ValueError', 'data must be (6, 72), got (5, 72)'),
    'msr_to_rs/wrong-rows': ('ValueError', 'group 1 parity must be (3, 72)'),
    'msr_to_rs/wrong-width': ('ValueError', 'group 1 parity must be (3, 72)'),
    'msr_to_rs_batch/inconsistent-shapes': ('ValueError', 'parity groups must share one (batch, 3, L) shape, got [(2, 3, 72), (3, 3, 72)]'),
    'msr_to_rs_batch/int16-parity': ('ValueError', 'msr parity dtype int16 is wider than GF(2^8) symbols'),
    'msr_to_rs_batch/not-3d': ('ValueError', 'parity groups must share one (batch, 3, L) shape, got [(3, 72)]'),
    'msr_to_rs_batch/ok': ('ok', '776d09ead79a7013'),
    'msr_to_rs_batch/ok-empty': ('ok', 'e3b0c44298fc1c14'),
    'msr_to_rs_batch/ragged-width': ('ValueError', 'block length 70 not a multiple of MSR sub-packetization 9'),
    'msr_to_rs_batch/short-parity-set': ('ValueError', 'expected 2 parity groups, got 1'),
    'msr_to_rs_batch/wrong-r': ('ValueError', 'parity groups must share one (batch, 3, L) shape, got [(3, 2, 72)]'),
    'repair/msr/column-strided-stripe': ('ValueError', 'stripe rows must be writeable C-contiguous 2-D uint8 arrays'),
    'repair/msr/int16-stripe': ('ValueError', 'stripe rows must be writeable C-contiguous 2-D uint8 arrays'),
    'repair/msr/int8-stripe': ('ValueError', 'stripe rows must be writeable C-contiguous 2-D uint8 arrays'),
    'repair/msr/list-stripe': ('ValueError', 'stripe rows must be writeable C-contiguous 2-D uint8 arrays'),
    'repair/msr/not-a-pair': ('ValueError', 'shards must map node -> block or be a (data, parity) pair'),
    'repair/msr/ok': ('ok', 'a2d05c0b8861ba97'),
    'repair/msr/ok-parity-node': ('ok', '2f67b10f396811b4'),
    'repair/msr/read-only-stripe': ('ValueError', 'stripe rows must be writeable C-contiguous 2-D uint8 arrays'),
    'repair/msr/row-strided-stripe': ('ValueError', 'stripe rows must be writeable C-contiguous 2-D uint8 arrays'),
    'repair/msr/short-rows': ('ok', '4c4a569cd78d38ce'),
    'repair/msr/wrong-parity-rows': ('ValueError', 'parity must have shape (3, 72), got (2, 72)'),
    'repair/msr/wrong-rows': ('ValueError', 'data must have shape (k=3, L), got (4, 72)'),
    'repair/msr/wrong-width': ('ValueError', 'parity must have shape (3, 72), got (3, 63)'),
    'repair/rs/column-strided-stripe': ('ValueError', 'stripe rows must be writeable C-contiguous 2-D uint8 arrays'),
    'repair/rs/int16-stripe': ('ValueError', 'stripe rows must be writeable C-contiguous 2-D uint8 arrays'),
    'repair/rs/int8-stripe': ('ValueError', 'stripe rows must be writeable C-contiguous 2-D uint8 arrays'),
    'repair/rs/list-stripe': ('ValueError', 'stripe rows must be writeable C-contiguous 2-D uint8 arrays'),
    'repair/rs/not-a-pair': ('ValueError', 'shards must map node -> block or be a (data, parity) pair'),
    'repair/rs/ok': ('ok', 'e8310b682ee64f9f'),
    'repair/rs/ok-parity-node': ('ok', 'e42d8bb2e88324b0'),
    'repair/rs/read-only-stripe': ('ValueError', 'stripe rows must be writeable C-contiguous 2-D uint8 arrays'),
    'repair/rs/row-strided-stripe': ('ValueError', 'stripe rows must be writeable C-contiguous 2-D uint8 arrays'),
    'repair/rs/short-rows': ('ValueError', 'data must have shape (k=6, L), got (5, 72)'),
    'repair/rs/wrong-parity-rows': ('ValueError', 'parity must have shape (3, 72), got (2, 72)'),
    'repair/rs/wrong-rows': ('ValueError', 'data must have shape (k=6, L), got (7, 72)'),
    'repair/rs/wrong-width': ('ValueError', 'parity must have shape (3, 72), got (3, 63)'),
    'repair_batch/msr/empty-mapping': ('UnrecoverableError', 'no shards supplied'),
    'repair_batch/msr/failed-among-shards': ('ValueError', 'node 1 is present in the supplied shards'),
    'repair_batch/msr/failed-out-of-range': ('ValueError', 'failed node 6 out of range for n=6'),
    'repair_batch/msr/inconsistent-stacks': ('ValueError', 'inconsistent shard shapes: {(2, 72), (3, 72)}'),
    'repair_batch/msr/int16-stacks': ('ValueError', 'shard dtype int16 is wider than GF(2^8) symbols'),
    'repair_batch/msr/missing-helper': ('ok', '77389247a68db6e2'),
    'repair_batch/msr/not-2d-stacks': ('ValueError', 'batched shards must be (batch, L) stacks, got (72,)'),
    'repair_batch/msr/ok': ('ok', 'b17774cccb60f7db'),
    'repair_batch/msr/ok-parity-node': ('ok', '5d1aa8c54106cee0'),
    'repair_batch/msr/ragged-width': ('ValueError', 'block length 70 not a multiple of l=9'),
    'repair_batch/msr/shard-out-of-range': ('ValueError', 'shard index 6 out of range for n=6'),
    'repair_batch/msr/too-few-helpers': ('UnrecoverableError', 'MSR(6,3,3,9): erasure pattern with survivors [0, 2] is undecodable (rank 18 < 27)'),
    'repair_batch/rs/empty-mapping': ('UnrecoverableError', 'no shards supplied'),
    'repair_batch/rs/failed-among-shards': ('ValueError', 'node 1 is present in the supplied shards'),
    'repair_batch/rs/failed-out-of-range': ('ValueError', 'failed node 9 out of range for n=9'),
    'repair_batch/rs/inconsistent-stacks': ('ValueError', 'inconsistent shard shapes: {(2, 72), (3, 72)}'),
    'repair_batch/rs/int16-stacks': ('ValueError', 'shard dtype int16 is wider than GF(2^8) symbols'),
    'repair_batch/rs/missing-helper': ('ok', '0e7e28973da89e7c'),
    'repair_batch/rs/not-2d-stacks': ('ValueError', 'batched shards must be (batch, L) stacks, got (72,)'),
    'repair_batch/rs/ok': ('ok', '0e7e28973da89e7c'),
    'repair_batch/rs/ok-parity-node': ('ok', '84e0a9b43511536f'),
    'repair_batch/rs/ragged-width': ('ok', 'eb4e80ae7d91e1cd'),
    'repair_batch/rs/shard-out-of-range': ('ValueError', 'shard index 9 out of range for n=9'),
    'repair_batch/rs/too-few-helpers': ('UnrecoverableError', 'RS(6,3): 5 survivors cannot rebuild a block, need k=6'),
    'repair_streamed/msr/chunk-size-0': ('ValueError', 'chunk_size must be positive'),
    'repair_streamed/msr/empty-mapping': ('UnrecoverableError', 'no shards supplied'),
    'repair_streamed/msr/failed-among-shards': ('ValueError', 'node 1 is present in the supplied shards'),
    'repair_streamed/msr/missing-helper': ('ValueError', 'streamed repair needs all n-1 helpers, got [0, 2, 3, 4]'),
    'repair_streamed/msr/ok': ('ok', '9ca8f33a27103928'),
    'repair_streamed/msr/ok-one-chunk': ('ok', '9ca8f33a27103928'),
    'repair_streamed/msr/ok-parity-node': ('ok', '9af2a5fc62c9d475'),
    'repair_streamed/msr/row-strided-stripe': ('ok', '9ca8f33a27103928'),
    'repair_streamed/msr/too-few-helpers': ('ValueError', 'streamed repair needs all n-1 helpers, got [0, 2]'),
    'repair_streamed/rs/chunk-size-0': ('ValueError', 'chunk_size must be positive'),
    'repair_streamed/rs/empty-mapping': ('UnrecoverableError', 'no shards supplied'),
    'repair_streamed/rs/failed-among-shards': ('ValueError', 'node 1 is present in the supplied shards'),
    'repair_streamed/rs/missing-helper': ('ok', 'ed3172da5d366fef'),
    'repair_streamed/rs/ok': ('ok', 'ed3172da5d366fef'),
    'repair_streamed/rs/ok-one-chunk': ('ok', 'ed3172da5d366fef'),
    'repair_streamed/rs/ok-parity-node': ('ok', 'a209e1006e1e8945'),
    'repair_streamed/rs/row-strided-stripe': ('ok', 'ed3172da5d366fef'),
    'repair_streamed/rs/too-few-helpers': ('ValueError', 'need exactly k=6 distinct helpers'),
    'rs_to_msr/3-data-rows': ('ValueError', 'expected (6, L) data blocks, got (3, 72)'),
    'rs_to_msr/4-data-rows': ('ValueError', 'expected (6, L) data blocks, got (4, 72)'),
    'rs_to_msr/5-data-rows': ('ValueError', 'expected (6, L) data blocks, got (5, 72)'),
    'rs_to_msr/9-data-rows': ('ValueError', 'expected (6, L) data blocks, got (9, 72)'),
    'rs_to_msr/column-strided-data': ('ok', '774fcc864d1cc207'),
    'rs_to_msr/extra-data-row': ('ValueError', 'expected (6, L) data blocks, got (7, 72)'),
    'rs_to_msr/int16-data': ('ValueError', 'data dtype int16 is wider than GF(2^8) symbols'),
    'rs_to_msr/int8-parity': ('ok', '77dc38b66d6b4e97'),
    'rs_to_msr/list-data': ('ValueError', 'data dtype int64 is wider than GF(2^8) symbols'),
    'rs_to_msr/ok': ('ok', '774fcc864d1cc207'),
    'rs_to_msr/parity-narrower': ('ValueError', 'rs_parity must be (3, 72), got (3, 63)'),
    'rs_to_msr/ragged-width': ('ValueError', 'block length 70 not a multiple of MSR sub-packetization 9'),
    'rs_to_msr/row-strided-parity': ('ok', '77dc38b66d6b4e97'),
    'rs_to_msr/wrong-parity-rows': ('ValueError', 'rs_parity must be (3, 72), got (2, 72)'),
    'rs_to_msr/wrong-width': ('ValueError', 'rs_parity must be (3, 63), got (3, 72)'),
    'rs_to_msr_batch/int16-data': ('ValueError', 'data dtype int16 is wider than GF(2^8) symbols'),
    'rs_to_msr_batch/not-3d': ('ValueError', 'data must be (batch, 6, L) stacks, got (6, 72)'),
    'rs_to_msr_batch/ok': ('ok', 'e2499cf6910654c5'),
    'rs_to_msr_batch/ok-empty': ('ok', 'e3b0c44298fc1c14'),
    'rs_to_msr_batch/ragged-width': ('ValueError', 'block length 70 not a multiple of MSR sub-packetization 9'),
    'rs_to_msr_batch/wrong-batch': ('ValueError', 'rs_parity must be (3, 3, 72), got (2, 3, 72)'),
    'rs_to_msr_batch/wrong-k': ('ValueError', 'data must be (batch, 6, L) stacks, got (3, 5, 72)'),
    'rs_to_msr_batch/wrong-r': ('ValueError', 'rs_parity must be (3, 3, 72), got (3, 2, 72)'),
    'write/column-strided': ('ok', '8cdb16839b1bc53c'),
    'write/int16': ('ValueError', 'data dtype int16 is wider than GF(2^8) symbols'),
    'write/int8': ('ok', 'd0e6e8cf1ab4df57'),
    'write/list': ('ValueError', 'data dtype int64 is wider than GF(2^8) symbols'),
    'write/ok': ('ok', 'd0e6e8cf1ab4df57'),
    'write/ok-msr': ('ok', '8cdb16839b1bc53c'),
    'write/read-only': ('ok', 'd0e6e8cf1ab4df57'),
    'write/row-strided': ('ok', 'd0e6e8cf1ab4df57'),
    'write/wrong-rows': ('ValueError', 'expected (6, L) data blocks, got (5, 72)'),
    'write/wrong-width': ('ValueError', 'block length must be a multiple of 9'),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_an_entry_refuses_or_converts_as_recorded(name):
    assert outcome(name) == EXPECTED[name]


def test_the_table_covers_every_entry():
    entries = {name.split("/")[0] for name in CASES}
    assert entries == {
        "apply_into", "encode", "repair", "convert", "rs_to_msr", "msr_to_rs", "write",
        "apply_batch", "encode_batch", "repair_batch", "rs_to_msr_batch", "msr_to_rs_batch",
        "repair_streamed",
    }  # fmt: skip
    assert set(EXPECTED) == set(CASES)


@pytest.mark.parametrize("name", sorted(n for n in CASES if n.startswith("repair/")))
def test_streamed_stripe_form_ends_as_repair_does(name, monkeypatch):
    """``repair_streamed`` takes the stored ``(data, parity)`` stripe that
    ``repair`` takes: fed every ``repair/`` case instead of ``repair``, it
    refuses with the same exception and message, writes nothing when it
    does, and rebuilds the same bytes, reading the same helpers, when it
    does not."""
    for cls in (ReedSolomonCode, MSRCode):
        monkeypatch.setattr(
            cls, "repair", lambda self, failed, stripe: self.repair_streamed(failed, stripe, 16)
        )
    assert outcome(name) == EXPECTED[name]
