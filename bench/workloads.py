"""The six workloads, each entering through a public façade only.

A workload object has four steps, called in this order by ``worker.py``:

``prepare``  build the inputs from the seed (harness time, not set-up);
``warm``     program set-up: construct, load the native kernel, compile
             the plans, run every operation once (counted in ``setup_s``);
``run``      the timed region; returns raw outcomes and wall timestamps;
``report``   verify the outcomes and turn them into metrics.

Host time is ``time.perf_counter`` wall time of this process, nothing else.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
import time

import numpy as np

import spec

clock = time.perf_counter


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(np.ascontiguousarray(part).tobytes())
        elif isinstance(part, (list, tuple)) and part and isinstance(part[0], float):
            h.update(struct.pack(f"<{len(part)}d", *part))
        else:
            h.update(json.dumps(part, sort_keys=True, default=str).encode())
    return h.hexdigest()


def _percentile_ms(samples: list[float], q: float, floor: int):
    """Nearest-rank percentile in ms, or None below the sample floor."""
    from repro.telemetry import nearest_rank

    if len(samples) < floor:
        return None
    return 1000.0 * nearest_rank(sorted(samples), q)


def _mean(xs):
    return sum(xs) / len(xs) if xs else None


# ---------------------------------------------------------------------------
# bytes_large / bytes_small — repro.fusion.ECFusion with real payloads
# ---------------------------------------------------------------------------


def failure_stream(rng, stripes: int, k: int, count: int) -> np.ndarray:
    """``(count, 2)`` lost (stripe, data block) pairs with stripe locality.

    Half of the failures land within a few stripes of the previous one
    (the clustered-failure model of the paper's §IV-A.2), the rest are
    uniform — so hot stripes are hit repeatedly (MSR repairs) while the
    uniform half keeps new stripes converting.
    """
    uniform = rng.integers(0, stripes, count)
    local = rng.random(count) < 0.5
    step = rng.geometric(0.4, count) * rng.choice((-1, 1), count)
    out = np.empty(count, dtype=np.int64)
    prev = int(uniform[0])
    for i in range(count):
        prev = (prev + int(step[i])) % stripes if local[i] else int(uniform[i])
        out[i] = prev
    return np.stack([out, rng.integers(0, k, count)], axis=1)


class BytesWorkload:
    """Ingest, recover from a failure stream, re-write; verify every byte."""

    def __init__(self, name, params, seed, chaos_seed, corrupt=False):
        self.p = params
        self.seed = seed
        self.corrupt = corrupt

    def prepare(self):
        p = self.p
        rng = np.random.default_rng(self.seed)
        self.sources = rng.integers(
            0, 256, (p["source_pool"], p["k"], p["block"]), dtype=np.uint8
        )
        self.failures = failure_stream(rng, p["stripes"], p["k"], p["recovers"])

    def _source(self, stripe: int) -> np.ndarray:
        return self.sources[stripe % len(self.sources)]

    def warm(self):
        from repro.fusion import ECFusion

        self.ECFusion = ECFusion
        store = ECFusion(k=self.p["k"], r=self.p["r"])
        store.write("warm", self.sources[0])
        store.recover("warm", 0)  # RS->MSR conversion, then an MSR repair
        store.recover("warm", 1)
        store.read_stripe("warm")
        store.delete("warm")

    def run(self):
        p = self.p
        k = p["k"]
        store = self.ECFusion(k=k, r=p["r"])
        writes, recovers = [], []  # (start, end) wall pairs
        mismatches = 0
        codes = []
        bytes_read = 0

        def write_pass():
            nonlocal mismatches
            for s in range(p["stripes"]):
                src = self._source(s)
                t0 = clock()
                store.write(s, src)
                writes.append((t0, clock()))
                mismatches += not np.array_equal(store.read_stripe(s), src)

        write_pass()
        for i, (s, b) in enumerate(self.failures.tolist()):
            t0 = clock()
            rep = store.recover(s, b)
            recovers.append((t0, clock()))
            got = store.read_stripe(s)[b]
            if self.corrupt and i == 2:
                got = got.copy()
                got[0] ^= 0xFF
            mismatches += not np.array_equal(got, self._source(s)[b])
            codes.append(rep.code.value)
            bytes_read += rep.bytes_read
        for _ in range(p["write_passes"] - 1):
            write_pass()
        for s in range(p["stripes"]):
            mismatches += not np.array_equal(store.read_stripe(s), self._source(s))
        return dict(
            writes=np.array(writes), recovers=np.array(recovers), mismatches=mismatches,
            codes=codes, bytes_read=bytes_read, stats=store.stats(),
        )

    def report(self, out):
        p = self.p
        w, r = out["writes"], out["recovers"]
        write_s = float((w[:, 1] - w[:, 0]).sum())
        recover_s = float((r[:, 1] - r[:, 0]).sum())
        stripe_bytes = p["k"] * p["block"]
        rebuilt = len(r) * p["block"]
        attempted = len(w) + len(r)
        stats = out["stats"]
        metrics = {
            "host_write_MBps": len(w) * stripe_bytes / 1e6 / write_s,
            "host_repair_MBps": rebuilt / 1e6 / recover_s,
            "storage_overhead": stats["storage_overhead"],
            "repair_read_amp": out["bytes_read"] / rebuilt,
        }
        layer = {
            "fusion.transform.committed": stats["conversions"],
            "fusion.transform.aborted": 0,
        }
        return dict(
            attempted=attempted, failed=int(out["mismatches"]), refused=0,
            completed=attempted - int(out["mismatches"]),
            timed_s=write_s + recover_s, first=float(out["writes"][0, 0]),
            last=float(max(out["writes"][-1, 1], out["recovers"][-1, 1])),
            metrics=metrics, layer=layer, checks=[],
            digest=_digest(out["codes"], out["bytes_read"], stats),
        )


# ---------------------------------------------------------------------------
# serve_* — repro.server.run_serving
# ---------------------------------------------------------------------------


class ServeWorkload:
    """One or more ``run_serving`` calls (a fixed-rate ladder for steady)."""

    def __init__(self, name, params, seed, chaos_seed, corrupt=False):
        self.name = name
        self.p = params
        self.seed = seed
        self.chaos_seed = chaos_seed
        self.floor = params["min_samples"]

    def prepare(self):
        self.rates = self.p.get("rates") or [self.p["rate"]]

    def _call(self, rate, duration):
        from repro.chaos import ChaosConfig
        from repro.server import ServerConfig, WorkloadSpec, run_serving

        p = self.p
        wl = WorkloadSpec(
            target_ops=rate, duration=duration, read_fraction=p["read_fraction"],
            distribution=p["distribution"], zipf_theta=0.99,
            num_objects=p["num_objects"], seed=self.seed,
        )
        config = ServerConfig(failure_rate=p.get("failure_rate", 0.0))
        chaos = None
        if p.get("chaos_profile"):
            chaos = ChaosConfig(p["chaos_profile"], seed=self.chaos_seed)
        return run_serving(wl, config, chaos)

    def warm(self):
        self._call(self.rates[0], min(1.0, self.p["duration"]))

    def run(self):
        results, spans = [], []
        for rate in self.rates:
            t0 = clock()
            results.append(self._call(rate, self.p["duration"]))
            spans.append((t0, clock()))
        return dict(results=results, spans=np.array(spans))

    def _passes_slo(self, res) -> bool:
        gets = res.get_latencies
        whole = _percentile_ms(gets, 0.99, self.floor)
        # completion order stands in for time order: the last third of the
        # completed gets must meet the limit too (no growing backlog)
        tail = _percentile_ms(gets[-(len(gets) // 3):], 0.99, self.floor)
        return (
            res.failed == 0
            and whole is not None and whole <= spec.SLO_GET_P99_MS
            and tail is not None and tail <= spec.SLO_GET_P99_MS
        )

    def report(self, out):
        results = out["results"]
        spans = out["spans"]
        timed_s = float((spans[:, 1] - spans[:, 0]).sum())
        offered = sum(r.offered for r in results)
        completed = sum(r.completed for r in results)
        refused = sum(r.failed for r in results)
        checks = []
        for rate, r in zip(self.rates, results):
            tag = f"{self.name}@{rate}"
            if r.completed + r.failed != r.offered:
                checks.append(f"{tag}: {r.offered} offered but {r.completed}+{r.failed} ended")
            if len(r.get_latencies) + len(r.put_latencies) != r.completed:
                checks.append(f"{tag}: latency samples do not match completed requests")
            lat = r.get_latencies + r.put_latencies + r.repair_latencies
            if any(not (x >= 0.0 and math.isfinite(x)) for x in lat):
                checks.append(f"{tag}: negative or non-finite latency")
            if r.stats["gets"] + r.stats["puts"] != r.completed:
                checks.append(f"{tag}: store counted {r.stats['gets']}+{r.stats['puts']} ops")
            if r.stats["repairs"] != len(r.repair_latencies):
                checks.append(f"{tag}: repairs and repair latencies disagree")
            if (r.chaos is None) != (not self.p.get("chaos_profile")):
                checks.append(f"{tag}: chaos summary presence is wrong")
            if not self.p.get("chaos_profile") and r.failed:
                checks.append(f"{tag}: {r.failed} requests refused without chaos")

        # the rung whose latencies are reported (the only call off the ladder)
        shown = results[self.rates.index(spec.LADDER_REPORT_RUNG)] if len(results) > 1 else results[0]
        repairs = [x for r in results for x in r.repair_latencies]
        metrics = {
            "sim_get_p50_ms": _percentile_ms(shown.get_latencies, 0.50, self.floor),
            "sim_get_p99_ms": _percentile_ms(shown.get_latencies, 0.99, self.floor),
            "sim_put_p99_ms": _percentile_ms(shown.put_latencies, 0.99, self.floor),
            "sim_degraded_p99_ms": _percentile_ms(shown.degraded_latencies, 0.99, self.floor),
            "sim_repair_mean_s": _mean(repairs),
        }
        layer = {
            "sim_get_samples": len(shown.get_latencies),
            "sim_degraded_samples": len(shown.degraded_latencies),
        }
        if len(results) > 1:
            passing = 0
            for rate, r in zip(self.rates, results):
                if not self._passes_slo(r):
                    break
                passing = rate
            metrics["sim_ops_at_slo"] = passing
            for rate, r in zip(self.rates, results):
                layer[f"server.ladder.get_p99_ms.r{rate}"] = _percentile_ms(
                    r.get_latencies, 0.99, self.floor
                )
        for key in ("gets", "puts", "degraded_reads", "piggybacked_reads", "repairs", "chunk_failures"):
            layer[f"server.{key}"] = sum(r.stats[key] for r in results)
        chaos = shown.chaos or {}
        conv = chaos.get("conversions", {})
        layer.update({
            "chaos.faults_applied": sum(chaos.get("applied", {}).values()),
            "chaos.partition_timeouts": chaos.get("partition_timeouts", 0),
            "chaos.repair_retries": chaos.get("repair_retries", 0),
            "chaos.repair_failures": sum(len(r.unrecoverable) for r in results),
            "chaos.requests_failed": refused,
            "cluster.recovery.piggybacked": layer["server.piggybacked_reads"],
        })
        if chaos:
            layer["fusion.transform.committed"] = conv.get("committed", 0)
            layer["fusion.transform.aborted"] = conv.get("aborted", 0)
        return dict(
            attempted=offered, failed=0, refused=refused, completed=completed,
            timed_s=timed_s, first=float(out["spans"][0, 0]), last=float(out["spans"][-1, 1]),
            metrics=metrics, layer=layer, checks=checks,
            digest=_digest(*[
                part for r in results
                for part in (r.get_latencies, r.put_latencies, r.degraded_latencies,
                             r.repair_latencies, r.stats, r.failed, r.chaos)
            ]),
        )


# ---------------------------------------------------------------------------
# campaign_fig17 — repro.experiments.run_campaign
# ---------------------------------------------------------------------------


class CampaignWorkload:
    """The Figs. 16-19 campaign: every scheme x every Table-V trace."""

    def __init__(self, name, params, seed, chaos_seed, corrupt=False):
        self.p = params
        self.seed = seed

    def prepare(self):
        pass

    def _campaign(self, num_requests, jobs=1):
        from repro.experiments import ExperimentConfig, run_campaign

        config = ExperimentConfig(num_requests=num_requests, seed=self.seed)
        return run_campaign(config, use_cache=False, jobs=jobs)

    def warm(self):
        self._campaign(30)

    def run(self, jobs=1):
        t0 = clock()
        campaign = self._campaign(self.p["num_requests"], jobs=jobs)
        return dict(campaign=campaign, spans=np.array([(t0, clock())]))

    def report(self, out):
        campaign = out["campaign"]
        spans = out["spans"]
        n = self.p["num_requests"]
        checks = []
        refused = 0
        served = 0
        for (scheme, trace), r in campaign.results.items():
            tag = f"{scheme}/{trace}"
            done = len(r.read_latencies) + len(r.write_latencies)
            served += done
            refused += r.failed_requests
            if done + r.failed_requests != n:
                checks.append(f"{tag}: {n} requests replayed but {done}+{r.failed_requests} ended")
            if not r.recovery_latencies or r.unrecoverable:
                checks.append(f"{tag}: repairs missing or given up")
            lat = r.read_latencies + r.write_latencies + r.recovery_latencies
            if any(not (x > 0.0 and math.isfinite(x)) for x in lat):
                checks.append(f"{tag}: non-positive or non-finite latency")
            if r.failed_requests:
                checks.append(f"{tag}: {r.failed_requests} requests refused without chaos")
        fusion = [r for (scheme, _), r in campaign.results.items() if scheme == "EC-Fusion"]
        repairs = [x for r in fusion for x in r.recovery_latencies]
        metrics = {
            "sim_app_mean_ms": 1000.0 * _mean([r.epsilon1 for r in fusion]),
            "sim_repair_mean_s": _mean(repairs),
            "storage_overhead": _mean([r.storage_overhead for r in fusion]),
        }
        layer = {
            "cluster.recovery.piggybacked": sum(r.piggybacked_reads for r in campaign.results.values()),
            "fusion.transform.committed": sum(len(r.conversion_latencies) for r in fusion),
            "fusion.transform.aborted": 0,
        }
        return dict(
            attempted=n * len(campaign.results), failed=0, refused=refused, completed=served,
            timed_s=float(spans[0, 1] - spans[0, 0]), first=float(out["spans"][0, 0]),
            last=float(out["spans"][0, 1]), metrics=metrics, layer=layer, checks=checks,
            digest=_digest(*[
                part for key in sorted(campaign.results)
                for r in [campaign.results[key]]
                for part in (key, r.read_latencies, r.write_latencies,
                             r.recovery_latencies, r.storage_overhead, r.sim_time)
            ]),
        )


CLASSES = {
    "bytes_large": BytesWorkload, "bytes_small": BytesWorkload,
    "serve_steady": ServeWorkload, "serve_degraded": ServeWorkload,
    "serve_storm": ServeWorkload, "campaign_fig17": CampaignWorkload,
}
