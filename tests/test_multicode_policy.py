"""Multi-code policy engine: cost model regions, selector, planner, tournament.

Four layers under one roof because they share the same fixtures:

* :class:`repro.fusion.costmodel.CostModel`'s per-code tuples and the
  δ-axis win regions (FR low, LRC middle, RS high with defaults);
* :class:`repro.fusion.adaptation.AdaptiveSelector` in multi-code mode —
  validation, retargeting triggers, hysteresis, and the seeded
  oscillating-workload regression that pins bounded conversion counts;
* :class:`repro.hybrid.adaptive.MultiCodePlanner` — conversion plan
  accounting (against the edge table of :mod:`repro.codes.families`) and
  storage averaging;
* the tournament experiment's ``--jobs N`` determinism (chaos off and on,
  both seeded).
"""

import json

import pytest

from repro import telemetry
from repro.codes.families import GroupedMSRFamily, RSFamily, conversion
from repro.experiments import ExperimentConfig, tournament
from repro.fusion.adaptation import AdaptiveSelector, CodeKind
from repro.fusion.costmodel import CODE_FAMILIES, CostModel, SystemProfile
from repro.hybrid import ECFusionPlanner, MultiCodePlanner
from repro.hybrid.plans import PlanKind


@pytest.fixture
def cm():
    return CostModel(8, 3, SystemProfile())


class TestCostModel:
    def test_per_code_tuples_positive(self, cm):
        for code in CODE_FAMILIES:
            costs = cm.costs(code)
            assert costs.write > 0, code
            assert costs.recovery > 0, code
            assert costs.storage_overhead >= 1.0, code

    def test_rs_msr_tuples_match_legacy_properties(self, cm):
        assert cm.write_cost("rs") == pytest.approx(cm.write_cost_rs)
        assert cm.write_cost("msr") == pytest.approx(cm.write_cost_msr)
        assert cm.recovery_cost("rs") == pytest.approx(cm.recovery_cost_rs)
        assert cm.recovery_cost("msr") == pytest.approx(cm.recovery_cost_msr)

    def test_fr_recovery_cheapest_rs_writes_cheapest(self, cm):
        recs = {c: cm.recovery_cost(c) for c in CODE_FAMILIES}
        writes = {c: cm.write_cost(c) for c in CODE_FAMILIES}
        assert min(recs, key=recs.get) == "fr"
        assert min(writes, key=writes.get) == "rs"

    def test_delta_axis_win_regions(self, cm):
        """Sweeping δ crosses at least three distinct best codes."""
        winners = []
        for delta in (0.2, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 40.0, 200.0):
            won = cm.best_code(delta)
            if not winners or winners[-1][1] != won:
                winners.append((delta, won))
        codes = [w for _, w in winners]
        assert len(set(codes)) >= 3, winners
        assert codes[0] == "fr" and codes[-1] == "rs", winners
        # regions are contiguous: each code wins one interval, no returns
        assert len(codes) == len(set(codes)), winners

    def test_hysteresis_margin_holds_current(self, cm):
        # find a boundary: smallest sweep delta where the plain argmin
        # changes, then check the incumbent survives with a fat margin
        prev = cm.best_code(0.2)
        for delta in (0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 40.0):
            won = cm.best_code(delta)
            if won != prev:
                held = cm.best_code(delta, current=prev, margins=0.5)
                assert held == prev, (delta, prev, won)
                break
            prev = won
        else:
            pytest.fail("no region boundary found in sweep")

    def test_transition_margin_mapping_and_default(self, cm):
        margins = {("rs", "fr"): 0.2, "default": 0.05}
        assert cm.transition_margin(margins, "rs", "fr") == 0.2
        assert cm.transition_margin(margins, "lrc", "fr") == 0.05
        assert cm.transition_margin(0.1, "rs", "fr") == 0.1

    def test_bad_margin_raises(self, cm):
        with pytest.raises(ValueError):
            cm.transition_margin(1.0, "rs", "fr")
        with pytest.raises(ValueError):
            cm.transition_margin({("rs", "fr"): -0.1}, "rs", "fr")


class TestSelectorMultiCode:
    def _selector(self, **kw):
        kw.setdefault("codes", CODE_FAMILIES)
        return AdaptiveSelector(
            CostModel(8, 3, SystemProfile()), queue_capacity=8, **kw
        )

    def test_validation(self):
        cm = CostModel(8, 3, SystemProfile())
        with pytest.raises(ValueError):
            AdaptiveSelector(cm, codes=())
        with pytest.raises(ValueError):
            AdaptiveSelector(cm, codes=("rs", "rs"))
        with pytest.raises(ValueError):
            AdaptiveSelector(cm, codes=("msr", "fr"))  # default RS missing
        with pytest.raises(ValueError):
            AdaptiveSelector(cm, codes=CODE_FAMILIES, margins=1.5)

    def test_recovery_dominated_stripe_lands_on_fr(self):
        sel = self._selector()
        convs = sel.on_recovery("hot")
        assert [c.target for c in convs] == [CodeKind.FR]
        assert sel.code_of("hot") is CodeKind.FR

    def test_queue2_evict_reverts_to_default(self):
        sel = self._selector()
        for i in range(20):  # overflow the capacity-8 recovery queue
            sel.on_recovery(f"s{i}")
        evicted = [c for c in sel.conversions if c.trigger == "queue2-evict"]
        assert evicted and all(c.target is CodeKind.RS for c in evicted)

    def test_idle_expiry_reverts_any_code(self):
        sel = self._selector(idle_window=4)
        sel.on_recovery("cold")
        assert sel.code_of("cold") is not CodeKind.RS
        for i in range(8):
            sel.on_write(f"other{i}")
        assert sel.code_of("cold") is CodeKind.RS

    def test_stats_gains_multicode_keys(self):
        sel = self._selector()
        sel.on_recovery("s")
        stats = sel.stats()
        for kind in CODE_FAMILIES:
            assert f"to_{kind}" in stats
            assert f"fraction:{kind}" in stats

    def test_legacy_mode_untouched(self):
        sel = AdaptiveSelector(CostModel(8, 3, SystemProfile()), queue_capacity=8)
        sel.on_recovery("s")
        assert sel.code_of("s") in (CodeKind.RS, CodeKind.MSR)
        assert "fraction:lrc" not in sel.stats()


def _oscillate(sel, cycles=16, stripes=4):
    """Deterministic oscillating workload that swings δ across the FR/LRC
    region boundary: asymmetric bursts (8 writes vs 2 recoveries) keep the
    per-stripe ratio crossing ≈1.8 for many cycles before converging."""
    for c in range(cycles):
        for s in range(stripes):
            if c % 2 == 0:
                for _ in range(2):
                    sel.on_recovery(f"s{s}")
            else:
                for _ in range(8):
                    sel.on_write(f"s{s}")
    return len(sel.conversions)


class TestHysteresisRegression:
    def test_margins_bound_oscillation_conversions(self):
        """Per-transition margins must damp code thrash on an oscillating
        workload: conversions with a fat margin stay strictly below the
        margin-free count, and below an absolute budget."""
        cm = CostModel(8, 3, SystemProfile())
        free = AdaptiveSelector(cm, queue_capacity=64, codes=CODE_FAMILIES)
        damped = AdaptiveSelector(
            cm, queue_capacity=64, codes=CODE_FAMILIES, margins=0.35
        )
        n_free = _oscillate(free)
        n_damped = _oscillate(damped)
        assert n_damped < n_free, (n_damped, n_free)
        # 4 stripes, 16 cycles: the damped selector may convert each
        # stripe a couple of times while δ settles but must not flip it
        # across the boundary every cycle
        assert n_damped <= 4 * 2, n_damped

    def test_oscillation_count_is_deterministic(self):
        cm = CostModel(8, 3, SystemProfile())
        counts = [
            _oscillate(
                AdaptiveSelector(
                    cm, queue_capacity=64, codes=CODE_FAMILIES, margins=0.35
                )
            )
            for _ in range(2)
        ]
        assert counts[0] == counts[1]


class TestMultiCodePlanner:
    def test_width_covers_widest_family(self):
        p = MultiCodePlanner(8, 3, 1.0)
        assert p.width == max(8 + 9, 8 + 3, 8 + 4, 17)  # msr q·r=9 → 17

    @staticmethod
    def _converted(planner):
        """Write a stripe, repair it once: (conversion plan, repair plan)."""
        planner.plan_write("s")
        conv, repair = planner.plan_recovery("s", 0)
        assert conv.kind is PlanKind.CONVERSION and conv.distributed
        return conv, repair

    def test_rs_msr_conversion_matches_fusion_planner(self):
        """Both planners execute rs→msr as the table's highway edge."""
        g = 27.0 * 1024 * 1024
        highway = conversion(RSFamily(8, 3), GroupedMSRFamily(8, 3), g)
        for planner in (
            MultiCodePlanner(8, 3, g, codes=("rs", "msr")),
            ECFusionPlanner(8, 3, g),
        ):
            conv, _ = self._converted(planner)
            assert (conv.reads, conv.writes, conv.compute_ops) == highway
            # Fig. 12(b): the last data group (blocks 6, 7) is never read
            assert set(conv.reads) == set(range(6)) | {8, 9, 10}
            assert set(conv.writes) == set(range(8, 17))

    def test_lrc_fr_edges_are_full_reencode(self):
        for target in ("lrc", "fr"):
            mc = MultiCodePlanner(8, 3, 27.0, codes=("rs", target))
            conv, _ = self._converted(mc)
            family = mc.cost_model.family(target)
            assert set(conv.reads) == set(range(8))  # the k data chunks
            assert set(conv.writes) == set(family.parity_slots)
            assert conv.compute_ops == family.encode_ops(27.0)

    def test_recovery_plan_bytes_per_family(self):
        g = 27.0
        rs = MultiCodePlanner(8, 3, g, codes=("rs",)).plan_recovery("s", 0)[-1]
        _, fr = self._converted(MultiCodePlanner(8, 3, g, codes=("rs", "fr")))
        _, lrc = self._converted(MultiCodePlanner(8, 3, g, codes=("rs", "lrc")))
        assert rs.bytes_read == pytest.approx(8 * g)
        assert fr.bytes_read == pytest.approx(g)  # uncoded copy repair
        assert lrc.bytes_read < rs.bytes_read
        assert fr.compute_ops == 0.0

    def test_storage_overhead_averages_seen_stripes(self):
        mc = MultiCodePlanner(8, 3, 1.0)
        assert mc.storage_overhead() == pytest.approx(11 / 8)  # default RS
        mc.plan_write("a")
        for _ in range(4):
            mc.plan_recovery("a", 0)  # retargets "a" off RS
        mc.plan_write("b")
        rho = mc.storage_overhead()
        assert rho > 11 / 8  # one stripe moved to a fatter family

    def test_stats_reports_executed_conversions(self):
        mc = MultiCodePlanner(8, 3, 1.0)
        mc.plan_write("a")
        for _ in range(4):
            mc.plan_recovery("a", 0)
        stats = mc.stats()
        assert stats["executed_conversions"] == mc.conversion_count
        assert mc.conversion_count >= 1


def _tournament_digest(jobs, chaos=False):
    telemetry.enable(metrics=True, tracing=False, snapshots=False)
    telemetry.METRICS.reset()
    try:
        cfg = ExperimentConfig(num_requests=80, num_stripes=12)
        traces = ["rsrch0"]
        res = tournament.compute(cfg, traces=traces, jobs=jobs)
        cells = {
            "|".join(key): vars(cell) for key, cell in sorted(res.cells.items())
        }
        metrics = telemetry.METRICS.export_state()
        return (
            json.dumps(cells, sort_keys=True, default=str),
            json.dumps(metrics, sort_keys=True, default=str),
        )
    finally:
        telemetry.METRICS.reset()
        telemetry.METRICS.enabled = False


class TestTournament:
    def test_percentile_is_nearest_rank(self):
        """ceil(q·n) − 1, as everywhere else — not round(q·(n − 1))."""
        samples = [float(v) for v in range(100, 0, -1)]
        assert tournament._percentile(samples, 0.5) == 50.0  # the 50th, not the 51st
        assert tournament._percentile(samples, 0.99) == 99.0
        assert tournament._percentile([7.0], 0.99) == 7.0
        assert tournament._percentile([], 0.99) == 0.0

    def test_jobs_parallelism_is_deterministic(self):
        """jobs=2 must be byte-identical to jobs=1, telemetry included."""
        c1, m1 = _tournament_digest(jobs=1)
        c2, m2 = _tournament_digest(jobs=2)
        assert c1 == c2
        assert m1 == m2

    def test_win_regions_have_multiple_winners(self):
        cfg = ExperimentConfig(num_requests=80, num_stripes=12)
        res = tournament.compute(cfg, traces=["rsrch0"], jobs=1)
        assert len(res.distinct_winners()) >= 2
        # FR's uncoded repair must win the recovery-bytes metric somewhere
        assert "FR" in res.win_regions("recovery_bytes") or "Policy" in (
            res.win_regions("recovery_bytes")
        )

    def test_render_contains_win_region_section(self):
        cfg = ExperimentConfig(num_requests=80, num_stripes=12)
        res = tournament.compute(cfg, traces=["rsrch0"], jobs=1)
        text = tournament.render(res)
        assert "Win regions" in text
        assert "distinct winning codes" in text

    def test_report_section_is_json_serialisable(self):
        cfg = ExperimentConfig(num_requests=80, num_stripes=12)
        res = tournament.compute(cfg, traces=["rsrch0"], jobs=1)
        section = json.loads(json.dumps(res.to_section()))
        assert section["schemes"] == list(tournament.TOURNAMENT_SCHEMES)
        assert section["profiles"] == list(tournament.TOURNAMENT_PROFILES)
        assert len(section["cells"]) == len(res.cells)
        assert set(section["win_regions"]) == set(tournament.METRIC_NAMES)
        assert sorted(section["distinct_winners"]) == sorted(
            res.distinct_winners()
        )
