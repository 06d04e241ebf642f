"""The code-family table: one definition, four readers that must agree.

Planner plans, the descriptors of :mod:`repro.codes.families`,
:class:`~repro.metrics.costs.AnalyticCosts` and
:class:`~repro.fusion.costmodel.CostModel` all state encode ops, repair
ops, repair chunks, written chunks and ρ for the same codes.  Since the
planners, the analytic model and the cost model read the descriptors, the
agreement half of this module guards against a reader growing its own
copy again; the reference half pins the descriptors themselves against
the paper's formulas written out here, once, as the tests' own reference.

The one place the readers deliberately differ is stated, not hidden: for
the padded MSR baseline (k = 8, r = 3) Fig. 15 counts the virtual node
among the helpers (11, hence 11/3 chunks) while only 10 stored helpers
exist to be read (10/3 chunks planned) — both numbers are members of the
same descriptor.
"""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.codes import FractionalRepetitionCode
from repro.codes.families import (
    CONVERSION_EDGES,
    FAMILIES,
    BaselineMSRFamily,
    FRFamily,
    GroupedMSRFamily,
    LRCFamily,
    RSFamily,
    conversion,
)
from repro.fusion.adaptation import CodeKind
from repro.fusion.costmodel import CODE_FAMILIES, CostModel, SystemProfile
from repro.hybrid import (
    ECFusionPlanner,
    FRPlanner,
    HACFSPlanner,
    LRCPlanner,
    MSRPlanner,
    MultiCodePlanner,
    PlanKind,
    RSPlanner,
)
from repro.metrics.costs import AnalyticCosts

shapes = dict(
    k=st.integers(min_value=2, max_value=12),
    r=st.integers(min_value=2, max_value=4),
    gamma=st.sampled_from([1.0, 1000.0, 64 * 1024.0, 27 * 1024 * 1024.0]),
)


def check_static(planner, family, gamma):
    """Planner plan == descriptor, for the write and every repairable slot."""
    (write,) = planner.plan_write("s")
    assert write.compute_ops == family.encode_ops(gamma)
    assert write.writes == {s: gamma for s in range(family.width)}
    assert planner.width == family.width
    assert planner.storage_overhead() == family.storage_overhead
    for block in range(family.k):
        (plan,) = planner.plan_recovery("s", block)
        assert plan.kind is PlanKind.RECOVERY
        assert plan.compute_ops == family.repair_ops(gamma)
        assert plan.reads == family.repair_reads(block, gamma)
        assert plan.writes == {block: gamma}
    for slot in range(family.width):  # data *and* parity slots
        reads = family.repair_reads(slot, gamma)
        assert slot not in reads
        assert all(0 <= s < family.width for s in reads)
        assert family.repair_reads(slot) == family.repair_reads(slot, 1.0)


def drive_to(planner, stripe, kind):
    """Write a stripe, then repair it until the policy holds it in ``kind``."""
    planner.plan_write(stripe)
    for _ in range(4):
        planner.plan_recovery(stripe, 0)
    assume(planner.resident[stripe] is kind)


class TestAgreement:
    @settings(max_examples=60, deadline=None)
    @given(**shapes)
    def test_rs(self, k, r, gamma):
        fam = RSFamily(k, r)
        check_static(RSPlanner(k, r, gamma), fam, gamma)
        analytic = AnalyticCosts(k, r, gamma)
        cm = CostModel(k, r, SystemProfile(gamma=gamma))
        assert cm.family("rs") == fam
        assert analytic.app_compute("rs") == fam.encode_ops(gamma)
        assert analytic.rec_compute("rs") == cm.recovery_compute("rs") == fam.repair_ops(gamma)
        assert analytic.app_transmission("rs") == fam.width
        assert (
            analytic.rec_transmission("rs")
            == cm.recovery_transmission("rs")
            == fam.repair_chunks
            == sum(fam.repair_reads(0).values())
        )
        assert analytic.storage("rs") == cm.storage_overhead("rs") == fam.storage_overhead
        assert analytic.members["ecfusion"][0] == fam  # EC-Fusion at h = 0 is RS

    @settings(max_examples=60, deadline=None)
    @given(**shapes)
    def test_baseline_msr(self, k, r, gamma):
        fam = BaselineMSRFamily(k, r)
        planner = MSRPlanner(k, r, gamma)
        check_static(planner, fam, gamma)
        analytic = AnalyticCosts(k, r, gamma)
        assert analytic.app_compute("msr") == fam.encode_ops(gamma)
        assert analytic.rec_compute("msr") == fam.repair_ops(gamma)
        assert analytic.app_transmission("msr") == fam.width == k + r
        assert analytic.storage("msr") == fam.storage_overhead
        # the stated deviation: Fig. 15 counts the virtual helpers, plans cannot
        (plan,) = planner.plan_recovery("s", 0)
        assert len(plan.reads) == fam.stored_helpers == k + r - 1
        assert all(v == gamma / r for v in plan.reads.values())
        assert analytic.rec_transmission("msr") == fam.repair_chunks == fam.helpers / r
        assert fam.helpers - fam.stored_helpers == fam.virtual_nodes == (-(k + r)) % r

    def test_baseline_msr_virtual_helper_at_k8(self):
        fam = BaselineMSRFamily(8, 3)
        assert (fam.stored_helpers, fam.helpers) == (10, 11)
        (plan,) = MSRPlanner(8, 3, 3.0).plan_recovery("s", 0)
        assert plan.bytes_read == 10.0  # 10/3 chunks of γ = 3
        assert AnalyticCosts(8).rec_transmission("msr") == 11 / 3  # Fig. 15
        assert BaselineMSRFamily(6, 3).virtual_nodes == 0  # k = 6 needs no padding

    @settings(max_examples=60, deadline=None)
    @given(**shapes)
    def test_grouped_msr(self, k, r, gamma):
        fam = GroupedMSRFamily(k, r)
        profile = SystemProfile(gamma=gamma)
        cm = CostModel(k, r, profile)
        analytic = AnalyticCosts(k, r, gamma)
        assert cm.family("msr") == analytic.members["ecfusion"][1] == fam
        assert analytic.app_compute("ecfusion", 1.0) == fam.encode_ops(gamma)
        assert cm.application_compute("msr", 1.0) == 0.5 * fam.instance_encode_ops(gamma)
        assert fam.encode_ops(gamma) == fam.copies * fam.instance_encode_ops(gamma)
        assert (
            analytic.rec_compute("ecfusion", 1.0)
            == cm.recovery_compute("msr")
            == fam.repair_ops(gamma)
        )
        assert analytic.app_transmission("ecfusion", 1.0) == fam.width
        assert (
            analytic.rec_transmission("ecfusion", 1.0)
            == cm.recovery_transmission("msr")
            == fam.repair_chunks
        )
        assert analytic.storage("ecfusion", 1.0) == cm.storage_overhead("msr")
        assert cm.storage_overhead("msr") == fam.storage_overhead
        assert cm.recovery_disk_io("msr") == (gamma / (r * profile.phi), gamma / profile.phi)

        planner = ECFusionPlanner(k, r, gamma)
        assert planner.width == fam.width and planner.q == fam.copies
        drive_to(planner, "s", CodeKind.MSR)
        for block in range(k):
            plan = planner.plan_recovery("s", block)[-1]
            assert plan.compute_ops == fam.repair_ops(gamma)
            assert plan.reads == fam.repair_reads(block, gamma)
        for index in range(fam.parities):
            plan = planner.plan_parity_recovery("s", index)[-1]
            assert plan.compute_ops == fam.repair_ops(gamma)
            assert plan.reads == fam.repair_reads(k + index, gamma)
            assert plan.writes == {k + index: gamma}
        # a full group reads 2r − 1 helpers; a padded one skips its virtual chunks
        assert len(fam.repair_reads(0)) == min(2 * r - 1, k - 1 + r)
        padding = fam.copies * r - k
        assert len(fam.repair_reads(k - 1)) == 2 * r - 1 - padding
        write = planner.plan_write("s")[-1]
        assume(planner.resident["s"] is CodeKind.MSR)
        assert write.compute_ops == fam.encode_ops(gamma)
        assert write.writes == {s: gamma for s in range(fam.width)}

    @settings(max_examples=60, deadline=None)
    @given(z_pick=st.integers(min_value=0, max_value=10), **shapes)
    def test_lrc(self, k, r, gamma, z_pick):
        divisors = [z for z in range(1, k + 1) if k % z == 0]
        z = divisors[z_pick % len(divisors)]
        fam = LRCFamily(k, 2, z)
        check_static(LRCPlanner(k, 2, z, gamma), fam, gamma)
        cm = CostModel(k, r, SystemProfile(gamma=gamma), lrc_r=2, lrc_z=z)
        assert cm.family("lrc") == fam
        assert cm.storage_overhead("lrc") == fam.storage_overhead == (k + z + 2) / k
        assert fam.repair_chunks == sum(fam.repair_reads(0).values()) == k // z
        # a local parity repairs from its group, a global one from the data
        assert set(fam.repair_reads(k)) == set(range(k // z))
        assert set(fam.repair_reads(fam.width - 1)) == set(range(k))
        analytic = AnalyticCosts(k, r, gamma)
        compact = analytic.members["lrc"][0]
        assert compact == LRCFamily(k, 2, 2) == analytic.members["hacfs"][0]
        assert analytic.app_compute("lrc") == compact.encode_ops(gamma)
        assert analytic.rec_compute("lrc") == compact.repair_ops(gamma)
        assert analytic.app_transmission("lrc") == compact.width
        assert analytic.rec_transmission("lrc") == compact.repair_chunks
        assert analytic.storage("lrc") == compact.storage_overhead

    @pytest.mark.parametrize("k", [4, 6, 8, 12])
    def test_hacfs_reads_two_lrc_descriptors(self, k):
        gamma = 1024.0
        hacfs = HACFSPlanner(k, gamma)
        analytic = AnalyticCosts(k, gamma=gamma)
        compact, fast = analytic.members["hacfs"]
        assert (hacfs.compact, hacfs.fast) == (compact, fast)
        fast = hacfs.fast  # same shape; the analytic member may carry z = k/2 as a float
        assert hacfs.width == fast.width
        (cold,) = hacfs.plan_recovery("cold", 1)
        assert cold.reads == compact.repair_reads(1, gamma)
        assert cold.compute_ops == compact.repair_ops(gamma) == analytic.rec_compute("hacfs")
        (write,) = hacfs.plan_write("hot")
        assert write.compute_ops == fast.encode_ops(gamma) == analytic.app_compute("hacfs", 1.0)
        (hot,) = hacfs.plan_recovery("hot", 1)
        assert hot.reads == fast.repair_reads(1, gamma)
        assert analytic.rec_transmission("hacfs", 1.0) == fast.repair_chunks == 2
        assert analytic.storage("hacfs", 1.0) == fast.storage_overhead

    @settings(max_examples=25, deadline=None)
    @given(**shapes)
    def test_fr(self, k, r, gamma):
        fam = FRFamily(k, k + 1, 2)
        check_static(FRPlanner(k, k + 1, gamma), fam, gamma)
        cm = CostModel(k, r, SystemProfile(gamma=gamma))
        assert cm.family("fr") == fam
        assert cm.storage_overhead("fr") == fam.storage_overhead == (2 * k + 1) / k
        code = FractionalRepetitionCode(k, k + 1, rho=2)
        assert fam.label == code.name
        assert fam.encode_ops(gamma) == gamma * (code.num_chunks - code.num_data_chunks) * k
        for slot in range(fam.width):  # uncoded repair: exactly γ, from the real placement
            assert fam.repair_reads(slot) == code.repair_read_fractions(slot)
            assert sum(fam.repair_reads(slot).values()) == fam.repair_chunks == 1.0
        assert fam.repair_ops(gamma) == 0.0

    def test_costmodel_families_are_the_table(self):
        assert CODE_FAMILIES == tuple(FAMILIES) == ("rs", "msr", "lrc", "fr")
        cm = CostModel(8, 3, SystemProfile())
        for code, cls in FAMILIES.items():
            fam = cm.family(code)
            assert type(fam) is cls and fam.name == code
            assert cm.write_cost(code) == fam.write_cost(cm.profile)
            assert cm.recovery_cost(code) == fam.recovery_cost(cm.profile)
        with pytest.raises(ValueError):
            cm.family("xor")

    def test_fr_placement_is_built_on_demand(self):
        fam = CostModel(8, 3, SystemProfile()).family("fr")
        fam.write_cost(SystemProfile()), fam.storage_overhead, fam.encode_ops(1.0)
        assert "code" not in vars(fam)  # closed forms never need the placement
        fam.repair_reads(0)
        assert "code" in vars(fam)


class TestPaperReference:
    """The descriptors against Table III written out here (the reference)."""

    @settings(max_examples=80, deadline=None)
    @given(
        k=st.integers(min_value=2, max_value=12),
        r=st.integers(min_value=2, max_value=4),
        gamma=st.floats(min_value=1e3, max_value=1e9),
    )
    def test_closed_forms(self, k, r, gamma):
        p = SystemProfile(gamma=gamma)
        a, lam, phi, g = p.alpha, p.lam, p.phi, p.gamma
        rs, msr = RSFamily(k, r), GroupedMSRFamily(k, r)
        # §III-C verbatim; η = (R_RS − R_MSR)/(W_MSR − W_RS) depends on every bit
        assert rs.write_cost(p) == g * (k * r / a + ((k + r) / k) / lam + 1 / phi)
        assert rs.recovery_cost(p) == ((k + r) * r**2 + g * k) / a + g * (k / lam + 1 / phi)
        assert msr.write_cost(p) == r**4 * (r**2 + g) / a + g * (2 / lam + 1 / phi)
        assert msr.recovery_cost(p) == (r**6 + g * (2 * r**2 - r)) / a + g * (
            (2 * r - 1) / (r * lam) + 1 / phi
        )
        # the closed forms are the generic ones for a single MSR(2r, r) group
        assert msr.write_cost(p) == pytest.approx(
            msr.instance_encode_ops(g) / a + g * (2 / lam + 1 / phi)
        )
        assert msr.recovery_cost(p) == pytest.approx(
            msr.repair_ops(g) / a + g * (msr.repair_chunks / lam + 1 / phi)
        )
        # Table III op counts
        l = r * r
        q = -(-k // r)
        assert rs.encode_ops(g) == g * k * r
        assert rs.repair_ops(g) == (k + r) * r**2 + g * k
        assert msr.l == l and msr.copies == q
        assert msr.encode_ops(g) == q * (l**3 + l * g * r * r)
        assert msr.repair_ops(g) == l**3 + l * g * (2 * r - 1) / r
        base = BaselineMSRFamily(k, r)
        n_eff = -(-(k + r) // r) * r
        assert base.n_eff == n_eff and base.l == r ** (n_eff // r)
        assert base.encode_ops(g) == base.l**3 + base.l * g * k * r
        assert base.repair_ops(g) == base.l**3 + base.l * g * (n_eff - 1) / r
        lrc = LRCFamily(k, 2, 2)
        assert lrc.encode_ops(g) == g * (k * 2 + (k - 2))
        assert lrc.repair_ops(g) == g * (k / 2)
        assert lrc.write_cost(p) == g * ((k * 2 + (k - 2)) / a + ((k + 4) / k) / lam + 1 / phi)
        assert lrc.recovery_cost(p) == g * ((k / 2) / a + (k / 2) / lam + 1 / phi)
        fr = FRFamily(k, k + 1, 2)
        assert fr.write_cost(p) == g * (k / a + ((2 * k + 1) / k) / lam + 1 / phi)
        assert fr.recovery_cost(p) == g * (1 / lam + 1 / phi)

    def test_tolerances(self):
        assert RSFamily(8, 3).tolerance == BaselineMSRFamily(8, 3).tolerance == 3
        assert GroupedMSRFamily(8, 3).tolerance == 3  # per MSR(2r, r) group
        assert LRCFamily(8, 2, 2).tolerance == 3  # Azure LRC: any r + 1
        fr = FRFamily(4, 5, 2)  # ρ − 1 from replication alone; the precode adds to it
        assert 1 == fr.tolerance <= fr.code.fault_tolerance


class TestConversionEdges:
    def test_registered_edges(self):
        assert set(CONVERSION_EDGES) == {("rs", "msr"), ("msr", "rs")}

    @settings(max_examples=40, deadline=None)
    @given(**shapes)
    def test_highway_accounting(self, k, r, gamma):
        """Fig. 12(b): RS→MSR never reads the last data group; MSR→RS reads
        parities only — the accounting of FusionTransformer."""
        rs, msr = RSFamily(k, r), GroupedMSRFamily(k, r)
        q, l, g = msr.copies, msr.l, gamma
        reads, writes, ops = conversion(rs, msr, g)
        assert reads == {s: g for s in [*range((q - 1) * r), *range(k, k + r)]}
        assert writes == {s: g for s in range(k, k + q * r)}
        assert ops == (q - 1) * r * r * g + q * r * r * l * g
        reads, writes, ops = conversion(msr, rs, g)
        assert reads == {s: g for s in range(k, k + q * r)}
        assert writes == {s: g for s in range(k, k + r)}
        assert ops == q * r * r * l * g

    def test_every_other_edge_is_a_full_reencode(self):
        cm = CostModel(8, 3, SystemProfile())
        g = 27.0
        for src in CODE_FAMILIES:
            for dst in CODE_FAMILIES:
                if src == dst or (src, dst) in CONVERSION_EDGES:
                    continue
                target = cm.family(dst)
                reads, writes, ops = conversion(cm.family(src), target, g)
                assert reads == {s: g for s in range(8)}  # the k data chunks
                assert writes == {s: g for s in target.parity_slots}
                assert ops == target.encode_ops(g)

    @pytest.mark.parametrize("kind", [CodeKind.MSR, CodeKind.LRC, CodeKind.FR])
    def test_planners_execute_the_table(self, kind):
        """Both adaptive constructions price a conversion, the repair after
        it and a parity repair straight from the table."""
        g = 27.0 * 1024 * 1024
        planners = [MultiCodePlanner(8, 3, g, codes=("rs", kind.value))]
        if kind is CodeKind.MSR:
            planners.append(ECFusionPlanner(8, 3, g))
        for planner in planners:
            rs, target = planner.families[CodeKind.RS], planner.families[kind]
            planner.plan_write("s")
            conv, repair = planner.plan_recovery("s", 0)
            assert conv.kind is PlanKind.CONVERSION and conv.distributed
            assert (conv.reads, conv.writes, conv.compute_ops) == conversion(rs, target, g)
            assert repair.reads == target.repair_reads(0, g)
            assert repair.compute_ops == target.repair_ops(g)
            assert planner.code_fractions()[kind.value] == 1.0
            assert planner.storage_overhead() == target.storage_overhead
            for index in range(target.parities):
                plan = planner.plan_parity_recovery("s", index)[-1]
                assert plan.reads == target.repair_reads(8 + index, g)
                assert plan.writes == {8 + index: g}
            with pytest.raises(ValueError):
                planner.plan_parity_recovery("s", target.parities)
