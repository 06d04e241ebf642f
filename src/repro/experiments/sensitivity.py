"""Sensitivity extension — EC-Fusion's gain vs RS across failure weights.

The paper evaluates one (undisclosed) recovery-to-application ratio; this
experiment sweeps it.  With almost no failures EC-Fusion degenerates to
RS (zero gain, tiny conversion tax); as failures weigh more, the MSR
repairs and the amortised conversions pull ahead.  The output locates the
break-even point — the operational answer to "is the adaptive machinery
worth it for *my* failure rate?".
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..metrics import improvement
from .runner import ExperimentConfig, format_table
from .simulation import run_campaign

__all__ = ["SensitivityResult", "compute", "render"]

DEFAULT_RATES = (0.01, 0.03, 0.06, 0.12, 0.2)
#: the workload size the sweep runs at when called without a config
SIZING = {"num_requests": 300, "num_stripes": 48}


@dataclass
class SensitivityResult:
    """EC-Fusion's overall-performance gain vs RS per failure rate."""

    trace: str
    rates: tuple[float, ...]
    gains: dict[float, float]  # failure_rate -> fractional gain
    conversion_shares: dict[float, float]

    def gain_is_monotone_in_failure_weight(self) -> bool:
        ordered = [self.gains[r] for r in self.rates]
        return all(b >= a - 0.01 for a, b in zip(ordered, ordered[1:]))

    def break_even_rate(self) -> float | None:
        """Smallest swept rate at which EC-Fusion is at least even with RS."""
        for rate in self.rates:
            if self.gains[rate] >= 0:
                return rate
        return None


def compute(
    config: ExperimentConfig | None = None,
    trace: str = "web1",
    rates: tuple[float, ...] = DEFAULT_RATES,
) -> SensitivityResult:
    config = config or ExperimentConfig(**SIZING)
    gains: dict[float, float] = {}
    shares: dict[float, float] = {}
    for rate in rates:
        campaign = run_campaign(replace(config, failure_rate=rate), traces=[trace])
        rs = campaign.get("RS", trace)
        fusion = campaign.get("EC-Fusion", trace)
        gains[rate] = improvement(rs.overall, fusion.overall)
        shares[rate] = fusion.conversion_fraction
    return SensitivityResult(
        trace=trace, rates=tuple(rates), gains=gains, conversion_shares=shares
    )


def render(result: SensitivityResult) -> str:
    rows = [
        [
            f"{rate:.0%}",
            f"{result.gains[rate] * 100:+.2f}%",
            f"{result.conversion_shares[rate] * 100:.2f}%",
        ]
        for rate in result.rates
    ]
    table = format_table(
        ["failures / request", "EC-Fusion gain vs RS", "conversion share"],
        rows,
        title=f"Sensitivity — failure weight on MSR-{result.trace}",
    )
    be = result.break_even_rate()
    return table + (
        f"\nbreak-even failure rate: {'none in sweep' if be is None else f'{be:.0%}'}; "
        f"gain grows with failure weight: {result.gain_is_monotone_in_failure_weight()}"
    )
