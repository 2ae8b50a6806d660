"""Workload dispatch: untraced runs give end-to-end metrics, traced runs
give per-layer metrics (see :mod:`layers`)."""

from __future__ import annotations

import common
import ivf_batch
import layers
import serve
import train_index

#: Every workload reports every end-to-end metric, under the same names;
#: what each one measures per workload is in README.md.
UNITS = {
    "setup_s": "s",
    "latency_ms": "ms",
    "throughput_per_s": "1/s",
    "quality": "ratio",
}


class _Serve:
    """Adapter giving serve-read/serve-churn the fixture/measure shape."""

    def __init__(self, churn: bool) -> None:
        self.churn = churn

    def Fixture(self, seed: int):
        return serve.Fixture(seed, churn=self.churn)

    def params(self) -> dict:
        return serve.params(self.churn)

    def measure(self, fixture, seed, seconds, report, recorder=None):
        fixture.begin_pass()
        run = serve.serve_churn if self.churn else serve.serve_read
        return run(fixture, seed, seconds, report, recorder)


MODULES = {
    "train-index": train_index,
    "serve-read": _Serve(churn=False),
    "serve-churn": _Serve(churn=True),
    "ivf-batch": ivf_batch,
}


def run(workload: str, seed: int, seconds: float, trace: bool, report,
        layer_units: dict[str, str]) -> dict:
    """Run one workload into ``report``; returns its parameters.
    ``layer_units`` names the per-layer metrics a traced run reports."""
    module = MODULES[workload]
    if trace:
        layers.traced_run(workload, module, seed, seconds, report, layer_units)
    else:
        fixture, setup_s = common.timed_setup(lambda: module.Fixture(seed))
        try:
            result = module.measure(fixture, seed, seconds, report)
        finally:
            fixture.close()
        report.metric("setup_s", setup_s, "s")
        for name, value in result["metrics"].items():
            report.metric(name, value, UNITS[name])
    return module.params()
