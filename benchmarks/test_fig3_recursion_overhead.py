"""Figure 3 bench: recursion overhead curves across capacities."""

from conftest import run_once

from repro.eval import fig3


def test_fig3_recursion_overhead(benchmark, check):
    data = run_once(benchmark, fig3.run)
    check("fig3", fig3.headline(data))
    # The curve grows with capacity.
    b64 = dict(data["b64_pm8"])
    assert b64[40] > b64[30]
