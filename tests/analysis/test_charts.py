"""ASCII chart rendering."""

from repro.analysis.charts import stats_chart
from repro.analysis.stats import trace_stats
from repro.sim.run import simulate
from tests.util import lock_pair_program


def test_stats_chart_from_real_trace():
    trace = simulate(lock_pair_program(), 1.0).trace
    text = stats_chart(trace_stats(trace))
    assert "tid 0" in text and "busy time" in text
