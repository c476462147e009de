import pytest

import spans

IMPORTTIME = """\
import time: self [us] | cumulative | imported package
import time:       100 |        100 |     numpy.core
import time:       200 |        300 |   numpy
import time:        50 |         50 |       scipy._lib
import time:       400 |        450 |     scipy.optimize
import time:        10 |        460 |   scipy
import time:        40 |         40 |   repro.util
import time:      1000 |       1800 | repro.experiments.runner
"""


def test_parse_importtime_counts_outermost_scipy_only():
    parsed = spans.parse_importtime(IMPORTTIME, "repro.experiments.runner")
    assert parsed["total_s"] == pytest.approx(1800e-6)
    assert parsed["scipy_s"] == pytest.approx(460e-6)


def span(i, layer, t0, t1, parent=None, **extra):
    return {"i": i, "layer": layer, "t0": t0, "t1": t1, "wall0": t0,
            "parent": parent, "rid": None, **extra}


def process(spans_list, role="cli-fig8"):
    return spans.Process({"pid": 1, "ppid": 0, "role": role, "spans": spans_list})


def test_self_times_subtract_direct_children():
    p = process([
        span(0, "import", 0.0, 1.0),
        span(1, "runner.run_request", 1.0, 3.0),
        span(2, "parallel.map", 1.5, 2.5, parent=1),
        span(3, "parallel.map", 1.6, 2.0, parent=2),
    ])
    assert p.main
    assert spans.self_times(p) == pytest.approx(
        {"import": 1.0, "runner.run_request": 1.0, "parallel.map": 1.0}
    )
    assert [s["i"] for s in p.outermost("parallel.map")] == [2]


def test_request_id_is_inherited_from_ancestors():
    p = process([span(0, "serve.submit", 0.0, 1.0, rid="job1"),
                 span(1, "serve.cache.refresh", 0.1, 0.5, parent=0)], role="daemon")
    p.spans[0]["rid"] = "job1"
    assert spans.request_id(p, p.spans[1]) == "job1"


def test_duplicate_execs_counts_overlapping_runs_of_one_key():
    jobs = {"a": {"cache_key": "k"}, "b": {"cache_key": "k"}, "c": {"cache_key": "x"}}
    execs = [
        dict(span(0, "serve.worker.execute_job", 0.0, 1.0), rid="a"),
        dict(span(1, "serve.worker.execute_job", 0.5, 1.5), rid="b"),
        dict(span(2, "serve.worker.execute_job", 0.5, 1.5), rid="c"),
    ]
    assert spans.duplicate_execs(execs, jobs) == 1
    execs[1]["t0"] = 1.2
    assert spans.duplicate_execs(execs, jobs) == 0
