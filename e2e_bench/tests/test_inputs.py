import json

import inputs


def test_same_seed_same_digest():
    assert inputs.input_digest(7, big_index=True) == inputs.input_digest(7, big_index=True)


def test_different_seed_different_digest():
    for big_index in (False, True):
        assert inputs.input_digest(7, big_index) != inputs.input_digest(8, big_index)


def test_session_composition_is_fixed():
    a = inputs.session_inputs(1, 0)["stream"]
    b = inputs.session_inputs(2, 3)["stream"]
    shape = lambda stream: sorted(  # noqa: E731
        (r["workload"], r["platform"], r["n"][0], len(r["alphas"])) for r in stream
    )
    assert shape(a) == shape(b)
    assert a != b


def test_requests_validate_and_keys_are_distinct():
    from repro.serve.cache import cache_key
    from repro.serve.protocol import canonical_request, validate_request
    from repro.workloads import get

    data = inputs.session_inputs(3, 0)
    requests = [data["first"], *data["warmup"], *data["stream"]]
    keys = set()
    for request in requests:
        validated = validate_request(request)
        assert min(request["n"]) >= get(request["workload"]).min_n
        keys.add(cache_key(canonical_request(validated)))
    assert len(keys) == len(requests)
    assert data["hits"] == [data["first"], *data["warmup"]]


def test_synthetic_index_lines_are_schema_shaped_and_never_match():
    lines = inputs.synthetic_index_lines(5, count=50)
    entries = [json.loads(line) for line in lines]
    assert len({e["run_id"] for e in entries}) == 50
    for line, entry in zip(lines, entries):
        assert line == json.dumps(entry, sort_keys=True, separators=(",", ":"))
        assert entry["cache_key"].startswith("ff00") and len(entry["cache_key"]) == 32
