"""Per-layer metrics and self-time tables from the shim's span files.

A span's *self time* is its duration minus the time its direct child
spans cover.  Per traced request, the self times of every layer plus
an "unexplained" residual add up to the time the benchmark measured at
the client, so the table shows where a request's time went and how
much of it no wrapped layer accounts for.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional

import stats
from shim import TARGETS

#: Per-layer metric name -> unit, in report order.
PER_LAYER_UNITS = {
    "import.runner_s": "s",
    "import.scipy_s": "s",
    "import.client_s": "s",
    "runner.run_request_s": "s",
    "parallel.map_s": "s",
    "autotune.evaluations": "count",
    "autotune.busy_s": "s",
    "schedule.runs": "count",
    "schedule.busy_s": "s",
    "schedule.macro_share.fig8": "ratio",
    "schedule.macro_share.fig8_checked": "ratio",
    "sim.events": "count",
    "sim.busy_s": "s",
    "model.optimize_calls": "count",
    "model.optimize_s": "s",
    "model.oracle_s": "s",
    "obs.manifest_write_s": "s",
    "obs.index_append_s": "s",
    "obs.index_load_s": "s",
    "obs.index_lines_read": "count",
    "serve.protocol_s": "s",
    "serve.cache.refreshes": "count",
    "serve.cache.refresh_s": "s",
    "serve.cache.refresh_share": "ratio",
    "serve.cache.hit_ratio": "ratio",
    "serve.submit_block_max_s": "s",
    "serve.queue.wait_s": "s",
    "serve.pool.dispatch_s": "s",
    "serve.pool.first_exec_s": "s",
    "serve.worker.exec_s": "s",
    "serve.jobs_executed": "count",
    "serve.duplicate_execs": "count",
    "client.submit_s": "s",
    "obs.sla_p95_rel_err": "ratio",
    "trace.not_wrapped": "count",
    "trace.overhead_pct": "%",
}


def parse_importtime(text: str, module: str) -> Dict[str, float]:
    """Seconds of ``import module`` and of the ``scipy`` modules it pulls
    in, from ``python -X importtime`` output.

    The output lists each import after its children, indented by depth;
    a scipy module counts when no enclosing import is a scipy module
    too, so nested scipy imports are not counted twice.
    """
    rows = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _self, cumulative, name = line[len("import time:"):].split("|", 2)
        try:
            micros = int(cumulative)
        except ValueError:
            continue  # the header line
        depth = (len(name) - len(name.lstrip())) // 2
        rows.append((depth, name.strip(), micros / 1e6))
    total = next((s for _d, n, s in rows if n == module), 0.0)
    scipy = 0.0
    ancestors: List[tuple] = []
    for depth, name, seconds in reversed(rows):  # parents before children
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not any(a[1] for a in ancestors):
            scipy += seconds
        ancestors.append((depth, is_scipy))
    return {"total_s": total, "scipy_s": scipy}


# ----------------------------------------------------------------------
# loading
# ----------------------------------------------------------------------
class Process:
    """One traced process's spans."""

    def __init__(self, record: dict) -> None:
        self.pid = record["pid"]
        self.ppid = record["ppid"]
        self.role = record["role"]
        self.wrapped = record.get("wrapped", [])
        self.spans = record["spans"]
        #: The process the benchmark launched (not a forked pool worker).
        self.main = any(s["layer"] == "import" for s in self.spans)

    def duration(self, layer: str) -> List[float]:
        return [s["t1"] - s["t0"] for s in self.spans if s["layer"] == layer]

    def outermost(self, layer: str) -> List[dict]:
        """Spans of ``layer`` not nested in another span of ``layer``."""
        index = {s["i"]: s for s in self.spans}
        out = []
        for span in self.spans:
            if span["layer"] != layer:
                continue
            parent = index.get(span["parent"])
            nested = False
            while parent is not None:
                if parent["layer"] == layer:
                    nested = True
                    break
                parent = index.get(parent["parent"])
            if not nested:
                out.append(span)
        return out


def load(span_dir: Path) -> List[Process]:
    processes = []
    for path in sorted(Path(span_dir).glob("spans-*.json")):
        record = json.loads(path.read_text())
        processes.append(Process(record))
    return processes


def self_times(process: Process) -> Dict[str, float]:
    """Layer -> summed self time over one process's spans."""
    index = {s["i"]: s for s in process.spans}
    covered: Dict[int, float] = {}
    for span in process.spans:
        parent = span["parent"]
        if parent in index:
            covered[parent] = covered.get(parent, 0.0) + span["t1"] - span["t0"]
    out: Dict[str, float] = {}
    for span in process.spans:
        own = span["t1"] - span["t0"] - covered.get(span["i"], 0.0)
        out[span["layer"]] = out.get(span["layer"], 0.0) + own
    return out


def request_id(process: Process, span: dict) -> Optional[str]:
    index = {s["i"]: s for s in process.spans}
    while span is not None:
        if span.get("rid"):
            return span["rid"]
        span = index.get(span["parent"])
    return None


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def _sum(spans) -> float:
    return sum(s["t1"] - s["t0"] for s in spans)


def _med(values) -> float:
    values = [v for v in values if v is not None]
    return stats.median(values) if values else 0.0


class TracedIteration:
    """The spans of one traced iteration, grouped by role."""

    def __init__(self, iteration) -> None:
        self.iteration = iteration
        self.processes = load(iteration.span_dir)

    def role(self, role: str, main: Optional[bool] = None) -> List[Process]:
        return [
            p for p in self.processes
            if p.role == role and (main is None or p.main == main)
        ]

    def spans(self, role: str, layer: str, outermost: bool = True) -> List[dict]:
        out = []
        for process in self.role(role):
            out.extend(
                process.outermost(layer) if outermost
                else [s for s in process.spans if s["layer"] == layer]
            )
        return out

    def daemon(self) -> Process:
        return next(p for p in self.role("daemon") if p.main)

    def workers(self) -> List[Process]:
        return self.role("daemon", main=False)


def per_layer(bench) -> Dict[str, tuple]:
    """Every per-layer metric of a ``--trace 1`` run: name -> (value, unit)."""
    traced = [TracedIteration(it) for it in bench.iterations if it.traced]
    plain = [it for it in bench.iterations if not it.traced]
    values: Dict[str, List[float]] = {name: [] for name in PER_LAYER_UNITS}
    wrapped = set()

    for t in traced:
        it = t.iteration
        for process in t.processes:
            wrapped.update(process.wrapped)
        runner_import = it.imports.get("repro.experiments.runner", {})
        values["import.runner_s"].append(runner_import.get("total_s"))
        values["import.scipy_s"].append(runner_import.get("scipy_s"))
        values["import.client_s"].append(
            it.imports.get("repro.serve.cli", {}).get("total_s")
        )

        # -- the plain and the checked fig8 command ----------------------
        fig8_main = t.role("cli-fig8", main=True)
        values["runner.run_request_s"].append(
            _sum(s for p in fig8_main for s in p.outermost("runner.run_request"))
        )
        values["parallel.map_s"].append(
            _sum(s for p in fig8_main for s in p.outermost("parallel.map"))
        )
        evaluations = t.spans("cli-fig8", "autotune.evaluate")
        values["autotune.evaluations"].append(len(evaluations))
        values["autotune.busy_s"].append(_sum(evaluations))
        runs = t.spans("cli-checked", "schedule.run")
        values["schedule.runs"].append(len(runs))
        values["schedule.busy_s"].append(_sum(runs))
        for role, name in (("cli-fig8", "schedule.macro_share.fig8"),
                           ("cli-checked", "schedule.macro_share.fig8_checked")):
            role_runs = t.spans(role, "schedule.run")
            hits = [s for s in t.spans(role, "schedule.macro", False) if s.get("hit")]
            values[name].append(len(hits) / len(role_runs) if role_runs else 0.0)
        sims = t.spans("cli-checked", "sim.run")
        values["sim.events"].append(sum(s.get("events", 0) for s in sims))
        values["sim.busy_s"].append(_sum(sims))
        optimize = t.spans("cli-fig8", "model.optimize")
        values["model.optimize_calls"].append(len(optimize))
        values["model.optimize_s"].append(_sum(optimize))
        values["model.oracle_s"].append(_sum(t.spans("cli-checked", "model.oracle")))
        values["obs.manifest_write_s"].append(
            _med([s["t1"] - s["t0"] for s in t.spans("cli-checked", "obs.manifest_write")])
        )

        # -- the serve session -----------------------------------------
        daemon = t.daemon()
        workers = t.workers()
        values["obs.index_append_s"].append(_med(
            [d for w in workers for d in w.duration("obs.index_append")]
        ))
        loads = daemon.outermost("obs.index_load")
        values["obs.index_load_s"].append(_med([s["t1"] - s["t0"] for s in loads]))
        values["obs.index_lines_read"].append(_med([s.get("lines", 0) for s in loads]))
        refreshes = daemon.outermost("serve.cache.refresh")
        values["serve.cache.refreshes"].append(len(refreshes))
        refresh_s = _med([s["t1"] - s["t0"] for s in refreshes])
        values["serve.cache.refresh_s"].append(refresh_s)
        miss_p50 = _med(it.samples["miss_s"])
        values["serve.cache.refresh_share"].append(refresh_s / miss_p50 if miss_p50 else 0.0)
        submitted = it.stats["cache_hits"] + it.stats["cache_misses"]
        values["serve.cache.hit_ratio"].append(it.stats["cache_hits"] / submitted)
        submits = daemon.outermost("serve.submit")
        values["serve.submit_block_max_s"].append(
            max((s["t1"] - s["t0"] for s in submits), default=0.0)
        )
        protocol_per_submit: Dict[int, float] = {}
        index = {s["i"]: s for s in daemon.spans}
        for span in daemon.spans:
            if span["layer"] != "serve.protocol":
                continue
            parent = index.get(span["parent"])
            if parent is not None and parent["layer"] == "serve.submit":
                protocol_per_submit[parent["i"]] = (
                    protocol_per_submit.get(parent["i"], 0.0) + span["t1"] - span["t0"]
                )
        values["serve.protocol_s"].append(_med(list(protocol_per_submit.values())))

        jobs = {job["job_id"]: job for job in it.jobs}
        stream_ids = {job["job_id"] for job in it.miss_jobs[3:]}
        execs = [
            s for w in workers for s in w.outermost("serve.worker.execute_job")
        ]
        values["serve.queue.wait_s"].append(_med([
            jobs[j]["started_unix"] - jobs[j]["submitted_unix"]
            for j in stream_ids if jobs.get(j, {}).get("started_unix")
        ]))
        values["serve.pool.dispatch_s"].append(_med([
            s["wall0"] - jobs[s["rid"]]["started_unix"]
            for s in execs if s.get("rid") in stream_ids
        ]))
        # The first job's worker imports the runner while unpickling the
        # call, before execute_job starts: time it from dispatch.
        first = min(execs, key=lambda s: s["t0"]) if execs else None
        values["serve.pool.first_exec_s"].append(
            first["wall0"] + first["t1"] - first["t0"]
            - jobs[first["rid"]]["started_unix"]
            if first and first.get("rid") in jobs else 0.0
        )
        values["serve.worker.exec_s"].append(_med([
            s["t1"] - s["t0"] for s in execs if s.get("rid") in stream_ids
        ]))
        values["serve.jobs_executed"].append(len(execs))
        values["serve.duplicate_execs"].append(duplicate_execs(execs, jobs))
        values["client.submit_s"].append(_med(it.samples["submit_s"]))
        values["obs.sla_p95_rel_err"].append(sla_error(it))

    overhead = (
        stats.median([t.iteration.wall for t in traced])
        / stats.median([it.wall for it in plain]) - 1.0
    ) * 100.0
    not_wrapped = sorted(
        {f"{module}.{path}" for module, path, _layer in TARGETS} - wrapped
    )
    metrics = {}
    for name, unit in PER_LAYER_UNITS.items():
        if name == "trace.overhead_pct":
            metrics[name] = (overhead, unit)
        elif name == "trace.not_wrapped":
            metrics[name] = (float(len(not_wrapped)), unit)
        else:
            metrics[name] = (_med(values[name]), unit)
    print_self_time_tables(bench, traced)
    if not_wrapped:
        print("not wrapped: " + ", ".join(not_wrapped))
    return metrics


def duplicate_execs(execs: List[dict], jobs: Dict[str, dict]) -> int:
    """Executions that started while another execution of the same cache
    key was in flight."""
    by_key: Dict[str, List[dict]] = {}
    for span in execs:
        key = jobs.get(span.get("rid"), {}).get("cache_key")
        if key:
            by_key.setdefault(key, []).append(span)
    count = 0
    for spans in by_key.values():
        spans.sort(key=lambda s: s["t0"])
        for before, after in zip(spans, spans[1:]):
            if after["t0"] < before["t1"]:
                count += 1
    return count


def sla_error(iteration) -> float:
    """Largest |daemon SLA p95 - exact p95| / exact p95 of
    ``serve.total_s`` over the workloads the daemon reports."""
    total = iteration.stats.get("sla", {}).get("total_s", {})
    by_workload: Dict[str, List[float]] = {}
    for job in iteration.jobs:
        if job["state"] != "done":
            continue
        workload = job["request"].get("workload") or "mergesort"
        by_workload.setdefault(workload, []).append(
            job["finished_unix"] - job["submitted_unix"]
        )
    errors = []
    for workload, entry in total.items():
        samples = by_workload.get(workload)
        if not samples or entry.get("p95") is None:
            continue
        exact = stats.percentile(samples, 95)
        if exact > 0:
            errors.append(abs(entry["p95"] - exact) / exact)
    return max(errors, default=0.0)


# ----------------------------------------------------------------------
# self-time tables
# ----------------------------------------------------------------------
def _table(title: str, total: float, rows: Dict[str, float]) -> None:
    print(f"-- self time: {title} (total {total:.3f} s)")
    explained = 0.0
    for layer, seconds in sorted(rows.items(), key=lambda kv: -kv[1]):
        explained += seconds
        print(f"   {layer:<28} {seconds:9.4f} s {100 * seconds / total:6.1f} %")
    rest = total - explained
    print(f"   {'unexplained':<28} {rest:9.4f} s {100 * rest / total:6.1f} %")


def print_self_time_tables(bench, traced: List[TracedIteration]) -> None:
    """One table per traced command and one for the served misses."""
    for role, sample in (("cli-fig8", "fig8_s"), ("cli-checked", "fig8_checked_s"),
                         ("cli-ping", "client_ping_s")):
        rows: Dict[str, float] = {}
        workers: Dict[str, float] = {}
        total = 0.0
        for t in traced:
            total += sum(t.iteration.samples[sample])
            for process in t.role(role):
                target = rows if process.main else workers
                for layer, seconds in self_times(process).items():
                    target[layer] = target.get(layer, 0.0) + seconds
        if total > 0:
            _table(f"{bench.workload} {role}", total, rows)
            for layer, seconds in sorted(workers.items()):
                print(f"   (in pool workers, inside parallel.map) {layer}: {seconds:.4f} s")

    rows = {}
    total = 0.0
    for t in traced:
        it = t.iteration
        latency = dict(zip(
            (job["job_id"] for job in it.miss_jobs[3:]), it.samples["miss_s"]
        ))
        jobs = {job["job_id"]: job for job in it.jobs}
        total += sum(latency.values())
        for process in [t.daemon(), *t.workers()]:
            index = {s["i"]: s for s in process.spans}
            covered: Dict[int, float] = {}
            for span in process.spans:
                if span["parent"] in index:
                    covered[span["parent"]] = (
                        covered.get(span["parent"], 0.0) + span["t1"] - span["t0"]
                    )
            for span in process.spans:
                if request_id(process, span) not in latency:
                    continue
                own = span["t1"] - span["t0"] - covered.get(span["i"], 0.0)
                rows[span["layer"]] = rows.get(span["layer"], 0.0) + own
        # Queue wait counted from the end of the submit call, which
        # already covers the cache lookup.
        submit_end = {
            s["rid"]: s["wall0"] + s["t1"] - s["t0"]
            for s in t.daemon().outermost("serve.submit") if s.get("rid")
        }
        for job_id in latency:
            job = jobs.get(job_id, {})
            if job.get("started_unix") and job_id in submit_end:
                rows["serve.queue (wait)"] = rows.get("serve.queue (wait)", 0.0) + max(
                    0.0, job["started_unix"] - submit_end[job_id]
                )
    if total > 0:
        _table(f"{bench.workload} served miss (client A)", total, rows)
