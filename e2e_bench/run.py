"""End-to-end benchmark of the repro CLI and serve daemon, as users run them.

Usage (from the repository root)::

    python3 e2e_bench/run.py --workload serve_warm --seed 1 --seconds 58 --trace 0

One run repeats *iterations* until ``--seconds`` are used up.  Every
iteration boots a fresh daemon (``python -m repro.serve.cli serve``) on
a results tree rebuilt the same way, times its first miss, warms every
pool worker, then drives two closed-loop clients over a seeded request
stream in three chunks.  After each chunk, with the daemon idle, it runs
one cold command-line program as a fresh process: ``repro-serve ping``,
``repro-experiments --fast fig8``, ``repro-experiments --fast fig8
--check-model``.  All outputs are checked.  The last stdout line is one
JSON object with the end-to-end metrics (``--trace 0``) or the per-layer
metrics (``--trace 1``, which alternates untraced and traced iterations
of the same inputs and launches the traced ones through ``shim.py``).

Everything is written under ``.e2e_bench_tmp/`` in the working
directory, which is removed at exit.  See ``README.md`` for the
workloads, the metrics and what each per-layer metric should move.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import select
import shutil
import socket
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

sys.dont_write_bytecode = True
BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import inputs  # noqa: E402
import spans as span_analysis  # noqa: E402
import stats  # noqa: E402

WORKLOADS = {
    # name: whether every session's tree starts with the synthetic index
    "serve_warm": False,
    "serve_big_index": True,
}

#: Client B's pause between operations, like a polling dashboard.
CLIENT_B_PAUSE_S = 0.02
TMP_NAME = ".e2e_bench_tmp"
REFERENCE = BENCH_DIR / "reference" / "fig8_fast.txt"
PROCESS_TIMEOUT_S = 120.0


class BenchError(RuntimeError):
    """A failed operation or output check."""


# ----------------------------------------------------------------------
# the daemon's wire protocol (JSON lines over a unix socket)
# ----------------------------------------------------------------------
def call(sock_path: str, message: dict, timeout: float = PROCESS_TIMEOUT_S) -> dict:
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
        sock.settimeout(timeout)
        sock.connect(sock_path)
        sock.sendall(
            (json.dumps(message, sort_keys=True, separators=(",", ":")) + "\n")
            .encode()
        )
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
            if chunk.endswith(b"\n"):
                break
    reply = json.loads(b"".join(chunks) or b"{}")
    if not reply.get("ok"):
        raise BenchError(f"daemon refused {message.get('op')}: {reply}")
    return reply


def submit_and_wait(sock_path: str, request: dict):
    """Submit one request and long-poll it to a terminal state.

    Returns ``(latency_s, submit_round_trip_s, job_snapshot)``.
    """
    t0 = time.perf_counter()
    job = call(sock_path, {"op": "submit", "request": request})["job"]
    t_submit = time.perf_counter() - t0
    if job["state"] not in ("done", "failed", "cancelled"):
        job = call(
            sock_path, {"op": "status", "job_id": job["job_id"], "wait": True}
        )["job"]
    return time.perf_counter() - t0, t_submit, job


# ----------------------------------------------------------------------
# processes
# ----------------------------------------------------------------------
def _children(pid: int):
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return []
    out = []
    for tid in tasks:
        try:
            with open(f"/proc/{pid}/task/{tid}/children") as fh:
                out.extend(int(c) for c in fh.read().split())
        except OSError:
            pass
    return out


def tree_hwm(root_pid: int, peaks: dict) -> None:
    """Fold each live process's RSS high-water mark (VmHWM) into
    ``peaks`` (pid -> bytes) for the tree under ``root_pid``."""
    stack = [root_pid]
    while stack:
        pid = stack.pop()
        try:
            with open(f"/proc/{pid}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        kib = int(line.split()[1])
                        peaks[pid] = max(peaks.get(pid, 0), kib * 1024)
                        break
        except OSError:
            continue
        stack.extend(_children(pid))


class Programs:
    """Launches the program's entry points, untraced or through the shim."""

    ENTRY = {
        "repro.experiments.runner": "repro.experiments.runner:main",
        "repro.serve.cli": "repro.serve.cli:main",
    }

    def __init__(self, root: Path) -> None:
        src = str(root / "src")
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
        self.env.pop("E2E_SPAN_DIR", None)

    def command(self, module: str, args, traced: bool):
        if traced:
            return [sys.executable, str(BENCH_DIR / "shim.py"), self.ENTRY[module], *args]
        return [sys.executable, "-m", module, *args]

    def environ(self, span_dir, role):
        if span_dir is None:
            return self.env
        return dict(self.env, E2E_SPAN_DIR=str(span_dir), E2E_ROLE=role)

    def run_timed(self, cmd, cwd: Path, env) -> tuple:
        """Run one fresh process to completion.

        Returns ``(wall_s, returncode, stdout, peak_tree_rss_bytes)``.
        Waits on the stdout pipe, so the end time is taken when the
        process closes it at exit; RSS high-water marks are sampled every
        25 ms meanwhile.
        """
        peaks: dict = {}
        t0 = time.perf_counter()
        with open(cwd / "stderr.txt", "ab") as err:
            proc = subprocess.Popen(
                cmd, cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=err,
                stdin=subprocess.DEVNULL,
            )
        out = []
        fd = proc.stdout.fileno()
        deadline = t0 + PROCESS_TIMEOUT_S
        try:
            while True:
                ready, _, _ = select.select([fd], [], [], 0.025)
                if ready:
                    data = os.read(fd, 65536)
                    if not data:
                        break
                    out.append(data)
                else:
                    tree_hwm(proc.pid, peaks)
                    if time.perf_counter() > deadline:
                        raise BenchError(f"timed out: {' '.join(cmd)}")
            returncode = proc.wait(timeout=PROCESS_TIMEOUT_S)
            wall = time.perf_counter() - t0
        finally:
            proc.stdout.close()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        return wall, returncode, b"".join(out).decode(), sum(peaks.values())


# ----------------------------------------------------------------------
# one iteration: a serve session plus the cold command-line programs
# ----------------------------------------------------------------------
class Iteration:
    def __init__(self, bench: "Bench", index: int, session: int, traced: bool):
        self.bench = bench
        self.session = session
        self.traced = traced
        self.dir = bench.tmp / f"it{index}-{'traced' if traced else 'plain'}"
        self.results = self.dir / "results"
        self.sock = os.path.relpath(self.dir / "s.sock")
        self.span_dir = self.dir / "spans" if traced else None
        self.inputs = inputs.session_inputs(bench.seed, session)
        self.samples = {k: [] for k in (
            "setup_s", "first_miss_s", "miss_s", "hit_s", "ping_s",
            "submit_s", "client_ping_s", "fig8_s", "fig8_checked_s",
        )}
        self.jobs: list = []
        self.miss_jobs: list = []
        self.hit_jobs: list = []
        self.a_elapsed = 0.0
        self.rss = 0
        self.stats: dict = {}
        self.fig8_tables: list = []
        self.wall = 0.0
        self.imports: dict = {}

    # -- helpers -------------------------------------------------------
    def _ok(self, condition: bool, what: str) -> None:
        self.bench.attempted += 1
        if not condition:
            self.bench.fail(what)

    def _cli(self, module, args, role, cwd: Path):
        cwd.mkdir(parents=True, exist_ok=True)
        programs = self.bench.programs
        return programs.run_timed(
            programs.command(module, args, self.traced),
            cwd,
            programs.environ(self.span_dir, role),
        )

    # -- phases ----------------------------------------------------------
    def run(self) -> None:
        t0 = time.perf_counter()
        self.results.mkdir(parents=True)
        if self.span_dir is not None:
            self.span_dir.mkdir()
        if self.bench.big_index:
            (self.results / "index.jsonl").write_text(self.bench.index_text)
        daemon = self._boot()
        try:
            self._first_and_warmup()
            # Client A's stream is cut into one chunk per cold program,
            # and each program runs, with the daemon idle, after its
            # chunk.  The misses are then sampled across the whole
            # iteration rather than in one window of it, so a slow spell
            # of the host weighs on them about as much as on the rest.
            stream = self.inputs["stream"]
            programs = (self._cli_ping, self._cli_fig8, self._cli_checked)
            size = -(-len(stream) // len(programs))
            for i, program in enumerate(programs):
                self._timed_phase(stream[i * size:(i + 1) * size])
                program()
            self._collect()
            peaks: dict = {}
            tree_hwm(daemon.pid, peaks)
            self.rss = max(self.rss, sum(peaks.values()))
            call(self.sock, {"op": "shutdown"})
            daemon.wait(timeout=PROCESS_TIMEOUT_S)
            self._ok(daemon.returncode == 0, "daemon exited non-zero")
        finally:
            if daemon.poll() is None:
                daemon.kill()
                daemon.wait()
        if self.traced:
            self._import_probes()
        self.wall = time.perf_counter() - t0

    def _boot(self):
        programs = self.bench.programs
        cmd = programs.command(
            "repro.serve.cli",
            ["serve", "--socket", "s.sock", "--results-dir", "results"],
            self.traced,
        )
        with open(self.dir / "daemon.out", "wb") as out:
            t0 = time.perf_counter()
            daemon = subprocess.Popen(
                cmd, cwd=self.dir, env=programs.environ(self.span_dir, "daemon"),
                stdout=out, stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL,
            )
        deadline = t0 + PROCESS_TIMEOUT_S
        while True:
            if daemon.poll() is not None:
                raise BenchError("daemon exited during start-up")
            if os.path.exists(self.sock):
                try:
                    call(self.sock, {"op": "ping"}, timeout=5.0)
                    break
                except (OSError, BenchError):
                    pass
            if time.perf_counter() > deadline:
                daemon.kill()
                raise BenchError("daemon did not answer ping")
            time.sleep(0.002)
        self.samples["setup_s"].append(time.perf_counter() - t0)
        self.bench.attempted += 1
        return daemon

    def _miss(self, request: dict, label: str):
        latency, submit_s, job = submit_and_wait(self.sock, request)
        self.miss_jobs.append(job)
        self._ok(
            job["state"] == "done" and not job["cache_hit"],
            f"{label} did not end done as a miss: {job['state']} {job.get('error')}",
        )
        return latency, submit_s

    def _first_and_warmup(self) -> None:
        latency, _ = self._miss(self.inputs["first"], "first miss")
        self.samples["first_miss_s"].append(latency)
        # One miss per pool worker, submitted together so both run.
        jobs = [
            call(self.sock, {"op": "submit", "request": r})["job"]
            for r in self.inputs["warmup"]
        ]
        for job in jobs:
            job = call(
                self.sock, {"op": "status", "job_id": job["job_id"], "wait": True}
            )["job"]
            self.miss_jobs.append(job)
            self._ok(
                job["state"] == "done" and not job["cache_hit"],
                f"warm-up miss ended {job['state']}",
            )

    def _timed_phase(self, stream) -> None:
        """Client A sends ``stream`` (all misses) while client B runs."""
        stop = threading.Event()
        errors: list = []

        def client_b() -> None:
            hits = self.inputs["hits"]
            i = 0
            try:
                while not stop.is_set():
                    if i % 2 == 0:
                        t0 = time.perf_counter()
                        job = call(
                            self.sock,
                            {"op": "submit", "request": hits[(i // 2) % len(hits)]},
                        )["job"]
                        self.samples["hit_s"].append(time.perf_counter() - t0)
                        self.hit_jobs.append(job)
                    else:
                        t0 = time.perf_counter()
                        call(self.sock, {"op": "ping"})
                        self.samples["ping_s"].append(time.perf_counter() - t0)
                    i += 1
                    stop.wait(CLIENT_B_PAUSE_S)
            except Exception as exc:  # noqa: BLE001 - reported as a failure
                errors.append(repr(exc))

        thread = threading.Thread(target=client_b, name="client-b")
        thread.start()
        try:
            t0 = time.perf_counter()
            for request in stream:
                latency, submit_s = self._miss(request, "stream miss")
                self.samples["miss_s"].append(latency)
                self.samples["submit_s"].append(submit_s)
            self.a_elapsed += time.perf_counter() - t0
        finally:
            stop.set()
            thread.join(timeout=PROCESS_TIMEOUT_S)
        self._ok(not errors and not thread.is_alive(), f"client B failed: {errors}")

    def _collect(self) -> None:
        """Job table and stats after the timed phase, with the checks."""
        self.stats = call(self.sock, {"op": "stats"})["stats"]
        self._ok(
            self.stats.get("executor", "process") == "process",
            f"daemon fell back to a {self.stats.get('executor')} executor",
        )
        missed_runs = {job["run_id"] for job in self.miss_jobs}
        for job in self.hit_jobs:
            self._ok(
                job["state"] == "done" and job["cache_hit"]
                and job["run_id"] in missed_runs,
                f"planned hit not served from this session's runs: {job}",
            )
        planned = len(self.hit_jobs) / (len(self.hit_jobs) + len(self.miss_jobs))
        submitted = self.stats["cache_hits"] + self.stats["cache_misses"]
        self._ok(
            submitted == len(self.hit_jobs) + len(self.miss_jobs)
            and abs(self.stats["cache_hits"] / submitted - planned) < 1e-12,
            f"hit share {self.stats['cache_hits']}/{submitted} != planned",
        )
        executed: dict = {}
        for job in self.miss_jobs:
            executed[job["cache_key"]] = executed.get(job["cache_key"], 0) + 1
        self._ok(
            all(count == 1 for count in executed.values()),
            "a cache key was executed more than once",
        )
        self.jobs = call(self.sock, {"op": "list"})["jobs"]

    def _cli_ping(self) -> None:
        wall, code, out, rss = self._cli(
            "repro.serve.cli", ["ping", "--socket", "s.sock"], "cli-ping", self.dir,
        )
        self.rss = max(self.rss, rss)
        self._ok(code == 0 and '"pong": true' in out, "repro-serve ping failed")
        self.samples["client_ping_s"].append(wall)

    def _cli_fig8(self) -> None:
        wall, code, out, rss = self._cli(
            "repro.experiments.runner", ["--fast", "fig8"], "cli-fig8",
            self.dir / "cli-fig8",
        )
        self.rss = max(self.rss, rss)
        self._ok(
            code == 0 and out == self.bench.reference,
            "fig8 table differs from the reference",
        )
        self.samples["fig8_s"].append(wall)
        self.fig8_tables.append(out)

    def _cli_checked(self) -> None:
        wall, code, out, rss = self._cli(
            "repro.experiments.runner", ["--fast", "fig8", "--check-model"],
            "cli-checked", self.dir / "cli-checked",
        )
        self.rss = max(self.rss, rss)
        table, _, tail = out.partition("conformance:")
        self._ok(
            code == 0 and table == self.bench.reference
            and tail.startswith(" ok "),
            "checked fig8 table or conformance verdict is wrong",
        )
        self.samples["fig8_checked_s"].append(wall)
        self.fig8_tables.append(table)

    def _import_probes(self) -> None:
        for module in ("repro.experiments.runner", "repro.serve.cli"):
            proc = subprocess.run(
                [sys.executable, "-X", "importtime", "-c", f"import {module}"],
                env=self.bench.programs.env, cwd=self.dir,
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                timeout=PROCESS_TIMEOUT_S,
            )
            self._ok(proc.returncode == 0, f"import {module} failed")
            self.imports[module] = span_analysis.parse_importtime(
                proc.stderr.decode(), module
            )

    def manifests(self) -> dict:
        """cache key -> manifest dict of every executed job."""
        out = {}
        for job in self.miss_jobs:
            path = self.dir / "results" / job["run_id"] / "manifest.json"
            out[job["cache_key"]] = json.loads(path.read_text())
        return out


# ----------------------------------------------------------------------
# the run
# ----------------------------------------------------------------------
class Bench:
    def __init__(self, args, root: Path) -> None:
        self.workload = args.workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = bool(args.trace)
        self.big_index = WORKLOADS[args.workload]
        self.root = root
        self.tmp = root / TMP_NAME / f"run-{os.getpid()}-{time.time_ns()}"
        self.programs = Programs(root)
        self.reference = REFERENCE.read_text()
        self.index_text = (
            "\n".join(inputs.synthetic_index_lines(args.seed)) + "\n"
            if self.big_index else ""
        )
        self.attempted = 0
        self.failures: list = []
        self.iterations: list = []

    def fail(self, what: str) -> None:
        self.failures.append(what)
        print(f"FAILED: {what}", file=sys.stderr, flush=True)

    # -- preparation ------------------------------------------------------
    def prepare(self) -> None:
        """Untimed: compile and page in the program, check the inputs."""
        self.tmp.mkdir(parents=True)
        sys.path.insert(0, str(self.root / "src"))
        subprocess.run(
            [sys.executable, "-c",
             "import repro.experiments.runner, repro.serve.cli, repro.serve.daemon"],
            env=self.programs.env, cwd=self.tmp, check=True,
            timeout=PROCESS_TIMEOUT_S,
        )
        from repro.serve.protocol import validate_request
        from repro.workloads import get as get_workload

        for session in range(inputs.DIGEST_SESSIONS):
            data = inputs.session_inputs(self.seed, session)
            for request in [data["first"], *data["warmup"], *data["stream"]]:
                validate_request(request)
                min_n = get_workload(request["workload"]).min_n
                if min(request["n"]) < min_n:
                    raise BenchError(f"request below min_n: {request}")

    # -- iterations -------------------------------------------------------
    def run(self) -> None:
        # The clients allocate little; keep collector passes over the
        # objects the preparation created out of the timed phases.
        gc.freeze()
        start = time.perf_counter()
        session = 0
        while True:
            plans = [(session, False)]
            if self.trace:
                plans.append((session, True))
            for session_index, traced in plans:
                iteration = Iteration(self, len(self.iterations), session_index, traced)
                self.iterations.append(iteration)
                iteration.run()
                self.check_direct(iteration)
                if traced:
                    self.check_traced_identity(self.iterations[-2], iteration)
                print(
                    f"iteration {len(self.iterations)} "
                    f"({'traced' if traced else 'untraced'}, session {session_index}):"
                    f" {iteration.wall:.2f} s",
                    file=sys.stderr, flush=True,
                )
            session += 1
            elapsed = time.perf_counter() - start
            per_round = elapsed / session
            # Three sessions at least, so miss_p90_s has enough samples.
            if session >= 3 and elapsed + per_round / 2 >= self.seconds:
                break

    def check_direct(self, iteration: Iteration) -> None:
        """A seeded sample of served manifests equals a direct
        ``run_request`` of the same request, volatile keys aside."""
        from repro.experiments.runner import RunSpec, run_request

        rng = random.Random(f"e2e-bench-direct/{self.seed}/{iteration.session}")
        request = rng.choice(iteration.inputs["stream"])
        served = next(
            job for job in iteration.miss_jobs
            if job["request"].get("seed") == request["seed"]
        )
        served_manifest = json.loads(
            (iteration.dir / "results" / served["run_id"] / "manifest.json")
            .read_text()
        )
        sweep = {k: request[k] for k in ("platform", "n", "alphas", "workload", "seed")}
        outcome = run_request(
            RunSpec(
                fast=True, jobs=1, manifest=True, sweep=sweep,
                workload=request["workload"],
                results_dir=iteration.dir / "direct",
            )
        )
        direct = json.loads(Path(outcome.manifest_path).read_text())
        iteration._ok(
            self.stable(direct) == self.stable(served_manifest),
            f"served manifest differs from a direct run: {request}",
        )

    def check_traced_identity(self, plain: Iteration, traced: Iteration) -> None:
        """Wrapping must not change results: the traced iteration's fig8
        tables and served manifests equal the untraced ones of the same
        inputs, volatile keys aside."""

        def stable(manifests):
            return {key: self.stable(m) for key, m in manifests.items()}

        traced._ok(
            traced.fig8_tables == plain.fig8_tables
            and stable(traced.manifests()) == stable(plain.manifests()),
            "traced and untraced outputs differ",
        )

    @staticmethod
    def stable(manifest: dict) -> dict:
        """A manifest without the keys that differ between identical runs."""
        try:
            from repro.obs.cli import VOLATILE_KEYS
        except ImportError:
            VOLATILE_KEYS = frozenset(
                {"run_id", "created_unix", "argv", "outputs", "machine",
                 "python_version", "host_cpus", "jobs"}
            )
        return {k: v for k, v in manifest.items() if k not in VOLATILE_KEYS}

    # -- results ---------------------------------------------------------
    def pooled(self, name: str) -> list:
        """Samples of one operation kind over the untraced iterations."""
        return [
            sample for it in self.iterations if not it.traced
            for sample in it.samples[name]
        ]

    def end_to_end(self) -> dict:
        def med(name):
            return stats.median(self.pooled(name))

        plain = [it for it in self.iterations if not it.traced]
        return {
            "setup_s": (med("setup_s"), "s"),
            "peak_rss_mb": (stats.median([it.rss for it in plain]) / 1e6, "MB"),
            "fig8_s": (med("fig8_s"), "s"),
            "fig8_checked_s": (med("fig8_checked_s"), "s"),
            "client_ping_s": (med("client_ping_s"), "s"),
            "first_miss_s": (med("first_miss_s"), "s"),
            "miss_p50_s": (med("miss_s"), "s"),
            "miss_p90_s": (stats.pct_if_supported(self.pooled("miss_s"), 90), "s"),
            # Each session's rate, then the median over sessions, so one
            # session caught in a slow spell of the host does not move it.
            "ops_per_s": (
                stats.median([len(it.inputs["stream"]) / it.a_elapsed for it in plain]),
                "1/s",
            ),
        }

    def report(self) -> None:
        """Human-readable table of every measurement, before the JSON."""
        print(f"workload {self.workload} seed {self.seed} trace {int(self.trace)}")
        print(f"input digest {inputs.input_digest(self.seed, self.big_index)}")
        print(f"{'operation':<16} {'count':>6} {'p50':>10} {'tail':>16}")
        for name in ("setup_s", "first_miss_s", "miss_s", "submit_s", "hit_s",
                     "ping_s", "client_ping_s", "fig8_s", "fig8_checked_s"):
            summary = stats.summarize(self.pooled(name))
            tail = (
                f"p{summary['tail_pct']}={summary['tail']:.4f}"
                if summary["tail"] is not None else "-"
            )
            p50 = f"{summary['p50']:.4f}" if summary["p50"] is not None else "-"
            print(f"{name:<16} {summary['count']:>6} {p50:>10} {tail:>16}")


def snapshot(root: Path) -> dict:
    """(size, mtime) of every checkout file outside bytecode caches and
    the benchmark's temp tree."""
    out = {}
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = [
            d for d in dirnames if d not in ("__pycache__", TMP_NAME)
        ]
        for name in filenames:
            path = os.path.join(dirpath, name)
            try:
                st = os.lstat(path)
            except OSError:
                continue
            out[os.path.relpath(path, root)] = (st.st_size, st.st_mtime_ns)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "experiments" / "runner.py").is_file():
        print("e2e_bench: run from a repository checkout (src/repro missing)",
              file=sys.stderr)
        return 2
    before = snapshot(root)
    bench = Bench(args, root)
    metrics = None
    try:
        bench.prepare()
        bench.run()
        bench.report()
        metrics = span_analysis.per_layer(bench) if bench.trace else bench.end_to_end()
    except Exception as exc:  # noqa: BLE001 - reported, then cleaned up
        traceback.print_exc()
        bench.fail(f"run aborted: {exc!r}")
    finally:
        shutil.rmtree(bench.tmp, ignore_errors=True)
        try:
            (root / TMP_NAME).rmdir()
        except OSError:
            pass
    bench.attempted += 1
    after = snapshot(root)
    if after != before:
        changed = sorted(k for k in set(before) | set(after) if before.get(k) != after.get(k))
        bench.fail(f"the checkout changed during the run: {changed[:5]}")
    if metrics is None or any(value is None for value, _unit in metrics.values()):
        print("e2e_bench: no result", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
