"""Drive the real ``repro serve`` daemon: boot, load, scrape, tear down.

The daemon runs as its own process, started exactly as a user would
(``python3 -m repro serve FILE --workers 2 --port 0``), or through
``launcher.py`` for the traced run.  Load comes from this process over
HTTP with :class:`repro.serve.ServeClient` (``retries=0``, so sheds and
errors are counted rather than retried away).
"""

from __future__ import annotations

import os
import re
import select
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path
from time import perf_counter

import inputs
from speed import INTERVAL_S

WORKERS = 2
#: Seconds the load stays on one daemon before it moves to the next.
SLICE_S = 1.0


class DaemonError(RuntimeError):
    pass


def _proc_state(pid: int):
    """The one-letter process state, or None once the pid is gone."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0]
    except (FileNotFoundError, ProcessLookupError, IndexError):
        return None


def _alive(pid: int) -> bool:
    return _proc_state(pid) not in (None, "Z", "X")


def peak_rss_mib(pid: int) -> float:
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise DaemonError(f"no VmHWM for pid {pid}")


class Daemon:
    """One daemon process and its shard workers."""

    def __init__(self, root: Path, work: Path, spans_out=None) -> None:
        spec = str(inputs.SPEC_FILE.relative_to(root))
        serve = ["serve", spec, "--workers", str(WORKERS), "--port", "0"]
        if spans_out is None:
            self.argv = [sys.executable, "-m", "repro", *serve]
        else:
            launcher = str(Path(__file__).resolve().parent / "launcher.py")
            self.argv = [sys.executable, launcher, str(spans_out), *serve]
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.root, self.work = root, work
        self.proc = None
        self.port = None
        self.worker_pids: list[int] = []

    # -- lifecycle ------------------------------------------------------
    def start(self, timeout: float = 60.0) -> float:
        """Launch and wait for ``/readyz``; returns seconds to ready."""
        from repro.serve import ServeClient

        self.log = open(self.work / "daemon.log", "ab")
        started = perf_counter()
        self.proc = subprocess.Popen(
            self.argv, cwd=self.root, env=self.env,
            stdout=subprocess.PIPE, stderr=self.log,
        )
        deadline = started + timeout
        line = self._first_line(deadline)
        match = re.search(r"http://[\d.]+:(\d+)", line)
        if match is None:
            raise DaemonError(f"unexpected daemon banner: {line!r}")
        self.port = int(match.group(1))
        probe = ServeClient(port=self.port, retries=0, timeout=10.0)
        try:
            while True:
                ready = probe.readyz()
                specs = ready.get("specs", {})
                pids = [p for s in specs.values() for p in s.get("worker_pids", [])]
                if (ready["status"] == 200 and len(specs) == len(inputs.SERVE_SPECS)
                        and len(pids) == WORKERS * len(specs)):
                    self.worker_pids = sorted(pids)
                    return perf_counter() - started
                if perf_counter() > deadline:
                    raise DaemonError(f"daemon not ready: {ready}")
                time.sleep(0.005)
        finally:
            probe.close()

    def _first_line(self, deadline: float) -> str:
        out = self.proc.stdout
        buffer = b""
        while not buffer.endswith(b"\n"):
            remaining = deadline - perf_counter()
            if remaining <= 0 or self.proc.poll() is not None:
                raise DaemonError(
                    f"daemon exited or timed out before its banner "
                    f"(exit {self.proc.poll()}); see {self.work / 'daemon.log'}"
                )
            ready, _, _ = select.select([out], [], [], remaining)
            if ready:
                chunk = os.read(out.fileno(), 4096)
                if not chunk:
                    continue
                buffer += chunk
        return buffer.decode()

    def rss_mib(self) -> float:
        """Summed peak RSS of the daemon and its shard workers."""
        return sum(peak_rss_mib(p) for p in [self.proc.pid, *self.worker_pids])

    def stop(self) -> tuple[list[str], list[str]]:
        """SIGINT (the CLI's clean shutdown); a daemon or worker that
        does not exit in time is killed.  Returns ``(unclean, left)``:
        what had to be killed (a shutdown defect of the program,
        reported), and what still survives or holds the port after
        that (a leftover that could disturb the next run, fatal)."""
        unclean, left = [], []
        if self.proc is None:
            return unclean, left
        pids = [self.proc.pid, *self.worker_pids]
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
        try:
            self.proc.wait(timeout=20)
        except subprocess.TimeoutExpired:
            unclean.append("daemon ignored SIGINT for 20 s; killed")
            self.proc.kill()
            self.proc.wait(timeout=10)
        self.proc.stdout.close()
        self.log.close()
        workers = pids[1:]
        if not _gone(workers, 10):
            for pid in workers:
                if _alive(pid):
                    unclean.append(f"worker {pid} outlived the daemon; killed")
                    try:
                        os.kill(pid, signal.SIGKILL)
                    except ProcessLookupError:
                        pass
            if not _gone(workers, 10):
                left.append("a worker survived SIGKILL")
        if self.port is not None and not _port_free(self.port):
            left.append(f"port {self.port} still bound after shutdown")
        self.proc = None
        return unclean, left


def _gone(pids: list[int], timeout: float) -> bool:
    """Wait up to ``timeout`` seconds for every pid to end."""
    deadline = perf_counter() + timeout
    while any(_alive(p) for p in pids):
        if perf_counter() >= deadline:
            return False
        time.sleep(0.02)
    return True


def _port_free(port: int) -> bool:
    probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    try:
        probe.bind(("127.0.0.1", port))
        return True
    except OSError:
        return False
    finally:
        probe.close()


# ----------------------------------------------------------------------
# /metrics
# ----------------------------------------------------------------------
_SAMPLE = re.compile(r'^repro_([a-z0-9_]+?)(?:_total)?(?:\{key="(.*)"\})? (\S+)$')


def scrape(ports: list[int]) -> dict[str, float]:
    """Prometheus text of the daemons on ``ports`` -> ``{name: value}``
    summed over them; labelled series are summed under their family
    name too."""
    from repro.serve import ServeClient

    lines = []
    for port in ports:
        with ServeClient(port=port, retries=0, timeout=10.0) as client:
            lines += client.metrics().splitlines()
    values: dict[str, float] = {}
    for line in lines:
        match = _SAMPLE.match(line)
        if match is None:
            continue
        name, label, value = match.groups()
        values[name] = values.get(name, 0.0) + float(value)
        if label is not None:
            key = f"{name}{{{label}}}"
            values[key] = values.get(key, 0.0) + float(value)
    return values


def delta(before: dict, after: dict, name: str) -> float:
    return after.get(name, 0.0) - before.get(name, 0.0)


# ----------------------------------------------------------------------
# Requests
# ----------------------------------------------------------------------
class TermBuilder:
    """Tuple terms -> ``repro`` terms for the wire, per spec."""

    def __init__(self) -> None:
        from repro.spec.parser import parse_specifications

        specs = parse_specifications(inputs.SPEC_FILE.read_text())
        self.ops = {
            s.name: {op.name: op for op in s.full_signature().operations}
            for s in specs
        }

    def build(self, spec: str, term, sort=None):
        from repro.algebra.terms import Lit, app

        if isinstance(term, str):
            return Lit(term, sort)
        op = self.ops[spec][term[0]]
        return app(op, *(self.build(spec, a, s) for a, s in zip(term[1:], op.domain)))


def observed(outcome):
    """An outcome as the reference model writes values."""
    from repro.algebra.terms import App, Lit

    if outcome.status == "error_value":
        return inputs.ERROR
    if outcome.status != "normalized":
        return f"<{outcome.status}:{outcome.reason}>"
    term = outcome.term
    if isinstance(term, Lit):
        return term.value
    if isinstance(term, App) and not term.args and term.op.name in ("true", "false"):
        return term.op.name == "true"
    return f"<{term}>"


class Load:
    """A closed loop: ``connections`` threads, each with its own
    keep-alive client per daemon, each sending its next request when
    the previous one has returned.

    Every ``INTERVAL_S`` the load pauses until no request is in
    flight.  Daemons of the same code differ in speed by several
    percent, one process to the next, so the load takes turns over
    several: every ``SLICE_S``, at a pause, it moves on to the next.
    """

    def __init__(self, ports: list[int], workload: str, seed: int,
                 connections: int, builder: TermBuilder) -> None:
        self.ports, self.workload, self.seed = ports, workload, seed
        self.connections = connections
        self.builder = builder
        self.make = (
            inputs.serve_small_request if workload == "serve-small"
            else inputs.serve_batch_request
        )
        self.mismatches: list[str] = []

    def run(self, seconds: float, first_index: int, clients=None,
            speed=None) -> dict:
        """Send requests for ``seconds``; returns per-op records.  Pass
        ``clients`` to keep connections across phases.  With ``speed``,
        the load also samples the kernel at every pause; the samples'
        time is left out of ``elapsed``."""
        from repro.serve import ServeClient

        if clients is None:
            clients = [
                [ServeClient(port=port, retries=0, timeout=120.0)
                 for port in self.ports]
                for _ in range(self.connections)
            ]
        gate = threading.Condition()
        state = {"paused": False, "inflight": 0, "daemon": 0}
        counter = iter(range(first_index, first_index + 10**9))
        records: list[list] = [[] for _ in clients]
        crashed: list[Exception] = []
        start = perf_counter()
        stop_at = start + seconds

        def loop(mine, out):
            while True:
                with gate:
                    while state["paused"]:
                        gate.wait()
                    if perf_counter() >= stop_at:
                        return
                    index = next(counter)
                    client = mine[state["daemon"]]
                    state["inflight"] += 1
                try:
                    out.append(self._one(client, index))
                except Exception as exc:
                    crashed.append(exc)
                    return
                finally:
                    with gate:
                        state["inflight"] -= 1
                        gate.notify_all()

        threads = [
            threading.Thread(target=loop, args=(c, r), daemon=True)
            for c, r in zip(clients, records)
        ]
        for thread in threads:
            thread.start()
        pauses = 0
        while perf_counter() < stop_at:
            time.sleep(max(0.0, min(start + pauses * INTERVAL_S, stop_at)
                           - perf_counter()))
            if perf_counter() >= stop_at:
                break
            with gate:
                state["paused"] = True
                while state["inflight"]:
                    gate.wait()
            if speed is not None:
                speed.sample()
            with gate:
                turn = int(pauses * INTERVAL_S // SLICE_S)
                state["daemon"] = turn % len(self.ports)
                state["paused"] = False
                gate.notify_all()
            pauses += 1
        for thread in threads:
            thread.join()
        if crashed:
            raise DaemonError(f"a load thread died: {crashed[0]!r}")
        end = perf_counter()
        return {
            "records": [r for out in records for r in out],
            "elapsed": end - start - (speed.paused if speed else 0.0),
            "start": start,
            "end": end,
            "speed": speed,
            "clients": clients,
        }

    def _one(self, client, index: int) -> tuple:
        from repro.serve.client import ServeError

        request = self.make(self.seed, index)
        spec, items = request["spec"], request["items"]
        if request["text"]:
            payload = {"text": [inputs.render_text(t) for t in items]}
        else:
            payload = {"terms": [self.builder.build(spec, t) for t in items]}
        started = perf_counter()
        try:
            outcomes = client.normalize(spec=spec, **payload)
        except ServeError as exc:
            return (started, perf_counter(), f"{exc.status}:{exc.reason}",
                    False, spec)
        except OSError as exc:
            return (started, perf_counter(), f"transport:{exc}", False, spec)
        except Exception as exc:
            # A malformed reply or a broken HTTP exchange fails the op
            # rather than the connection's thread.
            return (started, perf_counter(),
                    f"client:{type(exc).__name__}:{exc}", False, spec)
        ended = perf_counter()
        wrong = len(outcomes) != len(items)
        for term, outcome in zip(items, outcomes):
            expected = inputs.reference(spec, term)
            got = observed(outcome)
            if got != expected:
                wrong = True
                if len(self.mismatches) < 5:
                    self.mismatches.append(
                        f"{spec} {inputs.render_text(term)[:120]}: "
                        f"served {got!r}, reference {expected!r}"
                    )
        return (started, ended, None, wrong, spec)
