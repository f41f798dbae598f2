"""``repro serve`` exits promptly on SIGINT and takes its workers along.

A daemon that ignored SIGINT while its shard workers outlived it used
to show up about once in 25 runs, so one boot proves little: the
daemon is booted, loaded and interrupted ten times in a row.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

from repro.serve import ServeClient

ROOT = Path(__file__).resolve().parents[2]
BOOTS = 10
EXIT_WITHIN_S = 5.0


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except OSError:
        return False
    return True


def _boot_load_interrupt(env: dict) -> list[int]:
    daemon = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            str(ROOT / "specs" / "queue.spec"),
            "--workers", "2", "--port", "0",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
        env=env,
    )
    try:
        banner = daemon.stdout.readline()
        assert banner.startswith("serving "), banner
        port = int(banner.rsplit(":", 1)[1])
        with ServeClient("127.0.0.1", port, timeout=10.0, retries=0) as client:
            outcomes = client.normalize(
                text=["FRONT(ADD(ADD(NEW, 'a'), 'b'))", "FRONT(NEW)"] * 4,
                spec="Queue",
            )
            assert len(outcomes) == 8
            pids = client.readyz()["specs"]["Queue"]["worker_pids"]
        assert len(pids) == 2
        daemon.send_signal(signal.SIGINT)
        daemon.wait(timeout=EXIT_WITHIN_S)
        return pids
    finally:
        if daemon.poll() is None:
            daemon.kill()
            daemon.wait()
        daemon.stdout.close()


def test_sigint_exits_promptly_and_reaps_workers():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for _ in range(BOOTS):
        pids = _boot_load_interrupt(env)
        # The daemon joined its workers before exiting; give the kernel
        # a moment only in case a pid is still being torn down.
        deadline = time.monotonic() + 1.0
        while any(_alive(pid) for pid in pids) and time.monotonic() < deadline:
            time.sleep(0.02)
        assert not [pid for pid in pids if _alive(pid)]
