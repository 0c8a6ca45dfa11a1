"""Running one operation as a cold child process and checking its output.

An operation fails on a nonzero exit, a timeout, a failed check in its
report, unequal bracketings, or an output digest that differs from the
golden digest recorded for its input.
"""

from __future__ import annotations

import hashlib
import json
import os
import select
import signal
import sys
import time
from dataclasses import dataclass, field

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(BENCH_DIR, "child.py")
CALIBRATE = os.path.join(BENCH_DIR, "calibrate.py")
GOLDEN = os.path.join(BENCH_DIR, "golden.json")
MENU_COSTS = os.path.join(BENCH_DIR, "menu_costs.json")
SCRATCH = os.path.join(ROOT, ".perfbench_out")

# compute-J checks that must be present and pass; the last two are the
# semi-classical cross-checks made under --compare.
J_REQUIRED_CHECKS = (
    "support-upper-triangular",
    "entries-divisible-by-hbar",
    "entries-in-l",
    "unipotent-diagonal",
    "constant-part-equals-jc",
    "asymptotic-recomputation-agrees",
)


@dataclass
class OpResult:
    key: str
    wall_s: float
    setup_s: float | None
    rss_mb: float
    timed_out: bool
    stdout_bytes: int
    meta: dict = field(default_factory=dict)
    error: str | None = None
    digest: str | None = None
    convention: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


def child_env() -> dict:
    """The parent's environment without WALG_THREADS, importing src/."""
    env = {k: v for k, v in os.environ.items() if k != "WALG_THREADS"}
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = SRC + (os.pathsep + extra if extra else "")
    return env


def _digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def check_output(workload: str, out: bytes) -> tuple[str, str | None]:
    """(digest, matched convention) of one output; raises ValueError when
    the output itself reports a failure."""
    data = json.loads(out)
    if workload == "t-generators":
        return _digest(data), None
    if workload == "triple-fusion":
        if data["associative"] is not True:
            raise ValueError("bracketings differ for triple %r" % (data["triple"],))
        return data["digest"], None
    names = [c["name"] for c in data["checks"]]
    failed = [c["name"] for c in data["checks"] if c["status"] != "pass"]
    if failed:
        raise ValueError("failed checks: %s" % ", ".join(failed))
    meta = data["meta"]
    if workload == "canonical-J":
        missing = [n for n in J_REQUIRED_CHECKS if n not in names]
        if missing:
            raise ValueError("missing checks: %s" % ", ".join(missing))
        convention = meta["semiclassical"]["matched_convention"]
    else:
        convention = meta.get("semiclassical_convention")
    payload = dict(data)
    payload["checks"] = [{k: v for k, v in c.items() if k != "seconds"} for c in data["checks"]]
    return _digest(payload), convention


def _spawn_wait(args: list, env: dict, out_fd: int, err_fd: int, timeout: float):
    """Spawn one child, wait for it (killing it at the timeout) and return
    (wall seconds from spawn to exit, wait status, rusage, timed out)."""
    t0 = time.perf_counter()
    pid = os.posix_spawn(
        sys.executable,
        args,
        env,
        file_actions=[(os.POSIX_SPAWN_DUP2, out_fd, 1), (os.POSIX_SPAWN_DUP2, err_fd, 2)],
    )
    pidfd = os.pidfd_open(pid)
    try:
        ready, _, _ = select.select([pidfd], [], [], timeout)
        timed_out = not ready
        if timed_out:
            signal.pidfd_send_signal(pidfd, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
    finally:
        os.close(pidfd)
    return time.perf_counter() - t0, status, usage, timed_out


def calibrate(env: dict, timeout: float = 30.0) -> float:
    """Wall seconds, spawn to exit, of one cold ``calibrate.py`` child."""
    with open(os.devnull, "wb") as sink:
        wall, status, _, timed_out = _spawn_wait(
            [sys.executable, CALIBRATE], env, sink.fileno(), sink.fileno(), timeout
        )
    if timed_out or os.waitstatus_to_exitcode(status) != 0:
        raise RuntimeError("calibration child failed (status %d)" % status)
    return wall


def run_op(
    workload: str,
    key: str,
    argv: list,
    expected: str | None,
    timeout: float,
    trace: bool = False,
    op_id: int = 0,
    env: dict | None = None,
) -> OpResult:
    """Spawn one child, wait for it (killing it at the timeout) and check it."""
    os.makedirs(SCRATCH, exist_ok=True)
    tag = "%d-%d" % (os.getpid(), op_id)
    out_path = os.path.join(SCRATCH, "op-%s.out" % tag)
    err_path = os.path.join(SCRATCH, "op-%s.err" % tag)
    meta_path = os.path.join(SCRATCH, "op-%s.meta.json" % tag)
    if os.path.exists(meta_path):
        os.unlink(meta_path)
    args = [sys.executable, CHILD, meta_path, "1" if trace else "0", str(op_id), "--"] + argv
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t_wall = time.time()
        wall, status, usage, timed_out = _spawn_wait(
            args, env if env is not None else child_env(), out.fileno(), err.fileno(), timeout
        )
    code = os.waitstatus_to_exitcode(status)
    with open(out_path, "rb") as fh:
        out = fh.read()
    meta = {}
    if os.path.exists(meta_path):
        with open(meta_path, encoding="utf-8") as fh:
            meta = json.load(fh)
    res = OpResult(
        key=key,
        wall_s=wall,
        setup_s=meta["import_done"] - t_wall if "import_done" in meta else None,
        rss_mb=usage.ru_maxrss / 1024.0,
        timed_out=timed_out,
        stdout_bytes=len(out),
        meta=meta,
    )
    if timed_out:
        res.error = "timeout after %.1f s" % timeout
    elif meta.get("walg_threads_set"):
        res.error = "WALG_THREADS was set in the child"
    elif code != 0:
        with open(err_path, "rb") as fh:
            tail = fh.read()[-400:].decode("utf-8", "replace")
        res.error = "exit code %d: %s" % (code, tail.strip())
    else:
        try:
            res.digest, res.convention = check_output(workload, out)
        except (ValueError, KeyError, TypeError) as exc:
            res.error = "bad output: %s" % exc
        else:
            if expected is None:
                res.error = "no golden digest for %s" % key
            elif res.digest != expected:
                res.error = "digest mismatch for %s" % key
    for path in (out_path, err_path, meta_path):
        if os.path.exists(path):
            os.unlink(path)
    return res


def environment() -> dict:
    """Python, CPU and source identity recorded with every result."""
    import platform
    import subprocess

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    tree = hashlib.sha256()
    pkg = os.path.join(SRC, "walgebra")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                tree.update(name.encode() + b"\0" + fh.read())
    with open(os.path.join(pkg, "__init__.py"), encoding="utf-8") as fh:
        version = next(
            (line.split("=", 1)[1].strip().strip("\"'") for line in fh if line.startswith("__version__")),
            None,
        )
    return {
        "python": platform.python_version(),
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "walgebra_version": version,
        "commit": commit,
        "src_sha256": tree.hexdigest(),
    }
