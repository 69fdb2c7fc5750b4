"""Command runner, span aggregation and small statistics for the benchmark."""

from __future__ import annotations

import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "cli_child.py"


@dataclass
class CommandResult:
    label: str
    wall_s: float
    rss_mb: float  # peak resident set of the command's process
    code: int
    stdout: bytes
    spans: list | None = None


@dataclass
class Round:
    traced: bool
    results: list[CommandResult] = field(default_factory=list)
    artifacts: dict[str, str] = field(default_factory=dict)  # name -> sha256

    @property
    def wall_s(self) -> float:
        return sum(r.wall_s for r in self.results)

    def by_label(self, label: str) -> CommandResult:
        return next(r for r in self.results if r.label == label)


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_command(label: str, args: list[str], cwd: Path, spans_path: Path | None = None) -> CommandResult:
    """Run ``adrank <args>`` in a fresh interpreter with ``cwd`` as its
    working directory; wall time covers interpreter start-up, as a user's
    command would. Peak RSS is the one the child reports on stderr."""
    cmd = [sys.executable, str(CHILD)]
    if spans_path is not None:
        cmd += ["--spans", str(spans_path), "--label", label]
    cmd += ["--", *args]
    out_path = cwd / f".{label}.stdout"
    err_path = cwd / f".{label}.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, stdout=out, stderr=err, env=child_env())
        try:
            code = proc.wait()
        finally:
            if proc.returncode is None:
                proc.kill()
                proc.wait()
        wall = time.perf_counter() - start
    rss_kb = 0
    for line in err_path.read_text(errors="replace").splitlines():
        if line.startswith("# peak_rss_kb="):
            rss_kb = int(line.split("=")[1])
    spans = None
    if spans_path is not None and spans_path.exists():
        spans = json.loads(spans_path.read_text())
    return CommandResult(label, wall, rss_kb / 1024.0, code, out_path.read_bytes(), spans)


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile, q in [0, 100]; 0.0 when empty."""
    xs = sorted(values)
    if not xs:
        return 0.0
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


class SpanView:
    """Durations by span name over the spans of one traced round.

    Each command's spans form one tree whose root is ``cli.<label>``."""

    def __init__(self, results: list[CommandResult]):
        self.trees = {r.label: r.spans or [] for r in results}

    def durations(self, name: str, labels=None) -> list[float]:
        out = []
        for label, spans in self.trees.items():
            if labels is None or label in labels:
                out += [s[2] - s[1] for s in spans if s[0] == name]
        return out

    def total(self, name: str, labels=None) -> float:
        return sum(self.durations(name, labels))

    def attrs(self, name: str, key: str) -> list:
        return [s[4][key] for spans in self.trees.values() for s in spans if s[0] == name and s[4]]

    def self_time(self, labels) -> float:
        """Root span duration minus the part its direct children cover."""
        total = 0.0
        for label in labels:
            spans = self.trees.get(label) or []
            if not spans:
                continue
            root = spans[0]
            total += (root[2] - root[1]) - sum(s[2] - s[1] for s in spans if s[3] == 0)
        return total
