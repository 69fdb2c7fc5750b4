"""Run one ``adrank`` command in this process, optionally traced.

    python3 cli_child.py [--spans FILE --label NAME] -- <adrank arguments>

Without ``--spans`` this is exactly ``adrank <arguments>``: it calls
``adrank.cli.main`` and exits with its code. With ``--spans`` it first
wraps the library functions the CLI reaches (see ``TARGETS``) with timers,
runs the command under a root span ``cli.<NAME>``, and writes every span
as ``[name, start, end, parent, attrs]`` to FILE when the command ends.
The wrappers only time calls: arguments and results pass through
untouched, so the command's output is the same bytes as without tracing.

Either way the last stderr line is ``# peak_rss_kb=N``, this process's
VmHWM. The parent cannot use its rusage for this: Linux carries the peak
of the address space a process had before exec (the parent's, after fork)
into ``ru_maxrss``.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

# (module, attribute, span name): module-level names the CLI and the
# library look up at call time, so replacing them reaches every caller.
TARGETS = [
    ("corpus", "tokenize", "corpus.tokenize"),
    ("corpus", "build_index", "corpus.build_index"),
    ("corpus", "save_index", "corpus.save_index"),
    ("corpus", "load_index", "corpus.load_index"),
    ("corpus", "read_counts_file", "corpus.read_counts_file"),
    ("ranking", "rank", "ranking.rank"),
    ("evaluation", "_rank", "ranking.rank"),  # cv_tune's alias of rank
    ("ranking", "format_trec_run", "ranking.format_trec_run"),
    ("evaluation", "parse_run", "evaluation.parse_run"),
    ("evaluation", "parse_qrels", "evaluation.parse_qrels"),
    ("evaluation", "evaluate_run", "evaluation.evaluate_run"),
    ("evaluation", "cv_tune", "evaluation.cv_tune"),
    ("selection", "build_vuong_table", "selection.build_vuong_table"),
    ("selection", "mle_fit", "distributions.mle_fit"),
    ("selection", "vuong_nonnested_test", "selection.pairwise"),
    ("selection", "nested_lr_test", "selection.pairwise"),
    ("weighting", "classify_terms", "weighting.classify_terms"),
    ("empirics", "subsample", "empirics.subsample"),
]

_PAGE = os.sysconf("SC_PAGE_SIZE")


def _rss_bytes() -> int:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * _PAGE


class Tracer:
    """Spans kept in memory as lists; the open-span stack gives parents."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, None])
        self._stack.append(idx)
        return idx

    def close(self, idx: int):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name: str):
        if name == "distributions.mle_fit":
            namer = lambda args: f"{name}.{args[0].value}"  # noqa: E731
        else:
            namer = lambda args: name  # noqa: E731
        rss = name == "corpus.load_index"

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            before = _rss_bytes() if rss else 0
            idx = self.open(namer(args))
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)
                if rss:
                    self.spans[idx][4] = {"rss_delta": _rss_bytes() - before}

        return timed

    def install(self):
        import importlib

        for mod_name, attr, name in TARGETS:
            mod = importlib.import_module(f"adrank.{mod_name}")
            fn = getattr(mod, attr, None)
            if fn is not None:
                setattr(mod, attr, self.wrap(fn, name))
        # each metric callable, as evaluate_run and cv_tune look them up
        from adrank import evaluation

        table = getattr(evaluation, "_METRIC_FNS", {})
        for metric, fn in list(table.items()):
            table[metric] = self.wrap(fn, f"evaluation.metric.{metric}")


def main(argv: list[str]) -> int:
    if "--" not in argv:
        print("usage: cli_child.py [--spans FILE --label NAME] -- ARGS", file=sys.stderr)
        return 1
    split = argv.index("--")
    opts = dict(zip(argv[:split:2], argv[1:split:2]))
    try:
        return _run(argv[split + 1 :], opts.get("--spans"), opts.get("--label"))
    finally:
        with open("/proc/self/status") as fh:
            hwm = next(line.split()[1] for line in fh if line.startswith("VmHWM:"))
        print(f"# peak_rss_kb={hwm}", file=sys.stderr)


def _run(cli_args: list[str], spans_path: str | None, label: str | None) -> int:
    from adrank import cli

    if spans_path is None:
        return cli.main(cli_args)
    tracer = Tracer()
    tracer.install()
    root = tracer.open(f"cli.{label}")
    try:
        code = cli.main(cli_args)
    finally:
        tracer.close(root)
        with open(spans_path, "w") as fh:
            json.dump(tracer.spans, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
