"""Run one nilcone CLI command in this interpreter with layer spans recorded.

Usage: python3 tracer.py SPANS_JSON RUN_ID -- <nilcone arguments...>

Wraps the layer-boundary functions listed in TARGETS, runs the CLI exactly
as ``python3 -m nilcone.cli`` would, keeps every span in memory and writes
them to SPANS_JSON when the command ends.  Nothing is written to stdout
except the command's own output, so its hash can be compared with the
untraced run.  Hot private helpers (``PartitionTable._count``,
``WeightMultiplicities._value``, the vector arithmetic of ``rootsys``) are
deliberately not wrapped: they run millions of times and a wrapper there
would dominate the measurement.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time

# (layer, module[:class], attribute, observer): the layer boundaries the
# benchmark's commands cross.  A name rebound by ``from ... import`` is
# patched where the caller looks it up (graded.enumerate_group,
# graded.weyl_dim, cli.parallel_series), because patching the defining
# module does not reach that copy.  WeightMultiplicities is patched on the
# class, the same object cli.WeightMultiplicities names.
TARGETS = [
    ("rootsys", "nilcone.rootsys", "build", None),
    ("rootsys", "nilcone.rootsys:RootSystem", "dominant_below", None),
    ("weyl", "nilcone.weyl", "enumerate_group", "group_order"),
    ("weyl", "nilcone.graded", "enumerate_group", "group_order"),
    ("weyl", "nilcone.weyl", "_load_group_cache", "cache_hit"),
    ("partition", "nilcone.partition", "load_table", None),
    ("partition", "nilcone.partition:PartitionTable", "p", None),
    ("partition", "nilcone.partition:PartitionTable", "save", "cache_bytes"),
    ("partition", "nilcone.partition:PartitionTable", "extend_from", "records_loaded"),
    ("graded", "nilcone.graded:GradedCalculator", "__init__", None),
    ("graded", "nilcone.graded:GradedCalculator", "euler_mult", None),
    ("graded", "nilcone.graded:GradedCalculator", "nilcone_mult", None),
    ("graded", "nilcone.graded:GradedCalculator", "subregular_mult", None),
    ("graded", "nilcone.graded:GradedCalculator", "series", None),
    ("graded", "nilcone.graded:GradedCalculator", "nilcone_series", None),
    ("graded", "nilcone.graded:GradedCalculator", "induced_series", None),
    ("graded", "nilcone.graded:GradedCalculator", "subregular_series", None),
    ("graded", "nilcone.graded:GradedCalculator", "sweep_domain", None),
    ("graded", "nilcone.graded:GradedCalculator", "hilbert_series", None),
    ("graded", "nilcone.cli", "parallel_series", None),
    ("multiplicity", "nilcone.multiplicity:WeightMultiplicities", "__init__", None),
    ("multiplicity", "nilcone.multiplicity:WeightMultiplicities", "at", None),
    ("multiplicity", "nilcone.graded", "weyl_dim", None),
    ("cli", "nilcone.cli", "make_calculator", None),
    ("cli", "nilcone.cli", "persist_tables", None),
]


class Tracer:
    """Spans as [name, start, end, parent index] plus named counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, int] = {}
        self.missing: list[str] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, observe=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()
            if observe is not None:
                observe(self, result)
            return result

        return traced

    def add(self, counter: str, value: int) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + value

    def peak(self, counter: str, value: int) -> None:
        self.counters[counter] = max(self.counters.get(counter, 0), value)


OBSERVERS = {
    "group_order": lambda t, group: t.peak("weyl.group_order", group.order),
    "cache_hit": lambda t, group: t.add("weyl.cache_hit", int(group is not None)),
    "records_loaded": lambda t, n: t.add("partition.records_loaded", n),
    "cache_bytes": lambda t, path: t.add("partition.cache_bytes", os.path.getsize(path)),
}


def install(tracer: Tracer, tables: list) -> None:
    """Patch every target that exists; record the ones that do not."""
    for layer, where, attr, observer in TARGETS:
        module_name, _, class_name = where.partition(":")
        owner = importlib.import_module(module_name)
        if class_name:
            owner = getattr(owner, class_name, None)
        original = getattr(owner, attr, None) if owner is not None else None
        if original is None:
            tracer.missing.append(f"{where}.{attr}")
            continue
        qualname = f"{class_name}.{attr}" if class_name else attr
        setattr(owner, attr, tracer.wrap(f"{layer}.{qualname}", original,
                                         OBSERVERS.get(observer)))

    from nilcone import cli, partition

    for command in cli.cli.commands.values():
        if command.callback is not None:
            command.callback = tracer.wrap(f"cli.{command.name}", command.callback)

    # Every table the run creates, so its final height cutoff can be read.
    table_init = partition.PartitionTable.__init__

    @functools.wraps(table_init)
    def remember(self, *args, **kwargs):
        table_init(self, *args, **kwargs)
        tables.append(self)

    partition.PartitionTable.__init__ = remember


def main(argv: list[str]) -> int:
    out_path, run_id, sep, *args = argv
    if sep != "--":
        raise SystemExit("usage: tracer.py SPANS_JSON RUN_ID -- ARGS...")
    start = time.perf_counter()
    from nilcone import cli

    import_s = time.perf_counter() - start
    tracer, tables = Tracer(), []
    install(tracer, tables)
    sys.argv = ["nilcone", *args]
    code = 0
    try:
        cli.main()
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    finally:
        sys.stdout.flush()
        tracer.peak("partition.height_cutoff",
                    max((t.height_cutoff() for t in tables), default=0))
        with open(out_path, "w") as fh:
            json.dump({"run_id": run_id, "import_s": import_s,
                       "spans": tracer.spans, "counters": tracer.counters,
                       "missing": tracer.missing}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
