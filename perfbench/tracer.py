"""Outside-in tracer for stochalign.

The tracer never edits the package.  It replaces, for the duration of a
traced run, the module attributes through which the engine and the CLI
reach each layer (for example `stochalign.sim.stretch_values`, the name
`sim` calls), records one span per call, and puts every original back
on `uninstall`.  Spans live in memory as tuples

    (id, parent, pass, thread, name, start, end, extra)

and are written out once, at the end.  `extra` is the number of normals
for a `streams.normal` span and the noise kind for a `streams.substream`
event (a zero-length span marking when a block derives a stream).

Self times are wall-clock: a span's duration minus the union of its
children's intervals.  Spans opened in the engine's worker threads have
no parent on their own thread, so they are parented to the innermost
span open on the main thread, which is the `sim.run*` call that
dispatched them.
"""

import itertools
import threading
from collections import defaultdict
from time import perf_counter

import numpy as np

import stochalign.cli
import stochalign.kalman
import stochalign.policies
import stochalign.sim
import stochalign.streams
import stochalign.structmat

# span name -> per-layer self-time metric it is charged to
SELF_METRIC = {
    "streams.normal": "streams.normal_s",
    "model.stretch": "model.stretch_s",
    "policies.apply": "policies.apply_s",
    "policies.compile": "policies.compile_s",
    "sim.run": "sim.self_s",
    "sim.run_paired": "sim.self_s",
    "sim.sweep_rho": "sim.self_s",
    "kalman.dense_filter": "kalman.dense_filter_s",
    "kalman.closed_form": "kalman.closed_form_s",
    "kalman.schedule": "kalman.schedule_s",
    "structmat.apply": "structmat.apply_s",
    "structmat.to_dense": "structmat.to_dense_s",
    "game.best_response": "game.best_response_s",
    "analysis": "analysis.s",
    "cli.main": "cli.write_s",
}

# span name -> prefix of its call-count and per-call latency metrics
CALL_METRIC = {
    "streams.normal": "streams.normal",
    "model.stretch": "model.stretch",
    "policies.apply": "policies.apply",
}

INIT_KIND = stochalign.streams.INIT


class _TracedGenerator:
    """Stands in for a numpy Generator and times each normal draw."""

    def __init__(self, gen, tracer):
        self._gen = gen
        self._tracer = tracer

    def normal(self, *args, **kwargs):
        start = perf_counter()
        out = self._gen.normal(*args, **kwargs)
        self._tracer.leaf("streams.normal", start, perf_counter(), np.size(out))
        return out

    def __getattr__(self, name):
        return getattr(self._gen, name)


class Tracer:
    def __init__(self):
        self.spans = []
        self.pass_index = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = self._stack()
        self._patches = []

    # -- span recording -------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack):
        if stack:
            return stack[-1]
        main = self._main_stack
        return main[-1] if main else 0

    def leaf(self, name, start, end, extra=0):
        """Record a span that opens no children."""
        parent = self._parent(self._stack())
        self.spans.append((next(self._ids), parent, self.pass_index,
                           threading.get_ident(), name, start, end, extra))

    def call(self, name, fn, *args, **kwargs):
        stack = self._stack()
        parent = self._parent(stack)
        span_id = next(self._ids)
        stack.append(span_id)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            self.spans.append((span_id, parent, self.pass_index,
                               threading.get_ident(), name, start, end, 0))

    # -- wrappers ---------------------------------------------------------

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _wrap(self, owner, attr, name):
        original = getattr(owner, attr)

        def traced(*args, **kwargs):
            return self.call(name, original, *args, **kwargs)

        self._patch(owner, attr, traced)

    def install(self):
        streams, sim, cli = stochalign.streams, stochalign.sim, stochalign.cli
        policies, kalman = stochalign.policies, stochalign.kalman
        structmat = stochalign.structmat
        if self._patches:
            raise RuntimeError("tracer already installed")

        substream = streams.substream

        def traced_substream(seed, block, kind):
            start = perf_counter()
            gen = substream(seed, block, kind)
            self.leaf("streams.substream", start, start, kind)
            return _TracedGenerator(gen, self)

        self._patch(streams, "substream", traced_substream)

        make_policy = sim.make_policy

        def traced_make_policy(*args, **kwargs):
            fn = self.call("policies.compile", make_policy, *args, **kwargs)
            return lambda y, t: self.call("policies.apply", fn, y, t)

        self._patch(sim, "make_policy", traced_make_policy)

        self._wrap(sim, "stretch_values", "model.stretch")
        self._wrap(policies, "apply", "structmat.apply")
        self._wrap(structmat.StructuredMatrix, "to_dense", "structmat.to_dense")
        for method in ("__init__", "alpha", "rho", "alphas", "rhos"):
            self._wrap(kalman.AlphaSchedule, method, "kalman.schedule")
        self._wrap(cli, "dense_filter_path", "kalman.dense_filter")
        self._wrap(cli, "closed_form_filter_state", "kalman.closed_form")
        self._wrap(cli, "best_response", "game.best_response")
        for fn in ("alpha_infty", "rho_star_const"):
            self._wrap(cli, fn, "analysis")
        self._wrap(sim, "var_limit", "analysis")
        self._wrap(sim, "run", "sim.run")
        self._wrap(cli, "run_paired", "sim.run_paired")
        self._wrap(cli, "sweep_rho", "sim.sweep_rho")
        self._wrap(cli, "main", "cli.main")

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def patched(self):
        """(owner, attribute, original) for every wrapper in place."""
        return list(self._patches)

    # -- output -------------------------------------------------------------

    def write(self, path):
        threads = {}
        with open(path, "w") as fh:
            fh.write("id,parent,pass,thread,name,start,end,extra\n")
            for sid, parent, pas, thread, name, start, end, extra in self.spans:
                tid = threads.setdefault(thread, len(threads))
                fh.write(f"{sid},{parent},{pas},{tid},{name},{start:.9f},{end:.9f},{extra}\n")


def _union_length(intervals, lo, hi):
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def _opens_block(span):
    return span[4] == "streams.substream" and span[7] == INIT_KIND


def _percentile(values, q):
    values = sorted(values)
    if not values:
        return 0.0
    return values[min(len(values) - 1, int(q * len(values)))]


def pass_metrics(spans, threads, normals_per_policy):
    """Per-layer numbers of one pass, from that pass's spans."""
    by_id = {s[0]: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        if s[1] in by_id:
            children[s[1]].append(s)

    out = {metric: 0.0 for metric in set(SELF_METRIC.values())}
    for prefix in CALL_METRIC.values():
        out[prefix + "_calls"] = 0
    out["streams.normals_drawn"] = 0
    busy = capacity = wait = 0.0
    blocks = 0
    for s in spans:
        sid, _, _, _, name, start, end, extra = s
        kids = children.get(sid, ())
        metric = SELF_METRIC.get(name)
        if metric is not None:
            out[metric] += (end - start) - _union_length(
                [(k[5], k[6]) for k in kids], start, end)
        if name in CALL_METRIC:
            out[CALL_METRIC[name] + "_calls"] += 1
        if name == "streams.normal":
            out["streams.normals_drawn"] += extra
        if any(_opens_block(k) for k in kids):
            # a dispatching run: each INIT event opens a block on its thread,
            # which stays busy until its last traced call
            capacity += (end - start) * threads
            per_thread = defaultdict(list)
            for k in kids:
                per_thread[k[3]].append(k)
            for seq in per_thread.values():
                seq.sort(key=lambda k: k[5])
                block_start = block_end = None
                for k in seq:
                    if _opens_block(k):
                        if block_start is not None:
                            busy += block_end - block_start
                        block_start = block_end = k[5]
                        wait += k[5] - start
                        blocks += 1
                    elif block_start is not None:
                        block_end = max(block_end, k[6])
                if block_start is not None:
                    busy += block_end - block_start
    out["sim.blocks"] = blocks
    out["sim.block_wait_s"] = wait
    out["sim.parallel_eff"] = busy / capacity if capacity else 0.0
    drawn = out["streams.normals_drawn"]
    out["streams.draw_redundancy"] = drawn / normals_per_policy if normals_per_policy else 0.0
    return out


def call_latencies(spans):
    """p50 and p99 per-call durations, in microseconds, over all given spans."""
    durations = defaultdict(list)
    for s in spans:
        if s[4] in CALL_METRIC:
            durations[s[4]].append((s[6] - s[5]) * 1e6)
    out = {}
    for name, prefix in CALL_METRIC.items():
        values = durations.get(name, [])
        out[prefix + "_p50_us"] = _percentile(values, 0.50)
        out[prefix + "_p99_us"] = _percentile(values, 0.99)
    return out
