"""One `permdfa verify` campaign in a fresh interpreter, timed by phase.

Usage:
    python3 perfbench/campaign.py RESULT.json [--bases M,N]
        [--trace | --probe BYTES] [--setup-only] -- verify ARGS...

The phases are set-up (importing the package, then enumerating the bases of
the listed degrees, which `harness.enumerate_bases` caches per process) and
the campaign itself (`permdfa.cli.main` with ARGS). The timings, exit code
and peak RSS are written to RESULT.json. The package must be importable, for
example through PYTHONPATH=src.

With --trace, the functions that `permdfa.harness` calls in the perm, product
and automaton modules are wrapped before set-up, as are
`VerificationRecord.tsv_row` and the report file's `write`. Each wrapped call
is a span; a span's self time is its duration minus that of the wrapped
calls made inside it. Spans are aggregated per name, not stored one by one,
because an exhaustive campaign makes millions of them.

With --probe BYTES, a fixed reference loop is timed all through the process,
so that its times can be scaled to a host of fixed speed (see
perfbench/README.md, "Machine drift"): three times before the import, three
after set-up, three after the campaign, and during the campaign whenever
REFERENCE_EVERY_S seconds of campaign work have passed since the last time.
The campaign is reached through the report file: it is opened with text and
write buffers of BYTES bytes over a raw file that, on each flush, times the
loop if it is due. The rows themselves go through the C buffers as usual.
The loop's own time is left out of setup_s and campaign_s and reported as
reference_spent_s; reference_speed is the mean of REFERENCE_S divided by
the loop's times.
"""

import io
import json
import resource
import sys
import time

# Span name -> (module under permdfa, function name).
TRACED = {
    "perm.generation_test": ("perm", "_images_generate_symmetric"),
    "perm.bases_conjugate": ("perm", "bases_conjugate"),
    "product.direct_product": ("product", "direct_product"),
    "product.pair_graph": ("product", "pair_graph"),
    "product.has_distinguishing_pair": ("product", "has_distinguishing_pair"),
    "automaton.from_basis": ("automaton", "from_basis"),
    "automaton.reachable_states": ("automaton", "reachable_states"),
    "automaton.moore_complexity": ("automaton", "moore_complexity"),
    "automaton.distinguishability_complexity":
        ("automaton", "distinguishability_complexity"),
    "harness.enumerate_bases": ("harness", "enumerate_bases"),
}


class Span:
    __slots__ = ("calls", "self_s", "counts")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.counts = {}

    def add(self, key, amount=1):
        self.counts[key] = self.counts.get(key, 0) + amount


class Tracer:
    """Per-name call counts and self times, plus the counts behind ratios."""

    def __init__(self):
        self.spans = {}
        # Time covered by wrapped calls, one entry per open span; the bottom
        # entry belongs to the root span around the campaign.
        self.child_time = [0.0]
        self.tested_pairs = set()
        self.moore_actions = None
        self.moore_masks = set()

    def span(self, name):
        return self.spans.setdefault(name, Span())

    def wrap(self, name, fn, observe=None):
        span = self.span(name)
        child_time = self.child_time
        clock = time.perf_counter

        def traced(*args, **kwargs):
            t0 = clock()
            child_time.append(0.0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                span.calls += 1
                span.self_s += t1 - t0 - child_time.pop()
            if observe is not None:
                observe(span, args, result)
            # Observer time is charged to no span.
            child_time[-1] += clock() - t0
            return result

        return traced

    def observe_generation_test(self, span, args, result):
        images = args[0]
        key = tuple(tuple(img) for img in images)
        if key in self.tested_pairs:
            span.add("repeats")
        else:
            self.tested_pairs.add(key)
            span.add("first_tests")
            if result:
                span.add("first_accepts")

    def observe_bases_conjugate(self, span, args, result):
        if result is not None:
            span.add("hits")

    def observe_pair_graph(self, span, args, result):
        span.add("vertices", len(result.vertices))

    def observe_moore_complexity(self, span, args, result):
        actions, _, mask, state_count = args[:4]
        if actions is not self.moore_actions:
            # A new pair context; hold a reference so its id is not reused.
            self.moore_actions = actions
            self.moore_masks = set()
        key = min(mask, mask ^ ((1 << state_count) - 1))
        if key not in self.moore_masks:
            self.moore_masks.add(key)
            span.add("distinct_masks")

    def install(self, package):
        """Rebind every traced function wherever the package binds it."""
        modules = [m for name, m in sys.modules.items()
                   if name == package.__name__
                   or name.startswith(package.__name__ + ".")]
        observers = {
            "perm.generation_test": self.observe_generation_test,
            "perm.bases_conjugate": self.observe_bases_conjugate,
            "product.pair_graph": self.observe_pair_graph,
            "automaton.moore_complexity": self.observe_moore_complexity,
        }
        missing = []
        for name, (module_name, attr) in TRACED.items():
            original = getattr(getattr(package, module_name), attr, None)
            if original is None:
                missing.append(name)
                continue
            wrapped = self.wrap(name, original, observers.get(name))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)
        harness = package.harness
        record = harness.VerificationRecord
        record.tsv_row = self.wrap("harness.tsv_row", record.tsv_row)
        harness.open = self.traced_open
        if missing:
            print("trace: not found, reported as zero: " + ", ".join(missing),
                  file=sys.stderr)

    def traced_open(self, *args, **kwargs):
        return TracedFile(open(*args, **kwargs), self)


class TracedFile:
    """A text file whose writes are spans named harness.write."""

    def __init__(self, fh, tracer):
        self._fh = fh
        span = tracer.span("harness.write")
        timed = tracer.wrap("harness.write", fh.write)

        def write(text):
            span.add("bytes", len(text))
            return timed(text)

        self.write = write

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return self._fh.__exit__(*exc)

    def __getattr__(self, name):
        return getattr(self._fh, name)


# The reference loop: fixed interpreter work, unrelated to permdfa. Its unit,
# REFERENCE_S, is about its time on the baseline host when that host is
# quiet; changing the loop or the unit changes every time metric.
REFERENCE_LOOPS = 10_000
REFERENCE_S = 0.001
REFERENCE_EVERY_S = 0.02
EDGE_SAMPLES = 3


def reference_loop():
    total = 0
    table = {}
    for i in range(REFERENCE_LOOPS):
        total += i * i % 7
        table[i & 255] = total
    return total


class Probe:
    """Timed runs of the reference loop, spread through the process."""

    def __init__(self):
        self.speeds = []
        self.spent_s = 0.0
        self.last = time.perf_counter()

    def sample(self, count=1):
        for _ in range(count):
            start = time.perf_counter()
            reference_loop()
            self.last = time.perf_counter()
            self.speeds.append(REFERENCE_S / (self.last - start))
            self.spent_s += self.last - start

    def sample_if_due(self):
        if time.perf_counter() - self.last >= REFERENCE_EVERY_S:
            self.sample()


class ProbedRaw(io.RawIOBase):
    """A raw report file that gives the probe a chance on every write, that
    is, on every flush of the buffers above it."""

    def __init__(self, path, probe):
        super().__init__()
        self._file = io.FileIO(path, "w")
        self._probe = probe

    def writable(self):
        return True

    def write(self, data):
        written = self._file.write(data)
        self._probe.sample_if_due()
        return written

    def close(self):
        self._file.close()
        super().close()


def probed_opener(buffer_bytes, probe):
    """An `open` for the harness namespace that probes while reports are
    written."""
    def opener(file, mode="r", *args, encoding=None, **kwargs):
        if mode != "w" or args or kwargs:
            return open(file, mode, *args, encoding=encoding, **kwargs)
        raw = ProbedRaw(file, probe)
        text = io.TextIOWrapper(io.BufferedWriter(raw, buffer_bytes),
                                encoding=encoding)
        text._CHUNK_SIZE = buffer_bytes
        return text
    return opener


def peak_rss_kib():
    """Peak resident set of this process since it started the interpreter.

    ru_maxrss is not that on Linux: exec keeps the high-water mark of the
    image it replaces, so a child started by a large parent inherits the
    parent's size. VmHWM in /proc/self/status belongs to the new image.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main(argv):
    sep = argv.index("--")
    own, verify_args = argv[:sep], argv[sep + 1:]
    result_path = own[0]
    degrees = ()
    if "--bases" in own:
        degrees = [int(d) for d in own[own.index("--bases") + 1].split(",")]
    trace = "--trace" in own
    probe_bytes = int(own[own.index("--probe") + 1]) if "--probe" in own \
        else 0
    probe = Probe() if probe_bytes else None
    if probe is not None:
        probe.sample(EDGE_SAMPLES)

    t0 = time.perf_counter()
    import permdfa
    import permdfa.cli
    t_import = time.perf_counter()
    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install(permdfa)
    if probe is not None:
        permdfa.harness.open = probed_opener(probe_bytes, probe)
    for degree in degrees:
        permdfa.harness.enumerate_bases(degree)
    t_setup = time.perf_counter()
    out = {"import_s": t_import - t0, "setup_s": t_setup - t0}
    if probe is not None:
        probe.sample(EDGE_SAMPLES)
    if tracer is not None:
        tracer.child_time[0] = 0.0
    if "--setup-only" not in own:
        spent_before = probe.spent_s if probe is not None else 0.0
        t_campaign = time.perf_counter()
        try:
            code = permdfa.cli.main(verify_args)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        campaign_s = time.perf_counter() - t_campaign
        if probe is not None:
            campaign_s -= probe.spent_s - spent_before
        out["campaign_s"] = campaign_s
        out["exit_code"] = code
        if tracer is not None:
            out["root_self_s"] = campaign_s - tracer.child_time[0]
            out["spans"] = {
                name: {"calls": s.calls, "self_s": s.self_s, **s.counts}
                for name, s in tracer.spans.items()}
    else:
        code = 0
    out["maxrss_kib"] = peak_rss_kib()
    if probe is not None:
        probe.sample(EDGE_SAMPLES)
        out["reference_spent_s"] = probe.spent_s
        out["reference_speed"] = sum(probe.speeds) / len(probe.speeds)
        out["reference_samples"] = len(probe.speeds)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
