"""In-memory span tracing around calls into smoothcert's layers.

Spans are taken only from outside the library: through the API's injection
points (the base classifier, the ``transform`` callable and the smoothing
distribution object) and by temporarily replacing the public names that the
pipeline modules import from each other.  :meth:`Tracer.installed` restores
every replaced name on exit, and a replacement target that no longer exists
is recorded in :attr:`Tracer.absent` instead of raising.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import Counter
from dataclasses import dataclass, field

from stats import self_time

REQUEST = "request"


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    children: list = field(default_factory=list)

    def self_times(self, into: Counter) -> None:
        """Add this subtree's self time per span name into ``into``."""
        into[self.name] += self_time(self.start, self.end, [(c.start, c.end) for c in self.children])
        for child in self.children:
            child.self_times(into)

    def inclusive(self, into: Counter) -> None:
        into[self.name] += self.end - self.start
        for child in self.children:
            child.inclusive(into)


@dataclass
class Record:
    """One traced root span (a request or a set-up) with its counts."""

    root: Span
    counts: Counter

    def self_times(self) -> Counter:
        out = Counter()
        self.root.self_times(out)
        return out

    def inclusive(self) -> Counter:
        out = Counter()
        self.root.inclusive(out)
        return out

    @property
    def duration(self) -> float:
        return self.root.end - self.root.start


class Tracer:
    def __init__(self) -> None:
        self.records: list[Record] = []
        self.absent: list[str] = []
        self._stack: list[Span] = []
        self._counts = Counter()

    @contextlib.contextmanager
    def span(self, name: str):
        node = Span(name, time.perf_counter())
        if self._stack:
            self._stack[-1].children.append(node)
        self._stack.append(node)
        try:
            yield node
        finally:
            node.end = time.perf_counter()
            self._stack.pop()

    @contextlib.contextmanager
    def root(self, name: str = REQUEST):
        """A top-level span with its own counts, kept as a :class:`Record`."""
        if self._stack:
            raise RuntimeError("root spans cannot nest")
        self._counts = Counter()
        with self.span(name) as node:
            yield
        self.records.append(Record(node, self._counts))

    def count(self, name: str, amount) -> None:
        self._counts[name] += amount

    def count_max(self, name: str, amount) -> None:
        self._counts[name] = max(self._counts[name], amount)

    def inside(self, prefix: str) -> bool:
        return any(s.name.startswith(prefix) for s in self._stack)

    def wrap(self, name: str, fn, on_call=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(*args, **kwargs)
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    @contextlib.contextmanager
    def installed(self, targets):
        """Replace ``(owner, attribute, span name, on_call)`` targets for the block."""
        saved = []
        try:
            for owner, attr, name, on_call in targets:
                label = f"{getattr(owner, '__name__', owner)}.{attr}"
                original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
                if original is None:
                    if label not in self.absent:
                        self.absent.append(label)
                    continue
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, on_call))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def library_targets(tracer: Tracer):
    """Public names the pipeline modules import, with the layer each belongs to."""
    import smoothcert.multicert as multicert
    import smoothcert.realistic as realistic
    import smoothcert.runtime as runtime
    from smoothcert.rng import SeededSampler

    def on_uniforms(_sampler, count, start=0):
        tracer.count("rng.draws", count)
        if tracer.inside("multicert."):
            tracer.count("multicert.mc_draws", count)

    def on_clopper_pearson(*_args, **_kwargs):
        tracer.count("certify.clopper_pearson_calls", 1)

    def on_conversion_error(*_args, **_kwargs):
        tracer.count("transforms.conversion_error_calls", 1)

    def on_gamma_correct(x, _gamma):
        tracer.count_max("transforms.stack_mb", 8 * getattr(x, "size", 0) / 1e6)

    return [
        (SeededSampler, "uniforms", "rng.uniforms", on_uniforms),
        (runtime, "clopper_pearson", "certify.clopper_pearson", on_clopper_pearson),
        (realistic, "clopper_pearson", "certify.clopper_pearson", on_clopper_pearson),
        (runtime, "certify_rayleigh_closed_form", "certify.interval", None),
        (runtime, "certify_inverse_rayleigh", "certify.interval", None),
        (runtime, "log_space_radius", "certify.interval", None),
        (realistic, "certify_rayleigh", "certify.interval", None),
        (realistic, "gamma_correct", "transforms.power", on_gamma_correct),
        (realistic, "conversion_error", "transforms.conversion_error", on_conversion_error),
        (realistic, "quantile_upper_confidence", "realistic.quantile_bound", None),
        (multicert, "solve_thresholds", "multicert.solve_thresholds", None),
    ]


class Injection:
    """The objects a workload hands to the API; identity when not tracing."""

    def __init__(self, tracer: Tracer | None = None) -> None:
        self.tracer = tracer

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer else contextlib.nullcontext()

    def classifier(self, base):
        return base if self.tracer is None else TracedClassifier(base, self.tracer)

    def transform(self, fn):
        if self.tracer is None:
            return fn
        tracer = self.tracer

        def on_call(x, factors):
            rows = len(factors)
            tracer.count_max("transforms.stack_mb", 8 * rows * getattr(x, "size", 1) / 1e6)

        return tracer.wrap("transforms.power", fn, on_call)

    def distribution(self, dist):
        return dist if self.tracer is None else TracedDistribution(dist, self.tracer)


class TracedDistribution:
    """Delegates to a smoothing distribution, spanning :meth:`sample`."""

    def __init__(self, dist, tracer: Tracer) -> None:
        self._dist = dist
        self._sample = tracer.wrap("distributions.sample", dist.sample)

    def __getattr__(self, name):
        return getattr(self._dist, name)

    def sample(self, *args, **kwargs):
        return self._sample(*args, **kwargs)


class TracedClassifier:
    """Delegates to a base classifier, spanning and counting :meth:`labels`."""

    def __init__(self, base, tracer: Tracer) -> None:
        self._base = base
        self._tracer = tracer

    @property
    def descriptor(self) -> str:
        return self._base.descriptor

    def labels(self, batch):
        tracer = self._tracer
        tracer.count("runtime.rows_labelled", len(batch))
        if tracer.inside("realistic.certify"):
            tracer.count("realistic.inner_batches", 1)
        with tracer.span("runtime.labels"):
            return self._base.labels(batch)
