"""In-memory span recorder that times refguide's layers from outside.

A span is (name, start, end, parent); every span of one CLI command carries
that command's id. Each wrapper is installed at the attribute its caller
looks up (``attention`` calls the module global ``refguide.kernels.row_softmax``,
the denoiser calls ``refguide.pipeline.matmul``), so the program under test is
not edited and runs unwrapped whenever tracing is off. Spans stay in memory
and are written out once, when the run ends.

Self time is a span's duration minus the time its child spans cover. Calls
are synchronous and single-threaded, so children never overlap and the self
times of one command's spans sum exactly (in integer nanoseconds) to the
command's wall time.
"""

import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

ROOT_SPAN = "cli.main"

# Modules of src/refguide, used as layers. ``bench`` is not measured.
LAYERS = ("cli", "config", "pipeline", "kernels", "linalg", "oracle", "rng", "artifacts")


def _nbytes(*arrays) -> int:
    return sum(int(np.asarray(a).nbytes) for a in arrays)


def _count_softmax(counts, args, result):
    counts["linalg.row_softmax.elements"] += int(args[0].size)


def _count_stack(counts, args, result):
    counts["linalg.stack_rows.bytes"] += int(result.nbytes)


def _count_attention(counts, args, result):
    # Computed, not measured: logits GEMM plus value GEMM, 2*L*S*(d + d_v).
    q, k, v = args[:3]
    length, d = q.shape
    counts["kernels.flops"] += 2 * length * k.shape[0] * (d + v.shape[1])
    counts["kernels.bytes"] += _nbytes(q, k, v, result)


def _count_coefficient(counts, args, result):
    # Computed: one logits GEMM per partition, 2*L*(S_ref + S_self)*d.
    q, k_ref, k_self = args[:3]
    length, d = q.shape
    counts["kernels.flops"] += 2 * length * (k_ref.shape[0] + k_self.shape[0]) * d
    counts["kernels.bytes"] += _nbytes(q, k_ref, k_self, result)


def _count_written(counts, args, result):
    size = Path(result).stat().st_size
    if Path(result).suffix == ".raw":
        size += Path(result).with_suffix(".json").stat().st_size
    counts["artifacts.write.bytes"] += size


# Counters computed from operand shapes and file sizes, not measured; they
# repeat exactly from run to run.
COMPUTED_METRICS = (
    "kernels.flops", "kernels.bytes", "linalg.row_softmax.elements",
    "linalg.stack_rows.bytes", "artifacts.write.bytes",
)

# Spans whose duration is kernel busy time, the base of kernels.gflops_per_s.
# They are where kernels.flops is counted, and never nest in each other.
FLOP_SPANS = ("kernels.attention", "kernels.concat_coefficient_vector")

_KERNEL_FUNCTIONS = (
    ("attention", _count_attention),
    ("concat_attention", None),
    ("rfg_attention", None),
    ("rfg_multi", None),
    ("rfg_matrix", None),
    ("guidance_form", None),
    ("concat_coefficient_vector", _count_coefficient),
    ("build_rank1_coefficient", None),
)

# (module looked up by the caller, attribute, span name, layer of the callee, counter)
WRAP_POINTS = (
    ("cli", "parse_config", "config.parse_config", "config", None),
    ("cli", "generate_batch", "pipeline.generate_batch", "pipeline", None),
    ("cli", "trajectory_distance", "pipeline.trajectory_distance", "pipeline", None),
    ("cli", "run_equivalence_suite", "oracle.run_equivalence_suite", "oracle", None),
    ("cli", "write_json", "artifacts.write", "artifacts", _count_written),
    ("cli", "write_raw", "artifacts.write", "artifacts", _count_written),
    ("cli", "write_pgm", "artifacts.write", "artifacts", _count_written),
    ("cli", "write_sweep_csv", "artifacts.write", "artifacts", _count_written),
    ("pipeline", "init_denoiser", "pipeline.init_denoiser", "pipeline", None),
    ("pipeline", "initial_noise", "pipeline.initial_noise", "pipeline", None),
    ("pipeline", "denoise_step", "pipeline.denoise_step", "pipeline", None),
    ("pipeline", "matmul", "pipeline.matmul", "linalg", None),
    ("pipeline", "frobenius_norm", "pipeline.frobenius_norm", "linalg", None),
    ("pipeline", "AttentionInputs", "pipeline.AttentionInputs", "kernels", None),
    ("pipeline", "stream", "rng.stream", "rng", None),
    ("pipeline", "uniform_matrix", "rng.uniform_matrix", "rng", None),
    ("kernels", "matmul", "linalg.matmul", "linalg", None),
    ("kernels", "row_softmax", "linalg.row_softmax", "linalg", _count_softmax),
    ("kernels", "stack_rows", "linalg.stack_rows", "linalg", _count_stack),
    *(
        (module, fn, f"kernels.{fn}", "kernels", counter)
        for module in ("kernels", "oracle")
        for fn, counter in _KERNEL_FUNCTIONS
    ),
    ("oracle", "naive_concat_attention", "oracle.naive_concat_attention", "oracle", None),
    ("oracle", "stream", "rng.stream", "rng", None),
)

# apply_policy gets one span name per policy kind: kernels.apply_policy.<kind>.
POLICY_WRAP_POINT = ("pipeline", "apply_policy")


class Tracer:
    """Installs wrappers, records spans per command, and keeps run totals.

    ``modules`` maps the short module names used in WRAP_POINTS to the
    imported ``refguide.<name>`` modules.
    """

    def __init__(self, modules, clock=time.perf_counter_ns):
        self._modules = modules
        self._clock = clock
        self.names = []
        self.layer_of = []
        self._ids = {}
        # Spans of the command in flight; cleared, never replaced, so the
        # wrapper closures can hold the lists themselves.
        self._name, self._parent, self._start, self._end = [], [], [], []
        self._stack = [-1]
        self._counts = Counter()
        self._originals = []
        # Every span of the run, written out by save().
        self._store = {key: array("q") for key in ("command", "parent", "name", "start", "end")}
        self.commands = 0
        # Run totals over all traced commands, keyed by span name, counter or layer.
        self.calls = Counter()
        self.total_ns = Counter()
        self.self_ns = Counter()
        self.counts = Counter()
        self.layer_self_ns = Counter(dict.fromkeys(LAYERS, 0))
        self.wall_ns = 0
        self.step_durations = []  # seconds of each pipeline.denoise_step call
        self._root = self._id(ROOT_SPAN, "cli")

    def _id(self, name: str, layer: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.layer_of.append(layer)
        return self._ids[name]

    def _wrap(self, fn, name_of, counter):
        names, parents, starts, ends = self._name, self._parent, self._start, self._end
        stack, counts, clock = self._stack, self._counts, self._clock

        def wrapper(*args, **kwargs):
            i = len(starts)
            names.append(name_of(args))
            parents.append(stack[-1])
            stack.append(i)
            ends.append(0)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if counter is not None:
                counter(counts, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        if self._originals:
            raise RuntimeError("tracer wrappers are already installed")
        for module, attr, name, layer, counter in WRAP_POINTS:
            nid = self._id(name, layer)
            self._patch(module, attr, self._wrap(getattr(self._modules[module], attr), lambda args, nid=nid: nid, counter))
        module, attr = POLICY_WRAP_POINT
        self._patch(module, attr, self._wrap(getattr(self._modules[module], attr), self._policy_id, None))

    def _policy_id(self, args) -> int:
        return self._id(f"kernels.apply_policy.{args[1].kind}", "kernels")

    def _patch(self, module, attr, wrapper) -> None:
        mod = self._modules[module]
        self._originals.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        while self._originals:
            mod, attr, original = self._originals.pop()
            setattr(mod, attr, original)

    def run(self, fn, *args):
        """Call ``fn(*args)`` as one traced command under the root span.

        Returns (result, wall_ns, problems); ``problems`` lists violated
        span invariants, empty when the trace is consistent.
        """
        for buf in (self._name, self._parent, self._start, self._end):
            buf.clear()
        self._counts.clear()
        result = self._wrap(fn, lambda args: self._root, None)(*args)
        return result, self._end[0] - self._start[0], self._fold()

    def _fold(self) -> list:
        command = self.commands
        self.commands += 1
        name = np.array(self._name, dtype=np.int64)
        parent = np.array(self._parent, dtype=np.int64)
        start = np.array(self._start, dtype=np.int64)
        end = np.array(self._end, dtype=np.int64)
        dur = end - start
        child = np.zeros(len(dur), dtype=np.int64)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_ns = dur - child

        problems = []
        if int(self_ns.min()) < 0:
            problems.append(f"negative self time in span {self.names[int(name[self_ns.argmin()])]}")
        if int(self_ns.sum()) != int(dur[0]):
            problems.append(f"self times sum to {int(self_ns.sum())} ns, command wall is {int(dur[0])} ns")

        for nid in np.unique(name):
            key = self.names[int(nid)]
            mask = name == nid
            self.calls[key] += int(mask.sum())
            self.total_ns[key] += int(dur[mask].sum())
            self.self_ns[key] += int(self_ns[mask].sum())
            self.layer_self_ns[self.layer_of[int(nid)]] += int(self_ns[mask].sum())
            if key == "pipeline.denoise_step":
                self.step_durations.extend((dur[mask] / 1e9).tolist())
        self.counts.update(self._counts)
        self.wall_ns += int(dur[0])

        store = self._store
        store["command"].extend([command] * len(dur))
        store["parent"].extend(self._parent)
        store["name"].extend(self._name)
        store["start"].extend(self._start)
        store["end"].extend(self._end)
        return problems

    @property
    def span_count(self) -> int:
        return len(self._store["name"])

    def save(self, path) -> Path:
        """Write every recorded span to ``path`` (.npz); times are perf_counter ns."""
        path = Path(path)
        arrays = {key: np.frombuffer(buf, dtype=np.int64) for key, buf in self._store.items()}
        np.savez_compressed(path, names=np.array(self.names), layers=np.array(self.layer_of), **arrays)
        return path
