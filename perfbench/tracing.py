"""
Span recorder that times calls into cskrylov from outside the library.

`Tracer.install` replaces public functions on the library's modules
with wrappers; every wrapped call appends one span (name, phase,
start, end, parent span, computed bytes). Spans stay in memory until
the traced run ends and `Tracer.write` puts them in a JSON-lines file.

The bytes of a span are computed from array shapes, not measured: the
sum of the ``nbytes`` of every array argument and of the result, i.e.
one compulsory read of each input and one write of each output.

This module imports no numpy, so importing it ahead of `import cskrylov`
moves none of that import's cost out of the set-up timer.
"""

import json
import time

KERNELS = ("block_matvec", "t_gram", "axpy_block", "thin_qr", "solve_small", "fro_norm")
SOLVER_NAMES = ("bl_cocg", "bl_cocg_rq", "bl_cocr", "bl_cocr_rq")
_ARRAY_FIELDS = ("row_ptr", "col_idx", "values", "dense", "q", "xi")


def computed_bytes(obj):
    """Bytes an argument or result occupies, from its array shapes."""
    nbytes = getattr(obj, "nbytes", None)
    if isinstance(nbytes, int):
        return nbytes
    if isinstance(obj, (tuple, list)):
        return sum(computed_bytes(o) for o in obj)
    # ComplexSymmetricMatrix (CSR or dense) and QrFactors hold arrays
    # under these names; scalars and None hold none
    parts = (getattr(obj, name, None) for name in _ARRAY_FIELDS)
    return sum(computed_bytes(part) for part in parts if part is not None)


class Tracer:
    """Collects spans from wrapped library functions.

    Each span is a tuple (name, phase, start, end, parent, nbytes);
    parent is the index of the enclosing span or -1, and phase is the
    tracer's `phase` label ("setup" or "solve") when the span ended.
    """

    def __init__(self, run_id):
        self.run_id = run_id
        self.phase = "setup"
        self.spans = []
        self._stack = []
        self._saved = []

    def _wrap(self, name, fn, count_bytes):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            out = None
            start = clock()
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                end = clock()
                stack.pop()
                nbytes = 0
                if count_bytes:
                    nbytes = sum(computed_bytes(a) for a in args) + computed_bytes(out)
                spans[idx] = (name, self.phase, start, end, parent, nbytes)

        traced.__wrapped__ = fn
        return traced

    def install(self, cskrylov):
        """Wrap the layer entry points of an imported cskrylov package."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        solvers = cskrylov.solvers
        matrix = cskrylov.core_la.ComplexSymmetricMatrix
        targets = [(solvers, k, f"core_la.{k}", True) for k in KERNELS]
        targets += [(solvers, s, f"solvers.{s}", False) for s in SOLVER_NAMES]
        targets += [
            (cskrylov.mm_io, "read_matrix_market", "mm_io.read_matrix_market", False),
            (cskrylov.mm_io, "write_matrix_market", "mm_io.write_matrix_market", False),
            (cskrylov.oracle, "gen_problem", "oracle.gen_problem", False),
            (cskrylov.oracle, "gen_rhs", "oracle.gen_rhs", False),
        ]
        for owner, attr, name, count_bytes in targets:
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(name, fn, count_bytes))
        from_coo = matrix.__dict__["from_coo"]
        is_symmetric = matrix.__dict__["is_symmetric"]
        self._saved.append((matrix, "from_coo", from_coo))
        self._saved.append((matrix, "is_symmetric", is_symmetric))
        matrix.from_coo = classmethod(
            self._wrap("core_la.from_coo", from_coo.__func__, False)
        )
        matrix.is_symmetric = property(
            self._wrap("core_la.is_symmetric", is_symmetric.fget, False)
        )

    def uninstall(self):
        """Put the original functions back."""
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def write(self, path):
        """Write every span as one JSON object per line."""
        t0 = self.spans[0][2] if self.spans else 0.0
        with open(path, "w") as f:
            for i, (name, phase, start, end, parent, nbytes) in enumerate(self.spans):
                f.write(
                    json.dumps(
                        {
                            "id": i,
                            "run": self.run_id,
                            "name": name,
                            "phase": phase,
                            "start_s": start - t0,
                            "end_s": end - t0,
                            "parent": parent,
                            "bytes": nbytes,
                        }
                    )
                    + "\n"
                )


def summarize(spans, phase):
    """Per-name totals over the spans of one phase.

    Returns {name: {"calls", "s", "self_s", "bytes", "durations"}},
    where self_s is each span's duration minus the time its direct
    children cover (children run one after another, so they never
    overlap).
    """
    covered = [0.0] * len(spans)
    for name, ph, start, end, parent, nbytes in spans:
        if parent >= 0:
            covered[parent] += end - start
    out = {}
    for i, (name, ph, start, end, parent, nbytes) in enumerate(spans):
        if ph != phase:
            continue
        row = out.setdefault(
            name, {"calls": 0, "s": 0.0, "self_s": 0.0, "bytes": 0, "durations": []}
        )
        row["calls"] += 1
        row["s"] += end - start
        row["self_s"] += end - start - covered[i]
        row["bytes"] += nbytes
        row["durations"].append(end - start)
    return out
