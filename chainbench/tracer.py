"""Outside-in span tracer: wraps chainboost's public functions at run time.

Nothing under src/ changes. Each wrapper is installed on the module (or
class) attribute the caller looks the name up in, because `pipeline`,
`training` and `theoryprobe` bind `fuse_logits`, `stage_batch_pass`,
`softmax_rows` and `layer_norm` by name at import time. Spans live in one
in-memory buffer per thread (no cross-thread appends, so pipelined workers
never race) and are only aggregated or written out once the run is over.
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict
from pathlib import Path

from chainboost import ensemble, model, numkit, pipeline, tasks, theoryprobe, training

# span record fields
NAME, START, END, PARENT, TAG = range(5)


def _step_tag(args, kwargs):
    """forward_step(self, token_id, cache, ...): the decode step index."""
    cache = args[2] if len(args) > 2 else kwargs["cache"]
    return cache.step_count


def _stage_tag(args, kwargs):
    return kwargs.get("stage", "stage1")


# (owner, attribute, span name, tag function); one span name may be bound in
# several modules, and every binding is patched.
PATCH_POINTS = [
    (model.TransformerModel, "forward_train", "model.forward_train", None),
    (model.TransformerModel, "backward", "model.backward", None),
    (model.TransformerModel, "forward_step", "model.forward_step", _step_tag),
    (model, "gelu", "model.gelu", None),
    (model, "gelu_grad", "model.gelu_grad", None),
    (numkit, "softmax_rows", "numkit.softmax_rows", None),
    (model, "softmax_rows", "numkit.softmax_rows", None),
    (training, "softmax_rows", "numkit.softmax_rows", None),
    (numkit, "layer_norm", "numkit.layer_norm", None),
    (model, "layer_norm", "numkit.layer_norm", None),
    (ensemble, "layer_norm", "numkit.layer_norm", None),
    (ensemble, "fuse_logits", "ensemble.fuse_logits", None),
    (training, "fuse_logits", "ensemble.fuse_logits", None),
    (pipeline, "fuse_logits", "ensemble.fuse_logits", None),
    (training, "train_chain", "training.train_chain", None),
    (training, "train_model", "training.train_model", _stage_tag),
    (training, "stage_batch_pass", "training.stage_batch_pass", None),
    (training, "batch_loss_and_grad", "training.batch_loss_and_grad", None),
    (training, "sgd_step", "training.sgd_step", None),
    (training, "pred_forward_chain", "training.pred_forward_chain", None),
    (training, "estimate_alignment", "training.estimate_alignment", None),
    (training, "chain_logits", "training.chain_logits", None),
    (training, "chain_eval", "training.chain_eval", None),
    (pipeline, "decode_sequential", "pipeline.decode_sequential", None),
    (pipeline, "decode_pipelined", "pipeline.decode_pipelined", None),
    (theoryprobe, "descent_probe", "theoryprobe.descent_probe", None),
    (theoryprobe, "stage_batch_pass", "theoryprobe.stage_batch_pass", None),
    (theoryprobe, "estimate_alignment", "theoryprobe.estimate_alignment", None),
    (tasks, "generate", "tasks.generate", None),
]


class Tracer:
    """Records (name, start, end, parent, tag) spans per thread while active."""

    def __init__(self):
        self.active = False
        self._lock = threading.Lock()
        self._local = threading.local()
        self._buffers: list[tuple[str, list]] = []
        self._saved: list[tuple[object, str, object]] = []

    def _thread_state(self):
        st = self._local
        if not hasattr(st, "spans"):
            st.spans, st.stack = [], []
            with self._lock:
                self._buffers.append((threading.current_thread().name, st.spans))
        return st

    def wrap(self, name, fn, tag_fn=None):
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            st = self._thread_state()
            rec = [name, 0.0, 0.0, st.stack[-1] if st.stack else -1,
                   tag_fn(args, kwargs) if tag_fn else None]
            st.stack.append(len(st.spans))
            st.spans.append(rec)
            rec[START] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[END] = time.perf_counter()
                st.stack.pop()

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for owner, attr, name, tag_fn in PATCH_POINTS:
            orig = getattr(owner, attr)
            self._saved.append((owner, attr, orig))
            setattr(owner, attr, self.wrap(name, orig, tag_fn))
        self.active = True

    def uninstall(self) -> None:
        self.active = False
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()

    def buffers(self) -> list[tuple[str, list]]:
        with self._lock:
            return list(self._buffers)

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, total seconds and self seconds (minus children)."""
        out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for _, spans in self.buffers():
            child = [0.0] * len(spans)
            for rec in spans:
                if rec[PARENT] >= 0:
                    child[rec[PARENT]] += rec[END] - rec[START]
            for rec, c in zip(spans, child):
                agg = out[rec[NAME]]
                agg["calls"] += 1
                agg["total_s"] += rec[END] - rec[START]
                agg["self_s"] += rec[END] - rec[START] - c
        return dict(out)

    def tagged_totals(self, name: str) -> dict:
        """Total seconds of `name` spans, split by tag."""
        out: dict = defaultdict(float)
        for _, spans in self.buffers():
            for rec in spans:
                if rec[NAME] == name:
                    out[rec[TAG]] += rec[END] - rec[START]
        return dict(out)

    def reset(self) -> None:
        """Drop recorded spans; call only while no traced call is in flight."""
        for _, spans in self.buffers():
            spans.clear()

    def child_spans(self, name: str, parent: str) -> list[tuple[object, float]]:
        """(tag, seconds) of every `name` span whose direct parent is a `parent` span."""
        out = []
        for _, spans in self.buffers():
            for rec in spans:
                if rec[NAME] == name and rec[PARENT] >= 0 and spans[rec[PARENT]][NAME] == parent:
                    out.append((rec[TAG], rec[END] - rec[START]))
        return out

    def write_chrome_trace(self, path: Path, max_spans: int) -> int:
        """Write at most max_spans spans as Chrome trace-event JSON (Perfetto opens it)."""
        events = []
        t0 = min((spans[0][START] for _, spans in self.buffers() if spans), default=0.0)
        for tid, (thread, spans) in enumerate(self.buffers()):
            for rec in spans:
                if len(events) >= max_spans:
                    break
                ev = {"name": rec[NAME], "ph": "X", "pid": 0, "tid": tid,
                      "ts": (rec[START] - t0) * 1e6, "dur": (rec[END] - rec[START]) * 1e6,
                      "args": {"thread": thread}}
                if rec[TAG] is not None:
                    ev["args"]["tag"] = rec[TAG]
                events.append(ev)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events}))
        return len(events)
