"""Span recorder that wraps public henn functions at every place they are looked up.

``enc_train`` and ``linalg`` bind helpers with ``from .encoding import ...``, so
patching only ``henn.encoding.keep_only`` would miss every call made from
``enc_train``.  ``Tracer.install`` therefore replaces each traced function in
every loaded ``henn`` module whose attribute is that function, and each traced
method on its class.  Spans live in flat in-memory arrays (name, parent,
start, end) and are summarised, or saved, only when the run ends.

The program is single-threaded, so a plain stack gives each span its parent.
"""

import time
from array import array
from collections import Counter
from contextlib import contextmanager

import numpy as np

ENGINE_OPS = ("encrypt", "decrypt", "add", "sub", "mult", "cmult", "rotate", "rotate_add")
# Slot vectors each engine op reads or writes, for the computed-bytes figure.
ENGINE_OPERANDS = {"encrypt": 2, "decrypt": 2, "add": 3, "sub": 3, "mult": 3,
                   "cmult": 3, "rotate": 2, "rotate_add": 2}
ENCODING_FNS = ("encode_matrix", "extract_row", "keep_only", "roll_fill", "windowed_sum")
MASK_BUILDERS = ("one_hot_mask", "prefix_mask", "segment_mask", "strided_mask")
LINALG_FNS = ("vr_matmul", "vr_matmul_repeated", "dvr_matmul")
FLOODS = ("encoding.keep_only", "encoding.roll_fill")


class Tracer:
    """Records one span per wrapped call while installed."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.mask_keys = Counter()
        self._stack = [-1]
        self._patches = []

    def _intern(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid):
        sid = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(sid)
        return sid

    def _close(self, sid, t0, t1):
        self._stack.pop()
        self.start[sid] = t0
        self.end[sid] = t1

    def wrap(self, name, fn, key_masks=False):
        nid = self._intern(name)
        clock = time.perf_counter
        masks = self.mask_keys

        def traced(*args, **kwargs):
            if key_masks:  # args[0] is the engine; the rest define the mask
                masks[(name, args[1:], tuple(sorted(kwargs.items())))] += 1
            sid = self._open(nid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(sid, t0, clock())

        traced.__wrapped__ = fn
        return traced

    # --- patching ---------------------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _patch_function(self, modules, home, fname, name, key_masks=False):
        original = getattr(home, fname)
        traced = self.wrap(name, original, key_masks)
        for mod in modules:
            if getattr(mod, fname, None) is original:
                self._set(mod, fname, traced)

    def install(self):
        import sys

        from henn import enc_train, encoding, engine, linalg

        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == "henn" or k.startswith("henn."))]
        for op in ENGINE_OPS:
            self._set(engine.SlotEngine, op,
                      self.wrap(f"engine.{op}", getattr(engine.SlotEngine, op)))
        for fname in ENCODING_FNS:
            self._patch_function(modules, encoding, fname, f"encoding.{fname}")
        for fname in MASK_BUILDERS:
            self._patch_function(modules, encoding, fname, f"encoding.{fname}", key_masks=True)
        for fname in LINALG_FNS:
            self._patch_function(modules, linalg, fname, f"linalg.{fname}")
        self._patch_function(modules, enc_train, "encrypted_grad_w_row", "enc_train.grad_w_row")
        self._patch_function(modules, enc_train, "encrypted_grad_v_row", "enc_train.grad_v_row")
        trainer = enc_train.EncryptedTrainer
        self._set(trainer, "__init__", self.wrap("enc_train.setup", trainer.__init__))
        self._set(trainer, "iterate", self.wrap("enc_train.iterate", trainer.iterate))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # --- results ----------------------------------------------------------

    def arrays(self):
        """Spans as numpy arrays: name id, parent id (-1 at the root),
        duration and self time (duration minus direct children)."""
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        start = np.frombuffer(self.start, dtype=np.float64)
        dur = np.frombuffer(self.end, dtype=np.float64) - start
        has = parent >= 0
        child = np.bincount(parent[has], weights=dur[has], minlength=len(dur))
        return name, parent, start, dur, dur - child

    def save(self, path):
        name, parent, start, dur, _ = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), name=name, parent=parent,
                            start=start, duration=dur)

    def summary(self):
        """{span name: (calls, total seconds, self seconds)}."""
        name, _, _, dur, self_t = self.arrays()
        n = len(self.names)
        calls = np.bincount(name, minlength=n)
        total = np.bincount(name, weights=dur, minlength=n)
        own = np.bincount(name, weights=self_t, minlength=n)
        return {nm: (int(calls[i]), float(total[i]), float(own[i]))
                for i, nm in enumerate(self.names)}

    def stages(self):
        """Split of enc_train.iterate by its direct children, in call order:
        forward (up to the first flood), flood (floods directly under iterate),
        context (rest of the span up to the first gradient row), grad_w and
        grad_v (gradient-row spans) and update (the rest after the first
        gradient row).  The six parts sum to the iterate spans."""
        out = dict.fromkeys(("forward", "flood", "context", "grad_w", "grad_v", "update"), 0.0)
        if "enc_train.iterate" not in self._ids:
            return out
        name, parent, start, dur, _ = self.arrays()
        ids = self._ids
        flood_ids = [ids[f] for f in FLOODS if f in ids]
        gw, gv = ids.get("enc_train.grad_w_row", -2), ids.get("enc_train.grad_v_row", -2)
        for it in np.flatnonzero(name == ids["enc_train.iterate"]):
            kids = np.flatnonzero(parent == it)
            kname, kstart, kdur = name[kids], start[kids], dur[kids]
            t_end = start[it] + dur[it]
            flood = np.isin(kname, flood_ids)
            grad = (kname == gw) | (kname == gv)
            t_flood = kstart[flood].min() if flood.any() else t_end
            t_grad = kstart[grad].min() if grad.any() else t_end
            out["forward"] += t_flood - start[it]
            out["flood"] += kdur[flood].sum()
            out["context"] += t_grad - t_flood - kdur[flood].sum()
            out["grad_w"] += kdur[kname == gw].sum()
            out["grad_v"] += kdur[kname == gv].sum()
            out["update"] += t_end - t_grad - kdur[grad].sum()
        return {k: float(v) for k, v in out.items()}
