"""The service's endpoint check, written on columns, against the per-payload
loop it replaced.

``oracle_corrupt`` and ``oracle_account`` are the loop and the set algebra
``run_epoch`` used to run (twice per healthy epoch); the columnar check must
name the same ``corrupt_pairs``, ``missing``, ``delivered`` and ``expected``
on clean results and under every kind of damage, whether the result came as
per-rank lists or as a ``Deliveries``.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import CommPattern, run_exchange
from repro.network import BGQ
from repro.simmpi.batch import Deliveries, EdgePayloads
from repro.spmv.persistent import PersistentExchangeService

check = PersistentExchangeService._corrupt_delivered
account = PersistentExchangeService._account


class Result:
    """As much of an ``ExchangeResult`` as the check reads."""

    def __init__(self, delivered):
        self.delivered = delivered


def oracle_corrupt(result, pat):
    K = pat.K
    sizes = {(int(s), int(t)): int(w) for s, t, w in zip(pat.src, pat.dst, pat.size)}
    bad = set()
    for dst, msgs in enumerate(result.delivered):
        if not msgs:
            continue
        for src, payload in msgs:
            src = int(src)
            want = sizes.get((src, dst))
            p = np.asarray(payload)
            if (
                want is None
                or p.shape != (want,)
                or p.dtype != np.int64
                or not bool((p == src * K + dst).all())
            ):
                bad.add((src, dst))
    return tuple(sorted(bad))


def oracle_account(result, pat, uncountable):
    corrupt_pairs = tuple(
        (s, d)
        for s, d in oracle_corrupt(result, pat)
        if s not in uncountable and d not in uncountable
    )
    expected = {
        (int(s), int(t))
        for s, t in zip(pat.src, pat.dst)
        if int(s) not in uncountable and int(t) not in uncountable
    }
    got = {
        (int(src), dst) for dst, msgs in enumerate(result.delivered) if msgs for src, _ in msgs
    } - set(corrupt_pairs)
    return corrupt_pairs, tuple(sorted(expected - got)), len(expected), len(expected & got)


def assert_same_verdict(result, pat, uncountable=frozenset()):
    assert check(result, pat) == oracle_corrupt(result, pat)
    uncountable = set(uncountable)
    got = account(result, pat, check(result, pat), uncountable)
    assert got == oracle_account(result, pat, uncountable)
    return got


def random_pattern(K, seed):
    rng = np.random.default_rng(seed)
    base = CommPattern.random(K, avg_degree=4, seed=seed)
    return CommPattern(K, base.src, base.dst, rng.integers(0, 12, base.src.size))


def foreign_pair(pat, rng):
    """A ``(src, dst)`` with ``src != dst`` that the pattern does not hold."""
    have = set(zip(pat.src.tolist(), pat.dst.tolist()))
    while True:
        s, d = (int(x) for x in rng.integers(0, pat.K, 2))
        if s != d and (s, d) not in have:
            return s, d


def _hit(lists, rng, min_words=0):
    """A random delivery ``(rank, slot)`` whose payload has at least ``min_words`` words."""
    slots = [(r, i) for r, msgs in enumerate(lists) if msgs
             for i, (_, p) in enumerate(msgs) if p.ndim == 1 and p.size >= min_words]
    return slots[int(rng.integers(len(slots)))] if slots else None


# Damage to one list-form result, in place: ``fault(lists, pattern, rng)``.


def add_foreign(lists, pat, rng):
    s, d = foreign_pair(pat, rng)
    lists[d] = (lists[d] or []) + [(s, np.full(3, s * pat.K + d, dtype=np.int64))]


def shorten(lists, pat, rng):
    at = _hit(lists, rng, min_words=1)
    if at:
        r, i = at
        s, p = lists[r][i]
        lists[r][i] = (s, p[:-1])


def retype(lists, pat, rng):
    at = _hit(lists, rng)
    if at:
        r, i = at
        s, p = lists[r][i]
        lists[r][i] = (s, p.astype([np.int32, np.float64, np.uint64][int(rng.integers(3))]))


def flip_word(lists, pat, rng):
    at = _hit(lists, rng, min_words=1)
    if at:
        r, i = at
        s, p = lists[r][i]
        p = p.copy()
        # one bit of the raw bytes: an earlier ``retype`` may have left an
        # int32 or float64 payload, which a 64-bit integer mask cannot flip
        p.view(np.uint8)[int(rng.integers(p.nbytes))] ^= 1 << int(rng.integers(8))
        lists[r][i] = (s, p)


def deliver_twice(lists, pat, rng):
    at = _hit(lists, rng)
    if at:
        r, i = at
        lists[r].append(lists[r][i])


def twice_one_damaged(lists, pat, rng):
    at = _hit(lists, rng, min_words=1)
    if at:
        r, i = at
        s, p = lists[r][i]
        lists[r].append((s, p + 1))


def reshape(lists, pat, rng):
    at = _hit(lists, rng, min_words=2)
    if at:
        r, i = at
        s, p = lists[r][i]
        lists[r][i] = (s, p[: p.size // 2 * 2].reshape(2, -1))


def lose(lists, pat, rng):
    at = _hit(lists, rng)
    if at:
        del lists[at[0]][at[1]]


def kill_rank(lists, pat, rng):
    lists[int(rng.integers(pat.K))] = None


FAULTS = {f.__name__: f for f in (add_foreign, shorten, retype, flip_word, deliver_twice,
                                  twice_one_damaged, reshape, lose, kill_rank)}


class TestListFormResults:
    @pytest.mark.parametrize("engine", ["event", "batch"])
    def test_clean_run(self, engine):
        pat = random_pattern(27, seed=2)
        out = run_exchange(pat, dims=3, machine=BGQ, engine=engine)
        got = assert_same_verdict(out, pat)
        assert got == ((), (), pat.num_messages, pat.num_messages)

    @pytest.mark.parametrize("fault", sorted(FAULTS))
    def test_each_fault_kind_alone(self, fault):
        for seed in range(6):
            pat = random_pattern(24, seed)
            lists = [list(m) for m in run_exchange(pat, dims=2, machine=BGQ).delivered]
            FAULTS[fault](lists, pat, np.random.default_rng(seed))
            corrupt, missing, expected, delivered = assert_same_verdict(Result(lists), pat)
            assert expected == pat.num_messages == delivered + len(missing)
            if fault in ("shorten", "retype", "flip_word", "twice_one_damaged", "reshape"):
                assert len(corrupt) == 1 and corrupt[0] in missing
            if fault == "add_foreign":
                assert len(check(Result(lists), pat)) == 1 and not missing
            if fault == "deliver_twice":
                assert not corrupt and not missing

    @settings(max_examples=60, deadline=None)
    @given(
        K=st.sampled_from([9, 16, 30]),
        seed=st.integers(0, 10_000),
        faults=st.lists(st.sampled_from(sorted(FAULTS)), max_size=6),
        dead=st.lists(st.integers(0, 8), max_size=3),
    )
    def test_any_mix_of_faults_and_uncountable_ranks(self, K, seed, faults, dead):
        pat = random_pattern(K, seed)
        rng = np.random.default_rng(seed)
        lists = [list(m) for m in run_exchange(pat, machine=BGQ).delivered]
        for name in faults:
            FAULTS[name](lists, pat, rng)
        assert_same_verdict(Result(lists), pat, dead)

    def test_empty_pattern_makes_every_delivery_foreign(self):
        empty = np.empty(0, dtype=np.int64)
        pat = CommPattern(4, empty, empty, empty)
        result = Result([[(1, np.full(2, 4, dtype=np.int64))], [], None, []])
        assert assert_same_verdict(result, pat) == (((1, 0),), (), 0, 0)
        assert assert_same_verdict(Result([[], [], [], []]), pat) == ((), (), 0, 0)


class TestColumnarResults:
    """A ``Deliveries`` is checked on its columns; the oracle reads its list view."""

    @staticmethod
    def delivered(pat, scheme=None):
        return run_exchange(pat, machine=BGQ, engine="batch", **(scheme or {"dims": 2})).delivered

    def test_the_check_builds_no_list_view(self):
        pat = random_pattern(24, seed=5)
        d = self.delivered(pat)
        assert account(Result(d), pat, check(Result(d), pat), set()) == (
            (), (), pat.num_messages, pat.num_messages)
        assert d._lists is None
        assert_same_verdict(Result(d), pat)

    def test_flipped_key_of_a_synthetic_row(self):
        pat = random_pattern(24, seed=5)
        d = self.delivered(pat)
        row = int(np.flatnonzero(d.table.size > 0)[3])
        d.table._key[row] ^= 4
        corrupt, missing, _, delivered = assert_same_verdict(Result(d), pat)
        assert corrupt == missing == ((int(d.table.src[row]), int(d.table.dst[row])),)
        assert delivered == pat.num_messages - 1

    def test_flipped_word_in_a_caller_payload(self):
        # one word of many, through the object table's per-word comparison
        pat = random_pattern(24, seed=5)
        K = pat.K
        payloads = [{} for _ in range(K)]
        for s, t, w in zip(pat.src.tolist(), pat.dst.tolist(), pat.size.tolist()):
            payloads[s][t] = np.full(w, s * K + t, dtype=np.int64)
        i = int(np.flatnonzero(pat.size > 2)[3])
        s, t = int(pat.src[i]), int(pat.dst[i])
        payloads[s][t][1] ^= 4
        d = run_exchange(pat, dims=2, machine=BGQ, engine="batch", payloads=payloads).delivered
        assert d.table._key is None
        corrupt, missing, _, delivered = assert_same_verdict(Result(d), pat)
        assert corrupt == missing == ((s, t),)
        assert delivered == pat.num_messages - 1

    @pytest.mark.parametrize("kind", ["twice", "lost", "twice_and_lost"])
    def test_rows_delivered_twice_or_never(self, kind):
        pat = random_pattern(24, seed=7)
        d = self.delivered(pat, {"dims": 1})
        rows, counts = d.rows.tolist(), np.diff(d.ptr)
        r = int(np.flatnonzero(counts > 1)[0])
        a = int(d.ptr[r])
        if "lost" in kind:
            del rows[a + 1]
            counts[r] -= 1
        if "twice" in kind:
            rows.insert(a, rows[a])
            counts[r] += 1
        ptr = np.concatenate([[0], np.cumsum(counts)])
        damaged = Deliveries(d.table, np.asarray(rows, dtype=np.int64), ptr)
        corrupt, missing, _, _ = assert_same_verdict(Result(damaged), pat)
        assert not corrupt and len(missing) == ("lost" in kind)

    def test_table_of_another_pattern(self):
        # the deliveries of a drifted pattern checked against the old one: a pair
        # the old pattern lacks, one it holds at another length, one it holds and
        # never gets
        pat = random_pattern(24, seed=9)
        rng = np.random.default_rng(9)
        s, t = foreign_pair(pat, rng)
        src = np.append(pat.src[1:], s)
        dst = np.append(pat.dst[1:], t)
        size = np.append(pat.size[1:], 5)
        size[0] += 1
        drifted = CommPattern(24, src, dst, size)
        d = self.delivered(drifted)
        corrupt, missing, expected, delivered = assert_same_verdict(Result(d), pat)
        assert set(check(Result(d), pat)) == {(s, t), (int(src[0]), int(dst[0]))}
        assert expected == pat.num_messages and delivered == expected - 2

    def test_caller_payloads_through_the_batch_engine(self):
        pat = random_pattern(16, seed=3)
        K = pat.K
        payloads = [{} for _ in range(K)]
        for i, (s, t, w) in enumerate(zip(pat.src.tolist(), pat.dst.tolist(), pat.size.tolist())):
            good = np.full(w, s * K + t, dtype=np.int64)
            payloads[s][t] = [good, good.astype(np.int32), good.tolist(), good + (w > 0)][i % 4]
        d = run_exchange(pat, dims=2, machine=BGQ, engine="batch", payloads=payloads).delivered
        assert isinstance(d.table, EdgePayloads) and d.table._key is None
        corrupt, _, _, _ = assert_same_verdict(Result(d), pat)
        assert corrupt  # the int32 copies, and the shifted ones that have a word
