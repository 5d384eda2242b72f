"""One cost model: ``Machine.send_cost``/``recv_cost`` on scalars and arrays.

Every message cost the simulator charges comes from these two methods:
the event engine calls them per message with Python ints, the batch
engine and ``time_plan`` per stage with arrays.  The scalar call must be
the length-1 case of the array call, bit for bit, and the event
engine's per-message charge must be ``send_cost`` of the topology's hop
count under the engine's rank-to-node mapping.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network import BGQ, CRAY_XC40, CRAY_XK7, block_mapping
from repro.simmpi import SimMPI

PRESETS = st.sampled_from([BGQ, CRAY_XC40, CRAY_XK7])


def bits(values) -> np.ndarray:
    """IEEE-754 bit patterns, so that equality means bit-identical."""
    return np.asarray(values, dtype=np.float64).view(np.int64)


@given(
    PRESETS,
    st.lists(
        st.tuples(st.integers(0, 300), st.integers(0, 10**7)), min_size=1, max_size=40
    ),
)
@settings(max_examples=60, deadline=None)
def test_scalar_call_is_an_element_of_the_array_call(machine, msgs):
    hops = np.array([h for h, _ in msgs], dtype=np.int64)
    words = np.array([w for _, w in msgs], dtype=np.int64)
    send = machine.send_cost(hops, words)
    recv = machine.recv_cost(words)
    assert send.dtype == recv.dtype == np.float64
    send_one = [machine.send_cost(h, w) for h, w in msgs]
    recv_one = [machine.recv_cost(w) for _, w in msgs]
    assert all(type(c) is float for c in send_one + recv_one)
    assert np.array_equal(bits(send), bits(send_one))
    assert np.array_equal(bits(recv), bits(recv_one))


@given(
    PRESETS,
    st.sampled_from([64, 500, 2048]),
    st.lists(
        st.tuples(st.integers(0, 2**20), st.integers(0, 2**20), st.integers(0, 5000)),
        min_size=1,
        max_size=30,
    ),
)
@settings(max_examples=40, deadline=None)
def test_event_engine_charges_the_machine_cost(machine, K, grid):
    src = np.array([s % K for s, _, _ in grid], dtype=np.int64)
    dst = np.array([d % K for _, d, _ in grid], dtype=np.int64)
    words = np.array([w for _, _, w in grid], dtype=np.int64)
    node = block_mapping(K, machine.cores_per_node)
    hops = machine.topology(K).hops_array(node[src], node[dst])
    sim = SimMPI(K, machine=machine)
    msgs = list(zip(src.tolist(), dst.tolist(), words.tolist()))
    got_send = [sim._send_cost(s, d, w) for s, d, w in msgs]
    got_recv = [sim._recv_cost(d, w) for _, d, w in msgs]
    assert np.array_equal(bits(got_send), bits(machine.send_cost(hops, words)))
    assert np.array_equal(bits(got_recv), bits(machine.recv_cost(words)))
