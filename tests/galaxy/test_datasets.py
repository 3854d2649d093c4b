"""Dataset peeks: the first lines of a payload, decoded from its head."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.galaxy.datasets import _PEEK_HEAD_BYTES, Dataset

#: where ``set_peek`` cuts the head on its first two tries
CUTS = (_PEEK_HEAD_BYTES, 4 * _PEEK_HEAD_BYTES)

piece_st = st.one_of(
    # line breaks, with CR LF and the multi-byte separators (NEL, LS, PS)
    st.sampled_from(
        [b"\r\n", b"\r", b"\n", b"\x0b", b"\x1c", b"\xc2\x85", b"\xe2\x80\xa8",
         b"\xe2\x80\xa9"]
    ),
    # multi-byte characters, and their starts without the rest
    st.sampled_from(["é".encode(), "€".encode(), "𝄞".encode(), b"\xc2", b"\xe2\x80",
                     b"\xf0\x9d\x84"]),
    st.binary(min_size=1, max_size=3),  # mostly invalid UTF-8
    st.text(max_size=3).map(str.encode),
)


@st.composite
def payload_st(draw):
    """A payload; half of them put a run of generated bytes across a cut."""
    body = b"".join(draw(st.lists(piece_st, max_size=24)))
    if draw(st.booleans()):
        return body  # all of it inside the first head
    cut = draw(st.sampled_from(CUTS))
    breaks = draw(st.integers(0, 7))  # lines that end before the cut
    lead = draw(st.integers(0, min(len(body), 12)))  # body bytes before the cut
    return b"\n" * breaks + b"x" * (cut - breaks - lead) + body


@given(data=payload_st(), lines=st.integers(0, 8))
@settings(max_examples=400, deadline=None)
def test_property_peek_equals_the_first_lines_of_the_whole_payload(data, lines):
    ds = Dataset(id=1, hid=1, name="d")
    ds.set_peek(data, lines=lines)
    whole = data.decode("utf-8", errors="replace").splitlines()
    assert ds.peek == "\n".join(whole[:lines])


def test_peek_of_a_long_payload_keeps_five_lines():
    rows = [f"row{i}\t" + "é" * 1000 for i in range(200)]
    ds = Dataset(id=1, hid=1, name="d")
    ds.set_peek("\r\n".join(rows).encode())
    assert ds.peek == "\n".join(rows[:5])
