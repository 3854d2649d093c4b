"""JSON fuzzing helpers shared by the entry-point fuzz tests: every node
of a document as a key path, a setter for one node, and a strategy for
any small JSON value."""

from hypothesis import strategies as st


def put(node, path, value):
    """Set the node at key ``path`` (non-empty) below ``node`` to ``value``."""
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value


def node_paths(node, path=()):
    """Every node of a JSON document, the root included, as key paths."""
    yield path
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from node_paths(child, path + (key,))


#: any small JSON value
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=8,
)
