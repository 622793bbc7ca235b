import re

import pytest

from nicecubic.catalog import NAMED, named_graph


def test_named_graph_refuses_an_unknown_name_and_lists_the_known_ones():
    message = f"unknown catalog graph 'nope'; available: {sorted(NAMED)}"
    with pytest.raises(KeyError, match=re.escape(message)):
        named_graph("nope")
