import pytest

from cvsteer.verdict import SteeringVerdict


def test_refuses_an_unknown_direction():
    with pytest.raises(ValueError, match=r"^direction must be one of \('b-to-a', 'a-to-b'\), got 'x'$"):
        SteeringVerdict.from_margin("gaussian", "x", 0.0)
