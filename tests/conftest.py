import pytest

from obci import RawStructure


@pytest.fixture
def point():
    """The one-element structure."""
    return RawStructure("point", ("e",), ((0,),), 0, ((True,),))


@pytest.fixture
def blank():
    """Maker of an n-element structure with a constant table and the
    identity relation, for guards that read only carrier sizes."""
    def make(n: int) -> RawStructure:
        return RawStructure(f"blank{n}", tuple(f"t{i}" for i in range(n)),
                            ((0,) * n,) * n, 0,
                            tuple(tuple(i == j for j in range(n)) for i in range(n)))
    return make
