"""Functional memory image: layout, isolation and the fill recipe."""

import hashlib
import pickle
import zlib

import numpy as np
import pytest

from repro.common.errors import SimulationError
from repro.compiler.pipeline import build_image
from repro.memory.image import ARRAY_ALIGN, CORE_ADDRESS_STRIDE, MemoryImage
from tests.conftest import make_reduction, make_stencil, run_fresh_python


class TestLayout:
    def test_addresses_are_aligned_and_disjoint(self):
        image = MemoryImage()
        image.zeros("a", 100)
        image.zeros("b", 100)
        addr_a = image.address_of("a", 0)
        addr_b = image.address_of("b", 0)
        assert addr_a % ARRAY_ALIGN == 0
        assert addr_b % ARRAY_ALIGN == 0
        assert addr_b >= addr_a + 400

    def test_element_addressing(self):
        image = MemoryImage()
        image.zeros("a", 16)
        assert image.address_of("a", 3) == image.address_of("a", 0) + 12

    def test_core_address_spaces_disjoint(self):
        image0 = MemoryImage.for_core(0)
        image1 = MemoryImage.for_core(1)
        image0.zeros("a", 1 << 20)
        image1.zeros("a", 1 << 20)
        assert image1.address_of("a", 0) - image0.address_of("a", 0) == CORE_ADDRESS_STRIDE

    def test_float32_conversion(self):
        image = MemoryImage()
        stored = image.add_array("a", np.arange(4, dtype=np.float64))
        assert stored.dtype == np.float32


class TestErrors:
    def test_duplicate_rejected(self):
        image = MemoryImage()
        image.zeros("a", 4)
        with pytest.raises(SimulationError):
            image.zeros("a", 4)

    def test_unknown_array(self):
        with pytest.raises(SimulationError):
            MemoryImage().array("missing")


class TestCopy:
    def test_copy_is_deep(self):
        image = MemoryImage()
        image.zeros("a", 4)
        clone = image.copy()
        clone.array("a")[0] = 5.0
        assert image.array("a")[0] == 0.0

    def test_copy_preserves_layout(self):
        image = MemoryImage.for_core(1)
        image.zeros("a", 4)
        clone = image.copy()
        assert clone.address_of("a", 0) == image.address_of("a", 0)

    def test_footprint(self):
        image = MemoryImage()
        image.zeros("a", 100)
        assert image.footprint_bytes() == 400
        assert "a" in image
        assert [name for name, _ in image] == ["a"]


class TestRecipe:
    """``build_image`` records a recipe; the first read fills every array
    with the bytes the eager fill gave, and the cache key trusts that."""

    @pytest.mark.parametrize("make", [make_reduction, make_stencil])
    def test_a_filled_recipe_holds_the_eager_bytes(self, make):
        kernel = make(length=96)
        image = build_image(kernel, core_id=1)
        names = [*sorted(kernel.arrays()), *sorted(kernel.reduction_outputs())]
        before = {name: image.address_of(name, 5) for name in names}
        assert all(name in image for name in names)
        assert image.footprint_bytes() == 4 * (
            96 * len(kernel.arrays()) + len(kernel.reduction_outputs())
        )
        assert image.recipe is not None  # layout queries do not fill

        rng = np.random.default_rng(zlib.crc32(kernel.name.encode("utf-8")))
        expected = [
            (name, rng.random(96, dtype=np.float32) + np.float32(0.5))
            for name in sorted(kernel.arrays())
        ] + [(name, np.zeros(1, dtype=np.float32)) for name in sorted(kernel.reduction_outputs())]
        filled = list(image)
        assert image.recipe is None
        assert [name for name, _ in filled] == names
        for (name, values), (_, wanted) in zip(filled, expected):
            assert values.dtype == np.float32
            assert values.tobytes() == wanted.tobytes(), name
        assert {name: image.address_of(name, 5) for name in names} == before

    def test_the_fill_is_golden(self):
        image = build_image(make_reduction(length=64))
        digest = hashlib.sha256()
        for name, values in image.buffers():
            digest.update(name.encode("utf-8"))
            digest.update(values.tobytes())
        assert digest.hexdigest() == (
            "827b8bea482eb1f0cf170cbbded0cbd9f5828cd74e5b28a7e5bf166e12a9776b"
        ), (
            "the bytes a recipe fills changed: cache keys hash the recipe, so "
            "bump CACHE_VERSION (and expect every sim_digest to move)"
        )

    def test_a_pickled_image_loads_without_numpy(self, tmp_path):
        image = build_image(make_reduction(length=64))
        image.array("y")[3] = 7.0
        image.array("acc")[0] = -2.5
        path = tmp_path / "image.pkl"
        wanted = {name: values.tolist() for name, values in image}
        path.write_bytes(pickle.dumps((image, wanted)))
        run_fresh_python(
            """
import pickle, sys
image, wanted = pickle.loads(open(sys.argv[1], "rb").read())
assert "numpy" not in sys.modules
assert image.recipe is None
assert image.array("y")[3] == 7.0 and image.array("acc")[0] == -2.5
assert {name: values.tolist() for name, values in image} == wanted
""",
            str(path),
        )
