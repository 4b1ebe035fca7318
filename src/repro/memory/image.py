"""Functional memory: named float32 arrays with simulated addresses.

Each workload owns one :class:`MemoryImage`.  Images for different cores use
disjoint simulated address ranges, so co-running workloads never alias but
do contend for the shared Vec Cache / L2 / DRAM resources.

The module needs only the standard library: each array is stored in an
``array('f')``, so a pickled image loads without numpy.  An image made by
:meth:`MemoryImage.fill_random` is its *recipe* until something reads an
array; the first read fills every array, and only that fill and the numpy
views :meth:`MemoryImage.array` returns import numpy.
"""

from __future__ import annotations

from array import array as _buffer
from typing import TYPE_CHECKING, Dict, Iterator, Optional, Sequence, Tuple

from repro.common.errors import SimulationError

if TYPE_CHECKING:
    import numpy as np

#: Address-space stride between cores' images (1 GiB).
CORE_ADDRESS_STRIDE = 1 << 30

#: Alignment of every array base (one typical cache line).
ARRAY_ALIGN = 64

#: Bytes per element: every array is float32.
ELEM_BYTES = 4

#: Names the generator a recipe's bytes come from (hashed with the recipe).
RANDOM_FILL = "numpy.default_rng(seed).random(n, float32) + 0.5"

#: ``(seed, length, filled names, zeroed names)``: see ``fill_random``.
Recipe = Tuple[int, int, Tuple[str, ...], Tuple[str, ...]]


class MemoryImage:
    """Named float32 arrays plus a simulated byte-address layout."""

    def __init__(self, base_address: int = 0) -> None:
        self.base_address = base_address
        #: Element count per array, in layout order.
        self._lengths: Dict[str, int] = {}
        self._bases: Dict[str, int] = {}
        #: Storage per array, in layout order (empty while a recipe is pending).
        self._buffers: Dict[str, _buffer] = {}
        #: numpy views over ``_buffers``, made on first use; never pickled.
        self._views: Dict[str, np.ndarray] = {}
        #: What ``fill_random`` recorded, until the first read fills the buffers.
        self._recipe: Optional[Recipe] = None
        self._cursor = base_address

    @classmethod
    def for_core(cls, core_id: int) -> "MemoryImage":
        """An image placed in core ``core_id``'s private address range."""
        return cls(base_address=core_id * CORE_ADDRESS_STRIDE)

    # -- layout ---------------------------------------------------------------

    def _place(self, name: str, length: int) -> None:
        if name in self._lengths:
            raise SimulationError(f"array {name!r} already registered")
        self._lengths[name] = length
        self._bases[name] = self._cursor
        size = length * ELEM_BYTES
        self._cursor += size + (-size % ARRAY_ALIGN)

    def fill_random(
        self, seed: int, length: int, filled: Sequence[str], zeroed: Sequence[str]
    ) -> None:
        """Lay out ``filled`` (``length`` elements each) then ``zeroed`` (one
        element each), and record how to fill them instead of filling them.

        The first read of any array fills all of them, in this order, with
        ``numpy.random.default_rng(seed).random(length, float32) + 0.5``
        and zeros.  Allowed on an empty image only.
        """
        if self._lengths:
            raise SimulationError("a recipe must be an image's first arrays")
        for name in filled:
            self._place(name, length)
        for name in zeroed:
            self._place(name, 1)
        self._recipe = (seed, length, tuple(filled), tuple(zeroed))

    @property
    def recipe(self) -> Optional[Recipe]:
        """``(seed, length, filled, zeroed)`` while no array has been read,
        else ``None``: the bytes are then in the buffers."""
        return self._recipe

    def _fill(self) -> None:
        import numpy as np

        seed, length, filled, zeroed = self._recipe
        rng = np.random.default_rng(seed)
        for name in filled:
            storage = _buffer("f", [0.0]) * length
            view = np.frombuffer(storage, dtype=np.float32)
            rng.random(length, dtype=np.float32, out=view)
            view += np.float32(0.5)
            self._buffers[name] = storage
            self._views[name] = view
        for name in zeroed:
            self._buffers[name] = _buffer("f", [0.0])
        self._recipe = None

    def _filled(self) -> Dict[str, _buffer]:
        if self._recipe is not None:
            self._fill()
        return self._buffers

    # -- contents -------------------------------------------------------------

    def add_array(self, name: str, data: np.ndarray) -> np.ndarray:
        """Register ``data`` (converted to float32) under ``name``; returns
        its numpy view."""
        import numpy as np

        values = np.ascontiguousarray(data, dtype=np.float32).reshape(-1)
        self._filled()
        self._place(name, len(values))
        storage = _buffer("f")
        storage.frombytes(values.tobytes())
        self._buffers[name] = storage
        return self.array(name)

    def zeros(self, name: str, length: int) -> np.ndarray:
        """Register a zero-filled array of ``length`` float32 elements;
        returns its numpy view."""
        self._filled()
        self._place(name, length)
        self._buffers[name] = _buffer("f", [0.0]) * length
        return self.array(name)

    def array(self, name: str) -> np.ndarray:
        """The registered array called ``name``: a numpy view over its
        storage, so writes through it land in the image."""
        try:
            return self._views[name]
        except KeyError:
            pass
        storage = self._filled().get(name)
        if storage is None:
            raise SimulationError(f"unknown array {name!r}")
        import numpy as np

        view = self._views[name] = np.frombuffer(storage, dtype=np.float32)
        return view

    def buffers(self) -> Iterator[Tuple[str, _buffer]]:
        """``(name, array('f'))`` in layout order; their ``tobytes()`` is
        the numpy view's.  Fills a pending recipe."""
        return iter(self._filled().items())

    def address_of(self, name: str, elem_index: int, elem_bytes: int = 4) -> int:
        """Simulated byte address of ``name[elem_index]``."""
        return self._bases[name] + elem_index * elem_bytes

    def footprint_bytes(self) -> int:
        """Total bytes occupied by all registered arrays."""
        return ELEM_BYTES * sum(self._lengths.values())

    def __contains__(self, name: str) -> bool:
        return name in self._lengths

    def __iter__(self) -> Iterator[Tuple[str, np.ndarray]]:
        return iter([(name, self.array(name)) for name in list(self._filled())])

    def copy(self, base_address: int = None) -> "MemoryImage":
        """Deep copy, optionally relocated to ``base_address``."""
        clone = MemoryImage(
            self.base_address if base_address is None else base_address
        )
        for name, storage in self.buffers():
            clone._place(name, self._lengths[name])
            clone._buffers[name] = storage[:]
        return clone

    # -- pickling: the buffers travel, the numpy views stay behind ------------

    def __getstate__(self) -> Dict[str, object]:
        state = self.__dict__.copy()
        state["_views"] = {}
        return state
