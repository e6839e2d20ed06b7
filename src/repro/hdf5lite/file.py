"""HDF5-like file objects on the simulated MPI-IO layer.

Layout (a simplification of the HDF5 format, faithful in its I/O
*behaviour*, which is all the phase model consumes):

* byte 0: a fixed-size superblock, written collectively at create;
* each ``create_dataset`` appends an object header (small metadata
  write by rank 0 under the collective open) and reserves the dataset's
  contiguous extent;
* ``Dataset.write_slab`` / ``read_slab`` are collective operations on
  each rank's hyperslab of the dataset (rank-contiguous decomposition);
* ``attrs.set(name, value)`` appends a small attribute write.

All sizes are in bytes; element size is carried per dataset so slabs
stay whole-element (MPI etype semantics).

Like the MPI layer itself, every I/O operation is a generator that rank
programs delegate to with ``yield from``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.simmpi.context import RankContext
from repro.simmpi.errors import MPIFileError, MPIUsageError

SUPERBLOCK_BYTES = 96
OBJECT_HEADER_BYTES = 256
ATTRIBUTE_BYTES = 64


@dataclass
class Dataset:
    """A named, contiguous dataset inside an :class:`H5File`."""

    name: str
    offset: int  # absolute byte offset of the data
    nbytes: int
    element_size: int
    file: "H5File"

    def slab(self, rank: int, nranks: int) -> tuple[int, int]:
        """This rank's contiguous hyperslab: (byte offset, byte length)."""
        elements = self.nbytes // self.element_size
        base, rem = divmod(elements, nranks)
        start_el = rank * base + min(rank, rem)
        count_el = base + (1 if rank < rem else 0)
        return (self.offset + start_el * self.element_size,
                count_el * self.element_size)

    def write_slab(self):
        """Collective write of the calling rank's hyperslab."""
        self.file._check_open()
        ctx = self.file._ctx
        off, ln = self.slab(ctx.rank, ctx.size)
        if ln > 0:
            yield from self.file._fh.write_at_all(off, ln)

    def read_slab(self):
        """Collective read of the calling rank's hyperslab."""
        self.file._check_open()
        ctx = self.file._ctx
        off, ln = self.slab(ctx.rank, ctx.size)
        if ln > 0:
            yield from self.file._fh.read_at_all(off, ln)


class _Attributes:
    """Small named metadata values; each assignment is one tiny write."""

    def __init__(self, h5file: "H5File"):
        self._file = h5file
        self._names: dict[str, int] = {}

    def set(self, name: str, value: object):
        """Assign an attribute: ``yield from f.attrs.set(name, value)``."""
        self._file._check_open()
        if name not in self._names:
            self._names[name] = self._file._allocate(ATTRIBUTE_BYTES)
        # Attribute writes are rank-0 metadata updates (HDF5 collective
        # metadata semantics: one writer, others observe the handle).
        if self._file._ctx.rank == 0:
            yield from self._file._fh.write_at(self._names[name],
                                               ATTRIBUTE_BYTES)

    def __contains__(self, name: str) -> bool:
        return name in self._names


class H5File:
    """A parallel 'HDF5' file opened collectively by all ranks.

    Usage::

        f = yield from H5File.open(ctx, "his_0001.nc")
        zeta = yield from f.create_dataset("zeta", nbytes=grid2d,
                                           element_size=8)
        yield from zeta.write_slab()
        yield from f.close()
    """

    def __init__(self, ctx: RankContext, name: str, mode: str = "w"):
        """Handle state only; :meth:`open` performs the collective open."""
        self._ctx = ctx
        self.name = name
        self.mode = mode
        self._fh = None
        self._next_free = SUPERBLOCK_BYTES
        self._datasets: dict[str, Dataset] = {}
        self._closed = False
        self.attrs = _Attributes(self)

    @classmethod
    def open(cls, ctx: RankContext, name: str, mode: str = "w"):
        """Collectively open (and, in write mode, create) the file."""
        f = cls(ctx, name, mode)
        f._fh = yield from ctx.file_open(name, mode="rw")
        if "w" in mode and ctx.rank == 0:
            # The superblock: one small metadata write at create time.
            yield from f._fh.write_at(0, SUPERBLOCK_BYTES)
        return f

    def create_dataset(self, name: str, nbytes: int, element_size: int = 8):
        """Declare a dataset; reserves its extent, writes its header."""
        self._check_open()
        if name in self._datasets:
            raise MPIUsageError(f"dataset {name!r} already exists in {self.name}")
        if nbytes <= 0 or element_size <= 0 or nbytes % element_size:
            raise MPIUsageError(
                f"dataset {name!r}: {nbytes} bytes is not a positive whole "
                f"number of {element_size}-byte elements")
        header_at = self._allocate(OBJECT_HEADER_BYTES)
        data_at = self._allocate(nbytes)
        if self._ctx.rank == 0:
            yield from self._fh.write_at(header_at, OBJECT_HEADER_BYTES)
        ds = Dataset(name=name, offset=data_at, nbytes=nbytes,
                     element_size=element_size, file=self)
        self._datasets[name] = ds
        return ds

    def close(self):
        """Close the file handle and synchronize (idempotent)."""
        if not self._closed:
            self._closed = True
            yield from self._fh.close()
            yield from self._ctx.barrier()

    def __getitem__(self, name: str) -> Dataset:
        try:
            return self._datasets[name]
        except KeyError:
            raise KeyError(f"no dataset {name!r} in {self.name}") from None

    @property
    def datasets(self) -> list[str]:
        return list(self._datasets)

    def _check_open(self) -> None:
        if self._closed:
            raise MPIFileError(f"H5File {self.name!r} is closed")

    def _allocate(self, nbytes: int) -> int:
        at = self._next_free
        self._next_free += nbytes
        return at
