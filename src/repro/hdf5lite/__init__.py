"""A minimal parallel-HDF5-like library over the simulated MPI-IO.

The paper's future work: "We are analyzing upwelling of [the] ROMS
framework that use[s] HDF5 parallel [for] writing operations ... This
application open[s] different files [at] executing time and we can
observe that our model is applicable to each file".

``hdf5lite`` provides just enough of HDF5's parallel write path to
exercise that scenario on the substrate: a file format with a
superblock, named datasets with object headers, collective hyperslab
writes, and small attribute writes -- each mapping onto MPI-IO
operations that the tracer sees and the phase model captures per file.
"""

from .file import Dataset, H5File

__all__ = ["Dataset", "H5File"]
