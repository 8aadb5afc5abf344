"""The name of the kernel implementation, for run reports."""
# perfbench/worker.py reads it for its kernels_backend run fact; this
# module goes when that fact does.
BACKEND = "python"
