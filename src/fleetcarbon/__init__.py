"""Life-cycle carbon accounting and compute-carbon-intensity reporting
for accelerator fleets."""

__version__ = "0.1.0"
