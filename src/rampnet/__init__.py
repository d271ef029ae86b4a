"""rampnet: a small laboratory for coordinated freeway ramp metering.

The pieces, in pipeline order:

* :mod:`rampnet.network` declares a freeway network (cells, metered ramps
  with their merge-cell detectors, junctions, timing) and loads the shipped
  three-highway benchmark config.
* :mod:`rampnet.plant` simulates it: cell-transmission dynamics, Poisson
  demand, signalized meters, windowed detectors, and the episode runner.
* :mod:`rampnet.feedback` holds the local occupancy law (ALINEA, PI-ALINEA
  and open meters as one :class:`MeterBank`) and the rate/signal-timing
  arithmetic.
* :mod:`rampnet.sysid` discovers sparse polynomial dynamics (and a linear
  baseline) from metering logs by thresholded least squares.
* :mod:`rampnet.mpc` plans coordinated rates on a discovered model with a
  receding-horizon controller solved by projected Gauss-Newton.
* :mod:`rampnet.harness` wires the standard five-scenario comparison and the
  horizon sweep and writes the report files; :mod:`rampnet.cli` exposes it
  all as commands.

The demos/ directory in the repository walks through each capability.
"""
