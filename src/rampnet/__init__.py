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

from .feedback import (RATE_MAX_VPH, RATE_MIN_VPH, MeterBank, green_percentage,
                       rate_to_red_duration)
from .harness import (SCENARIOS, ScenarioResult, UsageError, collect,
                      horizon_sweep, load_logs, make_controller, report,
                      run_scenarios)
from .mpc import (ModelBlowupError, MpcConfig, MpcController, MpcSolution,
                  SolverSettings, bound_penalty, objective, rollout, solve)
from .network import (CellParams, ConfigError, Highway, JunctionSpec,
                      NetworkConfig, RampSpec, benchmark_config_path,
                      load_config, save_config, serialize_config)
from .plant import (ConservationError, ControlObservation, EpisodeRecord,
                    RampSignal, StepInfo, TrafficPlant, run_episode)
from .sysid import (FeatureLibrarySpec, FitReport, InsufficientDataError,
                    SparseModel, TrajectoryLog, build_library, differentiate,
                    discover_dmdc, discover_sindyc, fit_derivatives,
                    fit_report, stls_regress, term_label)

__version__ = "0.1.0"
