"""Life-cycle carbon accounting and compute-carbon-intensity reporting
for accelerator fleets."""

from .cci import (
    CciReport,
    WorkloadEstimate,
    build_report,
    embodied_cci,
    energy_per_exaflop,
    estimate_workload,
    lifetime_exaflops,
    operational_cci,
)
from .errors import ComputationError, ConfigError, FleetCarbonError, IngestError
from .factors import (
    EmissionFactorSet,
    HourlyGridSeries,
    HourlyRecord,
    ScenarioSpec,
    hourly_247_emissions,
    scenario_manufacturing_reduction,
)
from .lca import (
    EmbodiedBreakdown,
    LcaComponentEntry,
    MachineInventory,
    TransportLeg,
    inventory_views,
    machine_manufacturing,
    machine_transport,
    per_chip_embodied,
)
from .telemetry import (
    BucketScheme,
    Cell,
    FleetDataset,
    FleetWindow,
    PlatformSpec,
    aggregate,
    exclude_incomplete,
    ingest,
    lifetime_energy_per_chip,
    machine_power,
)
from .weighting import (
    BalancedComparison,
    Observation,
    balanced_comparison,
    propensity_scores,
    weighted_average,
    weights,
)
from .workload import (
    OnDutyPower,
    StepEmissions,
    WorkloadRun,
    emissions_per_step,
    on_duty_power,
    workload_cci,
)

__version__ = "0.1.0"
