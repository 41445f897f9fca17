"""The paper's primary contribution: FEDCONS and its two phases
(MINPROCS over List-Scheduling templates; DBF*-based PARTITION)."""

from repro.core.dbf import (
    demand_breakpoints,
    edf_approx_test,
    edf_density_test,
    edf_exact_test,
    minimum_speed_exact,
    testing_interval_bound,
    total_dbf,
    total_dbf_approx,
)
from repro.core.fixed_priority import (
    deadline_monotonic,
    fp_exact_test,
    rbf_approx_test,
    response_time_analysis,
)
from repro.core.fedcons import (
    FailureReason,
    FedConsResult,
    HighDensityAllocation,
    fedcons,
    fedcons_accepts,
)
from repro.core.kernels import (
    CompiledDAG,
    compile_dag,
    disable_kernels,
    enable_kernels,
    kernels_enabled,
    use_kernels,
)
from repro.core.list_scheduling import (
    PRIORITY_ORDERS,
    PreparedLS,
    graham_anomaly_instance,
    graham_makespan_bound,
    list_schedule,
    makespan_lower_bound,
    prepare_ls,
    priority_list,
)
from repro.core.minprocs import MinProcsResult, minprocs, minprocs_unbounded
from repro.core.partition import (
    AdmissionTest,
    FitStrategy,
    PartitionResult,
    TaskOrder,
    partition,
    partition_sporadic,
)
from repro.core.schedule import Schedule, Slot
from repro.core.shard import ShardState

__all__ = [
    "Schedule",
    "Slot",
    "list_schedule",
    "priority_list",
    "PRIORITY_ORDERS",
    "PreparedLS",
    "prepare_ls",
    "CompiledDAG",
    "compile_dag",
    "kernels_enabled",
    "enable_kernels",
    "disable_kernels",
    "use_kernels",
    "graham_makespan_bound",
    "makespan_lower_bound",
    "graham_anomaly_instance",
    "minprocs",
    "minprocs_unbounded",
    "MinProcsResult",
    "total_dbf",
    "total_dbf_approx",
    "edf_density_test",
    "edf_approx_test",
    "edf_exact_test",
    "minimum_speed_exact",
    "testing_interval_bound",
    "demand_breakpoints",
    "partition",
    "partition_sporadic",
    "PartitionResult",
    "FitStrategy",
    "TaskOrder",
    "AdmissionTest",
    "ShardState",
    "deadline_monotonic",
    "response_time_analysis",
    "fp_exact_test",
    "rbf_approx_test",
    "fedcons",
    "fedcons_accepts",
    "FedConsResult",
    "FailureReason",
    "HighDensityAllocation",
]
