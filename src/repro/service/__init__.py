"""Admission-as-a-service: the online controller as a replicated server.

:mod:`repro.online` made FEDCONS admission incremental and durable; this
package makes it *serve*.  The pieces, bottom-up:

:mod:`repro.service.protocol`
    the wire format -- line-delimited JSON requests/responses, the same
    framing as the journal so replication streams are journal-verbatim.
:mod:`repro.service.server`
    :class:`~repro.service.server.AdmissionServer`: asyncio front-end that
    coalesces concurrent requests into one commit batch, applies each
    through ``DurableController.admit``/``depart`` with a single group
    fsync per batch, answers only after durability, and streams every
    fsynced record to replication subscribers.  Optional HTTP shim
    (``/admit``, ``/depart``, ``/state``, ``/metrics``).
:mod:`repro.service.replica`
    :class:`~repro.service.replica.StandbyReplica` +
    :class:`~repro.service.replica.StandbyFollower`: the warm standby.
    Applies streamed records through the oracle-checked replay path,
    journals them verbatim, and on primary death promotes via
    ``recover(verify=True)`` with live-state equality -- failover
    staleness is bounded by the primary's in-flight replication window.
:mod:`repro.service.client`
    a blocking LDJSON client for tests, load drivers and the CLI.
:mod:`repro.service.drill`
    the kill-primary fire drill: spawn a real primary process, SIGKILL it
    mid-load, promote the standby, verify the takeover, measure failover.
:mod:`repro.service.cli`
    the ``fedcons-serve`` command (serve / standby / client / drill).
"""

from repro.service.client import AdmissionClient
from repro.service.drill import (
    DrillReport,
    PrimaryHandle,
    controller_from_records,
    drive_admissions,
    run_drill,
    spawn_primary,
)
from repro.service.protocol import (
    MAX_LINE_BYTES,
    PROTOCOL_VERSION,
    decision_from_dict,
    decision_to_dict,
    decode,
    encode,
    receipt_from_dict,
    receipt_to_dict,
)
from repro.service.replica import PromotionReport, StandbyFollower, StandbyReplica
from repro.service.server import AdmissionServer

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_LINE_BYTES",
    "encode",
    "decode",
    "decision_to_dict",
    "decision_from_dict",
    "receipt_to_dict",
    "receipt_from_dict",
    "AdmissionServer",
    "AdmissionClient",
    "StandbyReplica",
    "StandbyFollower",
    "PromotionReport",
    "PrimaryHandle",
    "DrillReport",
    "spawn_primary",
    "drive_admissions",
    "run_drill",
    "controller_from_records",
]
