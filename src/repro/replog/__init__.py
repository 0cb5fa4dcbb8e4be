"""Log-shipping replication: operation log, checkpoints, catch-up, PITR.

The :class:`~repro.replog.shipper.ReplicationLog` facade is the public
entry point; :mod:`~repro.replog.records` defines the logical operation
codec, :mod:`~repro.replog.log` the CRC-framed segmented log,
:mod:`~repro.replog.checkpoint` the atomic snapshot store and
:mod:`~repro.replog.state` the replayable multiset they all share.
"""

from .checkpoint import Checkpoint, CheckpointStore
from .log import MAX_PAYLOAD, OperationLog
from .records import (
    OP_BULK,
    OP_DELETE,
    OP_INSERT,
    OP_SET_META,
    BulkLoadOp,
    DeleteOp,
    InsertOp,
    Operation,
    SetMetaOp,
    decode_op,
    encode_op,
)
from .digest import StateDigest, identity_token, meta_token
from .shipper import ReplicationLog, RestoreReport
from .state import LogicalState

__all__ = [
    "Checkpoint",
    "CheckpointStore",
    "OperationLog",
    "MAX_PAYLOAD",
    "OP_INSERT",
    "OP_DELETE",
    "OP_SET_META",
    "OP_BULK",
    "InsertOp",
    "DeleteOp",
    "SetMetaOp",
    "BulkLoadOp",
    "Operation",
    "encode_op",
    "decode_op",
    "ReplicationLog",
    "RestoreReport",
    "LogicalState",
    "StateDigest",
    "identity_token",
    "meta_token",
]
