"""Wire/durable representations for the campaign service.

Everything the service exchanges with clients — and everything it
persists per job — is plain JSON: a :class:`~repro.cluster.spec.CampaignSpec`
round-trips through :func:`spec_to_dict`/:func:`spec_from_dict`, a job's
lifecycle is a :class:`JobRecord`, and merged numpy outputs serialize
through :func:`encode_outputs` (per-lane hex strings plus dtype/shape,
lossless for the uint64-tier arrays the simulator produces).

:func:`outputs_digest` is the content fingerprint the acceptance tests
and the CI smoke job compare: sha256 over every output's name, dtype,
shape and values in name order (raw bytes for fixed-width dtypes,
per-element integer bytes for the object arrays of outputs wider than
64 bits).  Two runs whose digests match produced bit-identical merged
results.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass, field, fields
from typing import Dict, List, Optional

import numpy as np

from repro.cluster.spec import CampaignSpec
from repro.utils.errors import ServiceError

__all__ = [
    "JOB_STATES",
    "JobRecord",
    "spec_to_dict",
    "spec_from_dict",
    "encode_outputs",
    "decode_outputs",
    "outputs_digest",
]

#: Lifecycle: queued -> running -> done | failed | cancelled.
JOB_STATES = ("queued", "running", "done", "failed", "cancelled")
TERMINAL_STATES = ("done", "failed", "cancelled")


def spec_to_dict(spec: CampaignSpec) -> dict:
    """A JSON-safe dict that :func:`spec_from_dict` restores exactly."""
    d = asdict(spec)
    d["lane_faults"] = [
        [int(c), int(l), str(r)] for c, l, r in spec.lane_faults
    ]
    return d


def spec_from_dict(d: dict) -> CampaignSpec:
    """Rebuild a validated :class:`CampaignSpec` from client JSON.

    Unknown keys are rejected with a clear error (a typo'd field name
    must not silently fall back to a default and simulate the wrong
    campaign); ``lane_faults`` entries become the tuples the spec
    expects.
    """
    if not isinstance(d, dict):
        raise ServiceError(f"spec must be a JSON object, got {type(d).__name__}")
    known = {f.name for f in fields(CampaignSpec)}
    unknown = sorted(set(d) - known)
    if unknown:
        raise ServiceError(
            "unknown spec field(s) " + ", ".join(repr(u) for u in unknown)
            + "; known fields: " + ", ".join(sorted(known))
        )
    kw = dict(d)
    try:
        kw["lane_faults"] = [
            (int(c), int(l), str(r)) for c, l, r in kw.get("lane_faults", [])
        ]
    except (TypeError, ValueError) as exc:
        raise ServiceError(
            f"lane_faults entries must be [cycle, lane, reason] triples: {exc}"
        ) from exc
    try:
        spec = CampaignSpec(**kw)
        spec.validate()
    except ServiceError:
        raise
    except Exception as exc:  # TypeError, ClusterError, ... -> HTTP 400
        raise ServiceError(f"bad spec: {exc}") from exc
    return spec


# -- merged outputs over the wire ---------------------------------------------


def encode_outputs(outputs: Dict[str, np.ndarray]) -> dict:
    """Numpy outputs as JSON: hex value strings + dtype + shape."""
    enc = {}
    for name in sorted(outputs):
        arr = np.asarray(outputs[name])
        enc[name] = {
            "dtype": str(arr.dtype),
            "shape": list(arr.shape),
            "hex": [format(int(v), "x") for v in arr.reshape(-1)],
        }
    return enc


def decode_outputs(enc: dict) -> Dict[str, np.ndarray]:
    out = {}
    for name, rec in enc.items():
        arr = np.array([int(h, 16) for h in rec["hex"]],
                       dtype=np.dtype(rec["dtype"]))
        out[name] = arr.reshape(rec["shape"])
    return out


def _value_bytes(arr: np.ndarray) -> bytes:
    """The bytes that stand for ``arr``'s values in a digest.

    Fixed-width dtypes hash their raw buffer.  Object arrays (outputs
    wider than 64 bits hold Python ints) would hash PyObject pointers
    that way, so each element is hashed by value instead: a 4-byte
    length, then its little-endian signed bytes.
    """
    if arr.dtype != object:
        return arr.tobytes()
    parts = []
    for v in arr.reshape(-1):
        v = int(v)
        b = v.to_bytes((v.bit_length() + 8) // 8, "little", signed=True)
        parts.append(len(b).to_bytes(4, "little") + b)
    return b"".join(parts)


def outputs_digest(outputs: Dict[str, np.ndarray]) -> str:
    """sha256 content fingerprint of a merged output set."""
    h = hashlib.sha256()
    for name in sorted(outputs):
        arr = np.ascontiguousarray(outputs[name])
        h.update(f"{name}:{arr.dtype}:{arr.shape};".encode())
        h.update(_value_bytes(arr))
    return h.hexdigest()


# -- job lifecycle ------------------------------------------------------------


@dataclass
class JobRecord:
    """One submitted campaign's durable state.

    This is what ``<data_dir>/jobs/<id>.json`` holds and what the
    status endpoint returns (minus the events, which are in-memory and
    served incrementally).  Shard *results* never live here — they live
    in the content-addressed store, which is how a restarted server
    resumes a half-finished job without redoing its completed shards.
    """

    id: str
    tenant: str
    weight: float
    spec: dict  # spec_to_dict form
    state: str = "queued"
    submitted_seq: int = 0
    shards_total: int = 0
    shards_done: int = 0
    store_hits: int = 0
    shards_simulated: int = 0
    cancelled_shards: int = 0
    error: Optional[str] = None
    result_digest: Optional[str] = None
    wall_seconds: float = 0.0
    outputs: List[str] = field(default_factory=list)  # output signal names

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "JobRecord":
        known = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in d.items() if k in known})

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def progress(self) -> dict:
        return {
            "state": self.state,
            "shards_done": self.shards_done,
            "shards_total": self.shards_total,
            "store_hits": self.store_hits,
            "shards_simulated": self.shards_simulated,
            "hit_rate": (
                self.store_hits / self.shards_total
                if self.shards_total else 0.0
            ),
        }
