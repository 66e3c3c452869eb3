"""Device placement: which storage level serves each reference.

Section 3.1: "The MSS tries to keep all files under 30 MB on the 3090
disks, and immediately sends all files over 30 MB to tape.  Usually, the
tapes written are those in the cartridge silo."  Shelf tape serves old,
cold files -- 97 % of its traffic is reads (Table 3) -- so tape-class reads
go to the silo while the file is *recent* and to the shelf once it has gone
cold (or if it pre-dates the trace).
"""

from __future__ import annotations

import numpy as np

from repro.trace.record import Device
from repro.workload.config import PlacementConfig

#: Index of each storage device in :meth:`Device.storage_devices` order,
#: the encoding ``SyntheticTrace.device_idx`` carries.
DEVICE_INDEX = {device: i for i, device in enumerate(Device.storage_devices())}

_DISK_IDX = np.int8(DEVICE_INDEX[Device.MSS_DISK])
_SILO_IDX = np.int8(DEVICE_INDEX[Device.TAPE_SILO])
_SHELF_IDX = np.int8(DEVICE_INDEX[Device.TAPE_SHELF])


def assign_devices_batch(
    rng: np.random.Generator,
    config: PlacementConfig,
    file_ids: np.ndarray,
    sizes: np.ndarray,
    times: np.ndarray,
    is_write: np.ndarray,
) -> np.ndarray:
    """Storage level of every reference in a time-sorted stream.

    Returns ``device_idx`` (int8, :data:`DEVICE_INDEX` encoding) for every
    event.  Small files stay on disk.  A tape-class write lands on the
    silo (rarely the shelf); a tape-class read hits the silo while the
    file was touched within the silo residency, and otherwise comes off
    the shelf, where the operators sometimes re-enter the cartridge into
    the silo.  RNG draws are batched (one block of write-landing coins,
    one block of promote coins); the seed's per-event loop, which draws
    one coin per decision, survives in the tests as the statistical
    reference.

    The silo/shelf recency machine collapses to a boolean set/reset/hold
    recurrence per file.  With ``expired`` = inter-access gap beyond the
    silo residency (a silo cartridge would have been ejected) and
    ``promote`` = the operator re-enters a recalled shelf tape::

        shelf_after(read)  = not promote  if (shelf_before or expired)
                             else shelf_before          # silo hit: hold
        shelf_after(write) = write_shelf_coin           # reset

    Every hold copies the previous state, so the state at any event is
    the value at its most recent *deciding* event -- found for all events
    at once with ``np.maximum.accumulate`` over deciding indices.  A
    file's first event always decides (a write, or a read whose gap from
    ``-inf`` is expired), so holds never leak across files and the rare
    promote-chains need no Python loop either.

    Pre-existing tape files need no explicit registration: their first
    read has an infinite gap, which lands on the shelf and rolls the
    promote coin like any shelved archive (a silo start would be ejected
    on first touch the same way).
    """
    n = times.size
    device = np.full(n, _DISK_IDX, dtype=np.int8)
    if n == 0:
        return device
    tape_idx = np.where(np.asarray(sizes) >= config.disk_threshold_bytes)[0]
    if tape_idx.size == 0:
        return device

    # Group per file: stable sort keeps time order inside each file.
    order = np.argsort(file_ids[tape_idx], kind="stable")
    tape_idx = tape_idx[order]
    fid = file_ids[tape_idx]
    t = times[tape_idx].astype(np.float64, copy=False)
    w = is_write[tape_idx]
    m = fid.size

    first = np.empty(m, dtype=bool)
    first[0] = True
    np.not_equal(fid[1:], fid[:-1], out=first[1:])
    gap = np.empty(m, dtype=np.float64)
    gap[0] = np.inf
    np.subtract(t[1:], t[:-1], out=gap[1:])
    gap[first] = np.inf
    expired = gap > config.silo_residency

    # Batched RNG: one landing coin per write, one promote coin per read.
    # The promote coin only *matters* when the file is (or just became)
    # shelved -- exactly the events the scalar path draws it for -- so
    # drawing it unconditionally leaves the outcome law unchanged.
    coins = rng.random(m)
    w_coin = w & (coins < config.tape_write_shelf_fraction)
    promote = ~w & (coins < config.promote_on_read)

    # State after each event, solved as a gather from the last deciding
    # event (writes always decide; reads decide unless they are silo
    # holds, i.e. neither expired nor promoted).
    decides = w | expired | promote
    decided_state = np.where(w, w_coin, ~promote)
    last_decider = np.where(decides, np.arange(m, dtype=np.int64), -1)
    np.maximum.accumulate(last_decider, out=last_decider)
    shelf_after = decided_state[last_decider]

    shelf_before = np.empty(m, dtype=bool)
    shelf_before[0] = True
    shelf_before[1:] = shelf_after[:-1]
    shelf_before[first] = True  # unseen tape files start as shelved archive

    # Device: writes land by their coin; reads hit the silo only when the
    # file is silo-resident and still inside the residency window.
    on_shelf_event = np.where(w, w_coin, shelf_before | expired)
    out = np.where(on_shelf_event, _SHELF_IDX, _SILO_IDX).astype(np.int8)
    device[tape_idx] = out
    return device
