package engine

import (
	"errors"

	"repro/internal/recovery"
	"repro/internal/telemetry"
)

// Peer-RAM recovery: RecoverFromPeer is RecoverFrom with the restore side
// swapped — instead of choosing a local disk image, the sharded pipeline
// streams a checkpoint image out of a surviving peer's memory and replays
// the peer-held dirty-since-cut tick deltas ahead of the local WAL tail.
// The pipeline itself is unchanged (per-shard restore watermarks gating
// per-shard replay, see recovery.RecoverParallel); only the byte sources
// differ, which is what makes peer-RAM recovery byte-identical to the disk
// pipeline by construction.

// RecoverSource is a peer-held replica of this engine's durable state: a
// checkpoint image plus the tick-ordered log records accumulated since the
// image's cut. internal/peerram builds one from a surviving node's
// compressed in-memory replica.
type RecoverSource struct {
	// Image restores the slab in place of the local A/B disk backups.
	Image recovery.ImageSource
	// Prelude returns a fresh tick-ordered stream of the records since the
	// image's cut. It is called up to twice — once to feed the restore
	// pipeline and once to heal the local log — so each call must yield an
	// independent iteration over the same records.
	Prelude func() (recovery.RecordSource, error)
}

// RecoverFromPeer opens an engine in opts.Dir like RecoverFrom, but
// restores through src: the peer's image fills the slab (one shard range
// at a time, concurrently), the peer's delta records replay first, and the
// local WAL tail replays after them for any ticks the peer had not yet
// received — overlapped exactly like the disk pipeline. After the restore
// the local durable state is healed (see healFromPeer) so a later plain
// disk recovery of the same directory cannot silently resurrect a
// pre-crash world.
//
// Peer-RAM recovery writes checkpoints of the restored state, so opts must
// name a durable directory (not InMemory) and a checkpointing mode.
func RecoverFromPeer(opts Options, src RecoverSource) (*Engine, recovery.ParallelResult, error) {
	var zero recovery.ParallelResult
	if src.Image == nil || src.Prelude == nil {
		return nil, zero, errors.New("engine: RecoverFromPeer needs both an image and a prelude source")
	}
	if opts.InMemory {
		return nil, zero, errors.New("engine: peer-RAM recovery requires a durable dir (not InMemory)")
	}
	if opts.Mode == ModeNone {
		return nil, zero, errors.New("engine: peer-RAM recovery needs a checkpointing mode (ModeNone cannot persist the restored state)")
	}
	e, pres, err := open(opts, true, &src, nil)
	if err != nil {
		return nil, pres, err
	}
	if err := e.healFromPeer(&src, pres); err != nil {
		e.Close()
		return nil, pres, err
	}
	return e, pres, nil
}

// healFromPeer makes the local directory self-sufficient again after a peer
// restore. The restored world may be ahead of everything on local disk (the
// peer held ticks the local WAL lost, and both local images predate the
// crash), so without a heal a later disk-only recovery of this directory
// would come up behind the world it claims to be — silently.
//
// Two cases:
//
//  1. The peer's records overlap or abut the local WAL's end. Appending the
//     records the WAL is missing makes the log gapless through the restored
//     tick, and one Sync makes them durable — no image write on the
//     recovery path. The overlap also proves the WAL's final tick is not
//     torn (a crash can flush a range-install record without the update
//     batch that shares its tick): the peer's copy of that tick is complete
//     by the sender's commit gating, so a record-count match is proof, and
//     a count mismatch is healed by appending exactly the missing suffix.
//  2. The peer's image floor is past the local WAL's end (the WAL lost more
//     ticks than the peer retained records for), or the peer's stream
//     cannot vouch for the WAL's final tick. The gap is unfillable from
//     records, so the restored slab itself is persisted as a complete
//     bootstrap image — same protocol as a standby bootstrap — and disk
//     recovery restarts from that image.
//
// The heal is one pass over the prelude. With an intact local WAL (the
// common process crash) it appends nothing and writes nothing, so its cost
// is that pass alone; it is recorded as the recovery/heal span.
func (e *Engine) healFromPeer(src *RecoverSource, pres recovery.ParallelResult) error {
	if e.tick == 0 {
		return nil // empty world: nothing restored, nothing to heal
	}
	sp := telemetry.StartSpan("recovery/heal")
	missing, ok, err := walSuffix(src, pres)
	if err != nil {
		sp.End()
		return err
	}
	if !ok {
		err = e.writeBootstrapImage(e.tick - 1)
		sp.End(telemetry.Int("appended", 0), telemetry.Int("bootstrap", 1))
		return err
	}
	for _, r := range missing {
		if err = e.log.Append(r.tick, r.payload); err != nil {
			break
		}
	}
	if err == nil && len(missing) > 0 {
		err = e.log.Sync()
	}
	sp.End(telemetry.Int("appended", int64(len(missing))), telemetry.Int("bootstrap", 0))
	return err
}

// peerRecord is one prelude record the local WAL is missing.
type peerRecord struct {
	tick    uint64
	payload []byte
}

// walSuffix returns the prelude records the local WAL is missing, in order,
// or ok=false when appending records cannot make the log gapless through
// the restored tick.
func walSuffix(src *RecoverSource, pres recovery.ParallelResult) (missing []peerRecord, ok bool, err error) {
	floor := uint64(0) // first tick the peer image does not cover
	if pres.Restored {
		floor = pres.AsOfTick + 1
	}
	// An empty local WAL is gapless only if the peer's records start at
	// tick 0. Otherwise the peer must share the WAL's final tick: at
	// floor == LastLogTick+1 (abutting) it cannot vouch for that tick, and
	// past it there is a hole no record fills.
	if pres.SawLogTick && floor > pres.LastLogTick || !pres.SawLogTick && floor != 0 {
		return nil, false, nil
	}
	rs, err := src.Prelude()
	if err != nil {
		return nil, false, err
	}
	atLast := 0 // peer records at the WAL's final tick
	for {
		tick, payload, more, err := rs.Next()
		if err != nil {
			return nil, false, err
		}
		if !more {
			break
		}
		if pres.SawLogTick {
			if tick < pres.LastLogTick {
				continue // already in the local log
			}
			if tick == pres.LastLogTick {
				if atLast++; atLast <= pres.LastTickRecords {
					continue // local copy intact; skip the peer's duplicate
				}
			}
		}
		missing = append(missing, peerRecord{tick, payload})
	}
	// Equal counts at the final tick mean the WAL is intact through it; a
	// larger peer count means the tick is torn and the suffix above heals
	// it; a smaller count means the peer stream is behind the local log
	// inside a shared tick, which commit gating rules out — unverifiable.
	if pres.SawLogTick && atLast < pres.LastTickRecords {
		return nil, false, nil
	}
	return missing, true, nil
}
