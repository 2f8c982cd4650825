package replication

import (
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/engine"
)

// ShipperOptions configures a primary-side shipper.
type ShipperOptions struct {
	// MaxLagTicks bounds the number of shipped-but-unacknowledged ticks:
	// the shipper stalls (never drops, never reorders) once the standby
	// falls this many ticks behind, which in turn bounds the standby's
	// replay lag — the warm-failover budget. <=0 means 64.
	MaxLagTicks int
}

// ShipperStats is a snapshot of a shipper's progress counters.
type ShipperStats struct {
	// StartTick is the first tick the stream carries (the bootstrap
	// snapshot covers everything before it).
	StartTick uint64
	// SnapshotBytes is the size of the bootstrap image shipped.
	SnapshotBytes int64
	// TicksShipped and BytesShipped count ftTick traffic.
	TicksShipped int64
	BytesShipped int64
	// Shipped and Acked are the high-water ticks sent and acknowledged.
	Shipped, Acked       uint64
	HasShipped, HasAcked bool
}

// Shipper streams a primary engine to one standby: bootstrap snapshot
// first, then live WAL records tail-followed from the engine's log
// directory, one ftTick frame per record, over an ack-bounded Stream whose
// watermark is the standby's applied tick plus one. Start it with
// StartShipper; it runs until the connection breaks, the engine closes, or
// Stop.
type Shipper struct {
	e    *engine.Engine
	conn net.Conn
	st   *Stream

	// Main-line frame buffers: the ftTick body and writeFrame's staging.
	frame, scratch []byte

	mu    sync.Mutex
	stats ShipperStats // Acked/HasAcked are filled from the stream
}

// StartShipper attaches a shipper to a live engine and starts streaming to
// conn. It returns immediately; the handshake, snapshot and shipping all
// run on background goroutines (the two ends of a connection can therefore
// be started from one goroutine, in either order). The caller must Stop the
// shipper before closing the engine.
func StartShipper(e *engine.Engine, conn net.Conn, opts ShipperOptions) (*Shipper, error) {
	if opts.MaxLagTicks <= 0 {
		opts.MaxLagTicks = 64
	}
	sub, err := e.SubscribeTicks()
	if err != nil {
		return nil, err
	}
	s := &Shipper{e: e, conn: conn}
	s.st = NewStream(conn, sub, opts.MaxLagTicks, s.decodeAck)
	s.st.Go(s.ship)
	return s, nil
}

// ship is the shipper's main line: handshake, snapshot bootstrap, then the
// stream's tail-follow loop.
func (s *Shipper) ship() error {
	store := s.e.Store()
	local := hello{
		objects:  uint64(store.NumObjects()),
		objSize:  uint32(store.ObjSize()),
		cellSize: 4,
	}
	if err := greet(s.conn, local); err != nil {
		return err
	}

	// Resume negotiation: the standby states where its engine stands. A
	// fresh standby (0) gets the full bootstrap; a reconnecting one (v>0)
	// skips the snapshot and the stream picks up at tick v-1 — its own WAL
	// and checkpoints already cover everything below.
	body, _, err := readFrame(s.conn, nil)
	if err != nil {
		return fmt.Errorf("replication: resume: %w", err)
	}
	resume, err := decodeU64(ftResume, body)
	if err != nil {
		return err
	}

	var nextTick uint64
	if resume == 0 {
		// Bootstrap: a consistent image as of nextTick-1, shipped in
		// chunks. The engine keeps ticking while this streams; the WAL
		// retains everything from nextTick for us (Open's floor).
		var snap []byte
		if nextTick, snap, err = s.e.Snapshot(); err != nil {
			return err
		}
		s.open(nextTick, len(snap))
		if s.scratch, err = sendSnapshot(s.conn, s.scratch, nextTick, snap); err != nil {
			return err
		}
	} else {
		nextTick = resume - 1
		s.open(nextTick, 0)
	}

	// The live stream. Range installs need no special casing at the
	// snapshot boundary: they are logged at the engine's next tick (>= the
	// floor), so one sharing the snapshot's inter-tick window is streamed
	// regardless of which side of the copy it landed on — and re-applying
	// absolute bytes the snapshot already contains is idempotent on the
	// standby.
	return s.st.Follow(s.e.WALDir(), nextTick, (*tickWriter)(s), nil)
}

// open records the stream's first tick and opens the ack half there.
func (s *Shipper) open(startTick uint64, snapBytes int) {
	s.mu.Lock()
	s.stats.StartTick = startTick
	s.stats.SnapshotBytes = int64(snapBytes)
	s.mu.Unlock()
	s.st.Open(startTick)
}

// decodeAck maps the standby's applied-tick ack t to the watermark t+1
// and publishes the ack and lag gauges.
func (s *Shipper) decodeAck(body []byte) (uint64, error) {
	tick, err := decodeU64(ftAck, body)
	if err != nil {
		return 0, err
	}
	s.mu.Lock()
	lag := int64(0)
	if s.stats.HasShipped && s.stats.Shipped > tick {
		lag = int64(s.stats.Shipped - tick)
	}
	s.mu.Unlock()
	telAckedTick.Set(int64(tick))
	telLagTicks.Set(lag)
	return tick + 1, nil
}

// tickWriter is the shipper's frame encoder: one ftTick frame per record.
type tickWriter Shipper

// Record ships one log record as an ftTick frame.
func (w *tickWriter) Record(tick uint64, payload []byte) error {
	w.frame = tickFrame(w.frame, tick, payload)
	var err error
	if w.scratch, err = writeFrame(w.conn, w.scratch, w.frame); err != nil {
		return err
	}
	need, hasAcked := w.st.watermark()
	w.mu.Lock()
	w.stats.TicksShipped++
	w.stats.BytesShipped += int64(len(w.frame))
	w.stats.Shipped, w.stats.HasShipped = tick, true
	w.mu.Unlock()
	telTicksShipped.Inc()
	telBytesShipped.Add(uint64(len(w.frame)))
	telShippedTick.Set(int64(tick))
	if hasAcked {
		telLagTicks.Set(int64(tick + 1 - need))
	}
	return nil
}

// TickDone is a no-op: the standby applies record by record.
func (w *tickWriter) TickDone(uint64) error { return nil }

// Stats returns a snapshot of the shipper's counters.
func (s *Shipper) Stats() ShipperStats {
	s.mu.Lock()
	st := s.stats
	s.mu.Unlock()
	st.Acked, st.HasAcked = s.Acked()
	return st
}

// Acked returns the standby's high-water applied tick.
func (s *Shipper) Acked() (uint64, bool) {
	need, ok := s.st.watermark()
	if !ok {
		return 0, false
	}
	return need - 1, true
}

// AwaitAck blocks until the standby has acknowledged tick, the stream
// fails, or the timeout elapses.
func (s *Shipper) AwaitAck(tick uint64, timeout time.Duration) error {
	return s.st.AwaitAck(tick, timeout)
}

// Done is closed when the shipper has fully stopped.
func (s *Shipper) Done() <-chan struct{} { return s.st.Done() }

// Err returns the stream error that ended the shipper, nil while running or
// after a clean Stop.
func (s *Shipper) Err() error { return s.st.Err() }

// Stop tears the session down: the connection is closed (the standby sees
// the stream end and can promote) and the goroutines joined. It returns the
// first stream error, or nil if the session was healthy.
func (s *Shipper) Stop() error { return s.st.Stop() }
