package peerram

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/replication"
	"repro/internal/wal"
)

// ErrStopped reports a sender or holder shut down by Stop rather than by a
// stream failure.
var ErrStopped = errors.New("peerram: stopped")

// SenderOptions configures an owner-side replica sender.
type SenderOptions struct {
	// MaxLagTicks bounds the shipped-but-unacknowledged delta ticks, the
	// same back-pressure contract as the warm-standby shipper. <=0 means 64.
	MaxLagTicks int
	// IdlePoll is the WAL tail reader's fallback poll interval when no
	// tick-commit signal arrives. <=0 means 5ms.
	IdlePoll time.Duration
}

func (o *SenderOptions) defaults() {
	if o.MaxLagTicks <= 0 {
		o.MaxLagTicks = 64
	}
	if o.IdlePoll <= 0 {
		o.IdlePoll = 5 * time.Millisecond
	}
}

// SenderStats is a snapshot of a sender's progress counters.
type SenderStats struct {
	// ImagesShipped counts checkpoint images (the initial bootstrap plus
	// every RefreshImage); ImageBytes is the compressed size of the latest.
	ImagesShipped int64
	ImageBytes    int64
	// DeltaTicks and DeltaBytes count shipped tick bundles (compressed).
	DeltaTicks int64
	DeltaBytes int64
	// Acked is the holder's retention watermark: the first tick it still
	// needs. Every tick below it is safe in the holder's RAM.
	Acked    uint64
	HasAcked bool
}

// Sender streams one engine's checkpoint image and dirty-since-cut tick
// deltas into one peer's replica store. It is the warm-standby shipper with
// the standby replaced by compressed RAM: the same WAL tail-follow woken by
// the engine's tick-commit signal, the same CRC framing, the same ack-based
// retention (the holder's watermark feeds TickSub.NeedFrom), and no fsync
// anywhere on the tick path.
//
// Deltas are shipped one complete tick per frame: the sender holds a tick's
// records back until the engine's commit watermark proves the tick is fully
// in the log (or a later tick's record appears, which proves the same), so
// a connection cut can only ever cost whole ticks at the holder — the
// replica never holds a torn tick.
type Sender struct {
	e    *engine.Engine
	conn net.Conn
	opts SenderOptions
	sub  *engine.TickSub

	mu      sync.Mutex
	cond    *sync.Cond
	stats   SenderStats
	err     error
	stopped bool

	refresh chan chan error
	stop    chan struct{}
	done    chan struct{}
}

// StartSender attaches a replica sender to a live engine and starts
// streaming to conn (the holder's end is a Holder). It returns immediately;
// the initial image ships on a background goroutine. The caller must Stop
// the sender before closing the engine.
func StartSender(e *engine.Engine, conn net.Conn, opts SenderOptions) (*Sender, error) {
	opts.defaults()
	sub, err := e.SubscribeTicks()
	if err != nil {
		return nil, err
	}
	s := &Sender{
		e:       e,
		conn:    conn,
		opts:    opts,
		sub:     sub,
		refresh: make(chan chan error, 1),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	s.cond = sync.NewCond(&s.mu)
	go s.run()
	return s, nil
}

func (s *Sender) run() {
	defer close(s.done)
	err := s.ship()
	s.mu.Lock()
	if s.err == nil && err != nil && !s.stopped {
		s.err = err
	}
	s.cond.Broadcast()
	s.mu.Unlock()
	s.conn.Close() //nolint:errcheck // unblocks the holder; best effort
	s.sub.Close()
}

// frameBufs are the ship goroutine's reusable frame buffers: body is
// built (header, then the compressed payload deflated straight into it)
// and scratch is WriteFrame's length+CRC staging copy.
type frameBufs struct{ body, scratch []byte }

// shipImage snapshots the engine, compresses the slab, and ships it as one
// image frame. It returns the image floor (the first tick the image does
// not cover) so the delta stream can skip everything below it.
func (s *Sender) shipImage(fb *frameBufs) (uint64, error) {
	nextTick, snap, err := s.e.Snapshot()
	if err != nil {
		return 0, err
	}
	epoch := s.e.CheckpointEpoch()
	const hdr = 25
	body := append(fb.body[:0], replication.FrameReplicaImage)
	body = binary.LittleEndian.AppendUint64(body, epoch)
	body = binary.LittleEndian.AppendUint64(body, nextTick)
	body = binary.LittleEndian.AppendUint64(body, uint64(len(snap)))
	if body, err = deflate(body, snap); err != nil {
		return 0, err
	}
	fb.body = body
	if fb.scratch, err = replication.WriteFrame(s.conn, fb.scratch, body); err != nil {
		return 0, err
	}
	s.mu.Lock()
	s.stats.ImagesShipped++
	s.stats.ImageBytes = int64(len(body) - hdr)
	s.mu.Unlock()
	return nextTick, nil
}

// ship is the sender's main line: initial image, then the commit-gated
// bundle loop tail-following the engine's WAL.
func (s *Sender) ship() error {
	var fb frameBufs
	floor, err := s.shipImage(&fb)
	if err != nil {
		return err
	}
	s.sub.NeedFrom(floor)

	go s.ackLoop()

	tail := wal.NewTailReader(s.e.WALDir(), floor)
	defer tail.Close()

	var (
		cur     uint64 // tick being accumulated
		have    bool   // recs holds records of cur
		recs    []byte // raw bundle: u32-length-prefixed records of cur
		commit  uint64 // engine's latest committed tick
		sawComm bool
	)
	flush := func() error {
		if !have {
			return nil
		}
		const hdr = 17
		body := append(fb.body[:0], replication.FrameReplicaDelta)
		body = binary.LittleEndian.AppendUint64(body, cur)
		body = binary.LittleEndian.AppendUint64(body, uint64(len(recs)))
		body, err := deflate(body, recs)
		if err != nil {
			return err
		}
		fb.body = body
		if err := s.waitLag(cur, floor); err != nil {
			return err
		}
		if fb.scratch, err = replication.WriteFrame(s.conn, fb.scratch, body); err != nil {
			return err
		}
		s.mu.Lock()
		s.stats.DeltaTicks++
		s.stats.DeltaBytes += int64(len(body) - hdr)
		s.mu.Unlock()
		have, recs = false, recs[:0]
		return nil
	}
	for {
		select {
		case <-s.stop:
			return nil
		default:
		}
		// Fold any queued commit signals into the watermark (non-blocking:
		// the channel coalesces to the newest tick).
		select {
		case c := <-s.sub.C:
			commit, sawComm = c, true
		default:
		}
		tick, payload, ok, err := tail.TryNext()
		if err != nil {
			return err
		}
		if ok {
			if tick < floor {
				continue // covered by the image
			}
			if have && tick != cur {
				// A later tick's record proves cur is fully read.
				if err := flush(); err != nil {
					return err
				}
			}
			if !have {
				cur, have = tick, true
			}
			recs = binary.LittleEndian.AppendUint32(recs, uint32(len(payload)))
			recs = append(recs, payload...)
			continue
		}
		// Dry tail: the accumulated tick is complete iff the engine has
		// committed it (commit ⇒ flushed ⇒ everything of cur was readable).
		if have && sawComm && commit >= cur {
			if err := flush(); err != nil {
				return err
			}
		}
		select {
		case <-s.stop:
			return nil
		case reply := <-s.refresh:
			nt, err := s.shipImage(&fb)
			if err != nil {
				reply <- err
				return err
			}
			if nt > floor {
				floor = nt
			}
			if have && cur < floor {
				have, recs = false, recs[:0] // superseded by the new image
			}
			reply <- nil
		case c := <-s.sub.C:
			commit, sawComm = c, true
		case <-time.After(s.opts.IdlePoll):
		}
	}
}

// waitLag blocks until shipping tick keeps the in-flight window within
// MaxLagTicks, the stream dies, or the sender stops.
func (s *Sender) waitLag(tick, floor uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.stopped {
			return ErrStopped
		}
		if s.err != nil {
			return s.err
		}
		ackFrom := floor
		if s.stats.HasAcked && s.stats.Acked > ackFrom {
			ackFrom = s.stats.Acked
		}
		if ackFrom > tick || tick-ackFrom+1 <= uint64(s.opts.MaxLagTicks) {
			return nil
		}
		s.cond.Wait()
	}
}

// ackLoop consumes the holder's watermark stream, wakes the lag gate, and
// feeds the watermark to the engine's log retention.
func (s *Sender) ackLoop() {
	var buf []byte
	for {
		body, nbuf, err := replication.ReadFrame(s.conn, buf)
		if err != nil {
			s.mu.Lock()
			if s.err == nil && !s.stopped {
				s.err = fmt.Errorf("peerram: ack stream: %w", err)
			}
			s.cond.Broadcast()
			s.mu.Unlock()
			return
		}
		buf = nbuf
		if len(body) != 9 || body[0] != replication.FrameReplicaAck {
			s.mu.Lock()
			if s.err == nil {
				s.err = fmt.Errorf("peerram: malformed ack frame (type %d, %d bytes)", body[0], len(body))
			}
			s.cond.Broadcast()
			s.mu.Unlock()
			return
		}
		w := binary.LittleEndian.Uint64(body[1:])
		s.mu.Lock()
		if !s.stats.HasAcked || w > s.stats.Acked {
			s.stats.Acked, s.stats.HasAcked = w, true
		}
		s.cond.Broadcast()
		s.mu.Unlock()
		// Ack-based retention: the holder's RAM covers everything below w,
		// so the engine's log may reclaim it.
		s.sub.NeedFrom(w)
	}
}

// RefreshImage ships a fresh checkpoint image (superseding the holder's
// deltas below the new floor) and waits for it to be written to the stream.
// The cluster calls it after every coordinated world checkpoint, so a
// holder's replica tracks the newest cut and its delta tail stays short.
func (s *Sender) RefreshImage() error {
	reply := make(chan error, 1)
	select {
	case s.refresh <- reply:
	case <-s.done:
		return s.failure()
	}
	select {
	case err := <-reply:
		return err
	case <-s.done:
		return s.failure()
	}
}

func (s *Sender) failure() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return s.err
	}
	return ErrStopped
}

// AwaitAck blocks until the holder's watermark passes tick (its RAM covers
// everything at or below tick), the stream fails, or the timeout elapses.
func (s *Sender) AwaitAck(tick uint64, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	timer := time.AfterFunc(timeout, func() {
		s.mu.Lock()
		s.cond.Broadcast()
		s.mu.Unlock()
	})
	defer timer.Stop()
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.stats.HasAcked && s.stats.Acked > tick {
			return nil
		}
		if s.err != nil {
			return s.err
		}
		if s.stopped {
			return ErrStopped
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("peerram: tick %d not replicated within %v", tick, timeout)
		}
		s.cond.Wait()
	}
}

// Stats returns a snapshot of the sender's counters.
func (s *Sender) Stats() SenderStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Stop tears the link down and joins the goroutines. It returns the first
// stream error, or nil if the link was healthy.
func (s *Sender) Stop() error {
	s.mu.Lock()
	if !s.stopped {
		s.stopped = true
		close(s.stop)
	}
	s.cond.Broadcast()
	s.mu.Unlock()
	s.conn.Close() //nolint:errcheck // unblocks both loops
	<-s.done
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Holder is the receiving end of one replica link: it ingests image and
// delta frames into a Store and answers each with the store's retention
// watermark. One holder goroutine serves one (owner, holder-node) link.
type Holder struct {
	owner int
	store *Store
	conn  net.Conn

	mu      sync.Mutex
	err     error
	stopped bool
	done    chan struct{}
}

// StartHolder starts ingesting replica frames for owner into store.
func StartHolder(owner int, store *Store, conn net.Conn) *Holder {
	h := &Holder{owner: owner, store: store, conn: conn, done: make(chan struct{})}
	go h.run()
	return h
}

func (h *Holder) run() {
	defer close(h.done)
	err := h.serve()
	h.mu.Lock()
	if h.err == nil && err != nil && !h.stopped {
		h.err = err
	}
	h.mu.Unlock()
	h.conn.Close() //nolint:errcheck // unblocks the sender; best effort
}

func (h *Holder) serve() error {
	var rbuf, scratch []byte
	for {
		body, nbuf, err := replication.ReadFrame(h.conn, rbuf)
		if err != nil {
			return err
		}
		rbuf = nbuf
		var w uint64
		switch body[0] {
		case replication.FrameReplicaImage:
			if len(body) < 25 {
				return fmt.Errorf("peerram: short image frame (%d bytes)", len(body))
			}
			epoch := binary.LittleEndian.Uint64(body[1:])
			nextTick := binary.LittleEndian.Uint64(body[9:])
			rawLen := binary.LittleEndian.Uint64(body[17:])
			comp := append([]byte(nil), body[25:]...) // rbuf is reused
			if w, err = h.store.PutImage(h.owner, epoch, nextTick, int(rawLen), comp); err != nil {
				return err
			}
		case replication.FrameReplicaDelta:
			if len(body) < 17 {
				return fmt.Errorf("peerram: short delta frame (%d bytes)", len(body))
			}
			tick := binary.LittleEndian.Uint64(body[1:])
			rawLen := binary.LittleEndian.Uint64(body[9:])
			comp := append([]byte(nil), body[17:]...)
			if w, err = h.store.PutDelta(h.owner, tick, int(rawLen), comp); err != nil {
				return err
			}
		default:
			return fmt.Errorf("peerram: unexpected frame type %d", body[0])
		}
		ack := make([]byte, 0, 9)
		ack = append(ack, replication.FrameReplicaAck)
		ack = binary.LittleEndian.AppendUint64(ack, w)
		if scratch, err = replication.WriteFrame(h.conn, scratch, ack); err != nil {
			return err
		}
	}
}

// Err returns the stream error that ended the holder, nil while running or
// after a clean Stop.
func (h *Holder) Err() error {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.err
}

// Stop closes the link and joins the ingest goroutine.
func (h *Holder) Stop() error {
	h.mu.Lock()
	h.stopped = true
	h.mu.Unlock()
	h.conn.Close() //nolint:errcheck // unblocks the read loop
	<-h.done
	return h.Err()
}
