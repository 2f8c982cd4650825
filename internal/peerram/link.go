package peerram

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"time"

	"repro/internal/engine"
	"repro/internal/replication"
)

// maxLagTicks bounds a link's shipped-but-unacknowledged delta ticks, the
// same back-pressure contract as the warm-standby shipper's default.
const maxLagTicks = 64

// Sender streams one engine's checkpoint image and dirty-since-cut tick
// deltas into one peer's replica store. It is a frame encoder over the
// warm-standby shipper's ack-bounded replication.Stream with the standby
// replaced by compressed RAM: the same WAL tail-follow woken by the
// engine's tick-commit signal, the same CRC framing, the same ack-based
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
	st   *replication.Stream

	refresh chan replication.TailJob

	// Main-line state: the open tick's raw bundle (u32-length-prefixed
	// records of tick) and the frame buffers — body is built (header, then
	// the compressed payload deflated straight into it) and scratch is
	// WriteFrame's length+CRC staging copy.
	tick          uint64
	recs          []byte
	body, scratch []byte
}

// StartSender attaches a replica sender to a live engine and starts
// streaming to conn (the holder's end is a Holder). It returns immediately;
// the initial image ships on a background goroutine. The caller must Stop
// the sender before closing the engine.
func StartSender(e *engine.Engine, conn net.Conn) (*Sender, error) {
	sub, err := e.SubscribeTicks()
	if err != nil {
		return nil, err
	}
	s := &Sender{e: e, conn: conn, refresh: make(chan replication.TailJob)}
	s.st = replication.NewStream(conn, sub, maxLagTicks, func(body []byte) (uint64, error) {
		return replication.DecodeU64(replication.FrameReplicaAck, body)
	})
	s.st.Go(s.ship)
	return s, nil
}

// ship is the sender's main line: initial image, then the commit-gated
// bundle loop tail-following the engine's WAL.
func (s *Sender) ship() error {
	floor, err := s.shipImage()
	if err != nil {
		return err
	}
	s.st.Open(floor)
	return s.st.Follow(s.e.WALDir(), floor, (*bundler)(s), s.refresh)
}

// shipImage snapshots the engine, compresses the slab, and ships it as one
// image frame. It returns the image floor (the first tick the image does
// not cover) so the delta stream can skip everything below it.
func (s *Sender) shipImage() (uint64, error) {
	nextTick, snap, err := s.e.Snapshot()
	if err != nil {
		return 0, err
	}
	body := append(s.body[:0], replication.FrameReplicaImage)
	body = binary.LittleEndian.AppendUint64(body, s.e.CheckpointEpoch())
	body = binary.LittleEndian.AppendUint64(body, nextTick)
	body = binary.LittleEndian.AppendUint64(body, uint64(len(snap)))
	if s.body, err = deflate(body, snap); err != nil {
		return 0, err
	}
	if s.scratch, err = replication.WriteFrame(s.conn, s.scratch, s.body); err != nil {
		return 0, err
	}
	return nextTick, nil
}

// bundler is the sender's frame encoder: one deflated bundle per tick.
type bundler Sender

// Record appends one log record to the open tick's bundle.
func (b *bundler) Record(tick uint64, payload []byte) error {
	b.tick = tick
	b.recs = binary.LittleEndian.AppendUint32(b.recs, uint32(len(payload)))
	b.recs = append(b.recs, payload...)
	return nil
}

// TickDone ships the complete tick as one compressed delta frame.
func (b *bundler) TickDone(tick uint64) error {
	body := append(b.body[:0], replication.FrameReplicaDelta)
	body = binary.LittleEndian.AppendUint64(body, tick)
	body = binary.LittleEndian.AppendUint64(body, uint64(len(b.recs)))
	var err error
	if b.body, err = deflate(body, b.recs); err != nil {
		return err
	}
	b.recs = b.recs[:0]
	b.scratch, err = replication.WriteFrame(b.conn, b.scratch, b.body)
	return err
}

// RefreshImage ships a fresh checkpoint image (superseding the holder's
// deltas below the new floor) and waits for it to be written to the stream.
// The cluster calls it after every coordinated world checkpoint, so a
// holder's replica tracks the newest cut and its delta tail stays short.
func (s *Sender) RefreshImage() error {
	reply := make(chan error, 1)
	job := func() (uint64, error) {
		floor, err := s.shipImage()
		if err == nil && len(s.recs) > 0 && s.tick < floor {
			s.recs = s.recs[:0] // superseded by the new image
		}
		reply <- err
		return floor, err
	}
	select {
	case s.refresh <- job:
		return <-reply // the tail loop runs an accepted job before anything else
	case <-s.st.Done():
		if err := s.st.Err(); err != nil {
			return err
		}
		return replication.ErrStopped
	}
}

// AwaitAck blocks until the holder's watermark passes tick (its RAM covers
// everything at or below tick), the stream fails, or the timeout elapses.
func (s *Sender) AwaitAck(tick uint64, timeout time.Duration) error {
	return s.st.AwaitAck(tick, timeout)
}

// Stop tears the link down and joins the goroutines. It returns the first
// stream error, or nil if the link was healthy.
func (s *Sender) Stop() error { return s.st.Stop() }

// ErrBadFrame reports a replica frame the holder refuses: short, of an
// unknown type, or declaring an inflated size that cannot be true. Sizes
// come off the wire, so the holder checks them before anything allocates
// by them.
var ErrBadFrame = errors.New("peerram: malformed replica frame")

// maxInflateRatio is DEFLATE's largest expansion: one 258-byte match per
// two bits. A delta declaring more raw bytes than this times its compressed
// length is lying.
const maxInflateRatio = 1032

// Holder is the receiving end of one replica link: it ingests image and
// delta frames into a Store and answers each with the store's retention
// watermark. One holder goroutine serves one (owner, holder-node) link.
type Holder struct {
	owner     int
	slabBytes int // the owner's slab size: every image inflates to exactly this
	store     *Store
	conn      net.Conn
	st        *replication.Stream // lifecycle only: the holder writes acks, it reads none
}

// StartHolder starts ingesting replica frames for owner, whose slab is
// slabBytes long, into store.
func StartHolder(owner, slabBytes int, store *Store, conn net.Conn) *Holder {
	h := &Holder{owner: owner, slabBytes: slabBytes, store: store, conn: conn}
	h.st = replication.NewStream(conn, nil, 0, nil)
	h.st.Go(h.serve)
	return h
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
				return fmt.Errorf("%w: short image frame (%d bytes)", ErrBadFrame, len(body))
			}
			epoch := binary.LittleEndian.Uint64(body[1:])
			nextTick := binary.LittleEndian.Uint64(body[9:])
			rawLen := binary.LittleEndian.Uint64(body[17:])
			if rawLen != uint64(h.slabBytes) {
				return fmt.Errorf("%w: image of %d bytes for a %d-byte slab", ErrBadFrame, rawLen, h.slabBytes)
			}
			comp := append([]byte(nil), body[25:]...) // rbuf is reused
			if w, err = h.store.PutImage(h.owner, epoch, nextTick, int(rawLen), comp); err != nil {
				return err
			}
		case replication.FrameReplicaDelta:
			if len(body) < 17 {
				return fmt.Errorf("%w: short delta frame (%d bytes)", ErrBadFrame, len(body))
			}
			tick := binary.LittleEndian.Uint64(body[1:])
			rawLen := binary.LittleEndian.Uint64(body[9:])
			comp := append([]byte(nil), body[17:]...)
			if rawLen > maxInflateRatio*uint64(len(comp)) {
				return fmt.Errorf("%w: delta of %d bytes inflating to %d", ErrBadFrame, len(comp), rawLen)
			}
			if w, err = h.store.PutDelta(h.owner, tick, int(rawLen), comp); err != nil {
				return err
			}
		default:
			return fmt.Errorf("%w: unexpected frame type %d", ErrBadFrame, body[0])
		}
		if scratch, err = replication.WriteFrame(h.conn, scratch, replication.U64Frame(replication.FrameReplicaAck, w)); err != nil {
			return err
		}
	}
}

// Err returns the stream error that ended the holder, nil while running or
// after a clean Stop.
func (h *Holder) Err() error { return h.st.Err() }

// Stop closes the link and joins the ingest goroutine.
func (h *Holder) Stop() error { return h.st.Stop() }
