package replication

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/wal"
)

// ErrStopped reports a stream shut down by Stop rather than by a failure.
var ErrStopped = errors.New("replication: stream stopped")

// idlePoll is the tail loop's fallback wake-up when no tick-commit signal
// arrives (the primary is idle, or the records were appended before the
// subscription opened).
const idlePoll = 5 * time.Millisecond

// AckDecoder maps one acknowledgement frame body to the stream's watermark:
// the first tick the peer still needs.
type AckDecoder func(body []byte) (need uint64, err error)

// Stream is the ack-bounded core under every tick sender: the warm-standby
// Shipper, the peer-RAM replica sender and the migration RangeSender are
// frame encoders over it. It owns the connection's read side, where a
// per-link AckDecoder turns acknowledgements into one watermark — the first
// tick the peer still needs — which bounds the in-flight window
// (waitWindow), answers AwaitAck, and feeds the engine's log retention
// (TickSub.NeedFrom). Follow is the one WAL tail-follow loop for senders
// that ship an engine's log.
//
// Lifecycle: NewStream, then Go with the sender's main line; Open once the
// handshake is done (the ack reader starts there); Stop to tear down. The
// first failure ends the stream and is reported by Err and every wait.
type Stream struct {
	conn   net.Conn
	sub    *engine.TickSub // retention feed and commit signal; nil for range streams
	window uint64          // in-flight tick bound; 0 = unbounded
	decode AckDecoder

	mu      sync.Mutex
	cond    *sync.Cond
	need    uint64 // first tick the peer still needs
	acked   bool   // need came from the peer, not only from Open's floor
	err     error  // first failure (nil after a clean Stop)
	stopped bool

	stop chan struct{}
	done chan struct{}
	acks sync.WaitGroup // the ack loop, once Open started it
}

// NewStream wraps conn; a nil conn makes a stream whose owner feeds it
// watermarks through ack instead of Open's ack loop. sub, when non-nil, is
// the engine subscription the stream follows and whose NeedFrom it
// advances on every ack; the stream closes it when the main line ends.
// window bounds shipped-but-unneeded ticks (<=0: unbounded).
func NewStream(conn net.Conn, sub *engine.TickSub, window int, decode AckDecoder) *Stream {
	s := &Stream{
		conn:   conn,
		sub:    sub,
		decode: decode,
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	if window > 0 {
		s.window = uint64(window)
	}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// Go runs the sender's main line on its own goroutine. When it returns, its
// error (unless the stream was stopped) becomes the stream's, the
// connection closes so the peer sees the end, and Done closes. A nil main
// line is a stream driven from its caller's goroutine: it ends at Stop.
func (s *Stream) Go(main func() error) {
	go func() {
		defer close(s.done)
		var err error
		if main != nil {
			err = main()
		} else {
			<-s.stop
		}
		s.fail(err)
		s.closeConn()
		s.acks.Wait() // the closed connection ends the ack loop
		if s.sub != nil {
			s.sub.Close()
		}
	}()
}

// Open marks the handshake done: floor is the first tick the stream
// carries (everything below is covered by a bootstrap image), so it is the
// watermark until the peer acknowledges anything. Open publishes it to log
// retention and starts consuming acks.
func (s *Stream) Open(floor uint64) {
	s.mu.Lock()
	s.need = floor
	s.mu.Unlock()
	if s.sub != nil {
		s.sub.NeedFrom(floor)
	}
	s.acks.Add(1)
	go s.ackLoop()
}

// ackLoop consumes the peer's acknowledgements, raises the watermark, wakes
// every waiter and advances log retention. It owns the connection's read
// half from Open on.
func (s *Stream) ackLoop() {
	defer s.acks.Done()
	var buf []byte
	for {
		body, nbuf, err := readFrame(s.conn, buf)
		if err != nil {
			s.fail(fmt.Errorf("replication: ack stream: %w", err))
			return
		}
		buf = nbuf
		need, err := s.decode(body)
		if err != nil {
			s.fail(err)
			return
		}
		s.ack(need)
	}
}

// ack raises the watermark to need (it never falls), wakes every waiter
// and advances log retention. The ack loop calls it per decoded ack; a
// stream without a connection is fed by its owner.
func (s *Stream) ack(need uint64) {
	s.mu.Lock()
	if need > s.need {
		s.need = need
	}
	s.acked = true
	need = s.need
	s.cond.Broadcast()
	s.mu.Unlock()
	// Ack-based retention: everything below the watermark is applied or
	// held on the other end; only then may the engine's log reclaim it.
	// Shipping alone never advances it, so a severed stream can resume
	// from the peer's watermark.
	if s.sub != nil {
		s.sub.NeedFrom(need)
	}
}

// fail records the stream's first failure (none once stopped) and wakes
// every waiter.
func (s *Stream) fail(err error) {
	s.mu.Lock()
	if err != nil && s.err == nil && !s.stopped {
		s.err = err
	}
	s.cond.Broadcast()
	s.mu.Unlock()
}

// endedLocked is the error every wait returns once the stream is over.
func (s *Stream) endedLocked() error {
	if s.err != nil {
		return s.err
	}
	if s.stopped {
		return ErrStopped
	}
	return nil
}

// waitWindow blocks until shipping tick keeps the in-flight window — ticks
// from the watermark through tick — within the stream's bound, or the
// stream ends. The sender stalls; it never drops or reorders.
func (s *Stream) waitWindow(tick uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if err := s.endedLocked(); err != nil {
			return err
		}
		if s.window == 0 || s.need > tick || tick-s.need < s.window {
			return nil
		}
		s.cond.Wait()
	}
}

// watermark returns the first tick the peer still needs and whether the
// peer has acknowledged anything yet.
func (s *Stream) watermark() (uint64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.need, s.acked
}

// AwaitAck blocks until the peer has acknowledged tick (the watermark is
// past it), the stream ends, or timeout elapses (<=0: no timeout).
func (s *Stream) AwaitAck(tick uint64, timeout time.Duration) error {
	var deadline time.Time
	if timeout > 0 {
		deadline = time.Now().Add(timeout)
		// The cond is woken by every ack; the timer breaks the wait so a
		// silent peer cannot park us forever.
		timer := time.AfterFunc(timeout, func() { s.fail(nil) })
		defer timer.Stop()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.acked && s.need > tick {
			return nil
		}
		if err := s.endedLocked(); err != nil {
			return err
		}
		if timeout > 0 && time.Now().After(deadline) {
			return fmt.Errorf("replication: tick %d not acknowledged within %v", tick, timeout)
		}
		s.cond.Wait()
	}
}

// Err returns the failure that ended the stream, nil while running or
// after a clean Stop.
func (s *Stream) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Done is closed when the main line and the ack loop have returned and the
// connection is closed.
func (s *Stream) Done() <-chan struct{} { return s.done }

// Stop tears the stream down: the connection closes (the peer sees the
// stream end), every wait returns, and both goroutines are joined. It
// returns the stream's failure, or nil if it was healthy. Safe to call
// repeatedly.
func (s *Stream) Stop() error {
	s.mu.Lock()
	if !s.stopped {
		s.stopped = true
		close(s.stop)
	}
	s.cond.Broadcast()
	s.mu.Unlock()
	s.closeConn()
	<-s.done
	return s.Err()
}

// closeConn ends the connection, if any: the peer sees the stream end and
// both halves' blocked I/O returns.
func (s *Stream) closeConn() {
	if s.conn != nil {
		s.conn.Close() //nolint:errcheck // best effort
	}
}

// TailEncoder turns the records of a followed log into frames.
type TailEncoder interface {
	// Record takes one log record, in log order. The window already
	// admits tick.
	Record(tick uint64, payload []byte) error
	// TickDone reports that every record of tick has been passed to
	// Record: a later tick's record appeared, or the engine committed tick.
	TickDone(tick uint64) error
}

// TailJob is work a sender runs on the tail goroutine between records,
// such as shipping a fresh image. It returns the new floor: the first tick
// the stream still has to carry.
type TailJob func() (floor uint64, err error)

// Follow is the one WAL tail-follow loop: it reads the engine log in dir
// from floor on, woken by the subscription's tick-commit signal (or the
// idle poll), and hands every record at or above floor to enc, each tick
// admitted by waitWindow when its first record arrives. Jobs run while the
// tail is dry; a job that raises the floor drops the open tick if the new
// floor covers it. Follow returns nil on Stop.
func (s *Stream) Follow(dir string, floor uint64, enc TailEncoder, jobs <-chan TailJob) error {
	tail := wal.NewTailReader(dir, floor)
	defer tail.Close()
	var (
		open      bool   // cur's records are being handed over
		cur       uint64 // the open tick
		committed uint64 // first tick the engine has not committed
	)
	for {
		// Fold a queued commit signal (the channel coalesces to the newest
		// tick) before deciding whether the tail is dry.
		select {
		case <-s.stop:
			return nil
		case c := <-s.sub.C:
			committed = c + 1
		default:
		}
		tick, payload, ok, err := tail.TryNext()
		if err != nil {
			return err
		}
		if ok && tick < floor {
			continue // covered by the image
		}
		// The open tick is complete once a later tick's record appears, or
		// once the tail is dry and the engine has committed it (commit ⇒
		// flushed ⇒ every record of cur was readable).
		if open && (ok && tick != cur || !ok && committed > cur) {
			if err := enc.TickDone(cur); err != nil {
				return err
			}
			open = false
		}
		if ok {
			if !open {
				if err := s.waitWindow(tick); err != nil {
					return err
				}
				cur, open = tick, true
			}
			if err := enc.Record(tick, payload); err != nil {
				return err
			}
			continue
		}
		select {
		case <-s.stop:
			return nil
		case job := <-jobs:
			nf, err := job()
			if err != nil {
				return err
			}
			if nf > floor {
				floor = nf
			}
			if open && cur < floor {
				open = false
			}
		case c := <-s.sub.C:
			committed = c + 1
		case <-time.After(idlePoll):
		}
	}
}
