package replication

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/engine"
)

// Resilient sessions: reconnect-with-backoff supervisors over the plain
// Shipper/Standby. A network cut degrades the pair instead of killing it —
// the standby keeps its warm engine and redials; the shipper keeps the
// primary's log retained down to the standby's last *acknowledged* tick and
// accepts the next session; the resume handshake (ftResume) stitches the
// stream back together from the durable watermark. No tick is ever lost or
// double-applied: everything at or below the ack watermark is applied and
// retained nowhere, everything above it is still in the primary's log.

// Backoff is a capped exponential delay sequence for reconnect loops:
// Base, 2·Base, 4·Base, … capped at Cap. The zero value means 10ms → 1s.
type Backoff struct {
	Base, Cap time.Duration
	cur       time.Duration
}

// Next returns the next delay in the sequence.
func (b *Backoff) Next() time.Duration {
	base, cap := b.Base, b.Cap
	if base <= 0 {
		base = 10 * time.Millisecond
	}
	if cap <= 0 {
		cap = time.Second
	}
	if b.cur <= 0 {
		b.cur = base
	} else if b.cur < cap {
		b.cur *= 2
	}
	if b.cur > cap {
		b.cur = cap
	}
	return b.cur
}

// Reset rewinds the sequence to Base; call it after a session made
// progress so a healthy-again link is retried eagerly.
func (b *Backoff) Reset() { b.cur = 0 }

// ResilientOptions tunes a reconnecting session supervisor.
type ResilientOptions struct {
	// Backoff paces reconnect attempts; the zero value means 10ms → 1s.
	Backoff Backoff
	// MaxSessions bounds the total number of connection attempts; once a
	// dial or session would exceed it the supervisor gives up and surfaces
	// the last error. <=0 means retry forever (until Stop/Promote/Close
	// or a fatal — non-retryable — error).
	MaxSessions int
}

// fatalError marks a session error that redialing cannot fix (geometry
// mismatch, a poisoned local directory): the supervisor stops retrying.
type fatalError struct{ err error }

func (f *fatalError) Error() string { return f.err.Error() }
func (f *fatalError) Unwrap() error { return f.err }

// StartResilientStandby starts a standby that redials the primary with
// capped exponential backoff whenever the stream cuts, resuming from its
// engine's durable watermark (no re-bootstrap, no lost or repeated ticks).
// dial is called once per session attempt. The standby stops retrying on a
// fatal error, after ropts.MaxSessions attempts, or on Promote/Close.
func StartResilientStandby(opts engine.Options, dial func() (net.Conn, error), ropts ResilientOptions) (*Standby, error) {
	if dial == nil {
		return nil, errors.New("replication: resilient standby needs a dial function")
	}
	return startStandby(opts, nil, dial, ropts)
}

// redial is the reconnecting session loop under both resilient ends: dial,
// run one session, back off, repeat. It returns nil once stop closes, a
// session's *fatalError as is, and a gave-up error after ropts.MaxSessions
// attempts; lastErr is the latest dial or session error. attempt is told
// each attempt's number; a session that reports progress resets the
// backoff, so a healthy-again link is retried eagerly.
func redial(who string, stop <-chan struct{}, dial func() (net.Conn, error), ropts ResilientOptions,
	attempt func(n int), session func(net.Conn) (progressed bool, err error)) (lastErr, err error) {
	b := ropts.Backoff
	for n := 0; ; {
		select {
		case <-stop:
			return lastErr, nil
		default:
		}
		if ropts.MaxSessions > 0 && n >= ropts.MaxSessions {
			return lastErr, fmt.Errorf("replication: %s gave up after %d sessions: %w", who, n, lastErr)
		}
		n++
		attempt(n)
		if conn, err := dial(); err != nil {
			lastErr = err
		} else {
			var progressed bool
			progressed, lastErr = session(conn)
			select {
			case <-stop: // Stop/Promote/Close cut this very session: not a retry
				return lastErr, nil
			default:
			}
			var fe *fatalError
			if errors.As(lastErr, &fe) {
				return lastErr, lastErr
			}
			if progressed {
				b.Reset()
			}
		}
		t := time.NewTimer(b.Next())
		select {
		case <-stop:
			t.Stop()
			return lastErr, nil
		case <-t.C:
		}
	}
}

// runResilient is the standby's reconnecting session loop. Called from run
// with done-closing deferred.
func (sb *Standby) runResilient() {
	lastErr, err := redial("standby", sb.stop, sb.dial, sb.ropts, func(n int) {
		sb.mu.Lock()
		sb.stats.Sessions = n
		sb.mu.Unlock()
	}, func(conn net.Conn) (bool, error) {
		sb.mu.Lock()
		sb.conn = conn
		before := sb.stats.TicksApplied
		sb.mu.Unlock()
		err := sb.serveConn(conn)
		conn.Close() //nolint:errcheck
		var fe *fatalError
		sb.mu.Lock()
		defer sb.mu.Unlock()
		if !sb.stopping && !errors.As(err, &fe) {
			sb.stats.Reconnects++
		}
		return sb.stats.TicksApplied > before, err
	})
	// A deliberate shutdown seals with the last stream error if one exists
	// (the plain standby's "ended by some error" contract), else a plain
	// stopped marker.
	if err == nil {
		err = lastErr
	}
	if err == nil {
		err = errors.New("replication: standby stopped")
	}
	sb.seal(err)
}

// ResilientShipper keeps one primary engine streaming to a (re)connecting
// standby across connection failures. Each session is a plain Shipper; the
// supervisor is a connection-less Stream whose watermark folds every
// session's acks, so its tick subscription pins the primary's log retention
// at the standby's acknowledged watermark BETWEEN sessions, and the records
// a cut left unacknowledged are still there when the standby redials and
// resumes.
type ResilientShipper struct {
	e     *engine.Engine
	dial  func() (net.Conn, error)
	opts  ShipperOptions
	ropts ResilientOptions
	st    *Stream // watermark: the standby's acked tick + 1 across sessions

	mu       sync.Mutex
	cur      *Shipper
	sessions int
}

// StartResilientShipper attaches a reconnecting shipper to a live engine.
// dial is called once per session attempt (the standby end decides, via
// the resume handshake, whether it needs a bootstrap or a mid-stream
// pickup). The caller must Stop it before closing the engine.
func StartResilientShipper(e *engine.Engine, dial func() (net.Conn, error), opts ShipperOptions, ropts ResilientOptions) (*ResilientShipper, error) {
	if dial == nil {
		return nil, errors.New("replication: resilient shipper needs a dial function")
	}
	sub, err := e.SubscribeTicks()
	if err != nil {
		return nil, err
	}
	r := &ResilientShipper{
		e:     e,
		dial:  dial,
		opts:  opts,
		ropts: ropts,
		st:    NewStream(nil, sub, 0, nil),
	}
	r.st.Go(r.run)
	return r, nil
}

func (r *ResilientShipper) run() error {
	_, err := redial("shipper", r.st.stop, r.dial, r.ropts, func(n int) {
		r.mu.Lock()
		r.sessions = n
		r.mu.Unlock()
		if n > 1 {
			telResumes.Inc()
		}
	}, func(conn net.Conn) (bool, error) {
		sh, err := StartShipper(r.e, conn, r.opts)
		if err != nil {
			conn.Close() //nolint:errcheck
			return false, err
		}
		r.mu.Lock()
		r.cur = sh
		r.mu.Unlock()
		before, _ := r.st.watermark()
		r.watch(sh)
		r.mu.Lock()
		r.cur = nil
		r.mu.Unlock()
		after, ok := r.st.watermark()
		return ok && after > before, sh.Err() // progress: the watermark moved
	})
	return err
}

// watch follows one session until it ends or Stop: it folds the session's
// acks into the supervisor watermark every poll so the retention pin and
// AwaitAck observers track a live session, not just finished ones.
func (r *ResilientShipper) watch(sh *Shipper) {
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-r.st.stop:
			sh.Stop() //nolint:errcheck
			r.fold(sh)
			return
		case <-sh.Done():
			r.fold(sh)
			return
		case <-tick.C:
			r.fold(sh)
		}
	}
}

// fold merges a session's ack watermark into the supervisor's, which
// advances the cross-session retention pin.
func (r *ResilientShipper) fold(sh *Shipper) {
	if need, ok := sh.st.watermark(); ok {
		r.st.ack(need)
	}
}

// Acked returns the high-water acknowledged tick across every session so
// far, including the live one.
func (r *ResilientShipper) Acked() (uint64, bool) {
	r.mu.Lock()
	cur := r.cur
	r.mu.Unlock()
	if cur != nil {
		r.fold(cur)
	}
	need, ok := r.st.watermark()
	if !ok {
		return 0, false
	}
	return need - 1, true
}

// Sessions returns how many connection attempts were made.
func (r *ResilientShipper) Sessions() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.sessions
}

// Err returns the terminal supervisor error (gave up), nil while running
// or after Stop.
func (r *ResilientShipper) Err() error { return r.st.Err() }

// Done is closed when the supervisor has stopped retrying.
func (r *ResilientShipper) Done() <-chan struct{} { return r.st.Done() }

// AwaitAck blocks until the standby has acknowledged tick — across however
// many sessions that takes — the supervisor gives up, or the timeout
// elapses. A live session's acks reach the supervisor within one watch
// poll.
func (r *ResilientShipper) AwaitAck(tick uint64, timeout time.Duration) error {
	return r.st.AwaitAck(tick, timeout)
}

// Stop ends the supervisor and the live session, if any, and joins the
// loop. Safe to call more than once.
func (r *ResilientShipper) Stop() error { return r.st.Stop() }
