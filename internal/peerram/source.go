package peerram

import (
	"encoding/binary"
	"fmt"
	"sync"

	"repro/internal/recovery"
)

// RestoreSource serves one crashed owner's replica out of a holder's store
// as the two halves engine.RecoverFromPeer consumes: a recovery.ImageSource
// (the compressed checkpoint image, inflated once and then read per shard
// range) and, via Records, a recovery.RecordSource over the delta tail. All
// serving goes through the store's liveness accounting, so a holder that
// dies mid-restore — really or through the chaos hook — surfaces as
// ErrReplicaGone on the next read instead of handing out stale bytes.
//
// Every replica byte is decoded at most once per source: the image is
// inflated once (straight into the slab when one range covers it), and each
// delta bundle is inflated on the first Records pass that reaches it and
// kept, so the pipeline's pass and the WAL heal's pass cost one inflate.
type RestoreSource struct {
	store *Store
	owner int
	rep   replica // consistent copy taken at build time

	once   sync.Once
	raw    []byte // inflated image
	rawErr error

	mu       sync.Mutex
	bundles  [][]byte // inflated delta bundles by index; nil until first served
	inflates int      // delta bundles inflated so far
}

// NewRestoreSource snapshots owner's replica in store and wraps it for the
// restore pipeline. It fails with ErrNoReplica when the store holds no
// servable replica (none was ever shipped, or the holder is dead).
func NewRestoreSource(store *Store, owner int) (*RestoreSource, error) {
	rep, ok := store.snapshot(owner)
	if !ok {
		return nil, ErrNoReplica
	}
	return &RestoreSource{store: store, owner: owner, rep: rep}, nil
}

// Info identifies the image: its checkpoint epoch and the first tick it
// does not cover.
func (s *RestoreSource) Info() (epoch, nextTick uint64, err error) {
	if err := s.store.spend(s.owner, 0); err != nil {
		return 0, 0, err
	}
	return s.rep.epoch, s.rep.nextTick, nil
}

// DeltaTicks returns the number of tick bundles the replica carries past
// its image cut.
func (s *RestoreSource) DeltaTicks() int { return len(s.rep.deltas) }

// materialize inflates the compressed image exactly once; every shard's
// ReadRange then copies out of the shared buffer.
func (s *RestoreSource) materialize() error {
	s.once.Do(func() {
		s.raw, s.rawErr = inflate(s.rep.image, s.rep.rawLen)
	})
	return s.rawErr
}

// ReadRange fills dst with the image bytes of objects [lo, hi). Safe for
// concurrent calls over disjoint ranges (the restore pipeline's contract).
func (s *RestoreSource) ReadRange(lo, hi int, dst []byte) error {
	if hi <= lo {
		return nil
	}
	if err := s.store.spend(s.owner, int64(len(dst))); err != nil {
		return err
	}
	if lo == 0 && len(dst) == s.rep.rawLen {
		// One range is the whole image (a single-shard plan): inflate
		// straight into the slab instead of into a shared copy of it.
		return inflateInto(dst, s.rep.image)
	}
	if err := s.materialize(); err != nil {
		return err
	}
	objSize := len(dst) / (hi - lo)
	if hi*objSize > len(s.raw) {
		return fmt.Errorf("peerram: range [%d,%d)×%dB beyond %dB image", lo, hi, objSize, len(s.raw))
	}
	copy(dst, s.raw[lo*objSize:hi*objSize])
	return nil
}

// Records returns a fresh tick-ordered iteration over the replica's delta
// records. Each call restarts from the first bundle, so the restore
// pipeline and the WAL heal can each take their own pass; every call checks
// that the holder is still alive, but only the first pass over a bundle
// inflates it and charges its bytes to the holder.
func (s *RestoreSource) Records() (recovery.RecordSource, error) {
	if err := s.store.spend(s.owner, 0); err != nil {
		return nil, err
	}
	return &recordIter{src: s}, nil
}

// bundle returns delta bundle i inflated. The buffer is kept for later
// passes: the RecordSource contract already keeps payloads alive for the
// whole recovery, and the holder served those bytes once.
func (s *RestoreSource) bundle(i int) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.bundles == nil {
		s.bundles = make([][]byte, len(s.rep.deltas))
	}
	if b := s.bundles[i]; b != nil {
		return b, nil
	}
	d := s.rep.deltas[i]
	if err := s.store.spend(s.owner, int64(d.rawLen)); err != nil {
		return nil, err
	}
	raw, err := inflate(d.comp, d.rawLen)
	if err != nil {
		return nil, err
	}
	s.bundles[i] = raw
	s.inflates++
	return raw, nil
}

// recordIter walks the delta bundles and splits each into the
// u32-length-prefixed records the sender packed. Payloads alias the
// source's bundle buffers, which outlive the iterator.
type recordIter struct {
	src  *RestoreSource
	next int    // next bundle index
	buf  []byte // current inflated bundle
	off  int
	tick uint64
}

// Next returns the next delta record in tick order.
func (it *recordIter) Next() (tick uint64, payload []byte, ok bool, err error) {
	for it.off >= len(it.buf) {
		if it.next >= len(it.src.rep.deltas) {
			return 0, nil, false, nil
		}
		raw, err := it.src.bundle(it.next)
		if err != nil {
			return 0, nil, false, err
		}
		it.buf, it.off, it.tick = raw, 0, it.src.rep.deltas[it.next].tick
		it.next++
	}
	if it.off+4 > len(it.buf) {
		return 0, nil, false, fmt.Errorf("peerram: truncated bundle at tick %d", it.tick)
	}
	n := int(binary.LittleEndian.Uint32(it.buf[it.off:]))
	it.off += 4
	if it.off+n > len(it.buf) {
		return 0, nil, false, fmt.Errorf("peerram: truncated record at tick %d", it.tick)
	}
	payload = it.buf[it.off : it.off+n]
	it.off += n
	return it.tick, payload, true, nil
}
