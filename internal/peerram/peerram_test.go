package peerram

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/gamestate"
	"repro/internal/wal"
)

func testTable(t *testing.T) gamestate.Table {
	t.Helper()
	tab := gamestate.Table{Rows: 4096, Cols: 8, CellSize: 4, ObjSize: 512}
	if err := tab.Validate(); err != nil {
		t.Fatal(err)
	}
	return tab
}

func randomBatch(rng *rand.Rand, cells uint32, n int) []wal.Update {
	batch := make([]wal.Update, n)
	for i := range batch {
		batch[i] = wal.Update{Cell: rng.Uint32() % cells, Value: rng.Uint32()}
	}
	return batch
}

func TestCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 37, 1 << 16} {
		raw := make([]byte, n)
		for i := range raw {
			if rng.Intn(4) == 0 {
				raw[i] = byte(rng.Intn(256))
			}
		}
		comp, err := deflate(nil, raw)
		if err != nil {
			t.Fatal(err)
		}
		back, err := inflate(comp, n)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(raw, back) {
			t.Fatalf("%d bytes: roundtrip mismatch", n)
		}
		if _, err := inflate(comp, n+1); err == nil && n >= 0 {
			t.Fatalf("%d bytes: inflate accepted wrong rawLen", n)
		}
	}
}

func TestStoreContiguity(t *testing.T) {
	st := NewStore()
	if _, err := st.PutDelta(0, 5, 1, []byte{0}); err == nil {
		t.Fatal("delta before image accepted")
	}
	w, err := st.PutImage(0, 1, 5, 10, []byte("img"))
	if err != nil || w != 5 {
		t.Fatalf("image: w=%d err=%v", w, err)
	}
	if _, err := st.PutDelta(0, 7, 1, []byte{0}); err == nil {
		t.Fatal("gapped delta accepted")
	}
	if w, err = st.PutDelta(0, 5, 1, []byte{0}); err != nil || w != 6 {
		t.Fatalf("delta 5: w=%d err=%v", w, err)
	}
	if w, err = st.PutDelta(0, 6, 1, []byte{0}); err != nil || w != 7 {
		t.Fatalf("delta 6: w=%d err=%v", w, err)
	}
	// Stale re-sends are skipped, not errors.
	if w, err = st.PutDelta(0, 4, 1, []byte{0}); err != nil || w != 7 {
		t.Fatalf("stale delta: w=%d err=%v", w, err)
	}
	// A fresh image drops superseded deltas.
	if w, err = st.PutImage(0, 2, 7, 10, []byte("img2")); err != nil || w != 7 {
		t.Fatalf("refresh: w=%d err=%v", w, err)
	}
	if got := st.CompressedBytes(); got != int64(len("img2")) {
		t.Fatalf("compressed bytes %d after refresh", got)
	}
	if _, err := st.PutImage(0, 3, 3, 10, []byte("old")); err == nil {
		t.Fatal("regressing image accepted")
	}
}

// TestPeerRestoreEquivalence is the package's end-to-end contract: a world
// restored out of a peer's RAM is byte-identical to the never-crashed
// engine, and — because of the WAL heal — so is a plain disk recovery of
// the same directory afterwards.
func TestPeerRestoreEquivalence(t *testing.T) {
	tab := testTable(t)
	rng := rand.New(rand.NewSource(11))
	dir := t.TempDir()

	mesh := NewMesh(2, Options{})
	e, err := engine.Open(engine.Options{
		Table: tab, Dir: dir, Mode: engine.ModeCopyOnUpdate, Shards: 2, SyncEveryTick: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := mesh.Attach(0, e); err != nil {
		t.Fatal(err)
	}

	const ticks = 40
	want := make([]byte, tab.StateBytes())
	for i := 0; i < ticks; i++ {
		batch := randomBatch(rng, uint32(tab.NumCells()), 50)
		if err := e.ApplyTickParallel(batch); err != nil {
			t.Fatal(err)
		}
		if i == ticks/2 {
			if _, err := e.CheckpointNow(); err != nil {
				t.Fatal(err)
			}
			if err := mesh.Refresh(0); err != nil {
				t.Fatal(err)
			}
		}
	}
	copy(want, e.Store().Slab())
	if err := mesh.Drain(0, ticks-1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	mesh.Crash(0) // the mesh's own node dies with the engine...
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	// ...but node 1's store survives and serves the restore.
	src, holder, err := mesh.Source(0)
	if err != nil {
		t.Fatal(err)
	}
	if holder != 1 {
		t.Fatalf("holder %d, want 1", holder)
	}
	re, pres, err := engine.RecoverFromPeer(engine.Options{
		Table: tab, Dir: dir, Mode: engine.ModeCopyOnUpdate, Shards: 2,
	}, src)
	if err != nil {
		t.Fatal(err)
	}
	if re.NextTick() != ticks {
		t.Fatalf("restored to tick %d, want %d", re.NextTick(), ticks)
	}
	if pres.Result.BackupIndex != -1 {
		t.Fatalf("peer restore read disk backup %d", pres.Result.BackupIndex)
	}
	if !bytes.Equal(re.Store().Slab(), want) {
		t.Fatal("peer-restored slab differs from the never-crashed engine")
	}
	// One more tick so the healed directory is exercised past the restore.
	batch := randomBatch(rng, uint32(tab.NumCells()), 50)
	if err := re.ApplyTickParallel(batch); err != nil {
		t.Fatal(err)
	}
	copy(want, re.Store().Slab())
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}

	// The heal contract: a later plain disk recovery of the directory sees
	// the peer-restored history, not the pre-crash one.
	de, _, err := engine.RecoverFrom(engine.Options{
		Table: tab, Dir: dir, Mode: engine.ModeCopyOnUpdate, Shards: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer de.Close()
	if de.NextTick() != ticks+1 {
		t.Fatalf("disk recovery after heal at tick %d, want %d", de.NextTick(), ticks+1)
	}
	if !bytes.Equal(de.Store().Slab(), want) {
		t.Fatal("disk recovery after peer restore diverged")
	}
}

// TestRestoreFaultFallsThrough: a holder dying mid-restore surfaces
// ErrReplicaGone, and the directory remains disk-recoverable.
func TestRestoreFaultFallsThrough(t *testing.T) {
	tab := testTable(t)
	rng := rand.New(rand.NewSource(13))
	dir := t.TempDir()

	mesh := NewMesh(2, Options{})
	e, err := engine.Open(engine.Options{
		Table: tab, Dir: dir, Mode: engine.ModeCopyOnUpdate, SyncEveryTick: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := mesh.Attach(0, e); err != nil {
		t.Fatal(err)
	}
	const ticks = 20
	for i := 0; i < ticks; i++ {
		if err := e.ApplyTick(randomBatch(rng, uint32(tab.NumCells()), 40)); err != nil {
			t.Fatal(err)
		}
	}
	want := append([]byte(nil), e.Store().Slab()...)
	if err := mesh.Drain(0, ticks-1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	mesh.Crash(0)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	mesh.FailRestoreAfter(0, int64(tab.StateBytes())/2)
	src, _, err := mesh.Source(0)
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = engine.RecoverFromPeer(engine.Options{
		Table: tab, Dir: dir, Mode: engine.ModeCopyOnUpdate,
	}, src)
	if err == nil {
		t.Fatal("restore survived a dead holder")
	}
	if !mesh.Injected(0) {
		t.Fatal("fault did not fire")
	}

	de, _, err := engine.RecoverFrom(engine.Options{
		Table: tab, Dir: dir, Mode: engine.ModeCopyOnUpdate,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer de.Close()
	if de.NextTick() != ticks || !bytes.Equal(de.Store().Slab(), want) {
		t.Fatal("disk fallback diverged after failed peer restore")
	}
}

// deltaBundle64K is a 64 KB tick bundle shaped like the sender's: u32
// length-prefixed update records over mostly-cold bytes.
func deltaBundle64K() []byte {
	rng := rand.New(rand.NewSource(3))
	raw := make([]byte, 0, 64<<10)
	for len(raw)+4+512 <= 64<<10 {
		raw = binary.LittleEndian.AppendUint32(raw, 512)
		rec := make([]byte, 512)
		for i := 0; i < len(rec); i += 8 {
			binary.LittleEndian.PutUint32(rec[i:], rng.Uint32()%4096)
			binary.LittleEndian.PutUint32(rec[i+4:], rng.Uint32())
		}
		raw = append(raw, rec...)
	}
	return raw
}

func BenchmarkDeflateBundle(b *testing.B) {
	raw := deltaBundle64K()
	var dst []byte
	b.ReportAllocs()
	b.SetBytes(int64(len(raw)))
	for i := 0; i < b.N; i++ {
		var err error
		if dst, err = deflate(dst[:0], raw); err != nil {
			b.Fatal(err)
		}
	}
}

// TestDeflateBundleAllocs pins the pooled compressor: deflating a 64 KB
// bundle into a fresh buffer allocates little more than the output, not
// a new ~1.3 MB flate.Writer per call.
func TestDeflateBundleAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under -race")
	}
	raw := deltaBundle64K()
	if _, err := deflate(nil, raw); err != nil { // warm the pool
		t.Fatal(err)
	}
	// A collection empties sync.Pools; keep it out of the measured loop.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const runs = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := deflate(nil, raw); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if perOp := (after.TotalAlloc - before.TotalAlloc) / runs; perOp >= 256<<10 {
		t.Fatalf("deflating a 64 KB bundle allocates %d B/op, want < 256 KB", perOp)
	}
}

// TestRecordsPassesDecodeOnce: the restore pipeline and the WAL heal each
// walk the delta tail, but each bundle is inflated — and its bytes charged
// to the holder — only on the first pass; the second pass serves the same
// payload bytes out of the kept buffers.
func TestRecordsPassesDecodeOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	st := NewStore()
	if _, err := st.PutImage(0, 1, 10, 8, mustDeflate(t, make([]byte, 8))); err != nil {
		t.Fatal(err)
	}
	var want [][]byte
	var served int64
	for tick := uint64(10); tick < 16; tick++ {
		var raw []byte
		for r := 0; r < 1+rng.Intn(3); r++ {
			rec := make([]byte, 1+rng.Intn(200))
			rng.Read(rec)
			raw = binary.LittleEndian.AppendUint32(raw, uint32(len(rec)))
			raw = append(raw, rec...)
			want = append(want, rec)
		}
		if _, err := st.PutDelta(0, tick, len(raw), mustDeflate(t, raw)); err != nil {
			t.Fatal(err)
		}
		served += int64(len(raw))
	}
	// Exactly the tail's raw bytes: a second pass that charged again
	// would kill the replica.
	st.FailAfter(0, served)
	src, err := NewRestoreSource(st, 0)
	if err != nil {
		t.Fatal(err)
	}
	var passes [2][][]byte
	for p := range passes {
		rs, err := src.Records()
		if err != nil {
			t.Fatalf("pass %d: %v", p, err)
		}
		for {
			_, payload, ok, err := rs.Next()
			if err != nil {
				t.Fatalf("pass %d: %v", p, err)
			}
			if !ok {
				break
			}
			passes[p] = append(passes[p], payload)
		}
	}
	for p, got := range passes {
		if len(got) != len(want) {
			t.Fatalf("pass %d: %d records, want %d", p, len(got), len(want))
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("pass %d record %d differs", p, i)
			}
		}
	}
	if src.inflates != src.DeltaTicks() {
		t.Fatalf("%d bundle inflates over two passes, want %d", src.inflates, src.DeltaTicks())
	}
	if st.Injected(0) {
		t.Fatal("second pass charged the holder's budget")
	}
	// Liveness is still checked on every pass.
	st.MarkDead()
	if _, err := src.Records(); !errors.Is(err, ErrReplicaGone) {
		t.Fatalf("Records on a dead holder: %v, want ErrReplicaGone", err)
	}
}

func mustDeflate(t *testing.T, raw []byte) []byte {
	t.Helper()
	comp, err := deflate(nil, raw)
	if err != nil {
		t.Fatal(err)
	}
	return comp
}

// TestRestoreFaultInDeltaTail: a holder that serves the whole image and
// then dies part-way through the delta tail fails the peer restore with
// ErrReplicaGone (the ladder's fall-through signal), and the directory
// still recovers from disk to the never-crashed state.
func TestRestoreFaultInDeltaTail(t *testing.T) {
	tab := testTable(t)
	rng := rand.New(rand.NewSource(17))
	dir := t.TempDir()

	mesh := NewMesh(2, Options{})
	opts := engine.Options{Table: tab, Dir: dir, Mode: engine.ModeCopyOnUpdate, SyncEveryTick: true}
	e, err := engine.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := mesh.Attach(0, e); err != nil {
		t.Fatal(err)
	}
	const ticks = 20
	for i := 0; i < ticks; i++ {
		if err := e.ApplyTick(randomBatch(rng, uint32(tab.NumCells()), 40)); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			// The initial image ships in the background at whatever tick
			// the sender reaches first; once the holder covers tick 0, the
			// remaining ticks can only reach it as delta bundles.
			if err := mesh.Drain(0, 0, 5*time.Second); err != nil {
				t.Fatal(err)
			}
		}
	}
	want := append([]byte(nil), e.Store().Slab()...)
	if err := mesh.Drain(0, ticks-1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	mesh.Crash(0)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	// Budget: the whole image, the first delta bundle, and one byte more —
	// the holder dies inflating the second bundle.
	holder := mesh.stores[1]
	holder.mu.Lock()
	deltas := holder.replicas[0].deltas
	holder.mu.Unlock()
	if len(deltas) < 2 {
		t.Fatalf("replica holds %d delta bundles, want at least 2", len(deltas))
	}
	mesh.FailRestoreAfter(0, int64(tab.StateBytes())+int64(deltas[0].rawLen)+1)
	src, _, err := mesh.Source(0)
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = engine.RecoverFromPeer(engine.Options{
		Table: tab, Dir: dir, Mode: engine.ModeCopyOnUpdate,
	}, src)
	if !errors.Is(err, ErrReplicaGone) {
		t.Fatalf("restore through a holder dying in the delta tail: %v, want ErrReplicaGone", err)
	}
	if !mesh.Injected(0) {
		t.Fatal("fault did not fire")
	}

	de, _, err := engine.RecoverFrom(engine.Options{Table: tab, Dir: dir, Mode: engine.ModeCopyOnUpdate})
	if err != nil {
		t.Fatal(err)
	}
	defer de.Close()
	if de.NextTick() != ticks || !bytes.Equal(de.Store().Slab(), want) {
		t.Fatal("disk fallback diverged after a peer restore failed in the delta tail")
	}
}
