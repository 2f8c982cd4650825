package engine

import (
	"bytes"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/recovery"
	"repro/internal/telemetry"
	"repro/internal/wal"
)

// memPeer is a peer-held replica kept in test memory: a checkpoint image
// and the tick-ordered records after its cut.
type memPeer struct {
	nextTick uint64
	image    []byte
	recs     []peerRecord
	preludes int // Prelude calls
}

func (p *memPeer) Info() (epoch, nextTick uint64, err error) { return 0, p.nextTick, nil }

func (p *memPeer) ReadRange(lo, hi int, dst []byte) error {
	objSize := len(dst) / (hi - lo)
	copy(dst, p.image[lo*objSize:hi*objSize])
	return nil
}

func (p *memPeer) source() RecoverSource {
	return RecoverSource{Image: p, Prelude: func() (recovery.RecordSource, error) {
		p.preludes++
		return &memRecords{recs: p.recs}, nil
	}}
}

type memRecords struct {
	recs []peerRecord
	next int
}

func (r *memRecords) Next() (uint64, []byte, bool, error) {
	if r.next >= len(r.recs) {
		return 0, nil, false, nil
	}
	rec := r.recs[r.next]
	r.next++
	return rec.tick, rec.payload, true, nil
}

// healCase describes how a node's local directory falls behind the world
// its peer holds.
type healCase struct {
	ticks int // ticks the world ran
	cut   int // the peer image covers ticks [0, cut)
	local int // the local WAL holds ticks [0, local)
	// torn adds a range install at tick local to both histories; the
	// local directory crashes after it, before the tick's update batch.
	torn bool
	// peerDrop drops the peer's last records: its stream ends behind the
	// local log.
	peerDrop int
}

// splitHistory runs one world for hc.ticks ticks and returns a local
// directory that crashed part-way (a copy of the world's directory taken
// after tick hc.local-1, or after the torn tick's install record), the peer
// holding the image cut at hc.cut plus every record from hc.cut on, and the
// world's final slab. The world runs in ModeNone with a synced log, so the
// directory copy between ticks is a consistent crash image.
func splitHistory(t *testing.T, hc healCase) (local string, peer *memPeer, want []byte) {
	t.Helper()
	tab := shardTable()
	hist, local := t.TempDir(), t.TempDir()
	e, err := Open(Options{Table: tab, Dir: hist, Mode: ModeNone, SyncEveryTick: true})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(int64(hc.ticks*100 + hc.local)))
	peer = &memPeer{nextTick: uint64(hc.cut)}
	for i := 0; i < hc.ticks; i++ {
		if i == hc.cut {
			_, peer.image, err = e.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
		}
		if hc.torn && i == hc.local {
			data := make([]byte, 3*tab.ObjSize)
			rng.Read(data)
			if err := e.InstallRange(5, 8, data); err != nil {
				t.Fatal(err)
			}
			copyDir(t, hist, local)
		} else if !hc.torn && i == hc.local {
			copyDir(t, hist, local)
		}
		if err := e.ApplyTick(randomBatch(rng, tab.NumCells(), 60)); err != nil {
			t.Fatal(err)
		}
	}
	if hc.local >= hc.ticks {
		copyDir(t, hist, local)
	}
	want = append([]byte(nil), e.Store().Slab()...)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	peer.recs = walRecords(t, hist, uint64(hc.cut))
	peer.recs = peer.recs[:len(peer.recs)-hc.peerDrop]
	return local, peer, want
}

func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// walRecords returns dir's log records at or after tick from.
func walRecords(t *testing.T, dir string, from uint64) []peerRecord {
	t.Helper()
	r, err := wal.NewReader(filepath.Join(dir, "wal"))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var recs []peerRecord
	for {
		tick, payload, err := r.Next()
		if err == io.EOF {
			return recs
		}
		if err != nil {
			t.Fatal(err)
		}
		if tick >= from {
			recs = append(recs, peerRecord{tick, append([]byte(nil), payload...)})
		}
	}
}

// healSpan returns the attributes of the newest recovery/heal span.
func healSpan(t *testing.T) (appended, bootstrap int64) {
	t.Helper()
	spans := telemetry.Spans()
	for i := len(spans) - 1; i >= 0; i-- {
		if spans[i].Name != "recovery/heal" {
			continue
		}
		for _, a := range spans[i].Attrs {
			switch a.Key {
			case "appended":
				appended = a.Int
			case "bootstrap":
				bootstrap = a.Int
			}
		}
		return appended, bootstrap
	}
	t.Fatal("no recovery/heal span recorded")
	return 0, 0
}

// TestPeerHeal drives each branch of healFromPeer through a real peer
// restore: the restored world must match the world that ran, the heal must
// take the expected branch (recorded on its span), and a later disk-only
// recovery of the healed directory must come up at the same tick with the
// same bytes.
func TestPeerHeal(t *testing.T) {
	if !telemetry.Enabled() {
		telemetry.Enable()
		defer telemetry.Disable()
	}
	cases := []struct {
		name      string
		hc        healCase
		appended  int64
		bootstrap int64
		preludes  int // prelude passes: the pipeline's, plus the heal's unless it can skip it
	}{
		// The common process crash: the local log holds every tick, so the
		// heal appends nothing.
		{"intact", healCase{ticks: 30, cut: 20, local: 30}, 0, 0, 2},
		// The local log lost its final five ticks; the peer shares tick 24.
		{"lost-ticks", healCase{ticks: 30, cut: 20, local: 25}, 5, 0, 2},
		// The local log holds tick 25's install but not its batch: the
		// batch and the four later ticks are appended.
		{"torn-tick", healCase{ticks: 30, cut: 20, local: 25, torn: true}, 5, 0, 2},
		// The peer's image floor (tick 26) is past the local log's end
		// (tick 21): no record can fill the hole, so the restored slab is
		// written as a bootstrap image.
		{"floor-past-log", healCase{ticks: 30, cut: 26, local: 22}, 0, 1, 1},
		// The peer's stream ends at tick 28, behind the local log's final
		// tick 29, so it cannot vouch that tick 29 is whole: bootstrap.
		{"peer-behind-log", healCase{ticks: 30, cut: 20, local: 30, peerDrop: 1}, 0, 1, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			local, peer, want := splitHistory(t, tc.hc)
			opts := Options{Table: shardTable(), Dir: local, Mode: ModeCopyOnUpdate, Shards: 2}
			re, _, err := RecoverFromPeer(opts, peer.source())
			if err != nil {
				t.Fatal(err)
			}
			if re.NextTick() != uint64(tc.hc.ticks) || !bytes.Equal(re.Store().Slab(), want) {
				re.Close()
				t.Fatalf("peer restore at tick %d, want %d (identical=%v)",
					re.NextTick(), tc.hc.ticks, bytes.Equal(re.Store().Slab(), want))
			}
			if err := re.Close(); err != nil {
				t.Fatal(err)
			}
			appended, bootstrap := healSpan(t)
			if appended != tc.appended || bootstrap != tc.bootstrap {
				t.Fatalf("heal appended %d records (bootstrap %d), want %d (bootstrap %d)",
					appended, bootstrap, tc.appended, tc.bootstrap)
			}
			if peer.preludes != tc.preludes {
				t.Fatalf("prelude walked %d times, want %d", peer.preludes, tc.preludes)
			}

			de, pres, err := RecoverFrom(opts)
			if err != nil {
				t.Fatal(err)
			}
			defer de.Close()
			if de.NextTick() != uint64(tc.hc.ticks) || !bytes.Equal(de.Store().Slab(), want) {
				t.Fatalf("disk recovery after heal at tick %d, want %d (identical=%v)",
					de.NextTick(), tc.hc.ticks, bytes.Equal(de.Store().Slab(), want))
			}
			if tc.bootstrap == 1 && (!pres.Restored || pres.AsOfTick != uint64(tc.hc.ticks-1)) {
				t.Fatalf("disk recovery did not start from the bootstrap image: %+v", pres.Result)
			}
		})
	}
}
