package main

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/recovery"
)

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{19, 0, false},
		{20, 50, true},
		{99, 75, true},
		{199, 90, true},
		{200, 95, true},
		{999, 95, true},
		{1000, 99, true},
		{9999, 99, true},
		{10000, 99.9, true},
	} {
		got, ok := tailPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %g, %v; want %g, %v", c.n, got, ok, c.want, c.ok)
		}
	}
}

func TestPercentileRefusesP99Below1000Samples(t *testing.T) {
	s := make(samples, 999)
	for i := range s {
		s[i] = float64(i + 1)
	}
	if _, err := s.percentile(99); err == nil {
		t.Fatal("p99 of 999 samples was reported")
	}
	s = append(s, 1000)
	got, err := s.percentile(99)
	if err != nil {
		t.Fatalf("p99 of 1000 samples: %v", err)
	}
	if got != 990 {
		t.Fatalf("p99 of 1..1000 = %g, want 990 (nearest rank)", got)
	}
	if m := s.median(); m != 500 {
		t.Fatalf("median of 1..1000 = %g, want 500", m)
	}
}

// fakeOutage builds an outage whose nodes were served by modes.
func fakeOutage(kind failure, modes []cluster.RecoveryMode, fallbacks []string) outage {
	return outage{
		kind:     kind,
		downtime: 42 * time.Millisecond,
		wr: &cluster.WorldRecovery{
			PerNode:   make([]recovery.ParallelResult, len(modes)),
			Modes:     modes,
			Fallbacks: fallbacks,
		},
	}
}

func TestOutageClassifiedByServingRung(t *testing.T) {
	p := newPhase(false)
	pr, disk := cluster.RecoveryPeerRAM, cluster.RecoveryDisk

	p.addOutage(fakeOutage(processCrash, []cluster.RecoveryMode{pr, pr}, []string{"", ""}))
	p.addOutage(fakeOutage(siteLoss, []cluster.RecoveryMode{disk, disk}, []string{"no replica", "no replica"}))
	if len(p.downtime[0]) != 1 || len(p.downtime[1]) != 1 || p.failed != 0 {
		t.Fatalf("expected rungs: downtime %v, failed %d", p.downtime, p.failed)
	}
	if p.fallthroughs != 0 {
		t.Fatalf("site-loss fall-throughs counted as peer-RAM fall-throughs: %d", p.fallthroughs)
	}

	// A process crash where node 0 fell through to disk is a failure, is
	// not a downtime sample of either rung, and counts as a fall-through.
	p.addOutage(fakeOutage(processCrash, []cluster.RecoveryMode{disk, pr}, []string{"peerram: no surviving replica", ""}))
	if p.failed != 1 || p.misserved != 1 || p.fallthroughs != 1 {
		t.Fatalf("fall-through: failed %d misserved %d fallthroughs %d, want 1 1 1", p.failed, p.misserved, p.fallthroughs)
	}
	if len(p.downtime[0]) != 1 || len(p.downtime[1]) != 1 {
		t.Fatalf("misserved cycle became a downtime sample: %v", p.downtime)
	}
	// A site loss served by a standby is misserved too.
	p.addOutage(fakeOutage(siteLoss, []cluster.RecoveryMode{disk, cluster.RecoveryStandby}, []string{"", ""}))
	if p.attempted != 4 || p.failed != 2 {
		t.Fatalf("attempted %d failed %d, want 4 2", p.attempted, p.failed)
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	at := func(ms int) time.Time { return time.Unix(0, 0).Add(time.Duration(ms) * time.Millisecond) }
	tr := &tracer{}
	root := tr.begin("root", at(0))
	tr.child(root, "a", at(10), at(40))
	tr.child(root, "b", at(30), at(50))  // overlaps a
	tr.child(root, "c", at(90), at(120)) // runs past the root: clipped
	tr.end(root, at(100))
	stats := selfTimes(tr.spans)
	if stats[0].Name != "root" || stats[0].Self != 50*time.Millisecond {
		t.Fatalf("root self = %v, want 50ms (100 - [10,50] - [90,100])", stats[0].Self)
	}
	for _, s := range tr.spans[1:] {
		if s.Trace != tr.spans[0].Trace || s.Parent != tr.spans[0].ID {
			t.Fatalf("child %q not linked to its root: %+v", s.Name, s)
		}
	}
}

func TestCountingDeviceCountsEveryCall(t *testing.T) {
	dc := &deviceCounter{}
	dev, err := dc.open(t.TempDir() + "/img")
	if err != nil {
		t.Fatal(err)
	}
	defer dev.Close()
	if _, err := dev.WriteAt(make([]byte, 512), 0); err != nil {
		t.Fatal(err)
	}
	vw := dev.(interface {
		WriteVAt([][]byte, int64) (int, error)
		ReadVAt([][]byte, int64) (int, error)
	})
	if _, err := vw.WriteVAt([][]byte{make([]byte, 512), make([]byte, 1024)}, 512); err != nil {
		t.Fatal(err)
	}
	if err := dev.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, err := vw.ReadVAt([][]byte{make([]byte, 2048)}, 0); err != nil {
		t.Fatal(err)
	}
	got := dc.snapshot()
	if got.Writes != 2 || got.WriteBytes != 2048 || got.Syncs != 1 || got.Reads != 1 || got.ReadBytes != 2048 {
		t.Fatalf("counts %+v", got)
	}
	if modelTime(6e6) != time.Second {
		t.Fatalf("6 MB at the modelled disk = %v, want 1s", modelTime(6e6))
	}
}

// TestSmoke runs each workload briefly — deployment, steady ticks, crash
// cycles of both kinds — and holds it to the correctness gate: every
// recovery lands on the crash tick, byte-identical to the serial reference,
// served by the rung its failure kind expects, with no delta dropped.
func TestSmoke(t *testing.T) {
	for _, sp := range specs {
		t.Run(sp.name, func(t *testing.T) {
			cfg := config{spec: sp, seed: 7, measure: 300 * time.Millisecond, stateDir: t.TempDir()}
			r, setup, err := deploy(cfg, cfg.stateDir+"/world", 1)
			if err != nil {
				t.Fatal(err)
			}
			defer r.s.close()
			p := newPhase(true)
			if err := r.measure(p, cfg.measure, 0); err != nil {
				t.Fatal(err)
			}
			if !sp.outage {
				if err := r.closing(p, 2); err != nil {
					t.Fatal(err)
				}
			}
			if err := r.s.verify(); err != nil {
				t.Fatal(err)
			}
			if err := r.s.checkDevices(); err != nil {
				t.Fatal(err)
			}
			if p.failed != 0 || p.attempted == 0 {
				t.Fatalf("failed %d of %d", p.failed, p.attempted)
			}
			if len(p.downtime[0]) == 0 || len(p.downtime[1]) == 0 {
				t.Fatalf("downtime samples %v: both rungs must serve", p.downtime)
			}
			if len(setup) != 1 || p.ticks == 0 || p.checkpoints == nil {
				t.Fatalf("setup %v, %d ticks, checkpoints %v", setup, p.ticks, p.checkpoints)
			}
		})
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"--workload", "nosuch"}, &out, &errOut); code == 0 {
		t.Fatal("unknown workload accepted")
	}
	if !strings.Contains(errOut.String(), "nosuch") || out.Len() != 0 {
		t.Fatalf("stdout %q stderr %q", out.String(), errOut.String())
	}
}
