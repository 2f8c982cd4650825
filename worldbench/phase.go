package main

import (
	"math"
	"strconv"
	"time"

	"repro/internal/cluster"
	"repro/internal/session"
	"repro/internal/telemetry"
)

// rungs are the recovery rungs the benchmark's failure kinds exercise, in
// the order per-rung metrics are reported.
var rungs = []cluster.RecoveryMode{cluster.RecoveryPeerRAM, cluster.RecoveryDisk}

// perRung holds one series per rung in rungs.
type perRung [2]samples

func rungIndex(m cluster.RecoveryMode) int {
	if m == cluster.RecoveryDisk {
		return 1
	}
	return 0
}

// counters is a snapshot of the cumulative instruments a phase reads
// deltas of: engine aggregates, the cluster barrier, the counting devices,
// the gateway and the program's telemetry counters.
type counters struct {
	apply, pause time.Duration // summed over nodes
	barrier      time.Duration
	ckptSeen     []int // per node, CheckpointInfos already counted
	primary      ioCounts
	mirror       ioCounts
	gateway      session.Stats
	walBytes     uint64
	couCopies    uint64
	walAppend    telemetry.HistSnapshot
	shipped      int64 // standby tick-stream bytes
}

func (s *system) counters() counters {
	var k counters
	for _, n := range s.c.Nodes() {
		st := n.E.Stats()
		k.apply += st.ApplyTotal
		k.pause += st.PauseTotal
		k.ckptSeen = append(k.ckptSeen, len(st.Checkpoints))
	}
	k.barrier = s.c.BarrierWait()
	k.primary = s.primary.snapshot()
	k.mirror = s.mirror.snapshot()
	k.gateway = s.gw.Stats()
	k.walBytes, _ = telemetry.CounterValue("wal_append_bytes_total")
	k.couCopies, _ = telemetry.CounterValue("engine_cou_copies_total")
	k.walAppend, _ = telemetry.HistogramSnapshot("wal_append_ns")
	for _, sh := range s.shippers {
		k.shipped += sh.Stats().BytesShipped
	}
	return k
}

// phase accumulates what one stretch of a run measured: the tick loop, or
// the crash cycles battle and lobby end with. With --trace 1 the tick loop
// is measured twice, untraced and then traced.
type phase struct {
	traced bool

	// End-to-end.
	tickLat     samples // TickReport.Latency, in tick order
	tickIntents []int   // committed intents, per tick
	// tickWall is the Driver.Tick call plus any CheckpointWorld call that
	// followed it, per tick: the wall time of the tick loop.
	tickWall    []time.Duration
	checkpoints samples // CheckpointWorld wall
	ckptAt      []int   // measured ticks before each CheckpointWorld
	ticks       int
	intents     int64
	downtime    perRung
	attempted   int64
	failed      int64
	misserved   int

	// Per-layer.
	worldTick    samples // World.Tick
	step         samples // Latency minus World.Tick
	fanout       samples // World.Tick return → Driver.Tick return
	churn        time.Duration
	lag          samples // standby lag in ticks, sampled every tick
	refresh      samples
	engineCkpts  int
	engineCkpt   samples // CheckpointInfo.Duration of every node image
	engineCkptKB samples
	reconnect    samples
	bootstrap    samples
	recoverWall  perRung
	restore      perRung
	replay       perRung
	overlap      perRung
	replayed     perRung // ticks
	modelRestore perRung
	modelReplay  perRung
	diskReadKB   samples
	diskModel    samples
	fallthroughs int

	// Counter deltas over the phase's segments.
	sum  counters
	open *counters

	spans *tracer
}

func newPhase(traced bool) *phase {
	p := &phase{traced: traced}
	if traced {
		p.spans = &tracer{}
	}
	return p
}

// openSegment starts counting against the system's current world.
func (p *phase) openSegment(s *system) {
	k := s.counters()
	p.open = &k
}

// closeSegment adds the deltas since openSegment; call it before the world
// it opened on is torn down.
func (p *phase) closeSegment(s *system) {
	if p.open == nil {
		return
	}
	k, o := s.counters(), p.open
	p.open = nil
	p.sum.apply += k.apply - o.apply
	p.sum.pause += k.pause - o.pause
	p.sum.barrier += k.barrier - o.barrier
	// Node engines checkpoint back to back between world checkpoints;
	// every image completed in the segment counts.
	for i, n := range s.c.Nodes() {
		for _, info := range n.E.Stats().Checkpoints[o.ckptSeen[i]:] {
			p.engineCkpts++
			p.engineCkpt.add(info.Duration)
			p.engineCkptKB = append(p.engineCkptKB, float64(info.Bytes)/1024)
		}
	}
	p.sum.primary = addIO(p.sum.primary, k.primary.sub(o.primary))
	p.sum.mirror = addIO(p.sum.mirror, k.mirror.sub(o.mirror))
	p.sum.gateway.Deltas += k.gateway.Deltas - o.gateway.Deltas
	p.sum.gateway.Dropped += k.gateway.Dropped - o.gateway.Dropped
	p.sum.walBytes += k.walBytes - o.walBytes
	p.sum.couCopies += k.couCopies - o.couCopies
	p.sum.shipped += k.shipped - o.shipped
	for i := range k.walAppend.Buckets {
		p.sum.walAppend.Buckets[i] += k.walAppend.Buckets[i] - o.walAppend.Buckets[i]
	}
	// Every delta is one operation; a dropped one is a failed one.
	d := (k.gateway.Deltas - o.gateway.Deltas) + (k.gateway.Dropped - o.gateway.Dropped)
	p.attempted += int64(d)
	p.failed += int64(k.gateway.Dropped - o.gateway.Dropped)
}

func addIO(a, b ioCounts) ioCounts {
	return ioCounts{
		Reads: a.Reads + b.Reads, Writes: a.Writes + b.Writes, Syncs: a.Syncs + b.Syncs,
		ReadBytes: a.ReadBytes + b.ReadBytes, WriteBytes: a.WriteBytes + b.WriteBytes,
		CallTime: a.CallTime + b.CallTime,
	}
}

// addTick records one measured tick.
func (p *phase) addTick(s *system, t tickResult) {
	p.attempted++
	p.ticks++
	p.intents += int64(t.rep.Intents)
	p.tickLat.add(t.rep.Latency)
	p.tickIntents = append(p.tickIntents, t.rep.Intents)
	p.tickWall = append(p.tickWall, t.wall)
	if !p.traced {
		return
	}
	p.worldTick.add(t.worldTook)
	p.step.add(t.rep.Latency - t.worldTook)
	p.fanout.add(t.start.Add(t.wall).Sub(t.worldEnd))
	p.churn += t.wall - t.rep.Latency
	var lag uint64
	next := s.c.NextTick()
	for _, sh := range s.shippers {
		acked, ok := sh.Acked()
		l := next
		if ok {
			l = next - 1 - acked
		}
		lag = max(lag, l)
	}
	p.lag = append(p.lag, float64(lag))
	tr := p.spans.begin("Driver.Tick", t.start)
	p.spans.child(tr, "World.Tick", t.worldEnd.Add(-t.worldTook), t.worldEnd)
	p.spans.end(tr, t.start.Add(t.wall))
}

// addCheckpoint records one world checkpoint taken at start.
func (p *phase) addCheckpoint(s *system, start time.Time, wall time.Duration) {
	if n := len(p.tickWall); n > 0 {
		p.tickWall[n-1] += wall
	}
	p.ckptAt = append(p.ckptAt, len(p.tickWall))
	p.checkpoints.add(wall)
	if !p.traced {
		return
	}
	// The image each node's CheckpointAsOf returned is its newest.
	var slowest time.Duration
	for _, n := range s.c.Nodes() {
		cps := n.E.Stats().Checkpoints
		slowest = max(slowest, cps[len(cps)-1].Duration)
	}
	p.refresh.add(wall - slowest)
	tr := p.spans.begin("CheckpointWorld", start)
	p.spans.child(tr, "engine.CheckpointAsOf (slowest node)", start, start.Add(slowest))
	p.spans.child(tr, "peerram.Refresh", start.Add(slowest), start.Add(wall))
	p.spans.end(tr, start.Add(wall))
}

// addOutage records one crash-and-recovery cycle. A cycle served by any
// other rung than its failure kind expects is a failed operation.
func (p *phase) addOutage(o outage) {
	p.attempted++
	served := o.kind.expected()
	ok := true
	for _, m := range o.wr.Modes {
		if m != served {
			ok = false
		}
	}
	if o.kind == processCrash {
		for _, f := range o.wr.Fallbacks {
			if f != "" {
				p.fallthroughs++
			}
		}
	}
	if !ok {
		p.failed++
		p.misserved++
		return
	}
	r := rungIndex(served)
	p.downtime[r].add(o.downtime)
	if !p.traced {
		return
	}
	p.reconnect.add(o.reconnect)
	p.bootstrap.add(o.bootstrap)
	p.recoverWall[r].add(o.wr.Wall)
	// The slowest node sets the world's recovery time.
	slow := o.wr.PerNode[0]
	for _, pn := range o.wr.PerNode[1:] {
		if pn.TotalDuration > slow.TotalDuration {
			slow = pn
		}
	}
	p.restore[r].add(slow.RestoreDuration)
	p.replay[r].add(slow.ReplayDuration)
	p.overlap[r].add(slow.Overlap())
	p.replayed[r] = append(p.replayed[r], float64(slow.ReplayedTicks))
	restoreModel, replayModel := modelRecovery(table.NumObjects()/len(o.wr.PerNode), slow.ReplayedTicks)
	p.modelRestore[r].add(restoreModel)
	p.modelReplay[r].add(replayModel)
	if served == cluster.RecoveryDisk {
		p.diskReadKB = append(p.diskReadKB, float64(o.reads.ReadBytes)/1024)
		p.diskModel.add(modelTime(o.reads.ReadBytes))
	}

	tr := p.spans.begin("outage: "+o.kind.String(), o.start)
	p.spans.child(tr, "Cluster.Close (crash)", o.start, o.start.Add(o.crash))
	recStart := o.start.Add(o.crash)
	rec := p.spans.childOpen(tr, "cluster.Recover", recStart)
	for i, pn := range o.wr.PerNode {
		end := recStart.Add(pn.TotalDuration)
		rung := p.spans.childOpen(rec, "rung "+o.wr.Modes[i].String()+" node "+strconv.Itoa(i), recStart)
		p.spans.child(rung, "restore", recStart, recStart.Add(pn.RestoreDuration))
		p.spans.child(rung, "replay", end.Add(-pn.ReplayDuration), end)
		p.spans.end(rung, end)
	}
	p.spans.end(rec, recStart.Add(o.recover))
	end := o.first.start.Add(o.first.wall)
	re := p.spans.childOpen(tr, "reconnect + first tick", o.reconnectStart)
	p.spans.child(re, "Driver.Tick", o.first.start, end)
	p.spans.end(re, end)
	p.spans.end(tr, end)
}

// windowTicks is the window tick_ms_p99 is taken over: each window of
// consecutive measured ticks yields one p99 and a run reports their median,
// so a burst of host noise in one part of a run moves the figure little.
// It is the fewest ticks a p99 may rest on.
const windowTicks = 1000

// rateCheckpoints is the window updates_per_s is taken over, in world
// checkpoints: a window runs from one checkpoint to the fourth after it, so
// every window carries the same number of checkpoint stalls.
const rateCheckpoints = 4

// windowP99 returns the p99 of each whole windowTicks window of the
// phase's ticks; the ticks after the last whole window are left out.
func (p *phase) windowP99() samples {
	var out samples
	for lo := 0; lo+windowTicks <= len(p.tickLat); lo += windowTicks {
		v, _ := p.tickLat[lo : lo+windowTicks].percentile(99)
		out = append(out, v)
	}
	return out
}

// windowRates returns committed intents ÷ tick-loop wall for each window
// of rateCheckpoints checkpoint intervals.
func (p *phase) windowRates() samples {
	var out samples
	for k := rateCheckpoints; k < len(p.ckptAt); k += rateCheckpoints {
		var intents int
		var wall time.Duration
		for i := p.ckptAt[k-rateCheckpoints]; i < p.ckptAt[k]; i++ {
			intents += p.tickIntents[i]
			wall += p.tickWall[i]
		}
		if wall > 0 {
			out = append(out, float64(intents)/wall.Seconds())
		}
	}
	return out
}

// walAppendP50 estimates the median WAL append latency from the phase's
// log2-bucketed histogram delta, interpolating inside the median bucket.
func (p *phase) walAppendP50() time.Duration {
	h := p.sum.walAppend
	var total uint64
	for _, c := range h.Buckets {
		total += c
	}
	if total == 0 {
		return 0
	}
	half := float64(total) / 2
	var cum float64
	for i, c := range h.Buckets {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= half {
			if i == 0 {
				return 0
			}
			lo := math.Ldexp(1, i-1)
			return time.Duration(lo + lo*(half-cum)/float64(c))
		}
		cum += float64(c)
	}
	return 0
}
