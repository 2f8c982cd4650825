package cluster

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/disk"
	"repro/internal/engine"
	"repro/internal/gamestate"
	"repro/internal/peerram"
	"repro/internal/replication"
	"repro/internal/telemetry"
	"repro/internal/wal"
)

// Options configures a cluster of in-process nodes.
type Options struct {
	// Table is the world geometry every node shares. Each node runs a full
	// engine over it but applies (and logs) only the updates of objects it
	// owns, so a node's WAL and checkpoint images cover exactly its
	// partition's history.
	Table gamestate.Table
	// Dir is the cluster root: node i lives in Dir/node-i, the manifest in
	// Dir/cluster.json.
	Dir string
	// Mode is every node's checkpoint method.
	Mode engine.Mode
	// Nodes is the requested node count; like the engine's shard plan the
	// request is rounded down to a power of two, every node's span is a
	// power-of-two number of objects, and small or ragged worlds fold to
	// fewer nodes (the effective count is len(Cluster.Nodes())).
	Nodes int
	// Shards is each node's engine shard count (default 1: the cluster is
	// the parallelism axis under test; node-internal sharding composes).
	Shards int
	// DiskBytesPerSec throttles each node's backup devices.
	DiskBytesPerSec float64
	// SyncEveryTick fsyncs each node's log every tick.
	SyncEveryTick bool
	// ReplayAction interprets action payloads, both live (TickActions) and
	// during node recovery. Required if TickActions is used.
	ReplayAction engine.ReplayActionFunc
	// BarrierTimeout bounds every barrier wait — Tick, TickActions and
	// CheckpointWorld — so one stalled node yields a typed *TimeoutError
	// instead of hanging the coordinator forever. Zero keeps the unbounded
	// wait. After a timeout the cluster is wedged: the straggler may still
	// hold its engine, so further tick calls fail with the same error.
	BarrierTimeout time.Duration
	// MigrationPipe overrides the in-process duplex connection a migration's
	// range transfer runs over (default net.Pipe). The fault-injection
	// harness wraps it to sever the stream mid-migration.
	MigrationPipe func() (sender, receiver net.Conn)
	// DeviceFactory overrides how each node engine opens its backup devices
	// (fault injection). The path identifies both the node and the backup.
	DeviceFactory func(path string) (disk.Device, error)
	// PeerRAM, when non-nil, attaches every node to the replica mesh: each
	// node's checkpoint image and tick deltas are held compressed in K
	// peers' RAM (piggybacked on the tick-commit stream, no extra fsyncs),
	// and Recover's ladder can restore a crashed partition out of that RAM
	// instead of through the disk pipeline. The mesh deliberately outlives
	// the cluster — surviving peers' RAM is exactly what a later Recover
	// with the same mesh restores from.
	PeerRAM *peerram.Mesh
	// RecoveryMode selects Recover's per-partition ladder (see
	// RecoveryMode; the zero value is RecoveryAuto: peer-RAM → standby →
	// disk). New ignores it.
	RecoveryMode RecoveryMode
	// Standbys supplies Recover's standby rung: Standbys[i], when non-nil,
	// is a warm standby mirroring node i that Recover may promote in place
	// of restoring from disk. The promoted engine keeps its own directory;
	// the node's root-relative directory goes stale, exactly as a real
	// failover's would. New ignores it.
	Standbys []*replication.Standby
}

// TimeoutError reports a barrier wait that exceeded Options.BarrierTimeout:
// the listed nodes had not applied when the deadline hit.
type TimeoutError struct {
	Op      string // "tick", "actions" or "checkpoint"
	Tick    uint64
	Waiting []int // nodes that had not reached the barrier
	Wait    time.Duration
}

// Error formats the barrier operation, tick, deadline, and lagging nodes.
func (e *TimeoutError) Error() string {
	return fmt.Sprintf("cluster: %s barrier at tick %d timed out after %v (nodes %v still applying)",
		e.Op, e.Tick, e.Wait, e.Waiting)
}

// Timeout marks the error as a deadline failure (net.Error convention).
func (e *TimeoutError) Timeout() bool { return true }

// Node is one cluster member: a full engine plus its place in the world.
type Node struct {
	Index int
	Dir   string
	E     *engine.Engine
}

// Cluster is a tick-synchronized multi-node world. One coordinating
// goroutine drives it: Tick routes a tick's updates to their owner nodes,
// fans the per-node batches out to one persistent apply worker per node,
// and joins them — the tick barrier. No node ever starts tick T+1 before
// every node has applied T, which is what makes a cut at a tick boundary
// globally consistent by construction.
type Cluster struct {
	opts    Options
	table   gamestate.Table
	nodes   []*Node
	routing *Routing
	tick    uint64

	cellsPerObj uint32
	perNode     [][]wal.Update
	work        []chan []wal.Update
	errs        []error
	applied     []atomic.Bool // per-node: reached the current Tick barrier
	wg          sync.WaitGroup

	mig    *Migration
	migErr error // sticky: why the last migration aborted
	closed bool

	// barrierWait accumulates the coordinator's blocked time at tick and
	// action barriers: the serialization the lock-step discipline imposes,
	// measured so the skew cluster has an honest comparison quantity.
	barrierWait time.Duration

	// wedged is set by the first barrier timeout; drained is closed when the
	// timed-out barrier's stragglers eventually finish (Close waits briefly
	// for it before tearing engines down under a straggler).
	wedged  error
	drained chan struct{}

	// barrierLog, when non-nil, records (tick, node) apply completions for
	// the barrier-ordering test.
	barrierLog func(tick uint64, node int)

	// commitMu guards the commit-subscription list (Subscribe/Close run on
	// consumer goroutines; signaling runs on the coordinator goroutine).
	commitMu   sync.Mutex
	commitSubs []*CommitSub
}

// CommitSub is a live subscription to the cluster's tick commits, the
// multi-node mirror of engine.TickSub's commit signal: after every barrier
// tick (Tick or TickActions) each subscriber receives the committed tick on
// C. The channel holds at most one pending value — a slow consumer sees the
// newest tick, not a backlog — so consumers that must process every tick
// (the session gateway's delta fan-out) keep their own queue of pending
// ticks and drain it up to the signaled value.
type CommitSub struct {
	// C receives the latest committed tick.
	C <-chan uint64
	c chan uint64
	l *Cluster
}

// Close cancels the subscription.
func (s *CommitSub) Close() {
	c := s.l
	c.commitMu.Lock()
	defer c.commitMu.Unlock()
	for i, sub := range c.commitSubs {
		if sub == s {
			c.commitSubs = append(c.commitSubs[:i], c.commitSubs[i+1:]...)
			break
		}
	}
}

// signal publishes tick on the coalescing channel without ever blocking.
func (s *CommitSub) signal(tick uint64) {
	for {
		select {
		case s.c <- tick:
			return
		default:
		}
		select {
		case <-s.c: // drop the stale value, then retry the send
		default:
		}
	}
}

// SubscribeCommits registers a commit subscription. Unlike the engine's
// SubscribeTicks it carries no log-retention semantics — the cluster's WALs
// belong to its nodes — so it works on any cluster and never delays pruning.
func (c *Cluster) SubscribeCommits() *CommitSub {
	s := &CommitSub{c: make(chan uint64, 1), l: c}
	s.C = s.c
	c.commitMu.Lock()
	c.commitSubs = append(c.commitSubs, s)
	c.commitMu.Unlock()
	return s
}

// notifyCommit signals every commit subscriber that tick committed. Called
// on the coordinator goroutine after the barrier joined.
func (c *Cluster) notifyCommit(tick uint64) {
	c.commitMu.Lock()
	defer c.commitMu.Unlock()
	for _, s := range c.commitSubs {
		s.signal(tick)
	}
}

// New creates a fresh cluster: N empty node directories under opts.Dir, a
// uniform partition map, and the initial manifest.
func New(opts Options) (*Cluster, error) {
	if err := opts.Table.Validate(); err != nil {
		return nil, err
	}
	if opts.Dir == "" {
		return nil, errors.New("cluster: Dir required")
	}
	m := Uniform(opts.Table.NumObjects(), opts.Nodes)
	routing, err := NewRouting(m, 0)
	if err != nil {
		return nil, err
	}
	c, err := build(opts, routing, 0, func(i int, dir string) (*engine.Engine, error) {
		return engine.Open(nodeEngineOptions(opts, dir))
	})
	if err != nil {
		return nil, err
	}
	if err := c.writeManifest(nil); err != nil {
		c.Close()
		return nil, err
	}
	if err := c.attachPeerRAM(); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// attachPeerRAM starts every node's replica links on the configured mesh;
// a no-op without one.
func (c *Cluster) attachPeerRAM() error {
	if c.opts.PeerRAM == nil {
		return nil
	}
	for _, n := range c.nodes {
		if err := c.opts.PeerRAM.Attach(n.Index, n.E); err != nil {
			return fmt.Errorf("cluster: node %d replica mesh: %w", n.Index, err)
		}
	}
	return nil
}

// nodeEngineOptions is the per-node engine configuration.
func nodeEngineOptions(opts Options, dir string) engine.Options {
	shards := opts.Shards
	if shards <= 0 {
		shards = 1
	}
	return engine.Options{
		Table: opts.Table, Dir: dir, Mode: opts.Mode, Shards: shards,
		DiskBytesPerSec: opts.DiskBytesPerSec, SyncEveryTick: opts.SyncEveryTick,
		ReplayAction: opts.ReplayAction, DeviceFactory: opts.DeviceFactory,
	}
}

// build assembles a Cluster around an open function (fresh Open for New,
// RecoverFrom for Recover), one node per partition-map member.
func build(opts Options, routing *Routing, tick uint64,
	open func(i int, dir string) (*engine.Engine, error)) (*Cluster, error) {
	m := routing.Current()
	c := &Cluster{
		opts:        opts,
		table:       opts.Table,
		routing:     routing,
		tick:        tick,
		cellsPerObj: uint32(opts.Table.CellsPerObject()),
		perNode:     make([][]wal.Update, m.NumNodes),
		work:        make([]chan []wal.Update, m.NumNodes),
		errs:        make([]error, m.NumNodes),
		applied:     make([]atomic.Bool, m.NumNodes),
	}
	for i := 0; i < m.NumNodes; i++ {
		dir := NodeDir(opts.Dir, i)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			c.Close()
			return nil, fmt.Errorf("cluster: %w", err)
		}
		e, err := open(i, dir)
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("cluster: node %d: %w", i, err)
		}
		c.nodes = append(c.nodes, &Node{Index: i, Dir: dir, E: e})
	}
	for i := range c.work {
		ch := make(chan []wal.Update, 1)
		c.work[i] = ch
		go func(i int, ch <-chan []wal.Update) {
			for batch := range ch {
				err := c.nodes[i].E.ApplyTickParallel(batch)
				c.errs[i] = err
				if c.barrierLog != nil && err == nil {
					c.barrierLog(c.tick, i)
				}
				c.applied[i].Store(true)
				c.wg.Done()
			}
		}(i, ch)
	}
	return c, nil
}

// NodeDir returns node i's directory under a cluster root.
func NodeDir(root string, i int) string {
	return filepath.Join(root, fmt.Sprintf("node-%d", i))
}

// Nodes returns the cluster members.
func (c *Cluster) Nodes() []*Node { return c.nodes }

// Routing returns the live ownership history.
func (c *Cluster) Routing() *Routing { return c.routing }

// NextTick returns the tick the next Tick call will apply. Every node's
// engine agrees (the barrier invariant).
func (c *Cluster) NextTick() uint64 { return c.tick }

// Table returns the world geometry.
func (c *Cluster) Table() gamestate.Table { return c.table }

// Tick applies one world tick: route the batch by ownership at this tick,
// apply on every node in parallel, and return only when all nodes have
// applied it (the barrier). When a migration is in flight, the moving
// range's updates are additionally streamed to the acquiring node's staging
// buffer after the barrier.
func (c *Cluster) Tick(batch []wal.Update) error {
	if c.closed {
		return errors.New("cluster: closed")
	}
	if c.wedged != nil {
		return c.wedged
	}
	m := c.routing.MapAt(c.tick)
	c.perNode = RouteTick(m, c.cellsPerObj, batch, c.perNode)
	for i := range c.applied {
		c.applied[i].Store(false)
	}
	c.wg.Add(len(c.work))
	for i, ch := range c.work {
		ch <- c.perNode[i]
	}
	if err := c.awaitBarrier("tick", c.tick, &c.wg, func(i int) bool { return c.applied[i].Load() }); err != nil {
		return err
	}
	for i, err := range c.errs {
		if err != nil {
			return fmt.Errorf("cluster: node %d tick %d: %w", i, c.tick, err)
		}
	}
	tick := c.tick
	c.tick++
	c.notifyCommit(tick)
	if c.mig != nil {
		if err := c.mig.feed(tick, batch); err != nil {
			// The range stream died mid-migration. The world must not: the
			// transfer aborts cleanly — staging discarded, ownership map
			// untouched, the source keeps owning and serving the range —
			// and the tick itself stands (it was applied by every owner
			// before the stream was fed). The abort is sticky and surfaces
			// via MigrationAborted and FinishMigration.
			c.mig.abort()
			c.mig = nil
			c.migErr = fmt.Errorf("%w: range stream cut at tick %d: %w", ErrMigrationAborted, tick, err)
		}
	}
	return nil
}

// awaitBarrier joins a per-node fan-out, bounded by Options.BarrierTimeout
// when one is set. On timeout the cluster wedges: the stragglers still own
// their engines, so the only safe continuations are the typed error and a
// Close that grants them a grace period.
func (c *Cluster) awaitBarrier(op string, tick uint64, wg *sync.WaitGroup, reached func(i int) bool) error {
	t0 := time.Now()
	// Checkpoint joins are deliberately excluded from the barrier-wait
	// accumulator: it measures the per-tick serialization cost (what the
	// bounded-skew discipline removes), not the cost of a coordinated cut.
	record := func() {
		if op != "checkpoint" {
			d := time.Since(t0)
			c.barrierWait += d
			telBarrierWait.ObserveDuration(d)
		}
	}
	if c.opts.BarrierTimeout <= 0 {
		wg.Wait()
		record()
		return nil
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
		record()
		return nil
	case <-time.After(c.opts.BarrierTimeout):
		var waiting []int
		for i := range c.nodes {
			if !reached(i) {
				waiting = append(waiting, i)
			}
		}
		err := &TimeoutError{Op: op, Tick: tick, Waiting: waiting, Wait: c.opts.BarrierTimeout}
		c.wedged = err
		c.drained = done
		return err
	}
}

// BarrierWait returns the cumulative wall time the coordinator has spent
// blocked at tick and action barriers — the lock-step serialization cost.
// Checkpoint joins are excluded. The clusterbench coordination axis reports
// it per tick next to the skew cluster's window-wait analogue.
func (c *Cluster) BarrierWait() time.Duration { return c.barrierWait }

// TickActions applies one world tick of opaque action payloads, one per
// node (a nil entry means that node ticks with an empty update batch, so
// tick counters stay aligned across the cluster). This is the action half
// of the router's fan-out: the caller decomposes a world action into
// per-owner payloads, and a node's payload must only write cells of
// objects that node owns at this tick — each node logs and replays its own
// payload through Options.ReplayAction, exactly like a single-node action
// log. All nodes apply before the call returns, preserving the barrier.
//
// Actions cannot run while a migration is in flight: the migration streams
// the moving range's *updates* into the staging buffer, and an opaque
// payload's writes to that range would be invisible to the stream — the
// cutover install would silently lose them. Finish (or do not start) the
// migration around action ticks; the call fails rather than diverging.
func (c *Cluster) TickActions(payloads [][]byte) error {
	if c.closed {
		return errors.New("cluster: closed")
	}
	if c.wedged != nil {
		return c.wedged
	}
	if c.mig != nil {
		return errors.New("cluster: actions are not supported while a migration is in flight (an opaque payload's writes to the moving range cannot be streamed to the staging buffer)")
	}
	if len(payloads) != len(c.nodes) {
		return fmt.Errorf("cluster: %d action payloads for %d nodes", len(payloads), len(c.nodes))
	}
	if c.opts.ReplayAction == nil {
		return errors.New("cluster: TickActions requires Options.ReplayAction")
	}
	tick := c.tick
	errs := make([]error, len(c.nodes))
	done := make([]atomic.Bool, len(c.nodes))
	var wg sync.WaitGroup
	for i, n := range c.nodes {
		wg.Add(1)
		go func(i int, n *Node) {
			defer wg.Done()
			defer done[i].Store(true)
			if payloads[i] == nil {
				errs[i] = n.E.ApplyTickParallel(nil)
				return
			}
			p := payloads[i]
			errs[i] = n.E.ApplyActionTick(p, func(w *engine.TickWriter) error {
				return c.opts.ReplayAction(tick, p, w)
			})
		}(i, n)
	}
	// The barrier: an action tick costs the slowest node, like Tick.
	if err := c.awaitBarrier("actions", tick, &wg, func(i int) bool { return done[i].Load() }); err != nil {
		return err
	}
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("cluster: node %d tick %d: %w", i, tick, err)
		}
	}
	c.tick++
	c.notifyCommit(tick)
	return nil
}

// CheckpointWorld performs a coordinated world checkpoint: the coordinator
// picks the cut — the last applied tick — and every node checkpoints as-of
// that exact tick, concurrently. Because ticks are synchronized, the
// per-node images form one globally consistent world state; the manifest
// records the cut and each image's identity so whole-world recovery knows
// what it is restoring.
func (c *Cluster) CheckpointWorld() (*Manifest, error) {
	if c.closed {
		return nil, errors.New("cluster: closed")
	}
	if c.wedged != nil {
		return nil, c.wedged
	}
	if c.tick == 0 {
		return nil, errors.New("cluster: no ticks applied")
	}
	cut := c.tick - 1
	ckptStart := time.Now()
	infos := make([]engine.CheckpointInfo, len(c.nodes))
	errs := make([]error, len(c.nodes))
	done := make([]atomic.Bool, len(c.nodes))
	var wg sync.WaitGroup
	for i, n := range c.nodes {
		wg.Add(1)
		go func(i int, n *Node) {
			defer wg.Done()
			defer done[i].Store(true)
			infos[i], errs[i] = n.E.CheckpointAsOf(cut)
		}(i, n)
	}
	if err := c.awaitBarrier("checkpoint", cut, &wg, func(i int) bool { return done[i].Load() }); err != nil {
		return nil, err
	}
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("cluster: node %d checkpoint: %w", i, err)
		}
	}
	images := make([]ImageID, len(infos))
	for i, info := range infos {
		images[i] = ImageID{Epoch: info.Epoch, AsOfTick: info.AsOfTick}
	}
	wc := &WorldCheckpoint{CutTick: cut, Images: images}
	if err := c.writeManifest(wc); err != nil {
		return nil, err
	}
	if c.opts.PeerRAM != nil {
		// Refresh every node's peer-held replica to the new cut: holders
		// install the fresh image and drop the delta tail it supersedes, so
		// replica RAM tracks one image plus dirty-since-cut ticks — the same
		// retention shape as the disk checkpoints the manifest just recorded.
		// Each node's links ship independently, so the refreshes fan out
		// like the cut above and the stall is the slowest node's.
		var wg sync.WaitGroup
		for i, n := range c.nodes {
			wg.Add(1)
			go func(i int, n *Node) {
				defer wg.Done()
				errs[i] = c.opts.PeerRAM.Refresh(n.Index)
			}(i, n)
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				return nil, fmt.Errorf("cluster: node %d replica refresh: %w", c.nodes[i].Index, err)
			}
		}
	}
	wall := time.Since(ckptStart)
	telCkptWall.ObserveDuration(wall)
	telCkptLast.Set(wall.Nanoseconds())
	telemetry.RecordSpan("cluster/checkpoint", ckptStart, ckptStart.Add(wall),
		telemetry.Int("cut_tick", int64(cut)), telemetry.Int("nodes", int64(len(c.nodes))))
	return c.manifest(wc), nil
}

// ReadWorld assembles the world state into dst (StateBytes() long): each
// node contributes exactly the ranges it owns under the current map. It is
// the merge the per-cell equivalence harness compares against a single-node
// reference.
func (c *Cluster) ReadWorld(dst []byte) error {
	want := int(c.table.StateBytes())
	if len(dst) != want {
		return fmt.Errorf("cluster: world buffer %d bytes, want %d", len(dst), want)
	}
	m := c.routing.Current()
	sz := c.table.ObjSize
	for i, n := range c.nodes {
		slab := n.E.Store().Slab()
		for _, r := range m.NodeRanges(i) {
			copy(dst[r.Lo*sz:r.Hi*sz], slab[r.Lo*sz:r.Hi*sz])
		}
	}
	return nil
}

// Close aborts any in-flight migration, stops the apply workers and closes
// every node engine.
func (c *Cluster) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	if c.drained != nil {
		// A barrier timed out: grant the stragglers one more timeout's
		// grace before closing engines they may still be applying into.
		select {
		case <-c.drained:
		case <-time.After(c.opts.BarrierTimeout):
		}
	}
	if c.mig != nil {
		c.mig.abort()
		c.mig = nil
	}
	if c.opts.PeerRAM != nil {
		// Flush each node's replica tail into its holders' RAM, then stop the
		// links. Detach (not Crash): the stores stay servable, so a Close that
		// models a crash leaves surviving peers' RAM exactly as a real crash
		// would. The drain is best-effort — a wedged cluster must still close.
		for _, n := range c.nodes {
			if c.tick > 0 {
				c.opts.PeerRAM.Drain(n.Index, c.tick-1, 2*time.Second) //nolint:errcheck // best-effort
			}
			c.opts.PeerRAM.Detach(n.Index)
		}
	}
	for _, ch := range c.work {
		if ch != nil { // build() may Close before the workers exist
			close(ch)
		}
	}
	var first error
	for _, n := range c.nodes {
		if err := n.E.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
