package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/gamestate"
	"repro/internal/peerram"
	"repro/internal/replication"
	"repro/internal/session"
	"repro/internal/wal"
	"repro/internal/workload"
)

// The system under test: the defaults of `cmd/cluster -role world`.
const (
	nodes          = 2
	updatesPerTick = 6400 // Table 4 default at quick scale
	zipfSkew       = 0.8
	maxLagTicks    = 64
	// checkpointEvery is the steady-phase world checkpoint interval.
	checkpointEvery = 64
	// A crash cycle runs cycleTicks ticks with a world checkpoint after
	// cycleCheckpointAt of them, so every recovery replays 48 ticks.
	cycleTicks        = 64
	cycleCheckpointAt = 16
	// reprotectTimeout bounds the wait for a recovered node's peer-RAM
	// replica to be re-established.
	reprotectTimeout = 10 * time.Second
)

// table is the quick-scale world: 100,000 × 10 cells, 7,813 objects, 4 MB.
var table = gamestate.Table{Rows: 100_000, Cols: 10, CellSize: 4, ObjSize: 512}

// spec describes one workload's traffic.
type spec struct {
	name     string
	scenario string
	clients  int
	profile  session.Profile
	// outage runs crash cycles for the whole measured phase.
	outage bool
	why    string
}

var specs = []spec{
	{name: "battle", scenario: "hotspot", clients: 64, profile: session.Steady,
		why: "Zipf hotspot at 6,400 updates/tick, 64 steady clients: engine apply, COU copies, WAL and replica streams dominate"},
	{name: "lobby", scenario: "quiescent", clients: 4096, profile: session.ReconnectStorm,
		why: "200 updates/tick to 4,096 churning clients: session churn, interest lookup and delta fan-out dominate"},
	{name: "outage", scenario: "hotspot", clients: 64, profile: session.Steady, outage: true,
		why: "battle's traffic in 64-tick crash cycles alternating process crash (peer-RAM rung) and site loss (disk rung)"},
}

func specByName(name string) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// failure is the kind of crash a recovery cycle injects.
type failure int

const (
	// processCrash kills the world's processes; the peer-RAM mesh and the
	// standbys survive, and the peer-RAM rung is expected to serve.
	processCrash failure = iota
	// siteLoss loses every node's RAM and every standby: a fresh mesh and
	// no standbys, so the disk rung is expected to serve.
	siteLoss
)

func (f failure) String() string {
	if f == siteLoss {
		return "site loss"
	}
	return "process crash"
}

// expected is the rung the failure kind must be served by.
func (f failure) expected() cluster.RecoveryMode {
	if f == siteLoss {
		return cluster.RecoveryDisk
	}
	return cluster.RecoveryPeerRAM
}

// timedWorld is the benchmark's session.World: ClusterWorld with its Tick
// call timed, so session time and cluster time can be told apart from
// outside the program.
type timedWorld struct {
	session.ClusterWorld
	took     time.Duration // the latest Tick call
	returned time.Time     // when it returned
}

func (w *timedWorld) Tick(batch []wal.Update) error {
	start := time.Now()
	err := w.ClusterWorld.Tick(batch)
	w.returned = time.Now()
	w.took = w.returned.Sub(start)
	return err
}

// errFatal marks a failure that ends the run without metrics: a recovery
// that failed, landed off the crash tick, or diverged from the reference.
var errFatal = errors.New("correctness failure")

// system is one deployed world: a two-node cluster behind a gateway,
// replicated to a peer-RAM mesh and one warm standby per node, plus the
// serial in-memory reference every committed batch is also applied to.
type system struct {
	spec spec
	root string
	seed int64
	src  workload.Source

	primary *deviceCounter // the nodes' backup devices
	mirror  *deviceCounter // the standbys' backup devices

	mesh     *peerram.Mesh
	c        *cluster.Cluster
	world    *timedWorld
	gw       *session.Gateway
	drv      *session.Driver
	standbys []*replication.Standby
	shippers []*replication.Shipper
	sbDirs   []string
	sbGen    int

	ref *engine.Engine
	got []byte

	// imageBytes totals CheckpointInfo.Bytes of crashed clusters' nodes.
	imageBytes int64
}

// newSystem deploys a fresh world under root.
func newSystem(sp spec, root string, seed int64) (*system, error) {
	if err := os.RemoveAll(root); err != nil {
		return nil, err
	}
	src, err := workload.New(sp.scenario, workload.Config{
		Table: table, UpdatesPerTick: updatesPerTick, Ticks: 1 << 30, Skew: zipfSkew, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	s := &system{spec: sp, root: root, seed: seed, src: src,
		primary: &deviceCounter{}, mirror: &deviceCounter{},
		got: make([]byte, table.StateBytes())}
	s.mesh = s.newMesh()
	s.c, err = cluster.New(cluster.Options{
		Table: table, Dir: s.worldDir(), Mode: engine.ModeCopyOnUpdate, Nodes: nodes, Shards: 1,
		PeerRAM: s.mesh, DeviceFactory: s.primary.open,
	})
	if err != nil {
		return nil, err
	}
	s.ref, err = engine.Open(engine.Options{Table: table, Mode: engine.ModeNone, InMemory: true, Shards: 1})
	if err != nil {
		s.close()
		return nil, err
	}
	if err := s.populate(); err != nil {
		s.close()
		return nil, err
	}
	if _, err := s.startStandbys(); err != nil {
		s.close()
		return nil, err
	}
	if err := s.connect(); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// populate writes every cell of the fresh world once, in its first tick,
// with a value drawn from the seed. A live world is never all zeros, and
// an image that is mostly zeros compresses at a different speed than a
// populated one: without this the peer-RAM refresh, and so the checkpoint
// stall, would change with how many ticks a run happened to reach.
func (s *system) populate() error {
	batch := make([]wal.Update, table.NumCells())
	x := uint64(s.seed)
	for i := range batch {
		// SplitMix64.
		x += 0x9E3779B97F4A7C15
		z := x
		z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
		z = (z ^ z>>27) * 0x94D049BB133111EB
		batch[i] = wal.Update{Cell: uint32(i), Value: uint32(z ^ z>>31)}
	}
	if err := s.c.Tick(batch); err != nil {
		return fmt.Errorf("populate: %w", err)
	}
	return s.ref.ApplyTick(batch)
}

func (s *system) worldDir() string { return filepath.Join(s.root, "world") }

func (s *system) newMesh() *peerram.Mesh {
	return peerram.NewMesh(cluster.Uniform(table.NumObjects(), nodes).NumNodes, peerram.Options{})
}

// connect puts a fresh gateway and client population in front of the
// cluster. The clients log in on the driver's first tick.
func (s *system) connect() error {
	s.world = &timedWorld{ClusterWorld: session.ClusterWorld{C: s.c}}
	gw, err := session.NewGateway(session.Options{World: s.world})
	if err != nil {
		return err
	}
	drv, err := session.NewDriver(session.DriverConfig{
		Gateway: gw, Clients: s.spec.clients, Source: s.src, Profile: s.spec.profile, Seed: s.seed,
	})
	if err != nil {
		gw.Close() //nolint:errcheck // unwinding
		return err
	}
	s.gw, s.drv = gw, drv
	return nil
}

func (s *system) disconnect() {
	if s.drv != nil {
		s.drv.Close()
		s.drv = nil
	}
	if s.gw != nil {
		s.gw.Close() //nolint:errcheck // Close reports nothing
		s.gw = nil
	}
}

// startStandbys attaches a fresh warm standby to every node and waits
// until all are bootstrapped. It returns the bootstrap wall time.
func (s *system) startStandbys() (time.Duration, error) {
	start := time.Now()
	s.sbGen++
	for i, n := range s.c.Nodes() {
		dir := filepath.Join(s.root, fmt.Sprintf("standby-%d-%d", s.sbGen, i))
		pc, sc := net.Pipe()
		sb, err := replication.StartStandby(engine.Options{
			Table: table, Dir: dir, Mode: engine.ModeCopyOnUpdate, Shards: 1,
			DeviceFactory: s.mirror.open,
		}, sc)
		if err != nil {
			pc.Close()
			return 0, fmt.Errorf("standby %d: %w", i, err)
		}
		s.standbys, s.sbDirs = append(s.standbys, sb), append(s.sbDirs, dir)
		sh, err := replication.StartShipper(n.E, pc, replication.ShipperOptions{MaxLagTicks: maxLagTicks})
		if err != nil {
			return 0, fmt.Errorf("shipper %d: %w", i, err)
		}
		s.shippers = append(s.shippers, sh)
	}
	for i, sb := range s.standbys {
		select {
		case <-sb.Ready():
		case <-sb.Done():
			return 0, fmt.Errorf("standby %d died during bootstrap: %v", i, sb.Err())
		}
	}
	return time.Since(start), nil
}

func (s *system) stopShippers() {
	for _, sh := range s.shippers {
		sh.Stop() //nolint:errcheck // the stream ends with the crash
	}
	s.shippers = nil
}

// dropStandbys discards the standbys, keeping the directory of any that
// recovery promoted: its engine now serves a node.
func (s *system) dropStandbys(promoted []cluster.RecoveryMode) {
	for i, sb := range s.standbys {
		sb.Close() //nolint:errcheck // abandoned, not promoted
		if i < len(promoted) && promoted[i] == cluster.RecoveryStandby {
			continue
		}
		os.RemoveAll(s.sbDirs[i]) //nolint:errcheck // scratch space
	}
	s.standbys, s.sbDirs = nil, nil
}

// tickResult is one closed-loop tick as the benchmark saw it.
type tickResult struct {
	rep       session.TickReport
	start     time.Time
	wall      time.Duration // the Driver.Tick call
	worldTook time.Duration // the World.Tick call inside it
	worldEnd  time.Time
}

// tick runs one driver tick and applies its committed batch to the
// reference (outside the timed call).
func (s *system) tick() (tickResult, error) {
	start := time.Now()
	rep, err := s.drv.Tick()
	wall := time.Since(start)
	if err != nil {
		return tickResult{}, err
	}
	if err := s.ref.ApplyTick(rep.Batch); err != nil {
		return tickResult{}, fmt.Errorf("reference: %w", err)
	}
	return tickResult{rep: rep, start: start, wall: wall,
		worldTook: s.world.took, worldEnd: s.world.returned}, nil
}

// checkpoint takes one coordinated world checkpoint.
func (s *system) checkpoint() (time.Duration, error) {
	start := time.Now()
	_, err := s.c.CheckpointWorld()
	return time.Since(start), err
}

// verify checks the world against the reference: same tick, same bytes.
func (s *system) verify() error {
	if got, want := s.c.NextTick(), s.ref.NextTick(); got != want {
		return fmt.Errorf("%w: world at tick %d, reference at %d", errFatal, got, want)
	}
	if err := s.c.ReadWorld(s.got); err != nil {
		return err
	}
	if !bytes.Equal(s.got, s.ref.Store().Slab()) {
		return fmt.Errorf("%w: world state at tick %d differs from the serial reference", errFatal, s.c.NextTick())
	}
	return nil
}

// outage is one crash and recovery as the benchmark saw it.
type outage struct {
	kind           failure
	crashTick      uint64
	wr             *cluster.WorldRecovery
	crash          time.Duration // gateway, shippers and cluster torn down
	recover        time.Duration // cluster.Recover
	reconnect      time.Duration // gateway rebuild and client logins
	downtime       time.Duration // crash → first tick visible to every client
	first          tickResult    // that first tick
	reads          ioCounts      // backup-device traffic during Recover
	bootstrap      time.Duration // standbys restarted afterwards
	start          time.Time     // the crash
	reconnectStart time.Time
}

// crashRecover crashes the world at the tick barrier, recovers it down the
// auto ladder, checks it against the reference, reconnects every client
// and runs the first tick, then restarts the standbys. A recovery that
// fails or diverges is fatal.
func (s *system) crashRecover(kind failure) (outage, error) {
	o := outage{kind: kind, crashTick: s.c.NextTick(), start: time.Now()}
	s.disconnect()
	s.stopShippers()
	if err := s.c.Close(); err != nil {
		return o, fmt.Errorf("crash: %w", err)
	}
	s.imageBytes += s.reportedImageBytes()
	standbys := s.standbys
	if kind == siteLoss {
		s.mesh.Close()
		s.mesh = s.newMesh()
		standbys = nil
	}
	o.crash = time.Since(o.start)

	before := s.primary.snapshot()
	recStart := time.Now()
	c, wr, err := cluster.Recover(s.worldDir(), cluster.Options{
		Mode: engine.ModeCopyOnUpdate, Shards: 1, RecoveryMode: cluster.RecoveryAuto,
		PeerRAM: s.mesh, Standbys: standbys, DeviceFactory: s.primary.open,
	})
	o.recover = time.Since(recStart)
	o.reads = s.primary.snapshot().sub(before)
	if err != nil {
		return o, fmt.Errorf("%w: %v recovery: %v", errFatal, kind, err)
	}
	s.c, o.wr = c, wr
	if wr.WorldTick != o.crashTick {
		return o, fmt.Errorf("%w: %v recovered to tick %d, crashed at %d", errFatal, kind, wr.WorldTick, o.crashTick)
	}
	if err := s.verify(); err != nil {
		return o, err
	}

	o.reconnectStart = time.Now()
	if err := s.connect(); err != nil {
		return o, err
	}
	o.first, err = s.tick()
	if err != nil {
		return o, fmt.Errorf("first tick after %v: %w", kind, err)
	}
	back := time.Since(o.reconnectStart)
	o.reconnect = back - o.first.rep.Latency
	o.downtime = o.crash + o.recover + back

	// The world is protected again before it ticks on: every node's
	// replica re-shipped to its peers and fresh standbys bootstrapped. The
	// next ticks and checkpoint then do not share the CPU with that
	// catch-up, which a tick loop would hit at a different point each run.
	for _, n := range s.c.Nodes() {
		if err := s.mesh.Drain(n.Index, s.c.NextTick()-1, reprotectTimeout); err != nil {
			return o, fmt.Errorf("re-protecting node %d after %v: %w", n.Index, kind, err)
		}
	}
	s.dropStandbys(wr.Modes)
	o.bootstrap, err = s.startStandbys()
	return o, err
}

// reportedImageBytes sums the image bytes the current nodes' engines
// report having flushed.
func (s *system) reportedImageBytes() int64 {
	var n int64
	for _, node := range s.c.Nodes() {
		for _, info := range node.E.Stats().Checkpoints {
			n += info.Bytes
		}
	}
	return n
}

// checkDevices cross-checks the counting devices against the engines:
// every byte the nodes report flushing into an image passed through them.
func (s *system) checkDevices() error {
	written, reported := s.primary.snapshot().WriteBytes, s.imageBytes+s.reportedImageBytes()
	if written < reported {
		return fmt.Errorf("counting devices saw %d bytes written, engines report %d bytes of images", written, reported)
	}
	return nil
}

// close tears the world down and removes its state.
func (s *system) close() {
	s.disconnect()
	s.stopShippers()
	if s.c != nil {
		s.c.Close() //nolint:errcheck // teardown
	}
	s.dropStandbys(nil)
	if s.mesh != nil {
		s.mesh.Close()
	}
	if s.ref != nil {
		s.ref.Close() //nolint:errcheck // in-memory
	}
	os.RemoveAll(s.root) //nolint:errcheck // scratch space
}
