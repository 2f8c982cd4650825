package main

import (
	"fmt"
	"io"
	"time"
)

// layerMetrics fills the traced run's per-layer metrics, prints the
// tracing overhead, the measured-against-modelled recovery split and the
// span self times, and writes the spans out. p is the traced tick loop, o
// the traced crash cycles (p itself for outage) and base the untraced half
// the overhead is measured against.
func layerMetrics(res *result, s *system, base, p, o *phase, spansPath string, out io.Writer) error {
	ticks := float64(p.ticks)
	perTick := func(d time.Duration) float64 { return ms(d) / ticks }
	clusterP99, err := p.worldTick.percentile(99)
	if err != nil {
		return fmt.Errorf("cluster.tick_ms_p99: %w", err)
	}
	lagP99, err := p.lag.percentile(99)
	if err != nil {
		return fmt.Errorf("replication.lag_ticks_p99: %w", err)
	}
	var replicaBytes int64
	for _, b := range s.mesh.MemStats() {
		replicaBytes += b
	}
	durable := float64(p.sum.primary.WriteBytes + p.sum.mirror.WriteBytes + int64(p.sum.walBytes))

	type m struct {
		name, unit string
		v          float64
	}
	vals := []m{
		{"session.step_ms_p50", "ms", p.step.median()},
		{"session.fanout_ms_p50", "ms", p.fanout.median()},
		{"session.churn_ms_per_tick", "ms", perTick(p.churn)},
		{"session.deltas_per_tick", "count", float64(p.sum.gateway.Deltas) / ticks},
		{"session.dropped_deltas", "count", float64(p.sum.gateway.Dropped)},
		{"session.reconnect_ms_p50", "ms", o.reconnect.median()},
		{"cluster.tick_ms_p50", "ms", p.worldTick.median()},
		{"cluster.tick_ms_p99", "ms", clusterP99},
		{"cluster.barrier_wait_ms_per_tick", "ms", perTick(p.sum.barrier)},
	}
	for i, r := range rungs {
		vals = append(vals, m{"cluster.recover_ms_p50." + r.String(), "ms", o.recoverWall[i].median()})
	}
	vals = append(vals,
		m{"engine.apply_ms_per_tick", "ms", perTick(p.sum.apply)},
		m{"engine.pause_ms_per_tick", "ms", perTick(p.sum.pause)},
		m{"engine.checkpoints_per_1k_ticks", "count", float64(p.engineCkpts) * 1000 / ticks},
		m{"engine.checkpoint_ms_p50", "ms", p.engineCkpt.median()},
		m{"engine.checkpoint_kb_p50", "KB", p.engineCkptKB.median()},
		m{"engine.cou_copies_per_tick", "count", float64(p.sum.couCopies) / ticks},
		m{"wal.append_us_p50", "us", float64(p.walAppendP50()) / float64(time.Microsecond)},
		m{"wal.bytes_per_update", "B", float64(p.sum.walBytes) / float64(p.intents)},
		m{"disk.write_kb_per_tick", "KB", float64(p.sum.primary.WriteBytes) / 1024 / ticks},
		m{"disk.syncs_per_tick", "count", float64(p.sum.primary.Syncs) / ticks},
		m{"disk.call_ms_per_tick", "ms", perTick(p.sum.primary.CallTime)},
		m{"disk.write_amp", "ratio", durable / (8 * float64(p.intents))},
		m{"disk.read_kb_per_recovery", "KB", o.diskReadKB.median()},
		m{"disk.model_ms_per_recovery", "ms", o.diskModel.median()},
	)
	for i, r := range rungs {
		vals = append(vals,
			m{"recovery.restore_ms_p50." + r.String(), "ms", o.restore[i].median()},
			m{"recovery.replay_ms_p50." + r.String(), "ms", o.replay[i].median()},
			m{"recovery.overlap_ms_p50." + r.String(), "ms", o.overlap[i].median()},
			m{"recovery.replayed_ticks_p50." + r.String(), "count", o.replayed[i].median()},
			m{"recovery.model_restore_ms." + r.String(), "ms", o.modelRestore[i].median()},
			m{"recovery.model_replay_ms." + r.String(), "ms", o.modelReplay[i].median()},
		)
	}
	vals = append(vals,
		m{"peerram.refresh_ms_p50", "ms", p.refresh.median()},
		m{"peerram.replica_kb", "KB", float64(replicaBytes) / 1024},
		m{"peerram.fallthrough", "count", float64(o.fallthroughs)},
		m{"replication.lag_ticks_p99", "count", lagP99},
		m{"replication.shipped_kb_per_tick", "KB", float64(p.sum.shipped) / 1024 / ticks},
		m{"replication.bootstrap_ms_p50", "ms", o.bootstrap.median()},
	)
	for _, v := range vals {
		if err := put(res, v.name, v.unit, v.v, out); err != nil {
			return err
		}
	}

	fmt.Fprintf(out, "tracing overhead: tick p50 %.4f ms traced vs %.4f ms untraced (%+.1f%%)\n",
		p.tickLat.median(), base.tickLat.median(), 100*(p.tickLat.median()/base.tickLat.median()-1))
	for i, r := range rungs {
		fmt.Fprintf(out, "recovery via %s, slowest node, measured vs modelled: restore %.3f vs %.1f ms (%s), replay %.3f vs %.1f ms (%s)\n",
			r, o.restore[i].median(), o.modelRestore[i].median(), ratio(o.restore[i].median(), o.modelRestore[i].median()),
			o.replay[i].median(), o.modelReplay[i].median(), ratio(o.replay[i].median(), o.modelReplay[i].median()))
	}
	fmt.Fprintf(out, "disk layer: %d writes, %.1f MB written, %d syncs, %.1f ms in device calls; "+
		"modelled device time at %.0f MB/s: %.1f ms\n",
		p.sum.primary.Writes, float64(p.sum.primary.WriteBytes)/1e6, p.sum.primary.Syncs,
		ms(p.sum.primary.CallTime), modelDiskBytesPerSec/1e6, ms(modelTime(p.sum.primary.WriteBytes)))
	fmt.Fprintln(out, "span self times (traced phase):")
	printSelfTimes(out, selfTimes(p.spans.spans))
	if err := writeSpans(spansPath, p.spans.spans); err != nil {
		return err
	}
	fmt.Fprintf(out, "spans written to %s\n", spansPath)
	return nil
}

// ratio renders measured/model, or says why there is none.
func ratio(measured, model float64) string {
	if model == 0 {
		return "nothing modelled"
	}
	return fmt.Sprintf("ratio %.4f", measured/model)
}
