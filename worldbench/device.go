package main

import (
	"sync/atomic"
	"time"

	"repro/internal/disk"
)

// modelDiskBytesPerSec is the paper's 60 MB/s recovery disk at quick scale
// (bandwidth divided by ten, like the state): the rate the modelled device
// time of the disk layer is priced at.
const modelDiskBytesPerSec = 6e6

// ioCounts is a snapshot of the counting devices' totals.
type ioCounts struct {
	Reads, Writes, Syncs  int64
	ReadBytes, WriteBytes int64
	CallTime              time.Duration // wall spent inside device calls
}

// sub returns the counts accumulated since an earlier snapshot.
func (c ioCounts) sub(old ioCounts) ioCounts {
	return ioCounts{
		Reads: c.Reads - old.Reads, Writes: c.Writes - old.Writes, Syncs: c.Syncs - old.Syncs,
		ReadBytes: c.ReadBytes - old.ReadBytes, WriteBytes: c.WriteBytes - old.WriteBytes,
		CallTime: c.CallTime - old.CallTime,
	}
}

// modelTime prices bytes at the paper's quick-scale disk bandwidth.
func modelTime(bytes int64) time.Duration {
	return time.Duration(float64(bytes) / modelDiskBytesPerSec * float64(time.Second))
}

// deviceCounter opens counting backup devices for a set of engines and
// totals their traffic. It never sleeps: the disk layer is reported as
// counts and measured call time, with device time modelled apart.
type deviceCounter struct {
	reads, writes, syncs  atomic.Int64
	readBytes, writeBytes atomic.Int64
	callNanos             atomic.Int64
}

// open is a cluster.Options.DeviceFactory / engine.Options.DeviceFactory.
func (dc *deviceCounter) open(path string) (disk.Device, error) {
	f, err := disk.OpenFile(path)
	if err != nil {
		return nil, err
	}
	return &countingDevice{inner: f, dc: dc}, nil
}

// snapshot returns the totals so far.
func (dc *deviceCounter) snapshot() ioCounts {
	return ioCounts{
		Reads: dc.reads.Load(), Writes: dc.writes.Load(), Syncs: dc.syncs.Load(),
		ReadBytes: dc.readBytes.Load(), WriteBytes: dc.writeBytes.Load(),
		CallTime: time.Duration(dc.callNanos.Load()),
	}
}

// countingDevice forwards to a file device, counting and timing each call.
// It keeps the file's vectored fast paths, so the engine issues the same
// system calls it would without the wrapper.
type countingDevice struct {
	inner disk.Device
	dc    *deviceCounter
}

func (d *countingDevice) done(start time.Time) {
	d.dc.callNanos.Add(int64(time.Since(start)))
}

func (d *countingDevice) ReadAt(p []byte, off int64) (int, error) {
	defer d.done(time.Now())
	n, err := d.inner.ReadAt(p, off)
	d.dc.reads.Add(1)
	d.dc.readBytes.Add(int64(n))
	return n, err
}

func (d *countingDevice) ReadVAt(bufs [][]byte, off int64) (int, error) {
	defer d.done(time.Now())
	n, err := disk.ReadVAt(d.inner, bufs, off)
	d.dc.reads.Add(1)
	d.dc.readBytes.Add(int64(n))
	return n, err
}

func (d *countingDevice) WriteAt(p []byte, off int64) (int, error) {
	defer d.done(time.Now())
	n, err := d.inner.WriteAt(p, off)
	d.dc.writes.Add(1)
	d.dc.writeBytes.Add(int64(n))
	return n, err
}

func (d *countingDevice) WriteVAt(bufs [][]byte, off int64) (int, error) {
	defer d.done(time.Now())
	n, err := disk.WriteVAt(d.inner, bufs, off)
	d.dc.writes.Add(1)
	d.dc.writeBytes.Add(int64(n))
	return n, err
}

func (d *countingDevice) Sync() error {
	defer d.done(time.Now())
	d.dc.syncs.Add(1)
	return d.inner.Sync()
}

func (d *countingDevice) Close() error { return d.inner.Close() }
