package peerram

import (
	"bytes"
	"compress/flate"
	"fmt"
	"io"
	"sync"
)

// Replicas live in RAM for the whole run, so they are stored compressed:
// the RAM-vs-recovery-time trade the paper's disk numbers frame is only
// worth taking if a replica costs a fraction of the slab it protects.
// flate at BestSpeed keeps the tick-path overhead to a single pass over
// bytes that are mostly cold (checkpoint images of sparse worlds compress
// 50–100×); decompression happens once, on the recovery path, where it is
// orders of magnitude faster than the throttled disk read it replaces.
//
// A flate.Writer carries ~1.3 MB of match tables and a reader a 32 KB
// window, and deflate runs once per delta bundle per link per tick, so both
// are pooled and reset rather than built per call.

var writers = sync.Pool{New: func() any {
	zw, _ := flate.NewWriter(io.Discard, flate.BestSpeed) // errors only on a bad level
	return zw
}}

// deflate appends the flate-compressed form of src to dst and returns the
// extended slice.
func deflate(dst, src []byte) ([]byte, error) {
	zw := writers.Get().(*flate.Writer)
	out := bytes.NewBuffer(dst)
	zw.Reset(out)
	_, err := zw.Write(src)
	if err == nil {
		err = zw.Close()
	}
	zw.Reset(io.Discard) // drop the pooled writer's hold on out
	writers.Put(zw)
	if err != nil {
		return nil, fmt.Errorf("peerram: compress: %w", err)
	}
	return out.Bytes(), nil
}

// inflater is a pooled flate reader together with the bytes.Reader it
// decompresses from.
type inflater struct {
	src bytes.Reader
	zr  io.ReadCloser
}

var readers = sync.Pool{New: func() any {
	f := &inflater{}
	f.zr = flate.NewReader(&f.src)
	return f
}}

// inflateInto decompresses comp into dst, which must be exactly the
// inflated size: a short stream or a trailing byte is a corrupt replica.
func inflateInto(dst, comp []byte) error {
	f := readers.Get().(*inflater)
	defer readers.Put(f)
	defer f.src.Reset(nil) // drop the pooled reader's hold on comp
	f.src.Reset(comp)
	if err := f.zr.(flate.Resetter).Reset(&f.src, nil); err != nil {
		return fmt.Errorf("peerram: decompress: %w", err)
	}
	if _, err := io.ReadFull(f.zr, dst); err != nil {
		return fmt.Errorf("peerram: decompress: %w", err)
	}
	// A trailing byte means the frame lied about the size: corrupt replica.
	var one [1]byte
	if n, _ := f.zr.Read(one[:]); n != 0 {
		return fmt.Errorf("peerram: decompress: replica longer than declared %d bytes", len(dst))
	}
	return nil
}

// inflate decompresses comp, which must inflate to exactly rawLen bytes,
// into a fresh buffer.
func inflate(comp []byte, rawLen int) ([]byte, error) {
	raw := make([]byte, rawLen)
	if err := inflateInto(raw, comp); err != nil {
		return nil, err
	}
	return raw, nil
}
