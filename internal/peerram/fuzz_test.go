package peerram

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"testing"

	"repro/internal/replication"
)

// The fuzzed owner's geometry: a small slab keeps every inflate cheap.
const (
	fuzzObjSize = 64
	fuzzObjects = 4
	fuzzSlab    = fuzzObjSize * fuzzObjects
)

// imageFrame and deltaFrame encode replica frame bodies exactly as the
// sender does.
func imageFrame(tb testing.TB, epoch, nextTick, rawLen uint64, slab []byte) []byte {
	tb.Helper()
	body := []byte{replication.FrameReplicaImage}
	body = binary.LittleEndian.AppendUint64(body, epoch)
	body = binary.LittleEndian.AppendUint64(body, nextTick)
	body = binary.LittleEndian.AppendUint64(body, rawLen)
	body, err := deflate(body, slab)
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

func deltaFrame(tb testing.TB, tick uint64, records ...[]byte) []byte {
	tb.Helper()
	var recs []byte
	for _, r := range records {
		recs = binary.LittleEndian.AppendUint32(recs, uint32(len(r)))
		recs = append(recs, r...)
	}
	body := []byte{replication.FrameReplicaDelta}
	body = binary.LittleEndian.AppendUint64(body, tick)
	body = binary.LittleEndian.AppendUint64(body, uint64(len(recs)))
	body, err := deflate(body, recs)
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// frames concatenates bodies as CRC-framed wire bytes.
func frames(tb testing.TB, bodies ...[]byte) []byte {
	tb.Helper()
	var w bytes.Buffer
	for _, b := range bodies {
		if _, err := replication.WriteFrame(&w, nil, b); err != nil {
			tb.Fatal(err)
		}
	}
	return w.Bytes()
}

// feedHolder streams wire bytes into a fresh holder of owner 0 and returns
// the store and the holder's end error once it has consumed them all.
func feedHolder(wire []byte) (*Store, error) {
	store := NewStore()
	hc, sc := net.Pipe()
	h := StartHolder(0, fuzzSlab, store, hc)
	go io.Copy(io.Discard, sc) //nolint:errcheck // drains acks
	sc.Write(wire)             //nolint:errcheck // a holder that rejects a frame closes its end
	sc.Close()                 //nolint:errcheck // the holder reads EOF after the last frame
	<-h.st.Done()
	return store, h.Err()
}

// FuzzHolderFrames feeds arbitrary frames into a Holder, then restores
// from whatever it stored: the image through both ReadRange paths (whole
// slab, and object by object) and every delta record. Nothing may panic,
// and the two image paths must agree.
func FuzzHolderFrames(f *testing.F) {
	slab := make([]byte, fuzzSlab)
	for i := range slab {
		slab[i] = byte(i / 3)
	}
	img := imageFrame(f, 1, 5, fuzzSlab, slab)
	d5 := deltaFrame(f, 5, []byte("range-install"), []byte("batch"))
	d6 := deltaFrame(f, 6, nil)
	f.Add(frames(f, img, d5, d6))
	f.Add(frames(f, img, d6))
	f.Add(frames(f, imageFrame(f, 1, 5, 1<<63, slab)))
	f.Add(frames(f, d5))

	f.Fuzz(func(t *testing.T, wire []byte) {
		store, _ := feedHolder(wire)
		src, err := NewRestoreSource(store, 0)
		if err != nil {
			return
		}
		whole := make([]byte, fuzzSlab)
		if err := src.ReadRange(0, fuzzObjects, whole); err != nil {
			return
		}
		for o := 0; o < fuzzObjects; o++ {
			part := make([]byte, fuzzObjSize)
			if err := src.ReadRange(o, o+1, part); err != nil {
				t.Fatalf("object %d: %v after the whole image inflated", o, err)
			}
			if !bytes.Equal(part, whole[o*fuzzObjSize:(o+1)*fuzzObjSize]) {
				t.Fatalf("object %d differs between the whole-slab and per-range reads", o)
			}
		}
		recs, err := src.Records()
		if err != nil {
			return
		}
		for {
			if _, _, ok, err := recs.Next(); !ok || err != nil {
				return
			}
		}
	})
}

// TestHolderRejectsLyingSizes: a replica frame's inflated size comes off
// the wire. An image that is not the owner's slab size, or a delta claiming
// more than DEFLATE can expand to, ends the link with ErrBadFrame and
// stores nothing — rather than a replica whose restore allocates by the lie
// (an image declaring 1<<63 bytes would panic in inflate).
func TestHolderRejectsLyingSizes(t *testing.T) {
	slab := make([]byte, fuzzSlab)
	img := imageFrame(t, 1, 5, fuzzSlab, slab)
	lying := deltaFrame(t, 5, []byte("x"))
	binary.LittleEndian.PutUint64(lying[9:], maxInflateRatio*uint64(len(lying)-17)+1)
	for name, wire := range map[string][]byte{
		"image-huge":  frames(t, imageFrame(t, 1, 5, 1<<63, slab)),
		"image-short": frames(t, imageFrame(t, 1, 5, fuzzSlab-1, slab)),
		"delta-ratio": frames(t, img, lying),
	} {
		store, err := feedHolder(wire)
		if !errors.Is(err, ErrBadFrame) {
			t.Fatalf("%s: holder ended with %v, want ErrBadFrame", name, err)
		}
		src, err := NewRestoreSource(store, 0)
		if err != nil {
			continue // nothing stored
		}
		if err := src.ReadRange(0, 2, make([]byte, 2*fuzzObjSize)); err != nil {
			t.Fatalf("%s: the image stored before the lie is unreadable: %v", name, err)
		}
		if src.DeltaTicks() != 0 {
			t.Fatalf("%s: the lying delta was stored", name)
		}
	}
}
