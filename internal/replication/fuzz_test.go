package replication

import (
	"bytes"
	"testing"
)

// fuzzSnapBytes is the snapshot size the fuzzed bootstrap expects.
const fuzzSnapBytes = 600

// encodedStream is a session's worth of frames as this package writes
// them: handshake, resume, a chunked bootstrap snapshot, ticks and acks.
func encodedStream(tb testing.TB) []byte {
	tb.Helper()
	var w bytes.Buffer
	h := hello{objects: 3, objSize: 200, cellSize: 4}
	snap := make([]byte, fuzzSnapBytes)
	for i := range snap {
		snap[i] = byte(i * 7)
	}
	for _, body := range [][]byte{
		encodeHello(ftHello, h),
		encodeHello(ftWelcome, h),
		u64Frame(ftResume, 0),
	} {
		if _, err := writeFrame(&w, nil, body); err != nil {
			tb.Fatal(err)
		}
	}
	if _, err := sendSnapshot(&w, nil, 7, snap); err != nil {
		tb.Fatal(err)
	}
	for _, body := range [][]byte{
		tickFrame(nil, 7, []byte{1, 2, 3, 4}),
		u64Frame(ftAck, 7),
		u64Frame(ftCut, 8),
	} {
		if _, err := writeFrame(&w, nil, body); err != nil {
			tb.Fatal(err)
		}
	}
	return w.Bytes()
}

// FuzzReadFrame feeds arbitrary bytes to every decoder on the replication
// wire: the frame reader, the handshake and u64 frame decoders, and the
// bootstrap snapshot receiver. None may panic; each either decodes or
// returns an error.
func FuzzReadFrame(f *testing.F) {
	stream := encodedStream(f)
	f.Add(stream)
	f.Add(stream[:len(stream)/2])
	f.Add(encodeHello(ftHello, hello{objects: 1, objSize: 512, cellSize: 4}))
	f.Add(u64Frame(ftAck, 1))
	var snapOnly bytes.Buffer
	if _, err := sendSnapshot(&snapOnly, nil, 3, make([]byte, fuzzSnapBytes)); err != nil {
		f.Fatal(err)
	}
	f.Add(snapOnly.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		// The raw bytes as a body, and as a stream of frames.
		decodeHello(ftHello, data) //nolint:errcheck // must not panic
		decodeU64(ftAck, data)     //nolint:errcheck // must not panic
		r := bytes.NewReader(data)
		var buf []byte
		for {
			body, nbuf, err := readFrame(r, buf)
			if err != nil {
				break
			}
			buf = nbuf
			if len(body) == 0 {
				t.Fatal("readFrame returned an empty body")
			}
			decodeHello(ftWelcome, body) //nolint:errcheck // must not panic
			decodeU64(ftResume, body)    //nolint:errcheck // must not panic
		}
		_, snap, _, err := recvSnapshot(bytes.NewReader(data), nil, fuzzSnapBytes)
		if err == nil && len(snap) != fuzzSnapBytes {
			t.Fatalf("accepted a %d-byte snapshot, want %d", len(snap), fuzzSnapBytes)
		}
	})
}
