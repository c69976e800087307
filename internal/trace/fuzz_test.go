package trace

import (
	"bytes"
	"testing"

	"dircoh/internal/tango"
)

// FuzzRead feeds arbitrary bytes to the trace parser: it must never panic
// and must either fail with ErrFormat or return a structurally valid
// workload, with a non-negative SharedBytes, that re-serializes.
func FuzzRead(f *testing.F) {
	// Seed with a valid trace and a few corruptions.
	var b tango.Builder
	b.Read(0)
	b.Write(16)
	b.Barrier(32)
	wl := &tango.Workload{Name: "seed", SharedBytes: 48, Streams: [][]tango.Ref{b.Refs(), nil}}
	var buf bytes.Buffer
	if err := Write(&buf, wl); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte("DCTR"))
	corrupted := append([]byte(nil), valid...)
	corrupted[len(corrupted)/2] ^= 0xFF
	f.Add(corrupted)

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		if got.SharedBytes < 0 {
			t.Fatalf("accepted negative SharedBytes %d", got.SharedBytes)
		}
		// Whatever parsed must roundtrip.
		var out bytes.Buffer
		if err := Write(&out, got); err != nil {
			t.Fatalf("re-serialize failed: %v", err)
		}
		again, err := Read(&out)
		if err != nil {
			t.Fatalf("re-parse failed: %v", err)
		}
		if again.Name != got.Name || len(again.Streams) != len(got.Streams) {
			t.Fatal("roundtrip mismatch")
		}
	})
}
