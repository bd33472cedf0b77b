package journal

import (
	"encoding/binary"
	"fmt"
	"testing"
)

// benchEvents builds a representative event mix: the create-dominated
// stream the MDS journals during the paper's workloads.
func benchEvents(n int) []*Event {
	evs := make([]*Event, n)
	for i := range evs {
		switch i % 8 {
		case 6:
			evs[i] = &Event{Type: EvSetAttr, Client: "client.0", Ino: uint64(i),
				Mode: 0644, UID: 1000, GID: 1000, Size: 4096, Mtime: int64(i)}
		case 7:
			evs[i] = &Event{Type: EvRename, Client: "client.0", Parent: 1,
				Name: fmt.Sprintf("f%06d", i), NewParent: 2, NewName: fmt.Sprintf("g%06d", i)}
		default:
			evs[i] = &Event{Type: EvCreate, Client: "client.0", Parent: 1,
				Name: fmt.Sprintf("f%06d", i), Ino: uint64(i + 10), Mode: 0644}
		}
		evs[i].Seq = uint64(i)
	}
	return evs
}

// BenchmarkJournalEncode measures the encode hot path (the per-segment
// work of the MDS Stream dispatcher and every client Persist). With the
// exact-size preallocation and the reused payload scratch, a whole image
// costs ~2 allocations total — far under the 1 alloc/event budget the
// seed implementation paid.
func BenchmarkJournalEncode(b *testing.B) {
	evs := benchEvents(1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Encode(evs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkJournalAppendEvent measures the steady-state per-event append
// with a long-lived Encoder, the shape of Journal.Append + dispatch.
func BenchmarkJournalAppendEvent(b *testing.B) {
	evs := benchEvents(256)
	var enc Encoder
	buf := make([]byte, 0, 1<<20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = enc.AppendEvent(buf[:0], evs[i%len(evs)])
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkJournalDecode exercises the replay/recovery read path.
func BenchmarkJournalDecode(b *testing.B) {
	img, err := Encode(benchEvents(1024))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(img); err != nil {
			b.Fatal(err)
		}
	}
}

// TestAppendEventSteadyStateAllocs pins the hot append path: once the
// image buffer and the encoder's scratch have warmed to capacity,
// appending events must not allocate at all. This is the path the MDS
// stream dispatcher and decoupled clients sit on for every update.
func TestAppendEventSteadyStateAllocs(t *testing.T) {
	evs := benchEvents(64)
	var enc Encoder
	// Warm the scratch and the image buffer to full capacity.
	buf := AppendHeader(nil)
	for _, ev := range evs {
		var err error
		if buf, err = enc.AppendEvent(buf, ev); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(100, func() {
		b := AppendHeader(buf[:0])
		for _, ev := range evs {
			var err error
			if b, err = enc.AppendEvent(b, ev); err != nil {
				t.Fatal(err)
			}
		}
	})
	if avg != 0 {
		t.Fatalf("warmed AppendEvent of %d events allocates %.1f times, want 0", len(evs), avg)
	}
}

// TestEncodeAllocBudget pins the allocation regression: encoding must stay
// at or under one allocation per event (it should be ~2 per image).
func TestEncodeAllocBudget(t *testing.T) {
	evs := benchEvents(64)
	avg := testing.AllocsPerRun(50, func() {
		if _, err := Encode(evs); err != nil {
			t.Fatal(err)
		}
	})
	if avg > float64(len(evs)) {
		t.Fatalf("Encode of %d events allocates %.1f times, want <= 1 alloc/event", len(evs), avg)
	}
	// The design goal is much stricter than the headline budget: the
	// image buffer plus the encoder scratch.
	if avg > 4 {
		t.Errorf("Encode of %d events allocates %.1f times, want <= 4 total", len(evs), avg)
	}
}

// TestEncoderMatchesOneShot guards that a reused Encoder emits byte-
// identical output to a fresh one per event: its scratch buffer carries
// nothing from one event into the next.
func TestEncoderMatchesOneShot(t *testing.T) {
	evs := benchEvents(32)
	var enc Encoder
	var reused, oneshot []byte
	var err error
	for _, ev := range evs {
		if reused, err = enc.AppendEvent(reused, ev); err != nil {
			t.Fatal(err)
		}
		var fresh Encoder
		if oneshot, err = fresh.AppendEvent(oneshot, ev); err != nil {
			t.Fatal(err)
		}
	}
	if string(reused) != string(oneshot) {
		t.Fatal("reused Encoder output differs from a fresh Encoder's")
	}
}

// TestRecordSizeExact verifies the preallocation math against the real
// encoder for a spread of field widths.
func TestRecordSizeExact(t *testing.T) {
	cases := []*Event{
		{Type: EvCreate, Parent: 1, Name: "a"},
		{Type: EvCreate, Client: "client.99", Parent: 1 << 40, Name: "file-with-a-long-name", Ino: 1 << 60, Mode: 0777, UID: 1 << 31, GID: 4, Size: 1 << 50, Mtime: -12345},
		{Type: EvRename, Parent: 127, Name: "x", NewParent: 128, NewName: "y"},
		{Type: EvSetAttr, Ino: 300, Mtime: 1 << 42},
		{Type: EvAllocRange, Ino: 1000, Size: 1 << 20},
	}
	var enc Encoder
	for i, ev := range cases {
		b, err := enc.AppendEvent(nil, ev)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if got, want := recordSize(ev), len(b); got != want {
			t.Errorf("case %d: recordSize = %d, encoded %d bytes", i, got, want)
		}
	}
}

func TestUvarintLen(t *testing.T) {
	for _, v := range []uint64{0, 1, 127, 128, 16383, 16384, 1 << 35, 1<<64 - 1} {
		b := binary.AppendUvarint(nil, v)
		if got := uvarintLen(v); got != len(b) {
			t.Errorf("uvarintLen(%d) = %d, want %d", v, got, len(b))
		}
	}
}
