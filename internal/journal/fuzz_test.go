package journal

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzDecode guards the codec against truncation, CRC, and bounds
// regressions: Decode must never panic on arbitrary input, and any image
// it accepts must round-trip through Encode/Decode to the same events.
func FuzzDecode(f *testing.F) {
	// Seed corpus from the real encoder: an empty image, a typical
	// create-heavy stream, and every event type.
	empty, err := Encode(nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(empty)
	full, err := Encode([]*Event{
		{Type: EvCreate, Seq: 0, Client: "client.0", Parent: 1, Name: "f0", Ino: 10, Mode: 0644},
		{Type: EvMkdir, Seq: 1, Client: "client.0", Parent: 1, Name: "d", Ino: 11, Mode: 0755},
		{Type: EvUnlink, Seq: 2, Client: "client.1", Parent: 1, Name: "f0"},
		{Type: EvRmdir, Seq: 3, Client: "client.1", Parent: 1, Name: "d"},
		{Type: EvRename, Seq: 4, Client: "client.0", Parent: 1, Name: "a", NewParent: 2, NewName: "b"},
		{Type: EvSetAttr, Seq: 5, Client: "client.0", Ino: 10, Mode: 0600, UID: 7, GID: 8, Size: 99, Mtime: -3},
		{Type: EvAllocRange, Seq: 6, Client: "client.2", Ino: 1 << 33, Size: 100000},
		{Type: EvExport, Seq: 7, Name: "/spec", Ino: 12, Parent: 0, NewParent: 1},
		{Type: EvUndo, Seq: 8, Client: "client.0", Parent: 1, Name: "f0", Ino: 10, Mode: uint32(EvCreate), Size: 0},
		{Type: EvUndo, Seq: 9, Client: "client.1", Parent: 1, Name: "g", Ino: 13, Mode: uint32(EvUnlink), Size: 2, UID: 7, GID: 8, Mtime: 42},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(full)
	// Mutated seeds: truncations, a flipped CRC byte, bad magic.
	f.Add(full[:len(full)-1])
	f.Add(full[:MagicLen+1])
	corrupt := append([]byte(nil), full...)
	corrupt[len(corrupt)-1] ^= 0xff
	f.Add(corrupt)
	f.Add([]byte("CUDELEJ\x02"))
	f.Add([]byte{})
	// Torn-write shapes, as the fault injector produces them: a strict
	// prefix cut at every byte of the first record, a half image, and a
	// good image with a partial extra record appended (a torn append).
	for cut := MagicLen; cut < len(empty)+8 && cut < len(full); cut++ {
		f.Add(full[:cut])
	}
	f.Add(full[:len(full)/2])
	torn := append(append([]byte(nil), full...), full[MagicLen:MagicLen+6]...)
	f.Add(torn)

	f.Fuzz(func(t *testing.T, data []byte) {
		events, err := Decode(data)
		if err != nil {
			return // rejected input; only panics are bugs here
		}
		img, err := Encode(events)
		if err != nil {
			t.Fatalf("accepted events fail to re-encode: %v", err)
		}
		again, err := Decode(img)
		if err != nil {
			t.Fatalf("re-encoded image fails to decode: %v", err)
		}
		if len(again) != len(events) {
			t.Fatalf("round trip changed event count: %d -> %d", len(events), len(again))
		}
		for i := range events {
			if !reflect.DeepEqual(events[i], again[i]) {
				t.Fatalf("round trip changed event %d: %+v -> %+v", i, events[i], again[i])
			}
		}
	})
}

// FuzzCursorExport guards the Global Persist layout: re-encoding a
// journal through Cursor batches of any size must produce exactly the
// bytes of a whole-journal Export, since FetchGlobalJournal decodes the
// head + tail chunk concatenation as one image.
func FuzzCursorExport(f *testing.F) {
	full, err := Encode([]*Event{
		{Type: EvCreate, Seq: 0, Client: "client.0", Parent: 1, Name: "f0", Ino: 10, Mode: 0644},
		{Type: EvMkdir, Seq: 1, Client: "client.0", Parent: 1, Name: "d", Ino: 11, Mode: 0755},
		{Type: EvRename, Seq: 2, Client: "client.0", Parent: 1, Name: "a", NewParent: 2, NewName: "b"},
		{Type: EvSetAttr, Seq: 3, Client: "client.0", Ino: 10, Mode: 0600, Size: 99, Mtime: -3},
	})
	if err != nil {
		f.Fatal(err)
	}
	empty, err := Encode(nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(full, 1)
	f.Add(full, 3)
	f.Add(full, 100)
	f.Add(empty, 1)

	f.Fuzz(func(t *testing.T, data []byte, chunk int) {
		events, err := Decode(data)
		if err != nil {
			return
		}
		if chunk <= 0 {
			chunk = -chunk + 1
		}
		j := New(4)
		for _, ev := range events {
			if _, err := j.Append(ev); err != nil {
				t.Fatalf("decoded event rejected by Append: %v", err)
			}
		}
		want, err := j.Export()
		if err != nil {
			t.Fatalf("export: %v", err)
		}
		var enc Encoder
		got := AppendHeader(nil)
		cur := j.Cursor()
		for {
			evs := cur.Next(chunk)
			if evs == nil {
				break
			}
			for _, ev := range evs {
				if got, err = enc.AppendEvent(got, ev); err != nil {
					t.Fatalf("append event: %v", err)
				}
			}
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("cursor re-encode (chunk=%d) differs from Export: %d vs %d bytes",
				chunk, len(got), len(want))
		}
		// The persist writer's own primitive: runs exported chunk by chunk,
		// header on the first, concatenate to the same image.
		var runs []byte
		ec := j.InlineCursor()
		for first := true; first || ec.Remaining() > 0; first = false {
			part, err := ec.Export(chunk, first)
			if err != nil {
				t.Fatalf("export run: %v", err)
			}
			runs = append(runs, part...)
		}
		if !bytes.Equal(runs, got) {
			t.Fatalf("chunked Cursor.Export (chunk=%d) differs from the re-encode: %d vs %d bytes",
				chunk, len(runs), len(got))
		}
	})
}
