package journal

import (
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func mkCreate(parent uint64, name string) *Event {
	return &Event{Type: EvCreate, Client: "c0", Parent: parent, Name: name, Mode: 0644}
}

func TestEventValidate(t *testing.T) {
	cases := []struct {
		ev *Event
		ok bool
	}{
		{&Event{Type: EvCreate, Name: "f"}, true},
		{&Event{Type: EvCreate}, false},
		{&Event{Type: EvMkdir, Name: "d"}, true},
		{&Event{Type: EvUnlink}, false},
		{&Event{Type: EvRename, Name: "a", NewName: "b"}, true},
		{&Event{Type: EvRename, Name: "a"}, false},
		{&Event{Type: EvSetAttr, Ino: 5}, true},
		{&Event{Type: EvSetAttr}, false},
		{&Event{Type: EvAllocRange, Ino: 100, Size: 10}, true},
		{&Event{Type: EvAllocRange, Ino: 100}, false},
		{&Event{Type: EvInvalid, Name: "x"}, false},
		{&Event{Type: evMax, Name: "x"}, false},
	}
	for i, c := range cases {
		err := c.ev.Validate()
		if (err == nil) != c.ok {
			t.Errorf("case %d (%v): err = %v, ok = %v", i, c.ev.Type, err, c.ok)
		}
		if err != nil && !errors.Is(err, ErrBadEvent) {
			t.Errorf("case %d: error not ErrBadEvent: %v", i, err)
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	events := []*Event{
		{Type: EvCreate, Seq: 0, Client: "client.a", Parent: 1, Name: "file0", Ino: 100, Mode: 0644, UID: 1000, GID: 1000},
		{Type: EvMkdir, Seq: 1, Client: "client.a", Parent: 1, Name: "dir", Ino: 101, Mode: 0755},
		{Type: EvRename, Seq: 2, Client: "client.b", Parent: 1, Name: "file0", NewParent: 101, NewName: "moved"},
		{Type: EvSetAttr, Seq: 3, Client: "client.b", Ino: 100, Mode: 0600, Size: 4096, Mtime: -12345},
		{Type: EvUnlink, Seq: 4, Client: "client.a", Parent: 101, Name: "moved"},
		{Type: EvRmdir, Seq: 5, Client: "client.a", Parent: 1, Name: "dir"},
		{Type: EvAllocRange, Seq: 6, Client: "client.c", Ino: 1 << 40, Size: 100},
	}
	data, err := Encode(events)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(got) != len(events) {
		t.Fatalf("decoded %d events, want %d", len(got), len(events))
	}
	for i := range events {
		if !reflect.DeepEqual(got[i], events[i]) {
			t.Errorf("event %d: got %+v, want %+v", i, got[i], events[i])
		}
	}
}

func TestDecodeBadMagic(t *testing.T) {
	if _, err := Decode([]byte("NOTAJRNL")); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
	if _, err := Decode([]byte("x")); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("short buf err = %v, want ErrBadMagic", err)
	}
}

func TestDecodeTruncated(t *testing.T) {
	data, _ := Encode([]*Event{mkCreate(1, "f")})
	for cut := MagicLen + 1; cut < len(data); cut++ {
		if _, err := Decode(data[:cut]); err == nil {
			t.Fatalf("truncation at %d not detected", cut)
		}
	}
}

func TestDecodeCorruption(t *testing.T) {
	data, _ := Encode([]*Event{mkCreate(1, "somefilename")})
	// Flip one payload byte; the CRC must catch it.
	corrupt := append([]byte(nil), data...)
	corrupt[MagicLen+5] ^= 0xff
	_, err := Decode(corrupt)
	if err == nil {
		t.Fatal("corruption not detected")
	}
}

func TestZigzag(t *testing.T) {
	for _, v := range []int64{0, 1, -1, 42, -42, 1 << 62, -(1 << 62)} {
		if got := unzigzag(zigzag(v)); got != v {
			t.Errorf("zigzag round trip %d -> %d", v, got)
		}
	}
}

// Property: encode/decode is the identity on arbitrary valid events.
func TestCodecQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	gen := func() *Event {
		types := []EventType{EvCreate, EvMkdir, EvUnlink, EvRmdir, EvRename, EvSetAttr, EvAllocRange}
		ev := &Event{
			Type:      types[rng.Intn(len(types))],
			Seq:       rng.Uint64(),
			Client:    "client." + string(rune('a'+rng.Intn(26))),
			Ino:       rng.Uint64(),
			Parent:    rng.Uint64(),
			Name:      randName(rng),
			NewParent: rng.Uint64(),
			NewName:   randName(rng),
			Mode:      rng.Uint32(),
			UID:       rng.Uint32(),
			GID:       rng.Uint32(),
			Size:      rng.Uint64(),
			Mtime:     rng.Int63() - (1 << 62),
		}
		// Satisfy per-type validity.
		if ev.Type == EvSetAttr && ev.Ino == 0 {
			ev.Ino = 1
		}
		if ev.Type == EvAllocRange && ev.Size == 0 {
			ev.Size = 1
		}
		return ev
	}
	f := func(n uint8) bool {
		events := make([]*Event, int(n)%50+1)
		for i := range events {
			events[i] = gen()
		}
		data, err := Encode(events)
		if err != nil {
			return false
		}
		got, err := Decode(data)
		if err != nil || len(got) != len(events) {
			return false
		}
		for i := range events {
			if !reflect.DeepEqual(got[i], events[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func randName(rng *rand.Rand) string {
	n := rng.Intn(20) + 1
	var b strings.Builder
	for i := 0; i < n; i++ {
		b.WriteByte(byte('a' + rng.Intn(26)))
	}
	return b.String()
}

func TestJournalAppendSeals(t *testing.T) {
	j := New(3)
	var sealed []*Segment
	for i := 0; i < 7; i++ {
		s, err := j.Append(mkCreate(1, "f"))
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		if s != nil {
			sealed = append(sealed, s)
		}
	}
	if len(sealed) != 2 {
		t.Fatalf("sealed %d segments, want 2", len(sealed))
	}
	if j.Len() != 7 {
		t.Fatalf("len = %d, want 7", j.Len())
	}
	if s := j.Seal(); s == nil || len(s.Events) != 1 {
		t.Fatalf("final seal = %+v", s)
	}
	if j.Seal() != nil {
		t.Fatal("sealing empty current segment returned non-nil")
	}
}

func TestJournalSequenceNumbers(t *testing.T) {
	j := New(10)
	for i := 0; i < 5; i++ {
		j.Append(mkCreate(1, "f"))
	}
	for i, ev := range j.Events() {
		if ev.Seq != uint64(i) {
			t.Fatalf("event %d seq = %d", i, ev.Seq)
		}
	}
	if j.nextSeq != 5 {
		t.Fatalf("next seq = %d", j.nextSeq)
	}
}

func TestJournalTrim(t *testing.T) {
	j := New(2)
	for i := 0; i < 6; i++ {
		j.Append(mkCreate(1, "f"))
	}
	if len(j.Segments()) != 3 {
		t.Fatalf("segments = %d", len(j.Segments()))
	}
}

func TestJournalReset(t *testing.T) {
	j := New(2)
	for i := 0; i < 5; i++ {
		j.Append(mkCreate(1, "f"))
	}
	j.Reset()
	if j.Len() != 0 || j.nextSeq != 0 {
		t.Fatalf("reset journal: len=%d seq=%d", j.Len(), j.nextSeq)
	}
	s, _ := j.Append(mkCreate(1, "g"))
	_ = s
	if j.Events()[0].Seq != 0 {
		t.Fatal("seq did not restart after reset")
	}
}

func TestJournalExportImport(t *testing.T) {
	j := New(4)
	names := []string{"a", "b", "c", "d", "e"}
	for _, n := range names {
		j.Append(mkCreate(1, n))
	}
	data, err := j.Export()
	if err != nil {
		t.Fatalf("export: %v", err)
	}
	j2, err := Import(data, 4)
	if err != nil {
		t.Fatalf("import: %v", err)
	}
	if j2.Len() != len(names) {
		t.Fatalf("imported %d events", j2.Len())
	}
	for i, ev := range j2.Events() {
		if ev.Name != names[i] {
			t.Fatalf("event %d name = %q", i, ev.Name)
		}
	}
}

func TestInspect(t *testing.T) {
	j := New(10)
	j.Append(mkCreate(1, "a"))
	j.Append(mkCreate(1, "b"))
	j.Append(&Event{Type: EvMkdir, Client: "c1", Parent: 1, Name: "d"})
	data, _ := j.Export()
	s, err := Inspect(data)
	if err != nil {
		t.Fatalf("inspect: %v", err)
	}
	if s.Events != 3 || s.ByType[EvCreate] != 2 || s.ByType[EvMkdir] != 1 {
		t.Fatalf("summary = %+v", s)
	}
	if s.Clients["c0"] != 2 || s.Clients["c1"] != 1 {
		t.Fatalf("clients = %+v", s.Clients)
	}
	if s.MinSeq != 0 || s.MaxSeq != 2 {
		t.Fatalf("seq range = %d..%d", s.MinSeq, s.MaxSeq)
	}
	out := s.String()
	for _, want := range []string{"events: 3", "create", "mkdir", "client c0"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary output missing %q:\n%s", want, out)
		}
	}
}

func TestErase(t *testing.T) {
	j := New(10)
	for _, n := range []string{"a", "b", "c", "d"} {
		j.Append(mkCreate(1, n))
	}
	data, _ := j.Export()
	out, erased, err := Erase(data, 1, 2)
	if err != nil || erased != 2 {
		t.Fatalf("erase: %d,%v", erased, err)
	}
	events, _ := Decode(out)
	if len(events) != 2 || events[0].Name != "a" || events[1].Name != "d" {
		t.Fatalf("after erase: %v", events)
	}
}

type countTarget struct {
	applied []*Event
	failAt  int
}

func (c *countTarget) ApplyEvent(ev *Event) error {
	if c.failAt > 0 && len(c.applied) == c.failAt {
		return errors.New("boom")
	}
	c.applied = append(c.applied, ev)
	return nil
}

func TestReplayAndApply(t *testing.T) {
	j := New(10)
	for _, n := range []string{"a", "b", "c"} {
		j.Append(mkCreate(1, n))
	}
	tgt := &countTarget{}
	n, err := Replay(j.Events(), tgt)
	if err != nil || n != 3 {
		t.Fatalf("replay = %d,%v", n, err)
	}
	data, _ := j.Export()
	events, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	n, err = Replay(events, &countTarget{})
	if err != nil || n != 3 {
		t.Fatalf("replay of the exported image = %d,%v", n, err)
	}
}

func TestReplayStopsOnError(t *testing.T) {
	j := New(10)
	for _, n := range []string{"a", "b", "c"} {
		j.Append(mkCreate(1, n))
	}
	tgt := &countTarget{failAt: 1}
	n, err := Replay(j.Events(), tgt)
	if err == nil || n != 1 {
		t.Fatalf("replay = %d,%v; want 1 applied and error", n, err)
	}
}

func TestDump(t *testing.T) {
	j := New(10)
	j.Append(mkCreate(1, "hello"))
	data, _ := j.Export()
	out, err := Dump(data)
	if err != nil || !strings.Contains(out, `"hello"`) {
		t.Fatalf("dump = %q, %v", out, err)
	}
}

func TestSegmentEncodedLen(t *testing.T) {
	j := New(2)
	j.Append(mkCreate(1, "a"))
	s, _ := j.Append(mkCreate(1, "b"))
	if s == nil {
		t.Fatal("no sealed segment")
	}
	if b, err := Encode(s.Events); err != nil || len(s.Events) != 2 || len(b) <= MagicLen {
		t.Fatalf("sealed segment of %d events encodes to %d bytes, %v", len(s.Events), len(b), err)
	}
}

func TestAppendEventRejectsInvalid(t *testing.T) {
	var enc Encoder
	_, err := enc.AppendEvent(nil, &Event{Type: EvCreate})
	if err == nil {
		t.Fatal("invalid event encoded")
	}
	j := New(2)
	if _, err := j.Append(&Event{Type: EvCreate}); err == nil {
		t.Fatal("journal accepted invalid event")
	}
}
