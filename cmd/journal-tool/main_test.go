package main

import (
	"encoding/binary"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"testing"

	"cudele/internal/journal"
)

// TestGoldenSession runs the full tool workflow — demo, inspect, dump,
// roundtrip, erase, inspect, dump — and compares the combined stdout
// byte-for-byte against the committed golden transcript. The demo
// journal is fixed, so any change to the binary format, the inspect
// summary, or the dump rendering shows up here.
func TestGoldenSession(t *testing.T) {
	want, err := os.ReadFile("testdata/session.golden")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "demo.journal")

	r, w, err := os.Pipe()
	if err != nil {
		t.Fatalf("pipe: %v", err)
	}
	old := os.Stdout
	os.Stdout = w
	defer func() { os.Stdout = old }()
	done := make(chan string)
	go func() {
		data, _ := io.ReadAll(r)
		done <- string(data)
	}()
	for _, step := range []struct {
		name string
		fn   func() error
	}{
		{"demo", func() error { return demo(path) }},
		{"inspect", func() error { return inspect(path) }},
		{"dump", func() error { return dump(path) }},
		{"roundtrip", func() error { return roundtrip(path) }},
		{"erase", func() error { return erase(path, "2", "3") }},
		{"inspect", func() error { return inspect(path) }},
		{"dump", func() error { return dump(path) }},
	} {
		if err := step.fn(); err != nil {
			os.Stdout = old
			t.Fatalf("%s: %v", step.name, err)
		}
	}
	w.Close()
	got := <-done
	os.Stdout = old
	if got != string(want) {
		t.Errorf("transcript drifted from golden:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestDemoInspectDumpEraseRoundtrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "demo.journal")
	if err := demo(path); err != nil {
		t.Fatalf("demo: %v", err)
	}
	if err := inspect(path); err != nil {
		t.Fatalf("inspect: %v", err)
	}
	if err := dump(path); err != nil {
		t.Fatalf("dump: %v", err)
	}
	if err := roundtrip(path); err != nil {
		t.Fatalf("roundtrip: %v", err)
	}
	if err := erase(path, "1", "2"); err != nil {
		t.Fatalf("erase: %v", err)
	}
	// Erased file still parses.
	if err := inspect(path); err != nil {
		t.Fatalf("inspect after erase: %v", err)
	}
}

func TestEraseBadArgs(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	if err := demo(path); err != nil {
		t.Fatal(err)
	}
	if err := erase(path, "x", "2"); err == nil {
		t.Error("bad from accepted")
	}
	if err := erase(path, "1", "y"); err == nil {
		t.Error("bad to accepted")
	}
}

func TestMissingFile(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "nope")
	for name, fn := range map[string]func(string) error{
		"inspect":   inspect,
		"dump":      dump,
		"roundtrip": roundtrip,
	} {
		if err := fn(missing); err == nil {
			t.Errorf("%s on missing file succeeded", name)
		}
	}
}

func TestCorruptFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad")
	if err := os.WriteFile(path, []byte("not a journal"), 0644); err != nil {
		t.Fatal(err)
	}
	if err := inspect(path); err == nil {
		t.Error("corrupt file inspected")
	}
}

// TestRoundtripRefusesNonMinimalImage: Decode accepts a field written as
// a longer varint than Encode writes, so an image holding one, its CRC
// recomputed, decodes to events that re-encode shorter, and roundtrip
// reports the mismatch.
func TestRoundtripRefusesNonMinimalImage(t *testing.T) {
	ev := &journal.Event{Type: journal.EvCreate, Seq: 1, Client: "client.0", Parent: 1, Name: "f", Ino: 2, Mode: 0644}
	img, err := journal.Encode([]*journal.Event{ev})
	if err != nil {
		t.Fatal(err)
	}
	// One record: a one-byte length, then the payload — the type byte,
	// then Seq's one-byte varint — then the CRC.
	payload := img[journal.MagicLen+1 : len(img)-4]
	long := append([]byte{payload[0], payload[1] | 0x80, 0}, payload[2:]...) // Seq in two bytes
	bad := append(append(img[:journal.MagicLen:journal.MagicLen], byte(len(long))), long...)
	bad = binary.LittleEndian.AppendUint32(bad, crc32.Checksum(long, crc32.MakeTable(crc32.Castagnoli)))
	if events, err := journal.Decode(bad); err != nil || len(events) != 1 || events[0].Seq != 1 {
		t.Fatalf("hand-built image decodes to %v, %v; want the one event", events, err)
	}
	path := filepath.Join(t.TempDir(), "long.journal")
	if err := os.WriteFile(path, bad, 0644); err != nil {
		t.Fatal(err)
	}
	if err := roundtrip(path); err == nil {
		t.Fatal("roundtrip accepted an image that re-encodes to other bytes")
	}
}
