// Command journal-tool inspects and manipulates Cudele journal files,
// mirroring the CephFS journal tool that the Cudele client library is
// built from (paper §IV-B).
//
// Usage:
//
//	journal-tool inspect <file>           summarize a journal
//	journal-tool dump <file>              print every event
//	journal-tool erase <file> <from> <to> splice out events by seq
//	journal-tool roundtrip <file>         decode + re-encode; exit 1 unless the bytes match
//	journal-tool demo <file>              write a small demo journal
package main

import (
	"bytes"
	"fmt"
	"os"
	"strconv"

	"cudele/internal/journal"
)

func usage() {
	fmt.Fprintf(os.Stderr, `usage:
  journal-tool inspect <file>
  journal-tool dump <file>
  journal-tool erase <file> <fromSeq> <toSeq>
  journal-tool roundtrip <file>
  journal-tool demo <file>
`)
	os.Exit(2)
}

func main() {
	if len(os.Args) < 3 {
		usage()
	}
	cmd, path := os.Args[1], os.Args[2]
	var err error
	switch cmd {
	case "inspect":
		err = inspect(path)
	case "dump":
		err = dump(path)
	case "erase":
		if len(os.Args) != 5 {
			usage()
		}
		err = erase(path, os.Args[3], os.Args[4])
	case "roundtrip":
		err = roundtrip(path)
	case "demo":
		err = demo(path)
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "journal-tool: %v\n", err)
		os.Exit(1)
	}
}

func inspect(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	s, err := journal.Inspect(data)
	if err != nil {
		return err
	}
	fmt.Print(s.String())
	return nil
}

func dump(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	out, err := journal.Dump(data)
	if err != nil {
		return err
	}
	fmt.Print(out)
	return nil
}

func erase(path, fromS, toS string) error {
	from, err := strconv.ParseUint(fromS, 10, 64)
	if err != nil {
		return fmt.Errorf("bad from seq %q", fromS)
	}
	to, err := strconv.ParseUint(toS, 10, 64)
	if err != nil {
		return fmt.Errorf("bad to seq %q", toS)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	out, erased, err := journal.Erase(data, from, to)
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, out, 0644); err != nil {
		return err
	}
	fmt.Printf("erased %d event(s)\n", erased)
	return nil
}

func roundtrip(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	events, err := journal.Decode(data)
	if err != nil {
		return err
	}
	again, err := journal.Encode(events)
	if err != nil {
		return err
	}
	fmt.Printf("decoded %d event(s), re-encoded %d bytes (original %d)\n",
		len(events), len(again), len(data))
	if !bytes.Equal(again, data) {
		return fmt.Errorf("%s: the re-encoded image differs from the file", path)
	}
	return nil
}

func demo(path string) error {
	j := journal.New(1024)
	j.Append(&journal.Event{Type: journal.EvMkdir, Client: "client.0", Parent: 1, Name: "job", Ino: 1 << 41, Mode: 0755})
	for i := 0; i < 5; i++ {
		j.Append(&journal.Event{Type: journal.EvCreate, Client: "client.0",
			Parent: 1 << 41, Name: fmt.Sprintf("ckpt.%d", i), Ino: uint64(1<<41 + 1 + i), Mode: 0644})
	}
	j.Append(&journal.Event{Type: journal.EvAllocRange, Client: "client.0", Ino: 1 << 41, Size: 100})
	data, err := j.Export()
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0644); err != nil {
		return err
	}
	fmt.Printf("wrote %d event(s), %d bytes\n", j.Len(), len(data))
	return nil
}
