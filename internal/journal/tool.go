package journal

import (
	"fmt"
	"sort"
	"strings"
)

// This file implements the operations of the CephFS journal tool that
// Cudele's client library is based on (paper §IV-B): inspect, erase and
// dump.

// Summary describes an encoded journal, as printed by "journal-tool
// inspect".
type Summary struct {
	Events  int
	ByType  map[EventType]int
	Clients map[string]int
	MinSeq  uint64
	MaxSeq  uint64
	Bytes   int
}

// Inspect decodes data and summarizes it.
func Inspect(data []byte) (*Summary, error) {
	events, err := Decode(data)
	if err != nil {
		return nil, err
	}
	s := &Summary{
		ByType:  make(map[EventType]int),
		Clients: make(map[string]int),
		Bytes:   len(data),
	}
	for i, ev := range events {
		s.Events++
		s.ByType[ev.Type]++
		s.Clients[ev.Client]++
		if i == 0 || ev.Seq < s.MinSeq {
			s.MinSeq = ev.Seq
		}
		if ev.Seq > s.MaxSeq {
			s.MaxSeq = ev.Seq
		}
	}
	return s, nil
}

// String renders the summary in journal-tool style.
func (s *Summary) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "events: %d (seq %d..%d), %d bytes\n", s.Events, s.MinSeq, s.MaxSeq, s.Bytes)
	types := make([]EventType, 0, len(s.ByType))
	for t := range s.ByType {
		types = append(types, t)
	}
	sort.Slice(types, func(i, j int) bool { return types[i] < types[j] })
	for _, t := range types {
		fmt.Fprintf(&b, "  %-8s %d\n", t, s.ByType[t])
	}
	clients := make([]string, 0, len(s.Clients))
	for c := range s.Clients {
		clients = append(clients, c)
	}
	sort.Strings(clients)
	for _, c := range clients {
		fmt.Fprintf(&b, "  client %-12s %d\n", c, s.Clients[c])
	}
	return b.String()
}

// Erase removes events with from <= Seq <= to from the encoded journal and
// returns the re-encoded image, like "journal-tool event splice".
func Erase(data []byte, from, to uint64) ([]byte, int, error) {
	events, err := Decode(data)
	if err != nil {
		return nil, 0, err
	}
	kept := events[:0]
	erased := 0
	for _, ev := range events {
		if ev.Seq >= from && ev.Seq <= to {
			erased++
			continue
		}
		kept = append(kept, ev)
	}
	out, err := Encode(kept)
	if err != nil {
		return nil, 0, err
	}
	return out, erased, nil
}

// Dump renders every event line by line ("journal-tool event get list").
func Dump(data []byte) (string, error) {
	events, err := Decode(data)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	for _, ev := range events {
		b.WriteString(ev.String())
		b.WriteByte('\n')
	}
	return b.String(), nil
}
