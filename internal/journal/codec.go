package journal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/bits"
)

// Binary layout.
//
// Journal file = header, then records back to back:
//
//	header:  magic "CUDELEJ\x01" (8 bytes)
//	record:  uvarint payloadLen | payload | crc32c(payload) (4 bytes LE)
//	payload: type (1) | uvarint fields in fixed order | strings as
//	         uvarint-len + bytes
//
// Integers use unsigned varints; Mtime is zig-zag encoded. The format is
// self-delimiting, so segments are just contiguous runs of records.
const (
	magic      = "CUDELEJ\x01"
	MagicLen   = len(magic)
	Version    = 1
	maxStrLen  = 1 << 16
	maxPayload = 1 << 20
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func putString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// uvarintLen returns the encoded size of v in bytes.
func uvarintLen(v uint64) int {
	return (bits.Len64(v|1) + 6) / 7
}

// payloadSize returns the exact encoded payload length of ev.
func payloadSize(ev *Event) int {
	return 1 +
		uvarintLen(ev.Seq) +
		uvarintLen(uint64(len(ev.Client))) + len(ev.Client) +
		uvarintLen(ev.Ino) +
		uvarintLen(ev.Parent) +
		uvarintLen(uint64(len(ev.Name))) + len(ev.Name) +
		uvarintLen(ev.NewParent) +
		uvarintLen(uint64(len(ev.NewName))) + len(ev.NewName) +
		uvarintLen(uint64(ev.Mode)) +
		uvarintLen(uint64(ev.UID)) +
		uvarintLen(uint64(ev.GID)) +
		uvarintLen(ev.Size) +
		uvarintLen(zigzag(ev.Mtime))
}

// recordSize returns the exact encoded record length of ev (length
// prefix + payload + CRC).
func recordSize(ev *Event) int {
	n := payloadSize(ev)
	return uvarintLen(uint64(n)) + n + 4
}

// Encoder encodes journal records while amortizing the payload staging
// buffer across events. The zero value is ready to use. An Encoder is not
// safe for concurrent use; long-lived producers (the MDS stream
// dispatcher, a decoupled client's journal) keep one per owner so the hot
// append path stops allocating per event.
type Encoder struct {
	scratch []byte
}

// AppendEvent encodes ev as one record and appends it to b, staging the
// payload in the encoder's reusable scratch buffer.
func (e *Encoder) AppendEvent(b []byte, ev *Event) ([]byte, error) {
	if err := ev.Validate(); err != nil {
		return b, err
	}
	payload := e.scratch[:0]
	payload = append(payload, byte(ev.Type))
	payload = binary.AppendUvarint(payload, ev.Seq)
	payload = putString(payload, ev.Client)
	payload = binary.AppendUvarint(payload, ev.Ino)
	payload = binary.AppendUvarint(payload, ev.Parent)
	payload = putString(payload, ev.Name)
	payload = binary.AppendUvarint(payload, ev.NewParent)
	payload = putString(payload, ev.NewName)
	payload = binary.AppendUvarint(payload, uint64(ev.Mode))
	payload = binary.AppendUvarint(payload, uint64(ev.UID))
	payload = binary.AppendUvarint(payload, uint64(ev.GID))
	payload = binary.AppendUvarint(payload, ev.Size)
	payload = binary.AppendUvarint(payload, zigzag(ev.Mtime))
	e.scratch = payload

	b = binary.AppendUvarint(b, uint64(len(payload)))
	b = append(b, payload...)
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.Checksum(payload, castagnoli))
	return append(b, crc[:]...), nil
}

// Encode serializes events with the file header, producing a complete
// journal image suitable for Local/Global Persist or journal-tool export.
// The output buffer is sized exactly up front, so the whole image costs
// one allocation regardless of event count.
func (e *Encoder) Encode(events []*Event) ([]byte, error) {
	size, maxPayloadLen := MagicLen, 0
	for _, ev := range events {
		n := payloadSize(ev)
		size += uvarintLen(uint64(n)) + n + 4
		if n > maxPayloadLen {
			maxPayloadLen = n
		}
	}
	if cap(e.scratch) < maxPayloadLen {
		e.scratch = make([]byte, 0, maxPayloadLen)
	}
	out := make([]byte, 0, size)
	out = append(out, magic...)
	var err error
	for i, ev := range events {
		out, err = e.AppendEvent(out, ev)
		if err != nil {
			return nil, fmt.Errorf("encode event %d: %w", i, err)
		}
	}
	return out, nil
}

// AppendHeader appends the journal file header to b. Chunked exporters
// use it to start an image they then grow record by record; the result
// decodes identically to a one-shot Encode of the same events.
func AppendHeader(b []byte) []byte { return append(b, magic...) }

// RecordSize returns the exact encoded record length of ev, for sizing
// chunk buffers without encoding twice.
func RecordSize(ev *Event) int { return recordSize(ev) }

func zigzag(v int64) uint64   { return uint64((v << 1) ^ (v >> 63)) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// Decoder iterates records in an encoded journal body (no file header).
type Decoder struct {
	buf []byte
	off int
}

// NewDecoder returns a decoder over an encoded record stream.
func NewDecoder(buf []byte) *Decoder { return &Decoder{buf: buf} }

// More reports whether bytes remain.
func (d *Decoder) More() bool { return d.off < len(d.buf) }

// Offset returns the byte offset of the next record.
func (d *Decoder) Offset() int { return d.off }

func (d *Decoder) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		return 0, ErrTruncated
	}
	d.off += n
	return v, nil
}

func (d *Decoder) str() (string, error) {
	n, err := d.uvarint()
	if err != nil {
		return "", err
	}
	if n > maxStrLen {
		return "", fmt.Errorf("%w: string length %d", ErrBadEvent, n)
	}
	if d.off+int(n) > len(d.buf) {
		return "", ErrTruncated
	}
	s := string(d.buf[d.off : d.off+int(n)])
	d.off += int(n)
	return s, nil
}

// Next decodes the next record. It verifies the CRC before interpreting
// any field.
func (d *Decoder) Next() (*Event, error) {
	plen, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if plen > maxPayload {
		return nil, fmt.Errorf("%w: payload length %d", ErrBadEvent, plen)
	}
	if d.off+int(plen)+4 > len(d.buf) {
		return nil, ErrTruncated
	}
	payload := d.buf[d.off : d.off+int(plen)]
	d.off += int(plen)
	want := binary.LittleEndian.Uint32(d.buf[d.off : d.off+4])
	d.off += 4
	if crc32.Checksum(payload, castagnoli) != want {
		return nil, ErrChecksum
	}

	if len(payload) < 1 {
		return nil, ErrTruncated
	}
	var pd Decoder
	pd.buf = payload
	pd.off = 1
	ev := &Event{Type: EventType(payload[0])}
	if ev.Seq, err = pd.uvarint(); err != nil {
		return nil, err
	}
	if ev.Client, err = pd.str(); err != nil {
		return nil, err
	}
	if ev.Ino, err = pd.uvarint(); err != nil {
		return nil, err
	}
	if ev.Parent, err = pd.uvarint(); err != nil {
		return nil, err
	}
	if ev.Name, err = pd.str(); err != nil {
		return nil, err
	}
	if ev.NewParent, err = pd.uvarint(); err != nil {
		return nil, err
	}
	if ev.NewName, err = pd.str(); err != nil {
		return nil, err
	}
	var v uint64
	if v, err = pd.uvarint(); err != nil {
		return nil, err
	}
	ev.Mode = uint32(v)
	if v, err = pd.uvarint(); err != nil {
		return nil, err
	}
	ev.UID = uint32(v)
	if v, err = pd.uvarint(); err != nil {
		return nil, err
	}
	ev.GID = uint32(v)
	if ev.Size, err = pd.uvarint(); err != nil {
		return nil, err
	}
	if v, err = pd.uvarint(); err != nil {
		return nil, err
	}
	ev.Mtime = unzigzag(v)
	if err := ev.Validate(); err != nil {
		return nil, err
	}
	return ev, nil
}

// countRecords pre-scans an encoded record stream, following length
// prefixes only (no CRC work), so Decode can size its output slice once.
// A malformed tail just ends the count early; the real decode loop
// produces the proper error.
func countRecords(buf []byte) int {
	n, off := 0, 0
	for off < len(buf) {
		plen, k := binary.Uvarint(buf[off:])
		if k <= 0 || plen > maxPayload {
			break
		}
		off += k + int(plen) + 4
		if off > len(buf) {
			break
		}
		n++
	}
	return n
}

// Encode serializes events with the file header using a one-shot Encoder.
func Encode(events []*Event) ([]byte, error) {
	var e Encoder
	return e.Encode(events)
}

// Decode parses a complete journal image produced by Encode.
func Decode(buf []byte) ([]*Event, error) {
	if len(buf) < MagicLen {
		return nil, ErrBadMagic
	}
	if string(buf[:MagicLen]) != magic {
		return nil, ErrBadMagic
	}
	body := buf[MagicLen:]
	if len(body) == 0 {
		return nil, nil
	}
	d := NewDecoder(body)
	out := make([]*Event, 0, countRecords(body))
	for d.More() {
		ev, err := d.Next()
		if err != nil {
			return nil, fmt.Errorf("record %d at offset %d: %w", len(out), d.Offset(), err)
		}
		out = append(out, ev)
	}
	return out, nil
}
