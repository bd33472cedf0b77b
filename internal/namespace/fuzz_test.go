package namespace

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"testing"
)

// sealDir frames body as a directory object: magic, body, CRC. The
// fuzzer mutates bodies and seals them, so its inputs reach field parsing
// instead of all failing the checksum.
func sealDir(body []byte) []byte {
	out := append([]byte(dirMagic), body...)
	return binary.LittleEndian.AppendUint32(out, crc32.Checksum(body, dirCRC))
}

// installUnderRoot installs obj into a fresh store, as a child of the
// root unless it is the root.
func installUnderRoot(obj *DirObject) (*Store, error) {
	if obj.Ino != RootIno {
		obj.Parent = RootIno
	}
	s := NewStore()
	return s, s.InstallDir(obj)
}

// FuzzDecodeDir guards the directory-object codec, the decode boundary of
// recovery and migration: DecodeDir must never panic on a sealed body; an
// object it accepts either installs into a fresh store under the root or
// errors; and an installed directory encodes to an object that decodes,
// reinstalls and re-encodes to the same bytes.
func FuzzDecodeDir(f *testing.F) {
	// Seeds: the bodies of real encodings — the root, a directory of
	// files, a directory holding a subdirectory and a file, and an empty
	// directory.
	s := NewStore()
	if _, err := s.MkdirAll("/proj/data", CreateAttrs{Mode: 0755}); err != nil {
		f.Fatal(err)
	}
	if _, err := s.MkdirAll("/empty", CreateAttrs{Mode: 0700}); err != nil {
		f.Fatal(err)
	}
	data, _ := s.Resolve("/proj/data")
	for _, n := range []string{"a.dat", "b.dat"} {
		if _, err := s.Create(data.Ino, n, CreateAttrs{Mode: 0644, UID: 7, GID: 8, Mtime: -1}); err != nil {
			f.Fatal(err)
		}
	}
	proj, _ := s.Resolve("/proj")
	if _, err := s.Create(proj.Ino, "README", CreateAttrs{Mode: 0444}); err != nil {
		f.Fatal(err)
	}
	dirs, _, _ := s.Subtree("/")
	for _, ino := range dirs {
		img, err := s.EncodeDir(ino)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(img[len(dirMagic) : len(img)-4])
	}
	f.Add([]byte{})
	// A name length that overflows int when added to the read offset: the
	// bounds check once let it through to a slice panic.
	f.Add(binary.AppendUvarint([]byte{2, 1}, 1<<63))

	f.Fuzz(func(t *testing.T, body []byte) {
		obj, err := DecodeDir(sealDir(body))
		if err != nil {
			return // rejected input; only panics are bugs here
		}
		s, err := installUnderRoot(obj)
		if err != nil {
			return // a clean refusal
		}
		img, err := s.EncodeDir(obj.Ino)
		if err != nil {
			t.Fatalf("installed directory %d does not encode: %v", obj.Ino, err)
		}
		again, err := DecodeDir(img)
		if err != nil {
			t.Fatalf("encoded directory %d does not decode: %v", obj.Ino, err)
		}
		names := map[string]bool{}
		for _, e := range obj.Entries {
			names[e.Name] = true
		}
		if again.Ino != obj.Ino || len(again.Entries) != len(names) {
			t.Fatalf("round trip of directory %d: %d entries of %d names, ino %d",
				obj.Ino, len(again.Entries), len(names), again.Ino)
		}
		for _, e := range again.Entries {
			if !names[e.Name] {
				t.Fatalf("round trip of directory %d grew entry %q", obj.Ino, e.Name)
			}
		}
		s2, err := installUnderRoot(again)
		if err != nil {
			t.Fatalf("re-decoded directory %d does not install: %v", obj.Ino, err)
		}
		img2, err := s2.EncodeDir(obj.Ino)
		if err != nil || !bytes.Equal(img, img2) {
			t.Fatalf("directory %d re-encodes differently (%v):\n%x\n%x", obj.Ino, err, img, img2)
		}
	})
}

// FuzzDentries runs a name table and a map[string]Ino through the same
// operations and requires them to agree after each. Each input byte is an
// operation: the low two bits pick set, get, delete or a full comparison,
// and the rest pick one of 64 names, so inputs revisit names, free and
// reuse positions, leave tombstones and cross the small-directory
// threshold in both directions.
func FuzzDentries(f *testing.F) {
	f.Add([]byte{0, 4, 8, 12, 3, 5, 1, 3})
	grow := make([]byte, 0, 256)
	for i := 0; i < 64; i++ {
		grow = append(grow, byte(i<<2))
	}
	for i := 0; i < 64; i += 2 {
		grow = append(grow, byte(i<<2|2))
	}
	f.Add(append(grow, 3))
	f.Fuzz(func(t *testing.T, ops []byte) {
		d := new(Dentries)
		model := make(map[string]Ino)
		for i, op := range ops {
			name := fmt.Sprintf("n%d", op>>2)
			switch op & 3 {
			case 0:
				d.Set(name, Ino(i+2))
				model[name] = Ino(i + 2)
			case 1:
				got, ok := d.Get(name)
				if want, has := model[name]; ok != has || got != want {
					t.Fatalf("op %d: Get(%q) = %d, %v; map has %d, %v", i, name, got, ok, want, has)
				}
			case 2:
				d.Delete(name)
				delete(model, name)
			default:
				checkDentries(t, d, model, fmt.Sprintf("op %d", i))
			}
		}
		checkDentries(t, d, model, "end")
	})
}
