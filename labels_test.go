package cudele

import (
	"bufio"
	"bytes"
	"fmt"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"cudele/internal/model"
	"cudele/internal/obs"
)

// TestCPUProfileLabelsOwners: a CPU profile taken with the label plane on
// (what -cpuprofile does) names the owner of nearly every sample. On each
// backend it profiles about a second of RPC traffic — four clients
// creating, stating, setattring and unlinking files in their own
// directories on a two-rank cluster — beside a task that only hashes, and
// reads the profile back with `go tool pprof -raw`: at least 80 % of the
// samples outside the garbage collector and the scheduler carry a proc
// label, the ranks' samples carry an op label too, and the hashing task's
// samples carry its own name, which only its spawn gave it.
func TestCPUProfileLabelsOwners(t *testing.T) {
	if testing.Short() {
		t.Skip("profiles two seconds of traffic")
	}
	// The real backend sleeps every modeled cost; with them at 1 ns its
	// time is the program's own, as in the host benchmark.
	hostCfg := model.Default()
	v := reflect.ValueOf(&hostCfg).Elem()
	for i := 0; i < v.NumField(); i++ {
		if f := v.Field(i); f.Type() == reflect.TypeOf(time.Duration(0)) {
			f.SetInt(1)
		}
	}
	for _, b := range []Backend{BackendSim, BackendReal} {
		t.Run(b.String(), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "cpu.prof")
			stop, err := obs.StartCPUProfile(path)
			if err != nil {
				t.Fatal(err)
			}
			labelledTraffic(t, b, hostCfg, time.Second)
			if err := stop(); err != nil {
				t.Fatal(err)
			}
			prof := readRawProfile(t, path)
			var own, proc, rank, rankOp, hash, hashOwn int
			for _, s := range prof {
				if s.gcOrScheduler() {
					continue
				}
				if s.calls("cudele.churn") {
					hash += s.count
					if s.labels["proc"] == "hasher" {
						hashOwn += s.count
					}
				}
				own += s.count
				if s.labels["proc"] != "" {
					proc += s.count
				}
				if strings.HasPrefix(s.labels["proc"], "mds.") {
					rank += s.count
					if s.labels["op"] != "" {
						rankOp += s.count
					}
				}
			}
			t.Logf("%d samples outside GC and the scheduler, %d with a proc label; ranks %d, %d of them with an op; hasher %d, %d of them its own", own, proc, rank, rankOp, hash, hashOwn)
			if own < 20 || float64(proc) < 0.8*float64(own) {
				t.Errorf("%d of %d samples carry a proc label, want at least 80 %% of at least 20", proc, own)
			}
			if rank == 0 || float64(rankOp) < 0.8*float64(rank) {
				t.Errorf("%d of the ranks' %d samples carry an op label, want at least 80 %%", rankOp, rank)
			}
			if hash < 5 || float64(hashOwn) < 0.8*float64(hash) {
				t.Errorf("%d of the hashing task's %d samples carry proc:hasher, want at least 80 %% of at least 5", hashOwn, hash)
			}
		})
	}
}

// labelledTraffic runs four clients' RPC loops, and for its first 30 % a
// task named hasher that calls no daemon and only hashes, on a fresh
// two-rank cluster of backend b for about d of wall time.
func labelledTraffic(t *testing.T, b Backend, cfg Config, d time.Duration) {
	t.Helper()
	cl := NewCluster(WithSeed(3), WithMDSRanks(2), WithBackend(b), WithConfig(cfg))
	defer cl.Close()
	clients := make([]*Client, 4)
	for i := range clients {
		clients[i] = cl.NewClient(fmt.Sprintf("c%d", i))
	}
	dirs := make([]Ino, len(clients))
	cl.Run(func(p Proc) {
		if _, err := clients[1].MkdirAll(p, "/d1", 0755); err != nil {
			t.Errorf("mkdir /d1: %v", err)
		} else if err := cl.Monitor().Place(p, "/d1", 1); err != nil {
			t.Errorf("place: %v", err)
		}
		for i, c := range clients {
			var err error
			if dirs[i], err = c.MkdirAll(p, fmt.Sprintf("/d%d/c%d", i%2, i), 0755); err != nil {
				t.Errorf("mkdir: %v", err)
			}
		}
	})
	start := time.Now()
	deadline := start.Add(d)
	// The hasher stops after the first 30 % of d, so the clients and the
	// ranks take enough samples after it.
	cl.Go("hasher", func(p Proc) {
		block := make([]byte, 1<<20)
		for time.Since(start) < d*3/10 {
			block[0] = churn(block)
			p.Sleep(0)
		}
	})
	for i, c := range clients {
		cl.Go(c.Name(), func(p Proc) {
			var err error
			dir := dirs[i]
			for n := 0; err == nil && time.Now().Before(deadline); n++ {
				name := fmt.Sprintf("f%d", n)
				var ino Ino
				if ino, err = c.Create(p, dir, name, 0644); err == nil {
					_, err = c.Stat(p, ino)
				}
				if err == nil {
					err = c.SetAttr(p, ino, 0600, 1, 1, uint64(n), 0)
				}
				if err == nil {
					err = c.Unlink(p, dir, name)
				}
			}
			if err != nil {
				t.Errorf("%s: %v", c.Name(), err)
			}
		})
	}
	cl.RunAll()
}

// rawSample is one sample of a CPU profile as `go tool pprof -raw`
// prints it: its count, the functions of each frame (inlined ones
// included), innermost first, and its labels.
type rawSample struct {
	count  int
	frames [][]string
	labels map[string]string
}

// churn is the hashing task's work: a pass of byte arithmetic over b. It
// is kept out of line and out of the race detector's instrumentation, so
// that every sample in it names it, under -race too.
//
//go:noinline
//go:norace
func churn(b []byte) byte {
	var h byte
	for i := range b {
		h = h*31 + b[i]
		b[i] = h
	}
	return h
}

// calls reports whether any frame of the sample is a function whose name
// starts with prefix.
func (s rawSample) calls(prefix string) bool {
	for _, fns := range s.frames {
		for _, fn := range fns {
			if strings.HasPrefix(fn, prefix) {
				return true
			}
		}
	}
	return false
}

// gcOrScheduler reports whether the sample is the runtime's own work: a
// garbage-collector worker, or the scheduler on a system stack (its
// outermost frame is mcall or mstart), which no goroutine's label covers.
func (s rawSample) gcOrScheduler() bool {
	if len(s.frames) == 0 {
		return true
	}
	root := s.frames[len(s.frames)-1]
	switch root[len(root)-1] {
	case "runtime.mcall", "runtime.mstart", "runtime.morestack":
		return true
	}
	for _, fns := range s.frames {
		for _, fn := range fns {
			switch fn {
			case "runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge":
				return true
			}
		}
	}
	return false
}

var (
	rawSampleRE = regexp.MustCompile(`^\s+(\d+)\s+\d+: ([\d ]+?)\s*$`)
	rawLabelRE  = regexp.MustCompile(`(\w+):\[([^\]]*)\]`)
	rawLocRE    = regexp.MustCompile(`^\s+(\d+): 0x[0-9a-f]+ M=\d+ (\S+)`)
	rawInlineRE = regexp.MustCompile(`^\s+(\S+) \S+:\d+:\d+ s=\d+$`)
)

// readRawProfile reads the CPU profile at path through `go tool pprof
// -raw`, whose text lists the samples (location ids and labels) and then
// the locations (each one's functions).
func readRawProfile(t *testing.T, path string) []rawSample {
	t.Helper()
	out, err := exec.Command("go", "tool", "pprof", "-raw", path).Output()
	if err != nil {
		t.Fatalf("go tool pprof -raw: %v", err)
	}
	type pending struct {
		count  int
		locs   []string
		labels map[string]string
	}
	var samples []*pending
	funcs := map[string][]string{}
	section, loc := "", ""
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "Samples:"), strings.HasPrefix(line, "Locations"), strings.HasPrefix(line, "Mappings"):
			section = strings.TrimSuffix(strings.Fields(line)[0], ":")
			continue
		}
		switch section {
		case "Samples":
			if m := rawSampleRE.FindStringSubmatch(line); m != nil {
				n, _ := strconv.Atoi(m[1])
				samples = append(samples, &pending{count: n, locs: strings.Fields(m[2]), labels: map[string]string{}})
			} else if len(samples) > 0 {
				for _, m := range rawLabelRE.FindAllStringSubmatch(line, -1) {
					samples[len(samples)-1].labels[m[1]] = m[2]
				}
			}
		case "Locations":
			if m := rawLocRE.FindStringSubmatch(line); m != nil {
				loc = m[1]
				funcs[loc] = append(funcs[loc], m[2])
			} else if m := rawInlineRE.FindStringSubmatch(line); m != nil && loc != "" {
				funcs[loc] = append(funcs[loc], m[1])
			}
		}
	}
	if len(samples) == 0 || len(funcs) == 0 {
		t.Fatalf("go tool pprof -raw printed no samples or no locations:\n%.2000s", out)
	}
	prof := make([]rawSample, len(samples))
	for i, s := range samples {
		prof[i] = rawSample{count: s.count, labels: s.labels}
		for _, id := range s.locs {
			prof[i].frames = append(prof[i].frames, funcs[id])
		}
	}
	return prof
}
