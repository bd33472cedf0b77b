package main

import (
	"math"
	"strconv"
	"sync"
	"time"
)

// Machine-speed calibration. On a shared 2-vCPU sandbox the host slows
// every memory-touching program by 20-40 % for minutes at a time, so the
// same build's wall and CPU times spread wider between runs than any
// bound BENCHMARK.json may carry (README "Steadiness"). A run therefore
// times three small fixed kernels before every repetition and after the
// last, and multiplies every time it reports by the run's speed factor:
// the median over those samples of how fast the kernels ran relative to
// calibRef. The kernels use only the standard library, never the
// program, so a change to the program moves a calibrated metric exactly
// as much as it moves the raw one; what cancels is the machine's state,
// which the kernels and the workload share. They do what the workloads
// do most: small allocations, string-keyed map lookups and goroutine
// hand-offs under a mutex.

const (
	calibAllocs   = 50_000 // 64-byte objects per sample, the last calibKeep of them kept alive
	calibKeep     = 1 << 13
	calibMapKeys  = 50_000 // keys of the lookup table, each looked up twice per sample
	calibHandoffs = 4_000  // mutex/cond hand-offs per goroutine per sample
)

// calibRef is what each kernel takes on the builder's machine in its
// quiet state. It only fixes the scale of the calibrated numbers (they
// read as that machine's); parent and change are compared on one scale
// whatever it is.
var calibRef = [3]time.Duration{1400 * time.Microsecond, 1600 * time.Microsecond, 5000 * time.Microsecond}

type calibrator struct {
	keep    [calibKeep][]byte
	keys    []string
	table   map[string]int32
	sink    int32
	took    [3][]float64 // per kernel, microseconds per sample
	samples []float64    // machine speed per sample
}

func newCalibrator() *calibrator {
	c := &calibrator{
		keys:  make([]string, calibMapKeys),
		table: make(map[string]int32, calibMapKeys),
	}
	rng := newRand(1)
	for i := range c.keys {
		c.keys[i] = "f" + strconv.FormatInt(int64(i), 36) + "-" + strconv.FormatInt(int64(1296+rng.Intn(45360)), 36)
		c.table[c.keys[i]] = int32(i)
	}
	rng.Shuffle(len(c.keys), func(i, j int) { c.keys[i], c.keys[j] = c.keys[j], c.keys[i] })
	return c
}

func (c *calibrator) allocKernel() time.Duration {
	t0 := time.Now()
	for i := 0; i < calibAllocs; i++ {
		c.keep[i%calibKeep] = make([]byte, 64)
	}
	return time.Since(t0)
}

// handoffKernel alternates two goroutines under one mutex, each waking
// the other through a condition variable: the shape of realrt's run lock.
func (c *calibrator) handoffKernel() time.Duration {
	var mu sync.Mutex
	cond := [2]*sync.Cond{sync.NewCond(&mu), sync.NewCond(&mu)}
	turn := 0
	var wg sync.WaitGroup
	t0 := time.Now()
	for g := 0; g < 2; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			mu.Lock()
			defer mu.Unlock()
			for i := 0; i < calibHandoffs; i++ {
				for turn != g {
					cond[g].Wait()
				}
				turn = 1 - g
				cond[1-g].Signal()
			}
		}()
	}
	wg.Wait()
	return time.Since(t0)
}

func (c *calibrator) mapKernel() time.Duration {
	t0 := time.Now()
	var s int32
	for pass := 0; pass < 2; pass++ {
		for _, k := range c.keys {
			s += c.table[k]
		}
	}
	c.sink += s
	return time.Since(t0)
}

// sample times the kernels once and records the machine's speed: the
// geometric mean of reference time over measured time, so each kernel
// weighs the same whatever its length.
func (c *calibrator) sample() {
	took := [3]time.Duration{c.allocKernel(), c.handoffKernel(), c.mapKernel()}
	var logSum float64
	for i, d := range took {
		c.took[i] = append(c.took[i], float64(d.Microseconds()))
		logSum += math.Log(float64(calibRef[i]) / float64(d))
	}
	c.samples = append(c.samples, math.Exp(logSum/float64(len(took))))
}

// speed is the run's speed factor: above 1 when the machine ran the
// kernels faster than calibRef.
func (c *calibrator) speed() float64 { return median(c.samples) }

// speedExponent says how a metric scales with machine speed: a time is
// multiplied by the run's speed factor, a rate divided by it. Metrics
// that are not times (bytes, counts) are absent.
var speedExponent = map[string]float64{
	"setup_s": 1, "cpu_us_per_op": 1, "op_p50_us": 1, "op_p99_us": 1, "ops_per_s": -1,
}

// calibrated returns raw with every time metric scaled to calibRef's
// machine state.
func calibrated(raw *metricSet, speed float64) *metricSet {
	out := raw.subset(measured)
	for name, e := range speedExponent {
		out.vals[name] = raw.vals[name] * math.Pow(speed, e)
	}
	return out
}
