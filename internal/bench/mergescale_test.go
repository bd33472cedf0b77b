package bench

import "testing"

// TestMergeScaleChunkedBeatsAllAtOnce pins the experiment's headline: at
// four or more concurrent mergers, the streamed pipeline's bounded
// admission finishes the slowest merger sooner than the all-at-once
// arrival model, with per-client transfer memory bounded by one chunk
// (256 events) instead of the whole journal.
func TestMergeScaleChunkedBeatsAllAtOnce(t *testing.T) {
	const perClient = 500
	const evBytes = 2500
	for _, n := range []int{4, 8, 16} {
		oneshot, err := mergeScaleRun(Options{}, runSpec{seed: 1}, n, perClient, "all-at-once")
		if err != nil {
			t.Fatalf("all-at-once n=%d: %v", n, err)
		}
		chunked, err := mergeScaleRun(Options{}, runSpec{seed: 1}, n, perClient, "chunked-fair")
		if err != nil {
			t.Fatalf("chunked-fair n=%d: %v", n, err)
		}
		if chunked.slowest >= oneshot.slowest {
			t.Errorf("n=%d: chunked slowest %.3fs not below all-at-once %.3fs",
				n, chunked.slowest, oneshot.slowest)
		}
		if want := uint64(perClient * evBytes); oneshot.peakBytes != want {
			t.Errorf("n=%d: one-shot peak transfer = %d, want whole journal %d",
				n, oneshot.peakBytes, want)
		}
		if limit := uint64(256 * evBytes); chunked.peakBytes > limit {
			t.Errorf("n=%d: chunked peak transfer = %d, want <= one chunk %d",
				n, chunked.peakBytes, limit)
		}
		if chunked.waitJobs != n {
			t.Errorf("n=%d: fairness covers %d jobs", n, chunked.waitJobs)
		}
		if n > 2 && chunked.backpressure == 0 {
			t.Errorf("n=%d: bounded admission produced no backpressure", n)
		}
	}
}
