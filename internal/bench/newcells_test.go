package bench

import (
	"testing"

	"cudele"
)

// TestNewCellsBeatEveryOriginal pins the experiment's acceptance
// criterion: each cell beyond Table I beats every one of the nine
// original compositions on at least one workload — speculation on the
// validated create burst, strong-eventual on the lossy merge storm.
func TestNewCellsBeatEveryOriginal(t *testing.T) {
	const burstN, batches, perBatch = 2_000, 8, 250
	type cellOut struct {
		cell string
		out  newCellsOut
	}
	var originals, specs, ses []cellOut
	for _, cons := range newCellsCons {
		for _, dur := range newCellsDur {
			b, err := newCellsBurst(Options{}, runSpec{seed: 1}, cons, dur, burstN)
			if err != nil {
				t.Fatalf("burst %v/%v: %v", cons, dur, err)
			}
			s, err := newCellsStorm(Options{}, runSpec{seed: 1}, cons, dur, batches, perBatch)
			if err != nil {
				t.Fatalf("storm %v/%v: %v", cons, dur, err)
			}
			co := cellOut{cons.String() + "/" + dur.String(),
				newCellsOut{burstSec: b.burstSec, stormSec: s.stormSec}}
			switch cons {
			case cudele.ConsSpeculative:
				specs = append(specs, co)
			case cudele.ConsStrongEventual:
				ses = append(ses, co)
			default:
				originals = append(originals, co)
			}
		}
	}
	if len(originals) != 9 || len(specs) != 3 || len(ses) != 3 {
		t.Fatalf("cell partition = %d/%d/%d, want 9/3/3", len(originals), len(specs), len(ses))
	}
	for _, sp := range specs {
		for _, o := range originals {
			if sp.out.burstSec >= o.out.burstSec {
				t.Errorf("%s burst %.3fs does not beat %s's %.3fs",
					sp.cell, sp.out.burstSec, o.cell, o.out.burstSec)
			}
		}
	}
	for _, se := range ses {
		for _, o := range originals {
			if se.out.stormSec >= o.out.stormSec {
				t.Errorf("%s storm %.3fs does not beat %s's %.3fs",
					se.cell, se.out.stormSec, o.cell, o.out.stormSec)
			}
		}
	}
}
