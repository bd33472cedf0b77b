package bench

import (
	"fmt"

	"cudele"
	"cudele/internal/runtime"
	"cudele/internal/workload"
)

func init() {
	register("fig2", "MDS resource utilization while compiling in a CephFS mount (Fig 2)", Fig2)
}

type fig2PhaseRow struct {
	name           string
	ops            int
	secs           float64
	cpu, net, disk float64
}

// Fig2 replays the compile-trace phase mix against one client with
// journaling on and reports, per phase, the metadata op rate and the
// utilization of the MDS CPU, the fabric, and the OSD disks. The paper's
// claim: the create-heavy untar phase has the highest combined resource
// usage because of consistency/durability demands.
func Fig2(opts Options) (*Result, error) {
	rows, err := runGrid(opts, "fig2", 1, func(_ int, spec runSpec) ([]fig2PhaseRow, error) {
		return fig2Run(opts, spec)
	})
	if err != nil {
		return nil, err
	}
	return fig2Render(rows[0])
}

func fig2Run(opts Options, spec runSpec) ([]fig2PhaseRow, error) {
	spec.config = func(cfg *cudele.Config) {
		// Scale the segment size with the workload so journal segments seal
		// (and stream to the object store) at a proportional rate.
		cfg.SegmentEvents = opts.scaled(1024, 64)
	}
	return runSession(opts, spec, func(s *session) ([]fig2PhaseRow, error) {
		cl := s.cl
		cl.MDS().SetStream(true)
		c := s.clients(1)[0]
		// snapshot reads the resources Fig 2 charts: the MDS CPU, the
		// fabric, then each OSD's disk.
		snapshot := func() []runtime.ResourceSnapshot {
			snaps := []runtime.ResourceSnapshot{cl.MDS().CPU().Snapshot(), cl.Objects().Net().Snapshot()}
			for _, osd := range cl.Objects().OSDs() {
				snaps = append(snaps, osd.Disk.Snapshot())
			}
			return snaps
		}

		var rows []fig2PhaseRow
		_, err := s.phase("main", func(p cudele.Proc) error {
			root, err := c.Mkdir(p, cudele.RootIno, "linux-build", 0755)
			if err != nil {
				return err
			}
			for _, ph := range workload.CompilePhases() {
				ph.Units = opts.scaled(ph.Units, 8)
				// Phase setup (working directory, draining the previous
				// phase's journal) stays outside the measurement window.
				phaseDir, err := c.Mkdir(p, root, ph.Name, 0755)
				if err != nil {
					return err
				}
				cl.MDS().FlushJournal(p)
				before := snapshot()

				ops, err := workload.RunPhase(p, c, phaseDir, ph)
				if err != nil {
					return fmt.Errorf("phase %s: %w", ph.Name, err)
				}

				after := snapshot()
				util := func(i int) float64 { return after[i].UtilizationSince(before[i]) }
				disk := 0.0
				for i := 2; i < len(after); i++ {
					disk += util(i)
				}
				disk /= float64(len(after) - 2)
				rows = append(rows, fig2PhaseRow{
					name: ph.Name, ops: ops, secs: (after[0].At - before[0].At).Seconds(),
					cpu: util(0), net: util(1), disk: disk,
				})
			}
			return nil
		})
		return rows, err
	})
}

func fig2Render(rows []fig2PhaseRow) (*Result, error) {
	r := &Result{
		ID:      "fig2",
		Title:   "per-phase MDS load for a Linux-compile-like workload (journal on)",
		Columns: []string{"phase", "metadata ops", "duration s", "ops/s", "MDS CPU", "network", "OSD disk", "combined"},
	}
	var untarCombined, maxOther float64
	var untarName string
	for _, row := range rows {
		combined := row.cpu + row.net + row.disk
		r.AddRow(row.name, fmt.Sprintf("%d", row.ops), f2(row.secs),
			f0(float64(row.ops)/row.secs), pct(row.cpu), pct(row.net), pct(row.disk), pct(combined))
		if row.name == "untar" {
			untarCombined, untarName = combined, row.name
		} else if combined > maxOther {
			maxOther = combined
		}
	}
	r.Notef("paper: the create-heavy untar phase incurs the highest disk, network, and CPU utilization")
	r.Notef("measured: %s combined utilization %.2f vs max other phase %.2f (ratio %.1fx)",
		untarName, untarCombined, maxOther, untarCombined/maxOther)
	return r, nil
}
