package experiments

import (
	"strings"

	examples "repro/examples/chaos"
	"repro/internal/chaos"
	"repro/internal/harness"
)

// Chaos is the failure-injection experiment: crash/reboot and dead-server
// scenarios through the chaos engine, contrasting the backends'
// durability stories — the filer's NVRAM log replays acked data after a
// reboot, while knfsd's page cache loses it and the client must detect
// the verifier change and rewrite (RFC 1813 §3.3.7). Its rows are chaos
// reports, run on the worker pool, so it renders the table itself, then
// each report.
var Chaos = &Experiment{
	Name: "chaos", Desc: "failure injection: crash/reboot durability, shared-file crash, dead server",
	Render: func([]harness.Result) string {
		var scs []*chaos.Scenario
		for _, src := range examples.Battery {
			part, err := chaos.Parse(src)
			if err != nil {
				panic("experiments: bad built-in chaos scenarios: " + err.Error())
			}
			scs = append(scs, part...)
		}
		reps := chaos.RunAll(scs, Workers)
		var b strings.Builder
		b.WriteString(table("Chaos scenarios - server crash/reboot and dead-server failure injection", []Column[*chaos.Report]{
			col("scenario", "%s", func(r *chaos.Report) string { return r.Scenario.Name }),
			col("server", "%s", func(r *chaos.Report) string { return r.Scenario.Fleet.Server }),
			col("status", "%s", func(r *chaos.Report) string { return map[bool]string{false: "PASS", true: "FAIL"}[r.Failed] }),
			col("agg MBps", "%.2f", func(r *chaos.Report) float64 { return r.Result.AggMBps }),
			col("lost B", "%d", func(r *chaos.Report) int64 { return r.LostBytes }),
			col("replayed B", "%d", func(r *chaos.Report) int64 { return r.ReplayedBytes }),
			col("rewritten B", "%d", func(r *chaos.Report) int64 { return r.RewrittenBytes }),
			col("verf chg", "%d", func(r *chaos.Report) int64 { return r.VerfChanges }),
		}, reps))
		for _, rep := range reps {
			b.WriteString(rep.Render())
		}
		b.WriteString("same crash, two durability stories: the filer replays its NVRAM log\n" +
			"(lost=0), knfsd drops its page cache and the client rewrites every\n" +
			"unstable byte after seeing the new write verifier\n")
		return b.String()
	},
}
