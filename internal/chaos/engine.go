package chaos

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	nfssim "repro"
	"repro/internal/harness"
	"repro/internal/sim"
)

// AssertResult is one assertion's verdict.
type AssertResult struct {
	Name   string
	Detail string
	Pass   bool
}

// Report is one scenario run's outcome: the fired-event log, the
// workload result, recovery accounting, and assertion verdicts. Render
// produces deterministic text — byte-identical across reruns and worker
// counts for the same scenario file.
type Report struct {
	Scenario *Scenario
	Result   harness.Result
	// Err is the terminal error for runs that did not complete (e.g. a
	// DeadServerError from a permanently-dead server), empty otherwise.
	Err      string
	EventLog []string
	Asserts  []AssertResult
	Failed   bool

	// Recovery accounting, gathered from the test bed after the run.
	LostBytes      int64
	ReplayedBytes  int64
	RewrittenBytes int64
	VerfChanges    int64
	Crashes        int64
	MajorTimeouts  int64
	BadReplies     int64
	Retransmits    int64

	// Coherence accounting for shared-file scenarios: cached reads served
	// under a stale open, page-cache invalidations, and client-observed
	// change-attribute regressions (which a crash/restart must keep at
	// zero — the counter never runs backwards).
	StaleReads        int64
	Invalidations     int64
	ChangeRegressions int64
}

// Run executes one scenario: build the fleet, schedule the timed events
// in virtual time, drive the workload, then evaluate the assertions.
func Run(sc *Scenario) *Report {
	rep := &Report{Scenario: sc}
	// Timed events fire in At order; same-time events keep file order.
	timed := make([]Event, 0, len(sc.Events))
	for _, ev := range sc.Events {
		if !ev.IsAssert() {
			timed = append(timed, ev)
		}
	}
	sort.SliceStable(timed, func(i, j int) bool { return timed[i].At < timed[j].At })

	var tb *nfssim.Testbed
	prepare := func(t *nfssim.Testbed) {
		tb = t
		for _, m := range t.Machines {
			m.Transport.SetMaxRetries(sc.Fleet.MaxRetries)
		}
		for i := range timed {
			ev := timed[i] // copy: the closure must not share the loop slot
			t.Sim.At(ev.At, func() {
				rep.EventLog = append(rep.EventLog, fireEvent(t, ev))
			})
		}
	}

	res, err := runGuarded(sc.bed, prepare)
	if err != nil {
		rep.Err = err.Error()
	} else {
		rep.Result = res
	}
	if tb != nil {
		rep.gather(tb)
	}
	rep.evaluate(tb, err)
	return rep
}

// runGuarded runs the scenario and converts terminal panics — a
// DeadServerError surfacing from the retransmit timer (event context), or
// the simulator's wrapped process panic — into an error. The virtual time
// an error fires at is deterministic, so reports stay byte-identical.
func runGuarded(hsc harness.Scenario, prepare func(*nfssim.Testbed)) (res harness.Result, err error) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		if err, _ = r.(error); err == nil {
			err = fmt.Errorf("%v", r)
		}
	}()
	res = harness.RunScenarioOn(hsc, prepare)
	return res, nil
}

// fireEvent applies one injection and returns its log line.
func fireEvent(tb *nfssim.Testbed, ev Event) string {
	line := "t=" + sim.Time(tb.Sim.Now()).String() + " " + ev.Action
	switch ev.Action {
	case "server_crash":
		tb.Server.Crash()
	case "server_restart":
		tb.Server.Restart()
	case "link_down":
		tb.Net.SetDown(netHost(tb, ev.Host), true)
		line += " host=" + ev.Host
	case "link_up":
		tb.Net.SetDown(netHost(tb, ev.Host), false)
		line += " host=" + ev.Host
	case "loss_burst":
		base := tb.Net.Loss()
		burst := base
		burst.Rate = ev.Rate
		tb.Net.SetLoss(burst)
		tb.Sim.After(ev.For, func() { tb.Net.SetLoss(base) })
		line += " rate=" + strconv.FormatFloat(ev.Rate, 'g', -1, 64) +
			" for=" + ev.For.String()
	case "jitter_burst":
		base := tb.Net.Loss()
		burst := base
		burst.DelayJitter = ev.Jitter
		tb.Net.SetLoss(burst)
		tb.Sim.After(ev.For, func() { tb.Net.SetLoss(base) })
		line += " jitter=" + ev.Jitter.String() + " for=" + ev.For.String()
	case "disk_degrade":
		backend := tb.Server.Backend()
		backend.SetDiskSlowFactor(ev.Factor)
		line += " factor=" + strconv.FormatFloat(ev.Factor, 'g', -1, 64)
		if ev.For > 0 {
			tb.Sim.After(ev.For, func() { backend.SetDiskSlowFactor(1) })
			line += " for=" + ev.For.String()
		}
	}
	return line
}

// gather collects recovery accounting from the finished (or abandoned)
// test bed.
func (r *Report) gather(tb *nfssim.Testbed) {
	backend := tb.Server.Backend()
	r.LostBytes = backend.LostBytes()
	r.ReplayedBytes = backend.ReplayedBytes()
	r.Crashes = tb.Server.Crashes
	for _, m := range tb.Machines {
		if m.Client != nil {
			r.RewrittenBytes += m.Client.RewrittenBytes
			r.VerfChanges += m.Client.VerfChanges
			r.StaleReads += m.Client.StaleReads
			r.Invalidations += m.Client.Invalidations
			r.ChangeRegressions += m.Client.ChangeRegressions
		}
		if m.Transport != nil {
			st := m.Transport.Stats()
			r.MajorTimeouts += st.MajorTimeouts
			r.BadReplies += st.BadReplies
			r.Retransmits += st.Retransmits
		}
	}
}

// evaluate runs the scenario's assertions against the outcome.
func (r *Report) evaluate(tb *nfssim.Testbed, runErr error) {
	for _, ev := range r.Scenario.Events {
		if !ev.IsAssert() {
			continue
		}
		a := AssertResult{Name: ev.Action}
		switch ev.Action {
		case "assert_completes":
			a.Pass = runErr == nil
			if !a.Pass {
				a.Detail = "run errored: " + runErr.Error()
			}
		case "assert_error":
			a.Pass = runErr != nil
			if a.Pass {
				a.Detail = runErr.Error()
			} else {
				a.Detail = "run completed without an error"
			}
		case "assert_no_data_loss":
			a.Pass, a.Detail = r.checkNoDataLoss(tb, runErr)
		case "assert_agg_mbps_min":
			got := r.Result.AggMBps
			a.Pass = runErr == nil && got >= ev.MinMBps
			a.Detail = "agg_mbps=" + mbps(got) +
				" min=" + mbps(ev.MinMBps)
			if runErr != nil {
				a.Detail = "run errored: " + runErr.Error()
			}
		case "assert_lost_min":
			a.Pass = r.LostBytes >= ev.Bytes
			a.Detail = fmt.Sprintf("lost=%d min=%d", r.LostBytes, ev.Bytes)
		case "assert_lost_max":
			a.Pass = r.LostBytes <= ev.Bytes
			a.Detail = fmt.Sprintf("lost=%d max=%d", r.LostBytes, ev.Bytes)
		case "assert_rewritten_min":
			a.Pass = r.RewrittenBytes >= ev.Bytes
			a.Detail = fmt.Sprintf("rewritten=%d min=%d", r.RewrittenBytes, ev.Bytes)
		case "assert_replayed_min":
			a.Pass = r.ReplayedBytes >= ev.Bytes
			a.Detail = fmt.Sprintf("replayed=%d min=%d", r.ReplayedBytes, ev.Bytes)
		case "assert_stale_max":
			a.Pass = r.StaleReads <= ev.MaxStale && r.ChangeRegressions == 0
			a.Detail = fmt.Sprintf("stale=%d max=%d change_regressions=%d",
				r.StaleReads, ev.MaxStale, r.ChangeRegressions)
		}
		if !a.Pass {
			r.Failed = true
		}
		r.Asserts = append(r.Asserts, a)
	}
	// A run that errors without an assert_error expecting it is a failure
	// even with no assertions in the file.
	if runErr != nil && !r.expectsError() {
		r.Failed = true
	}
}

func (r *Report) expectsError() bool {
	for _, ev := range r.Scenario.Events {
		if ev.Action == "assert_error" {
			return true
		}
	}
	return false
}

// checkNoDataLoss verifies that every byte range the server ever acked is
// in the backend's stable storage by the end of the run — across a filer
// crash via NVRAM replay, across a knfsd crash via client rewrite.
func (r *Report) checkNoDataLoss(tb *nfssim.Testbed, runErr error) (bool, string) {
	if runErr != nil {
		return false, "run errored: " + runErr.Error()
	}
	var files int
	var ackedBytes int64
	for _, ino := range tb.Server.Names().Written() {
		received, stable := ino.Received(), ino.Stable()
		for _, rng := range received.Ranges() {
			if !stable.Contains(rng.Start, rng.End) {
				return false, fmt.Sprintf(
					"file %d: acked range %v not in stable storage (stable: %v)",
					files, rng, stable)
			}
		}
		files++
		ackedBytes += received.Total()
	}
	return true, fmt.Sprintf("%d files, %d acked bytes all stable", files, ackedBytes)
}

// mbps formats a throughput with two decimals (explicit FormatFloat so
// the rendering is pinned, not %v-dependent).
func mbps(v float64) string { return strconv.FormatFloat(v, 'f', 2, 64) }

// Render produces the report's deterministic text form.
func (r *Report) Render() string {
	var b strings.Builder
	sc := r.Scenario
	fmt.Fprintf(&b, "scenario %s: server=%s config=%s clients=%d file_mb=%d seed=%d\n",
		sc.Name, sc.bed.Server, sc.bed.Config.Name, sc.bed.Clients,
		sc.bed.FileMB, sc.bed.Seed)
	for _, line := range r.EventLog {
		fmt.Fprintf(&b, "  %s\n", line)
	}
	if r.Err != "" {
		fmt.Fprintf(&b, "  error: %s\n", r.Err)
	} else {
		fmt.Fprintf(&b, "  result: agg_mbps=%s calls=%d retransmits=%d\n",
			mbps(r.Result.AggMBps), r.Result.Calls, r.Retransmits)
	}
	fmt.Fprintf(&b, "  recovery: crashes=%d lost=%d replayed=%d rewritten=%d verf_changes=%d major_timeouts=%d bad_replies=%d\n",
		r.Crashes, r.LostBytes, r.ReplayedBytes, r.RewrittenBytes,
		r.VerfChanges, r.MajorTimeouts, r.BadReplies)
	if r.StaleReads != 0 || r.Invalidations != 0 || r.ChangeRegressions != 0 {
		fmt.Fprintf(&b, "  coherence: stale_reads=%d invalidations=%d change_regressions=%d\n",
			r.StaleReads, r.Invalidations, r.ChangeRegressions)
	}
	for _, a := range r.Asserts {
		verdict := "PASS"
		if !a.Pass {
			verdict = "FAIL"
		}
		if a.Detail != "" {
			fmt.Fprintf(&b, "  %s %s (%s)\n", verdict, a.Name, a.Detail)
		} else {
			fmt.Fprintf(&b, "  %s %s\n", verdict, a.Name)
		}
	}
	status := "PASS"
	if r.Failed {
		status = "FAIL"
	}
	fmt.Fprintf(&b, "  status: %s\n", status)
	return b.String()
}

// RunAll executes every scenario on the harness worker pool (workers
// <= 0 means one per CPU). Reports come back in scenario order
// regardless of worker count — each scenario is its own deterministic
// simulation, so the combined output is byte-identical at any pool size.
func RunAll(scs []*Scenario, workers int) []*Report {
	return harness.Ordered(len(scs), workers, func(i int) *Report { return Run(scs[i]) }, nil)
}
