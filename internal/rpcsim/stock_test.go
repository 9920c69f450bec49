package rpcsim_test

import (
	"testing"
	"time"

	nfssim "repro"
	"repro/internal/harness"
)

// A 96-client slow100 fleet times its UDP calls out and retransmits
// them, so replies land while copies of their calls still wait in the
// server's queue. When the run ends, every call record that went back
// to the simulation's stock is bound to no transport and linked to no
// call.
func TestStormLeavesStockedCallsUnbound(t *testing.T) {
	cfg, err := harness.ConfigByName("enhanced")
	if err != nil {
		t.Fatal(err)
	}
	var tb *nfssim.Testbed
	res := harness.RunScenarioOn(harness.Scenario{Server: nfssim.ServerSlow100, Config: cfg, FileMB: 1, Clients: 96,
		TimeLimit: 2 * time.Hour, Seed: 1}, func(bed *nfssim.Testbed) { tb = bed })
	if res.Retransmits == 0 {
		t.Fatal("the slow100 fleet retransmitted nothing; no storm ran")
	}
	stocked, err := tb.Machines[0].Transport.StockedCalls()
	if err != nil {
		t.Fatal(err)
	}
	if stocked == 0 {
		t.Fatal("no call record went back to the stock")
	}
	for _, m := range tb.Machines {
		if n := m.Transport.InFlight(); n != 0 {
			t.Fatalf("%s: %d calls still in flight", m.Host, n)
		}
	}
}
