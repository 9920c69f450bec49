package chaos

import (
	"path/filepath"
	"reflect"
	"testing"
	"time"

	nfssim "repro"
	"repro/internal/bonnie"
	"repro/internal/harness"
	"repro/internal/rpcsim"
)

// scenarioB reads, writes and commits on two clients: it takes page
// requests, WRITE and READ records and both kinds of call record
// (asynchronous and CallSync) from the stocks.
func scenarioB(seed int64, transport rpcsim.TransportKind) harness.Scenario {
	cfg, err := harness.ConfigByName("enhanced")
	if err != nil {
		panic(err)
	}
	return harness.Scenario{Server: nfssim.ServerLinux, Config: cfg, FileMB: 2, Clients: 2,
		Workload: bonnie.WorkloadMixed, FsyncEvery: 4, Transport: transport, Seed: seed}
}

// stormFleet is 96 clients against the 100 Mb/s server, the smallest
// slow100 fleet whose UDP calls time out and are retransmitted, so
// replies land while copies of their calls are still queued.
func stormFleet(seed int64) harness.Scenario {
	cfg, err := harness.ConfigByName("enhanced")
	if err != nil {
		panic(err)
	}
	return harness.Scenario{Server: nfssim.ServerSlow100, Config: cfg, FileMB: 1, Clients: 96,
		TimeLimit: 2 * time.Hour, Seed: seed}
}

// lossyTCP is four clients writing over TCP at 1% loss: eight stream
// endpoints draw their send windows, segment cuts and ready lists from
// one stock, and lost segments keep bytes queued until they are acked.
func lossyTCP(seed int64) harness.Scenario {
	cfg, err := harness.ConfigByName("enhanced")
	if err != nil {
		panic(err)
	}
	return harness.Scenario{Server: nfssim.ServerFiler, Config: cfg, FileMB: 2, Clients: 4,
		Transport: rpcsim.TransportTCP, Loss: 0.01, Seed: seed}
}

// Records and queue arrays a closed simulation hands to the next
// (sim.Stock) change no output. Scenario B and the lossy TCP cell run,
// then a retransmit storm and the dead-server scenario, which abandons
// calls mid-flight, leave their records in the stocks, and both run
// again on them: each pair of Results must be identical.
func TestHandedOnRecordsChangeNoOutput(t *testing.T) {
	first := harness.RunScenario(scenarioB(5, rpcsim.TransportUDP))
	firstTCP := harness.RunScenario(lossyTCP(3))
	if firstTCP.LostFrames == 0 {
		t.Fatal("the lossy TCP cell lost no frame")
	}
	if storm := harness.RunScenario(stormFleet(1)); storm.Retransmits == 0 {
		t.Fatal("the slow100 fleet retransmitted nothing; no storm ran")
	}
	scs, err := Load(filepath.Join("..", "..", "examples", "chaos", "deadserver.yaml"))
	if err != nil {
		t.Fatal(err)
	}
	if rep := Run(scs[0]); rep.Failed || rep.MajorTimeouts == 0 {
		t.Fatalf("the dead-server scenario abandoned no call:\n%s", rep.Render())
	}
	again := harness.RunScenario(scenarioB(5, rpcsim.TransportUDP))
	if !reflect.DeepEqual(first, again) {
		t.Fatalf("scenario B differs once records were handed on:\nfirst: %+v\nagain: %+v", first, again)
	}
	if again := harness.RunScenario(lossyTCP(3)); !reflect.DeepEqual(firstTCP, again) {
		t.Fatalf("the lossy TCP cell differs once records were handed on:\nfirst: %+v\nagain: %+v", firstTCP, again)
	}
}

// Simulations running at once each draw their own spares: under -race
// this shows any record two of them share, and every result must equal
// its run on one worker.
func TestConcurrentSimsDrawOwnSpares(t *testing.T) {
	scens := []harness.Scenario{
		scenarioB(5, rpcsim.TransportUDP), stormFleet(1), scenarioB(6, rpcsim.TransportTCP),
		scenarioB(7, rpcsim.TransportUDP), lossyTCP(3), scenarioB(8, rpcsim.TransportUDP),
	}
	one := (&harness.Runner{Workers: 1}).Run(scens)
	four := (&harness.Runner{Workers: 4}).Run(scens)
	for i := range scens {
		if !reflect.DeepEqual(one[i], four[i]) {
			t.Errorf("%s differs between 1 and 4 workers:\none:  %+v\nfour: %+v", scens[i].Name(), one[i], four[i])
		}
	}
}
