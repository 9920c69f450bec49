package core_test

import (
	"fmt"
	"testing"
	"time"

	nfssim "repro"
	"repro/internal/core"
	"repro/internal/nfsproto"
	"repro/internal/sim"
)

// churn creates, writes, closes, and removes n distinct files in
// sequence and returns the high-water mark of the client's inode table
// during the run.
func churn(t *testing.T, tb *nfssim.Testbed, n int) int {
	t.Helper()
	maxInodes := 0
	tb.Sim.Go("churn", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			name := fmt.Sprintf("churn%06d", i)
			f := tb.Machines[0].Client.OpenByName(p, name)
			f.WriteAt(p, f.Size(), 8192)
			if got := tb.Machines[0].Client.OpenInodes(); got > maxInodes {
				maxInodes = got
			}
			f.Close(p)
			if !tb.Machines[0].Client.Remove(p, name) {
				t.Errorf("file %d vanished before remove", i)
			}
		}
	})
	tb.Sim.Run(4 * time.Hour)
	return maxInodes
}

// Churn regression: creating and destroying thousands of files must not
// grow any per-client state with the total number of files ever created.
// The inode table — the set flushd's pickFlushable/queuedAnywhere scan
// on every wakeup — must stay bounded by the files open at one instant,
// and removing a file must drop its attribute-cache entry.
func TestChurnBoundedState(t *testing.T) {
	const files = 2000
	tb := newBed(t, nfssim.ServerFiler, core.EnhancedConfig())
	maxInodes := churn(t, tb, files)
	if maxInodes > 1 {
		t.Errorf("inode table reached %d entries with 1 file open at a time", maxInodes)
	}
	if got := tb.Machines[0].Client.OpenInodes(); got != 0 {
		t.Errorf("%d inodes left after all files were closed and removed", got)
	}
	if got := tb.Machines[0].Client.AttrCacheLen(); got != 0 {
		t.Errorf("%d attribute-cache entries left after removing every file", got)
	}
	if got := tb.Machines[0].Client.MountRequests(); got != 0 {
		t.Errorf("%d write requests still tracked after churn", got)
	}
	if got := int(tb.Machines[0].Client.RPCs(nfsproto.ProcCreate)); got != files {
		t.Errorf("CreateRPCs = %d, want %d", got, files)
	}
	if got := int(tb.Machines[0].Client.RPCs(nfsproto.ProcRemove)); got != files {
		t.Errorf("RemoveRPCs = %d, want %d", got, files)
	}
}

// The flushd wakeup cost is its scan over the inode table, so the
// table's high-water mark is the per-wakeup work. Quadrupling the total
// files ever created must leave that mark unchanged — the scan scales
// with concurrently open files, not with history. (Before the PR-4
// release fix, closed inodes stayed in the table and the mark equaled
// the total created.)
func TestChurnFlushdScanDoesNotScale(t *testing.T) {
	small := churn(t, newBed(t, nfssim.ServerFiler, core.EnhancedConfig()), 250)
	large := churn(t, newBed(t, nfssim.ServerFiler, core.EnhancedConfig()), 1000)
	if small != large {
		t.Fatalf("flushd scan-set high-water mark grew with total files: %d at 250 files vs %d at 1000", small, large)
	}
}

// Churn on the stock 2.4.4 config: the write-path limits and linear
// request list must not change the lifecycle invariants — state still
// drains to zero when every file is closed and removed.
func TestChurnStockConfig(t *testing.T) {
	tb := newBed(t, nfssim.ServerFiler, core.Stock244Config())
	churn(t, tb, 300)
	if got := tb.Machines[0].Client.OpenInodes(); got != 0 {
		t.Errorf("%d inodes left after stock-config churn", got)
	}
	if got := tb.Machines[0].Client.MountRequests(); got != 0 {
		t.Errorf("%d requests left after stock-config churn", got)
	}
}
