package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"time"

	nfssim "repro"
	"repro/internal/bonnie"
	"repro/internal/harness"
)

// hostNow reads the host clock. Host time is what this benchmark
// measures; it only ever feeds the benchmark's own metrics, never a
// simulated result.
func hostNow() time.Time { return time.Now() } //lint:allow walltime host time is the benchmark's measurand

// opRecord is one op: its host-clock marks, the work it simulated, the
// per-layer counts it produced, and why it failed (nil if it passed).
type opRecord struct {
	// start → built is testbed assembly (up to the prepare hook), built →
	// ran the simulation, ran → checked the benchmark's output check.
	start, built, ran, checked time.Time
	// calTime is the calibration run after the op, calUnits units of it;
	// scale converts the op's host times to reference-host times (see
	// calib.go).
	calTime  time.Duration
	calUnits int
	scale    float64
	mib      float64 // FileMB × Clients
	counts   counts
	err      error
}

func (r opRecord) opTime() time.Duration { return r.ran.Sub(r.start) }

// ms is d in reference-host milliseconds.
func (r opRecord) ms(d time.Duration) float64 {
	return float64(d) / float64(time.Millisecond) * r.scale
}

// counts are the per-layer counts one op produced. They are deterministic
// per scenario and seed.
type counts struct {
	cpuUseCalls, bklContentions int64
	frames, framesDropped       int64
	rpcCalls, retransmits       int64
	dupReplies, slotWaits       int64
	softFlushes, hardBlocks     int64
	getattrRPCs                 int64
	attrHits, attrMisses        int64
	readHits, readMisses        int64
	serverWrites, serverBytes   int64
	syscalls                    int64
}

func (c *counts) add(o counts) {
	c.cpuUseCalls += o.cpuUseCalls
	c.bklContentions += o.bklContentions
	c.frames += o.frames
	c.framesDropped += o.framesDropped
	c.rpcCalls += o.rpcCalls
	c.retransmits += o.retransmits
	c.dupReplies += o.dupReplies
	c.slotWaits += o.slotWaits
	c.softFlushes += o.softFlushes
	c.hardBlocks += o.hardBlocks
	c.getattrRPCs += o.getattrRPCs
	c.attrHits += o.attrHits
	c.attrMisses += o.attrMisses
	c.readHits += o.readHits
	c.readMisses += o.readMisses
	c.serverWrites += o.serverWrites
	c.serverBytes += o.serverBytes
	c.syscalls += o.syscalls
}

func countsOf(res harness.Result, tb *nfssim.Testbed) counts {
	c := counts{
		retransmits: res.Retransmits,
		dupReplies:  res.DupReplies,
		slotWaits:   res.SlotWaits,
		softFlushes: res.SoftFlushes,
		hardBlocks:  res.HardBlocks,
		getattrRPCs: res.GetattrRPCs,
		attrHits:    res.AttrCacheHits,
		attrMisses:  res.AttrCacheMisses,
		readHits:    res.ReadHits,
		readMisses:  res.ReadMisses,
		syscalls:    int64(res.Calls),
	}
	for _, e := range tb.Sim.Profiler().Top(0) {
		c.cpuUseCalls += int64(e.Calls)
	}
	for _, m := range tb.Machines {
		c.bklContentions += int64(m.BKL.Contentions)
		if m.Transport != nil {
			c.rpcCalls += m.Transport.Stats().Calls
		}
	}
	net := tb.Net.Totals()
	c.frames, c.framesDropped = net.FramesSent, net.FramesDropped
	if tb.Server != nil {
		c.serverWrites, c.serverBytes = tb.Server.Writes, tb.Server.BytesWritten
	}
	return c
}

// runOp runs one scenario through the harness and records it. A panic is
// recovered and recorded as the op's failure. inject, when set, runs in
// the prepare hook (tests use it to plant a fault).
func runOp(sc harness.Scenario, inject func(*nfssim.Testbed)) (rec opRecord, res harness.Result) {
	rec.mib = float64(sc.FileMB * max(sc.Clients, 1))
	rec.start = hostNow()
	var tb *nfssim.Testbed
	func() {
		defer func() {
			if r := recover(); r != nil {
				rec.err = fmt.Errorf("panic: %v", r)
			}
		}()
		res = harness.RunScenarioOn(sc, func(b *nfssim.Testbed) {
			rec.built = hostNow()
			tb = b
			if inject != nil {
				inject(b)
			}
		})
	}()
	rec.ran = hostNow()
	if rec.built.IsZero() {
		rec.built = rec.ran
	}
	if rec.err == nil {
		rec.counts = countsOf(res, tb)
		rec.err = check(sc, res, tb)
	}
	return rec, res
}

// check applies the invariants every op's output must satisfy.
func check(sc harness.Scenario, res harness.Result, tb *nfssim.Testbed) error {
	clients := max(sc.Clients, 1)
	if want := sc.FileMB * 128 * clients; res.Calls != want { // 8 KB calls
		return fmt.Errorf("calls %d, want %d", res.Calls, want)
	}
	if math.IsNaN(res.AggMBps) || math.IsInf(res.AggMBps, 0) || res.AggMBps <= 0 {
		return fmt.Errorf("aggregate throughput %v", res.AggMBps)
	}
	if !(res.Fairness > 0 && res.Fairness <= 1) {
		return fmt.Errorf("fairness %v outside (0, 1]", res.Fairness)
	}
	fullWrite := !sc.SkipFlushClose &&
		(sc.Workload == bonnie.WorkloadWrite || sc.Workload == bonnie.WorkloadRandWrite)
	if want := int64(sc.FileMB) << 20 * int64(clients); fullWrite && tb.Server != nil && tb.Server.BytesWritten < want {
		return fmt.Errorf("server wrote %d bytes of %d", tb.Server.BytesWritten, want)
	}
	if sc.Loss == 0 && clients == 1 && res.Retransmits != 0 {
		return fmt.Errorf("%d retransmits on a lossless single-client run", res.Retransmits)
	}
	return nil
}

// digest hashes a fixed list of Result fields. Adding a Result field later
// leaves every recorded digest unchanged.
func digest(r harness.Result) string {
	h := sha256.New()
	put := func(s string) {
		io.WriteString(h, s)
		h.Write([]byte{0})
	}
	f := func(x float64) { put(strconv.FormatFloat(x, 'g', -1, 64)) }
	n := func(x int64) { put(strconv.FormatInt(x, 10)) }
	put(r.Name)
	n(int64(r.Calls))
	for _, x := range []float64{r.WriteMBps, r.FlushMBps, r.CloseMBps,
		r.MeanLatUs, r.MedianLatUs, r.P95LatUs, r.P99LatUs, r.MaxLatUs,
		r.FsyncUs, r.AttrCacheHitRate, r.ServerNetMBps, r.SendCPUUs,
		r.AggMBps, r.Fairness, r.MinClientMBps, r.MaxClientMBps, r.SlotWaitUs} {
		f(x)
	}
	for _, x := range []int64{r.SoftFlushes, r.HardBlocks, r.RPCsSent, r.Retransmits,
		r.DupReplies, r.LostFrames, r.ReadRPCs, r.ReadHits, r.ReadMisses,
		r.CommitRPCs, r.FsyncCount, r.LookupRPCs, r.GetattrRPCs, r.CreateRPCs,
		r.RemoveRPCs, r.AttrCacheHits, r.AttrCacheMisses, r.StaleReads,
		r.Invalidations, r.ChangeBumps, r.SlotWaits} {
		n(x)
	}
	for _, x := range r.PerClientMBps {
		f(x)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// digestSeed is the seed the recorded digests belong to.
const digestSeed = 1

// digestPath is where -update-digests writes, relative to the bench
// directory.
const digestPath = "testdata/digests_seed1.txt"

//go:embed testdata/digests_seed1.txt
var recordedDigests []byte

// expected is one recorded op: its scenario name and digest.
type expected struct{ name, digest string }

// parseDigests reads "workload index name digest" lines into a per-workload
// list indexed by op.
func parseDigests(data []byte) (map[string][]expected, error) {
	out := make(map[string][]expected)
	sc := bufio.NewScanner(bytes.NewReader(data))
	for line := 1; sc.Scan(); line++ {
		f := strings.Fields(sc.Text())
		if len(f) == 0 {
			continue
		}
		if len(f) != 4 {
			return nil, fmt.Errorf("digests line %d: want 4 fields, got %d", line, len(f))
		}
		i, err := strconv.Atoi(f[1])
		if err != nil || i != len(out[f[0]]) {
			return nil, fmt.Errorf("digests line %d: op index %q out of order", line, f[1])
		}
		out[f[0]] = append(out[f[0]], expected{f[2], f[3]})
	}
	return out, sc.Err()
}

// formatDigest is one line of the digest file.
func formatDigest(wl string, i int, res harness.Result) string {
	return fmt.Sprintf("%s %d %s %s\n", wl, i, res.Name, digest(res))
}
