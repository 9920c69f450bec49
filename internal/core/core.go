// Package core implements the paper's primary contribution: the Linux NFS
// client write path, in both its stock 2.4.4 form and with the paper's
// three fixes applied, each independently switchable.
//
// The write path models, faithfully to §3.3–§3.5:
//
//   - Page-granular write requests: "The Linux VFS layer passes write
//     requests no larger than a page to file systems, one at a time"; an
//     8 KB write() is two requests.
//   - A per-inode request list sorted by page offset, scanned linearly by
//     _nfs_find_request from both nfs_find_request and nfs_update_request
//     (IndexLinearList), or supplemented by a hash table keyed on
//     (inode, page offset) at a cost of "eight bytes per request and eight
//     bytes per inode" (IndexHashTable — fix 2). Fix 2 is modeled as a
//     cost: one sorted list answers every lookup, and the policy picks
//     whether a lookup is charged the scan or one hash probe.
//   - The 2.4.4 memory-bounding limits: MAX_REQUEST_SOFT = 192 per inode
//     (writer synchronously flushes everything and waits) and
//     MAX_REQUEST_HARD = 256 per mount (writer sleeps)
//     (FlushLimits24 — the cause of the Figure 2 latency spikes), or
//     cache-until-memory-pressure (FlushCacheAll — fix 1).
//   - nfs_flushd, the write-behind daemon, whose async sends contend with
//     the writer for the BKL (§3.5); the BKL discipline around
//     sock_sendmsg is rpcsim.LockPolicy (fix 3).
package core

import (
	"repro/internal/rpcsim"
	"repro/internal/sim"
)

// Profiler and BKL labels for the client's code paths.
var (
	labelNFSFindRequestHash   = sim.NewLabel("nfs_find_request(hash)")
	labelNFSFindRequest       = sim.NewLabel("nfs_find_request")
	labelNFSCommitWrite       = sim.NewLabel("nfs_commit_write")
	labelNFSUpdateRequest     = sim.NewLabel("nfs_update_request")
	labelNFSUpdateRequestScan = sim.NewLabel("nfs_update_request(scan)")
	labelNFSCoalesce          = sim.NewLabel("nfs_coalesce")
	labelNFSLookup            = sim.NewLabel("nfs_lookup")
	labelNFSRemove            = sim.NewLabel("nfs_remove")
	labelNFSReadpage          = sim.NewLabel("nfs_readpage")
)

// FlushPolicy selects how the client bounds cached write requests.
type FlushPolicy int

const (
	// FlushLimits24 is the stock 2.4.4 behaviour: fixed per-inode and
	// per-mount request-count limits enforced in the write path.
	FlushLimits24 FlushPolicy = iota
	// FlushCacheAll is fix 1: "the client should cache as many requests
	// as it can in available memory"; only memory pressure (or an
	// explicit flush) forces writes out.
	FlushCacheAll
)

func (f FlushPolicy) String() string {
	if f == FlushCacheAll {
		return "cache-all"
	}
	return "2.4.4-limits"
}

// IndexPolicy selects which pending-request lookup structure the cost
// model charges for.
type IndexPolicy int

const (
	// IndexLinearList is the stock structure: the sorted per-inode list is
	// scanned linearly on every lookup.
	IndexLinearList IndexPolicy = iota
	// IndexHashTable is fix 2: a hash table keyed by (inode, page offset)
	// supplements the list, making lookups O(1). The client charges a
	// lookup HashLookup instead of the scan and skips the insert scan.
	IndexHashTable
)

func (i IndexPolicy) String() string {
	if i == IndexHashTable {
		return "hash"
	}
	return "list"
}

// Paper constants (§3.3, §3.1).
const (
	// MaxRequestSoft is MAX_REQUEST_SOFT in the 2.4.4 kernel.
	MaxRequestSoft = 192
	// MaxRequestHard is MAX_REQUEST_HARD in the 2.4.4 kernel.
	MaxRequestHard = 256
	// DefaultWSize is the mount's wsize (rsize=wsize=8192, §3.1).
	DefaultWSize = 8192
)

// Readahead sizing (pages). The stock 2.4 client's NFS readahead rides
// the generic file readahead with a modest cap; the enhanced client uses
// a larger window — the read-side analog of replacing the write-path
// request limits with cache-until-memory-pressure.
const (
	StockReadaheadMinPages = 2
	StockReadaheadMaxPages = 16

	EnhancedReadaheadMinPages = 4
	EnhancedReadaheadMaxPages = 64

	// ReadaheadOff, assigned to Config.ReadaheadMaxPages, disables
	// readahead entirely: every miss fetches one demand rsize chunk and
	// the reader waits for it (the ablation baseline).
	ReadaheadOff = -1
)

// ConsistencyMode selects how aggressively the client revalidates cached
// data against the server on open (close-to-open consistency).
type ConsistencyMode int

const (
	// ConsistencyTTL is the Linux default: cached attributes are trusted
	// for the adaptive acregmin..acregmax window and opens revalidate only
	// once the window expires. Staleness is bounded by the window.
	ConsistencyTTL ConsistencyMode = iota
	// ConsistencyStrict revalidates with GETATTR on every open, so a
	// reader can never consume pages a foreign writer has already
	// replaced — at the cost of one RPC per open.
	ConsistencyStrict
	// ConsistencyNoac never revalidates on open: cached pages and
	// attributes are trusted until this client itself writes. Staleness
	// is unbounded. Note the inversion versus mount -o noac, which
	// disables the cache (our AcOff) — here "noac" means no attribute
	// *checking*, the other extreme.
	ConsistencyNoac
)

// consistencyNames is each mode's name, as String prints it and
// the harness axis table reads it.
var consistencyNames = [...]string{ConsistencyTTL: "ttl", ConsistencyStrict: "strict", ConsistencyNoac: "noac"}

func (m ConsistencyMode) String() string {
	if uint(m) < uint(len(consistencyNames)) {
		return consistencyNames[m]
	}
	return consistencyNames[ConsistencyTTL]
}

// Attribute-cache timeouts (virtual time), matching the Linux mount
// defaults acregmin=3s, acregmax=60s. A cached attribute result is
// trusted for an adaptive window that starts at the minimum and doubles
// toward the maximum each time revalidation finds the file unchanged.
const (
	DefaultAcRegMin = 3_000_000_000  // 3 s
	DefaultAcRegMax = 60_000_000_000 // 60 s

	// AcOff, assigned to Config.AcRegMin, disables the attribute cache
	// entirely: every open, stat and lookup goes to the server (the
	// ablation baseline, mount -o noac).
	AcOff = -1
)

// The client-side CPU model for the NFS-specific write path, calibrated
// (together with vfs's syscall costs and rpcsim's socket costs) to the
// paper's 933 MHz P-III client. Per-byte figures match the paper; see
// DESIGN.md §2 for the calibration notes. nfs_readpage and the metadata
// operations charge their own constants (read.go, attr.go).
const (
	// commitWriteBase is nfs_commit_write bookkeeping, held under the BKL.
	commitWriteBase sim.Time = 3_000 // 3 µs
	// updateRequestBase is nfs_update_request's fixed work (allocation,
	// list insert) beyond the lookup scans.
	updateRequestBase sim.Time = 8_000 // 8 µs
	// listScanPerEntry is _nfs_find_request's cost per list entry
	// traversed (IndexLinearList).
	listScanPerEntry sim.Time = 15 // 15 ns per entry
	// hashLookup is the per-lookup cost with IndexHashTable.
	hashLookup sim.Time = 500 // 0.5 µs
	// coalesceBase is the fixed cost of gathering requests into one RPC.
	coalesceBase sim.Time = 10_000 // 10 µs
)

// Config selects the client's policies and parameters.
type Config struct {
	// WSize is the mount's transfer size for both WRITE and READ: the
	// paper mounts with rsize=wsize.
	WSize          int
	MaxRequestSoft int
	MaxRequestHard int
	FlushPolicy    FlushPolicy
	IndexPolicy    IndexPolicy
	// LockPolicy is applied to the RPC transport (fix 3).
	LockPolicy rpcsim.LockPolicy

	// ReadaheadMinPages/MaxPages size the per-inode sequential readahead
	// window (see mm.Readahead): misses on a sequential run double the
	// window from min to max; a seek resets it. A zero field takes the
	// stock sizing (so setting only one bound never disables the
	// window); ReadaheadMaxPages = ReadaheadOff disables readahead.
	ReadaheadMinPages int
	ReadaheadMaxPages int

	// FSID identifies this mount in the file handles the client builds
	// (nfssim.NewTestbed defaults it to 1). Multi-client test beds offset
	// it by the machine index so handles from different clients never
	// collide in the shared server's per-file state.
	FSID uint64

	// AcRegMin/AcRegMax bound the attribute-cache timeout (acregmin /
	// acregmax). Zero takes the Linux mount defaults (3 s / 60 s);
	// AcRegMin = AcOff disables attribute caching entirely, so every
	// name-based open, stat and lookup revalidates at the server.
	AcRegMin sim.Time
	AcRegMax sim.Time

	// Consistency selects the open-time revalidation discipline (see
	// ConsistencyMode). The zero value is the Linux ttl default.
	Consistency ConsistencyMode

	// FlushdWatermarkPages is how many dirty pages accumulate before the
	// write-behind daemon starts sending (FlushCacheAll).
	FlushdWatermarkPages int
}

// Stock244Config returns the unmodified 2.4.4 client: limit-based
// flushing, linear list, BKL held across sock_sendmsg.
func Stock244Config() Config {
	return Config{
		WSize:                DefaultWSize,
		MaxRequestSoft:       MaxRequestSoft,
		MaxRequestHard:       MaxRequestHard,
		FlushPolicy:          FlushLimits24,
		IndexPolicy:          IndexLinearList,
		LockPolicy:           rpcsim.HoldBKLAcrossSend,
		ReadaheadMinPages:    StockReadaheadMinPages,
		ReadaheadMaxPages:    StockReadaheadMaxPages,
		FlushdWatermarkPages: 8,
	}
}

// NoLimitsConfig returns the client after fix 1 only (Figure 3):
// cache-all flushing but still the linear list and the BKL.
func NoLimitsConfig() Config {
	c := Stock244Config()
	c.FlushPolicy = FlushCacheAll
	return c
}

// HashConfig returns the client after fixes 1+2 (Figure 4): cache-all
// flushing and the hash table, BKL still held across sends.
func HashConfig() Config {
	c := NoLimitsConfig()
	c.IndexPolicy = IndexHashTable
	return c
}

// EnhancedConfig returns the fully patched client (Figures 6 and 7,
// Table 1 "No lock"): all three fixes, plus the enhanced readahead
// sizing on the read side.
func EnhancedConfig() Config {
	c := HashConfig()
	c.LockPolicy = rpcsim.ReleaseBKLForSend
	c.ReadaheadMinPages = EnhancedReadaheadMinPages
	c.ReadaheadMaxPages = EnhancedReadaheadMaxPages
	return c
}
