package core

import (
	"fmt"

	"repro/internal/mm"
	"repro/internal/nfsproto"
	"repro/internal/rangeset"
	"repro/internal/rpcsim"
	"repro/internal/sim"
	"repro/internal/xdr"
)

// Client is one NFS mount's client state: the per-inode request queues,
// the mount-wide request count the hard limit applies to, and the
// write-behind daemon.
type Client struct {
	s     *sim.Sim
	cpu   *sim.CPUPool
	bkl   *sim.Mutex
	cache *mm.PageCache
	tr    *rpcsim.Transport
	cfg   Config

	inodes []*Inode
	nextFH uint64

	// rootFH is the mount's root directory handle; attrCache maps names
	// under it to cached LOOKUP/GETATTR results (lazily allocated, so
	// workloads that never touch the metadata path carry none of it).
	rootFH    nfsproto.FileHandle
	attrCache map[string]*attrEntry

	// namedInodes keeps one persistent inode per namespace name, the
	// moral equivalent of the kernel's inode cache: the last close takes
	// a named file out of flushd's scan table but keeps its resident
	// pages and change-attribute state, so a reopen starts warm. Keyed by
	// name rather than handle so REMOVE + re-CREATE (which mints a new
	// handle) naturally misses the dead inode. Lazily allocated.
	namedInodes map[string]*Inode

	// changeProbe, when set, reads a file's current server-side change
	// counter without an RPC — omniscient ground truth the harness wires
	// in so stale reads can be counted exactly. Never used to make
	// client decisions; only to judge them.
	changeProbe func(nfsproto.FileHandle) (uint64, bool)

	// mountRequests counts outstanding (queued + in-flight) page requests
	// across the mount — the quantity MAX_REQUEST_HARD bounds.
	mountRequests int
	hardWait      *sim.WaitQueue

	// recs is the simulation's stock of Request and call records, which
	// every client of the simulation shares (records).
	recs *records

	flushWork *sim.WaitQueue
	// flushdWatermark is flushdWatermarkPages; the package's tests
	// change it.
	flushdWatermark int
	// pacedBusy marks flushd's paced WRITE as in flight; its reply clears
	// it and wakes pacedDone. flushd has at most one paced RPC out.
	pacedBusy bool
	pacedDone *sim.WaitQueue

	// Statistics. The transport counts the RPCs, per procedure
	// (rpcsim.Stats.ByProc); PagesSent counts the pages WRITEs carried.
	SoftFlushes int64 // writer-forced whole-inode flushes (soft limit)
	HardBlocks  int64 // writer sleeps on the per-mount hard limit
	PagesSent   int64
	// How often the attribute cache answered a name resolution without
	// an RPC (hits), and how often it could not (misses).
	AttrCacheHits   int64
	AttrCacheMisses int64
	// Crash-recovery counters: VerfChanges counts observed write-verifier
	// changes (server reboots); RewrittenBytes counts unstable bytes
	// re-queued for rewrite because the acking server instance died.
	VerfChanges    int64
	RewrittenBytes int64
	// Coherence counters. StaleReads counts page-cache hits served while
	// the open had skipped revalidation and the server ground truth
	// (changeProbe) already held a newer change attribute — reads a
	// strict client would have refetched. Invalidations counts cached
	// page drops triggered by an observed foreign write (wcc pre-op or
	// revalidation change mismatch). ChangeRegressions counts replies
	// whose change attribute ran backwards from what this client had
	// already seen (out-of-order replies; a server losing state would
	// also show up here).
	StaleReads        int64
	Invalidations     int64
	ChangeRegressions int64
}

// Inode is one file's client-side write state (struct inode + nfs_inode).
type Inode struct {
	FH   nfsproto.FileHandle
	size int64

	// name is the namespace name for inodes opened through OpenByName
	// ("" for anonymous Open inodes); refs counts the open File handles
	// sharing the inode.
	name string
	refs int

	// changeSeen is the newest server change attribute this client has
	// observed for the file (via GETATTR, LOOKUP, CREATE or wcc_data);
	// hasChange gates the first observation. staleOpen marks the current
	// open as trusting cached pages the server has already superseded —
	// set at open time when revalidation was skipped while the ground
	// truth probe held a newer counter, cleared by any revalidation.
	changeSeen uint64
	hasChange  bool
	staleOpen  bool

	// reqs is the sorted pending-request list; it answers every lookup.
	reqs reqList

	inflightPages int
	flushWait     *sim.WaitQueue

	// unstable records that some WRITE reply was not FILE_SYNC since the
	// last COMMIT, so durability requires a COMMIT RPC. unstableSet holds
	// the byte ranges those UNSTABLE replies acked: if the verifier
	// changes (server reboot), exactly these ranges must be re-queued and
	// rewritten (RFC 1813 §3.3.7).
	unstable    bool
	unstableSet rangeset.Set
	verf        nfsproto.WriteVerf
	hasVerf     bool

	// Read-side state. resident is the file's pages in the client's page
	// cache: pages filled by READ replies or dirtied by the write path
	// (read-after-write coherence). reading marks the pages a READ in
	// flight is fetching. Both are page bitmaps (pageSet) whose words
	// come from the simulation's records, so a write-only workload's
	// reading holds none. The reply waiters and the sequential readahead
	// window are allocated lazily on first read.
	resident pageSet
	reading  pageSet
	readWait *sim.WaitQueue
	ra       mm.Readahead
}

// NewClient builds a client on the given simulator resources. cpu and bkl
// are the client machine's processors and big kernel lock; cache is its
// page cache; tr is the RPC transport to the server.
func NewClient(s *sim.Sim, cpu *sim.CPUPool, bkl *sim.Mutex, cache *mm.PageCache, tr *rpcsim.Transport, cfg Config) *Client {
	if cfg.WSize < pageSize || cfg.WSize%pageSize != 0 {
		panic("core: wsize must be a positive multiple of the page size")
	}
	if cfg.ReadaheadMinPages == 0 && cfg.ReadaheadMaxPages == 0 {
		cfg.ReadaheadMinPages = StockReadaheadMinPages
		cfg.ReadaheadMaxPages = StockReadaheadMaxPages
	}
	// A half-specified window defaults the other bound instead of
	// silently disabling readahead (Max <= 0 means "off" to the window).
	if cfg.ReadaheadMaxPages == 0 {
		cfg.ReadaheadMaxPages = max(cfg.ReadaheadMinPages, StockReadaheadMaxPages)
	}
	if cfg.ReadaheadMinPages == 0 {
		cfg.ReadaheadMinPages = min(StockReadaheadMinPages, cfg.ReadaheadMaxPages)
	}
	if cfg.AcRegMin == 0 {
		cfg.AcRegMin = DefaultAcRegMin
	}
	if cfg.AcRegMax == 0 {
		cfg.AcRegMax = DefaultAcRegMax
	}
	if cfg.AcRegMax < cfg.AcRegMin {
		cfg.AcRegMax = cfg.AcRegMin
	}
	c := &Client{
		s: s, cpu: cpu, bkl: bkl, cache: cache, tr: tr, cfg: cfg,
		rootFH:          nfsproto.RootHandle(cfg.FSID),
		hardWait:        s.NewWaitQueue(),
		flushWork:       s.NewWaitQueue(),
		flushdWatermark: flushdWatermarkPages,
		pacedDone:       s.NewWaitQueue(),
		recs:            recordStock.Of(s),
	}
	s.Go("nfs_flushd", c.flushd)
	return c
}

// SetChangeProbe installs the server-side ground-truth probe used to
// classify cache hits as stale (see StaleReads). The probe must be
// cheap and side-effect free; it is consulted only at open time.
func (c *Client) SetChangeProbe(probe func(nfsproto.FileHandle) (uint64, bool)) {
	c.changeProbe = probe
}

// Open creates a fresh file on the mount (the benchmark always writes
// into a fresh file so that no reads are needed, §2.3).
func (c *Client) Open() *File {
	c.nextFH++
	return &File{c: c, ino: c.newInode(nfsproto.MakeFileHandle(c.cfg.FSID, c.nextFH))}
}

// newInode builds an inode for handle fh and adds it to the flushd scan
// table.
func (c *Client) newInode(fh nfsproto.FileHandle) *Inode {
	ino := &Inode{FH: fh, flushWait: c.s.NewWaitQueue()}
	c.inodes = append(c.inodes, ino)
	return ino
}

// Config returns the client's configuration.
//
//lint:allow unusedexport read by the nfssim and chaos tests of the clients a test bed builds
func (c *Client) Config() Config { return c.cfg }

// OpenExisting opens a file that already holds size bytes on the server
// with no pages resident client-side — the read workloads' cold target,
// standing in for a file written by another client or evicted from this
// one's memory.
func (c *Client) OpenExisting(size int64) *File {
	if size < 0 {
		panic("core: negative file size")
	}
	f := c.Open()
	f.ino.size = size
	return f
}

// releaseInode drops an inode from the client's inode table on last
// close, kernel-style: the final close releases the page-cache pages and
// flushd stops scanning the file. The caller (File.Close) has already
// flushed, so the inode holds no queued or in-flight requests. Without
// this release every file ever opened stayed in Client.inodes forever —
// flushd's scan was O(total files) per wakeup and closed inodes pinned
// their resident-page sets live for the whole run.
func (c *Client) releaseInode(ino *Inode) {
	if ino.Outstanding() != 0 {
		panic("core: releasing an inode with outstanding requests")
	}
	c.removeFromTable(ino)
	c.dropPages(ino)
}

// dropPages gives the page bitmaps of an inode no one opens again back
// to the stock, even if the File object lingers in caller hands
// (reads/writes after close panic anyway). readWait stays: trailing
// readahead RPCs the reader never waited for may still be in flight,
// and their readDone completions land harmlessly, clearing marks the
// empty reading set does not hold.
func (c *Client) dropPages(ino *Inode) {
	ino.resident.release(c.recs)
	ino.reading.release(c.recs)
}

// removeFromTable takes an inode out of the flushd scan table. Ordered
// removal: flushd services inodes in table order, so a swap-with-last
// delete would perturb the deterministic schedule. The vacated tail
// slot is nil'd so the backing array does not keep the shifted last
// inode reachable twice.
func (c *Client) removeFromTable(ino *Inode) {
	for i, other := range c.inodes {
		if other == ino {
			last := len(c.inodes) - 1
			copy(c.inodes[i:], c.inodes[i+1:])
			c.inodes[last] = nil
			c.inodes = c.inodes[:last]
			break
		}
	}
}

// closeInode is the last-close bookkeeping. Anonymous inodes (Open)
// are fully released: pages dropped. Named inodes (OpenByName) behave
// like the kernel's inode cache instead: the final close removes the
// file from flushd's scan table but keeps its resident pages and
// change-attribute state for the next open of the same name — which is
// what makes cross-client staleness observable at all. A named inode whose name no longer resolves to it
// (unlinked, possibly re-created, while open) is released like an
// anonymous one.
func (c *Client) closeInode(ino *Inode) {
	if ino.refs > 1 {
		ino.refs--
		return
	}
	ino.refs = 0
	if ino.name != "" && c.namedInodes[ino.name] == ino {
		if ino.Outstanding() != 0 {
			panic("core: closing an inode with outstanding requests")
		}
		c.removeFromTable(ino)
		return
	}
	c.releaseInode(ino)
}

// namedInode returns the persistent inode behind a namespace name,
// reviving the cached one when the handle still matches and minting a
// fresh inode otherwise (first open, or the name was unlinked and
// re-created so the old pages describe a dead handle). The returned
// inode is referenced and present in the flushd scan table.
func (c *Client) namedInode(name string, fh nfsproto.FileHandle) *Inode {
	if c.namedInodes == nil {
		c.namedInodes = make(map[string]*Inode)
	}
	if ino, ok := c.namedInodes[name]; ok && ino.FH == fh {
		if ino.refs == 0 {
			c.inodes = append(c.inodes, ino)
		}
		ino.refs++
		return ino
	}
	ino := c.newInode(fh)
	ino.name, ino.refs = name, 1
	c.namedInodes[name] = ino
	return ino
}

// invalidateInode drops an inode's cached pages in response to an
// observed foreign write, keeping only the pages that back
// UNSTABLE-acked byte ranges — a verifier change may yet force those
// exact bytes to be rewritten from the page cache, so discarding them
// would break crash recovery — plus the span in [keepStart, keepEnd)
// that the triggering reply itself just wrote. Safe in event context.
func (c *Client) invalidateInode(ino *Inode, keepStart, keepEnd int64) {
	c.Invalidations++
	ino.resident.clear()
	keep := func(s, e int64) {
		if e > s {
			ino.resident.add(s/pageSize, (e+pageSize-1)/pageSize, c.recs)
		}
	}
	for _, r := range ino.unstableSet.Ranges() {
		keep(r.Start, r.End)
	}
	keep(keepStart, keepEnd)
}

// noteChange folds a server-reported change attribute (from GETATTR or
// LOOKUP revalidation) into the inode. A counter newer than anything
// this client has seen means a foreign writer touched the file: cached
// pages are invalidated before the counter is adopted. An older one is
// counted as a regression and not adopted.
func (c *Client) noteChange(ino *Inode, attrs nfsproto.FileAttrs) {
	if ino.hasChange && attrs.Change < ino.changeSeen {
		c.ChangeRegressions++
		return
	}
	if ino.hasChange && attrs.Change > ino.changeSeen {
		c.invalidateInode(ino, 0, 0)
	}
	ino.changeSeen, ino.hasChange = attrs.Change, true
	if s := int64(attrs.Size); s > ino.size {
		ino.size = s
	}
}

// Outstanding returns an inode's queued plus in-flight page requests —
// the per-inode count MAX_REQUEST_SOFT bounds.
func (ino *Inode) Outstanding() int { return ino.reqs.Len() + ino.inflightPages }

// lookup charges one _nfs_find_request-equivalent lookup for the given
// inode and returns the located request, if any: the scan's cost, or one
// hash probe under IndexHashTable (fix 2).
func (c *Client) lookup(p *sim.Proc, ino *Inode, page int64) *Request {
	r, scanned := ino.reqs.Find(page)
	if c.cfg.IndexPolicy == IndexHashTable {
		c.cpu.Use(p, labelNFSFindRequestHash, hashLookup)
	} else {
		c.cpu.Use(p, labelNFSFindRequest, sim.Time(scanned)*listScanPerEntry)
	}
	return r
}

// commitPage is nfs_commit_write: record one page-sized request under the
// BKL, performing the two lookups the paper describes ("The client
// attempts to find a matching previous write request twice during each
// write() system call", §3.4). A cached request for the same page that
// the new data neither overlaps nor extends is "incompatible" and must be
// flushed before the current request, to preserve write ordering.
//
// It returns the net-new dirty bytes this write added to the cache: the
// full count for a fresh request, only the growth when an existing
// request was extended, and zero for a pure overwrite. Each queued
// request's Count therefore always equals the dirty bytes charged for it,
// so EndWriteback's credit exactly balances the charges.
func (c *Client) commitPage(p *sim.Proc, ino *Inode, page int64, offset, count int) int {
	for {
		c.bkl.Lock(p, labelNFSCommitWrite)
		c.cpu.Use(p, labelNFSCommitWrite, commitWriteBase)

		// First search: incompatible requests that would need flushing.
		existing := c.lookup(p, ino, page)

		// Second search + update/insert: nfs_update_request. Either way
		// the page ends up in the page cache, readable without an RPC.
		c.cpu.Use(p, labelNFSUpdateRequest, updateRequestBase)
		ino.resident.add(page, page+1, c.recs)
		if existing == nil {
			scanned := ino.reqs.Insert(c.recs.requests.get(page, offset, count, c.s.Now()), c.recs)
			if c.cfg.IndexPolicy == IndexLinearList {
				// The real code walks the sorted list again to insert.
				c.cpu.Use(p, labelNFSUpdateRequestScan, sim.Time(scanned)*listScanPerEntry)
			}
			c.mountRequests++
			c.bkl.Unlock(p)
			return count
		}
		if offset <= existing.Offset+existing.Count && existing.Offset <= offset+count {
			// Overlapping or adjacent: extend the cached request in place
			// (the client "usually caches only a single write request per
			// page to maintain write ordering").
			grown := existing.widen(offset, count)
			c.bkl.Unlock(p)
			return grown
		}
		// Incompatible request on the same page: flush it first, then
		// retry. (Rare: disjoint sub-page writes.)
		c.bkl.Unlock(p)
		c.flushInodeSync(p, ino)
	}
}

// chargeSpan accounts one page span under FlushCacheAll before the
// request is committed — and therefore before flushd can see it. A
// pessimistic charge of the full span blocks the writer under real
// memory pressure; charging after the queue insert instead would let
// flushd start writeback on bytes the cache had not admitted yet
// (StartWriteback outrunning the dirty counter), and a writer parked in
// ChargeDirty with the daemon asleep would wedge forever, so the writer
// kicks flushd awake before blocking.
func (c *Client) chargeSpan(p *sim.Proc, count int) {
	if c.cfg.FlushPolicy != FlushCacheAll {
		return
	}
	if c.cache.Usage()+int64(count) > c.cache.Limit() {
		c.flushWork.Signal()
	}
	c.cache.ChargeDirty(p, int64(count))
}

// creditSurplus refunds the pessimistically charged bytes commitPage
// found were not net-new (overwrites and partial extensions), so each
// queued request's Count always equals the dirty bytes held for it.
func (c *Client) creditSurplus(count, netNew int) {
	if c.cfg.FlushPolicy != FlushCacheAll {
		return
	}
	if surplus := int64(count - netNew); surplus > 0 {
		c.cache.CreditDirty(surplus)
	}
}

// enforceLimits applies the 2.4.4 write-path flushing rules after a page
// is queued (FlushLimits24), or the write-behind watermark kick
// (FlushCacheAll; the memory accounting itself happens in chargeSpan,
// before the request becomes visible to flushd).
func (c *Client) enforceLimits(p *sim.Proc, ino *Inode) {
	switch c.cfg.FlushPolicy {
	case FlushLimits24:
		// "When the per-inode request count grows larger than
		// MAX_REQUEST_SOFT the NFS client forces the writer thread to
		// schedule all pending writes for that inode and wait for their
		// completion" (§3.3).
		if ino.Outstanding() > c.cfg.MaxRequestSoft {
			c.SoftFlushes++
			c.flushInodeSync(p, ino)
		}
		// "When the per-mount request count grows larger than
		// MAX_REQUEST_HARD the NFS client puts any thread writing to that
		// file system to sleep" (§3.3).
		// Keep flushd's aging poll alive while requests are queued.
		c.flushWork.Signal()
		if c.mountRequests > c.cfg.MaxRequestHard {
			c.HardBlocks++
			for c.mountRequests > c.cfg.MaxRequestHard {
				c.hardWait.Wait(p)
			}
		}
	case FlushCacheAll:
		// Fix 1: no arbitrary limits; let flushd write behind once the
		// inode passes the watermark.
		if ino.reqs.Len() >= c.flushdWatermark {
			c.flushWork.Signal()
		}
	}
}

// sendOne coalesces the front run of an inode's queued requests into one
// WRITE RPC and hands it to the transport. Returns the number of pages
// sent (0 if the inode had nothing queued). If paced, the RPC is
// flushd's paced write: pacedBusy holds until its reply arrives. The
// caller must not hold the BKL.
func (c *Client) sendOne(p *sim.Proc, ino *Inode, paced bool) int {
	c.bkl.Lock(p, labelNFSCoalesce)
	start, pages, total, scanned := ino.reqs.PopRun(c.cfg.WSize, c.recs)
	c.cpu.Use(p, labelNFSCoalesce,
		coalesceBase+sim.Time(scanned)*listScanPerEntry)
	if pages == 0 {
		c.bkl.Unlock(p)
		return 0
	}
	ino.inflightPages += pages
	c.bkl.Unlock(p)

	if c.cfg.FlushPolicy == FlushCacheAll {
		c.cache.StartWriteback(int64(total))
	}

	wc := c.newWriteCall()
	wc.ino, wc.pages, wc.paced = ino, pages, paced
	wc.args = nfsproto.WriteArgs{
		File:   ino.FH,
		Offset: uint64(start),
		Count:  uint32(total),
		Stable: nfsproto.Unstable,
		Data:   xdr.Zeroes(total),
	}
	c.PagesSent += int64(pages)
	if paced {
		c.pacedBusy = true
	}
	c.tr.Call(p, nfsproto.ProcWrite, wc.encode, wc.reply)
	return pages
}

// writeCall is one WRITE RPC from sendOne to its reply: the args it
// encodes and the state writeDone needs. Records come from the
// simulation's stock; encode and reply are method values bound once, when
// the record is made, so a call hands the transport no new closure.
type writeCall struct {
	c      *Client
	ino    *Inode
	args   nfsproto.WriteArgs
	pages  int
	paced  bool
	encode func(*xdr.Encoder)
	reply  func(*xdr.Decoder)
}

// newWriteCall takes a WRITE record from the stock and binds it to c.
func (c *Client) newWriteCall() *writeCall {
	if wc, ok := take(&c.recs.writes); ok {
		wc.c = c
		return wc
	}
	wc := &writeCall{c: c}
	wc.encode, wc.reply = wc.args.Encode, wc.done
	return wc
}

// done is the WRITE's reply callback. rpcsim runs it at most once (it
// forgets the XID first), so it hands the record back to the stock,
// unbound; a call abandoned by a dead server never gets here and leaves
// its record to the GC.
func (wc *writeCall) done(d *xdr.Decoder) {
	c := wc.c
	c.writeDone(wc.ino, wc.pages, int(wc.args.Count), int64(wc.args.Offset), d)
	if wc.paced {
		c.pacedBusy = false
		c.pacedDone.Broadcast()
	}
	wc.c, wc.ino = nil, nil
	c.recs.writes = append(c.recs.writes, wc)
}

// writeDone runs in softirq context when a WRITE reply arrives. start is
// the file byte offset of the RPC's coalesced run, recorded so unstable
// replies can be re-queued byte-exactly if the server later reboots.
func (c *Client) writeDone(ino *Inode, pages, bytes int, start int64, d *xdr.Decoder) {
	res, err := nfsproto.DecodeWriteRes(d)
	if err != nil {
		panic(fmt.Sprintf("core: bad WRITE reply: %v", err))
	}
	if res.Status != nfsproto.NFS3OK {
		panic(fmt.Sprintf("core: WRITE failed: %v", res.Status))
	}
	if int(res.Count) != bytes {
		panic(fmt.Sprintf("core: short WRITE: %d of %d", res.Count, bytes))
	}
	requeued := false
	if ino.hasVerf && res.Verf != ino.verf {
		// The server rebooted: every byte acked UNSTABLE under the old
		// verifier may be gone from the server. Re-queue those ranges for
		// rewrite before adopting the new verifier.
		requeued = c.redirtyUnstable(ino) > 0
	}
	ino.verf, ino.hasVerf = res.Verf, true
	if res.Committed == nfsproto.Unstable {
		ino.unstable = true
		ino.unstableSet.Add(start, start+int64(bytes))
	}

	// Weak cache consistency: the reply's pre-op change attribute tells
	// us what the file looked like just before our write landed. The
	// comparison is only meaningful when this reply is the client's sole
	// outstanding write — with several WRITEs in flight the server
	// interleaves them, and each one's pre-op legitimately reflects its
	// siblings, not a foreign writer. In the gated case a pre-op newer
	// than everything we have seen can only be someone else's write:
	// drop cached pages (except what durability still needs). The
	// post-op arm is adopted as a high-water mark either way.
	if res.Wcc.HavePre && ino.hasChange && ino.inflightPages == pages && ino.reqs.Empty() {
		switch {
		case res.Wcc.Pre.Change > ino.changeSeen:
			c.invalidateInode(ino, start, start+int64(bytes))
		case res.Wcc.Pre.Change < ino.changeSeen:
			c.ChangeRegressions++
		}
	}
	if res.Wcc.HavePost && (!ino.hasChange || res.Wcc.Post.Change > ino.changeSeen) {
		ino.changeSeen, ino.hasChange = res.Wcc.Post.Change, true
	}

	ino.inflightPages -= pages
	c.mountRequests -= pages
	if c.cfg.FlushPolicy == FlushCacheAll {
		c.cache.EndWriteback(int64(bytes))
	}
	if c.mountRequests <= c.cfg.MaxRequestHard {
		c.hardWait.Broadcast()
	}
	if ino.Outstanding() == 0 || requeued {
		// A requeue refills the request list: flushers parked in
		// flushWait must wake and see the new work.
		ino.flushWait.Broadcast()
	}
	if requeued {
		c.flushWork.Signal()
	}
}

// redirtyUnstable re-queues every byte range acked UNSTABLE under the old
// write verifier: the server instance that acked them is gone, so the
// only copy is the client's page cache (pages stay resident until COMMIT
// succeeds — that is what makes this recovery possible). Runs in event
// context: no CPU or BKL charges, no blocking. Returns the bytes
// re-queued.
func (c *Client) redirtyUnstable(ino *Inode) int64 {
	c.VerfChanges++
	total := ino.unstableSet.Total()
	if total == 0 {
		return 0
	}
	c.RewrittenBytes += total
	for _, r := range ino.unstableSet.Ranges() {
		for off := r.Start; off < r.End; {
			page := off / pageSize
			end := (page + 1) * pageSize
			if end > r.End {
				end = r.End
			}
			c.queueRewrite(ino, page, int(off-page*pageSize), int(end-off))
			off = end
		}
	}
	ino.unstableSet = rangeset.Set{}
	ino.unstable = false
	return total
}

// queueRewrite re-inserts one page-sized span into the inode's request
// queue — the kernel re-marking pages dirty from an RPC completion. Any
// existing request on the page is widened to the union (no flush of
// "incompatible" requests is possible in event context).
func (c *Client) queueRewrite(ino *Inode, page int64, offset, count int) {
	if existing, _ := ino.reqs.Find(page); existing != nil {
		if grown := existing.widen(offset, count); grown > 0 && c.cfg.FlushPolicy == FlushCacheAll {
			c.cache.ForceDirty(int64(grown))
		}
		return
	}
	ino.reqs.Insert(c.recs.requests.get(page, offset, count, c.s.Now()), c.recs)
	c.mountRequests++
	if c.cfg.FlushPolicy == FlushCacheAll {
		c.cache.ForceDirty(int64(count))
	}
}

// flushInodeSync schedules every queued request of the inode and waits
// for all outstanding requests to complete — the writer-side whole-inode
// flush behind the Figure 2 latency spikes, and the mechanism of fsync.
func (c *Client) flushInodeSync(p *sim.Proc, ino *Inode) {
	for ino.Outstanding() > 0 {
		if ino.reqs.Len() > 0 {
			c.sendOne(p, ino, false) // blocks when the slot table is full
			continue
		}
		ino.flushWait.Wait(p)
	}
}

// commitSync issues a COMMIT for the whole file and waits for the reply.
// It returns false when the commit discovered a server reboot (verifier
// mismatch): the unstable ranges were re-queued for rewrite and the
// caller must flush and commit again.
func (c *Client) commitSync(p *sim.Proc, ino *Inode) bool {
	args := nfsproto.CommitArgs{File: ino.FH, Offset: 0, Count: 0}
	res, err := rpcsim.CallSync(c.tr, p, nfsproto.ProcCommit, args.Encode, nfsproto.DecodeCommitRes)
	if err != nil || res.Status != nfsproto.NFS3OK {
		panic(fmt.Sprintf("core: COMMIT failed: %v %v", res, err))
	}
	if ino.hasVerf && res.Verf != ino.verf {
		ino.verf = res.Verf
		c.redirtyUnstable(ino)
		c.flushWork.Signal()
		return false
	}
	ino.unstable = false
	ino.unstableSet = rangeset.Set{}
	return true
}

const (
	// flushdWatermarkPages is how many dirty pages of a file accumulate
	// before the write-behind daemon starts sending them (FlushCacheAll).
	flushdWatermarkPages = 8
	// flushdAge is the age beyond which the 2.4.4 flushd writes requests
	// back (FlushLimits24; fs/nfs/flushd.c used ~1 s).
	flushdAge sim.Time = 1_000_000_000 // 1 s
	// memoryPressureWindow is how many RPC slots flushd may fill when the
	// page cache is near its limit (urgent writeback); below pressure it
	// uses a single slot, modeling 2.4's lone rpciod worker pacing
	// write-behind to one async task at a time.
	memoryPressureWindow = 16
)

// flushd is nfs_flushd, the write-behind daemon. Under FlushCacheAll it
// writes behind the application once the watermark is reached, normally
// one async RPC at a time (2.4's single rpciod), opening up to
// memoryPressureWindow slots when the page cache nears its limit. Under
// FlushLimits24 it only writes back requests older than flushdAge, as
// fs/nfs/flushd.c did — during the benchmark the write-path limits fire
// long before any request grows that old.
func (c *Client) flushd(p *sim.Proc) {
	for {
		ino := c.pickFlushable()
		if ino == nil {
			if c.cfg.FlushPolicy == FlushLimits24 && c.queuedAnywhere() {
				// Requests exist but none are old enough yet; poll.
				p.Sleep(flushdAge / 4)
				continue
			}
			c.flushWork.Wait(p)
			continue
		}
		if c.cfg.FlushPolicy == FlushCacheAll && c.underMemoryPressure() {
			// Urgent writeback: fill the slot table.
			for i := 0; i < memoryPressureWindow; i++ {
				if ino.reqs.Len() == 0 {
					break
				}
				c.sendOne(p, ino, false)
			}
			continue
		}
		// Paced write-behind: one async task outstanding at a time.
		c.sendOneAndAwait(p, ino)
	}
}

// sendOneAndAwait sends one RPC and waits for its reply, pacing flushd at
// one in-flight async task (2.4's single rpciod worker).
func (c *Client) sendOneAndAwait(p *sim.Proc, ino *Inode) {
	if c.sendOne(p, ino, true) == 0 {
		return
	}
	for c.pacedBusy {
		c.pacedDone.Wait(p)
	}
}

// queuedAnywhere reports whether any inode has queued requests.
func (c *Client) queuedAnywhere() bool {
	for _, ino := range c.inodes {
		if !ino.reqs.Empty() {
			return true
		}
	}
	return false
}

func (c *Client) underMemoryPressure() bool {
	// A parked writer is definitive pressure: its pending charge is not
	// yet in Usage, so with a cache limit that is not a multiple of the
	// write size the 90% threshold alone can sit just below the park
	// point and never trip.
	return c.cache.Usage() >= c.cache.Limit()*9/10 || c.cache.Throttled()
}

// pickFlushable returns an inode flushd should service now, or nil.
func (c *Client) pickFlushable() *Inode {
	for _, ino := range c.inodes {
		if ino.reqs.Empty() {
			continue
		}
		switch c.cfg.FlushPolicy {
		case FlushCacheAll:
			if ino.reqs.Len() >= c.flushdWatermark || c.underMemoryPressure() {
				return ino
			}
		case FlushLimits24:
			if oldest := ino.reqs.Front(); c.s.Now()-oldest.CreatedAt >= flushdAge {
				return ino
			}
		}
	}
	return nil
}
