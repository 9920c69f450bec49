package core

import (
	"fmt"

	"repro/internal/mm"
	"repro/internal/nfsproto"
	"repro/internal/sim"
	"repro/internal/xdr"
)

// The client read path: generic_file_read asks nfs_readpage for each
// page; a resident page is a cache hit served from memory, a miss issues
// an async READ RPC for the rsize chunk containing the page plus the
// inode's current readahead window, then sleeps until the demand page's
// reply lands. The readahead window (mm.Readahead) grows on sequential
// access and collapses on seeks, so sequential readers stream rsize READs
// ahead of the application — the read-side dual of the paper's
// write-behind — while random readers pay one demand fetch per miss.

// ensureReadState lazily allocates an inode's read-side structures, so
// write-only workloads (every pre-read-path scenario) carry only the
// resident-page set the write path itself populates.
func (c *Client) ensureReadState(ino *Inode) {
	if ino.readWait != nil {
		return
	}
	ino.readWait = c.s.NewWaitQueue()
	ino.ra = mm.Readahead{Min: c.cfg.ReadaheadMinPages, Max: c.cfg.ReadaheadMaxPages}
}

// readPageBase is nfs_readpage's bookkeeping per page (cache lookup,
// readahead state update), held under the BKL.
const readPageBase sim.Time = 2_000 // 2 µs

// readPage is nfs_readpage: make one page resident. The lookup and
// readahead bookkeeping run under the BKL like the write path's request
// lookups; the RPC wait does not (sleeping paths drop the lock).
func (c *Client) readPage(p *sim.Proc, ino *Inode, page int64) {
	c.ensureReadState(ino)
	c.bkl.Lock(p, labelNFSReadpage)
	c.cpu.Use(p, labelNFSReadpage, readPageBase)
	hit := ino.resident.has(page)
	c.cache.NoteRead(hit)
	if hit && ino.staleOpen {
		// Served from cache during an open that skipped revalidation
		// while the server already held newer data: a strict client
		// would have refetched this page.
		c.StaleReads++
	}
	ahead := ino.ra.Access(page)
	c.bkl.Unlock(p)
	if hit {
		return
	}
	// Demand chunk plus the readahead window, all as async READs; the
	// reader only waits for the page it needs, so the window's fetches
	// overlap with consumption of earlier pages.
	c.sendReads(p, ino, page, c.cfg.WSize/pageSize+ahead)
	for !ino.resident.has(page) {
		ino.readWait.Wait(p)
	}
}

// sendReads issues async READ RPCs covering pages [start, start+pages),
// clamped to the file's last page, in runs of at most rsize, skipping
// pages already resident or already being fetched. Each Call may block on
// the transport's slot table — RPC slots are the readahead's natural
// throttle, as in the 2.4 client.
func (c *Client) sendReads(p *sim.Proc, ino *Inode, start int64, pages int) {
	pagesPerRPC := c.cfg.WSize / pageSize
	end := start + int64(pages)
	if last := (ino.size + pageSize - 1) / pageSize; end > last {
		end = last
	}
	for pg := start; pg < end; {
		if ino.resident.has(pg) || ino.reading.has(pg) {
			pg++
			continue
		}
		run := 1
		for pg+int64(run) < end && run < pagesPerRPC {
			next := pg + int64(run)
			if ino.resident.has(next) || ino.reading.has(next) {
				break
			}
			run++
		}
		c.sendReadRPC(p, ino, pg, run)
		pg += int64(run)
	}
}

// sendReadRPC issues one READ for pages [page, page+pages).
func (c *Client) sendReadRPC(p *sim.Proc, ino *Inode, page int64, pages int) {
	off := page * pageSize
	count := int64(pages) * pageSize
	if off+count > ino.size {
		count = ino.size - off
	}
	ino.reading.add(page, page+int64(pages), c.recs)
	rc := c.newReadCall()
	rc.ino, rc.page, rc.pages = ino, page, pages
	rc.args = nfsproto.ReadArgs{File: ino.FH, Offset: uint64(off), Count: uint32(count)}
	c.tr.Call(p, nfsproto.ProcRead, rc.encode, rc.reply)
}

// readCall is one READ RPC from sendReadRPC to its reply, recycled
// through the simulation's stock like writeCall.
type readCall struct {
	c      *Client
	ino    *Inode
	args   nfsproto.ReadArgs
	page   int64
	pages  int
	encode func(*xdr.Encoder)
	reply  func(*xdr.Decoder)
}

// newReadCall takes a READ record from the stock and binds it to c.
func (c *Client) newReadCall() *readCall {
	if rc, ok := take(&c.recs.reads); ok {
		rc.c = c
		return rc
	}
	rc := &readCall{c: c}
	rc.encode, rc.reply = rc.args.Encode, rc.done
	return rc
}

// done is the READ's reply callback; like writeCall.done it runs at most
// once and returns the record to the stock, unbound.
func (rc *readCall) done(d *xdr.Decoder) {
	c := rc.c
	c.readDone(rc.ino, rc.page, rc.pages, int(rc.args.Count), d)
	rc.c, rc.ino = nil, nil
	c.recs.reads = append(c.recs.reads, rc)
}

// readDone runs in softirq context when a READ reply arrives: mark the
// covered pages resident and wake readers.
func (c *Client) readDone(ino *Inode, page int64, pages, bytes int, d *xdr.Decoder) {
	res, err := nfsproto.DecodeReadRes(d)
	if err != nil {
		panic(fmt.Sprintf("core: bad READ reply: %v", err))
	}
	if res.Status != nfsproto.NFS3OK {
		panic(fmt.Sprintf("core: READ failed: %v", res.Status))
	}
	if int(res.Count) != bytes {
		panic(fmt.Sprintf("core: short READ: %d of %d", res.Count, bytes))
	}
	ino.reading.remove(page, page+int64(pages))
	ino.resident.add(page, page+int64(pages), c.recs)
	ino.readWait.Broadcast()
}
