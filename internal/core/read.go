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
	ino.pendingReads = make(map[int64]bool)
	ino.readWait = c.s.NewWaitQueue("nfs-inode-read")
	ino.ra = mm.Readahead{Min: c.cfg.ReadaheadMinPages, Max: c.cfg.ReadaheadMaxPages}
}

// markResident records that a page is in the client's page cache —
// called by the write path for each page it dirties, so reading back
// just-written data hits memory instead of refetching from the server
// (read-after-write coherence).
func (ino *Inode) markResident(page int64) {
	ino.cached.Add(page, page+1)
}

// resident reports whether a page is in the client's page cache.
func (ino *Inode) resident(page int64) bool {
	return ino.cached.Contains(page, page+1)
}

// readPage is nfs_readpage: make one page resident. The lookup and
// readahead bookkeeping run under the BKL like the write path's request
// lookups; the RPC wait does not (sleeping paths drop the lock).
func (c *Client) readPage(p *sim.Proc, ino *Inode, page int64) {
	c.ensureReadState(ino)
	c.bkl.Lock(p, labelNFSReadpage)
	c.cpu.Use(p, labelNFSReadpage, c.cfg.Costs.ReadPageBase)
	hit := ino.resident(page)
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
	c.sendReads(p, ino, page, c.cfg.RSize/pageSize+ahead)
	for !ino.resident(page) {
		ino.readWait.Wait(p)
	}
}

// sendReads issues async READ RPCs covering pages [start, start+pages),
// clamped to the file's last page, in runs of at most rsize, skipping
// pages already resident or already being fetched. Each Call may block on
// the transport's slot table — RPC slots are the readahead's natural
// throttle, as in the 2.4 client.
func (c *Client) sendReads(p *sim.Proc, ino *Inode, start int64, pages int) {
	pagesPerRPC := c.cfg.RSize / pageSize
	end := start + int64(pages)
	if last := (ino.size + pageSize - 1) / pageSize; end > last {
		end = last
	}
	for pg := start; pg < end; {
		if ino.resident(pg) || ino.pendingReads[pg] {
			pg++
			continue
		}
		run := 1
		for pg+int64(run) < end && run < pagesPerRPC {
			next := pg + int64(run)
			if ino.resident(next) || ino.pendingReads[next] {
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
	for i := 0; i < pages; i++ {
		ino.pendingReads[page+int64(i)] = true
	}
	args := nfsproto.ReadArgs{File: ino.FH, Offset: uint64(off), Count: uint32(count)}
	c.ReadRPCs++
	c.PagesReadRPC += int64(pages)
	c.tr.Call(p, nfsproto.ProcRead, args.Encode, func(d *xdr.Decoder) {
		c.readDone(ino, page, pages, int(count), d)
	})
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
	for i := 0; i < pages; i++ {
		delete(ino.pendingReads, page+int64(i))
	}
	ino.cached.Add(page, page+int64(pages))
	ino.readWait.Broadcast()
}
