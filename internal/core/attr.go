package core

import (
	"fmt"

	"repro/internal/nfsproto"
	"repro/internal/rpcsim"
	"repro/internal/sim"
	"repro/internal/vfs"
)

// metaOpBase is the client-side bookkeeping per metadata operation
// (dentry/attribute-cache probe and update on LOOKUP, GETATTR, CREATE and
// REMOVE), charged whether or not an RPC goes out.
const metaOpBase sim.Time = 3_000 // 3 µs

// attrEntry is one cached LOOKUP/GETATTR result, keyed by name in the
// mount's root directory. timeout is the adaptive attribute-cache window
// clamped to [AcRegMin, AcRegMax]: it starts at the minimum and doubles
// each time revalidation finds the file unchanged, the way the Linux
// client ages its attribute timeouts.
type attrEntry struct {
	fh      nfsproto.FileHandle
	attrs   nfsproto.FileAttrs
	fetched sim.Time
	timeout sim.Time
}

// acEnabled reports whether the attribute cache is on.
func (c *Client) acEnabled() bool { return c.cfg.AcRegMin != AcOff }

// fresh reports whether the entry may still be trusted without an RPC.
func (e *attrEntry) fresh(now sim.Time) bool { return now-e.fetched < e.timeout }

// refresh folds a server attribute reply into the entry, aging the
// timeout: an unchanged file doubles the window toward acregmax, a
// change resets it to acregmin. "Unchanged" is judged by the change
// attribute, not mtime: two writes landing in the same virtual tick
// leave mtime identical, and keying on mtime would widen the trust
// window right after a write — the opposite of what the adaptive
// timeout is for.
func (e *attrEntry) refresh(c *Client, attrs nfsproto.FileAttrs) {
	if attrs.Change == e.attrs.Change {
		e.timeout *= 2
		if e.timeout > c.cfg.AcRegMax {
			e.timeout = c.cfg.AcRegMax
		}
	} else {
		e.timeout = c.cfg.AcRegMin
	}
	e.attrs = attrs
	e.fetched = c.s.Now()
}

func (c *Client) newAttrEntry(fh nfsproto.FileHandle, attrs nfsproto.FileAttrs) *attrEntry {
	return &attrEntry{fh: fh, attrs: attrs, fetched: c.s.Now(), timeout: c.cfg.AcRegMin}
}

// cacheAttr stores a server result in the attribute cache (no-op when
// the cache is off).
func (c *Client) cacheAttr(name string, fh nfsproto.FileHandle, attrs nfsproto.FileAttrs) {
	if !c.acEnabled() {
		return
	}
	if c.attrCache == nil {
		c.attrCache = make(map[string]*attrEntry)
	}
	c.attrCache[name] = c.newAttrEntry(fh, attrs)
}

// invalidateAttr drops a name from the attribute cache — the local
// write/remove invalidation: cached attributes no longer describe what
// this client just changed.
func (c *Client) invalidateAttr(name string) {
	delete(c.attrCache, name)
}

// lookupRPC issues a LOOKUP for name in the mount's root directory.
func (c *Client) lookupRPC(p *sim.Proc, name string) nfsproto.LookupRes {
	args := nfsproto.LookupArgs{Dir: c.rootFH, Name: name}
	res, err := rpcsim.CallSync(c.tr, p, nfsproto.ProcLookup, args.Encode, nfsproto.DecodeLookupRes)
	if err != nil {
		panic(fmt.Sprintf("core: bad LOOKUP reply: %v", err))
	}
	return res
}

// getattrRPC issues a GETATTR for a handle.
func (c *Client) getattrRPC(p *sim.Proc, fh nfsproto.FileHandle) nfsproto.FileAttrs {
	args := nfsproto.GetattrArgs{File: fh}
	res, err := rpcsim.CallSync(c.tr, p, nfsproto.ProcGetattr, args.Encode, nfsproto.DecodeGetattrRes)
	if err != nil || res.Status != nfsproto.NFS3OK {
		panic(fmt.Sprintf("core: GETATTR failed: %v %v", res, err))
	}
	return res.Attrs
}

// createRPC issues a CREATE for name in the mount's root directory.
func (c *Client) createRPC(p *sim.Proc, name string) (nfsproto.FileHandle, nfsproto.FileAttrs) {
	args := nfsproto.CreateArgs{Dir: c.rootFH, Name: name}
	res, err := rpcsim.CallSync(c.tr, p, nfsproto.ProcCreate, args.Encode, nfsproto.DecodeCreateRes)
	if err != nil || res.Status != nfsproto.NFS3OK {
		panic(fmt.Sprintf("core: CREATE failed: %v %v", res, err))
	}
	return res.File, res.Attrs
}

// resolve maps a name to (handle, attributes) through the attribute
// cache: a fresh entry answers without an RPC; anything else costs a
// LOOKUP. Under ConsistencyNoac a cached entry never ages out — the
// whole point of that mode is to never go back to the server for a
// name it already knows. Under ConsistencyStrict the name->handle
// mapping is likewise trusted regardless of age (the dentry cache);
// freshness is the open-time GETATTR's job, which strict mode issues
// unconditionally, so re-fetching the LOOKUP here would be a second
// round trip for the same answer. Returns ok=false when the name does
// not exist, and fetched=true when a LOOKUP actually went to the
// server (its reply carries current attributes, so it doubles as an
// open-time revalidation).
func (c *Client) resolve(p *sim.Proc, name string) (e *attrEntry, ok, fetched bool) {
	c.cpu.Use(p, labelNFSLookup, metaOpBase)
	if c.acEnabled() {
		if e, ok := c.attrCache[name]; ok &&
			(e.fresh(c.s.Now()) || c.cfg.Consistency != ConsistencyTTL) {
			c.AttrCacheHits++
			return e, true, false
		}
	}
	c.AttrCacheMisses++
	res := c.lookupRPC(p, name)
	if res.Status == nfsproto.NFS3ErrNoEnt {
		c.invalidateAttr(name)
		return nil, false, true
	}
	if res.Status != nfsproto.NFS3OK {
		panic(fmt.Sprintf("core: LOOKUP failed: %v", res.Status))
	}
	e = c.newAttrEntry(res.File, res.Attrs)
	if c.acEnabled() {
		if c.attrCache == nil {
			c.attrCache = make(map[string]*attrEntry)
		}
		c.attrCache[name] = e
	}
	return e, true, true
}

// revalidate performs the open-time GETATTR check (close-to-open
// consistency): a stale entry is re-fetched from the server; a fresh one
// is trusted, which is exactly the RPC the attribute cache exists to
// save.
func (c *Client) revalidate(p *sim.Proc, name string, e *attrEntry) {
	if c.acEnabled() && e.fresh(c.s.Now()) {
		return
	}
	attrs := c.getattrRPC(p, e.fh)
	e.refresh(c, attrs)
}

// revalidateOpen is the open-time revalidation under the configured
// consistency mode. It reports whether the server was actually asked —
// the bit close-to-open consistency hinges on: an open that skipped the
// GETATTR is trusting cached state. A revalidation that reveals a
// foreign write (newer change attribute) invalidates the inode's cached
// pages via noteChange.
func (c *Client) revalidateOpen(p *sim.Proc, e *attrEntry, ino *Inode) bool {
	switch c.cfg.Consistency {
	case ConsistencyNoac:
		// Never ask: cached pages and attributes are trusted until this
		// client itself writes. Unbounded staleness by construction.
		return false
	case ConsistencyStrict:
		// Always ask, even when the attribute entry is fresh.
	default: // ConsistencyTTL
		if c.acEnabled() && e.fresh(c.s.Now()) {
			return false
		}
	}
	attrs := c.getattrRPC(p, e.fh)
	e.refresh(c, attrs)
	c.noteChange(ino, attrs)
	return true
}

// OpenByName opens name in the mount's root directory, creating it on
// the server if it does not exist (CREATE), and revalidating cached
// attributes on open if it does (GETATTR, subject to the consistency
// mode). The inode behind the name persists across open/close like a
// kernel inode-cache entry, so reopening a file finds its pages still
// resident — and possibly stale, which is what the staleOpen marker
// tracks against the ground-truth probe.
func (c *Client) OpenByName(p *sim.Proc, name string) vfs.File {
	e, ok, fetched := c.resolve(p, name)
	if !ok {
		fh, attrs := c.createRPC(p, name)
		c.cacheAttr(name, fh, attrs)
		e = c.newAttrEntry(fh, attrs)
		fetched = true
	}
	ino := c.namedInode(name, e.fh)
	if !ino.hasChange {
		// A freshly-minted inode takes its change baseline from the
		// attribute entry, even a cached one: changeSeen is what this
		// client believes, and the staleness accounting (and WCC pre-op
		// comparison) need that belief pinned from the first open.
		ino.changeSeen, ino.hasChange = e.attrs.Change, true
	}
	revalidated := false
	if fetched {
		// CREATE and LOOKUP replies carry current attributes; folding
		// them in is the revalidation, no extra GETATTR needed.
		c.noteChange(ino, e.attrs)
		revalidated = true
	}
	if !fetched || !c.acEnabled() {
		// With the attribute cache off every open still issues its own
		// GETATTR, like the kernel's noac mount: dentry revalidation
		// (LOOKUP) and inode revalidation (GETATTR) are separate steps.
		if c.revalidateOpen(p, e, ino) {
			revalidated = true
		}
	}
	if s := int64(e.attrs.Size); s > ino.size {
		ino.size = s
	}
	// staleOpen: this open trusts cached pages (no server round trip)
	// while the omniscient probe says the file already moved on. Every
	// cache hit served under the flag is a read a revalidating client
	// would have refetched.
	ino.staleOpen = false
	if !revalidated && ino.hasChange && c.changeProbe != nil {
		if truth, ok := c.changeProbe(ino.FH); ok && truth > ino.changeSeen {
			ino.staleOpen = true
		}
	}
	return &File{c: c, ino: ino, name: name}
}

// Stat returns name's size and existence — the stat() path: attribute
// cache first, then LOOKUP (and a GETATTR revalidation when the cached
// entry aged out).
func (c *Client) Stat(p *sim.Proc, name string) (int64, bool) {
	e, ok, _ := c.resolve(p, name)
	if !ok {
		return 0, false
	}
	c.revalidate(p, name, e)
	return int64(e.attrs.Size), true
}

// Remove unlinks name at the server and invalidates its cached
// attributes and cached inode, reporting whether it existed.
func (c *Client) Remove(p *sim.Proc, name string) bool {
	c.cpu.Use(p, labelNFSRemove, metaOpBase)
	c.invalidateAttr(name)
	if ino, ok := c.namedInodes[name]; ok {
		// The name is dead; a re-create mints a new handle. An inode
		// still open elsewhere is released by its last close (the map no
		// longer points at it); an idle one is already off the scan
		// table and just dropped.
		delete(c.namedInodes, name)
		if ino.refs == 0 {
			c.dropPages(ino)
		}
	}
	args := nfsproto.RemoveArgs{Dir: c.rootFH, Name: name}
	res, err := rpcsim.CallSync(c.tr, p, nfsproto.ProcRemove, args.Encode, nfsproto.DecodeRemoveRes)
	if err != nil {
		panic(fmt.Sprintf("core: bad REMOVE reply: %v", err))
	}
	return res.Status == nfsproto.NFS3OK
}

var _ vfs.Namespace = (*Client)(nil)
