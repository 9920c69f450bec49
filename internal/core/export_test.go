package core

// AttrCacheLen returns the number of cached attribute entries (test
// accessor).
func (c *Client) AttrCacheLen() int { return len(c.attrCache) }

// MountRequests returns the outstanding page-request count for the mount.
func (c *Client) MountRequests() int { return c.mountRequests }

// OpenInodes returns how many inodes the client currently tracks — the
// set flushd's pickFlushable/queuedAnywhere scans. Closed files leave it
// (for tests pinning the last-close release).
func (c *Client) OpenInodes() int { return len(c.inodes) }

// SetSync switches the file to O_SYNC semantics: every write() is sent to
// the server as a stable (FILE_SYNC) WRITE and waits for the reply, like
// nfs_writepage_sync. The paper contrasts this class of workload in §3.6:
// "where applications require data permanence before a write() system
// call returns, the Network Appliance filer ... performs better".
func (f *File) SetSync(sync bool) { f.sync = sync }

// CachedPages returns how many resident pages the inode holds — pages
// filled by READ replies or dirtied by writes (for tests).
func (ino *Inode) CachedPages() int { return int(ino.cached.Total()) }

// ResidentSpans returns how many disjoint page runs the resident set
// holds (for tests: sequential access must coalesce into one span, random
// access fragments until coverage completes).
func (ino *Inode) ResidentSpans() int { return len(ino.cached.Ranges()) }

// ReadaheadWindow returns the inode's current readahead window in pages
// (for tests and experiments).
func (ino *Inode) ReadaheadWindow() int { return ino.ra.Window() }

// Inode returns the file's client-side inode.
func (f *File) Inode() *Inode { return f.ino }

// At returns the i'th request.
func (l *reqList) At(i int) *Request { return l.q.Items()[i] }
