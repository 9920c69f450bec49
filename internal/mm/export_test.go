package mm

// Dirty returns the bytes dirtied but not yet under writeback.
func (c *PageCache) Dirty() int64 { return c.dirty }
