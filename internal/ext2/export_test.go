package ext2

// Dirty returns bytes not yet under writeback (for tests).
func (f *File) Dirty() int64 { return f.dirty }
