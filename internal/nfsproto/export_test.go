package nfsproto

import "repro/internal/xdr"

// ReadReplySize returns the full encoded size of a READ reply carrying n
// data bytes, envelope included. Used for wire-time estimation without
// building the message.
func ReadReplySize(n int) int {
	e := xdr.NewEncoder(64)
	ReplyHeader{XID: 1}.Encode(e)
	hdr := e.Len()
	return hdr + 4 + 4 + 4 + 4 + xdr.OpaqueLen(n)
}

// NFS3ErrExist is the CREATE result for a name that already exists.
const NFS3ErrExist Status = 17
