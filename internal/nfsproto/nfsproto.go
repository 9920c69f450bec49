// Package nfsproto defines the NFS version 3 protocol messages (RFC 1813)
// and the SunRPC envelope (RFC 1831) used by the client I/O paths: READ,
// WRITE and COMMIT, with real XDR wire encodings. The paper's systems
// mount with NFSv3, rsize=wsize=8192 (§3.1); message sizes computed here
// drive wire transmission times and IP fragment counts in the network
// model — a READ reply carrying rsize bytes of data fragments exactly
// like a WRITE call carrying wsize bytes.
package nfsproto

import (
	"errors"
	"fmt"

	"repro/internal/xdr"
)

// RPC constants (RFC 1831 / RFC 1813).
const (
	RPCVersion  = 2
	ProgramNFS  = 100003
	NFSVersion3 = 3

	MsgCall  = 0
	MsgReply = 1

	AuthNull = 0
	AuthUnix = 1
)

// NFSv3 procedure numbers used by the read and write paths.
const (
	ProcRead   = 6
	ProcWrite  = 7
	ProcCommit = 21
)

// StableHow is the WRITE3 stability level (RFC 1813 §3.3.7). The filer
// commits every write to NVRAM and can reply FileSync immediately, which
// is why "filer writes ... don't require an additional COMMIT RPC" (§3.5).
type StableHow uint32

// Stability levels.
const (
	Unstable StableHow = 0
	DataSync StableHow = 1
	FileSync StableHow = 2
)

func (s StableHow) String() string {
	switch s {
	case Unstable:
		return "UNSTABLE"
	case DataSync:
		return "DATA_SYNC"
	case FileSync:
		return "FILE_SYNC"
	default:
		return fmt.Sprintf("StableHow(%d)", uint32(s))
	}
}

// Status is an nfsstat3 result code.
type Status uint32

// Result codes used by the simulation.
const (
	NFS3OK         Status = 0
	NFS3ErrIO      Status = 5
	NFS3ErrStale   Status = 70
	NFS3ErrJukebox Status = 10008
)

func (s Status) String() string {
	switch s {
	case NFS3OK:
		return "NFS3_OK"
	case NFS3ErrIO:
		return "NFS3ERR_IO"
	case NFS3ErrStale:
		return "NFS3ERR_STALE"
	case NFS3ErrJukebox:
		return "NFS3ERR_JUKEBOX"
	default:
		return fmt.Sprintf("nfsstat3(%d)", uint32(s))
	}
}

// FHSize is the file handle size our servers issue. NFSv3 allows up to 64
// bytes; Linux knfsd and ONTAP both used 32-byte handles in this era.
const FHSize = 32

// FileHandle identifies a file on a server.
type FileHandle [FHSize]byte

// MakeFileHandle builds a deterministic handle from a file id.
func MakeFileHandle(fsid, fileid uint64) FileHandle {
	var fh FileHandle
	for i := 0; i < 8; i++ {
		fh[i] = byte(fsid >> (8 * i))
		fh[8+i] = byte(fileid >> (8 * i))
	}
	fh[16] = 0x6e // "nfs!"
	fh[17] = 0x66
	fh[18] = 0x73
	fh[19] = 0x21
	return fh
}

// WriteVerf is the write verifier servers return; it changes on server
// reboot so clients know to re-send uncommitted data.
type WriteVerf uint64

// CallHeader is the SunRPC call envelope.
type CallHeader struct {
	XID  uint32
	Proc uint32
}

// authUnixBody is a fixed AUTH_UNIX credential: stamp, machinename
// ("client"), uid, gid, 1 supplementary gid. Matches what the 2.4 client
// sends by default. It is encoded once; every call header copies it.
var authUnixBody = func() []byte {
	body := xdr.NewEncoder(64)
	body.Uint32(0)        // stamp
	body.String("client") // machine name
	body.Uint32(0)        // uid
	body.Uint32(0)        // gid
	body.Uint32(1)        // gids count
	body.Uint32(0)        // gid[0]
	return body.Bytes()
}()

func encodeAuthUnix(e *xdr.Encoder) {
	e.Uint32(AuthUnix)
	e.Opaque(authUnixBody)
}

// skipAuth steps over an opaque_auth (flavor and body) without copying
// the body.
func skipAuth(d *xdr.Decoder) {
	d.Uint32()
	d.OpaqueRef()
}

// EncodeCall encodes the RPC call header (xid, call, rpcvers, prog, vers,
// proc, AUTH_UNIX cred, AUTH_NULL verf).
func (h CallHeader) Encode(e *xdr.Encoder) {
	e.Uint32(h.XID)
	e.Uint32(MsgCall)
	e.Uint32(RPCVersion)
	e.Uint32(ProgramNFS)
	e.Uint32(NFSVersion3)
	e.Uint32(h.Proc)
	encodeAuthUnix(e)
	e.Uint32(AuthNull) // verf flavor
	e.Uint32(0)        // verf length
}

// DecodeCall decodes an RPC call header.
func DecodeCall(d *xdr.Decoder) (CallHeader, error) {
	h := CallHeader{XID: d.Uint32()}
	if d.Uint32() != MsgCall {
		d.Fail(errors.New("nfsproto: not a call"))
	}
	rv := d.Uint32()
	prog := d.Uint32()
	vers := d.Uint32()
	h.Proc = d.Uint32()
	if rv != RPCVersion || prog != ProgramNFS || vers != NFSVersion3 {
		d.Fail(fmt.Errorf("nfsproto: bad rpc header rpcvers=%d prog=%d vers=%d", rv, prog, vers))
	}
	skipAuth(d) // cred
	skipAuth(d) // verf
	return h, d.Err()
}

// ReplyHeader is the SunRPC accepted-reply envelope.
type ReplyHeader struct {
	XID uint32
}

// Encode encodes the reply header (xid, reply, accepted, AUTH_NULL verf,
// success).
func (h ReplyHeader) Encode(e *xdr.Encoder) {
	e.Uint32(h.XID)
	e.Uint32(MsgReply)
	e.Uint32(0) // MSG_ACCEPTED
	e.Uint32(AuthNull)
	e.Uint32(0)
	e.Uint32(0) // SUCCESS
}

// DecodeReply decodes a reply header.
func DecodeReply(d *xdr.Decoder) (ReplyHeader, error) {
	h := ReplyHeader{XID: d.Uint32()}
	if d.Uint32() != MsgReply {
		d.Fail(errors.New("nfsproto: not a reply"))
	}
	if d.Uint32() != 0 {
		d.Fail(errors.New("nfsproto: rpc denied"))
	}
	skipAuth(d)
	if astat := d.Uint32(); astat != 0 {
		d.Fail(fmt.Errorf("nfsproto: accept_stat=%d", astat))
	}
	return h, d.Err()
}

// WriteArgs is WRITE3args (RFC 1813 §3.3.7).
type WriteArgs struct {
	File   FileHandle
	Offset uint64
	Count  uint32
	Stable StableHow
	Data   []byte
}

// Encode appends the XDR form of the arguments.
func (a *WriteArgs) Encode(e *xdr.Encoder) {
	e.Grow(xdr.OpaqueLen(FHSize) + 16 + xdr.OpaqueLen(len(a.Data)))
	e.Opaque(a.File[:])
	e.Uint64(a.Offset)
	e.Uint32(a.Count)
	e.Uint32(uint32(a.Stable))
	e.Opaque(a.Data)
}

// DecodeWriteArgs decodes WRITE3args. The payload is aliased, not
// copied: servers model WRITE data by size only and never inspect or
// retain the bytes.
func DecodeWriteArgs(d *xdr.Decoder) (WriteArgs, error) {
	a := WriteArgs{
		File:   decodeFH(d),
		Offset: d.Uint64(),
		Count:  d.Uint32(),
		Stable: StableHow(d.Uint32()),
		Data:   d.OpaqueRef(),
	}
	return a, d.Err()
}

// WriteRes is WRITE3res with the file's wcc_data: pre-op size/mtime/
// change sampled under the per-file lock before the mutation, post-op
// fattr3 after it. The weak-cache-consistency payload is what lets a
// client detect concurrent writers without an extra GETATTR.
type WriteRes struct {
	Status    Status
	Wcc       WccData
	Count     uint32
	Committed StableHow
	Verf      WriteVerf
}

// Encode appends the XDR form of the result.
func (r *WriteRes) Encode(e *xdr.Encoder) {
	e.Uint32(uint32(r.Status))
	r.Wcc.Encode(e)
	if r.Status == NFS3OK {
		e.Uint32(r.Count)
		e.Uint32(uint32(r.Committed))
		e.Uint64(uint64(r.Verf))
	}
}

// DecodeWriteRes decodes WRITE3res.
func DecodeWriteRes(d *xdr.Decoder) (WriteRes, error) {
	r := WriteRes{Status: Status(d.Uint32()), Wcc: decodeWccData(d)}
	if r.Status == NFS3OK {
		r.Count = d.Uint32()
		r.Committed = StableHow(d.Uint32())
		r.Verf = WriteVerf(d.Uint64())
	}
	return r, d.Err()
}

// ReadArgs is READ3args (RFC 1813 §3.3.6).
type ReadArgs struct {
	File   FileHandle
	Offset uint64
	Count  uint32
}

// Encode appends the XDR form of the arguments.
func (a *ReadArgs) Encode(e *xdr.Encoder) {
	e.Opaque(a.File[:])
	e.Uint64(a.Offset)
	e.Uint32(a.Count)
}

// DecodeReadArgs decodes READ3args.
func DecodeReadArgs(d *xdr.Decoder) (ReadArgs, error) {
	a := ReadArgs{File: decodeFH(d), Offset: d.Uint64(), Count: d.Uint32()}
	return a, d.Err()
}

// ReadRes is READ3res (success arm; post-op attributes elided as "not
// present", a legal server choice). Data is the file content returned;
// its length on the wire is what makes READ replies fragment like WRITE
// calls.
type ReadRes struct {
	Status Status
	Count  uint32
	EOF    bool
	Data   []byte
}

// Encode appends the XDR form of the result.
func (r *ReadRes) Encode(e *xdr.Encoder) {
	e.Grow(16 + xdr.OpaqueLen(len(r.Data)))
	e.Uint32(uint32(r.Status))
	e.Bool(false) // post-op attributes not present
	if r.Status == NFS3OK {
		e.Uint32(r.Count)
		e.Bool(r.EOF)
		e.Opaque(r.Data)
	}
}

// DecodeReadRes decodes READ3res. The data is aliased, not copied:
// clients count READ bytes, they never look at the (all-zero) payload.
func DecodeReadRes(d *xdr.Decoder) (ReadRes, error) {
	r := ReadRes{Status: Status(d.Uint32())}
	d.Bool() // post-op attributes
	if r.Status == NFS3OK {
		r.Count = d.Uint32()
		r.EOF = d.Bool()
		r.Data = d.OpaqueRef()
	}
	return r, d.Err()
}

// CommitArgs is COMMIT3args (RFC 1813 §3.3.21). Count == 0 means "commit
// everything from Offset to end of file", which is how the client commits
// a whole file at close.
type CommitArgs struct {
	File   FileHandle
	Offset uint64
	Count  uint32
}

// Encode appends the XDR form of the arguments.
func (a *CommitArgs) Encode(e *xdr.Encoder) {
	e.Opaque(a.File[:])
	e.Uint64(a.Offset)
	e.Uint32(a.Count)
}

// DecodeCommitArgs decodes COMMIT3args.
func DecodeCommitArgs(d *xdr.Decoder) (CommitArgs, error) {
	a := CommitArgs{File: decodeFH(d), Offset: d.Uint64(), Count: d.Uint32()}
	return a, d.Err()
}

// CommitRes is COMMIT3res.
type CommitRes struct {
	Status Status
	Verf   WriteVerf
}

// Encode appends the XDR form of the result.
func (r *CommitRes) Encode(e *xdr.Encoder) {
	e.Uint32(uint32(r.Status))
	e.Bool(false)
	e.Bool(false)
	if r.Status == NFS3OK {
		e.Uint64(uint64(r.Verf))
	}
}

// DecodeCommitRes decodes COMMIT3res.
func DecodeCommitRes(d *xdr.Decoder) (CommitRes, error) {
	r := CommitRes{Status: Status(d.Uint32())}
	d.Bool() // pre-op attributes
	d.Bool() // post-op attributes
	if r.Status == NFS3OK {
		r.Verf = WriteVerf(d.Uint64())
	}
	return r, d.Err()
}

// WriteCallSize returns the full encoded size of a WRITE call carrying n
// data bytes, envelope included. Used for wire-time estimation without
// building the message.
func WriteCallSize(n int) int {
	e := xdr.NewEncoder(128)
	CallHeader{XID: 1, Proc: ProcWrite}.Encode(e)
	hdr := e.Len()
	return hdr + xdr.OpaqueLen(FHSize) + 8 + 4 + 4 + xdr.OpaqueLen(n)
}
