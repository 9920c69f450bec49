// Metadata procedures (RFC 1813): GETATTR, LOOKUP, CREATE and REMOVE,
// the namespace half of the protocol. The paper's benchmark is one big
// file per writer, but a real client spends much of its RPC budget on
// this tail — LOOKUP and GETATTR against many small files — so the
// simulation carries the real XDR encodings here too: a full fattr3 on
// every attribute-bearing reply, wcc_data arms on the
// directory-modifying procedures, and an sattr3 in CREATE, exactly as
// the 2.4 client put them on the wire.

package nfsproto

import (
	"fmt"

	"repro/internal/xdr"
)

// NFSv3 metadata procedure numbers (RFC 1813 §3.3).
const (
	ProcGetattr = 1
	ProcLookup  = 3
	ProcCreate  = 8
	ProcRemove  = 12
)

// Result codes used by the metadata path.
const (
	NFS3ErrNoEnt Status = 2
	NFS3ErrExist Status = 17
)

// RootFileID is the well-known file id of an export's root directory.
// It sits at the top of the id space so it can never collide with
// client-minted write-path ids (small integers) or server-allocated
// CREATE ids (which grow up from ServerFileIDBase).
const RootFileID = ^uint64(0)

// ServerFileIDBase is the first file id a server allocates for CREATE;
// ids below it belong to client-minted handles.
const ServerFileIDBase = 1 << 32

// RootHandle returns the file handle of an export's root directory.
func RootHandle(fsid uint64) FileHandle { return MakeFileHandle(fsid, RootFileID) }

// HandleFSID extracts the fsid a handle was minted with.
func HandleFSID(fh FileHandle) uint64 {
	var fsid uint64
	for i := 0; i < 8; i++ {
		fsid |= uint64(fh[i]) << (8 * i)
	}
	return fsid
}

// HandleFileID extracts the file id a handle was minted with.
func HandleFileID(fh FileHandle) uint64 {
	var id uint64
	for i := 0; i < 8; i++ {
		id |= uint64(fh[8+i]) << (8 * i)
	}
	return id
}

// FileAttrs is the subset of fattr3 the simulation models: size, file
// id, modification time and the change counter. Encode/Decode carry the
// full fattr3 wire form so reply sizes on the wire are faithful; the
// unmodeled fields encode as a regular file owned by root.
type FileAttrs struct {
	Size   uint64
	FileID uint64
	// MTime is the modification time in nanoseconds of virtual time.
	MTime uint64
	// Change is the server's per-file change counter, bumped under the
	// per-file lock on every mutation from any client. NFSv3 has no
	// change attribute (clients synthesize one from ctime); the
	// simulation carries NFSv4's monotonic counter explicitly so
	// same-tick writes stay distinguishable.
	Change uint64
}

// Encode appends the fattr3 wire form: the 84 RFC bytes plus one hyper
// for the change counter (92 bytes).
func (a *FileAttrs) Encode(e *xdr.Encoder) {
	e.Uint32(1)    // type NF3REG
	e.Uint32(0644) // mode
	e.Uint32(1)    // nlink
	e.Uint32(0)    // uid
	e.Uint32(0)    // gid
	e.Uint64(a.Size)
	e.Uint64(a.Size) // used
	e.Uint32(0)      // rdev major
	e.Uint32(0)      // rdev minor
	e.Uint64(0)      // fsid
	e.Uint64(a.FileID)
	e.Uint64(a.Change)
	encodeTime(e, a.MTime) // atime (mirrors mtime)
	encodeTime(e, a.MTime) // mtime
	encodeTime(e, a.MTime) // ctime
}

func encodeTime(e *xdr.Encoder, ns uint64) {
	e.Uint32(uint32(ns / 1e9))
	e.Uint32(uint32(ns % 1e9))
}

func decodeTime(d *xdr.Decoder) uint64 {
	sec := d.Uint32()
	nsec := d.Uint32()
	return uint64(sec)*1e9 + uint64(nsec)
}

// decodeFileAttrs decodes a fattr3, keeping the modeled fields.
func decodeFileAttrs(d *xdr.Decoder) FileAttrs {
	var a FileAttrs
	d.Uint32() // type
	d.Uint32() // mode
	d.Uint32() // nlink
	d.Uint32() // uid
	d.Uint32() // gid
	a.Size = d.Uint64()
	d.Uint64() // used
	d.Uint32() // rdev major
	d.Uint32() // rdev minor
	d.Uint64() // fsid
	a.FileID = d.Uint64()
	a.Change = d.Uint64()
	decodeTime(d) // atime
	a.MTime = decodeTime(d)
	decodeTime(d) // ctime
	return a
}

// WccAttr is the pre-op attribute subset of wcc_data (RFC 1813 §2.6
// wcc_attr): size and mtime sampled under the per-file lock immediately
// before the mutation, with the change counter riding in the ctime slot
// (same wire weight: one nfstime3 = one hyper).
type WccAttr struct {
	Size   uint64
	MTime  uint64
	Change uint64
}

// Encode appends the wcc_attr wire form (24 bytes).
func (w *WccAttr) Encode(e *xdr.Encoder) {
	e.Uint64(w.Size)
	encodeTime(e, w.MTime)
	e.Uint64(w.Change) // ctime slot carries the change counter
}

// decodeWccAttr decodes a wcc_attr.
func decodeWccAttr(d *xdr.Decoder) WccAttr {
	return WccAttr{Size: d.Uint64(), MTime: decodeTime(d), Change: d.Uint64()}
}

// WccData is the weak-cache-consistency payload on mutating replies:
// optional pre-op size/mtime/change plus optional post-op fattr3. The
// client compares the pre-op values against its cache to decide whether
// anyone else touched the file, then adopts the post-op attributes
// without a separate GETATTR.
type WccData struct {
	HavePre  bool
	Pre      WccAttr
	HavePost bool
	Post     FileAttrs
}

// Encode appends the wcc_data wire form.
func (w *WccData) Encode(e *xdr.Encoder) {
	e.Bool(w.HavePre)
	if w.HavePre {
		w.Pre.Encode(e)
	}
	e.Bool(w.HavePost)
	if w.HavePost {
		w.Post.Encode(e)
	}
}

// decodeWccData decodes a wcc_data.
func decodeWccData(d *xdr.Decoder) WccData {
	var w WccData
	if w.HavePre = d.Bool(); w.HavePre {
		w.Pre = decodeWccAttr(d)
	}
	if w.HavePost = d.Bool(); w.HavePost {
		w.Post = decodeFileAttrs(d)
	}
	return w
}

// decodeFH decodes a file handle straight into its array: the wire
// bytes are read in place and copied once.
func decodeFH(d *xdr.Decoder) FileHandle {
	var fh FileHandle
	b := d.OpaqueRef()
	if len(b) != FHSize {
		d.Fail(fmt.Errorf("nfsproto: file handle size %d", len(b)))
	}
	copy(fh[:], b)
	return fh
}

// GetattrArgs is GETATTR3args: just the object handle.
type GetattrArgs struct {
	File FileHandle
}

// Encode appends the XDR form of the arguments.
func (a *GetattrArgs) Encode(e *xdr.Encoder) {
	e.Opaque(a.File[:])
}

// DecodeGetattrArgs decodes GETATTR3args.
func DecodeGetattrArgs(d *xdr.Decoder) (GetattrArgs, error) {
	return GetattrArgs{File: decodeFH(d)}, d.Err()
}

// GetattrRes is GETATTR3res. The success arm carries a mandatory fattr3
// (no "present" discriminator, unlike post-op attributes).
type GetattrRes struct {
	Status Status
	Attrs  FileAttrs
}

// Encode appends the XDR form of the result.
func (r *GetattrRes) Encode(e *xdr.Encoder) {
	e.Uint32(uint32(r.Status))
	if r.Status == NFS3OK {
		r.Attrs.Encode(e)
	}
}

// DecodeGetattrRes decodes GETATTR3res.
func DecodeGetattrRes(d *xdr.Decoder) (GetattrRes, error) {
	r := GetattrRes{Status: Status(d.Uint32())}
	if r.Status == NFS3OK {
		r.Attrs = decodeFileAttrs(d)
	}
	return r, d.Err()
}

// LookupArgs is LOOKUP3args: directory handle plus name.
type LookupArgs struct {
	Dir  FileHandle
	Name string
}

// Encode appends the XDR form of the arguments.
func (a *LookupArgs) Encode(e *xdr.Encoder) {
	e.Opaque(a.Dir[:])
	e.String(a.Name)
}

// DecodeLookupArgs decodes LOOKUP3args.
func DecodeLookupArgs(d *xdr.Decoder) (LookupArgs, error) {
	return LookupArgs{Dir: decodeFH(d), Name: d.String()}, d.Err()
}

// LookupRes is LOOKUP3res: on success the object handle plus post-op
// object attributes (always present from our servers); directory post-op
// attributes are elided as "not present" on both arms.
type LookupRes struct {
	Status Status
	File   FileHandle
	Attrs  FileAttrs
}

// Encode appends the XDR form of the result.
func (r *LookupRes) Encode(e *xdr.Encoder) {
	e.Uint32(uint32(r.Status))
	if r.Status == NFS3OK {
		e.Opaque(r.File[:])
		e.Bool(true) // object post-op attributes present
		r.Attrs.Encode(e)
	}
	e.Bool(false) // dir post-op attributes not present
}

// DecodeLookupRes decodes LOOKUP3res.
func DecodeLookupRes(d *xdr.Decoder) (LookupRes, error) {
	r := LookupRes{Status: Status(d.Uint32())}
	if r.Status == NFS3OK {
		r.File = decodeFH(d)
		if d.Bool() { // object attributes present
			r.Attrs = decodeFileAttrs(d)
		}
	}
	d.Bool() // dir attributes arm
	return r, d.Err()
}

// CreateArgs is CREATE3args in UNCHECKED mode with the 2.4 client's
// sattr3 (mode set to 0644, everything else don't-change).
type CreateArgs struct {
	Dir  FileHandle
	Name string
}

// Encode appends the XDR form of the arguments.
func (a *CreateArgs) Encode(e *xdr.Encoder) {
	e.Opaque(a.Dir[:])
	e.String(a.Name)
	e.Uint32(0) // createhow3 UNCHECKED
	// sattr3: mode set, uid/gid/size don't-change, times DONT_CHANGE.
	e.Bool(true)
	e.Uint32(0644)
	e.Bool(false) // uid
	e.Bool(false) // gid
	e.Bool(false) // size
	e.Uint32(0)   // atime DONT_CHANGE
	e.Uint32(0)   // mtime DONT_CHANGE
}

// DecodeCreateArgs decodes CREATE3args.
func DecodeCreateArgs(d *xdr.Decoder) (CreateArgs, error) {
	a := CreateArgs{Dir: decodeFH(d), Name: d.String()}
	// UNCHECKED and GUARDED carry an sattr3, EXCLUSIVE a verifier.
	switch how := d.Uint32(); how {
	case 0, 1:
		skipSattr(d)
	case 2:
		d.Uint64()
	default:
		d.Fail(fmt.Errorf("nfsproto: createhow3 %d", how))
	}
	return a, d.Err()
}

func skipSattr(d *xdr.Decoder) {
	for i := 0; i < 3; i++ { // mode, uid, gid
		if d.Bool() {
			d.Uint32()
		}
	}
	if d.Bool() { // size
		d.Uint64()
	}
	for i := 0; i < 2; i++ { // atime, mtime set_time enums
		switch how := d.Uint32(); how {
		case 0, 1:
		case 2: // SET_TO_CLIENT_TIME carries an nfstime3
			decodeTime(d)
		default:
			d.Fail(fmt.Errorf("nfsproto: set_time %d", how))
		}
	}
}

// CreateRes is CREATE3res: on success the post-op handle and attributes
// of the new file (always present from our servers), plus the directory
// wcc_data on both arms.
type CreateRes struct {
	Status Status
	File   FileHandle
	Attrs  FileAttrs
	Wcc    WccData
}

// Encode appends the XDR form of the result.
func (r *CreateRes) Encode(e *xdr.Encoder) {
	e.Uint32(uint32(r.Status))
	if r.Status == NFS3OK {
		e.Bool(true) // post-op handle present
		e.Opaque(r.File[:])
		e.Bool(true) // post-op attributes present
		r.Attrs.Encode(e)
	}
	r.Wcc.Encode(e)
}

// DecodeCreateRes decodes CREATE3res.
func DecodeCreateRes(d *xdr.Decoder) (CreateRes, error) {
	r := CreateRes{Status: Status(d.Uint32())}
	if r.Status == NFS3OK {
		if d.Bool() { // post-op handle present
			r.File = decodeFH(d)
		}
		if d.Bool() { // post-op attributes present
			r.Attrs = decodeFileAttrs(d)
		}
	}
	r.Wcc = decodeWccData(d)
	return r, d.Err()
}

// RemoveArgs is REMOVE3args: directory handle plus name.
type RemoveArgs struct {
	Dir  FileHandle
	Name string
}

// Encode appends the XDR form of the arguments.
func (a *RemoveArgs) Encode(e *xdr.Encoder) {
	e.Opaque(a.Dir[:])
	e.String(a.Name)
}

// DecodeRemoveArgs decodes REMOVE3args.
func DecodeRemoveArgs(d *xdr.Decoder) (RemoveArgs, error) {
	return RemoveArgs{Dir: decodeFH(d), Name: d.String()}, d.Err()
}

// RemoveRes is REMOVE3res: status plus directory wcc_data carrying the
// removed file's last pre-op attributes.
type RemoveRes struct {
	Status Status
	Wcc    WccData
}

// Encode appends the XDR form of the result.
func (r *RemoveRes) Encode(e *xdr.Encoder) {
	e.Uint32(uint32(r.Status))
	r.Wcc.Encode(e)
}

// DecodeRemoveRes decodes REMOVE3res.
func DecodeRemoveRes(d *xdr.Decoder) (RemoveRes, error) {
	r := RemoveRes{Status: Status(d.Uint32()), Wcc: decodeWccData(d)}
	return r, d.Err()
}
