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

func decodeTime(d *xdr.Decoder) (uint64, error) {
	sec, e1 := d.Uint32()
	nsec, e2 := d.Uint32()
	if err := xdr.Check(e1, e2); err != nil {
		return 0, err
	}
	return uint64(sec)*1e9 + uint64(nsec), nil
}

// DecodeFileAttrs decodes a fattr3, keeping the modeled fields.
func DecodeFileAttrs(d *xdr.Decoder) (FileAttrs, error) {
	var a FileAttrs
	_, e1 := d.Uint32() // type
	_, e2 := d.Uint32() // mode
	_, e3 := d.Uint32() // nlink
	_, e4 := d.Uint32() // uid
	_, e5 := d.Uint32() // gid
	size, e6 := d.Uint64()
	_, e7 := d.Uint64()  // used
	_, e8 := d.Uint32()  // rdev major
	_, e9 := d.Uint32()  // rdev minor
	_, e10 := d.Uint64() // fsid
	fileid, e11 := d.Uint64()
	change, e12 := d.Uint64()
	if err := xdr.Check(e1, e2, e3, e4, e5, e6, e7, e8, e9, e10, e11, e12); err != nil {
		return a, err
	}
	if _, err := decodeTime(d); err != nil { // atime
		return a, err
	}
	mtime, err := decodeTime(d)
	if err != nil {
		return a, err
	}
	if _, err := decodeTime(d); err != nil { // ctime
		return a, err
	}
	a.Size = size
	a.FileID = fileid
	a.MTime = mtime
	a.Change = change
	return a, nil
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

// DecodeWccAttr decodes a wcc_attr.
func DecodeWccAttr(d *xdr.Decoder) (WccAttr, error) {
	var w WccAttr
	size, err := d.Uint64()
	if err != nil {
		return w, err
	}
	mtime, err := decodeTime(d)
	if err != nil {
		return w, err
	}
	change, err := d.Uint64()
	if err != nil {
		return w, err
	}
	w.Size, w.MTime, w.Change = size, mtime, change
	return w, nil
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

// DecodeWccData decodes a wcc_data.
func DecodeWccData(d *xdr.Decoder) (WccData, error) {
	var w WccData
	havePre, err := d.Bool()
	if err != nil {
		return w, err
	}
	if havePre {
		w.HavePre = true
		if w.Pre, err = DecodeWccAttr(d); err != nil {
			return w, err
		}
	}
	havePost, err := d.Bool()
	if err != nil {
		return w, err
	}
	if havePost {
		w.HavePost = true
		if w.Post, err = DecodeFileAttrs(d); err != nil {
			return w, err
		}
	}
	return w, nil
}

// decodeFH decodes a file handle straight into its array: the wire
// bytes are read in place and copied once.
func decodeFH(d *xdr.Decoder) (FileHandle, error) {
	var out FileHandle
	fh, err := d.OpaqueRef()
	if err != nil {
		return out, err
	}
	if len(fh) != FHSize {
		return out, fmt.Errorf("nfsproto: file handle size %d", len(fh))
	}
	copy(out[:], fh)
	return out, nil
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
func DecodeGetattrArgs(d *xdr.Decoder) (*GetattrArgs, error) {
	fh, err := decodeFH(d)
	if err != nil {
		return nil, err
	}
	return &GetattrArgs{File: fh}, nil
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
func DecodeGetattrRes(d *xdr.Decoder) (*GetattrRes, error) {
	st, err := d.Uint32()
	if err != nil {
		return nil, err
	}
	r := &GetattrRes{Status: Status(st)}
	if r.Status != NFS3OK {
		return r, nil
	}
	r.Attrs, err = DecodeFileAttrs(d)
	if err != nil {
		return nil, err
	}
	return r, nil
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
func DecodeLookupArgs(d *xdr.Decoder) (*LookupArgs, error) {
	fh, err := decodeFH(d)
	if err != nil {
		return nil, err
	}
	name, err := d.String()
	if err != nil {
		return nil, err
	}
	return &LookupArgs{Dir: fh, Name: name}, nil
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
func DecodeLookupRes(d *xdr.Decoder) (*LookupRes, error) {
	st, err := d.Uint32()
	if err != nil {
		return nil, err
	}
	r := &LookupRes{Status: Status(st)}
	if r.Status == NFS3OK {
		r.File, err = decodeFH(d)
		if err != nil {
			return nil, err
		}
		present, err := d.Bool()
		if err != nil {
			return nil, err
		}
		if present {
			r.Attrs, err = DecodeFileAttrs(d)
			if err != nil {
				return nil, err
			}
		}
	}
	if _, err := d.Bool(); err != nil { // dir attributes arm
		return nil, err
	}
	return r, nil
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
func DecodeCreateArgs(d *xdr.Decoder) (*CreateArgs, error) {
	fh, err := decodeFH(d)
	if err != nil {
		return nil, err
	}
	name, err := d.String()
	if err != nil {
		return nil, err
	}
	how, err := d.Uint32()
	if err != nil {
		return nil, err
	}
	if how > 2 {
		return nil, fmt.Errorf("nfsproto: createhow3 %d", how)
	}
	// Consume the sattr3 (EXCLUSIVE carries a verifier instead; we only
	// model UNCHECKED/GUARDED).
	if how != 2 {
		if err := skipSattr(d); err != nil {
			return nil, err
		}
	} else if _, err := d.Uint64(); err != nil {
		return nil, err
	}
	return &CreateArgs{Dir: fh, Name: name}, nil
}

func skipSattr(d *xdr.Decoder) error {
	for i := 0; i < 3; i++ { // mode, uid, gid
		set, err := d.Bool()
		if err != nil {
			return err
		}
		if set {
			if _, err := d.Uint32(); err != nil {
				return err
			}
		}
	}
	set, err := d.Bool() // size
	if err != nil {
		return err
	}
	if set {
		if _, err := d.Uint64(); err != nil {
			return err
		}
	}
	for i := 0; i < 2; i++ { // atime, mtime set_time enums
		how, err := d.Uint32()
		if err != nil {
			return err
		}
		if how > 2 {
			return fmt.Errorf("nfsproto: set_time %d", how)
		}
		if how == 2 { // SET_TO_CLIENT_TIME carries an nfstime3
			if _, err := decodeTime(d); err != nil {
				return err
			}
		}
	}
	return nil
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
func DecodeCreateRes(d *xdr.Decoder) (*CreateRes, error) {
	st, err := d.Uint32()
	if err != nil {
		return nil, err
	}
	r := &CreateRes{Status: Status(st)}
	if r.Status == NFS3OK {
		present, err := d.Bool()
		if err != nil {
			return nil, err
		}
		if present {
			r.File, err = decodeFH(d)
			if err != nil {
				return nil, err
			}
		}
		present, err = d.Bool()
		if err != nil {
			return nil, err
		}
		if present {
			r.Attrs, err = DecodeFileAttrs(d)
			if err != nil {
				return nil, err
			}
		}
	}
	r.Wcc, err = DecodeWccData(d)
	if err != nil {
		return nil, err
	}
	return r, nil
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
func DecodeRemoveArgs(d *xdr.Decoder) (*RemoveArgs, error) {
	fh, err := decodeFH(d)
	if err != nil {
		return nil, err
	}
	name, err := d.String()
	if err != nil {
		return nil, err
	}
	return &RemoveArgs{Dir: fh, Name: name}, nil
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
func DecodeRemoveRes(d *xdr.Decoder) (*RemoveRes, error) {
	st, err := d.Uint32()
	if err != nil {
		return nil, err
	}
	r := &RemoveRes{Status: Status(st)}
	var err2 error
	r.Wcc, err2 = DecodeWccData(d)
	if err2 != nil {
		return nil, err2
	}
	return r, nil
}
