package netfs

import (
	"encoding/binary"
	"hash/fnv"

	"github.com/psmr/psmr/internal/cdep"
	"github.com/psmr/psmr/internal/command"
	"github.com/psmr/psmr/internal/lz4"
	"github.com/psmr/psmr/internal/mvstore"
)

// Command identifiers of the NetFS service (the paper's FUSE subset,
// §V-B).
const (
	CmdCreate command.ID = iota + 1
	CmdMknod
	CmdMkdir
	CmdUnlink
	CmdRmdir
	CmdOpen
	CmdUtimens
	CmdRelease
	CmdOpendir
	CmdReleasedir
	CmdAccess
	CmdLstat
	CmdRead
	CmdWrite
	CmdReaddir
)

// Input wire format: [2B path length][path][lz4-packed args]. The path
// prefix stays uncompressed so destination groups and scheduler
// conflicts can be derived without decompressing; the argument payload
// is compressed by the client proxy and decompressed by the executing
// worker thread, and responses travel compressed the other way —
// exactly the paper's compression path (§VI-C).

// EncodeInput builds a command input from a path and raw arguments.
func EncodeInput(path string, args []byte) []byte {
	buf := make([]byte, 0, 2+len(path)+5+lz4.CompressBound(len(args)))
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(path)))
	buf = append(buf, path...)
	return append(buf, lz4.Pack(args)...)
}

// DecodeInput splits a command input into its path and decompressed
// arguments.
func DecodeInput(input []byte) (path string, args []byte, ok bool) {
	if len(input) < 2 {
		return "", nil, false
	}
	pl := int(binary.LittleEndian.Uint16(input[:2]))
	if len(input) < 2+pl {
		return "", nil, false
	}
	path = string(input[2 : 2+pl])
	args, err := lz4.Unpack(input[2+pl:])
	if err != nil {
		return "", nil, false
	}
	return path, args, true
}

// KeyOf hashes the path prefix of a command input (the cdep.KeyFunc of
// every single-key NetFS command). Same path → same key → same group.
func KeyOf(input []byte) (uint64, bool) {
	if len(input) < 2 {
		return 0, false
	}
	pl := int(binary.LittleEndian.Uint16(input[:2]))
	if len(input) < 2+pl {
		return 0, false
	}
	h := fnv.New64a()
	_, _ = h.Write(input[2 : 2+pl])
	return h.Sum64(), true
}

// KeySetOf extracts the {path, parent-directory} key set of a
// structural command input (the cdep.KeySetFunc of create, mknod,
// mkdir, unlink and rmdir): those calls mutate the named inode AND the
// parent's entry list, and nothing else. The root has no parent, so
// operations naming "/" carry a singleton set. Like KeyOf, it reads
// only the uncompressed path prefix.
func KeySetOf(dst []uint64, input []byte) ([]uint64, bool) {
	if len(input) < 2 {
		return dst, false
	}
	pl := int(binary.LittleEndian.Uint16(input[:2]))
	if len(input) < 2+pl {
		return dst, false
	}
	path := string(input[2 : 2+pl])
	dst = append(dst, pathHash(path))
	if parent := ParentPath(path); parent != "" {
		dst = append(dst, pathHash(parent))
	}
	return dst, true
}

// Service adapts FS to command.Service, handling the compressed wire
// format. Compression work happens inside Execute, i.e. on the worker
// threads, matching where the paper accounts it.
type Service struct {
	fs *FS
}

// NewService creates a NetFS state machine.
func NewService() *Service {
	return &Service{fs: NewFS()}
}

// FS exposes the underlying file system (tests, direct inspection).
func (s *Service) FS() *FS { return s.fs }

var _ command.Service = (*Service)(nil)
var _ command.Versioned = (*Service)(nil)

// Execute implements command.Service.
func (s *Service) Execute(cmd command.ID, input []byte) []byte {
	return s.SpeculateAt(mvstore.Committed, cmd, input)
}

// SpeculateAt implements command.Versioned: the command executes
// against epoch e's view of the versioned file system, landing every
// mutation — inode edits, descriptor allocation, sequence bumps — as
// uncommitted versions. Abort(e) drops exactly those versions, so a
// rolled-back NetFS speculation costs O(paths it touched) instead of
// the old whole-state clone+replay.
func (s *Service) SpeculateAt(e mvstore.Epoch, cmd command.ID, input []byte) []byte {
	path, args, ok := DecodeInput(input)
	if !ok {
		return lz4.Pack([]byte{byte(ErrInval)})
	}
	return lz4.Pack(s.apply(e, cmd, path, args))
}

// Commit implements command.Versioned.
func (s *Service) Commit(e mvstore.Epoch) { s.fs.Commit(e) }

// Abort implements command.Versioned.
func (s *Service) Abort(e mvstore.Epoch) { s.fs.Abort(e) }

// Uncommitted implements command.Versioned.
func (s *Service) Uncommitted() int { return s.fs.Uncommitted() }

// apply runs one decompressed command at epoch e and builds the raw
// response.
func (s *Service) apply(e mvstore.Epoch, cmd command.ID, path string, args []byte) []byte {
	switch cmd {
	case CmdCreate:
		mode, mtime, ok := decodeModeTime(args)
		if !ok {
			return []byte{byte(ErrInval)}
		}
		fd, errno := s.fs.CreateAt(e, path, mode, mtime)
		return appendFD(errno, fd)
	case CmdMknod:
		mode, mtime, ok := decodeModeTime(args)
		if !ok {
			return []byte{byte(ErrInval)}
		}
		return []byte{byte(s.fs.MknodAt(e, path, mode, mtime))}
	case CmdMkdir:
		mode, mtime, ok := decodeModeTime(args)
		if !ok {
			return []byte{byte(ErrInval)}
		}
		return []byte{byte(s.fs.MkdirAt(e, path, mode, mtime))}
	case CmdUnlink:
		mtime, ok := decodeTime(args)
		if !ok {
			return []byte{byte(ErrInval)}
		}
		return []byte{byte(s.fs.UnlinkAt(e, path, mtime))}
	case CmdRmdir:
		mtime, ok := decodeTime(args)
		if !ok {
			return []byte{byte(ErrInval)}
		}
		return []byte{byte(s.fs.RmdirAt(e, path, mtime))}
	case CmdOpen:
		fd, errno := s.fs.OpenAt(e, path)
		return appendFD(errno, fd)
	case CmdUtimens:
		if len(args) < 16 {
			return []byte{byte(ErrInval)}
		}
		atime := int64(binary.LittleEndian.Uint64(args[:8]))
		mtime := int64(binary.LittleEndian.Uint64(args[8:16]))
		return []byte{byte(s.fs.UtimensAt(e, path, atime, mtime))}
	case CmdRelease:
		fd, ok := decodeFD(args)
		if !ok {
			return []byte{byte(ErrInval)}
		}
		if path == "" {
			// An empty declared path would bypass the fd-to-path
			// verification that keeps this call inside its scheduler
			// key; the descriptor cannot be valid.
			return []byte{byte(ErrBadFd)}
		}
		return []byte{byte(s.fs.ReleasePathAt(e, path, fd))}
	case CmdOpendir:
		fd, errno := s.fs.OpendirAt(e, path)
		return appendFD(errno, fd)
	case CmdReleasedir:
		fd, ok := decodeFD(args)
		if !ok {
			return []byte{byte(ErrInval)}
		}
		if path == "" {
			return []byte{byte(ErrBadFd)}
		}
		return []byte{byte(s.fs.ReleasedirPathAt(e, path, fd))}
	case CmdAccess:
		return []byte{byte(s.fs.AccessAt(e, path))}
	case CmdLstat:
		st, errno := s.fs.LstatAt(e, path)
		if errno != OK {
			return []byte{byte(errno)}
		}
		out := make([]byte, 1, 1+8+4+8+8+8)
		out[0] = byte(OK)
		out = binary.LittleEndian.AppendUint64(out, st.Ino)
		out = binary.LittleEndian.AppendUint32(out, st.Mode)
		out = binary.LittleEndian.AppendUint64(out, st.Size)
		out = binary.LittleEndian.AppendUint64(out, uint64(st.Mtime))
		out = binary.LittleEndian.AppendUint64(out, uint64(st.Atime))
		return out
	case CmdRead:
		if len(args) < 20 {
			return []byte{byte(ErrInval)}
		}
		if path == "" {
			return []byte{byte(ErrBadFd)}
		}
		fd := binary.LittleEndian.Uint64(args[:8])
		offset := binary.LittleEndian.Uint64(args[8:16])
		size := binary.LittleEndian.Uint32(args[16:20])
		data, errno := s.fs.ReadPathAt(e, path, fd, offset, size)
		if errno != OK {
			return []byte{byte(errno)}
		}
		out := make([]byte, 1+len(data))
		out[0] = byte(OK)
		copy(out[1:], data)
		return out
	case CmdWrite:
		if len(args) < 24 {
			return []byte{byte(ErrInval)}
		}
		if path == "" {
			return []byte{byte(ErrBadFd)}
		}
		fd := binary.LittleEndian.Uint64(args[:8])
		offset := binary.LittleEndian.Uint64(args[8:16])
		mtime := int64(binary.LittleEndian.Uint64(args[16:24]))
		n, errno := s.fs.WritePathAt(e, path, fd, offset, args[24:], mtime)
		if errno != OK {
			return []byte{byte(errno)}
		}
		out := make([]byte, 1, 5)
		out[0] = byte(OK)
		return binary.LittleEndian.AppendUint32(out, n)
	case CmdReaddir:
		names, errno := s.fs.ReaddirAt(e, path)
		if errno != OK {
			return []byte{byte(errno)}
		}
		out := make([]byte, 1, 16)
		out[0] = byte(OK)
		out = binary.LittleEndian.AppendUint32(out, uint32(len(names)))
		for _, name := range names {
			out = binary.LittleEndian.AppendUint16(out, uint16(len(name)))
			out = append(out, name...)
		}
		return out
	default:
		return []byte{byte(ErrInval)}
	}
}

func appendFD(errno Errno, fd uint64) []byte {
	if errno != OK {
		return []byte{byte(errno)}
	}
	out := make([]byte, 1, 9)
	out[0] = byte(OK)
	return binary.LittleEndian.AppendUint64(out, fd)
}

func decodeModeTime(args []byte) (mode uint32, mtime int64, ok bool) {
	if len(args) < 12 {
		return 0, 0, false
	}
	return binary.LittleEndian.Uint32(args[:4]), int64(binary.LittleEndian.Uint64(args[4:12])), true
}

func decodeTime(args []byte) (int64, bool) {
	if len(args) < 8 {
		return 0, false
	}
	return int64(binary.LittleEndian.Uint64(args[:8])), true
}

func decodeFD(args []byte) (uint64, bool) {
	if len(args) < 8 {
		return 0, false
	}
	return binary.LittleEndian.Uint64(args[:8]), true
}

// Spec returns NetFS's C-Dep, rewritten from the paper's §V-B original
// around key-set scheduling: NO NetFS command depends on all commands
// anymore.
//
//   - Structural calls (create, mknod, mkdir, unlink, rmdir) key on the
//     SET {path, parent-dir} (KeySetOf): they mutate the named inode
//     and the parent's entry list, nothing else. They compile to
//     RouteMultiKey instead of the paper's synchronous mode.
//   - open, utimens, release, opendir, releasedir and write are
//     single-path writers (the descriptor table and inode content are
//     per-path deterministic, see fs.go).
//   - access, lstat, read and readdir are per-path read-only: they
//     conflict with same-path writers but not with each other, so the
//     engines' reader sets let them overlap.
//
// The only invocations left in synchronous mode are the truly
// unpredictable ones: inputs whose path cannot be parsed (the keyless
// fallback both engines and the client C-G already apply).
func Spec() cdep.Spec {
	structural := []command.ID{CmdCreate, CmdMknod, CmdMkdir, CmdUnlink, CmdRmdir}
	pathWriters := []command.ID{
		CmdOpen, CmdUtimens, CmdRelease, CmdOpendir, CmdReleasedir, CmdWrite,
	}
	readers := []command.ID{CmdAccess, CmdLstat, CmdRead, CmdReaddir}

	// Command order is fixed: the compiled classification must be
	// identical in every process of a deployment.
	ordered := []cdep.Command{
		{ID: CmdCreate, Name: "create", KeySet: KeySetOf},
		{ID: CmdMknod, Name: "mknod", KeySet: KeySetOf},
		{ID: CmdMkdir, Name: "mkdir", KeySet: KeySetOf},
		{ID: CmdUnlink, Name: "unlink", KeySet: KeySetOf},
		{ID: CmdRmdir, Name: "rmdir", KeySet: KeySetOf},
		{ID: CmdOpen, Name: "open", Key: KeyOf},
		{ID: CmdUtimens, Name: "utimens", Key: KeyOf},
		{ID: CmdRelease, Name: "release", Key: KeyOf},
		{ID: CmdOpendir, Name: "opendir", Key: KeyOf},
		{ID: CmdReleasedir, Name: "releasedir", Key: KeyOf},
		{ID: CmdAccess, Name: "access", Key: KeyOf},
		{ID: CmdLstat, Name: "lstat", Key: KeyOf},
		{ID: CmdRead, Name: "read", Key: KeyOf},
		{ID: CmdWrite, Name: "write", Key: KeyOf},
		{ID: CmdReaddir, Name: "readdir", Key: KeyOf},
	}
	var spec cdep.Spec
	spec.Commands = ordered
	// Every writer conflicts with every command touching an overlapping
	// key set (itself included); readers conflict only with writers.
	writers := append(append([]command.ID{}, structural...), pathWriters...)
	all := append(append([]command.ID{}, writers...), readers...)
	for i, w := range writers {
		for _, other := range all[i:] {
			spec.Deps = append(spec.Deps, cdep.Dep{A: w, B: other, SameKey: true})
		}
	}
	return spec
}
