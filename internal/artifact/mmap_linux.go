//go:build linux

package artifact

import (
	"os"
	"syscall"
)

// readEntire maps the file privately and returns its bytes; it is the
// read of mapped framed kinds (traces, see framedKind.read). A private
// (copy-on-write) read-write mapping is deliberate: decoded traces alias
// the mapping, and MAP_PRIVATE guarantees that even an accidental write
// through an aliased entry can never reach the cache file. Mappings are
// intentionally never unmapped — decoded traces live for the process
// lifetime in the runner's in-memory cache, the store memoizes each
// decoded file so one content maps once, and the handful of proxy
// traces is small. That bargain only holds for traces: every other
// kind decodes by copying and reads into an owned buffer, or each read
// would leak a mapping. Eviction unlinking a mapped file is safe: the
// pages stay valid until the mapping goes away, and writers only ever
// rename fresh inodes into place (entries are immutable once
// published).
func readEntire(path string) ([]byte, bool) {
	f, err := os.Open(path)
	if err != nil {
		return nil, false
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil || info.Size() == 0 {
		return nil, err == nil // an empty file is a (corrupt) cache entry
	}
	buf, err := syscall.Mmap(int(f.Fd()), 0, int(info.Size()),
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE)
	if err != nil {
		// Fall back to a plain read (e.g. filesystems without mmap).
		data, rerr := os.ReadFile(path)
		return data, rerr == nil
	}
	return buf, true
}

// statID returns the file's identity for checksum-verification
// memoization: device, inode, size and mtime. Any in-place rewrite,
// truncation or rename-over changes at least one component.
func statID(path string) (fileID, bool) {
	info, err := os.Stat(path)
	if err != nil {
		return fileID{}, false
	}
	st, ok := info.Sys().(*syscall.Stat_t)
	if !ok {
		return fileID{}, false
	}
	return fileID{
		dev: uint64(st.Dev), ino: st.Ino,
		size: info.Size(), mtimeNS: info.ModTime().UnixNano(),
	}, true
}
