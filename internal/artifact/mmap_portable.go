//go:build !linux

package artifact

import "os"

// readEntire reads the whole file; it is the read of mapped framed kinds
// (traces). Non-Linux builds take the portable path (one buffered read
// into the heap); the Linux build maps the file instead, which avoids
// copying and zeroing the entries section.
func readEntire(path string) ([]byte, bool) {
	data, err := os.ReadFile(path)
	return data, err == nil
}

// statID returns a portable file identity (size and mtime only; no
// device/inode outside Linux). Good enough for verification
// memoization: rewrites bump mtime.
func statID(path string) (fileID, bool) {
	info, err := os.Stat(path)
	if err != nil {
		return fileID{}, false
	}
	return fileID{size: info.Size(), mtimeNS: info.ModTime().UnixNano()}, true
}
