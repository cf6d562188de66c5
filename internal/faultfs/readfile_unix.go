//go:build unix

package faultfs

import (
	"fmt"
	"os"
	"syscall"
)

// ReadFile implements FS with a read-only private mapping of the file, so
// nothing is zeroed or copied and the collector never sees the bytes;
// release unmaps them. An empty file maps nothing. The mapping reads the
// file as it is when a page is first touched: a page that cannot be read
// then, or that a cut has put past the file's end, faults (SIGBUS), which
// the reader must be ready to take as a panic (runtime/debug.SetPanicOnFault).
func (OS) ReadFile(name string) ([]byte, func(), error) {
	f, err := os.Open(name)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, nil, err
	}
	size := fi.Size()
	if size == 0 {
		return []byte{}, func() {}, nil
	}
	if int64(int(size)) != size {
		return nil, nil, fmt.Errorf("faultfs: %s: %d bytes do not fit a mapping", name, size)
	}
	data, err := syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_PRIVATE)
	if err != nil {
		return nil, nil, &os.PathError{Op: "mmap", Path: name, Err: err}
	}
	return data, func() {
		if data != nil {
			syscall.Munmap(data)
			data = nil
		}
	}, nil
}
