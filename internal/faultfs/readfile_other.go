//go:build !unix

package faultfs

import "os"

// ReadFile implements FS with one read into a buffer of the file's size;
// release has nothing to do.
func (OS) ReadFile(name string) ([]byte, func(), error) {
	data, err := os.ReadFile(name)
	if err != nil {
		return nil, nil, err
	}
	return data, func() {}, nil
}
