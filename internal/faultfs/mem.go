package faultfs

import (
	"fmt"
	"io"
	"math/rand/v2"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// pwrite is one unsynced data write: it reached the page cache but not the
// platter, so a crash may drop or tear it.
type pwrite struct {
	off  int64
	data []byte
}

// memFile models one file as two layers: durable is what the platter holds,
// cache is what readers of the live filesystem see (durable plus every
// pending write), pending the unsynced writes in issue order.
type memFile struct {
	durable []byte
	cache   []byte
	pending []pwrite
}

func (f *memFile) sync() {
	f.durable = append(f.durable[:0:0], f.cache...)
	f.pending = nil
}

// applyAt writes data into buf at off, zero-filling any gap.
func applyAt(buf []byte, off int64, data []byte) []byte {
	for int64(len(buf)) < off {
		buf = append(buf, 0)
	}
	n := copy(buf[off:], data)
	return append(buf, data[n:]...)
}

// Mem is an in-memory FS with seeded fault injection. It is safe for
// concurrent use (the chaos harness shares one Mem between the apply loop
// and recovery). All faults are scheduled against deterministic per-kind
// operation counters, so the same seed and workload hit the same ops.
type Mem struct {
	mu    sync.Mutex
	rng   *rand.Rand
	files map[string]*memFile
	dirs  map[string]bool

	ops     uint64 // mutating ops issued (write, sync, rename, remove, truncate, create)
	writes  uint64 // data writes issued
	syncs   uint64
	renames uint64

	crashAt uint64 // power cut when ops reaches this count (0 = disarmed)
	dead    bool
	gen     uint64 // bumped by Crash(); stale handles fail

	failWrites  map[uint64]bool // transient EIO on the nth write: nothing lands
	tornWrites  map[uint64]bool // the nth write lands a seeded strict prefix, then EIO
	failSyncs   map[uint64]bool
	failRenames map[uint64]bool

	injected uint64 // faults actually delivered
}

// NewMem returns an empty filesystem whose crash materialization and torn
// lengths are driven by a PCG stream seeded with seed — same seed, same
// workload, same crash image.
func NewMem(seed uint64) *Mem {
	return &Mem{
		rng:         rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15)),
		files:       map[string]*memFile{},
		dirs:        map[string]bool{},
		failWrites:  map[uint64]bool{},
		tornWrites:  map[uint64]bool{},
		failSyncs:   map[uint64]bool{},
		failRenames: map[uint64]bool{},
	}
}

// CrashAt arms the power-cut trigger: the opth mutating operation (1-based)
// and everything after it fails with ErrPowerCut until Crash is called.
func (m *Mem) CrashAt(op uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.crashAt = op
}

// FailWrite makes the nth data write (1-based) fail with ErrInjected
// without landing any bytes — a transient EIO.
func (m *Mem) FailWrite(n uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.failWrites[n] = true
}

// TearWrite makes the nth data write land only a seeded strict prefix and
// then fail with ErrInjected — a short write.
func (m *Mem) TearWrite(n uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.tornWrites[n] = true
}

// FailSync makes the nth Sync call fail with ErrInjected; nothing becomes
// durable from it (the page cache state is exactly as unknown as after a
// real fsync failure).
func (m *Mem) FailSync(n uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.failSyncs[n] = true
}

// FailRename makes the nth Rename call fail with ErrInjected.
func (m *Mem) FailRename(n uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.failRenames[n] = true
}

// Ops returns the number of mutating operations issued so far.
func (m *Mem) Ops() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.ops
}

// Writes returns the number of data writes issued so far.
func (m *Mem) Writes() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.writes
}

// Syncs returns the number of Sync calls issued so far.
func (m *Mem) Syncs() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.syncs
}

// Renames returns the number of renames issued so far.
func (m *Mem) Renames() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.renames
}

// Injected returns how many faults were actually delivered.
func (m *Mem) Injected() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.injected
}

// Dead reports whether the power-cut trigger fired.
func (m *Mem) Dead() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.dead
}

// Crash materializes the post-crash disk image and revives the filesystem:
// for every file, durable content survives, then a seeded number of pending
// (unsynced) writes land in issue order, the next one possibly torn to a
// strict prefix, and the rest are lost. Open handles from before the crash
// are invalidated; counters and fault schedules reset so recovery runs
// clean.
func (m *Mem) Crash() {
	m.mu.Lock()
	defer m.mu.Unlock()
	names := make([]string, 0, len(m.files))
	for name := range m.files {
		names = append(names, name)
	}
	sort.Strings(names) // deterministic rng consumption order
	for _, name := range names {
		f := m.files[name]
		img := append([]byte(nil), f.durable...)
		keep := m.rng.IntN(len(f.pending) + 1)
		for _, w := range f.pending[:keep] {
			img = applyAt(img, w.off, w.data)
		}
		if keep < len(f.pending) && m.rng.IntN(2) == 0 {
			w := f.pending[keep]
			if n := m.rng.IntN(len(w.data) + 1); n > 0 {
				img = applyAt(img, w.off, w.data[:n])
			}
		}
		f.durable = img
		f.cache = append([]byte(nil), img...)
		f.pending = nil
	}
	m.dead = false
	m.crashAt = 0
	m.gen++
	m.ops, m.writes, m.syncs, m.renames = 0, 0, 0, 0
	m.failWrites = map[uint64]bool{}
	m.tornWrites = map[uint64]bool{}
	m.failSyncs = map[uint64]bool{}
	m.failRenames = map[uint64]bool{}
}

// DumpFile returns the current bytes of name (what a reader would see), or
// nil when absent. The torture harness uses it to export failing segment
// images as fuzz corpus seeds.
func (m *Mem) DumpFile(name string) []byte {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[clean(name)]
	if !ok {
		return nil
	}
	return append([]byte(nil), f.cache...)
}

// mutate charges one mutating op against the power-cut trigger. Callers
// hold m.mu.
func (m *Mem) mutate() error {
	if m.dead {
		return ErrPowerCut
	}
	m.ops++
	if m.crashAt > 0 && m.ops >= m.crashAt {
		m.dead = true
		m.injected++
		return ErrPowerCut
	}
	return nil
}

// MkdirAll implements FS.
func (m *Mem) MkdirAll(dir string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.dead {
		return ErrPowerCut
	}
	m.dirs[clean(dir)] = true
	return nil
}

// ReadDir implements FS.
func (m *Mem) ReadDir(dir string) ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.dead {
		return nil, ErrPowerCut
	}
	dir = clean(dir)
	var names []string
	for name := range m.files {
		if filepath.Dir(name) == dir {
			names = append(names, filepath.Base(name))
		}
	}
	if names == nil && !m.dirs[dir] {
		return nil, fmt.Errorf("faultfs: readdir %s: %w", dir, errNotExist)
	}
	sort.Strings(names)
	return names, nil
}

var errNotExist = fmt.Errorf("file does not exist")

// Open implements FS.
func (m *Mem) Open(name string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.dead {
		return nil, ErrPowerCut
	}
	name = clean(name)
	if _, ok := m.files[name]; !ok {
		return nil, fmt.Errorf("faultfs: open %s: %w", name, errNotExist)
	}
	return &memHandle{m: m, name: name, gen: m.gen}, nil
}

// ReadFile implements FS with a copy of the bytes a reader of name sees.
// Its release overwrites the copy, so a reader that keeps any of it past
// release finds its bytes changed.
func (m *Mem) ReadFile(name string) ([]byte, func(), error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.dead {
		return nil, nil, ErrPowerCut
	}
	name = clean(name)
	f, ok := m.files[name]
	if !ok {
		return nil, nil, fmt.Errorf("faultfs: open %s: %w", name, errNotExist)
	}
	data := append([]byte{}, f.cache...)
	return data, func() {
		for i := range data {
			data[i] = released
		}
	}, nil
}

// released is the byte Mem's ReadFile release overwrites a copy with.
const released = 0xA5

// OpenWrite implements FS.
func (m *Mem) OpenWrite(name string) (File, error) {
	return m.openWritable(name, false)
}

// Create implements FS.
func (m *Mem) Create(name string) (File, error) {
	return m.openWritable(name, true)
}

func (m *Mem) openWritable(name string, trunc bool) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	name = clean(name)
	f, exists := m.files[name]
	if !exists || trunc {
		// Creation/truncation is a metadata op: atomic, durable, and
		// charged against the power-cut trigger.
		if err := m.mutate(); err != nil {
			return nil, err
		}
		if !exists {
			f = &memFile{}
			m.files[name] = f
		} else {
			f.durable = nil
			f.cache = nil
			f.pending = nil
		}
	} else if m.dead {
		return nil, ErrPowerCut
	}
	return &memHandle{m: m, name: name, gen: m.gen}, nil
}

// Rename implements FS.
func (m *Mem) Rename(oldname, newname string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.mutate(); err != nil {
		return err
	}
	m.renames++
	if m.failRenames[m.renames] {
		m.injected++
		return fmt.Errorf("faultfs: rename %s: %w", oldname, ErrInjected)
	}
	oldname, newname = clean(oldname), clean(newname)
	f, ok := m.files[oldname]
	if !ok {
		return fmt.Errorf("faultfs: rename %s: %w", oldname, errNotExist)
	}
	// Atomic durable replace: the renamed file carries its cache content
	// (the WAL syncs before renaming, so in practice cache == durable).
	delete(m.files, oldname)
	m.files[newname] = f
	return nil
}

// Remove implements FS.
func (m *Mem) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.mutate(); err != nil {
		return err
	}
	name = clean(name)
	if _, ok := m.files[name]; !ok {
		return fmt.Errorf("faultfs: remove %s: %w", name, errNotExist)
	}
	delete(m.files, name)
	return nil
}

// Truncate implements FS. It is modeled as a synchronizing metadata op:
// the surviving prefix is durable afterwards (the WAL only truncates while
// healing or recovering, where that is the conservative choice).
func (m *Mem) Truncate(name string, size int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.mutate(); err != nil {
		return err
	}
	name = clean(name)
	f, ok := m.files[name]
	if !ok {
		return fmt.Errorf("faultfs: truncate %s: %w", name, errNotExist)
	}
	for int64(len(f.cache)) < size {
		f.cache = append(f.cache, 0)
	}
	f.cache = f.cache[:size]
	f.durable = append(f.durable[:0:0], f.cache...)
	f.pending = nil
	return nil
}

// memHandle is one open descriptor: a position over a shared memFile.
type memHandle struct {
	m    *Mem
	name string
	gen  uint64
	pos  int64
}

// file resolves the handle, failing if the filesystem crashed or died
// since it was opened. Callers hold m.mu.
func (h *memHandle) file() (*memFile, error) {
	if h.m.dead {
		return nil, ErrPowerCut
	}
	if h.gen != h.m.gen {
		return nil, fmt.Errorf("faultfs: %s: stale handle across crash", h.name)
	}
	f, ok := h.m.files[h.name]
	if !ok {
		return nil, fmt.Errorf("faultfs: %s: %w", h.name, errNotExist)
	}
	return f, nil
}

func (h *memHandle) Read(p []byte) (int, error) {
	h.m.mu.Lock()
	defer h.m.mu.Unlock()
	f, err := h.file()
	if err != nil {
		return 0, err
	}
	if h.pos >= int64(len(f.cache)) {
		return 0, io.EOF
	}
	n := copy(p, f.cache[h.pos:])
	h.pos += int64(n)
	return n, nil
}

func (h *memHandle) Write(p []byte) (int, error) {
	h.m.mu.Lock()
	defer h.m.mu.Unlock()
	m := h.m
	if err := m.mutate(); err != nil {
		return 0, err
	}
	f, err := h.file()
	if err != nil {
		return 0, err
	}
	m.writes++
	switch {
	case m.failWrites[m.writes]:
		m.injected++
		return 0, fmt.Errorf("faultfs: write %s: %w", h.name, ErrInjected)
	case m.tornWrites[m.writes] && len(p) > 0:
		m.injected++
		n := m.rng.IntN(len(p)) // strict prefix, possibly empty
		f.cache = applyAt(f.cache, h.pos, p[:n])
		f.pending = append(f.pending, pwrite{off: h.pos, data: append([]byte(nil), p[:n]...)})
		h.pos += int64(n)
		return n, fmt.Errorf("faultfs: short write %s: %w", h.name, ErrInjected)
	}
	f.cache = applyAt(f.cache, h.pos, p)
	f.pending = append(f.pending, pwrite{off: h.pos, data: append([]byte(nil), p...)})
	h.pos += int64(len(p))
	return len(p), nil
}

func (h *memHandle) Seek(offset int64, whence int) (int64, error) {
	h.m.mu.Lock()
	defer h.m.mu.Unlock()
	f, err := h.file()
	if err != nil {
		return 0, err
	}
	switch whence {
	case io.SeekStart:
		h.pos = offset
	case io.SeekCurrent:
		h.pos += offset
	case io.SeekEnd:
		h.pos = int64(len(f.cache)) + offset
	default:
		return 0, fmt.Errorf("faultfs: seek %s: bad whence %d", h.name, whence)
	}
	if h.pos < 0 {
		return 0, fmt.Errorf("faultfs: seek %s: negative position", h.name)
	}
	return h.pos, nil
}

func (h *memHandle) Sync() error {
	h.m.mu.Lock()
	defer h.m.mu.Unlock()
	m := h.m
	if err := m.mutate(); err != nil {
		return err
	}
	f, err := h.file()
	if err != nil {
		return err
	}
	m.syncs++
	if m.failSyncs[m.syncs] {
		m.injected++
		return fmt.Errorf("faultfs: sync %s: %w", h.name, ErrInjected)
	}
	f.sync()
	return nil
}

func (h *memHandle) Size() (int64, error) {
	h.m.mu.Lock()
	defer h.m.mu.Unlock()
	f, err := h.file()
	if err != nil {
		return 0, err
	}
	return int64(len(f.cache)), nil
}

func (h *memHandle) Close() error {
	// Closing is not a durability point and never fails in the model; a
	// dead filesystem tolerates closes so recovery paths can unwind.
	return nil
}

// String summarizes the injector for failure messages.
func (m *Mem) String() string {
	m.mu.Lock()
	defer m.mu.Unlock()
	var b strings.Builder
	fmt.Fprintf(&b, "faultfs.Mem{files=%d ops=%d writes=%d syncs=%d renames=%d injected=%d dead=%v}",
		len(m.files), m.ops, m.writes, m.syncs, m.renames, m.injected, m.dead)
	return b.String()
}
