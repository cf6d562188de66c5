package main

import (
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"rtc/internal/stats"
	"strconv"
	"sync"
	"time"
)

// The machine this benchmark was built on shares its two cores and its disk
// with neighbours. When one of them is busy, everything runs slower, for
// seconds to minutes at a time: measured here, whole runs of the same code
// differed by 15 to 40 % (interquartile range over ten runs), and by up to a
// factor of two between the best and the worst run. No statistic inside a
// twenty-second run can remove that.
//
// A reference routine that uses only the standard library, never the stack
// under test, slows down with the machine in the same way: its time followed
// the stack's with a correlation of 0.95 to 1.00 from run to run. So the
// harness times one burst of the routine before and after every window and
// divides the window's times by how much slower than a pinned reference the
// two bursts ran. What is reported is time on a machine of the pinned speed;
// the raw numbers and the slowdown are printed beside it.
//
// The routine has three parts, so that it loads what the stack loads:
//
//   - echo: 64-byte round trips over loopback TCP on twice as many
//     connections as there are load goroutines, so that sockets, the
//     netpoller and goroutine wake-ups are exercised with every core busy;
//   - work: maps, strconv and small allocations on every core, which is what
//     the apply loop, the codecs and recovery mostly do;
//   - sync: small appends to a file in the scratch directory, each followed
//     by an fsync. Only a workload that waits for the disk uses it.
//
// One burst takes about a tenth of a second.
type calibrator struct {
	ln    net.Listener
	conns []net.Conn
	cores int
	scale int // divisor of the routine's length; 1 in the benchmark
	file  *os.File
	wg    sync.WaitGroup
}

const (
	calRoundTrips = 1500 // per connection
	calWorkIters  = 6000 // per core
	calSyncs      = 100

	// The pinned speed: what one burst takes on the reference box when it is
	// quiet. Only ratios between runs matter, so another machine shifts every
	// timing by one constant factor.
	calRefCPU  = 90 * time.Millisecond // echo + work
	calRefSync = 16 * time.Millisecond // calSyncs appends with fsync
)

// burst is one timing of the reference routine.
type burst struct {
	cpu  time.Duration // echo + work
	disk time.Duration // sync; 0 when not asked for
}

func newCalibrator(loaders, scale int, dir string) (*calibrator, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("calibrator: %w", err)
	}
	c := &calibrator{ln: ln, cores: loaders, scale: scale}
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			c.wg.Add(1)
			go func() {
				defer c.wg.Done()
				defer conn.Close()
				_, _ = io.Copy(conn, conn) // echo until the client closes
			}()
		}
	}()
	for i := 0; i < 2*loaders; i++ {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			c.close()
			return nil, fmt.Errorf("calibrator: %w", err)
		}
		c.conns = append(c.conns, conn)
	}
	if c.file, err = os.Create(filepath.Join(dir, "calibrate.dat")); err != nil {
		c.close()
		return nil, fmt.Errorf("calibrator: %w", err)
	}
	return c, nil
}

// close stops the echo server and waits for its goroutines.
func (c *calibrator) close() {
	for _, conn := range c.conns {
		conn.Close()
	}
	c.ln.Close()
	c.wg.Wait()
	if c.file != nil {
		c.file.Close()
	}
}

// run times the routine once; withDisk adds the sync part.
func (c *calibrator) run(withDisk bool) (burst, error) {
	var (
		b    burst
		wg   sync.WaitGroup
		errs = make([]error, len(c.conns))
	)
	t0 := time.Now()
	for i, conn := range c.conns {
		wg.Add(1)
		go func(i int, conn net.Conn) {
			defer wg.Done()
			var msg [64]byte
			for n := 0; n < calRoundTrips/c.scale; n++ {
				if _, errs[i] = conn.Write(msg[:]); errs[i] != nil {
					return
				}
				if _, errs[i] = io.ReadFull(conn, msg[:]); errs[i] != nil {
					return
				}
			}
		}(i, conn)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return b, fmt.Errorf("calibrator echo: %w", err)
		}
	}
	sums := make([]int, c.cores)
	for g := range sums {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < calWorkIters/c.scale; i++ {
				m := make(map[string]int, 32)
				for k := 0; k < 32; k++ {
					m[strconv.Itoa(i*31+k)] = k
				}
				s := make([]byte, 0, 256)
				for k := 0; k < 32; k++ {
					s = strconv.AppendInt(s, int64(m[strconv.Itoa(i*31+k)]), 10)
				}
				sums[g] += len(s) + len(m)
			}
		}(g)
	}
	wg.Wait()
	b.cpu = time.Since(t0)
	if sums[0] == 0 {
		return b, fmt.Errorf("calibrator work: empty result")
	}
	if withDisk {
		// The median append, times their number: one stalled fsync in a
		// hundred must not pass for a slow disk.
		var block [2048]byte
		each := make([]float64, max(1, calSyncs/c.scale))
		for i := range each {
			t1 := time.Now()
			if _, err := c.file.Write(block[:]); err != nil {
				return b, fmt.Errorf("calibrator sync: %w", err)
			}
			if err := c.file.Sync(); err != nil {
				return b, fmt.Errorf("calibrator sync: %w", err)
			}
			each[i] = float64(time.Since(t1))
		}
		b.disk = time.Duration(stats.Median(each) * float64(len(each)))
	}
	return b, nil
}

// slowdown is how much slower than the pinned speed the machine ran between
// two bursts. diskShare is the share of the workload's time that waits for
// the disk; the rest follows the processor.
func slowdown(before, after burst, diskShare float64) float64 {
	s := (1 - diskShare) * float64(before.cpu+after.cpu) / 2 / float64(calRefCPU)
	if diskShare > 0 {
		s += diskShare * float64(before.disk+after.disk) / 2 / float64(calRefSync)
	}
	return s
}
