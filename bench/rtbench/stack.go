package main

import (
	"fmt"
	"strconv"
	"time"

	"rtc/bench/workload"
	"rtc/internal/rtdb"
	"rtc/internal/rtdb/client"
	wal "rtc/internal/rtdb/log"
	"rtc/internal/rtdb/netserve"
	"rtc/internal/rtdb/server"
)

// Stack settings every workload shares. The flush policy is rtdbd's
// default and is the same on both sides of any comparison.
const (
	queueDepth    = 256
	evalCost      = 1
	groupWindow   = 200 * time.Microsecond
	snapshotEvery = 65536 // rtdbd's 2000 would make ingest a snapshot benchmark
)

// serverConfig is rtdbd's demo catalog (temp, limit, derived status, the
// overheat/log-alarm rules) plus the bank of workload.Sensors images with a
// point read per sensor and one scan over the bank.
func serverConfig(sessions int, l *wal.Log) server.Config {
	images := []*rtdb.ImageObject{{Name: "temp", Period: 5}}
	catalog := rtdb.Catalog{
		"status_q": func(v *rtdb.View) []rtdb.Value {
			if s, ok := v.DeriveNow("status"); ok {
				return []rtdb.Value{s}
			}
			return nil
		},
		workload.HotSetQuery: func(v *rtdb.View) []rtdb.Value {
			limit, _ := strconv.Atoi(v.Invariants["limit"])
			var hot []rtdb.Value
			for i := 0; i < workload.Sensors; i++ {
				name := workload.SensorName(i)
				if s, ok := v.Latest(name); ok {
					if t, _ := strconv.Atoi(s.Value); t > limit {
						hot = append(hot, name)
					}
				}
			}
			return hot
		},
	}
	for i := 0; i < workload.Sensors; i++ {
		name := workload.SensorName(i)
		images = append(images, &rtdb.ImageObject{Name: name, Period: 5})
		catalog[workload.LatestQuery(i)] = func(v *rtdb.View) []rtdb.Value {
			if s, ok := v.Latest(name); ok {
				return []rtdb.Value{s.Value}
			}
			return nil
		}
	}
	return server.Config{
		Spec: rtdb.Spec{
			Invariants: map[string]rtdb.Value{"limit": strconv.Itoa(workload.Limit)},
			Images:     images,
			Derived: []*rtdb.DerivedObject{
				{Name: "status", Sources: []string{"temp", "limit"}, Derive: statusOf},
			},
		},
		Registry: rtdb.DeriveRegistry{"status": statusOf},
		Catalog:  catalog,
		Rules: []rtdb.Rule{
			{
				Name: "overheat", On: "sample:temp", Mode: rtdb.Immediate,
				If: func(db *rtdb.DB, e rtdb.Event) bool {
					t, _ := strconv.Atoi(e.Attr["value"])
					return t > workload.Limit
				},
				Then: func(db *rtdb.DB, e rtdb.Event) {
					db.Raise(rtdb.Event{Kind: "alarm", At: e.At, Attr: e.Attr})
				},
			},
			{
				Name: "log-alarm", On: "alarm", Mode: rtdb.Immediate,
				Then: func(db *rtdb.DB, e rtdb.Event) {},
			},
		},
		Sessions:   sessions,
		QueueDepth: queueDepth,
		EvalCost:   evalCost,
		Log:        l,
	}
}

func statusOf(src map[string]rtdb.Value) rtdb.Value {
	t, _ := strconv.Atoi(src["temp"])
	l, _ := strconv.Atoi(src["limit"])
	if t > l {
		return "high"
	}
	return "ok"
}

// openLog opens a WAL directory with the benchmark's fixed flush policy;
// sync false is for writing fixtures and for the append-only layer replay.
func openLog(dir string, sync bool) (*wal.Log, error) {
	return wal.Open(wal.Options{
		Dir: dir, SnapshotEvery: snapshotEvery, Sync: sync, GroupWindow: groupWindow,
	})
}

// stack is the real serving path in one process: log → server → netserve
// on an ephemeral loopback port, with clients dialled through TCP.
type stack struct {
	log     *wal.Log
	srv     *server.Server
	ns      *netserve.Server
	addr    string
	clients []*client.Client
}

// newStack starts a server with sessions sessions behind a listener; walDir
// "" runs without a log.
func newStack(sessions int, walDir string) (*stack, error) {
	st := &stack{}
	if walDir != "" {
		l, err := openLog(walDir, true)
		if err != nil {
			return nil, fmt.Errorf("open wal: %w", err)
		}
		st.log = l
	}
	srv, err := server.New(serverConfig(sessions, st.log))
	if err != nil {
		st.close()
		return nil, fmt.Errorf("new server: %w", err)
	}
	st.srv = srv
	srv.Start()
	st.ns = netserve.New(srv, netserve.Options{})
	addr, err := st.ns.Listen("127.0.0.1:0")
	if err != nil {
		st.close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	st.addr = addr.String()
	return st, nil
}

// dial adds one client connection. Retries are off: a redial would hide a
// dropped connection behind a latency blip, and the run must count it.
func (st *stack) dial(name string) (*client.Client, error) {
	c, err := client.Dial(st.addr, client.Options{Name: name, RetryAttempts: -1, Seed: 1})
	if err != nil {
		return nil, fmt.Errorf("dial %s: %w", name, err)
	}
	st.clients = append(st.clients, c)
	return c, nil
}

// dialLoaders dials n load connections named prefix-i and one control
// connection for the harness's own reads.
func (st *stack) dialLoaders(prefix string, n int) (conns []*client.Client, ctl *client.Client, err error) {
	for i := 0; i < n; i++ {
		c, err := st.dial(fmt.Sprintf("%s-%d", prefix, i))
		if err != nil {
			return nil, nil, err
		}
		conns = append(conns, c)
	}
	ctl, err = st.dial("ctl")
	return conns, ctl, err
}

// redials sums the reconnects of every client of the stack.
func (st *stack) redials() (n uint64) {
	for _, c := range st.clients {
		n += c.Stats.Redials.Load()
	}
	return n
}

// shutdown runs the two gates every wire workload ends with, no redial and
// a clean teardown, and returns the ones that failed.
func (st *stack) shutdown() (failed []string) {
	if n := st.redials(); n != 0 {
		failed = append(failed, fmt.Sprintf("client.redials==0 (%d)", n))
	}
	if err := st.close(); err != nil {
		failed = append(failed, "teardown: "+err.Error())
	}
	return failed
}

// close tears the stack down in dependency order. It is safe on a
// half-built stack and reports the first error.
func (st *stack) close() error {
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	for _, c := range st.clients {
		keep(c.Close())
	}
	st.clients = nil
	if st.ns != nil {
		keep(st.ns.Close())
		st.ns = nil
	}
	if st.srv != nil {
		st.srv.Stop()
		st.srv = nil
	}
	if st.log != nil {
		keep(st.log.Close())
		st.log = nil
	}
	return first
}
