package torture

import (
	"fmt"
	"net"
	"time"

	"rtc/internal/deadline"
	"rtc/internal/faultfs"
	"rtc/internal/faultnet"
	"rtc/internal/rtdb/client"
	wal "rtc/internal/rtdb/log"
	"rtc/internal/rtdb/netserve"
	"rtc/internal/rtdb/replica"
	"rtc/internal/rtdb/server"
)

// replDir is the replica's own WAL directory (on its own filesystem — the
// primary's power cut must not touch it).
const replDir = "rwal"

// The fabric endpoint labels. The server-side ends of accepted
// connections carry the listener's address as their label, so directions
// like {client → partPrimary} name exactly one flow.
const (
	partPrimary = "primary:1"
	partStandby = "standby:1"
)

// stackSpec is what the users of the stack vary.
type stackSpec struct {
	fab  *faultnet.Fabric // the wire; nil: loopback TCP
	seed uint64           // both filesystems and the follower's retry schedule
	// sessions sizes a full server (catalog, derivations, an alarm rule).
	// 0: the server is only the replication sender's shell and the workload
	// is appended directly to the WAL, so a kill point stays deterministic
	// in filesystem ops.
	sessions int
	net      netserve.Options // both listeners
	follower replica.Config   // the follower's timeouts; newStack fills in the rest
}

// stack is a primary and its hot standby as production wires them: the
// primary's WAL on a fault-injecting filesystem, a server on it behind
// netserve, and a replica — its own WAL on its own filesystem — tailing
// that listener and serving standby reads on a second one, from a follower
// server that a promotion turns into a primary in place.
type stack struct {
	memP, memR       *faultfs.Mem
	lp               *wal.Log
	srv              *server.Server
	ns               *netserve.Server
	rp               *replica.Replica
	primary, standby string // listener addresses
}

func (c Config) followerWAL(mem *faultfs.Mem) wal.Options {
	o := c.walOptions(mem)
	o.Dir, o.Sync = replDir, true
	return o
}

func (c Config) newStack(sp stackSpec) (st *stack, err error) {
	st = &stack{memP: faultfs.NewMem(sp.seed), memR: faultfs.NewMem(sp.seed ^ 0x5bd1e995)}
	defer func() {
		if err != nil {
			st.close()
		}
	}()
	listen := func(label string) (net.Listener, error) {
		if sp.fab != nil {
			return sp.fab.Listen(label)
		}
		return net.Listen("tcp", "127.0.0.1:0")
	}

	if st.lp, err = wal.Open(c.walOptions(st.memP)); err != nil {
		return st, fmt.Errorf("primary Open: %v", err)
	}
	scfg := server.Config{Log: st.lp}
	if sp.sessions > 0 {
		scfg = chaosServerConfig(st.lp, sp.sessions, 64)
	}
	if st.srv, err = server.New(scfg); err != nil {
		return st, fmt.Errorf("primary server: %v", err)
	}
	st.srv.Start()
	st.ns = netserve.New(st.srv, sp.net)
	pln, err := listen(partPrimary)
	if err != nil {
		return st, fmt.Errorf("primary listen: %v", err)
	}
	go func() { _ = st.ns.Serve(pln) }()
	st.primary = pln.Addr().String()

	f := sp.follower
	f.Primary, f.WAL, f.Client.Seed, f.Client.Name = st.primary, c.followerWAL(st.memR), sp.seed, "torture-follower"
	f.Client.RetryBackoff, f.Client.RetryBackoffMax = time.Millisecond, 20*time.Millisecond
	if sp.fab != nil {
		f.Client.Dialer = sp.fab.Dialer("replica")
	}
	// The follower runs the full server's config: its catalog answers
	// degraded reads, and its alarm rule is installed when it is promoted.
	if st.rp, err = replica.Open(f, chaosServerConfig(nil, max(sp.sessions, 1), 64)); err != nil {
		return st, fmt.Errorf("replica Open: %v", err)
	}
	st.rp.Start()
	sln, err := listen(partStandby)
	if err != nil {
		return st, fmt.Errorf("standby listen: %v", err)
	}
	if _, err = st.rp.ServeOn(sln, sp.net); err != nil {
		return st, fmt.Errorf("standby serve: %v", err)
	}
	st.standby = sln.Addr().String()
	return st, nil
}

// killPrimary takes the primary off the wire, as its power cut would.
func (s *stack) killPrimary() {
	s.ns.Close()
	s.srv.Stop()
}

// close tears down whatever was built, in production order — the serving
// layers, then the logs; a point closes its clients first. Every step is
// idempotent, so a point that already killed the primary, or failed half
// way through, defers the same call.
func (s *stack) close() {
	if s.ns != nil {
		s.ns.Close()
	}
	if s.srv != nil {
		s.srv.Stop()
	}
	if s.rp != nil {
		_ = s.rp.Close()
	}
	if s.lp != nil {
		s.lp.Close()
	}
}

// statusQuery is the one query the wire points issue: soft, it is served
// anywhere (degraded on a standby); firm, a standby refuses it read-only.
func statusQuery(kind deadline.Kind) client.Query {
	return client.Query{Query: "status_q", Kind: kind, Deadline: 1 << 20, MinUseful: 1}
}
