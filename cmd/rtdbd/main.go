// Command rtdbd runs the durable, concurrent real-time database server on
// the wire. It loads (or crash-recovers) a write-ahead log
// directory and serves the rtwire protocol over TCP: timed sensor samples,
// firm/soft-deadline queries whose deadlines travel with them, temporal
// as-of reads, and metrics snapshots, with periodic standing queries
// evaluated server-side.
//
// It serves -listen until SIGINT or SIGTERM, then drains and prints its
// books:
//
//	go run ./cmd/rtdbd -dir /tmp/rtdbd -listen 127.0.0.1:7677 -sessions 32
//
// Its input is produced outside it: rtdbload is the load generator, run
// from another terminal:
//
//	go run ./cmd/rtdbload -addr 127.0.0.1:7677 -conns 8 -ops 500
//
// Restart it against the same -dir to watch recovery install the log.
//
// -shards N runs N complete single-shard stacks — one WAL directory
// (dir/shard-NN), one apply loop, one clock, one rtwire listener each.
// Placement is the client's: it computes rtwire.ShardOf and talks to the
// owning shard's listener. There is one code path for every N: -shards 1
// (the default) is its one-shard case, with the base directory used
// verbatim and a byte-identical log.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strconv"
	"syscall"
	"time"

	"rtc/internal/deadline"
	"rtc/internal/rtdb"
	"rtc/internal/rtdb/client"
	wal "rtc/internal/rtdb/log"
	"rtc/internal/rtdb/netserve"
	"rtc/internal/rtdb/replica"
	"rtc/internal/rtdb/server"
	"rtc/internal/rtwire"
	"rtc/internal/timeseq"
)

func main() {
	var (
		dir      = flag.String("dir", "", "WAL directory (empty: run without durability)")
		listen   = flag.String("listen", "127.0.0.1:7677", "serve rtwire over TCP on this address until interrupted (shard i serves on port+i)")
		shards   = flag.Int("shards", 1, "shard the keyspace over this many single-shard stacks, one WAL directory and one listener each (1: unsharded, byte-identical layout)")
		sessions = flag.Int("sessions", 8, "server sessions == max concurrent connections")
		segSize  = flag.Int64("segment-size", 1<<20, "WAL segment rotation size (bytes)")
		snapshot = flag.Uint64("snapshot-every", 2000, "WAL catalog snapshot period (events, 0: never)")
		fsync    = flag.Bool("fsync", false, "fsync the WAL after every append")
		fsyncWin = flag.Duration("fsync-window", 200*time.Microsecond, "group-commit window with -fsync: concurrent appends share one fsync per window (0: fsync each append)")
		evalCost = flag.Uint64("eval-cost", 2, "chronons one query evaluation costs")
		queue    = flag.Int("queue-depth", 64, "per-session queue depth")

		pprofAddr = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. 127.0.0.1:6060)")

		replicaOf    = flag.String("replica-of", "", "follow this primary address as a hot standby (requires -dir)")
		promote      = flag.Bool("promote", false, "bump the fencing epoch in -dir before serving (turn a stopped replica into the new primary)")
		promoteAfter = flag.Duration("promote-after", 0, "replica mode: auto-promote after this much primary silence (0: manual, SIGHUP); use several times the primary heartbeat interval (1s)")
	)
	flag.Parse()
	if *pprofAddr != "" {
		startPprof(*pprofAddr)
	}
	var err error
	switch {
	case *replicaOf != "" && *shards > 1:
		err = fmt.Errorf("-replica-of follows one shard's listener; run one replica per shard (drop -shards)")
	case *replicaOf != "":
		err = runReplica(*dir, *listen, *replicaOf, *promoteAfter, *sessions, *segSize, *snapshot, *fsync, *fsyncWin, *evalCost, *queue)
	default:
		err = run(*dir, *listen, max(*shards, 1), *sessions, *segSize, *snapshot, *fsync, *fsyncWin, *promote, *evalCost, *queue)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "rtdbd:", err)
		os.Exit(1)
	}
}

// shardLabel prefixes a per-shard line; a lone shard needs no label.
func shardLabel(i, shards int) string {
	if shards == 1 {
		return ""
	}
	return fmt.Sprintf("shard %d/%d: ", i, shards)
}

func run(dir, listen string, shards, sessions int, segSize int64, snapshot uint64, fsync bool,
	fsyncWin time.Duration, promote bool, evalCost uint64, queue int) error {
	var logs []*wal.Log
	if dir != "" {
		for i := 0; i < shards; i++ {
			l, err := wal.Open(wal.Options{
				Dir: server.ShardDir(dir, i, shards), SegmentSize: segSize,
				SnapshotEvery: snapshot, Sync: fsync, GroupWindow: fsyncWin,
			})
			if err != nil {
				return err
			}
			defer l.Close()
			logs = append(logs, l)
			if st := l.State(); st.Events > 0 {
				fmt.Printf("%srecovered %d events through chronon %d (%d recovered from log replay",
					shardLabel(i, shards), st.Events, st.LastAt, l.Stats().RecoveredEvents)
				if tb := l.Stats().TruncatedBytes; tb > 0 {
					fmt.Printf(", %d torn bytes truncated", tb)
				}
				fmt.Println(")")
			} else {
				fmt.Printf("%sfresh log in %s\n", shardLabel(i, shards), server.ShardDir(dir, i, shards))
			}
			if promote {
				// Turn a (stopped) replica's log into the new primary's: fence
				// the old one out before serving a single request.
				e, err := l.BumpEpoch()
				if err != nil {
					return err
				}
				fmt.Printf("%spromoted: fencing epoch now %d\n", shardLabel(i, shards), e)
			}
		}
	} else if promote {
		return fmt.Errorf("-promote needs -dir (the replica's WAL to take over)")
	}
	return serve(serverConfig(sessions, queue, evalCost), logs, shards, listen, evalCost)
}

// sensorBank widens the demo keyspace: temp and pressure alone hash to one
// shard, so the deployment adds a bank of sensors that rtwire.ShardOf spreads
// across every lane. rtdbload drives the same names.
const sensorBank = 16

func sensorName(i int) string { return fmt.Sprintf("sensor-%02d", i%sensorBank) }

// serverConfig is the demo deployment every rtdbd role shares: primaries
// install it as their spec; a replica's follower server answers degraded
// queries from its catalog and registry, bounds connections by its sessions,
// and installs its rules at promotion — a primary with the identical books.
func serverConfig(sessions, queue int, evalCost uint64) server.Config {
	images := []*rtdb.ImageObject{
		{Name: "temp", Period: 5},
		{Name: "pressure", Period: 7},
	}
	for i := 0; i < sensorBank; i++ {
		images = append(images, &rtdb.ImageObject{Name: sensorName(i), Period: 5})
	}
	return server.Config{
		Spec: rtdb.Spec{
			Invariants: map[string]rtdb.Value{"limit": "25"},
			Images:     images,
			Derived: []*rtdb.DerivedObject{
				{Name: "status", Sources: []string{"temp", "limit"}, Derive: statusOf},
			},
		},
		Registry: rtdb.DeriveRegistry{"status": statusOf},
		Catalog: rtdb.Catalog{
			"status_q": func(v *rtdb.View) []rtdb.Value {
				if s, ok := v.DeriveNow("status"); ok {
					return []rtdb.Value{s}
				}
				return nil
			},
			"temp_q": func(v *rtdb.View) []rtdb.Value {
				if s, ok := v.Latest("temp"); ok {
					return []rtdb.Value{s.Value}
				}
				return nil
			},
		},
		Rules: []rtdb.Rule{
			{
				Name: "overheat", On: "sample:temp", Mode: rtdb.Immediate,
				If: func(db *rtdb.DB, e rtdb.Event) bool {
					t, _ := strconv.Atoi(e.Attr["value"])
					return t > 25
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
		QueueDepth: queue,
		EvalCost:   evalCost,
	}
}

// serve runs a primary to completion: periodic queries, one rtwire listener
// per shard, traffic until SIGINT or SIGTERM, then the drain and the metrics
// report with the conservation check. logs is nil (no durability) or one log
// per shard.
func serve(cfg server.Config, logs []*wal.Log, shards int, listen string, evalCost uint64) error {
	srvs, err := server.NewShards(cfg, shards, logs)
	if err != nil {
		return err
	}
	// Both periodic queries read temp (status derives from temp and limit),
	// so they run on temp's shard — the one clients send them to.
	if err := registerPeriodic(srvs[rtwire.ShardOf("temp", shards)], evalCost); err != nil {
		return err
	}
	set := make([]*netserve.Server, shards)
	for i, srv := range srvs {
		srv.Start()
		// A 1s beacon keeps replication links visibly alive, so a replica's
		// -promote-after only needs to clear seconds of genuine silence.
		set[i] = netserve.New(srv, netserve.Options{HeartbeatInterval: time.Second, Shard: i, Shards: shards})
	}
	stop := func() {
		for i, ns := range set {
			_ = ns.Close()
			srvs[i].Stop() // syncs its WAL
		}
	}
	// Listen for the signal first, so one sent the moment the serving line
	// appears drains instead of killing the process.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	// One listener per shard: with -listen host:port, shard i serves on
	// port+i.
	for i, ns := range set {
		a, err := shardAddr(listen, i)
		if err != nil {
			stop()
			return err
		}
		bound, err := ns.Listen(a)
		if err != nil {
			stop()
			return err
		}
		fmt.Printf("%sserving rtwire on %s (%d sessions)\n", shardLabel(i, shards), bound, cfg.Sessions)
	}
	<-sig
	fmt.Println("\ndraining...")
	stop()
	return report(srvs, set)
}

// registerPeriodic registers the deployment's two standing periodic queries
// on srv, first issued at srv's own clock: temp's shard before it starts, or
// a promoted replica's server once it is a primary.
func registerPeriodic(srv *server.Server, evalCost uint64) error {
	now := srv.Now()
	if err := srv.RegisterPeriodic(server.PeriodicQuery{
		Name: "status-watch", Query: "status_q",
		Issue: now, Period: 11,
		Kind: deadline.Firm, Deadline: timeseq.Time(evalCost) + 3, MinUseful: 1,
	}); err != nil {
		return err
	}
	return srv.RegisterPeriodic(server.PeriodicQuery{
		Name: "temp-trend", Query: "temp_q",
		Issue: now, Period: 23,
		Kind: deadline.Soft, Deadline: 5, MinUseful: 2,
		U: deadline.Hyperbolic(10, 5),
	})
}

// shardAddr is shard i's listen address: the -listen port plus i.
func shardAddr(listen string, i int) (string, error) {
	if i == 0 {
		return listen, nil
	}
	host, port, err := net.SplitHostPort(listen)
	if err != nil {
		return "", fmt.Errorf("-listen %q: %w", listen, err)
	}
	p, err := strconv.Atoi(port)
	if err != nil {
		return "", fmt.Errorf("-listen %q: the port must be numeric, shard i serves on port+i: %w", listen, err)
	}
	return net.JoinHostPort(host, strconv.Itoa(p+i)), nil
}

// report prints the metrics table summed over the shards, the wire counters
// summed over their listeners, the periodic tallies and each shard's share
// of the load, and checks the conservation law end-to-end: each shard's
// block satisfies it independently, so the sum must too.
func report(servers []*server.Server, set []*netserve.Server) error {
	shards := len(servers)
	var m server.MetricsSnapshot
	for _, srv := range servers {
		m.Add(srv.MetricsSnapshot())
	}
	var wire netserve.WireSnapshot
	for _, ns := range set {
		wire.Add(ns.Wire.Snapshot())
	}
	fmt.Println()
	fmt.Print(m.Table())
	fmt.Println()
	fmt.Println("wire:")
	for _, p := range wire.Pairs() {
		fmt.Printf("  %-24s %d\n", p.Name, p.Value)
	}
	fmt.Println("periodic queries:")
	for _, srv := range servers {
		for _, p := range srv.PeriodicReport() {
			fmt.Printf("  %-14s issued %4d  hit %4d  missed %4d\n", p.Name, p.Issued, p.Hit, p.Missed)
		}
	}
	for i, srv := range servers {
		sm := srv.Metrics.Snapshot()
		fmt.Printf("%s%d samples applied, %d queries in, %d WAL appends\n",
			shardLabel(i, shards), sm.SamplesApplied, sm.QueriesIn, sm.WalAppends)
	}
	law := "conservation"
	if shards > 1 {
		law = "cross-shard conservation"
	}
	if got, want := m.QueriesIn, m.QueriesAccounted(); got != want {
		return fmt.Errorf("%s violated: %d queries in, %d accounted", law, got, want)
	}
	fmt.Printf("\n%s: %d queries in == %d rejected + %d hit + %d missed + %d no-deadline ✓ (%d expired on arrival)\n",
		law, m.QueriesIn, m.QueriesRejected, m.DeadlineHit, m.DeadlineMiss, m.NoDeadline, m.ExpiredOnArrival)
	return nil
}

func statusOf(src map[string]rtdb.Value) rtdb.Value {
	t, _ := strconv.Atoi(src["temp"])
	l, _ := strconv.Atoi(src["limit"])
	if t > l {
		return "high"
	}
	return "ok"
}

// runReplica runs rtdbd as a hot standby: it tails the primary's WAL into
// its own log under -dir and serves standby reads (as-of, metrics, degraded
// soft queries) on -listen from a follower server. On promotion — manual via
// SIGHUP, or automatic after -promote-after of primary silence — that server
// flips in place to a primary with a bumped fencing epoch: the listener, its
// connections and their subscriptions stay, the periodic queries serve
// registers are registered, and the drain prints serve's report.
func runReplica(dir, listen, primary string, promoteAfter time.Duration,
	sessions int, segSize int64, snapshot uint64, fsync bool, fsyncWin time.Duration,
	evalCost uint64, queue int) error {
	if dir == "" {
		return fmt.Errorf("-replica-of needs -dir (the replica keeps its own durable WAL)")
	}
	r, err := replica.Open(replica.Config{
		Primary: primary,
		WAL: wal.Options{
			Dir: dir, SegmentSize: segSize, SnapshotEvery: snapshot, Sync: fsync,
			GroupWindow: fsyncWin,
		},
		PromoteAfter: promoteAfter,
		Client:       client.Options{Name: "rtdbd-replica"},
	}, serverConfig(sessions, queue, evalCost))
	if err != nil {
		return err
	}
	r.Start()

	ln, err := net.Listen("tcp", listen)
	if err != nil {
		_ = r.Close()
		return err
	}
	// A 1s beacon, as serve's listeners send once this one is a primary's.
	ns, err := r.ServeOn(ln, netserve.Options{HeartbeatInterval: time.Second})
	if err != nil {
		_ = r.Close()
		return err
	}
	fmt.Printf("replica of %s: seq %d epoch %d, hot-standby reads on %s\n",
		primary, r.Seq(), r.Epoch(), ln.Addr())
	if promoteAfter > 0 {
		fmt.Printf("auto-promotion after %v of primary silence; SIGHUP promotes now\n", promoteAfter)
	} else {
		fmt.Println("promotion is manual: SIGHUP promotes")
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	for promoted := false; !promoted; {
		select {
		case <-sig:
			fmt.Println("\ndraining replica...")
			return r.Close()
		case <-hup:
			if _, err := r.Promote(); err != nil {
				_ = r.Close()
				return err
			}
		case <-r.Promoted():
			promoted = true
		}
	}
	srv := r.Server()
	if err := registerPeriodic(srv, evalCost); err != nil {
		_ = r.Close()
		return err
	}
	fmt.Printf("promoted: seq %d epoch %d; serving as primary on %s\n", r.Seq(), r.Epoch(), ln.Addr())
	<-sig
	fmt.Println("\ndraining...")
	if err := r.Close(); err != nil {
		return err
	}
	return report([]*server.Server{srv}, []*netserve.Server{ns})
}
