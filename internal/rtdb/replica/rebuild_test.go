package replica

import (
	"reflect"
	"testing"
	"time"

	"rtc/internal/deadline"
	"rtc/internal/faultfs"
	"rtc/internal/rtdb"
	wal "rtc/internal/rtdb/log"
	"rtc/internal/rtdb/netserve"
	"rtc/internal/rtdb/server"
)

// latestQuery answers with an image's newest value.
func latestQuery(image string) func(*rtdb.View) []rtdb.Value {
	return func(v *rtdb.View) []rtdb.Value {
		if s, ok := v.Latest(image); ok {
			return []rtdb.Value{s.Value}
		}
		return nil
	}
}

// TestPromoteOverMismatchedCatalog: a standby is promoted by building a full
// server over its replicated log with whatever spec the promoting binary
// carries — here one that names an image the primary never had and lacks
// one it did. The replicated catalog must win: the server comes up (it used
// to dereference nil inside New, at the moment the standby was needed) and
// serves the replicated keyspace.
func TestPromoteOverMismatchedCatalog(t *testing.T) {
	lp, stop, addr := newTestPrimary(t, 1<<16, 1<<20)
	r := newTestReplica(t, addr)
	defer r.Close()
	r.Start()
	events := testEvents(20)
	for _, e := range events {
		if err := lp.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	if !r.WaitSeq(uint64(len(events)), 10*time.Second) {
		t.Fatalf("replica stuck at seq %d, want %d", r.Seq(), len(events))
	}
	stop()
	if _, err := r.Promote(); err != nil {
		t.Fatal(err)
	}
	l := r.Log()
	defer l.Close()

	catalog := testCatalog()
	catalog["press_q"] = latestQuery("press")
	srv, err := server.New(server.Config{
		Spec: rtdb.Spec{Images: []*rtdb.ImageObject{
			{Name: "temp", Period: 5}, {Name: "sensor-000", Period: 4},
		}},
		Catalog: catalog, Registry: rtdb.DeriveRegistry{"status": testDerive},
		Log: l,
	})
	if err != nil {
		t.Fatalf("promotion over a mismatched spec: %v", err)
	}
	srv.Start()
	defer srv.Stop()
	resp, err := srv.Session(0).Query(server.QueryRequest{Query: "press_q", Kind: deadline.Firm, Deadline: 1 << 20, MinUseful: 1})
	if err != nil || !resp.Evaluated || !reflect.DeepEqual(resp.Answers, []string{"v19"}) {
		t.Fatalf("promoted server on the replicated image: %+v, err %v; want v19", resp, err)
	}
	if v, ok := srv.ValueAsOf("press", l.State().LastAt); !ok || v != "v19" {
		t.Fatalf("replicated image press as of the tail = %q, %v; want v19", v, ok)
	}
	if _, ok := srv.DB().Image("sensor-000"); ok {
		t.Fatal("the promoting binary's spec was installed over the replicated catalog")
	}
}

// TestResyncedMirrorMatchesServer: the standby's query mirror and a server
// recovering from the same log are built by one function, so after a
// full-state resync — and after more events applied on top of it — the
// mirror answers every catalog query as a server.New over that log would,
// and holds the same histories.
func TestResyncedMirrorMatchesServer(t *testing.T) {
	lp, _, addr := newTestPrimary(t, 256, 8)
	events := testEvents(90)
	for _, e := range events[:60] {
		if err := lp.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := lp.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := lp.Compact(); err != nil {
		t.Fatal(err)
	}
	catalog := testCatalog()
	catalog["temp_q"], catalog["press_q"] = latestQuery("temp"), latestQuery("press")
	registry := rtdb.DeriveRegistry{"status": testDerive}
	r, err := Open(Config{
		Primary: addr,
		WAL:     wal.Options{Dir: "rwal", FS: faultfs.NewMem(2), SegmentSize: 2048, SnapshotEvery: 32},
		Name:    "t-follower", Catalog: catalog, Registry: registry,
		RetryBackoff: time.Millisecond, RetryBackoffMax: 20 * time.Millisecond,
		Seed: 7, HeartbeatTimeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	r.Start()

	check := func(stage string, seq int) {
		t.Helper()
		if !r.WaitSeq(uint64(seq), 10*time.Second) {
			t.Fatalf("%s: replica stuck at %d, want %d", stage, r.Seq(), seq)
		}
		r.mu.Lock()
		ref, err := server.New(server.Config{Catalog: catalog, Registry: registry, Log: r.log})
		r.mu.Unlock()
		if err != nil {
			t.Fatalf("%s: server over the replica's log: %v", stage, err)
		}
		for name, q := range catalog {
			got, evaluated, mirror := r.evalMirror(name)
			if want := q(ref.DB().ViewNow()); !mirror || !evaluated || !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: mirror answers %s with %v (evaluated %v, mirror %v), a recovered server with %v",
					stage, name, got, evaluated, mirror, want)
			}
		}
		r.mu.Lock()
		defer r.mu.Unlock()
		for _, image := range []string{"temp", "press"} {
			got, _ := r.db.Image(image)
			want, _ := ref.DB().Image(image)
			if !reflect.DeepEqual(got.History(), want.History()) {
				t.Fatalf("%s: mirror history of %s differs from a recovered server's", stage, image)
			}
		}
		if r.db.Now() != ref.DB().Now() {
			t.Fatalf("%s: mirror clock %d, recovered server's %d", stage, r.db.Now(), ref.DB().Now())
		}
	}
	check("after the resync", 60)
	if r.Repl.Resyncs.Load() == 0 {
		t.Fatal("the follower caught up without a resync: the test lost its premise")
	}
	for _, e := range events[60:] {
		if err := lp.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	check("after events applied over the resync", len(events))
}

// TestReconnectMidSegmentGroupCommit: a follower that went away comes back
// with its tail in the middle of the primary's only segment while the
// primary keeps committing in groups. The new sender locates that sequence
// once and streams from there: the follower converges to the exact state,
// and is handed neither a duplicate nor a gap on the way.
func TestReconnectMidSegmentGroupCommit(t *testing.T) {
	lp, err := wal.Open(wal.Options{
		Dir: "wal", FS: faultfs.NewMem(51), SegmentSize: 1 << 20, SnapshotEvery: 1 << 20,
		Sync: true, GroupWindow: 200 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{Log: lp})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	ns := netserve.New(srv, netserve.Options{HeartbeatInterval: 25 * time.Millisecond, ReplBatch: 4, ReplWindow: 16})
	addr, err := ns.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Stop(); ns.Close() })

	memR := faultfs.NewMem(52)
	follow := func() *Replica {
		r, err := Open(Config{
			Primary: addr.String(),
			WAL:     wal.Options{Dir: "rwal", FS: memR, SegmentSize: 1 << 20, SnapshotEvery: 1 << 20, Sync: true},
			Name:    "gc-follower", Catalog: testCatalog(), Registry: rtdb.DeriveRegistry{"status": testDerive},
			RetryBackoff: time.Millisecond, RetryBackoffMax: 20 * time.Millisecond,
			Seed: 9, HeartbeatTimeout: 5 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		r.Start()
		return r
	}
	events := testEvents(120)
	third := len(events) / 3

	r := follow()
	for _, e := range events[:third] {
		if err := lp.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	if !r.WaitSeq(uint64(third), 10*time.Second) {
		t.Fatalf("first follower stuck at %d, want %d", r.Seq(), third)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	for _, e := range events[third : 2*third] {
		if err := lp.Append(e); err != nil {
			t.Fatal(err)
		}
	}

	// The follower returns while the primary is still appending.
	r = follow()
	defer r.Close()
	for _, e := range events[2*third:] {
		if _, err := lp.AppendTicket(e, false); err != nil {
			t.Fatal(err)
		}
	}
	if !r.WaitSeq(uint64(len(events)), 10*time.Second) {
		t.Fatalf("returning follower stuck at %d, want %d", r.Seq(), len(events))
	}
	if d, g := r.Repl.DupSkipped.Load(), r.Repl.GapResubscribes.Load(); d != 0 || g != 0 {
		t.Fatalf("returning follower was handed %d duplicates and %d gaps", d, g)
	}
	r.mu.Lock()
	d := lp.State().Diff(r.log.State())
	r.mu.Unlock()
	if d != "" {
		t.Fatalf("replicated state diverged: %s", d)
	}
}
