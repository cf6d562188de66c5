package replica

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"rtc/internal/deadline"
	"rtc/internal/faultfs"
	"rtc/internal/rtdb"
	"rtc/internal/rtdb/client"
	wal "rtc/internal/rtdb/log"
	"rtc/internal/rtdb/netserve"
	"rtc/internal/rtdb/server"
	"rtc/internal/rtwire"
	"rtc/internal/timeseq"
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

// TestPromoteOverMismatchedCatalog: a standby's server is configured by
// whatever binary runs it — here with a spec that names an image the
// primary never had and lacks one it did. A follower installs no spec: the
// replicated catalog is the one it holds, and the one it serves once
// promoted (promotion used to build a server over the log at the moment the
// standby was needed, and once dereferenced nil inside New doing so).
func TestPromoteOverMismatchedCatalog(t *testing.T) {
	lp, stop, addr := newTestPrimary(t, 1<<16, 1<<20)
	sc := testServer()
	sc.Catalog["press_q"] = latestQuery("press")
	sc.Spec = rtdb.Spec{Images: []*rtdb.ImageObject{
		{Name: "temp", Period: 5}, {Name: "sensor-000", Period: 4},
	}}
	r := openTestReplica(t, addr, sc)
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
	srv := r.Server()
	resp, err := srv.Session(0).Query(server.QueryRequest{Query: "press_q", Kind: deadline.Firm, Deadline: 1 << 20, MinUseful: 1})
	if err != nil || !resp.Evaluated || !reflect.DeepEqual(resp.Answers, []string{"v19"}) {
		t.Fatalf("promoted server on the replicated image: %+v, err %v; want v19", resp, err)
	}
	if v, ok := srv.ValueAsOf("press", r.Log().State().LastAt); !ok || v != "v19" {
		t.Fatalf("replicated image press as of the tail = %q, %v; want v19", v, ok)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if _, ok := srv.DB().Image("sensor-000"); ok {
		t.Fatal("the binary's spec was installed over the replicated catalog")
	}
}

// TestResyncedMirrorMatchesServer: a follower's server and a server
// recovering from the same log are one construction, so after a full-state
// resync — and after more events applied on top of it — the follower holds
// the histories and clock a server.New over its log holds, answers every
// catalog query (degraded, through a session) as that server would, and
// serves every as-of read the log state's Historical view gives at the
// log's last timestamp. A follower whose log holds a derived object its
// registry cannot bind answers no query rather than answer wrongly: it
// refuses read-only, and refuses promotion.
func TestResyncedMirrorMatchesServer(t *testing.T) {
	lp, _, addr := newTestPrimary(t, 256, 8)
	sc := testServer()
	sc.Catalog["temp_q"], sc.Catalog["press_q"] = latestQuery("temp"), latestQuery("press")
	// The live follower's registry lacks "status": the derived object
	// arrives in a batch it cannot absorb.
	unbound := testServer()
	unbound.Registry = nil
	blind := openTestReplica(t, addr, unbound)
	defer blind.Close()
	blind.Start()

	events := testEvents(90)
	for _, e := range events[:60] {
		if err := lp.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	if !blind.WaitSeq(60, 10*time.Second) {
		t.Fatalf("live follower stuck at %d, want 60", blind.Seq())
	}
	if _, err := blind.Server().Session(0).Query(server.QueryRequest{Query: "status_q"}); !errors.Is(err, server.ErrReadOnly) {
		t.Fatalf("follower with an unbound derived object answered: err = %v, want ErrReadOnly", err)
	}
	if _, err := blind.Promote(); err == nil || blind.Server().Role() != rtwire.RoleStandby {
		t.Fatalf("an incomplete follower was promoted (err %v)", err)
	}
	blind.Close() // the primary has one session to give followers

	if err := lp.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := lp.Compact(); err != nil {
		t.Fatal(err)
	}
	r := openTestReplica(t, addr, sc)
	defer r.Close()
	r.Start()

	check := func(stage string, seq int) {
		t.Helper()
		if !r.WaitSeq(uint64(seq), 10*time.Second) {
			t.Fatalf("%s: replica stuck at %d, want %d", stage, r.Seq(), seq)
		}
		r.mu.Lock()
		st := r.log.State()
		ref, err := server.New(server.Config{Catalog: sc.Catalog, Registry: sc.Registry, Log: r.log})
		r.mu.Unlock()
		if err != nil {
			t.Fatalf("%s: server over the replica's log: %v", stage, err)
		}
		for name, q := range sc.Catalog {
			got, err := r.srv.Session(0).Query(server.QueryRequest{Query: name})
			if want := q(ref.DB().ViewNow()); err != nil || !got.Evaluated || !reflect.DeepEqual(got.Answers, want) {
				t.Fatalf("%s: follower answers %s with %+v (err %v), a recovered server with %v",
					stage, name, got, err, want)
			}
		}
		// Nothing feeds the follower's apply loop until the next append, and
		// the query above went through it: its database is quiet to read.
		oracle := st.Historical(st.LastAt)
		for _, image := range []string{"temp", "press"} {
			got, _ := r.srv.DB().Image(image)
			want, _ := ref.DB().Image(image)
			if !reflect.DeepEqual(got.History(), want.History()) {
				t.Fatalf("%s: follower history of %s differs from a recovered server's", stage, image)
			}
			for at := timeseq.Time(0); at <= st.LastAt; at++ {
				v, ok := r.srv.ValueAsOf(image, at)
				wv, wok := oracle.ValueAsOf(image, at)
				if v != wv || ok != wok {
					t.Fatalf("%s: %s as of %d = %q, %v; the log state's Historical says %q, %v",
						stage, image, at, v, ok, wv, wok)
				}
			}
		}
		if r.srv.Now() != ref.Now() || r.srv.DB().Now() != ref.DB().Now() {
			t.Fatalf("%s: follower clock %d (database %d), recovered server's %d (%d)",
				stage, r.srv.Now(), r.srv.DB().Now(), ref.Now(), ref.DB().Now())
		}
	}
	check("after the resync", 60)
	if r.srv.Repl.Resyncs.Load() == 0 {
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
			Client: client.Options{Name: "gc-follower",
				RetryBackoff: time.Millisecond, RetryBackoffMax: 20 * time.Millisecond,
				Seed: 9, HeartbeatInterval: 5 * time.Second / 3,
			},
		}, testServer())
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
	if d, g := r.srv.Repl.DupSkipped.Load(), r.srv.Repl.GapResubscribes.Load(); d != 0 || g != 0 {
		t.Fatalf("returning follower was handed %d duplicates and %d gaps", d, g)
	}
	r.mu.Lock()
	d := lp.State().Diff(r.log.State())
	r.mu.Unlock()
	if d != "" {
		t.Fatalf("replicated state diverged: %s", d)
	}
}
