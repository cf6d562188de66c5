package server

import (
	"errors"
	"reflect"
	"strconv"
	"testing"

	"rtc/internal/deadline"
	"rtc/internal/faultfs"
	wal "rtc/internal/rtdb/log"
	"rtc/internal/rtdb/sub"
	"rtc/internal/rtwire"
	"rtc/internal/timeseq"
)

// historyLog opens a log in dir on fs holding testConfig's catalog and n
// temp samples, the i-th valued base+i at chronon i.
func historyLog(t *testing.T, fs faultfs.FS, dir string, base, n int) *wal.Log {
	t.Helper()
	l, err := wal.Open(wal.Options{Dir: dir, FS: fs})
	events := []wal.Event{wal.Invariant("limit", "22"), wal.Image("temp", 5), wal.Derived("status", "temp", "limit")}
	for i := 1; i <= n; i++ {
		events = append(events, wal.Sample(timeseq.Time(i), "temp", strconv.Itoa(base+i)))
	}
	for i := 0; err == nil && i < len(events); i++ {
		err = l.Append(events[i])
	}
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// TestResyncOntoAnotherLog: Resync swaps a follower onto a log that holds
// another history. The follower then holds what server.New over that log
// holds — the history, the clock, every catalog answer and every as-of read
// — and a standing query attached before the swap stays attached and is
// served from the new history. An open that fails leaves the follower
// incomplete: it answers no query, and refuses Promote.
func TestResyncOntoAnotherLog(t *testing.T) {
	fs := faultfs.NewMem(1)
	cfg := testConfig()
	cfg.Log = historyLog(t, fs, "a", 0, 12)
	f := NewFollower(cfg)
	f.Start()
	defer f.Stop()
	ss, err := f.Subscribe(sub.Spec{Query: "temp_q", Period: 5, Kind: deadline.None}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	lb := historyLog(t, fs, "b", 30, 40)
	if l, err := f.Resync(func() (*wal.Log, error) { return lb, nil }); l != lb || err != nil {
		t.Fatalf("Resync: log %p, err %v; want the opened log %p", l, err, lb)
	}
	ref, err := New(Config{Catalog: cfg.Catalog, Registry: cfg.Registry, Log: lb})
	if err != nil {
		t.Fatal(err)
	}
	for name, q := range cfg.Catalog {
		got, err := f.Session(0).Query(QueryRequest{Query: name})
		if want := q(ref.DB().ViewNow()); err != nil || !got.Evaluated || !reflect.DeepEqual(got.Answers, want) {
			t.Fatalf("follower answers %s with %+v (err %v), a server over its log with %v", name, got, err, want)
		}
	}
	// The queries went through the apply loop, and nothing else feeds it:
	// the follower's database is quiet to read.
	got, _ := f.DB().Image("temp")
	want, _ := ref.DB().Image("temp")
	if !reflect.DeepEqual(got.History(), want.History()) || f.Now() != ref.Now() || f.DB().Now() != ref.DB().Now() {
		t.Fatalf("follower history %v at %d, a server over its log %v at %d", got.History(), f.Now(), want.History(), ref.Now())
	}
	st := lb.State()
	for at, oracle := timeseq.Time(0), st.Historical(st.LastAt); at <= st.LastAt; at++ {
		v, ok := f.ValueAsOf("temp", at)
		if wv, wok := oracle.ValueAsOf("temp", at); v != wv || ok != wok {
			t.Fatalf("temp as of %d = %q, %v; the new log's Historical says %q, %v", at, v, ok, wv, wok)
		}
	}
	applied, err := lb.AppendBatch([]string{string(wal.Sample(st.LastAt+10, "temp", "99").Payload())})
	if err == nil {
		err = f.Replicate(applied)
	}
	if pushes := drain(ss); err != nil || len(pushes) == 0 || !reflect.DeepEqual(pushes[len(pushes)-1].Answers, []string{"99"}) {
		t.Fatalf("standing query after the resync: pushes %+v (err %v), want the last to answer the new log's 99", pushes, err)
	}

	boom := errors.New("open failed")
	if l, err := f.Resync(func() (*wal.Log, error) { return nil, boom }); l != nil || !errors.Is(err, boom) || !f.incomplete.Load() {
		t.Fatalf("Resync over a failing open: log %v, err %v, incomplete %v", l, err, f.incomplete.Load())
	}
	_, qerr := f.Session(0).Query(QueryRequest{Query: "temp_q"})
	if _, perr := f.Promote(); !errors.Is(qerr, ErrReadOnly) || perr == nil || f.Role() != rtwire.RoleStandby {
		t.Fatalf("a follower without a log: query err %v, Promote err %v; want ErrReadOnly and a refusal", qerr, perr)
	}
}
