package server

import (
	"errors"
	"reflect"
	"strconv"
	"sync"
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

// TestRecoveredHistoryIsCopyOnAppend is the follower's shape of the history
// a recovery shares: the database adopts the log's recovered samples, then
// the log appends shipped batches and the apply loop appends other samples
// to the same image while readers poll as-of values — first in turns, past
// the point where both have outgrown the shared capacity, then
// concurrently. Neither owner may write a sample the other holds: in turns
// a shared write shows as the other's value, concurrently as a -race
// report. Each ends with the recovered prefix and its own samples.
func TestRecoveredHistoryIsCopyOnAppend(t *testing.T) {
	const recovered, inTurns, rounds = 12, 8, 200
	l := historyLog(t, faultfs.NewMem(1), "a", 0, recovered) // temp is i at chronon i
	defer l.Close()
	if s := l.State().Images["temp"].Samples; cap(s)-len(s) >= inTurns || cap(s) == len(s) {
		t.Fatalf("the log's history has room for %d samples in place, want 1 to %d", cap(s)-len(s), inTurns-1)
	}
	cfg := testConfig()
	cfg.Log = l
	f := NewFollower(cfg)
	f.Start()
	defer f.Stop()

	stop := make(chan struct{})
	var readers sync.WaitGroup
	defer readers.Wait()
	defer close(stop)
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if v, ok := f.ValueAsOf("temp", 5); !ok || v != "5" {
					t.Errorf("temp as of 5 = %q, %v; want the recovered 5", v, ok)
					return
				}
				f.ValueAsOf("temp", f.HistoryHorizon())
			}
		}()
	}
	logAppend := func(i int) error {
		p := wal.Sample(timeseq.Time(recovered+i), "temp", "log-"+strconv.Itoa(i)).Payload()
		_, err := l.AppendBatch([]string{string(p)})
		return err
	}
	dbAppend := func(i int) error {
		return f.Replicate([]wal.Event{wal.Sample(timeseq.Time(recovered+i), "temp", "db-"+strconv.Itoa(i))})
	}
	for i := 1; i <= inTurns; i++ {
		if err := errors.Join(logAppend(i), dbAppend(i)); err != nil {
			t.Fatal(err)
		}
	}
	logDone := make(chan error, 1)
	go func() {
		var err error
		for i := inTurns + 1; i <= rounds && err == nil; i++ {
			err = logAppend(i)
		}
		logDone <- err
	}()
	for i := inTurns + 1; i <= rounds; i++ {
		if err := dbAppend(i); err != nil {
			t.Fatal(err)
		}
	}
	if err := <-logDone; err != nil {
		t.Fatal(err)
	}

	logHist := l.State().Images["temp"].Samples
	if len(logHist) != recovered+rounds {
		t.Fatalf("the log holds %d samples, want %d", len(logHist), recovered+rounds)
	}
	for at := 1; at <= recovered+rounds; at++ {
		want, logWant := strconv.Itoa(at), strconv.Itoa(at)
		if at > recovered {
			want, logWant = "db-"+strconv.Itoa(at-recovered), "log-"+strconv.Itoa(at-recovered)
		}
		if v, ok := f.ValueAsOf("temp", timeseq.Time(at)); !ok || v != want {
			t.Fatalf("the database's temp as of %d = %q, %v; want %q", at, v, ok, want)
		}
		if v := logHist[at-1].Value; v != logWant {
			t.Fatalf("the log's temp sample %d = %q; want %q", at, v, logWant)
		}
	}
}
