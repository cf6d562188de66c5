package log

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"rtc/internal/faultfs"
	"rtc/internal/timeseq"
)

// groupOptions is the grouped-WAL configuration the edge tests share: big
// segments and a far snapshot threshold so fsync counts are exactly the
// commit discipline's, nothing else's.
func groupOptions(fs faultfs.FS, window time.Duration) Options {
	return Options{
		Dir: "wal", FS: fs, SegmentSize: 1 << 20, SnapshotEvery: 1 << 20,
		Sync: true, GroupWindow: window,
	}
}

// TestGroupWindowZeroDegrades: GroupWindow=0 is group commit whose window
// closes at once. Serial blocking appends pay exactly one fsync each — a
// segment rotation's seal fsync is that append's commit, not a second one —
// and the segment bytes equal a windowed log's over the same events: the
// window decides only when fsyncs happen, never what is written.
func TestGroupWindowZeroDegrades(t *testing.T) {
	events := workload(30)
	opts := func(fs faultfs.FS, window time.Duration) Options {
		o := groupOptions(fs, window)
		o.SegmentSize = 256 // several rotations inside the workload
		return o
	}

	memA := faultfs.NewMem(1)
	la, err := Open(opts(memA, 0))
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range events {
		base := memA.Syncs()
		if err := la.Append(e); err != nil {
			t.Fatal(err)
		}
		if got := memA.Syncs() - base; got != 1 {
			t.Fatalf("window=0 append %d paid %d fsyncs, want exactly 1", i, got)
		}
		if ds, sq := la.DurableSeq(), la.Seq(); ds != sq {
			t.Fatalf("window=0 append %d returned with DurableSeq=%d != Seq=%d", i, ds, sq)
		}
	}
	if st := la.Stats(); st.Segments < 3 {
		t.Fatalf("workload rotated into %d segments, want several", st.Segments)
	}
	if err := la.Close(); err != nil {
		t.Fatal(err)
	}

	memB := faultfs.NewMem(1)
	lb, err := Open(opts(memB, time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range events {
		if _, err := lb.AppendTicket(e, false); err != nil {
			t.Fatal(err)
		}
	}
	if err := lb.Close(); err != nil {
		t.Fatal(err)
	}

	names, err := memA.ReadDir("wal")
	if err != nil {
		t.Fatal(err)
	}
	namesB, err := memB.ReadDir("wal")
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != len(namesB) {
		t.Fatalf("window=0 wrote %d files, the windowed log %d", len(names), len(namesB))
	}
	for _, name := range names {
		a, b := memA.DumpFile("wal/"+name), memB.DumpFile("wal/"+name)
		if string(a) != string(b) {
			t.Fatalf("window=0 wrote different bytes for %s (%d vs %d bytes)", name, len(a), len(b))
		}
	}
}

// TestGroupSingleAppendBatch: one blocking append under a short window is a
// batch of one — it waits out the window, pays one fsync, and returns
// durable.
func TestGroupSingleAppendBatch(t *testing.T) {
	mem := faultfs.NewMem(2)
	l, err := Open(groupOptions(mem, 2*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	base := mem.Syncs()
	if err := l.Append(Image("temp", 5)); err != nil {
		t.Fatal(err)
	}
	if got := mem.Syncs() - base; got != 1 {
		t.Fatalf("batch of one paid %d fsyncs, want 1", got)
	}
	if ds, sq := l.DurableSeq(), l.Seq(); ds != sq {
		t.Fatalf("after a blocking append DurableSeq=%d != Seq=%d", ds, sq)
	}
	st := l.Stats()
	if st.GroupCommits != 1 || st.GroupedAppends != 1 || st.GroupBatchMax != 1 {
		t.Fatalf("stats = commits %d appends %d max %d, want 1/1/1",
			st.GroupCommits, st.GroupedAppends, st.GroupBatchMax)
	}
}

// TestGroupFirmSealsWindow: a firm append seals the open window — the
// batch commits as soon as its leader wakes instead of waiting out an
// arbitrarily long window, and the whole batch (soft joiners included)
// rides the one early fsync.
func TestGroupFirmSealsWindow(t *testing.T) {
	mem := faultfs.NewMem(3)
	l, err := Open(groupOptions(mem, time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	base := mem.Syncs()
	t1, err := l.AppendTicket(Image("temp", 5), false)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := l.AppendTicket(Sample(1, "temp", "a"), false)
	if err != nil {
		t.Fatal(err)
	}
	t3, err := l.AppendTicket(Sample(2, "temp", "b"), true) // firm: seal
	if err != nil {
		t.Fatal(err)
	}
	for i, tk := range []*Ticket{t1, t2, t3} {
		if err := tk.Wait(); err != nil {
			t.Fatalf("ticket %d: %v", i, err)
		}
	}
	if got := mem.Syncs() - base; got != 1 {
		t.Fatalf("sealed batch paid %d fsyncs, want 1", got)
	}
	st := l.Stats()
	if st.GroupCommits != 1 || st.GroupedAppends != 3 || st.GroupBatchMax != 3 {
		t.Fatalf("stats = commits %d appends %d max %d, want 1/3/3",
			st.GroupCommits, st.GroupedAppends, st.GroupBatchMax)
	}
	if ds, sq := l.DurableSeq(), l.Seq(); ds != sq {
		t.Fatalf("after firm commit DurableSeq=%d != Seq=%d", ds, sq)
	}
}

// TestGroupBatchMaxSeals: the groupMaxBatch-th joiner seals the window —
// a saturated batch never waits for the timer.
func TestGroupBatchMaxSeals(t *testing.T) {
	mem := faultfs.NewMem(4)
	l, err := Open(groupOptions(mem, time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	events := []Event{Image("temp", 5)}
	for i := 1; i < groupMaxBatch; i++ {
		events = append(events, Sample(timeseq.Time(i), "temp", "v"+itoa(i)))
	}
	tickets := make([]*Ticket, 0, groupMaxBatch)
	for i, e := range events {
		if i == groupMaxBatch-1 && tickets[0].Resolved() {
			t.Fatalf("batch released after %d joiners, before the %dth", i, groupMaxBatch)
		}
		tk, err := l.AppendTicket(e, false)
		if err != nil {
			t.Fatal(err)
		}
		tickets = append(tickets, tk)
	}
	for i, tk := range tickets {
		if err := tk.Wait(); err != nil {
			t.Fatalf("ticket %d: %v", i, err)
		}
	}
	if st := l.Stats(); st.GroupCommits != 1 || st.GroupBatchMax != groupMaxBatch {
		t.Fatalf("stats = commits %d max %d, want 1 commit of %d", st.GroupCommits, st.GroupBatchMax, groupMaxBatch)
	}
}

// TestGroupBatchSpansRotate: a batch whose frames straddle housekeeping is
// released by the rotation's own fsync — every frame the rotate fsync
// covered is durable, so the tickets must not wait for a leader commit.
func TestGroupBatchSpansRotate(t *testing.T) {
	mem := faultfs.NewMem(5)
	opts := groupOptions(mem, time.Hour)
	opts.SegmentSize = 256 // a handful of frames per segment
	l, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var tickets []*Ticket
	for _, e := range workload(20) {
		tk, err := l.AppendTicket(e, false)
		if err != nil {
			t.Fatal(err)
		}
		tickets = append(tickets, tk)
	}
	if st := l.Stats(); st.Segments < 2 {
		t.Fatalf("workload never rotated (segments=%d); shrink SegmentSize", st.Segments)
	}
	// Everything written before the last rotation is durable and must have
	// been released by it — without any Sync or window expiry.
	released := 0
	for _, tk := range tickets {
		if tk.Resolved() {
			if err := tk.Wait(); err != nil {
				t.Fatalf("rotation-released ticket seq %d: %v", tk.Seq(), err)
			}
			released++
		}
	}
	if released == 0 {
		t.Fatal("rotation fsync released no tickets")
	}
	ds := l.DurableSeq()
	for _, tk := range tickets {
		if tk.Resolved() != (tk.Seq() <= ds) {
			t.Fatalf("ticket seq %d resolved=%v but DurableSeq=%d", tk.Seq(), tk.Resolved(), ds)
		}
	}
	// The tail batch commits on demand.
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	for _, tk := range tickets {
		if err := tk.Wait(); err != nil {
			t.Fatalf("ticket seq %d after sync: %v", tk.Seq(), err)
		}
	}
}

// TestGroupFsyncFailurePoisonsBatch: the covering fsync failing fails the
// whole batch — every ticket resolves with the poison error and the log
// refuses further work.
func TestGroupFsyncFailurePoisonsBatch(t *testing.T) {
	mem := faultfs.NewMem(6)
	l, err := Open(groupOptions(mem, time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var tickets []*Ticket
	for _, e := range []Event{Image("temp", 5), Sample(1, "temp", "a"), Sample(2, "temp", "b")} {
		tk, err := l.AppendTicket(e, false)
		if err != nil {
			t.Fatal(err)
		}
		tickets = append(tickets, tk)
	}
	mem.FailSync(mem.Syncs() + 1)
	if err := l.Sync(); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("sync over injected fault: %v", err)
	}
	for i, tk := range tickets {
		if !tk.Resolved() {
			t.Fatalf("ticket %d unresolved after poison", i)
		}
		if err := tk.Wait(); !errors.Is(err, faultfs.ErrInjected) {
			t.Fatalf("ticket %d resolved %v, want the injected fsync error", i, err)
		}
	}
	if l.Err() == nil {
		t.Fatal("failed group fsync must poison the log")
	}
	if _, err := l.AppendTicket(Sample(3, "temp", "c"), false); err == nil {
		t.Fatal("poisoned log accepted an append")
	}
}

// TestGroupCloseResolvesTail: Close commits the open window — no ticket is
// left hanging behind an hour-long timer.
func TestGroupCloseResolvesTail(t *testing.T) {
	mem := faultfs.NewMem(7)
	l, err := Open(groupOptions(mem, time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	tk, err := l.AppendTicket(Image("temp", 5), false)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := tk.Wait(); err != nil {
		t.Fatalf("ticket after clean close: %v", err)
	}
	l2, err := Open(groupOptions(mem, time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := l2.State().Events; got != 1 {
		t.Fatalf("recovered %d events, want the closed-over append", got)
	}
}

// fired reports whether an Advanced channel has been closed.
func fired(ch <-chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// TestAppendBatchHealedFaultCommits: a write fault on a shipped batch's
// commit is healed and the write retried, at a closed window and an open
// one alike: every payload is applied and durable when the call returns,
// its commit batch released, and recovery holds them all. A follower
// re-subscribes after its own Seq, so a batch left unfsynced there would be
// acknowledged to the primary before it is durable.
func TestAppendBatchHealedFaultCommits(t *testing.T) {
	for _, window := range []time.Duration{0, 200 * time.Microsecond} {
		mem := faultfs.NewMem(9)
		l, err := Open(groupOptions(mem, window))
		if err != nil {
			t.Fatal(err)
		}
		events := workload(12)
		if _, err := l.AppendBatch(payloadsOf(events[:4])); err != nil {
			t.Fatal(err)
		}
		mem.TearWrite(mem.Writes() + 1) // the second batch's one write
		applied, err := l.AppendBatch(payloadsOf(events[4:]))
		if len(applied) != len(events)-4 || err != nil {
			t.Fatalf("window %v: applied %d, err %v; want %d and no error", window, len(applied), err, len(events)-4)
		}
		if perr := l.Err(); perr != nil {
			t.Fatalf("window %v: a healed write fault poisoned the log: %v", window, perr)
		}
		l.mu.Lock()
		pending := len(l.pending)
		l.mu.Unlock()
		if ds, sq := l.DurableSeq(), l.Seq(); ds != sq || sq != uint64(len(events)) || pending != 0 {
			t.Fatalf("window %v: after the healed fault DurableSeq=%d Seq=%d (want %d), %d batches pending",
				window, ds, sq, len(events), pending)
		}
		if st := l.Stats(); st.Heals != 1 || mem.Injected() != 1 {
			t.Fatalf("window %v: Heals = %d for %d injected faults, want 1 for 1", window, st.Heals, mem.Injected())
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		l2, err := Open(groupOptions(mem, window))
		if err != nil {
			t.Fatal(err)
		}
		if d := reference(events).Diff(l2.State()); d != "" {
			t.Fatalf("window %v: recovered state: %s", window, d)
		}
		l2.Close()
	}
}

// TestWriteFaultTwicePoisons: a commit whose write fails, is healed, and
// fails again on its retry poisons the log — the state holds its events
// already — and every pending ticket fails with the fault; the torn bytes
// of the retry are healed too, so recovery returns exactly the durable
// prefix.
func TestWriteFaultTwicePoisons(t *testing.T) {
	mem := faultfs.NewMem(12)
	l, err := Open(groupOptions(mem, time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	events := workload(20)
	durable, rest := events[:10], events[10:]
	for _, e := range durable {
		if _, err := l.AppendTicket(e, false); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	var tickets []*Ticket
	for _, e := range rest[:len(rest)-1] {
		tk, err := l.AppendTicket(e, false)
		if err != nil {
			t.Fatal(err)
		}
		tickets = append(tickets, tk)
	}
	mem.FailWrite(mem.Writes() + 1)
	mem.TearWrite(mem.Writes() + 2) // the retry
	if err := l.Sync(); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("sync over two write faults: %v", err)
	}
	for i, tk := range tickets {
		if !tk.Resolved() {
			t.Fatalf("ticket %d unresolved after poison", i)
		}
		if err := tk.Wait(); !errors.Is(err, faultfs.ErrInjected) {
			t.Fatalf("ticket %d resolved %v, want the injected write error", i, err)
		}
	}
	if l.Err() == nil {
		t.Fatal("a write that failed its retry must poison the log")
	}
	if ds := l.DurableSeq(); ds != uint64(len(durable)) {
		t.Fatalf("DurableSeq = %d, want the %d events committed before the faults", ds, len(durable))
	}
	if _, err := l.AppendTicket(rest[len(rest)-1], false); err == nil {
		t.Fatal("poisoned log accepted an append")
	}
	l.Close()
	l2, err := Open(groupOptions(mem, time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if d := reference(durable).Diff(l2.State()); d != "" {
		t.Fatalf("recovered state is not the durable prefix: %s", d)
	}
}

// TestCommitBatchOneWrite: a batch's frames are held until it commits and
// then leave in one write — a full 64-append commit batch costs exactly one
// write and one fsync, and so does a follower's shipped batch.
func TestCommitBatchOneWrite(t *testing.T) {
	mem := faultfs.NewMem(13)
	l, err := Open(groupOptions(mem, time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	ptk, err := l.AppendTicket(Image("temp", 5), true)
	if err != nil {
		t.Fatal(err)
	}
	if err := ptk.Wait(); err != nil {
		t.Fatal(err)
	}
	baseW, baseS := mem.Writes(), mem.Syncs()
	var tickets []*Ticket
	for i := 0; i < groupMaxBatch; i++ {
		if i == groupMaxBatch-1 && mem.Writes() != baseW {
			t.Fatalf("%d appends into an open batch wrote %d times, want 0", i, mem.Writes()-baseW)
		}
		tk, err := l.AppendTicket(Sample(timeseq.Time(i), "temp", "21.5"), false)
		if err != nil {
			t.Fatal(err)
		}
		tickets = append(tickets, tk)
	}
	for _, tk := range tickets { // the 64th sealed the batch; its leader commits
		if err := tk.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if w, s := mem.Writes()-baseW, mem.Syncs()-baseS; w != 1 || s != 1 {
		t.Fatalf("a %d-append commit batch cost %d writes and %d fsyncs, want 1 and 1", groupMaxBatch, w, s)
	}

	memF := faultfs.NewMem(14)
	f, err := Open(groupOptions(memF, time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	events := workload(40)
	baseW, baseS = memF.Writes(), memF.Syncs()
	if _, err := f.AppendBatch(payloadsOf(events)); err != nil {
		t.Fatal(err)
	}
	if w, s := memF.Writes()-baseW, memF.Syncs()-baseS; w != 1 || s != 1 {
		t.Fatalf("AppendBatch of %d payloads cost %d writes and %d fsyncs, want 1 and 1", len(events), w, s)
	}
}

// TestAppendBatchSingleFsync: a whole slice of events lands with exactly
// one fsync — the follower-side mirror of the primary's group commit — and
// a reader is woken once and then reads the whole batch, in order.
func TestAppendBatchSingleFsync(t *testing.T) {
	mem := faultfs.NewMem(8)
	l, err := Open(groupOptions(mem, time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	adv := l.Advanced(0)

	events := workload(10)
	base := mem.Syncs()
	applied, err := l.AppendBatch(payloadsOf(events))
	if err != nil {
		t.Fatal(err)
	}
	if len(applied) != len(events) {
		t.Fatalf("applied %d of %d", len(applied), len(events))
	}
	if got := mem.Syncs() - base; got != 1 {
		t.Fatalf("AppendBatch paid %d fsyncs for %d events, want 1", got, len(events))
	}
	if ds, sq := l.DurableSeq(), l.Seq(); ds != sq {
		t.Fatalf("after AppendBatch DurableSeq=%d != Seq=%d", ds, sq)
	}
	if !fired(adv) {
		t.Fatal("the batch's fsync did not wake the waiting reader")
	}
	pos := &ReadPos{}
	got, err := l.ReadFrom(pos, len(events)+1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(events) {
		t.Fatalf("read %d events after the batch, want all %d: the read must cover the whole batch", len(got), len(events))
	}
	if want := payloadsOf(events); pos.Seq != uint64(len(events)) || !reflect.DeepEqual(got, want) {
		t.Fatalf("read %q to seq %d, want %q in order", got, pos.Seq, want)
	}
}

// TestGroupTailPublishAfterCommit: in grouped mode a reader must not see an
// event before its covering fsync — the shippable tail is the durable tail,
// so a follower can never apply data the primary might lose — and the
// release is what wakes it.
func TestGroupTailPublishAfterCommit(t *testing.T) {
	mem := faultfs.NewMem(9)
	l, err := Open(groupOptions(mem, time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	pos := &ReadPos{}
	adv := l.Advanced(0)

	tk, err := l.AppendTicket(Image("temp", 5), false)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := l.ReadFrom(pos, 8); err != nil || len(got) != 0 {
		t.Fatalf("read %d events (err %v) before their fsync", len(got), err)
	}
	if fired(adv) || fired(l.Advanced(0)) {
		t.Fatal("Advanced fired before the covering fsync")
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := tk.Wait(); err != nil {
		t.Fatal(err)
	}
	if !fired(adv) {
		t.Fatal("the release did not wake the waiting reader")
	}
	got, err := l.ReadFrom(pos, 8)
	if err != nil || len(got) != 1 || pos.Seq != tk.Seq() {
		t.Fatalf("after the commit read %q to seq %d (err %v), want seq %d", got, pos.Seq, err, tk.Seq())
	}
}

// TestGroupAmortizedCostGate is the deterministic CI-safe form of the
// benchmark acceptance gate: on the faultfs.Mem op clock — fsyncs cost
// ~144µs, buffered writes ~2µs, the ratio of a real disk — 64 lockstep
// writers amortizing one fsync per full batch must land under 1/4 of the
// serial per-append-fsync cost. Wall-clock noise cannot move it: only op
// counts enter the model.
func TestGroupAmortizedCostGate(t *testing.T) {
	const (
		syncCost  = 144_000 // ns per fsync on the virtual disk
		writeCost = 2_000   // ns per buffered write
		writers   = groupMaxBatch
		rounds    = 4
	)

	// Serial baseline: one fsync per append.
	memS := faultfs.NewMem(10)
	ls, err := Open(groupOptions(memS, 0))
	if err != nil {
		t.Fatal(err)
	}
	if err := ls.Append(Image("temp", 5)); err != nil {
		t.Fatal(err)
	}
	baseW, baseS := memS.Writes(), memS.Syncs()
	n := writers * rounds
	for i := 0; i < n; i++ {
		if err := ls.Append(Sample(0, "temp", "21.5")); err != nil {
			t.Fatal(err)
		}
	}
	serialCost := float64((memS.Syncs()-baseS)*syncCost+(memS.Writes()-baseW)*writeCost) / float64(n)
	ls.Close()

	// Grouped: 64 writers in lockstep — each blocking append joins the one
	// open batch, the 64th seals it, one fsync releases all. The hour-long
	// window guarantees every commit is a full batch, so the op counts are
	// exact, not schedule-dependent.
	memG := faultfs.NewMem(10)
	lg, err := Open(groupOptions(memG, time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	// Prologue as a firm ticket: a lone blocking append would otherwise sit
	// out the hour-long window waiting for 63 joiners that don't exist yet.
	ptk, err := lg.AppendTicket(Image("temp", 5), true)
	if err != nil {
		t.Fatal(err)
	}
	if err := ptk.Wait(); err != nil {
		t.Fatal(err)
	}
	baseW, baseS = memG.Writes(), memG.Syncs()
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		go func() {
			for i := 0; i < rounds; i++ {
				if err := lg.Append(Sample(0, "temp", "21.5")); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}()
	}
	for w := 0; w < writers; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	syncs, writes := memG.Syncs()-baseS, memG.Writes()-baseW
	if syncs != rounds {
		t.Fatalf("lockstep batching paid %d fsyncs for %d full batches", syncs, rounds)
	}
	groupCost := float64(syncs*syncCost+writes*writeCost) / float64(n)
	lg.Close()

	t.Logf("virtual amortized cost: serial=%.0fns grouped=%.0fns (%.1fx)",
		serialCost, groupCost, serialCost/groupCost)
	if groupCost >= serialCost/4 {
		t.Fatalf("grouped amortized cost %.0fns not < 1/4 of serial %.0fns", groupCost, serialCost)
	}
}
