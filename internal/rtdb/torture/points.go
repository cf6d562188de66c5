package torture

import (
	"fmt"
	"time"

	"rtc/internal/faultfs"
	wal "rtc/internal/rtdb/log"
)

// groupBatchEvery is the grouped appender's fsync cadence: one explicit
// Sync per this many appends, so a point knows exactly which tickets each
// covering fsync acknowledged.
const groupBatchEvery = 4

// groupWindow is deliberately longer than any sweep run: the batch leaders
// park on their timers and every fsync in the op stream is the driver's
// own, keeping the fault points deterministic in filesystem-op counts.
const groupWindow = time.Hour

// appender is how a WAL point body issues its workload: plainly, one
// Append acknowledged per event, or grouped — AppendTicket into an open
// commit window with the driver's own Sync every groupBatchEvery, so a
// fault lands before a batch's frames, between them, or on the covering
// fsync itself. The crash and EIO bodies exist once, over either.
type appender struct {
	l       *wal.Log
	grouped bool
	acks    int           // plain: appends that returned nil
	tickets []*wal.Ticket // grouped: one per append the log accepted
}

func (a *appender) append(e wal.Event) error {
	if !a.grouped {
		err := a.l.Append(e)
		if err == nil {
			a.acks++
		}
		return err
	}
	t, err := a.l.AppendTicket(e, false)
	if err == nil {
		a.tickets = append(a.tickets, t)
	}
	return err
}

// commit runs after an accepted append: the grouped cadence's Sync when
// the append filled a batch, nothing for a plain append (already durable).
func (a *appender) commit() error {
	if a.grouped && len(a.tickets)%groupBatchEvery == 0 {
		return a.l.Sync()
	}
	return nil
}

// outcomes returns how each grouped append's ticket resolved, in issue
// order. Every ticket must have resolved by now — commit, poison or close,
// never a hang.
func (a *appender) outcomes(after string) ([]error, error) {
	out := make([]error, len(a.tickets))
	for i, t := range a.tickets {
		if !t.Resolved() {
			return nil, fmt.Errorf("ticket %d (seq %d) unresolved after %s", i, t.Seq(), after)
		}
		out[i] = t.Wait()
	}
	return out, nil
}

// crashPoint runs the workload into a power cut armed at mutating op p.at,
// recovers from the materialized crash image and checks the recovery laws.
// fsynced says whether the cut is judged by the fsync bound (acked ≤ n):
// the crash row passes !NoSync, the grouped row always commits by fsync.
func (c Config) crashPoint(p *point, events []wal.Event, grouped, fsynced bool) error {
	mem := faultfs.NewMem(pointSeed(c.Seed, p.at))
	p.mem = mem
	l, err := wal.Open(c.walOptions(mem))
	if err != nil {
		return fmt.Errorf("initial Open: %v", err)
	}
	mem.CrashAt(p.at)
	a := &appender{l: l, grouped: grouped}
	for _, e := range events {
		if a.append(e) != nil || a.commit() != nil {
			break
		}
	}
	dead := mem.Dead()
	// Close resolves every outstanding ticket: on a dead filesystem its
	// fsync fails and the whole tail releases with the error; on a live one
	// it commits the tail. Either way no leader goroutine outlives the
	// point parked on an hour-long window.
	_ = l.Close()
	if !dead {
		p.ops = mem.Ops()
		return errBeyond
	}
	mem.Crash()

	acked, issued := a.acks, a.acks
	if grouped {
		outcomes, err := a.outcomes("the cut")
		if err != nil {
			return err
		}
		if acked, err = ackedPrefix(outcomes); err != nil {
			return err
		}
		issued = len(outcomes)
	}

	l2, err := wal.Open(c.walOptions(mem))
	if err != nil {
		return fmt.Errorf("recovery Open after crash: %v", err)
	}
	defer func() { l2.Close() }()
	n := int(l2.State().Events)
	if err := durabilityBound("recovered", n, acked, issued, fsynced); err != nil {
		return err
	}
	if grouped {
		if err := batchWindowBound(n, acked); err != nil {
			return err
		}
	}
	if ds, sq := l2.DurableSeq(), l2.Seq(); ds != sq {
		return fmt.Errorf("recovered log's durable tail %d != tail %d", ds, sq)
	}
	if err := referencePrefix("", events, l2); err != nil {
		return err
	}
	if l2, err = c.reopensTo("recovery not idempotent", l2, mem, events[:n]); err != nil {
		return err
	}
	if n >= 2 { // catalog prologue replayed, image exists
		post := wal.Sample(l2.State().LastAt+1, "temp", "post-crash")
		return liveness("append after recovery", &appender{l: l2, grouped: grouped}, post)
	}
	return nil
}

// eioPoint injects one transient fault — alternating torn short write and
// plain EIO — into data write p.at of the workload (0: none, the probe that
// counts the writes). The log must heal and retry a segment write (or, for a
// fault on a snapshot write, defer the snapshot), stay unpoisoned,
// acknowledge every append — grouped: release every ticket nil at the final
// fsync — count the fault exactly once, as a heal or a snapshot error, and
// recover to exactly the workload.
func (c Config) eioPoint(p *point, events []wal.Event, grouped bool) error {
	mem := faultfs.NewMem(pointSeed(c.Seed, p.at))
	p.mem = mem
	switch {
	case p.at == 0:
	case p.at%2 == 0:
		mem.TearWrite(p.at)
	default:
		mem.FailWrite(p.at)
	}
	l, err := wal.Open(c.walOptions(mem))
	if err != nil {
		return fmt.Errorf("Open: %v", err)
	}
	defer func() { l.Close() }()
	a := &appender{l: l, grouped: grouped}
	for i, e := range events {
		if err := a.append(e); err != nil {
			return fmt.Errorf("append %d failed under a transient fault: %v", i, err)
		}
		if err := a.commit(); err != nil {
			return fmt.Errorf("sync failed after heal: %v", err)
		}
	}
	p.ops = mem.Writes()
	if grouped {
		// The final fsync covers the tail batch: every ticket must resolve
		// nil — a healed transient fault never fails a committed neighbor.
		if err := l.Sync(); err != nil {
			return fmt.Errorf("final sync: %v", err)
		}
		outcomes, err := a.outcomes("the final sync")
		if err != nil {
			return err
		}
		for i, o := range outcomes {
			if o != nil {
				return fmt.Errorf("ticket %d (seq %d) resolved %v; the transient fault leaked into the batch", i, a.tickets[i].Seq(), o)
			}
		}
	}
	if perr := l.Err(); perr != nil {
		return fmt.Errorf("transient fault poisoned the log: %v", perr)
	}
	st := l.Stats()
	if armed, fired := min(p.at, 1), mem.Injected(); fired != armed || st.Heals+st.SnapshotErrors != fired {
		return fmt.Errorf("%d write faults armed, %d fired, counted %d heals + %d snapshot errors: each must be counted exactly once",
			armed, fired, st.Heals, st.SnapshotErrors)
	}
	if grouped && st.GroupCommits == 0 {
		return fmt.Errorf("grouped run recorded zero group commits (%d appends)", st.Appends)
	}
	if err := sameLog("WAL-004", "live log after heal", events, l); err != nil {
		return err
	}
	l, err = c.reopensTo("recovered state != workload", l, mem, events)
	return err
}

// renamePoint fails snapshot rename p.at (0: none, the probe that counts
// them). Appends must be unaffected (snapshots are accelerators), the
// failure must be counted, and recovery — served by an older snapshot or a
// full replay — must still reconstruct every event.
func (c Config) renamePoint(p *point, events []wal.Event) error {
	mem := faultfs.NewMem(pointSeed(c.Seed, p.at))
	p.mem = mem
	if p.at > 0 {
		mem.FailRename(p.at)
	}
	l, err := wal.Open(c.walOptions(mem))
	if err != nil {
		return fmt.Errorf("Open: %v", err)
	}
	defer func() { l.Close() }()
	for i, e := range events {
		if err := l.Append(e); err != nil {
			return fmt.Errorf("append %d failed under a rename fault: %v", i, err)
		}
	}
	p.ops = mem.Renames()
	if st := l.Stats(); p.at > 0 && st.SnapshotErrors == 0 {
		return fmt.Errorf("rename fault was never counted (SnapshotErrors=0, %d snapshots)", st.Snapshots)
	}
	l, err = c.reopensTo("recovered state after failed snapshot rename", l, mem, events)
	return err
}
