package torture

import (
	"errors"
	"fmt"
	"sort"

	"rtc/internal/faultfs"
	wal "rtc/internal/rtdb/log"
	"rtc/internal/rtdb/server"
	"rtc/internal/timeseq"
)

// The laws the sweeps assert, one function each. A point body computes the
// numbers and calls the law; nothing else in the package spells one out.
// TestInvariants holds a passing boundary and a violation against each.

// law is nil when holds, and otherwise the violation the message describes.
func law(holds bool, format string, args ...any) error {
	if holds {
		return nil
	}
	return fmt.Errorf(format, args...)
}

// durabilityBound (WAL-001) is the recovery law of a power cut, acked ≤ n ≤
// issued+1: every append the log acknowledged survives the crash, and beyond
// the events issued at most the single in-flight one may appear — nothing
// resurrects. Without a covering fsync (fsynced false) only the upper half
// holds. issued is acked for per-append acks and the ticket count for a grouped
// run.
func durabilityBound(who string, n, acked, issued int, fsynced bool) error {
	return errors.Join(
		law(!fsynced || n >= acked, "WAL-001: %s %d events but %d were acked+fsynced (durability lost)", who, n, acked),
		law(n <= issued+1, "WAL-001: %s %d events but only %d were issued before the cut (resurrection)", who, n, issued+1))
}

// batchWindowBound (WAL-002) is the grouped half of the durability contract,
// n − acked ≤ groupBatchEvery+1: at most one unacked batch window, plus the
// in-flight frame, survives the cut.
func batchWindowBound(n, acked int) error {
	return law(n-acked <= groupBatchEvery+1,
		"WAL-002: recovered %d events with only %d acked: more than one batch window survived unacked", n, acked)
}

// ackedPrefix (WAL-003) takes the commit outcomes of a grouped run in issue order and
// returns how many committed. The nil outcomes must form a prefix: a later
// batch committing over an earlier uncommitted one would reorder durability.
func ackedPrefix(outcomes []error) (acked int, err error) {
	firstErr := -1
	for i, o := range outcomes {
		switch {
		case o != nil && firstErr < 0:
			firstErr = i
		case o == nil && firstErr >= 0:
			return 0, fmt.Errorf("WAL-003: nil-resolved tickets not a prefix: ticket %d committed after ticket %d failed", i, firstErr)
		case o == nil:
			acked++
		}
	}
	return acked, nil
}

// survivorExact (WAL-008): a shard that took no fault recovers exactly what it acked.
func survivorExact(shard, n, acked int) error {
	return law(n == acked, "WAL-008: survivor shard %d recovered %d events, acked %d — survivors must be exact", shard, n, acked)
}

// sameLog is what every recovery is held to: l must hold exactly want — no
// reordering, no partial applies, no healed frame back from the dead. Its
// state must deep-equal want's reference replay, and because the state only
// counts firings and query issues, the records l serves through ReadFrom,
// from the first sequence it still serves to its tail, must be want's
// payloads byte for byte. id names the law (WAL-004, WAL-005) and what the
// comparison.
func sameLog(id, what string, want []wal.Event, l *wal.Log) error {
	if d := Reference(want).Diff(l.State()); d != "" {
		return fmt.Errorf("%s: %s: %s", id, what, d)
	}
	tail := l.Seq()
	pos := wal.ReadPos{Seq: uint64(sort.Search(int(tail), func(s int) bool {
		_, err := l.ReadFrom(&wal.ReadPos{Seq: uint64(s)}, 1)
		return !errors.Is(err, wal.ErrSeqCompacted)
	}))}
	for pos.Seq < tail {
		from := pos.Seq
		got, err := l.ReadFrom(&pos, 256)
		if err == nil && len(got) == 0 {
			err = errors.New("nothing served below the tail")
		}
		if err != nil {
			return fmt.Errorf("%s: %s: read after sequence %d of %d: %v", id, what, from, tail, err)
		}
		for i, p := range got {
			seq := from + uint64(i) + 1
			if issued := want[seq-1].Payload(); p != string(issued) {
				return fmt.Errorf("%s: %s: record %d is %q, issued %q", id, what, seq, p, issued)
			}
		}
	}
	return nil
}

// referencePrefix (WAL-004): a log recovered with n events holds exactly the
// first n events issued.
func referencePrefix(who string, issued []wal.Event, l *wal.Log) error {
	n := int(l.Seq())
	if n > len(issued) {
		return fmt.Errorf("WAL-004: %srecovered %d events, workload only has %d", who, n, len(issued))
	}
	return sameLog("WAL-004", fmt.Sprintf("%srecovery invariant violated at prefix %d", who, n), issued[:n], l)
}

// reopensTo (WAL-005) closes l and opens its directory again: what is on disk must be
// exactly want. After a crash recovery this is idempotence — the first Open
// normalized the torn tail, so a second one reproduces the identical log.
// It returns the log the caller now owns: the reopened one, or l (closed)
// when it could not be reopened.
func (c Config) reopensTo(what string, l *wal.Log, mem *faultfs.Mem, want []wal.Event) (*wal.Log, error) {
	if err := l.Close(); err != nil {
		return l, fmt.Errorf("WAL-005: close: %v", err)
	}
	l2, err := wal.Open(c.walOptions(mem))
	if err != nil {
		return l, fmt.Errorf("WAL-005: recovery Open: %v", err)
	}
	return l2, sameLog("WAL-005", what, want, l2)
}

// liveness (WAL-006): a recovered (or promoted) log is live — an append past the
// fault lands, and through a grouped appender commits at the next Sync.
func liveness(what string, a *appender, e wal.Event) error {
	if err := a.append(e); err != nil {
		return fmt.Errorf("WAL-006: %s: %v", what, err)
	}
	if !a.grouped {
		return nil
	}
	if err := a.l.Sync(); err != nil {
		return fmt.Errorf("WAL-006: sync after recovery: %v", err)
	}
	err := a.tickets[len(a.tickets)-1].Wait()
	return law(err == nil, "WAL-006: post-crash ticket resolved %v after a clean sync", err)
}

// servedLive (REPL-007) is liveness through a server: a node promoted in
// place is live — a sample one of its sessions takes lands in its log by the
// Flush that acknowledges it.
func servedLive(what string, srv *server.Server) error {
	before := srv.Seq()
	sess := srv.Session(0)
	if err := sess.InjectSample("temp", "live"); err != nil {
		return fmt.Errorf("REPL-007: %s: %v", what, err)
	}
	if err := sess.Flush(); err != nil {
		return fmt.Errorf("REPL-007: %s: flush: %v", what, err)
	}
	return law(srv.Seq() > before, "REPL-007: %s: the log stayed at %d", what, before)
}

// booksClosed (BOOK-) is every book of server.Books on a stopped node:
// whatever entered it — a query, a sample, a periodic tick, a scheduled
// push, a subscription — left through exactly one counted outcome. who
// names the node.
func booksClosed(who string, m server.MetricsSnapshot) error {
	_, err := server.Audit("", server.Books(), m.Pairs())
	return law(err == nil, "%v (%s)", err, who)
}

// walConservation (WAL-007): exactly the appends the server saw acknowledged come
// back from the WAL.
func walConservation(recovered, appends uint64) error {
	return law(recovered == appends, "WAL-007: WAL conservation violated: recovered %d events, %d appends acknowledged", recovered, appends)
}

// epochAdvanced (REPL-007): a promotion fences the old primary — the epoch
// it returns is past the initial one.
func epochAdvanced(epoch uint64) error {
	return law(epoch >= 2, "REPL-007: promotion left epoch at %d", epoch)
}

// epochPersisted (REPL-007): the bumped epoch survives a promoted restart.
func epochPersisted(promoted, reopened uint64) error {
	return law(reopened == promoted, "REPL-007: promoted epoch %d not persisted (reopened as %d)", promoted, reopened)
}

// cursorMonotone (SUB-005, SUB-006): a subscription's cursors strictly
// increase across every stall-induced resume and failover re-attach.
func cursorMonotone(last, next uint64) error {
	return law(next > last, "SUB-005/SUB-006: subscription cursor regressed: cursor %d after %d", next, last)
}

// ackedWrites (REPL-001) is zero lost acked writes over the wire, acked ≤
// applied and arrived ≤ sent: a sample the client saw acknowledged was
// applied, and no retry or resume delivered one twice.
func ackedWrites(acked, sent int, m server.MetricsSnapshot) error {
	return errors.Join(law(int(m.SamplesApplied) >= acked, "REPL-001: lost acked writes: %d acked, %d applied", acked, m.SamplesApplied),
		law(int(m.SamplesIn) <= sent, "REPL-001: duplicated writes: %d sent, %d arrived", sent, m.SamplesIn))
}

// crossShardSum (SHARD-001): the shards together recover Σ acked ≤ Σ n ≤
// Σ acked + 1 — only the victim's single in-flight append may exceed the
// group's acks. Without a covering fsync on the victim (fsynced false) only
// the upper half holds.
func crossShardSum(recovered, acked int, fsynced bool) error {
	return law((!fsynced || acked <= recovered) && recovered <= acked+1,
		"SHARD-001: cross-shard sum conservation violated: recovered %d, acked %d", recovered, acked)
}

// horizonHeld (WAL-009): every acknowledged write is durable, so the consistent
// horizon (min over shards of the last chronon) recomputed from the
// recovered shards is never behind the one the group had acknowledged.
// Without a covering fsync (fsynced false) an acknowledged write may be
// lost, and there is no lower bound to hold.
func horizonHeld(acked, recovered timeseq.Time, fsynced bool) error {
	return law(!fsynced || recovered >= acked, "WAL-009: consistent horizon regressed: acked %d, recovered %d", acked, recovered)
}
