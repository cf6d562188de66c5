package server_test

import (
	"slices"
	"strings"
	"testing"

	"rtc/internal/rtdb/netserve"
	"rtc/internal/rtdb/server"
	"rtc/internal/rtwire"
)

// TestBooks holds every book, the server's and the listener's, to one
// closed snapshot, then moves one unit off each term in turn: the book must
// open, and its line must name its ID and every term. A reply without one
// of a book's rows opens it too.
func TestBooks(t *testing.T) {
	closed := map[string][]rtwire.MetricPair{
		"BOOK-queries":  server.MetricsSnapshot{QueriesIn: 10, QueriesRejected: 1, DeadlineHit: 2, DeadlineMiss: 3, NoDeadline: 4}.Pairs(),
		"BOOK-samples":  server.MetricsSnapshot{SamplesIn: 9, SamplesApplied: 9}.Pairs(),
		"BOOK-periodic": server.MetricsSnapshot{PeriodicIssued: 5, PeriodicHit: 3, PeriodicMiss: 2}.Pairs(),
		"BOOK-pushes":   server.MetricsSnapshot{PushScheduled: 6, Pushed: 3, PushDropped: 2, PushExpired: 1}.Pairs(),
		"BOOK-subs":     server.MetricsSnapshot{SubsOpened: 4, SubsClosed: 4}.Pairs(),
		"BOOK-conns":    netserve.WireSnapshot{ConnsAccepted: 7, ConnsClosed: 5, ConnsRefused: 2}.Pairs(),
	}
	books := append(server.Books(), netserve.Books()...)
	for _, b := range books {
		rows := closed[b.ID]
		if _, err := server.Audit("", []server.Book{b}, rows); rows == nil || err != nil || len(books) != len(closed) {
			t.Fatalf("%s (of %d books, %d closed) on its closed snapshot: %v", b.ID, len(books), len(closed), err)
		}
		if b.Quiescent != (b.ID == "BOOK-periodic" || b.ID == "BOOK-conns") {
			t.Errorf("%s quiescent %v", b.ID, b.Quiescent)
		}
		terms := append(slices.Clone(b.Left), b.Right...)
		for _, term := range terms {
			moved := slices.Clone(rows)
			moved[slices.IndexFunc(moved, func(p rtwire.MetricPair) bool { return p.Name == term })].Value--
			report, err := server.Audit("", []server.Book{b}, moved)
			for _, want := range append([]string{b.ID + " open: "}, terms...) {
				if err == nil || err.Error() != report || !strings.Contains(report, want) {
					t.Errorf("%s with %s one short: %q (%v) does not name %s", b.ID, term, report, err, want)
				}
			}
		}
	}
	if report, _ := server.Audit("shard 1: ", books[1:2], closed["BOOK-samples"], closed["BOOK-samples"]); report != "shard 1: BOOK-samples: samples_in 18 == samples_applied 18 ✓" {
		t.Errorf("two replies added by name: %q", report)
	}
	if _, err := server.Audit("", books, closed["BOOK-queries"]); err == nil || !strings.Contains(err.Error(), "BOOK-conns open: net_conns_accepted (no row)") {
		t.Errorf("a server's rows alone balance the listener's book: %v", err)
	}
	if m := (server.MetricsSnapshot{QueriesRejected: 1, DeadlineHit: 2, Pushed: 3, PushExpired: 4}); m.QueriesAccounted() != 3 || m.PushAccounted() != 7 {
		t.Errorf("accounted %d queries, %d pushes; want 3 and 7", m.QueriesAccounted(), m.PushAccounted())
	}
}
