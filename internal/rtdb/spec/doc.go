// Package spec is the serving stack's one conformance suite: each
// requirement numbered once, checked by one row, run on every target
// spec_test.go's requirements table gives it — inproc, tcp, faultnet,
// standby, promoted or shards, the constructors in target_test.go. Rows use
// exported API only.
//
// SUB- standing queries: 001 admission, 002 periodic delivery, 003
// drop-oldest, 004 cancel, 005 resume after a reconnect, 006 after a
// failover, 007 stale ticks expire, 008 refusals, 009 resume at a cursor.
// WIRE- one connection: 001 every request kind, 002 expired on arrival, 003
// the session pool, 004 subscription frames, 005 a corrupt frame resets, 006
// a mute client is cut, 007 silence bounded per frame, 008 the ordered
// metrics rows, 009 a write timeout evicts, 010 admission at dequeue, 011
// sample backpressure, 012 Hello first, 013 handshake timeout, 014 refusals
// counted, 015 subscription refusals, 016 push rows, 017 a frozen listener
// is cut, 018 durability rows, 019 WAL-less rows, 020 live fsync rows, 021
// fault-path counts, 022 a client's zero deadline expires, 023 a sample for
// an unknown image is rejected, a known one applied.
// REPL- replication: 001 catch-up then tail, 002 send window, 003 departing
// follower, 004 stalled standby subscriber, 005 planned promotion, 006 the
// sender only echoes, 007 promotion fences, 008 an idle link holds, 009 the
// watchdog promotes, 010 own apply is not silence, 011 live tail, 012 the
// log is the primary's bytes, 013 PromoteAfter needs beacons, 014 a follower
// the log cannot extend is refused (on tcp and faultnet, whose log the row
// sizes, snapshots and compacts). SHARD-: 001 placement, 002 metrics rows,
// 003 per-shard replication. WAL- are laws, not rows, in
// torture/invariants.go: 001 the durability bound, 002 one batch window, 003
// acked tickets a prefix, 004 the reference state, 005 reopen idempotent,
// 006 liveness, 007 WAL conservation, 008 survivors exact, 009 horizon held.
// BOOK- are conservation laws, not rows (server.Books, netserve.Books):
// -queries, -samples, -periodic, -pushes, -subs and -conns, balanced on
// every node and listener at each row's teardown. A torture law's message
// names the ID it checks.
package spec
