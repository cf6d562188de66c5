// Package spec is the serving stack's one conformance suite. Each
// requirement is numbered once, checked by one row, and run on every target
// it applies to; the table in spec_test.go says which, and the run fails when
// an (ID, target) pair has no row. Rows use exported API only.
//
// IDs: SUB- standing queries (admission, periodic delivery, drop-oldest,
// cancel, resume across a reconnect or a failover, expiry); WIRE- one
// connection (request kinds, refusals, framing and corruption, silence
// bounds, metrics rows, eviction); REPL- replication (catch-up and tail,
// send window, watermark, promotion); SHARD- placement and per-shard
// streams. The torture laws carry the IDs they check.
//
// Targets, each a constructor of the one target driver:
//
//	inproc    the server itself, sessions and subscriptions straight onto it
//	tcp       netserve on a loopback port
//	faultnet  netserve on a faultnet fabric
//	standby   a hot standby's listener, on a fabric, tailing a primary
//	promoted  that standby promoted in place, its primary gone
//	shards    two shard listeners with client placement (SHARD- rows only)
package spec
