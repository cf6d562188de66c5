package netserve

import (
	"rtc/internal/rtdb"
	wal "rtc/internal/rtdb/log"
	"rtc/internal/rtdb/server"
	"rtc/internal/rtdb/sub"
	"rtc/internal/rtwire"
	"rtc/internal/timeseq"
)

// Backend is the node behind a listener: everything the connection loop asks
// of whatever it serves, and nothing else. There are two implementations —
// the adapter over *server.Server below (a primary) and the replica
// package's mirror (a hot standby) — and the loop never asks which one it
// has: a role's semantics reach it only as return values and errors.
//
// Error contract (DESIGN.md §9). A Session or Subscribe call returns, bare:
//
//   - server.ErrBackpressure: the request was refused and accounted; the
//     client gets Err/CodeBackpressure and the connection carries on.
//   - a ReadOnlyError: the role does not take this request; the client gets
//     Err/CodeReadOnly with the error's text and the connection carries on —
//     the client rotates toward the primary on its own.
//   - anything else (server.ErrClosed): Err/CodeClosed; a refused sample ends
//     the connection, since every later one would be refused too.
//
// Subscribe differs in one respect: an error that is not a ReadOnlyError
// means the envelope was not admitted, and is answered with a refused SubAck.
type Backend interface {
	// OpenSession binds one accepted connection to a session for its
	// lifetime. ok is false when the node has none to give; the connection
	// is then refused with CodeServerFull.
	OpenSession() (s Session, ok bool)

	// Now, Epoch and Role are what Welcome, Heartbeat and every stamped
	// reply announce: the node's virtual clock, fencing epoch and role.
	Now() timeseq.Time
	Epoch() uint64
	Role() rtwire.Role

	// ValueAsOf reads an image's value at chronon at from the published
	// history; horizon is the chronon through which such reads are current.
	ValueAsOf(image string, at timeseq.Time) (v rtdb.Value, ok bool, horizon timeseq.Time)

	// Metrics is the node's counter block: the loop snapshots it for the
	// metrics reply and books queries that were dead on arrival in it.
	Metrics() *server.Metrics
	// AppendDurabilityRows appends the node's durability coordinates
	// (wal_seq, epoch and the role's repl_* rows) to a metrics reply.
	AppendDurabilityRows(dst []rtwire.MetricPair) []rtwire.MetricPair
	// HeartbeatSeq is the sequence a client may rely on surviving this
	// node's death, echoed in every client heartbeat.
	HeartbeatSeq() uint64

	// Subscribe attaches a standing query whose delivery queue posts its
	// wake tokens to wake (sub.NewQueueWake); after and depth are as in
	// server.Subscribe.
	Subscribe(spec sub.Spec, after uint64, depth int, wake chan struct{}) (*server.ServerSub, error)

	// WAL is the log a follower may replicate; nil refuses every
	// replication Subscribe.
	WAL() *wal.Log
}

// Session is one connection's handle on the backend, with the method set of
// *server.Session plus Close, which gives the session back.
type Session interface {
	ID() int
	InjectSample(image, value string) error
	Query(q server.QueryRequest) (server.Response, error)
	Flush() error
	Close()
}

// ReadOnlyError is the error a Backend returns, bare, for a request its role
// does not serve: a write or a firm envelope on a hot standby.
type ReadOnlyError string

func (e ReadOnlyError) Error() string { return string(e) }

// primary adapts *server.Server to Backend. It owns the session pool: a
// connection holds exactly one of the server's sessions for its lifetime, so
// srv.Config.Sessions bounds the concurrent connections.
type primary struct {
	srv  *server.Server
	pool chan int
	// n is the listener whose follower registry yields repl_durable.
	n *Server
}

func newPrimary(srv *server.Server, n *Server) *primary {
	p := &primary{srv: srv, pool: make(chan int, srv.Sessions()), n: n}
	for id := 0; id < srv.Sessions(); id++ {
		p.pool <- id
	}
	return p
}

// primarySession returns its id to the pool on Close.
type primarySession struct {
	*server.Session
	pool chan int
}

func (s primarySession) Close() { s.pool <- s.ID() }

func (p *primary) OpenSession() (Session, bool) {
	select {
	case id := <-p.pool:
		return primarySession{p.srv.Session(id), p.pool}, true
	default:
		return nil, false
	}
}

func (p *primary) Now() timeseq.Time { return p.srv.Now() }
func (p *primary) Epoch() uint64     { return p.srv.Epoch() }
func (p *primary) Role() rtwire.Role { return rtwire.RolePrimary }
func (p *primary) WAL() *wal.Log     { return p.srv.WAL() }

func (p *primary) ValueAsOf(image string, at timeseq.Time) (rtdb.Value, bool, timeseq.Time) {
	v, ok := p.srv.ValueAsOf(image, at)
	return v, ok, p.srv.HistoryHorizon()
}

func (p *primary) Metrics() *server.Metrics { return &p.srv.Metrics }

// AppendDurabilityRows: failover tooling compares a promoted node's wal_seq
// against the watermark heard from the old primary.
func (p *primary) AppendDurabilityRows(dst []rtwire.MetricPair) []rtwire.MetricPair {
	if l := p.srv.WAL(); l != nil {
		dst = append(dst,
			rtwire.MetricPair{Name: "wal_seq", Value: l.Seq()},
			// Under group commit wal_durable may trail wal_seq by the
			// open window; they converge at every commit.
			rtwire.MetricPair{Name: "wal_durable", Value: l.DurableSeq()},
		)
	}
	return append(dst,
		rtwire.MetricPair{Name: "epoch", Value: p.srv.Epoch()},
		rtwire.MetricPair{Name: "repl_durable", Value: p.n.ReplDurable()},
	)
}

// HeartbeatSeq is the replication durability watermark, NOT the local WAL
// tail: it must only cover what a follower has acknowledged.
func (p *primary) HeartbeatSeq() uint64 { return p.n.ReplDurable() }

func (p *primary) Subscribe(spec sub.Spec, after uint64, depth int, wake chan struct{}) (*server.ServerSub, error) {
	return p.srv.SubscribeWake(spec, after, depth, wake)
}
