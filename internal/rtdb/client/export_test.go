package client

import "rtc/internal/rtwire"

// newBackoff is the constructor's name from before the replica's tailer
// shared the walk; the TestBackoff* suite is kept as it was written.
var newBackoff = NewBackoff

// SendWaited is the send half of a Flush and of a Query — the frames their
// callers wait on, written and flushed inline — without the wait for a reply,
// so the alloc gate can run it against a peer that never answers.
func (c *Client) SendWaited(q Query) error {
	if err := c.send(rtwire.Flush{ID: c.nextID()}.AppendTo, true, true); err != nil {
		return err
	}
	wq := rtwire.Query{
		ID: c.nextID(), Query: q.Query, Candidate: q.Candidate, Kind: q.Kind,
		Deadline: q.Deadline, MinUseful: q.MinUseful, Decay: q.Decay,
	}
	return c.send(wq.AppendTo, true, true)
}
