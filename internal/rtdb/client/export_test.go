package client

import "rtc/internal/rtwire"

// newBackoff is the constructor's name from before the walk was exported;
// the TestBackoff* suite is kept as it was written.
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

// PostLoss posts a follow stream's loss token, as a dead connection's read
// loop does — whether or not the stream has been re-attached since.
func (c *Client) PostLoss() { c.lost <- struct{}{} }
