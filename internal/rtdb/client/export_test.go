package client

// newBackoff is the constructor's name from before the walk was exported;
// the TestBackoff* suite is kept as it was written.
var newBackoff = NewBackoff

// IdleWaiters counts the waiters no call is using, ready for the next one.
func (c *Client) IdleWaiters() int {
	c.pmu.Lock()
	defer c.pmu.Unlock()
	return len(c.idle)
}

// PostLoss posts a follow stream's loss token, as a dead connection's read
// loop does — whether or not the stream has been re-attached since.
func (c *Client) PostLoss() { c.lost <- struct{}{} }
