package client

// newBackoff is the constructor's name from before the replica's tailer
// shared the walk; the TestBackoff* suite is kept as it was written.
var newBackoff = NewBackoff
