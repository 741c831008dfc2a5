package rpc

// DialWithin is Dial within a timeout of the caller's, so a test need not
// wait out DialTimeout.
var DialWithin = dial
