//go:build !unix

package experiments

// processGone cannot probe processes on this platform, so a lease is
// reclaimed only once its heartbeat expires.
func processGone(pid int) bool { return false }
