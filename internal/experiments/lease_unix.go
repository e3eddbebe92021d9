//go:build unix

package experiments

import (
	"bytes"
	"errors"
	"os"
	"strconv"
	"syscall"
)

// processGone reports whether pid certainly names no live process on
// this host: kill(pid, 0) finds no such process, or /proc shows an
// unreaped zombie (its parent has not waited on it yet, but it will
// never write again).
func processGone(pid int) bool {
	err := syscall.Kill(pid, 0)
	if errors.Is(err, syscall.ESRCH) {
		return true
	}
	if err != nil && !errors.Is(err, syscall.EPERM) {
		return false
	}
	stat, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return false // no /proc on this system: trust the kill probe
	}
	// The state letter follows the parenthesized command name, which
	// may itself contain parentheses.
	i := bytes.LastIndexByte(stat, ')')
	return i >= 0 && i+2 < len(stat) && stat[i+2] == 'Z'
}
